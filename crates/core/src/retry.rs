//! Retry policies with deterministic exponential backoff.
//!
//! Recovery paths across the stack (cloud redelivery, SDK resubmission,
//! endpoint reconnects) share a [`RetryPolicy`]: a maximum attempt budget and
//! an exponential backoff schedule with bounded jitter. The jitter is derived
//! from a seed and the attempt number — never from wall time — so simulations
//! on a [`crate::clock::VirtualClock`] replay identically.

use std::time::Duration;

/// How many times to retry an operation and how long to wait between tries.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed (first try included). `0` is treated as `1`.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in ms.
    pub base_ms: u64,
    /// Upper bound on any single backoff, in ms.
    pub max_ms: u64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a deterministic
    /// factor drawn from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream (mixed with the attempt number).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_ms: 100,
            max_ms: 10_000,
            jitter: 0.2,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_ms: 0,
            max_ms: 0,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// A policy with `max_attempts` tries and no jitter — handy in tests
    /// where exact backoff values matter.
    pub fn fixed(max_attempts: u32, base_ms: u64) -> Self {
        Self {
            max_attempts,
            base_ms,
            max_ms: base_ms * 64,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// True if attempt number `attempt` (1-based) is within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_attempts.max(1)
    }

    /// Backoff to wait *after* failed attempt `attempt` (1-based): exponential
    /// doubling from `base_ms`, capped at `max_ms`, scaled by deterministic
    /// jitter. Independent of wall time.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let attempt = attempt.max(1);
        let exp = (attempt - 1).min(32);
        let raw = self.base_ms.saturating_mul(1u64 << exp).min(self.max_ms);
        if self.jitter <= 0.0 || raw == 0 {
            return raw;
        }
        // Deterministic jitter: hash seed+attempt into [0, 1), map to
        // [1 - jitter, 1 + jitter].
        let h = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        ((raw as f64 * factor).round() as u64)
            .min(self.max_ms)
            .max(1)
    }

    /// [`RetryPolicy::backoff_ms`] as a [`Duration`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.backoff_ms(attempt))
    }
}

/// SplitMix64 — a tiny, high-quality mixing function. Used for deterministic
/// jitter and as the core of the fault-injection RNG in `gcx-mq`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic RNG stream built on [`splitmix64`]. Not cryptographic;
/// used only where reproducible pseudo-randomness is required (fault
/// injection, jitter).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_without_jitter() {
        let p = RetryPolicy::fixed(5, 100);
        assert_eq!(p.backoff_ms(1), 100);
        assert_eq!(p.backoff_ms(2), 200);
        assert_eq!(p.backoff_ms(3), 400);
        assert_eq!(p.backoff(4), Duration::from_millis(800));
    }

    #[test]
    fn backoff_is_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_ms: 100,
            max_ms: 350,
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(p.backoff_ms(3), 350);
        assert_eq!(p.backoff_ms(9), 350);
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(p.backoff_ms(64), 350);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_ms: 1000,
            max_ms: 60_000,
            jitter: 0.5,
            seed: 42,
        };
        for attempt in 1..=4 {
            let a = p.backoff_ms(attempt);
            let b = p.backoff_ms(attempt);
            assert_eq!(a, b, "same attempt must give same backoff");
            let raw = 1000u64 << (attempt - 1);
            assert!(
                a >= raw / 2 && a <= raw * 3 / 2,
                "attempt {attempt}: {a} out of range"
            );
        }
        // Different seeds give different jitter (with overwhelming likelihood).
        let q = RetryPolicy {
            seed: 43,
            ..p.clone()
        };
        assert_ne!(
            (1..=4).map(|i| p.backoff_ms(i)).collect::<Vec<_>>(),
            (1..=4).map(|i| q.backoff_ms(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn attempt_budget() {
        let p = RetryPolicy::fixed(3, 10);
        assert!(p.allows(1));
        assert!(p.allows(2));
        assert!(!p.allows(3));
        assert!(!RetryPolicy::none().allows(1));
        // max_attempts == 0 still allows the first attempt to run; it just
        // never retries.
        let z = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(!z.allows(1));
    }

    #[test]
    fn det_rng_reproducible() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn det_rng_chance_edges() {
        let mut r = DetRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }
}
