//! The host interface: how pyfn programs reach the outside world.
//!
//! Workers execute functions under a [`Host`] that controls time (`sleep`
//! goes through the endpoint's clock, so walltime simulations are
//! deterministic), randomness, and stdout capture. The SDK-side convenience
//! [`CapturingHost`] buffers printed lines for tests.

use std::time::Duration;

use gcx_core::clock::SharedClock;

/// Host services available to an executing program.
pub trait Host {
    /// Suspend execution for `seconds` (the `sleep()` builtin). The paper's
    /// workloads wrap compute kernels; `sleep` is our controllable stand-in
    /// for compute time.
    fn sleep(&mut self, seconds: f64);

    /// A uniform random float in `[0, 1)` (the `rand()` builtin).
    fn rand(&mut self) -> f64;

    /// Emit one line of output (the `print()` builtin).
    fn print(&mut self, line: &str);

    /// The hostname of the executing node (the `hostname()` builtin).
    /// Workers set this to their assigned node's name.
    fn hostname(&self) -> String {
        "localhost".to_string()
    }
}

/// Host backed by a [`SharedClock`] and a seeded RNG.
pub struct SystemHost {
    clock: SharedClock,
    rng_state: u64,
    hostname: String,
    /// Captured stdout lines.
    pub(crate) stdout: Vec<String>,
}

impl SystemHost {
    /// Host over the given clock, RNG seed, and node hostname.
    pub fn new(clock: SharedClock, seed: u64, hostname: impl Into<String>) -> Self {
        Self {
            clock,
            rng_state: seed.max(1),
            hostname: hostname.into(),
            stdout: Vec::new(),
        }
    }
}

impl Host for SystemHost {
    fn sleep(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.clock
                .sleep(Duration::from_millis((seconds * 1000.0) as u64));
        }
    }

    fn rand(&mut self) -> f64 {
        // xorshift64* — deterministic, good enough for workload jitter.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let bits = x.wrapping_mul(0x2545F4914F6CDD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    fn print(&mut self, line: &str) {
        self.stdout.push(line.to_string());
    }

    fn hostname(&self) -> String {
        self.hostname.clone()
    }
}

/// A host for tests: no real sleeping (records requested sleep time),
/// deterministic RNG, captured stdout.
#[derive(Default)]
pub struct CapturingHost {
    /// Total seconds of sleep requested.
    pub(crate) slept: f64,
    /// Captured stdout lines.
    pub(crate) stdout: Vec<String>,
    rng_state: u64,
}

impl Host for CapturingHost {
    fn sleep(&mut self, seconds: f64) {
        self.slept += seconds.max(0.0);
    }

    fn rand(&mut self) -> f64 {
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1);
        (self.rng_state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn print(&mut self, line: &str) {
        self.stdout.push(line.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcx_core::clock::{SystemClock, VirtualClock};
    use std::sync::Arc;

    #[test]
    fn system_host_rand_is_deterministic_and_in_range() {
        let mut a = SystemHost::new(SystemClock::shared(), 42, "localhost");
        let mut b = SystemHost::new(SystemClock::shared(), 42, "localhost");
        for _ in 0..100 {
            let x = a.rand();
            assert_eq!(x, b.rand());
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn capturing_host_accumulates() {
        let mut h = CapturingHost::default();
        h.sleep(1.5);
        h.sleep(0.5);
        h.sleep(-3.0);
        assert_eq!(h.slept, 2.0);
        h.print("a");
        h.print("b");
        assert_eq!(h.stdout, vec!["a", "b"]);
    }

    #[test]
    fn system_host_sleep_uses_clock() {
        let clock = VirtualClock::new();
        let c2 = Arc::clone(&clock);
        let h = std::thread::spawn(move || {
            let mut host = SystemHost::new(c2, 1, "node-1");
            host.sleep(0.2);
            host.hostname()
        });
        clock.wait_for_sleepers(1);
        clock.advance(200);
        assert_eq!(h.join().unwrap(), "node-1");
    }

    #[test]
    fn zero_seed_does_not_break_rng() {
        let mut h = SystemHost::new(SystemClock::shared(), 0, "localhost");
        let x = h.rand();
        let y = h.rand();
        assert_ne!(x, y);
    }
}
