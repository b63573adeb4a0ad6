//! Time abstraction: real wall-clock time for the live runtime, virtual time
//! for deterministic simulations.
//!
//! Components that care about time (batch-job walltimes, shell-function
//! walltimes, the Fig. 2 usage simulation spanning ~600 days) take a
//! [`SharedClock`] so tests and benchmarks can substitute a [`VirtualClock`]
//! and drive time explicitly.

use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parking_lot::{Condvar, Mutex};

/// Milliseconds since an arbitrary epoch (UNIX epoch for [`SystemClock`],
/// zero for a fresh [`VirtualClock`]).
pub type TimeMs = u64;

/// The time source used throughout gcx.
pub trait Clock: Send + Sync {
    /// Current time in milliseconds.
    fn now_ms(&self) -> TimeMs;

    /// Block the calling thread for `d`. On a virtual clock this blocks until
    /// another thread advances time past the deadline.
    fn sleep(&self, d: Duration);

    /// True for virtual clocks (lets components pick polling strategies).
    fn is_virtual(&self) -> bool {
        false
    }
}

/// A reference-counted clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl SystemClock {
    /// A shared handle to the system clock.
    pub fn shared() -> SharedClock {
        Arc::new(SystemClock)
    }
}

impl Clock for SystemClock {
    fn now_ms(&self) -> TimeMs {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_millis() as TimeMs
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

struct VirtualState {
    now_ms: TimeMs,
    /// Number of threads currently blocked in `sleep`.
    sleepers: usize,
}

/// A manually-advanced clock.
///
/// `sleep` blocks until some other thread calls [`VirtualClock::advance`]
/// far enough. The sleeper count is exposed so a
/// driver loop can advance time only when the simulation has quiesced.
pub struct VirtualClock {
    state: Mutex<VirtualState>,
    cond: Condvar,
}

impl VirtualClock {
    /// A virtual clock starting at time zero.
    pub fn new() -> Arc<Self> {
        Self::starting_at(0)
    }

    /// A virtual clock starting at `start_ms` (e.g. a real epoch offset so
    /// simulated timestamps convert to calendar dates).
    pub(crate) fn starting_at(start_ms: TimeMs) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(VirtualState {
                now_ms: start_ms,
                sleepers: 0,
            }),
            cond: Condvar::new(),
        })
    }

    /// Advance time by `delta_ms`, waking any sleepers whose deadline passed.
    pub fn advance(&self, delta_ms: u64) {
        let mut st = self.state.lock();
        st.now_ms = st.now_ms.saturating_add(delta_ms);
        drop(st);
        self.cond.notify_all();
    }

    /// How many threads are currently blocked in `sleep`.
    pub(crate) fn sleeper_count(&self) -> usize {
        self.state.lock().sleepers
    }

    /// Spin (yielding) until `n` threads are asleep — used by deterministic
    /// tests that need the simulation to quiesce before advancing time.
    pub fn wait_for_sleepers(&self, n: usize) {
        while self.sleeper_count() < n {
            std::thread::yield_now();
        }
    }
}

impl Clock for VirtualClock {
    fn now_ms(&self) -> TimeMs {
        self.state.lock().now_ms
    }

    fn sleep(&self, d: Duration) {
        let mut st = self.state.lock();
        let deadline = st.now_ms.saturating_add(d.as_millis() as u64);
        st.sleepers += 1;
        while st.now_ms < deadline {
            self.cond.wait(&mut st);
        }
        st.sleepers -= 1;
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn system_clock_monotonic_enough() {
        let c = SystemClock;
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance(250);
        assert_eq!(c.now_ms(), 250);
    }

    #[test]
    fn virtual_sleep_blocks_until_advanced() {
        let c = VirtualClock::new();
        let c2 = Arc::clone(&c);
        let h = thread::spawn(move || {
            c2.sleep(Duration::from_millis(100));
            c2.now_ms()
        });
        c.wait_for_sleepers(1);
        assert_eq!(c.sleeper_count(), 1);
        c.advance(50);
        // Still asleep: deadline is 100.
        assert_eq!(c.sleeper_count(), 1);
        c.advance(60);
        let woke_at = h.join().unwrap();
        assert!(woke_at >= 100);
        assert_eq!(c.sleeper_count(), 0);
    }

    #[test]
    fn virtual_sleep_zero_returns_immediately() {
        let c = VirtualClock::new();
        c.sleep(Duration::ZERO);
        assert_eq!(c.now_ms(), 0);
    }
}
