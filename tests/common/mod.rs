//! Helpers the chaos suites share. Each `tests/chaos_*.rs` is a crate of
//! its own and uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcx::sdk::TaskFuture;

/// The environment variable `var` read as a seed (decimal or `0x`-hex).
pub fn seed_from_env(var: &str) -> Option<u64> {
    let s = std::env::var(var).ok()?;
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The chaos seed: `GCX_CHAOS_SEED` when set, the suite's fixed `default`
/// otherwise. CI runs each suite under several fixed seeds; the
/// probabilistic fault rules draw differently under each, so the recovery
/// paths are exercised from different interleavings while the acceptance
/// bar (100% completion, exactly-once) stays seed-independent.
pub fn chaos_seed(default: u64) -> u64 {
    seed_from_env("GCX_CHAOS_SEED").unwrap_or(default)
}

/// Count every resolution the SDK observes; a duplicate delivery that
/// re-resolved a future would be visible as `resolutions > futures`.
pub fn observe(futures: &[TaskFuture]) -> Arc<AtomicUsize> {
    let resolutions = Arc::new(AtomicUsize::new(0));
    for f in futures {
        let r = Arc::clone(&resolutions);
        f.on_done(move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
    }
    resolutions
}

/// Assert the SDK observed exactly `expect` resolutions. Completion
/// callbacks fire just after `result()` waiters wake, so allow a short
/// settling window before the count is final.
pub fn assert_observed_exactly(resolutions: &AtomicUsize, expect: usize) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while resolutions.load(Ordering::SeqCst) < expect && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        resolutions.load(Ordering::SeqCst),
        expect,
        "the SDK must observe each result exactly once"
    );
}
