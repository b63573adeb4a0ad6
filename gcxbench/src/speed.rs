//! The host-speed sentinel: what lets a CPU-limited workload report the same
//! figure in a fast and in a slow phase of a shared host.
//!
//! The sandbox is a small guest on a shared machine whose speed *for this
//! kind of code* (allocation, hashing, formatting, hand-offs: high-IPC work)
//! moves by 20-30% in phases that last minutes, while a dependent-multiply
//! spin loop reads the same throughout. A workload whose throughput is
//! limited by CPU inherits every such phase one to one: ten runs of
//! `svc_inmem` spread 10-20%, whatever statistic is taken, because the whole
//! wave-time distribution shifts. The harness therefore times a fixed burst
//! of the same kind of work, its own code and nothing of the program's,
//! between waves, and reports a CPU-limited workload's times at a fixed
//! reference burst time:
//!
//! ```text
//! speed index   = REFERENCE_BURST_S / mean burst time over the repetition
//! busy share    = process CPU seconds / (cores * seconds inside waves)
//! time scale    = 1 - busy share + busy share * speed index
//! reported time = measured time * time scale
//! reported rate = measured rate / time scale
//! ```
//!
//! Only the share of a wave the process spends on a CPU follows the host's
//! speed; sleeps, polls and waits for the other end do not. Over 300
//! repetitions the burst followed `svc_tcp`'s wave times with a correlation
//! of 0.94 and an exponent of 0.69 at a busy share of 0.77, `svc_inmem`'s with
//! 0.92-0.94 and 0.9-1.0 at 0.82. Scaled this way, six sets of ten runs that
//! spread 3-17% as measured, with medians from 71k to 95k tasks/s
//! (`svc_inmem`) and 33k to 43k (`svc_tcp`), spread 1-5% and 1-4% with medians
//! within 2.1% and 1.8% of each other. A change to the program cannot move
//! the burst, so a regression still shows in full.
//!
//! Workloads whose time is sleeps, polls and process launches (`rtt_tcp`,
//! `mpi_pack`, and `stream_full`, whose rate is set by the engine loop's poll
//! cycle) do not follow the burst (correlation 0.07 on `stream_full`) and the
//! first two repeat within a few percent as measured; they take no samples
//! and report times as measured. README "Host speed" has the measurements.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The burst time every CPU-limited figure is reported at: about what the
/// burst takes on the 2-core reference machine in a quiet phase. Only a unit:
/// changing it scales every reported figure of those workloads alike.
pub const REFERENCE_BURST_S: f64 = 600e-6;

/// Least time between two bursts, so that they take at most ~5% of a run
/// with short waves.
pub const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(12);

/// Keys in the map at any time: small enough to stay cache-resident, like
/// the per-task records the program touches.
const LIVE_KEYS: usize = 128;
const INSERTS: usize = 1500;

/// One burst: format a key, allocate a value, insert it into a hash map and
/// retire the key inserted `LIVE_KEYS` steps earlier. Returns seconds.
pub fn burst() -> f64 {
    let key = |i: usize| {
        format!(
            "task-{:016x}",
            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        )
    };
    let t0 = Instant::now();
    let mut map: HashMap<String, Vec<u8>> = HashMap::with_capacity(4 * LIVE_KEYS);
    let mut acc = 0u64;
    for i in 0..black_box(INSERTS) {
        map.insert(key(i), vec![i as u8; 96]);
        if i >= LIVE_KEYS {
            if let Some(old) = map.remove(&key(i - LIVE_KEYS)) {
                acc += u64::from(old[0]);
            }
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Speed index of a repetition from its burst times; 1 when it took none
/// (a workload that is not CPU-limited).
///
/// The mean, not the median: the host flips between its fast and its slow
/// state many times within a repetition and the workload sees the time
/// average of the two, which the median of a two-humped sample does not
/// follow (ten runs scaled by the median still spread 10-14%, by the mean
/// 5%). A burst more than three times the median was preempted, not slowed,
/// and counts as three medians, so that one 10 ms stall among 100 bursts
/// does not move the index by 15%.
pub fn index(burst_s: &[f64]) -> f64 {
    if burst_s.is_empty() {
        return 1.0;
    }
    let cap = 3.0 * crate::stats::median(burst_s);
    let mean = burst_s.iter().map(|b| b.min(cap)).sum::<f64>() / burst_s.len() as f64;
    REFERENCE_BURST_S / mean
}
