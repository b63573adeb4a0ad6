//! Usage metering: task invocations per day (the data behind Fig. 2).

use std::collections::BTreeMap;
use std::sync::Arc;

use gcx_core::clock::TimeMs;
use parking_lot::Mutex;

const MS_PER_DAY: u64 = 24 * 3600 * 1000;

/// Counts task invocations bucketed by day.
#[derive(Clone, Default)]
pub struct UsageMeter {
    days: Arc<Mutex<BTreeMap<u64, u64>>>,
}

impl UsageMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one task invocation at `now` (clock ms since the meter's
    /// epoch).
    pub fn record_task(&self, now: TimeMs) {
        self.record_tasks(now, 1);
    }

    /// Record `n` task invocations at `now` with one lock round trip (an
    /// accepted batch).
    pub fn record_tasks(&self, now: TimeMs, n: u64) {
        if n > 0 {
            *self.days.lock().entry(now / MS_PER_DAY).or_insert(0) += n;
        }
    }

    /// Total tasks ever recorded.
    pub fn total(&self) -> u64 {
        self.days.lock().values().sum()
    }

    /// Per-day series as `(day_index, count)`, sorted by day.
    pub fn daily_series(&self) -> Vec<(u64, u64)> {
        self.days.lock().iter().map(|(d, c)| (*d, *c)).collect()
    }

    /// Per-day series with gaps filled as zero between the first and last
    /// observed day — the shape Fig. 2 plots.
    pub fn dense_daily_series(&self) -> Vec<(u64, u64)> {
        let days = self.days.lock();
        let (Some((&first, _)), Some((&last, _))) = (days.iter().next(), days.iter().next_back())
        else {
            return Vec::new();
        };
        (first..=last)
            .map(|d| (d, days.get(&d).copied().unwrap_or(0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_day() {
        let m = UsageMeter::new();
        m.record_task(0);
        m.record_task(MS_PER_DAY - 1);
        m.record_task(MS_PER_DAY);
        m.record_task(3 * MS_PER_DAY + 5);
        m.record_tasks(3 * MS_PER_DAY + 6, 128);
        m.record_tasks(9 * MS_PER_DAY, 0);
        assert_eq!(m.total(), 132);
        assert_eq!(m.daily_series(), vec![(0, 2), (1, 1), (3, 129)]);
    }

    #[test]
    fn dense_series_fills_gaps() {
        let m = UsageMeter::new();
        m.record_task(0);
        m.record_task(2 * MS_PER_DAY);
        assert_eq!(m.dense_daily_series(), vec![(0, 1), (1, 0), (2, 1)]);
        assert!(UsageMeter::new().dense_daily_series().is_empty());
    }

    #[test]
    fn concurrent_recording() {
        let m = UsageMeter::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        m.record_task(i * 1000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.total(), 4000);
    }
}
