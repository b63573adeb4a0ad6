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
        *self.days.lock().entry(now / MS_PER_DAY).or_insert(0) += 1;
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
        assert_eq!(m.dense_daily_series(), vec![(0, 2), (1, 1), (2, 0), (3, 1)]);
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
        let total: u64 = m.dense_daily_series().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 4000);
    }

    /// Fig. 2: task invocations a day from Nov 28 2022 to Aug 14 2024,
    /// truncated at 100 000 a day. The paper reports ~17 M tasks with
    /// "increasing and more consistent use over time" and bursty days
    /// clipped at the ceiling. A synthetic workload drives the meter:
    /// logistic adoption growth, weekday seasonality, and heavy-tailed
    /// campaign bursts (a user hammering one endpoint — the spikes).
    #[test]
    fn fig2_usage_grows_and_bursts_hit_the_ceiling() {
        const DAYS: u64 = 625;
        const TRUNCATE: u64 = 100_000;
        let mut state: u64 = 20221128;
        let mut uniform = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let usage = UsageMeter::new();
        let (mut total, mut truncated_days) = (0u64, 0u64);
        for day in 0..DAYS {
            // ~3k tasks/day at launch → ~40k/day by the end.
            let t = day as f64 / DAYS as f64;
            let base = 3_000.0 + 37_000.0 / (1.0 + (-8.0 * (t - 0.55)).exp());
            // Weekends run ~60% of weekday load.
            let season = if (day + 1) % 7 >= 5 { 0.6 } else { 1.0 };
            // ~8% of days a campaign multiplies load 2–12×.
            let burst = if uniform() < 0.08 {
                2.0 + uniform() * 10.0
            } else {
                1.0
            };
            let noise = 0.7 + uniform() * 0.6;
            let raw = (base * season * burst * noise) as u64;
            truncated_days += u64::from(raw > TRUNCATE);
            let count = raw.min(TRUNCATE);
            total += count;
            // One record per 1000 tasks keeps the meter fast and the shape.
            for _ in 0..count.div_ceil(1000) {
                usage.record_task(day * MS_PER_DAY + MS_PER_DAY / 2);
            }
        }
        let series = usage.dense_daily_series();
        assert_eq!(series.len() as u64, DAYS);
        let quarter_mean =
            |days: &[(u64, u64)]| days.iter().map(|(_, c)| *c as f64).sum::<f64>() / 91.0;
        let growth = quarter_mean(&series[series.len() - 91..]) / quarter_mean(&series[..91]);
        assert!(growth > 2.0, "usage must grow: {growth:.1}x");
        assert!(truncated_days > 0, "some days must hit the 100k ceiling");
        assert!(
            (10_000_000..25_000_000).contains(&total),
            "{total} tasks (paper: ~17 M)"
        );
    }
}
