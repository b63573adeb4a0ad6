//! Order statistics, the seeded generator, and the `/proc` readers the
//! harness reports process cost from.

/// Median of a sample (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, extremes and coefficient of variation over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub cov: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Self {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            cov: if mean != 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} (min {:.4}, max {:.4}, CoV {:.1}%)",
            self.median,
            self.min,
            self.max,
            self.cov * 100.0
        )
    }
}

/// SplitMix64: every generated input of a run derives from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// utime + stime of the whole process in seconds. `/proc/self/stat` counts
/// in 10 ms ticks and includes threads that have already exited, which the
/// per-thread `schedstat` files do not.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of the process so far (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Live thread count of the process.
pub fn thread_count() -> f64 {
    status_kib("Threads:")
}

/// 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}
