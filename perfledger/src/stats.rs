//! Small numeric helpers: order statistics, a seeded RNG, and process
//! memory readings.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// SplitMix64: the benchmark's own seeded stream for arrival schedules
/// and body choice, independent of the program's RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Cumulative `(steal, total)` CPU ticks of this machine, from the first
/// line of `/proc/stat`: steal is time the hypervisor ran something
/// else while this machine's virtual CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen by the hypervisor since `since`.
pub fn steal_share_since(since: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    let total = now.1.saturating_sub(since.1);
    if total == 0 {
        return 0.0;
    }
    now.0.saturating_sub(since.0) as f64 / total as f64
}

/// Host steal share above which a measurement counts as disturbed.
pub const STEAL_CALM: f64 = 0.02;

/// The `(measurement, steal share)` measurements taken while the host
/// was calm, or all of them when none was. Steal is set by other tenants
/// of the host, never by the program, so this drops interference
/// without hiding a change to the program.
pub fn calm<T>(values: &[(T, f64)]) -> Vec<&T> {
    let all = values.iter().map(|(v, _)| v);
    if values.iter().any(|(_, steal)| *steal <= STEAL_CALM) {
        all.zip(values)
            .filter(|(_, (_, steal))| *steal <= STEAL_CALM)
            .map(|(v, _)| v)
            .collect()
    } else {
        all.collect()
    }
}

/// Median of the calm measurements (see [`calm`]).
pub fn calm_median(values: &[(f64, f64)]) -> f64 {
    median(&calm(values).into_iter().copied().collect::<Vec<_>>())
}

/// Cores this process may run on; every load-generator, server and
/// trainer thread count, and the in-flight connection cap, is set to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        let passes = [(1.0, 0.0), (9.0, 0.3), (2.0, 0.01), (8.0, 0.2), (3.0, 0.0)];
        assert_eq!(calm_median(&passes), 2.0);
        assert_eq!(calm_median(&[(4.0, 0.5), (6.0, 0.3)]), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix64::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert!(SplitMix64::new(1).unit() > 0.0);
    }
}
