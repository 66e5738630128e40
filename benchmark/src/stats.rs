//! Medians, percentiles, pacing helpers and process memory.

use std::time::{Duration, Instant};

/// Median of `v` (sorts in place; 0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples in nanoseconds, pooled over passes.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The samples in order, cut into `n` windows of equal size.
    pub fn windows(&self, n: usize) -> Vec<Samples> {
        let size = self.0.len().div_ceil(n).max(1);
        self.0.chunks(size).map(|c| Samples(c.to_vec())).collect()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut s = self.0.clone();
        s.sort_unstable();
        s
    }

    /// The `p`-quantile (nearest rank) in microseconds; 0 when empty.
    pub fn quantile_us(&self, p: f64) -> f64 {
        self.quantiles_us(&[p])[0]
    }

    /// Several quantiles from one sort.
    pub fn quantiles_us(&self, ps: &[f64]) -> Vec<f64> {
        let s = self.sorted();
        ps.iter()
            .map(|p| {
                if s.is_empty() {
                    return 0.0;
                }
                let idx = ((s.len() as f64 - 1.0) * p).round() as usize;
                s[idx] as f64 / 1e3
            })
            .collect()
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }
}

/// The `q`-quantile of each pass, then the median over passes, in
/// microseconds.
///
/// The sandbox has slow spells (disk, host) lasting seconds, and the
/// hypervisor's adaptive halt polling makes wake-ups after a sleep or a
/// `sync_data` cheap for a while and dear for a while. Either moves the
/// pooled quantile of a whole run, and picking the best pass would pick
/// whichever regime was cheapest; the median over passes sits in the
/// regime the run spent most of its time in.
pub fn over_passes_us(passes: &[Samples], q: f64) -> f64 {
    let mut per: Vec<f64> = passes
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| p.quantile_us(q))
        .collect();
    median(&mut per)
}

/// Sleep until `due`. Sleeping (not spinning) on purpose: the box has
/// two cores and the program under test needs them; a late wake-up is
/// charged to the operation because latency counts from `due`.
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Time `iters` calls of `f`, `reps` times over; median ns per call.
pub fn ns_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut per)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let s = Samples((1..=100).map(|i| i * 1_000).collect());
        assert_eq!(s.p50_us(), 51.0);
        assert_eq!(s.p99_us(), 99.0);
        assert_eq!(Samples::default().p99_us(), 0.0);
        let spell = Samples(vec![900_000; 100]);
        let calm = Samples((1..=100).map(|i| i * 1_000).collect());
        assert_eq!(over_passes_us(&[calm.clone(), spell, calm], 0.99), 99.0);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
