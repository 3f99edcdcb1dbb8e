//! Summary statistics and the oracle tally.

/// Samples a tail percentile must leave above it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank value at 1-based `rank` of an ascending slice.
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`, taken as the mean of the middle fifth of the
/// sorted values (the middle one or two when there are few). The times
/// it summarises come from heterogeneous operations, clustered by program
/// and width; a nearest-rank median sitting on a gap between two clusters
/// jumps between them when one operation crosses the midpoint. 0 for an
/// empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // `lo + hi - 1 == n - 1`, so the band is centred on the middle.
    let (lo, hi) = (n * 2 / 5, (n * 3).div_ceil(5));
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// The tail latency to report: p99 while at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it, otherwise the highest percentile that has that
/// many beyond it. Returns `(percentile, value)`; 0 values for no samples.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p99_rank = (n * 99).div_ceil(100);
    let rank = p99_rank.min(n.saturating_sub(TAIL_MIN_BEYOND)).max(1);
    (100.0 * rank as f64 / n as f64, at_rank(&v, rank))
}

/// Geometric mean of positive values; 0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Verified operations against attempted ones: the source of `ok_frac`
/// and of the result line's `attempted`/`failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation; `why` explains a failure on stderr.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", why());
        }
    }

    /// Verified share of attempted operations (0 when nothing ran).
    #[must_use]
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_mean_of_the_middle_fifth() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        // 20 values: ranks 9 to 12 (values 9..=12) are the middle fifth.
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(median(&v), 10.5);
        // Two clusters with a gap at the midpoint: one value crossing it
        // moves the median by a quarter of the gap, not the whole gap.
        let mut v: Vec<f64> = [1.0; 10].into_iter().chain([11.0; 10]).collect();
        let before = median(&v);
        v[9] = 11.0;
        assert!((median(&v) - before - 2.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_p99_with_ten_samples_beyond() {
        // 2000 samples: p99 is rank 1980, with 20 samples beyond it.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 1980.0));
        // 1010 samples: p99 (rank 1000) leaves exactly ten beyond.
        let v: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(tail(&v).1, 1000.0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p99 would leave 2 beyond, so rank 190 (p95) it is.
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        // Too few samples for any percentile with ten beyond: the minimum.
        let (pct, value) = tail(&[5.0, 7.0, 6.0]);
        assert_eq!(value, 5.0);
        assert!((pct - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_failed_checks() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "a failed check".to_string());
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(t.ok_frac(), 0.5);
    }
}
