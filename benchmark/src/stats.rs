//! Order statistics of timing samples.

/// Fewest samples that must lie beyond a percentile for it to be
/// reported (the choosing-metrics rule for tail percentiles).
pub const SAMPLES_BEYOND: usize = 10;

/// Median, quartiles and sample count of one timing; `p95` only when
/// at least [`SAMPLES_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p95: Option<f64>,
    pub n: usize,
}

/// Value at fraction `q` of the sorted samples, interpolating linearly
/// between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The 95th percentile, if [`SAMPLES_BEYOND`] samples lie beyond it:
/// that takes 200 samples, hence "loops with >= 200 calls also give p95".
fn p95(sorted: &[f64]) -> Option<f64> {
    let beyond = sorted.len() / 20;
    (beyond >= SAMPLES_BEYOND).then(|| sorted[sorted.len() - 1 - beyond])
}

/// Summarize `samples` (any order, at least one).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a timing needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        p95: p95(&sorted),
        n: sorted.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.5, 1.75, 3.25, 4));
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.q1, s.q3), (3.0, 2.0, 4.0));
        let s = summarize(&[7.0]);
        assert_eq!((s.median, s.q1, s.q3, s.p95), (7.0, 7.0, 7.0, None));
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(summarize(&ramp(199)).p95, None, "9 samples beyond is one too few");
        // 200 samples: exactly ten (191..=200) lie beyond the value reported.
        assert_eq!(summarize(&ramp(200)).p95, Some(190.0));
        assert_eq!(summarize(&ramp(1000)).p95, Some(950.0));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v: Vec<f64> = (0..257).map(|i| ((i * 91) % 257) as f64).collect();
        let a = summarize(&v);
        v.reverse();
        assert_eq!(a, summarize(&v));
    }
}
