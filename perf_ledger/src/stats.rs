//! Order statistics for the ledger: medians, the "highest percentile with
//! at least ten samples beyond it" rule, and a spread taken from five
//! interleaved sub-samples (op index mod 5).

/// Median of `xs` (NaN-free). Empty input reads as 0 — callers only pass
/// empty vectors for layers a workload never enters.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of the `permille`-th quantile among `n` samples.
/// Integer arithmetic: p99.9 of 10 000 must be rank 9 990, not whatever
/// `0.999 * 10000.0` rounds to.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; `permille` 990 is p99.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, permille) - 1],
    }
}

/// Percentiles the ledger is willing to name, in permille, highest first.
const TAILS: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of [`TAILS`] with at least ten samples beyond
/// its rank in a sample of `n`; `None` when even p75 has fewer.
pub fn supported_tail(n: usize) -> Option<usize> {
    TAILS.into_iter().find(|&pm| n >= 10 + rank(n, pm))
}

/// Median of the five interleaved sub-sample medians and their median
/// absolute deviation: how far the run disagrees with itself.
pub fn subsample_spread(xs: &[f64]) -> (f64, f64) {
    let medians: Vec<f64> = (0..5)
        .map(|k| median(&xs.iter().copied().skip(k).step_by(5).collect::<Vec<_>>()))
        .collect();
    let mom = median(&medians);
    let devs: Vec<f64> = medians.iter().map(|m| (m - mom).abs()).collect();
    (mom, median(&devs))
}

/// One timing, summarised the way every ledger line reports it.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(permille, value)` of the highest supported tail.
    pub tail: Option<(usize, f64)>,
    pub mom: f64,
    pub mad: f64,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    let (mom, mad) = subsample_spread(xs);
    Summary {
        n: s.len(),
        p50: median(&s),
        tail: supported_tail(s.len()).map(|p| (p, percentile(&s, p))),
        mom,
        mad,
    }
}

/// Inter-quartile range as a share of the median — the driver's spread.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let s = sorted(xs);
    // Python's statistics.quantiles(n=4), exclusive method.
    let q = |k: f64| {
        let pos = k * (s.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len());
        let hi = (lo + 1).min(s.len());
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        s[lo - 1] + (s[hi - 1] - s[lo - 1]) * frac
    };
    let med = median(&s);
    if med == 0.0 {
        0.0
    } else {
        (q(3.0) - q(1.0)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(750));
        assert_eq!(supported_tail(99), Some(750));
        assert_eq!(supported_tail(100), Some(900));
        assert_eq!(supported_tail(200), Some(950));
        assert_eq!(supported_tail(999), Some(950));
        assert_eq!(supported_tail(1000), Some(990));
        assert_eq!(supported_tail(9_999), Some(990));
        assert_eq!(supported_tail(10_000), Some(999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&[], 500), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn subsamples_interleave_by_op_index() {
        // Sub-sample k holds the constant k, so the medians are 0..5.
        let xs: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        let (mom, mad) = subsample_spread(&xs);
        assert_eq!((mom, mad), (2.0, 1.0));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let want = (8.25 - 2.75) / 5.5;
        assert!((iqr_share(&xs) - want).abs() < 1e-12);
    }
}
