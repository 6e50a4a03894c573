//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile a sample count supports, and the comparison of two sets
//! of runs against a metric's bound.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count). Panics on an
/// empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 for a zero
/// median, where a share is undefined).
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// A tail quantile chosen from the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// The highest percentile that has at least [`TAIL_BEYOND`] samples
/// beyond it: the `(n - 10)`-th smallest of `n` samples, at percentile
/// `100 (n - 10) / n`. With ten samples or fewer no percentile has ten
/// beyond it, so the maximum is reported with `beyond = 0`.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len();
    let k = tail_rank(n);
    Tail {
        value: v[k - 1],
        percentile: 100.0 * k as f64 / n as f64,
        beyond: n - k,
        samples: n,
    }
}

/// The 1-based rank of [`tail`]'s sample among `n`.
pub fn tail_rank(n: usize) -> usize {
    if n > TAIL_BEYOND {
        n - TAIL_BEYOND
    } else {
        n
    }
}

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (speedups, success shares).
    Higher,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Two sets of runs of one metric, judged against its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Spread (IQR / median) of the first set.
    pub spread_first: f64,
    /// Spread of the second set.
    pub spread_second: f64,
    /// How much worse the second median is than the first, as a share
    /// of the first (negative when it is better).
    pub worse_by: f64,
    /// Both spreads within the bound (unless exempt) and `worse_by`
    /// within the bound.
    pub ok: bool,
}

/// Compares `second` against `first`. `check_spread` is false for a
/// metric whose spread is not judged (set-up time); its medians still
/// are.
pub fn compare(
    first: &[f64],
    second: &[f64],
    bound: f64,
    better: Better,
    check_spread: bool,
) -> Comparison {
    let (m1, m2) = (median(first), median(second));
    let worse_by = if m1 == 0.0 {
        if m2 == m1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        match better {
            Better::Lower => (m2 - m1) / m1.abs(),
            Better::Higher => (m1 - m2) / m1.abs(),
        }
    };
    let (s1, s2) = (spread(first), spread(second));
    let spread_ok = !check_spread || (s1 <= bound && s2 <= bound);
    Comparison {
        spread_first: s1,
        spread_second: s2,
        worse_by,
        ok: spread_ok && worse_by <= bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[7.0; 10]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let t = tail(&(1..=29).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.value, 19.0);
        assert!((t.percentile - 100.0 * 19.0 / 29.0).abs() < 1e-12);
        assert_eq!(t.samples, 29);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[3.0, 9.0, 1.0]);
        assert_eq!(t.value, 9.0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.beyond, 0);
        let t = tail(&[1.0; 11]);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 100.0 / 11.0);
    }

    #[test]
    fn compare_accepts_equal_sets_and_flags_regressions() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let same = compare(&a, &a, 0.05, Better::Lower, true);
        assert!(same.ok);
        assert_eq!(same.worse_by, 0.0);

        let slower: Vec<f64> = a.iter().map(|x| x * 1.10).collect();
        let c = compare(&a, &slower, 0.05, Better::Lower, true);
        assert!(!c.ok);
        assert!((c.worse_by - 0.10).abs() < 1e-9);
        // The same shift is an improvement for a higher-is-better metric.
        let c = compare(&a, &slower, 0.05, Better::Higher, true);
        assert!(c.ok);
        assert!(c.worse_by < 0.0);
    }

    #[test]
    fn compare_judges_spread_unless_exempt() {
        let steady = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 1.0, 0.7, 1.3, 0.8, 1.2];
        assert!(!compare(&steady, &noisy, 0.1, Better::Lower, true).ok);
        assert!(compare(&steady, &noisy, 0.1, Better::Lower, false).ok);
    }
}
