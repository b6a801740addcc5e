//! Sample statistics shared by every workload and by `--compare`:
//! median and quartiles (the same rule as Python's
//! `statistics.quantiles(values, n=4)`), the tail-percentile rule, and
//! the regression verdict between two sets of runs.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (at least one).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN value.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let [q1, median, q3] = quartiles(&v);
        Summary {
            n: v.len(),
            q1,
            median,
            q3,
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of sorted data by the "exclusive" method of Python's
/// `statistics.quantiles` (its default). One sample is its own
/// quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Signed: with few samples the outer quartiles extrapolate.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    out
}

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that has
/// at least ten samples beyond it, with its value: `(percentile, value)`.
/// `None` when fewer than 20 samples exist (not even the median has ten
/// beyond it).
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    // Percentiles in tenths of a percent, so the "ten beyond" test is
    // exact integer arithmetic.
    let per_mille = [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)?;
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    // Nearest rank: the smallest value with at least p% of samples at
    // or below it.
    let rank = (per_mille * n).div_ceil(1000);
    Some((per_mille as f64 / 10.0, v[rank.clamp(1, n) - 1]))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory).
    Lower,
}

/// The verdict on one (workload, metric) pair between a base set of runs
/// and a candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is better than the base's by more than
    /// the bound.
    Better,
    /// The medians differ by no more than the bound.
    Within,
    /// The candidate's median is worse than the base's by more than the
    /// bound.
    Worse,
    /// Either set's own spread is wider than the bound, so a difference
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change from `base` to `cand` medians, signed so that a
/// positive value is a worsening.
#[must_use]
pub fn worsening(base: &Summary, cand: &Summary, better: Better) -> f64 {
    let rel = if base.median == 0.0 {
        0.0
    } else {
        (cand.median - base.median) / base.median.abs()
    };
    match better {
        Better::Higher => -rel,
        Better::Lower => rel,
    }
}

/// Judges a candidate set against a base set under `bound` (a share of
/// the base median). A pair whose own spread exceeds the bound is
/// `Unresolved` unless every candidate run beats every base run.
#[must_use]
pub fn judge(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, c) = (Summary::of(base), Summary::of(cand));
    let worse = worsening(&b, &c, better);
    if b.spread() > bound || c.spread() > bound {
        let beats = |x: f64, y: f64| match better {
            Better::Higher => x > y,
            Better::Lower => x < y,
        };
        return if cand.iter().all(|&x| base.iter().all(|&y| beats(x, y))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Throughput 5% lower under a 10% bound: within.
        let cand = [95.0, 96.0, 94.0, 95.0, 95.5];
        assert_eq!(judge(&base, &cand, Better::Higher, 0.10), Verdict::Within);
        // 20% lower: worse; 20% higher: better.
        let low: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let high: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&base, &low, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &high, Better::Higher, 0.10), Verdict::Better);
        // For a time the same numbers flip direction.
        assert_eq!(judge(&base, &low, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(judge(&base, &high, Better::Lower, 0.10), Verdict::Worse);
        // A base whose spread exceeds the bound is unresolved...
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &base, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every base run.
        let far = [200.0, 210.0, 205.0];
        assert_eq!(judge(&noisy, &far, Better::Higher, 0.10), Verdict::Better);
    }
}
