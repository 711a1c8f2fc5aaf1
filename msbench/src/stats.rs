//! Order statistics and the bound comparisons `msbench check` applies.

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the rule the
/// benchmark contract measures spread with).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order). `None` for an empty sample;
    /// a single value is its own median and quartiles.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut v = values.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            }),
            _ => {
                let cut = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Some(Quartiles {
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                    n,
                })
            }
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).map_or(0.0, |q| q.median)
}

/// The `p`-th percentile (nearest rank) of a sample; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((p / 100.0) * (n - 1) as f64).round() as usize],
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is worse (negative = it is
/// better), in the metric's direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let denom = base.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => (new - base) / denom,
        Better::Higher => (base - new) / denom,
    }
}

/// Outcome of comparing two samples of one metric under its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians agree within the bound and the spread resolves it.
    Within,
    /// The second median is worse than the first by more than the bound.
    Worse,
    /// The medians agree within the bound, but a sample's own
    /// inter-quartile range exceeds it: a difference of that size could
    /// not have been told from noise, so this is not "unchanged".
    Unresolved,
}

/// Compare sample `b` against sample `a` under `bound` (a share of
/// `a`'s median).
pub fn compare(a: &Quartiles, b: &Quartiles, better: Better, bound: f64) -> Verdict {
    if worsening(a.median, b.median, better) > bound {
        Verdict::Worse
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(Quartiles::of(&[]).is_none());
        assert_eq!(Quartiles::of(&[4.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn compare_reports_worse_then_unresolved_then_within() {
        let tight_a = Quartiles::of(&[1.00, 1.01, 1.02, 1.01, 1.00]).unwrap();
        let tight_b = Quartiles::of(&[1.03, 1.04, 1.03, 1.04, 1.03]).unwrap();
        let slow = Quartiles::of(&[1.20, 1.21, 1.20, 1.21, 1.20]).unwrap();
        let noisy = Quartiles::of(&[0.8, 1.0, 1.3, 0.9, 1.2]).unwrap();
        assert_eq!(
            compare(&tight_a, &tight_b, Better::Lower, 0.07),
            Verdict::Within
        );
        assert_eq!(
            compare(&tight_a, &slow, Better::Lower, 0.07),
            Verdict::Worse
        );
        // Faster is never a regression.
        assert_eq!(
            compare(&slow, &tight_a, Better::Lower, 0.07),
            Verdict::Within
        );
        assert_eq!(
            compare(&noisy, &tight_a, Better::Lower, 0.07),
            Verdict::Unresolved
        );
        // Noise does not excuse a median beyond the bound.
        assert_eq!(compare(&noisy, &slow, Better::Lower, 0.07), Verdict::Worse);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
