//! Order statistics over sample vectors: the quartiles, median and tail
//! percentile every metric is reported with.

use serde::{Deserialize, Serialize};

/// One metric over its samples: the headline value (see [`Summary::of`])
/// with the median, quartiles, range and count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub value: f64,
    pub unit: String,
    pub n: u64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values` (at least one). The headline `value` is the
    /// quartile on the better side: `q1` when lower is better, `q3` when
    /// higher is. Other work on a shared host only ever makes a sample
    /// slower, in bursts of a few seconds, so the better quartile tracks
    /// the program's own cost and moves less from run to run than the
    /// median, which the bursts drag along. With two samples the quartiles
    /// lie outside them, so the value is clamped to the samples' range.
    pub fn of(values: &[f64], unit: &str, lower_is_better: bool) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        let (min, max) = (v[0], v[v.len() - 1]);
        Summary {
            value: if lower_is_better { q1 } else { q3 }.clamp(min, max),
            unit: unit.to_string(),
            n: v.len() as u64,
            median: median(&v),
            min,
            max,
            q1,
            q3,
        }
    }

    /// Quartile distance as a share of the headline value: the noise.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Median of sorted `v` (mean of the two middle values for even length).
pub fn median(v: &[f64]) -> f64 {
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile of sorted `v`, by the same "exclusive"
/// method as Python's `statistics.quantiles(v, n=4)`, so spreads read
/// the same here as in any script that recomputes them.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let len = v.len() as i64;
    let q = |i: i64| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest percentile of sorted `v` that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` with ten samples
/// or fewer. With `n` samples that is the `(n − 10)`-th smallest.
pub fn tail_with_ten_beyond(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn summary_reports_the_better_quartile_range_and_spread() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0, 5.0], "s", true);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
        // quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.value, 1.5);
        assert!((s.spread() - 2.0).abs() < 1e-12);
        assert_eq!(
            Summary::of(&[3.0, 1.0, 2.0, 4.0, 5.0], "1/s", false).value,
            4.5
        );
        assert_eq!(Summary::of(&[7.0], "s", true).value, 7.0);
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: clamped to the range
        assert_eq!(Summary::of(&[2.0, 1.0], "s", true).value, 1.0);
        assert_eq!(Summary::of(&[2.0, 1.0], "1/s", false).value, 2.0);
        assert_eq!(Summary::of(&[0.0, 0.0], "count", true).spread(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&v), Some((90.0, 89.0)));
        let beyond = v.iter().filter(|&&x| x > 89.0).count();
        assert_eq!(beyond, 10);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_with_ten_beyond(&v), Some((99.0, 989.0)));
        assert_eq!(tail_with_ten_beyond(&v[..10]), None);
        assert_eq!(tail_with_ten_beyond(&v[..11]), Some((100.0 / 11.0, 0.0)));
    }

    #[test]
    fn share_guards_zero_denominator() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
