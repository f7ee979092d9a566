//! Order statistics for timing samples: median, quartiles and the
//! highest tail percentile a sample count can support.
//!
//! Every function takes its samples unsorted and returns `None` on an
//! empty slice, so a report can never print a statistic of nothing.

/// First quartile, median and third quartile of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let mid = v.len() / 2;
    let upper = *v.get(mid)?;
    if v.len() % 2 == 1 {
        return Some(upper);
    }
    let lower = *v.get(mid.checked_sub(1)?)?;
    Some((lower + upper) / 2.0)
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method), so the spread printed here is the spread
/// the benchmark driver computes from the same values. One sample is
/// its own three quartiles.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let only = *v.first()?;
        return Some(Quartiles {
            q1: only,
            median: only,
            q3: only,
        });
    }
    let cut = |i: usize| -> Option<f64> {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        let (below, above) = (*v.get(j - 1)?, *v.get(j)?);
        Some((below * (4.0 - delta) + above * delta) / 4.0)
    };
    Some(Quartiles {
        q1: cut(1)?,
        median: cut(2)?,
        q3: cut(3)?,
    })
}

/// The percentiles a report may name, highest first, in per mille so
/// that the sample arithmetic is exact.
const LADDER_PER_MILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
const BEYOND: u64 = 10;

/// The highest rung of the ladder (99.9, 99, 95, 90, 75, 50) that is at
/// most `wanted` and still has at least ten of `count` samples beyond
/// it; the median when even p75 has fewer. A p99 over 300 cycles would
/// be the fourth-largest sample — an anecdote, not a percentile.
pub fn supported_percentile(count: usize, wanted: f64) -> f64 {
    LADDER_PER_MILLE
        .into_iter()
        .filter(|&rung| rung as f64 / 10.0 <= wanted)
        .find(|&rung| count as u64 * (1000 - rung) >= BEYOND * 1000)
        .map_or(50.0, |rung| rung as f64 / 10.0)
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// A tail statistic together with the percentile it really is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported: `wanted`, or a lower rung on short runs.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The `wanted` percentile of `values`, lowered to the highest rung the
/// sample count supports (see [`supported_percentile`]).
pub fn tail(values: &[f64], wanted: f64) -> Option<Tail> {
    let p = supported_percentile(values.len(), wanted);
    percentile(values, p).map(|value| Tail {
        percentile: p,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    /// Reference values from `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));

        let q = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));

        // two samples: Python clamps the cut index and extrapolates
        let q = quartiles(&[10.0, 20.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));

        let q = quartiles(&[5.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (5.0, 5.0, 5.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9
        assert_eq!(supported_percentile(1000, 99.9), 99.0);
        assert_eq!(supported_percentile(10_000, 99.9), 99.9);
        // 300 samples: p99 leaves 3 beyond, p95 leaves 15
        assert_eq!(supported_percentile(300, 99.0), 95.0);
        // a traced pass of 143 cycles supports p90 (14 beyond)
        assert_eq!(supported_percentile(143, 90.0), 90.0);
        assert_eq!(supported_percentile(99, 90.0), 75.0);
        // never above what was asked for
        assert_eq!(supported_percentile(1_000_000, 90.0), 90.0);
        // short runs fall back to the median
        assert_eq!(supported_percentile(12, 99.0), 50.0);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(percentile(&v, 100.0), Some(200.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
    }
}
