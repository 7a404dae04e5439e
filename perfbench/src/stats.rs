//! Order statistics for the report: nearest-rank percentiles that carry
//! their sample count, and medians across repetitions.

/// Percentile ladder, lowest first; [`Summary::top`] picks the highest
/// rung that still has at least [`TAIL_SAMPLES`] samples beyond it.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// A percentile is only reported as the tail if at least this many
/// samples lie beyond it.
const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the samples at or below it. `None` on an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// A timing's distribution as the report prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (reported even when fewer than
    /// [`TAIL_SAMPLES`] samples lie beyond it; see `top`).
    pub p99: f64,
    /// The highest ladder percentile with at least [`TAIL_SAMPLES`]
    /// samples beyond it, and its value; `None` if even the median has
    /// fewer.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order); `None` if there are none.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        samples.sort_by(f64::total_cmp);
        let sorted = &*samples;
        let top = LADDER
            .iter()
            .rev()
            .find(|&&p| beyond(sorted.len(), p) >= TAIL_SAMPLES)
            .map(|&p| (p, nearest_rank(sorted, p).expect("non-empty")));
        Some(Summary {
            n: sorted.len(),
            p50: nearest_rank(sorted, 50.0)?,
            p99: nearest_rank(sorted, 99.0)?,
            top,
        })
    }

    /// The information record the report prints beside the gated value.
    pub fn info(&self) -> String {
        let top = match self.top {
            Some((p, v)) => format!("\"top_percentile\": {p}, \"top_value\": {v}"),
            None => "\"top_percentile\": null, \"top_value\": null".to_string(),
        };
        format!("{{\"samples\": {}, {top}}}", self.n)
    }
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank 90th percentile of a sample. For the rate of a
/// repeated deterministic computation this is its fastest decile: host
/// interference can only slow a repetition down, so the fast ones
/// estimate the program's own speed.
pub fn upper_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 90.0).expect("upper decile of nothing")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 99.5), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0), "rank clamps to the first sample");
        assert_eq!(nearest_rank(&[7.0], 99.9), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn summary_reports_count_and_the_supported_tail() {
        // 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
        let mut s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let sum = Summary::of(&mut s).unwrap();
        assert_eq!(sum.n, 1000);
        assert_eq!(sum.p50, 500.0);
        assert_eq!(sum.p99, 990.0);
        assert_eq!(sum.top, Some((99.0, 990.0)));

        // 100 samples: p90 leaves exactly 10 beyond.
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&mut s).unwrap().top, Some((90.0, 90.0)));

        // 15 samples: even the median leaves only 7 beyond.
        let mut s: Vec<f64> = (1..=15).map(f64::from).collect();
        let sum = Summary::of(&mut s).unwrap();
        assert_eq!(sum.top, None);
        assert!(sum.info().contains("\"samples\": 15"));

        assert_eq!(Summary::of(&mut []), None);
    }

    #[test]
    fn upper_decile_is_the_fast_tail() {
        let rates: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(upper_decile(&rates), 18.0);
        assert_eq!(upper_decile(&[5.0]), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
