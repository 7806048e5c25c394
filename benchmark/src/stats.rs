//! Order statistics: nearest-rank percentiles for latency samples, the
//! quartiles `compare` judges spread with, and window deltas of the
//! service's registry histograms.

use obs::metrics::{bucket_index, bucket_lower};
use obs::Snapshot;
use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`th percentile.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.iter().filter(|&&v| v > cut).count()
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len > 0, "quartiles of nothing");
    if len == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// A histogram's change over a window, summed over every label set
/// (so sharded services count all their classes).
#[derive(Debug, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum: u64,
    /// Samples per bucket, keyed by the bucket's upper bound.
    buckets: BTreeMap<u64, u64>,
}

impl HistDelta {
    pub fn between(start: &Snapshot, end: &Snapshot, name: &str) -> HistDelta {
        let mut d = HistDelta::default();
        for (snap, sign) in [(end, 1i64), (start, -1i64)] {
            for h in snap.histograms.iter().filter(|h| h.name == name) {
                d.count = d.count.wrapping_add_signed(sign * h.count as i64);
                d.sum = d.sum.wrapping_add_signed(sign * h.sum as i64);
                let mut prev = 0u64;
                for &(upper, cum) in &h.buckets {
                    let e = d.buckets.entry(upper).or_default();
                    *e = e.wrapping_add_signed(sign * (cum - prev) as i64);
                    prev = cum;
                }
            }
        }
        d
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Quantile `q` in `[0, 1]`, interpolated linearly inside the bucket
    /// holding the nearest-rank sample (the registry keeps only bucket
    /// counts, so this is within one bucket, about 3%, of the exact value).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&upper, &n) in self.buckets.iter().filter(|(_, &n)| n > 0) {
            if seen + n >= rank {
                let lower = bucket_lower(bucket_index(upper)) as f64;
                let within = (rank - seen) as f64 / n as f64;
                return lower + (upper as f64 - lower) * within;
            }
            seen += n;
        }
        unreachable!("rank {rank} lies within count {}", self.count)
    }
}

/// A counter's change over a window, summed over label sets containing
/// `key=value` (or over all label sets when `label` is `None`).
pub fn counter_delta(
    start: &Snapshot,
    end: &Snapshot,
    name: &str,
    label: Option<(&str, &str)>,
) -> u64 {
    let total = |s: &Snapshot| match label {
        Some((k, v)) => s.counter_labeled(name, k, v),
        None => s.counter_total(name),
    };
    total(end) - total(start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(beyond(&v, 99.0), 1);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 99.0), 10, "1000 samples leave ten beyond p99");
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn histogram_delta_quantile_stays_in_its_bucket() {
        let r = obs::Registry::new();
        let h = r.histogram("h", "test", &[]);
        for v in 0..100u64 {
            h.observe(1000 + v);
        }
        let start = r.snapshot();
        for _ in 0..10 {
            h.observe(5000);
        }
        let d = HistDelta::between(&start, &r.snapshot(), "h");
        assert_eq!(d.count, 10);
        assert_eq!(d.mean(), 5000.0);
        let q = d.quantile(0.5);
        assert!((q - 5000.0).abs() <= 5000.0 / 32.0, "{q}");
    }
}
