//! Order statistics over timing samples.

/// Percentiles considered by [`tail_percentile`], highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n >= 1` samples,
/// computed in integer hundredths of a percent so that e.g. p99.99 of
/// 100 000 samples is exactly rank 99 990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000) as usize;
    rank.clamp(1, n)
}

/// Value at percentile `p` (0–100) of an ascending slice, by the
/// nearest-rank rule. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Number of samples strictly beyond percentile `p` of `n` samples under
/// the nearest-rank rule.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile the sample supports, with its value and the
/// sample count: `(p, value, n)`. `None` when not even the median has
/// [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| supports(n, p))
        .and_then(|&p| percentile(sorted, p).map(|v| (p, v, n)))
}

/// Samples per block for [`block_percentile`]: the fewest that leave ten
/// samples beyond a p99.
pub const BLOCK: usize = 1000;

/// Percentile `p` of each run of `block` consecutive samples. With fewer
/// than `block` samples the whole slice is one block; a trailing partial
/// block is dropped.
pub fn block_percentiles(in_order: &[f64], block: usize, p: f64) -> Vec<f64> {
    if in_order.is_empty() {
        Vec::new()
    } else if in_order.len() < block {
        vec![percentile(&sorted(in_order), p).expect("non-empty")]
    } else {
        in_order
            .chunks_exact(block)
            .map(|c| percentile(&sorted(c), p).expect("non-empty block"))
            .collect()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted slice (sorts a copy). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population standard deviation; `0.0` for fewer than two values.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Collects timing samples in microseconds and reduces them.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records every sample of `other`.
    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Records a duration in microseconds.
    pub fn push_us(&mut self, d: std::time::Duration) {
        self.values.push(d.as_secs_f64() * 1e6);
    }

    /// Percentile `p`, or `0.0` when no sample was recorded (the value a
    /// per-layer metric reads when its layer was not exercised).
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&sorted(&self.values), p).unwrap_or(0.0)
    }

    /// Mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 99.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let (p, value, n) = tail_percentile(&ramp(1000)).unwrap();
        assert_eq!((p, value, n), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9 beyond, so the rule falls back to p95.
        let (p, _, n) = tail_percentile(&ramp(999)).unwrap();
        assert_eq!((p, n), (95.0, 999));
        // 100 000 samples support p99.99 (10 beyond).
        let (p, _, _) = tail_percentile(&ramp(100_000)).unwrap();
        assert_eq!(p, 99.99);
        // 15 samples: not even the median has 10 beyond.
        assert!(tail_percentile(&ramp(15)).is_none());
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn block_percentiles_and_their_median() {
        // Three blocks of 100; the middle one has a huge tail.
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.extend((1..=100).map(|i| if i > 95 { 1e6 } else { f64::from(i) }));
        v.extend((1..=100).map(|i| f64::from(i) + 0.5));
        assert_eq!(block_percentiles(&v, 100, 99.0), vec![99.0, 1e6, 99.5]);
        assert_eq!(median(&block_percentiles(&v, 100, 99.0)), Some(99.5));
        // A trailing partial block is dropped.
        v.extend([1e9; 50]);
        assert_eq!(block_percentiles(&v, 100, 99.0).len(), 3);
        // Fewer samples than a block: the whole slice is one block.
        assert_eq!(block_percentiles(&v[..10], 100, 50.0), vec![5.0]);
        assert!(block_percentiles(&[], 100, 50.0).is_empty());
    }

    #[test]
    fn moments() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        let mut s = Samples::default();
        assert_eq!(s.pct(50.0), 0.0);
        s.push(4.0);
        s.push(2.0);
        assert_eq!(s.pct(50.0), 2.0);
        assert_eq!(s.mean(), 3.0);
    }
}
