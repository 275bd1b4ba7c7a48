//! Zipf-distributed item sampler for the cache-heavy workload.

use rand::Rng;

/// Draws item ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^s`, by inverse-CDF lookup over the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` items with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "a Zipf sampler needs at least one item");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        Self { cumulative }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Probability mass of the `k` most popular items.
    pub fn top_share(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let total = *self.cumulative.last().expect("non-empty");
        self.cumulative[k.min(self.len()) - 1] / total
    }

    /// Draws one item rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn top_share_matches_harmonic_numbers() {
        let z = Zipf::new(4, 1.0);
        let h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        assert!((z.top_share(1) - 1.0 / h4).abs() < 1e-12);
        assert!((z.top_share(4) - 1.0).abs() < 1e-12);
        assert_eq!(z.top_share(0), 0.0);
        assert!((Zipf::new(10, 0.0).top_share(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empirical_top_share_matches_the_distribution() {
        let z = Zipf::new(16_384, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 200_000;
        let in_top = (0..draws).filter(|_| z.sample(&mut rng) < 4096).count();
        let share = in_top as f64 / draws as f64;
        assert!(
            (share - z.top_share(4096)).abs() < 0.01,
            "empirical {share} vs expected {}",
            z.top_share(4096)
        );
    }

    #[test]
    fn repeat_share_is_the_hit_share_of_an_unbounded_cache() {
        // With a cache that never evicts, every draw of an item seen before
        // hits, so the hit share is one minus distinct items over draws. The
        // expected distinct count is the sum over items of
        // 1 - (1 - p_k)^draws.
        let z = Zipf::new(16_384, 1.0);
        let draws: i32 = 100_000;
        let expected_distinct: f64 = (0..z.len())
            .map(|k| {
                let p = z.top_share(k + 1) - z.top_share(k);
                1.0 - (1.0 - p).powi(draws)
            })
            .sum();
        let expected_share = 1.0 - expected_distinct / draws as f64;
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = HashSet::new();
        let hits = (0..draws)
            .filter(|_| !seen.insert(z.sample(&mut rng)))
            .count();
        let share = hits as f64 / draws as f64;
        assert!(
            (share - expected_share).abs() < 0.01,
            "hit share {share} vs expected {expected_share}"
        );
    }

    #[test]
    fn samples_stay_in_range_and_are_seed_deterministic() {
        let z = Zipf::new(7, 1.2);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..1000).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(1);
            (0..1000).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k < 7));
        assert!(a.contains(&6));
    }
}
