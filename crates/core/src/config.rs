//! Shared configuration of the G-means algorithms (serial and MapReduce).

use gmr_stats::AndersonDarling;

/// Tunables of G-means.
#[derive(Clone, Copy, Debug)]
pub struct GMeansConfig {
    /// Significance level of the Anderson–Darling split test. The
    /// original G-means paper recommends a strict level so the
    /// hierarchy does not over-split; `1e-4` is its canonical choice.
    pub alpha: f64,
    /// Minimum projections needed before the normality test is applied
    /// (§3.2: "we use a threshold of 20, to stay on the safe side").
    /// Clusters smaller than this are accepted as-is: they cannot be
    /// tested, and splitting them would only make them less testable.
    pub min_test_sample: usize,
    /// Lloyd iterations spent refining centers per G-means round. The
    /// paper found experimentally that "only two k-means iterations are
    /// sufficient" because new centers are placed where needed.
    pub kmeans_iterations_per_round: usize,
    /// Hard cap on G-means rounds (the theory needs `log₂ k_real` plus
    /// a few extra; this is a runaway guard, not a tuning knob).
    pub max_iterations: usize,
    /// RNG seed for initial and candidate center picks.
    pub seed: u64,
}

impl Default for GMeansConfig {
    fn default() -> Self {
        Self {
            alpha: 1e-4,
            min_test_sample: 20,
            kmeans_iterations_per_round: 2,
            max_iterations: 32,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl GMeansConfig {
    /// Builds the configured Anderson–Darling tester.
    pub fn ad_test(&self) -> AndersonDarling {
        AndersonDarling::new(self.alpha, self.min_test_sample)
    }

    /// Returns a copy with a different seed (handy for repeated trials).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Tunables of plain k-means (serial Lloyd and the MapReduce job).
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// A config with `k` clusters and the usual defaults.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 10,
            seed: 42,
        }
    }

    /// Sets the iteration budget.
    pub fn with_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GMeansConfig::default();
        assert_eq!(c.min_test_sample, 20);
        assert_eq!(c.kmeans_iterations_per_round, 2);
        assert!((c.alpha - 1e-4).abs() < 1e-18);
        let ad = c.ad_test();
        assert_eq!(ad.min_sample(), 20);
    }

    #[test]
    fn builders_compose() {
        let k = KMeansConfig::new(5).with_iterations(3).with_seed(7);
        assert_eq!(k.k, 5);
        assert_eq!(k.max_iterations, 3);
        assert_eq!(k.seed, 7);
        assert_eq!(GMeansConfig::default().with_seed(9).seed, 9);
    }
}
