//! Seeded spherical Gaussian mixture generator.
//!
//! Matches the paper's generative process (§5): `k` cluster centers in a
//! bounding box, points drawn from isotropic Gaussians around them. The
//! default geometry follows the illustrations — Figures 1 and 4 show
//! clusters in `[0, 100]²` with visually well-separated blobs — and the
//! generator enforces a minimum center separation (in units of the
//! cluster standard deviation) so that "the real number of clusters" is
//! a well-defined ground truth.

use gmr_linalg::{Dataset, Point};
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::text::write_point;

/// Specification of a Gaussian mixture dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct GaussianMixture {
    /// Number of points to draw.
    pub n_points: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Number of mixture components (the ground-truth `k`).
    pub n_clusters: usize,
    /// Coordinate bounds for cluster centers: every center coordinate is
    /// drawn uniformly from `[box_min, box_max]`.
    pub box_min: f64,
    /// Upper coordinate bound for centers.
    pub box_max: f64,
    /// Standard deviation of each isotropic component.
    pub stddev: f64,
    /// Minimum pairwise center distance, in multiples of `stddev`.
    /// Centers are resampled until separated; `0.0` disables the check.
    pub min_separation_sigmas: f64,
    /// RNG seed: everything about the dataset is a pure function of the
    /// spec, including this.
    pub seed: u64,
    /// How points are distributed over components. Balanced by default;
    /// `Zipf(s)` produces the skew the paper flags as a MapReduce risk
    /// ("because of skewed data, some reducers will have a higher
    /// workload", §4).
    pub weights: ClusterWeights,
}

/// Distribution of points over mixture components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ClusterWeights {
    /// Every component receives the same number of points.
    #[default]
    Balanced,
    /// Component `i` (0-based) receives mass ∝ `1 / (i+1)^s` — the
    /// classical Zipf skew; `s = 1.0` is already heavily imbalanced.
    Zipf(f64),
}

impl ClusterWeights {
    /// Cumulative mass table over `k` components.
    fn cumulative(&self, k: usize) -> Vec<f64> {
        let raw: Vec<f64> = match self {
            ClusterWeights::Balanced => vec![1.0; k],
            ClusterWeights::Zipf(s) => (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(*s)).collect(),
        };
        let total: f64 = raw.iter().sum();
        let mut acc = 0.0;
        raw.iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }
}

impl GaussianMixture {
    /// The paper's evaluation shape: `n` points in R¹⁰ around `k`
    /// well-separated clusters (§5 uses 10M points; callers scale `n`).
    pub fn paper_r10(n_points: usize, n_clusters: usize, seed: u64) -> Self {
        Self {
            n_points,
            dim: 10,
            n_clusters,
            box_min: 0.0,
            box_max: 100.0,
            stddev: 1.0,
            min_separation_sigmas: 8.0,
            seed,
            weights: ClusterWeights::Balanced,
        }
    }

    /// The illustration shape of Figures 1 and 4: 10 clusters in R².
    pub fn figure_r2(n_points: usize, seed: u64) -> Self {
        Self {
            n_points,
            dim: 2,
            n_clusters: 10,
            box_min: 0.0,
            box_max: 100.0,
            stddev: 2.0,
            min_separation_sigmas: 8.0,
            seed,
            weights: ClusterWeights::Balanced,
        }
    }

    /// Returns a copy with Zipf-skewed component sizes.
    pub fn with_zipf_skew(mut self, s: f64) -> Self {
        self.weights = ClusterWeights::Zipf(s);
        self
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<()> {
        if self.n_points == 0 || self.dim == 0 || self.n_clusters == 0 {
            return Err(Error::Config(
                "mixture needs positive points, dim and clusters".into(),
            ));
        }
        if self.box_min >= self.box_max || self.box_min.is_nan() || self.box_max.is_nan() {
            return Err(Error::Config("empty center box".into()));
        }
        if self.stddev <= 0.0 || self.stddev.is_nan() {
            return Err(Error::Config("stddev must be positive".into()));
        }
        Ok(())
    }

    /// Draws the ground-truth cluster centers.
    pub fn centers(&self) -> Result<GroundTruth> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let min_dist2 = (self.min_separation_sigmas * self.stddev).powi(2);
        let mut centers = Dataset::with_capacity(self.dim, self.n_clusters);
        // Rejection-sample separated centers. In R¹⁰ with the default
        // box this virtually never rejects; in R² it shapes Figure 4's
        // clearly distinct blobs. Bail out rather than loop forever if
        // the box cannot hold that many separated centers.
        let max_attempts = self.n_clusters.saturating_mul(10_000).max(100_000);
        let mut attempts = 0usize;
        while centers.len() < self.n_clusters {
            attempts += 1;
            if attempts > max_attempts {
                return Err(Error::Config(format!(
                    "cannot place {} centers with separation {}σ in box [{}, {}]^{}",
                    self.n_clusters,
                    self.min_separation_sigmas,
                    self.box_min,
                    self.box_max,
                    self.dim
                )));
            }
            let cand: Vec<f64> = (0..self.dim)
                .map(|_| rng.random_range(self.box_min..self.box_max))
                .collect();
            let ok = min_dist2 == 0.0
                || centers
                    .rows()
                    .all(|c| gmr_linalg::squared_euclidean(c, &cand) >= min_dist2);
            if ok {
                centers.push(&cand);
            }
        }
        Ok(GroundTruth {
            centers,
            stddev: self.stddev,
            rng_after_centers: rng,
        })
    }

    /// Generates the full dataset in memory, with per-point labels.
    pub fn generate(&self) -> Result<LabeledDataset> {
        let truth = self.centers()?;
        let mut rng = truth.rng_after_centers.clone();
        let mut gauss = BoxMuller::default();
        let mut points = Dataset::with_capacity(self.dim, self.n_points);
        let mut labels = Vec::with_capacity(self.n_points);
        let mut buf = vec![0.0; self.dim];
        let cumulative = self.weights.cumulative(self.n_clusters);
        for i in 0..self.n_points {
            let label = self.component_for(i, &cumulative, &mut rng);
            let center = truth.centers.row(label);
            for (b, c) in buf.iter_mut().zip(center) {
                *b = c + self.stddev * gauss.next(&mut rng);
            }
            points.push(&buf);
            labels.push(label as u32);
        }
        Ok(LabeledDataset {
            points,
            labels,
            true_centers: truth.centers,
        })
    }

    /// Picks the component of point `i`: round-robin when balanced
    /// (exact sizes), cumulative-mass inversion when weighted.
    fn component_for(&self, i: usize, cumulative: &[f64], rng: &mut StdRng) -> usize {
        match self.weights {
            ClusterWeights::Balanced => i % self.n_clusters,
            ClusterWeights::Zipf(_) => {
                let u: f64 = rng.random_range(0.0..1.0);
                cumulative
                    .partition_point(|&c| c < u)
                    .min(self.n_clusters - 1)
            }
        }
    }

    /// Streams the dataset directly into a DFS text file without
    /// materializing it, returning the ground-truth centers. This is the
    /// path the large Table 1 / Table 4 datasets take.
    pub fn generate_to_dfs(&self, dfs: &Arc<Dfs>, path: &str) -> Result<Dataset> {
        let truth = self.centers()?;
        let mut rng = truth.rng_after_centers.clone();
        let mut gauss = BoxMuller::default();
        let mut writer = dfs.create(path, false)?;
        let mut buf = vec![0.0; self.dim];
        let mut line = String::new();
        let cumulative = self.weights.cumulative(self.n_clusters);
        for i in 0..self.n_points {
            let label = self.component_for(i, &cumulative, &mut rng);
            let center = truth.centers.row(label);
            for (b, c) in buf.iter_mut().zip(center) {
                *b = c + self.stddev * gauss.next(&mut rng);
            }
            line.clear();
            write_point(&mut line, &buf);
            writer.write_line(&line);
        }
        writer.close();
        Ok(truth.centers)
    }
}

/// Ground truth of a generated mixture.
pub struct GroundTruth {
    /// The true component centers.
    pub centers: Dataset,
    /// The component standard deviation.
    pub stddev: f64,
    rng_after_centers: StdRng,
}

/// A fully materialized labeled dataset.
#[derive(Clone, Debug)]
pub struct LabeledDataset {
    /// The points.
    pub points: Dataset,
    /// Ground-truth component index of each point.
    pub labels: Vec<u32>,
    /// Ground-truth component centers.
    pub true_centers: Dataset,
}

impl LabeledDataset {
    /// Writes the points (without labels) into a DFS text file.
    pub fn write_to_dfs(&self, dfs: &Arc<Dfs>, path: &str) -> Result<()> {
        let mut w = dfs.create(path, false)?;
        let mut line = String::new();
        for row in self.points.rows() {
            line.clear();
            write_point(&mut line, row);
            w.write_line(&line);
        }
        w.close();
        Ok(())
    }

    /// Ground-truth center of component `label` as a [`Point`].
    pub fn true_center(&self, label: usize) -> Point {
        self.true_centers.point(label)
    }
}

/// Box–Muller standard normal sampler (caches the second variate).
#[derive(Clone, Debug, Default)]
struct BoxMuller {
    cached: Option<f64>,
}

impl BoxMuller {
    fn next<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_linalg::{euclidean, nearest_center, RunningStats};

    #[test]
    fn generation_is_deterministic() {
        let spec = GaussianMixture::figure_r2(500, 42);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a.points, b.points);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.true_centers, b.true_centers);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GaussianMixture::figure_r2(100, 1).generate().unwrap();
        let b = GaussianMixture::figure_r2(100, 2).generate().unwrap();
        assert_ne!(a.points, b.points);
    }

    #[test]
    fn shapes_are_right() {
        let spec = GaussianMixture::paper_r10(1000, 20, 7);
        let d = spec.generate().unwrap();
        assert_eq!(d.points.len(), 1000);
        assert_eq!(d.points.dim(), 10);
        assert_eq!(d.true_centers.len(), 20);
        assert_eq!(d.labels.len(), 1000);
        assert!(d.labels.iter().all(|&l| l < 20));
    }

    #[test]
    fn components_are_balanced() {
        let d = GaussianMixture::figure_r2(1000, 3).generate().unwrap();
        let mut counts = [0usize; 10];
        for &l in &d.labels {
            counts[l as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    fn centers_respect_separation() {
        let spec = GaussianMixture::figure_r2(10, 5);
        let truth = spec.centers().unwrap();
        let min = spec.min_separation_sigmas * spec.stddev;
        for i in 0..truth.centers.len() {
            for j in (i + 1)..truth.centers.len() {
                let d = euclidean(truth.centers.row(i), truth.centers.row(j));
                assert!(d >= min, "centers {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn impossible_separation_errors_out() {
        let spec = GaussianMixture {
            n_points: 10,
            dim: 1,
            n_clusters: 100,
            box_min: 0.0,
            box_max: 1.0,
            stddev: 1.0,
            min_separation_sigmas: 10.0,
            seed: 0,
            weights: ClusterWeights::Balanced,
        };
        assert!(matches!(spec.centers(), Err(Error::Config(_))));
    }

    #[test]
    fn points_cluster_around_their_centers() {
        let spec = GaussianMixture::paper_r10(2000, 4, 9);
        let d = spec.generate().unwrap();
        let centers: Vec<&[f64]> = (0..4).map(|i| d.true_centers.row(i)).collect();
        let mut correct = 0usize;
        for (i, p) in d.points.rows().enumerate() {
            let (nearest, _) = nearest_center(p, centers.iter().copied()).unwrap();
            if nearest == d.labels[i] as usize {
                correct += 1;
            }
        }
        // Separation is 8σ: essentially every point is nearest to its
        // own component center.
        assert!(correct > 1990, "only {correct}/2000 points near own center");
    }

    #[test]
    fn per_dimension_stddev_is_right() {
        let spec = GaussianMixture {
            n_points: 20_000,
            dim: 2,
            n_clusters: 1,
            box_min: 0.0,
            box_max: 100.0,
            stddev: 3.0,
            min_separation_sigmas: 0.0,
            seed: 5,
            weights: ClusterWeights::Balanced,
        };
        let d = spec.generate().unwrap();
        let c = d.true_centers.row(0);
        for dim in 0..2 {
            let mut s = RunningStats::new();
            for p in d.points.rows() {
                s.push(p[dim] - c[dim]);
            }
            assert!(s.mean().abs() < 0.1, "mean {}", s.mean());
            assert!(
                (s.stddev_sample() - 3.0).abs() < 0.1,
                "sd {}",
                s.stddev_sample()
            );
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = GaussianMixture::figure_r2(10, 0);
        s.n_points = 0;
        assert!(s.validate().is_err());
        let mut s = GaussianMixture::figure_r2(10, 0);
        s.stddev = 0.0;
        assert!(s.validate().is_err());
        let mut s = GaussianMixture::figure_r2(10, 0);
        s.box_min = s.box_max;
        assert!(s.validate().is_err());
    }

    #[test]
    fn dfs_streaming_matches_in_memory() {
        use gmr_mapreduce::dfs::Dfs;
        let spec = GaussianMixture::figure_r2(200, 11);
        let dfs = Arc::new(Dfs::new(1024));
        let centers = spec.generate_to_dfs(&dfs, "pts").unwrap();
        let in_mem = spec.generate().unwrap();
        assert_eq!(centers, in_mem.true_centers);
        let lines = dfs.read_lines("pts").unwrap();
        assert_eq!(lines.len(), 200);
        for (line, row) in lines.iter().zip(in_mem.points.rows()) {
            let parsed = crate::text::parse_point(line).unwrap();
            assert_eq!(parsed, row);
        }
    }
}
