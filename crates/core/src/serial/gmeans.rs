//! Serial G-means (Hamerly & Elkan, "Learning the k in k-means", 2003).
//!
//! The sequential algorithm the paper parallelizes (§2): starting from
//! one cluster, repeatedly
//!
//! 1. pick two candidate children `c1`, `c2` for a cluster,
//! 2. refine them with 2-means on the cluster's points,
//! 3. project the points on `v = c1 − c2` and Anderson–Darling-test the
//!    normalized projections,
//! 4. keep the original center if the projections look Gaussian,
//!    otherwise replace it by `c1`, `c2` and recurse into both halves.
//!
//! Unlike the MapReduce version, this one works cluster-locally: each
//! cluster's points are materialized and recursed into, which is exactly
//! the membership binding §3 explains is too I/O-expensive on MapReduce.

use gmr_linalg::{nearest_center, Dataset, Point, SegmentProjector};
use gmr_stats::AdError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{GMeansConfig, KMeansConfig};
use crate::serial::kmeans::kmeans_from;

/// Result of a serial G-means run.
#[derive(Clone, Debug)]
pub struct GMeansResult {
    /// Discovered centers.
    pub centers: Dataset,
    /// Number of Anderson–Darling tests performed.
    pub ad_tests: usize,
    /// Number of clusters that were split.
    pub splits: usize,
}

impl GMeansResult {
    /// The discovered number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }
}

/// Serial G-means runner.
#[derive(Clone, Debug)]
pub struct GMeans {
    config: GMeansConfig,
}

impl GMeans {
    /// Creates a runner with the given configuration.
    pub fn new(config: GMeansConfig) -> Self {
        Self { config }
    }

    /// Clusters `data`, learning the number of clusters.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn fit(&self, data: &Dataset) -> GMeansResult {
        assert!(!data.is_empty(), "cannot cluster an empty dataset");
        let ad = self.config.ad_test();
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Work queue of clusters, each a materialized subset plus its
        // center. Start with the whole dataset around its mean.
        let mut queue: Vec<(Dataset, Point)> = vec![(data.clone(), mean_point(data))];
        let mut accepted = Dataset::new(data.dim());
        let mut ad_tests = 0usize;
        let mut splits = 0usize;
        // Depth guard: every split halves at best, so 2·max_iterations
        // splits along one path means something is wrong.
        let mut processed = 0usize;
        let max_processed = data.len() * 4 + 64;

        while let Some((subset, center)) = queue.pop() {
            processed += 1;
            if processed > max_processed {
                // Pathological non-convergence: accept what remains.
                accepted.push(center.as_slice());
                for (_, c) in queue.drain(..) {
                    accepted.push(c.as_slice());
                }
                break;
            }
            if subset.len() < self.config.min_test_sample {
                accepted.push(center.as_slice());
                continue;
            }

            // 1. Two candidate children: distinct random points.
            let (c1, c2) = pick_two_points(&subset, &mut rng);
            // 2. Refine with 2-means on this cluster's points.
            let mut starts = Dataset::with_capacity(subset.dim(), 2);
            starts.push(c1.as_slice());
            starts.push(c2.as_slice());
            let refined = kmeans_from(&subset, starts, &KMeansConfig::new(2).with_iterations(10));
            let r1 = refined.centers.point(0);
            let r2 = refined.centers.point(1);

            // 3. Project & test.
            let projector = SegmentProjector::new(r1.as_slice(), r2.as_slice());
            if projector.is_degenerate() {
                // Children collapsed: no split direction — keep center.
                accepted.push(center.as_slice());
                continue;
            }
            let projections: Vec<f64> = subset.rows().map(|p| projector.project(p)).collect();
            ad_tests += 1;
            let is_normal = match ad.test(&projections) {
                Ok(outcome) => outcome.is_normal(self.config.alpha),
                // Constant projections = no structure along v.
                Err(AdError::ZeroVariance) => true,
                Err(AdError::SampleTooSmall { .. }) => true,
                Err(AdError::NonFinite) => true,
            };

            if is_normal {
                accepted.push(center.as_slice());
            } else {
                // 4. Split: partition the subset between r1 and r2.
                splits += 1;
                let (s1, s2) = partition(&subset, r1.as_slice(), r2.as_slice());
                // A split that leaves one side empty is no split at all.
                if s1.is_empty() || s2.is_empty() {
                    accepted.push(center.as_slice());
                    continue;
                }
                queue.push((s1, r1));
                queue.push((s2, r2));
            }
        }

        GMeansResult {
            centers: accepted,
            ad_tests,
            splits,
        }
    }
}

fn mean_point(data: &Dataset) -> Point {
    let mut acc = gmr_linalg::CentroidAccumulator::new(data.dim());
    for row in data.rows() {
        acc.push(row);
    }
    acc.mean().expect("nonempty dataset")
}

fn pick_two_points(data: &Dataset, rng: &mut StdRng) -> (Point, Point) {
    let n = data.len();
    let i = rng.random_range(0..n);
    // Find a point distinct from i's coordinates if one exists.
    for _ in 0..32 {
        let j = rng.random_range(0..n);
        if data.row(j) != data.row(i) {
            return (data.point(i), data.point(j));
        }
    }
    (data.point(i), data.point((i + 1) % n))
}

fn partition(data: &Dataset, c1: &[f64], c2: &[f64]) -> (Dataset, Dataset) {
    let mut s1 = Dataset::new(data.dim());
    let mut s2 = Dataset::new(data.dim());
    for row in data.rows() {
        let (idx, _) = nearest_center(row, [c1, c2]).expect("two centers");
        if idx == 0 {
            s1.push(row);
        } else {
            s2.push(row);
        }
    }
    (s1, s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::{ClusterWeights, GaussianMixture};
    use gmr_linalg::euclidean;

    #[test]
    fn single_gaussian_is_one_cluster() {
        let spec = GaussianMixture {
            n_points: 2000,
            dim: 2,
            n_clusters: 1,
            box_min: 0.0,
            box_max: 100.0,
            stddev: 2.0,
            min_separation_sigmas: 0.0,
            seed: 4,
            weights: ClusterWeights::Balanced,
        };
        let d = spec.generate().unwrap();
        let r = GMeans::new(GMeansConfig::default()).fit(&d.points);
        assert_eq!(r.k(), 1, "one Gaussian must stay one cluster");
    }

    #[test]
    fn finds_ten_r2_clusters_approximately() {
        let d = GaussianMixture::figure_r2(4000, 1).generate().unwrap();
        let r = GMeans::new(GMeansConfig::default()).fit(&d.points);
        // The paper's own example finds 14 for 10 real clusters; accept
        // the same overestimate band.
        assert!(
            (10..=16).contains(&r.k()),
            "found {} clusters for 10 real",
            r.k()
        );
        // Every true center has a discovered center within 2σ.
        for t in d.true_centers.rows() {
            let best = r
                .centers
                .rows()
                .map(|c| euclidean(c, t))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 4.0, "missed a true center by {best}");
        }
    }

    #[test]
    fn r10_separated_clusters_are_found() {
        let d = GaussianMixture::paper_r10(5000, 8, 2).generate().unwrap();
        let r = GMeans::new(GMeansConfig::default()).fit(&d.points);
        assert!(
            (8..=13).contains(&r.k()),
            "found {} clusters for 8 real",
            r.k()
        );
        for t in d.true_centers.rows() {
            let best = r
                .centers
                .rows()
                .map(|c| euclidean(c, t))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 2.0, "missed a true center by {best}");
        }
    }

    #[test]
    fn tiny_dataset_is_single_cluster() {
        let data = Dataset::from_flat(1, (0..10).map(|i| i as f64).collect());
        let r = GMeans::new(GMeansConfig::default()).fit(&data);
        assert_eq!(r.k(), 1);
        assert_eq!(r.ad_tests, 0, "too small to test");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = GaussianMixture::figure_r2(1500, 6).generate().unwrap();
        let cfg = GMeansConfig::default().with_seed(11);
        let a = GMeans::new(cfg).fit(&d.points);
        let b = GMeans::new(cfg).fit(&d.points);
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.ad_tests, b.ad_tests);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        GMeans::new(GMeansConfig::default()).fit(&Dataset::new(2));
    }
}
