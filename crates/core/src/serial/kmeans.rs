//! Serial Lloyd's algorithm ("the k-means algorithm", §1).
//!
//! This is the single-machine reference implementation the MapReduce
//! jobs are tested against: assignment and update steps are algebraically
//! identical, so on the same data with the same initial centers, one MR
//! k-means job must produce (up to floating-point reassociation) the
//! same centers as one [`lloyd_iteration`].

use gmr_linalg::{nearest_center_flat, CentroidAccumulator, Dataset};
use rayon::prelude::*;

use crate::config::KMeansConfig;
use crate::eval::assign;
use crate::serial::init::{initial_centers, InitStrategy};

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Final centers. May contain fewer than `k` rows if clusters
    /// emptied and were dropped.
    pub centers: Dataset,
    /// Lloyd iterations actually performed.
    pub iterations: usize,
    /// Final within-cluster sum of squares.
    pub wcss: f64,
}

/// One Lloyd iteration: assigns every point to its nearest center and
/// returns the new means together with cluster sizes.
///
/// Empty clusters keep their previous center (the standard convention,
/// also what the MapReduce reducer does when no pair arrives for an id).
pub fn lloyd_iteration(data: &Dataset, centers: &Dataset) -> (Dataset, Vec<u64>) {
    assert!(!centers.is_empty(), "need at least one center");
    let dim = data.dim();
    let flat = centers.flat();
    let k = centers.len();

    // Parallel partial accumulation, then merge — the same fold the MR
    // combiner/reducer pipeline performs.
    let rows: Vec<&[f64]> = data.rows().collect();
    let accs = rows
        .par_chunks(4096)
        .map(|chunk| {
            let mut acc: Vec<CentroidAccumulator> =
                (0..k).map(|_| CentroidAccumulator::new(dim)).collect();
            for row in chunk {
                let (idx, _) = nearest_center_flat(row, flat, dim).expect("nonempty");
                acc[idx].push(row);
            }
            acc
        })
        .reduce(
            || (0..k).map(|_| CentroidAccumulator::new(dim)).collect(),
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    x.merge(y);
                }
                a
            },
        );

    let mut new_centers = Dataset::with_capacity(dim, k);
    let mut sizes = Vec::with_capacity(k);
    for (i, acc) in accs.iter().enumerate() {
        match acc.mean() {
            Some(mean) => new_centers.push(mean.as_slice()),
            None => new_centers.push(centers.row(i)), // empty cluster
        }
        sizes.push(acc.count());
    }
    (new_centers, sizes)
}

/// Runs k-means with the given initialization strategy.
pub fn kmeans(data: &Dataset, config: &KMeansConfig, strategy: InitStrategy) -> KMeansResult {
    let centers = initial_centers(data, config.k, strategy, config.seed);
    kmeans_from(data, centers, config)
}

/// Runs `config.max_iterations` Lloyd iterations from explicit
/// starting centers.
pub fn kmeans_from(data: &Dataset, mut centers: Dataset, config: &KMeansConfig) -> KMeansResult {
    for _ in 0..config.max_iterations {
        centers = lloyd_iteration(data, &centers).0;
    }
    let wcss = assign(data, &centers).wcss;
    KMeansResult {
        centers,
        iterations: config.max_iterations,
        wcss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::GaussianMixture;
    use gmr_linalg::euclidean;

    #[test]
    fn lloyd_moves_centers_to_means() {
        // Two clusters on a line; centers start slightly off.
        let data = Dataset::from_flat(1, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        let centers = Dataset::from_flat(1, vec![0.5, 11.5]);
        let (next, sizes) = lloyd_iteration(&data, &centers);
        assert_eq!(sizes, vec![3, 3]);
        assert!((next.row(0)[0] - 1.0).abs() < 1e-12);
        assert!((next.row(1)[0] - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_keeps_center() {
        let data = Dataset::from_flat(1, vec![0.0, 1.0]);
        let centers = Dataset::from_flat(1, vec![0.5, 100.0]);
        let (next, sizes) = lloyd_iteration(&data, &centers);
        assert_eq!(sizes, vec![2, 0]);
        assert_eq!(next.row(1)[0], 100.0);
    }

    #[test]
    fn wcss_is_monotone_over_iterations() {
        let d = GaussianMixture::paper_r10(2000, 8, 3).generate().unwrap();
        let init = initial_centers(&d.points, 8, InitStrategy::Random, 1);
        let mut centers = init;
        let mut last = f64::INFINITY;
        for _ in 0..6 {
            let w = assign(&d.points, &centers).wcss;
            assert!(w <= last + 1e-6, "wcss increased: {w} > {last}");
            last = w;
            centers = lloyd_iteration(&d.points, &centers).0;
        }
    }

    #[test]
    fn recovers_well_separated_clusters_with_kmeanspp() {
        let d = GaussianMixture::paper_r10(3000, 6, 17).generate().unwrap();
        let r = kmeans(
            &d.points,
            &KMeansConfig::new(6).with_iterations(15).with_seed(5),
            InitStrategy::KMeansPlusPlus,
        );
        // Every true center must have a discovered center within 1σ.
        for t in d.true_centers.rows() {
            let best = r
                .centers
                .rows()
                .map(|c| euclidean(c, t))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 1.0, "missed a true center by {best}");
        }
    }

    #[test]
    fn fixed_iteration_budget_is_respected() {
        let d = GaussianMixture::paper_r10(500, 4, 2).generate().unwrap();
        let r = kmeans(
            &d.points,
            &KMeansConfig::new(4).with_iterations(3),
            InitStrategy::Random,
        );
        assert_eq!(r.iterations, 3);
    }
}
