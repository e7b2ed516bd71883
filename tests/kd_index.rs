//! The k-d-tree nearest-center acceleration: identical clustering,
//! fewer distance evaluations — the mrkd-tree optimization the paper's
//! §2 cites as a drop-in addition.

use std::sync::Arc;

use gmeans::mr::MultiKMeans;
use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};

fn staged(k: usize, n: usize, seed: u64) -> JobRunner {
    let spec = GaussianMixture::paper_r10(n, k, seed);
    let dfs = Arc::new(Dfs::new(32 * 1024));
    spec.generate_to_dfs(&dfs, "points.txt").unwrap();
    JobRunner::new(dfs, ClusterConfig::default()).unwrap()
}

#[test]
fn indexed_gmeans_matches_linear_gmeans_exactly() {
    let config = GMeansConfig::default().with_seed(5);
    let linear = MRGMeans::new(staged(12, 4000, 80), config)
        .run("points.txt")
        .unwrap();
    let indexed = MRGMeans::new(staged(12, 4000, 80), config)
        .with_kd_index(true)
        .run("points.txt")
        .unwrap();
    assert_eq!(linear.centers, indexed.centers);
    assert_eq!(linear.counts, indexed.counts);
    assert_eq!(linear.iterations, indexed.iterations);
}

#[test]
fn index_reduces_distance_evaluations_at_high_k() {
    let config = GMeansConfig::default().with_seed(6);
    let linear = MRGMeans::new(staged(32, 8000, 81), config)
        .run("points.txt")
        .unwrap();
    let indexed = MRGMeans::new(staged(32, 8000, 81), config)
        .with_kd_index(true)
        .run("points.txt")
        .unwrap();
    let d_lin = linear.counters.get(Counter::DistanceComputations);
    let d_idx = indexed.counters.get(Counter::DistanceComputations);
    // In R¹⁰ the curse of dimensionality limits k-d pruning; ~2× is
    // what the exact tree buys at k ≈ 50 centers.
    assert!(
        (d_idx as f64) < d_lin as f64 * 0.7,
        "index should cut evaluations by ≥30%: {d_idx} vs {d_lin}"
    );
    // Same clusterings despite the different search path.
    assert_eq!(linear.k(), indexed.k());
}

#[test]
fn indexed_multik_matches_linear() {
    let linear = MultiKMeans::new(staged(6, 2000, 82), 1, 8, 1, 4, 3)
        .run("points.txt")
        .unwrap();
    let indexed = MultiKMeans::new(staged(6, 2000, 82), 1, 8, 1, 4, 3)
        .with_kd_index(true)
        .run("points.txt")
        .unwrap();
    for (l, i) in linear.models.iter().zip(&indexed.models) {
        assert_eq!(l.centers, i.centers, "k = {}", l.k);
        assert_eq!(l.counts, i.counts);
    }
    // k ≤ 8 fits in one k-d leaf, so the scan degenerates to linear —
    // the evaluations must never exceed the linear count.
    assert!(
        indexed.counters.get(Counter::DistanceComputations)
            <= linear.counters.get(Counter::DistanceComputations)
    );
}

#[test]
fn index_composes_with_cached_execution() {
    let config = GMeansConfig::default().with_seed(7);
    let plain = MRGMeans::new(staged(10, 3000, 83), config)
        .run("points.txt")
        .unwrap();
    let both = MRGMeans::new(staged(10, 3000, 83), config)
        .with_kd_index(true)
        .with_execution_mode(ExecutionMode::Cached)
        .run("points.txt")
        .unwrap();
    assert_eq!(plain.centers, both.centers);
    assert_eq!(both.dataset_reads, 2);
}

// ---------------------------------------------------------------------
// The kd *speed* backend (`CenterSet::with_backend`): bit-identical to
// the scan, cost-neutral, and safe under non-finite geometry.
// ---------------------------------------------------------------------

use gmeans::mr::{CenterSet, KernelBackend};
use proptest::prelude::*;

/// Per-point reference: the plain flat scan (`nearest_with_cost` on a
/// set with no backend attached) — the semantics every backend pins.
fn scan_reference(set: &CenterSet, points: &[f64], dim: usize) -> Vec<(usize, i64, f64, u64)> {
    points
        .chunks_exact(dim)
        .map(|p| set.nearest_with_cost(p).expect("non-empty set"))
        .collect()
}

fn norms_of(points: &[f64], dim: usize) -> Vec<f64> {
    points
        .chunks_exact(dim)
        .map(|p| p.iter().map(|x| x * x).sum())
        .collect()
}

#[test]
fn kd_backend_survives_non_finite_points() {
    // Finite centers, queries laced with NaN/∞: the kd backend must
    // answer exactly like the scan (whose NaN comparison quirks are the
    // contract), while still charging k evaluations per point.
    let mut plain = CenterSet::new(2);
    for i in 0..40 {
        plain.push(i as i64, &[(i % 7) as f64, (i / 7) as f64]);
    }
    let kd = plain.clone().with_backend(KernelBackend::Kd);
    assert_eq!(kd.kernel(), Some("kd"));
    let mut pts = Vec::new();
    for q in 0..30 {
        pts.extend_from_slice(&[q as f64 * 0.3, (q % 5) as f64]);
    }
    pts[4] = f64::NAN;
    pts[11] = f64::INFINITY;
    pts[20] = f64::NEG_INFINITY;
    let reference = scan_reference(&plain, &pts, 2);
    let got = kd.nearest_block(&pts, &norms_of(&pts, 2));
    assert_eq!(got.len(), reference.len());
    for (g, r) in got.iter().zip(&reference) {
        assert_eq!(g.0, r.0, "index");
        assert_eq!(g.1, r.1, "id");
        assert_eq!(g.2.to_bits(), r.2.to_bits(), "distance bits");
        assert_eq!(g.3, 40, "cost-neutral: charges k");
    }
}

#[test]
fn non_finite_centers_build_a_scan_equivalent_backend() {
    // A center set containing NaN coordinates: `with_backend` must not
    // hand the query to a structure with different NaN semantics.
    let mut plain = CenterSet::new(2);
    for i in 0..12 {
        plain.push(i as i64, &[i as f64, 1.0]);
    }
    plain.push(12, &[f64::NAN, 2.0]);
    plain.push(13, &[3.0, f64::INFINITY]);
    let auto = plain.clone().with_backend(KernelBackend::Kd);
    let pts: Vec<f64> = (0..20).flat_map(|q| [q as f64 * 0.7, 1.2]).collect();
    let reference = scan_reference(&plain, &pts, 2);
    let got = auto.nearest_block(&pts, &norms_of(&pts, 2));
    for (g, r) in got.iter().zip(&reference) {
        assert_eq!((g.0, g.1), (r.0, r.1));
        assert_eq!(g.2.to_bits(), r.2.to_bits());
    }
}

proptest! {
    /// The mapper contract, adversarially: coarse integer grids breed
    /// duplicate centers and dense exact ties, and the kd speed backend
    /// must resolve every one exactly like the first-wins scan — index,
    /// id, and distance bits — while charging the scan's k evaluations.
    #[test]
    fn prop_kd_backend_is_bit_identical_to_scan_on_tie_grids(
        dim in 1usize..4,
        k in 2usize..70,
        grid in 1usize..5,
        n in 1usize..50,
        seed: u64,
    ) {
        let mut state = seed | 1;
        let mut next_u = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut plain = CenterSet::new(dim);
        for i in 0..k {
            let c: Vec<f64> = (0..dim).map(|_| (next_u() % grid as u64) as f64).collect();
            plain.push(i as i64, &c);
        }
        let kd = plain.clone().with_backend(KernelBackend::Kd);
        prop_assert_eq!(kd.kernel(), Some("kd"));
        // Midpoint queries tie between whole grid neighborhoods.
        let pts: Vec<f64> = (0..n * dim)
            .map(|_| (next_u() % grid as u64) as f64 + 0.5)
            .collect();
        let reference = scan_reference(&plain, &pts, dim);
        let got = kd.nearest_block(&pts, &norms_of(&pts, dim));
        prop_assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            prop_assert_eq!(g.0, r.0);
            prop_assert_eq!(g.1, r.1);
            prop_assert_eq!(g.2.to_bits(), r.2.to_bits());
            prop_assert_eq!(g.3, k as u64);
        }
    }
}
