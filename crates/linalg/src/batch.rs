//! Blocked nearest-center kernel over tiles of points × tiles of centers.
//!
//! The scalar [`nearest_center_flat`](crate::nearest_center_flat) scan
//! streams all `k` centers through the cache once *per point*, and its
//! accumulator chain (`acc += d·d`) is a serial dependency no compiler
//! can vectorize. This kernel instead processes a tile of points against
//! a tile of centers so the center tile stays hot in L1, and uses the
//! norm decomposition `‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²` with squared
//! norms computed once per buffer instead of per pair.
//!
//! The decomposition is numerically *different* from the direct
//! subtract-square-accumulate loop, so it is used only to compute
//! **bounds**. Every center whose bound is within a conservative error
//! margin of the minimum bound survives, and the survivors are
//! re-evaluated with the exact [`squared_euclidean`] loop in ascending
//! center order with first-wins tie-breaking — the argmin and the
//! reported squared distance are therefore bit-identical to the naive
//! scan, which is what the fault-replay and checkpoint-resume suites
//! require.
//!
//! # Tile layout and SIMD
//!
//! Each center tile of (up to) `CENTER_TILE` centers is transposed
//! once into dimension-major order — `t[d·CENTER_TILE + j]` is
//! coordinate `d` of tile-center `j` — so the bounds pass for one point
//! is a rank-1 update: broadcast `p[d]`, multiply by a contiguous lane
//! of 32 center coordinates, accumulate into 32 independent dot-product
//! accumulators. There is no reduction dependency across lanes, which is
//! exactly the shape SIMD wants. On x86-64 an AVX2+FMA path (selected
//! once at runtime via `is_x86_feature_detected!`) runs the update as
//! 8 × 4-lane fused multiply-adds; everywhere else a 32-wide scalar
//! accumulator array autovectorizes to whatever the target baseline
//! offers. Bound values may differ between the two paths by a few ulps —
//! the margin covers both — but the *output* is identical because every
//! survivor is re-evaluated exactly.
//!
//! Partial tiles are padded with zero coordinates and `+∞` norms: a
//! padded lane's bound is `+∞`, so it can never win the minimum and
//! never survives.

use crate::distance::squared_euclidean;

/// Points per tile: large enough to amortize the per-tile center sweep,
/// small enough that the bound buffer stays cache-resident.
const POINT_TILE: usize = 64;

/// Centers per tile: a tile of `32 × dim` f64s fits in L1 for the low
/// dimensionalities the paper evaluates (d ≤ 10), and 32 lanes is a
/// multiple of every f64 SIMD width in sight (2, 4, 8).
const CENTER_TILE: usize = 32;

/// Squared Euclidean norm of every row in a flat row-major buffer.
///
/// # Panics
/// Panics if `flat.len()` is not a multiple of `dim` or `dim == 0`.
pub fn squared_norms(flat: &[f64], dim: usize) -> Vec<f64> {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(flat.len() % dim, 0, "ragged row buffer");
    flat.chunks_exact(dim)
        .map(|row| row.iter().map(|x| x * x).sum())
        .collect()
}

/// Conservative upper bound on the absolute error between the
/// decomposition bound and the exact squared distance for one pair.
///
/// Both computations accumulate `O(dim)` terms no larger in magnitude
/// than `‖x‖² + ‖c‖²` (since `2|x·c| ≤ ‖x‖² + ‖c‖²`), so each carries a
/// rounding error of at most a small multiple of `dim · ε` relative to
/// that scale. The factor 8 and the `+ 8` are deliberate slack — wide
/// enough to also cover the FMA/reassociation differences of the SIMD
/// bounds path: a margin that is too wide only re-evaluates a few extra
/// centers, while one that is too narrow would silently change an
/// argmin. The cutoff is `min_bound + margin` and both the true
/// nearest's bound and the minimum bound err by at most one margin-half
/// each, which is why [`nearest_centers_batch`] applies the margin once on top of
/// the observed minimum.
#[inline]
fn bound_margin(dim: usize, px2: f64, cn_max: f64) -> f64 {
    (dim as f64 + 8.0) * 8.0 * f64::EPSILON * (px2 + cn_max)
}

/// One transposed center tile: `t[d * CENTER_TILE + j]` is coordinate
/// `d` of the tile's `j`-th center. Lanes `rows..CENTER_TILE` are
/// padding (zero coordinates, `+∞` norm).
struct CenterTile {
    t: Vec<f64>,
    norms: [f64; CENTER_TILE],
    /// Real centers in this tile (the rest is padding).
    rows: usize,
    /// Global index of the tile's first center.
    base: usize,
}

/// Transposes the center buffer into per-tile dimension-major layout.
fn transpose_tiles(centers: &[f64], center_norms: &[f64], dim: usize) -> Vec<CenterTile> {
    centers
        .chunks(CENTER_TILE * dim)
        .enumerate()
        .map(|(ti, chunk)| {
            let rows = chunk.len() / dim;
            let base = ti * CENTER_TILE;
            let mut t = vec![0.0f64; dim * CENTER_TILE];
            for (j, c) in chunk.chunks_exact(dim).enumerate() {
                for (d, &x) in c.iter().enumerate() {
                    t[d * CENTER_TILE + j] = x;
                }
            }
            let mut norms = [f64::INFINITY; CENTER_TILE];
            norms[..rows].copy_from_slice(&center_norms[base..base + rows]);
            CenterTile {
                t,
                norms,
                rows,
                base,
            }
        })
        .collect()
}

/// Whether the AVX2+FMA bounds kernel is available, probed once.
#[cfg(target_arch = "x86_64")]
fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_available() -> bool {
    false
}

/// Scalar bounds pass for one point against one transposed center tile:
/// writes the tile's bounds into `out_row` and returns the tile minimum.
///
/// The 32 accumulators are independent, so this loop autovectorizes at
/// whatever width the compilation target guarantees; it is also the
/// reference the AVX2 path must stay within one margin of.
#[inline]
fn tile_bounds_scalar(p: &[f64], px2: f64, tile: &CenterTile, out_row: &mut [f64]) -> f64 {
    let mut dot = [0.0f64; CENTER_TILE];
    for (d, &pd) in p.iter().enumerate() {
        let col = &tile.t[d * CENTER_TILE..(d + 1) * CENTER_TILE];
        for (acc, &c) in dot.iter_mut().zip(col) {
            *acc += pd * c;
        }
    }
    let mut bs = [0.0f64; CENTER_TILE];
    for (b, (&acc, &cn)) in bs.iter_mut().zip(dot.iter().zip(&tile.norms)) {
        *b = px2 - 2.0 * acc + cn;
    }
    let mut min = f64::INFINITY;
    for &b in &bs {
        min = min.min(b);
    }
    out_row[..tile.rows].copy_from_slice(&bs[..tile.rows]);
    min
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{CenterTile, CENTER_TILE};
    use std::arch::x86_64::*;

    /// AVX2+FMA bounds pass for one point against one transposed tile:
    /// 8 × 4-lane FMA accumulators cover the 32 center lanes with no
    /// cross-lane dependency. Returns the tile's minimum bound.
    ///
    /// NaN note: `_mm256_min_pd` propagates its *second* operand on a
    /// NaN input, so a transient NaN bound can only *raise* the running
    /// minimum (or leave it NaN) — never lower it. A raised minimum
    /// widens the survivor cutoff (harmless: extra exact re-evaluations)
    /// and a NaN minimum makes the cutoff non-finite, which sends the
    /// caller to the exact per-point scan. Either way the output stays
    /// bit-identical to the scan.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_bounds(p: &[f64], px2: f64, tile: &CenterTile, out_row: &mut [f64]) -> f64 {
        const LANES: usize = 4;
        const VECS: usize = CENTER_TILE / LANES;
        let mut acc = [_mm256_setzero_pd(); VECS];
        let t = tile.t.as_ptr();
        for (d, &pd) in p.iter().enumerate() {
            let pv = _mm256_set1_pd(pd);
            let col = t.add(d * CENTER_TILE);
            for (v, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_pd(pv, _mm256_loadu_pd(col.add(v * LANES)), *a);
            }
        }
        let two = _mm256_set1_pd(2.0);
        let px2v = _mm256_set1_pd(px2);
        let mut bs = [0.0f64; CENTER_TILE];
        let mut minv = _mm256_set1_pd(f64::INFINITY);
        for (v, a) in acc.iter().enumerate() {
            let cn = _mm256_loadu_pd(tile.norms.as_ptr().add(v * LANES));
            // px2 − 2·dot + ‖c‖², with the subtraction fused.
            let b = _mm256_add_pd(_mm256_fnmadd_pd(*a, two, px2v), cn);
            _mm256_storeu_pd(bs.as_mut_ptr().add(v * LANES), b);
            minv = _mm256_min_pd(minv, b);
        }
        let lo = _mm256_castpd256_pd128(minv);
        let hi = _mm256_extractf128_pd(minv, 1);
        let m = _mm_min_pd(lo, hi);
        let m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
        out_row[..tile.rows].copy_from_slice(&bs[..tile.rows]);
        _mm_cvtsd_f64(m)
    }
}

/// Bounds pass for one point against one tile, dispatching to the AVX2
/// kernel when the caller's one-time probe allowed it.
#[inline]
fn tile_bounds(p: &[f64], px2: f64, tile: &CenterTile, out_row: &mut [f64], use_simd: bool) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only true when `simd_available()`
        // confirmed AVX2 and FMA at runtime.
        return unsafe { avx::tile_bounds(p, px2, tile, out_row) };
    }
    let _ = use_simd;
    tile_bounds_scalar(p, px2, tile, out_row)
}

/// Nearest center for every point of a flat row-major block, returning
/// one `(center_index, squared_distance)` per point.
///
/// `point_norms` / `center_norms` are the per-row squared norms of
/// `points` / `centers` (see [`squared_norms`]); callers cache them so
/// repeated sweeps (one per Lloyd iteration) pay for them once.
///
/// The result is bit-identical to calling
/// [`nearest_center_flat`](crate::nearest_center_flat) per point,
/// including first-wins tie-breaking on exactly equal distances.
///
/// # Panics
/// Panics if `centers` is empty, `dim == 0`, buffers are ragged, or the
/// norm slices disagree with the row counts.
pub fn nearest_centers_batch(
    points: &[f64],
    point_norms: &[f64],
    centers: &[f64],
    center_norms: &[f64],
    dim: usize,
) -> Vec<(usize, f64)> {
    assert!(dim > 0, "dimension must be positive");
    assert!(!centers.is_empty(), "no centers");
    assert_eq!(points.len() % dim, 0, "ragged point buffer");
    assert_eq!(centers.len() % dim, 0, "ragged center buffer");
    let n = points.len() / dim;
    let k = centers.len() / dim;
    assert_eq!(point_norms.len(), n, "point norm count mismatch");
    assert_eq!(center_norms.len(), k, "center norm count mismatch");
    let scan = |p: &[f64]| {
        crate::distance::nearest_center_flat(p, centers, dim).expect("non-empty centers")
    };

    // A non-finite center poisons every decomposition bound involving
    // it, and the naive scan's comparison semantics around NaN are what
    // the bit-identity contract pins — delegate the whole block to the
    // reference scan. (Non-finite *points* are handled per point by the
    // cutoff check below.)
    if center_norms.iter().any(|cn| !cn.is_finite()) {
        return points.chunks_exact(dim).map(scan).collect();
    }

    let cn_max = center_norms.iter().cloned().fold(0.0f64, f64::max);
    let tiles = transpose_tiles(centers, center_norms, dim);
    let use_simd = simd_available();
    let mut out = Vec::with_capacity(n);
    let mut bounds = vec![0.0f64; POINT_TILE * k];
    let mut min_bounds = [0.0f64; POINT_TILE];

    for (tile_idx, tile) in points.chunks(POINT_TILE * dim).enumerate() {
        let rows = tile.len() / dim;
        let p_base = tile_idx * POINT_TILE;
        let tile_norms = &point_norms[p_base..p_base + rows];
        min_bounds[..rows].fill(f64::INFINITY);

        // Bounds pass: tile of points × transposed tile of centers.
        for ct in &tiles {
            for (pi, p) in tile.chunks_exact(dim).enumerate() {
                let px2 = tile_norms[pi];
                let row = &mut bounds[pi * k + ct.base..pi * k + ct.base + ct.rows];
                let min = tile_bounds(p, px2, ct, row, use_simd);
                min_bounds[pi] = min_bounds[pi].min(min);
            }
        }

        // Survivor pass: exact recomputation in ascending center order.
        for (pi, p) in tile.chunks_exact(dim).enumerate() {
            let row = &bounds[pi * k..(pi + 1) * k];
            let cutoff = min_bounds[pi] + bound_margin(dim, tile_norms[pi], cn_max);
            let mut best: Option<(usize, f64)> = None;
            if cutoff.is_finite() {
                for (j, &b) in row.iter().enumerate() {
                    if b <= cutoff {
                        let d = squared_euclidean(p, &centers[j * dim..(j + 1) * dim]);
                        match best {
                            Some((_, bd)) if bd <= d => {}
                            _ => best = Some((j, d)),
                        }
                    }
                }
            }
            // Non-finite coordinates poison the bounds; fall back to the
            // plain scan so the result still matches it exactly.
            out.push(best.unwrap_or_else(|| scan(p)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::nearest_center_flat;
    use proptest::prelude::*;

    fn naive(points: &[f64], centers: &[f64], dim: usize) -> Vec<(usize, f64)> {
        points
            .chunks_exact(dim)
            .map(|p| nearest_center_flat(p, centers, dim).unwrap())
            .collect()
    }

    #[test]
    fn matches_naive_on_small_input() {
        let points = [0.0, 0.0, 9.0, 1.0, -3.0, 4.0];
        let centers = [0.0, 0.0, 10.0, 0.0, -4.0, 4.0];
        let got = nearest_centers_batch(
            &points,
            &squared_norms(&points, 2),
            &centers,
            &squared_norms(&centers, 2),
            2,
        );
        assert_eq!(got, naive(&points, &centers, 2));
    }

    #[test]
    fn exact_ties_prefer_first_center() {
        // Every point sits exactly between two duplicated centers; the
        // batch kernel must agree with the scan's first-wins rule.
        let centers = [1.0, 1.0, 1.0, 1.0, 5.0, 5.0];
        let points = [3.0, 3.0, 1.0, 1.0, 5.0, 5.0];
        let got = nearest_centers_batch(
            &points,
            &squared_norms(&points, 2),
            &centers,
            &squared_norms(&centers, 2),
            2,
        );
        assert_eq!(got, naive(&points, &centers, 2));
        assert_eq!(got[1].0, 0, "duplicate centers: lowest index wins");
    }

    #[test]
    fn exact_ties_prefer_first_center_in_the_tile_loop() {
        let centers = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0];
        let points = [3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0];
        let got = nearest_centers_batch(
            &points,
            &squared_norms(&points, 4),
            &centers,
            &squared_norms(&centers, 4),
            4,
        );
        assert_eq!(got, naive(&points, &centers, 4));
        assert_eq!(got[0].0, 0, "equidistant duplicates: lowest index wins");
    }

    #[test]
    fn spans_multiple_tiles() {
        // More points than POINT_TILE and more centers than CENTER_TILE.
        let dim = 5;
        let points: Vec<f64> = (0..(POINT_TILE * 2 + 7) * dim)
            .map(|i| ((i * 37) % 101) as f64 - 50.0)
            .collect();
        let centers: Vec<f64> = (0..(CENTER_TILE + 5) * dim)
            .map(|i| ((i * 53) % 97) as f64 - 48.0)
            .collect();
        let got = nearest_centers_batch(
            &points,
            &squared_norms(&points, dim),
            &centers,
            &squared_norms(&centers, dim),
            dim,
        );
        assert_eq!(got, naive(&points, &centers, dim));
    }

    #[test]
    fn non_finite_centers_fall_back_to_scan() {
        // One NaN center and one +∞ center among finite ones: the batch
        // kernel must reproduce the scan's comparison semantics exactly,
        // NaN oddities included.
        let dim = 4;
        let mut centers: Vec<f64> = (0..6 * dim).map(|i| (i % 11) as f64).collect();
        centers[5] = f64::NAN;
        centers[4 * dim] = f64::INFINITY;
        let points: Vec<f64> = (0..40 * dim).map(|i| ((i * 13) % 17) as f64).collect();
        let got = nearest_centers_batch(
            &points,
            &squared_norms(&points, dim),
            &centers,
            &squared_norms(&centers, dim),
            dim,
        );
        let want = naive(&points, &centers, dim);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }

    #[test]
    fn non_finite_points_fall_back_to_scan() {
        let dim = 4;
        let centers: Vec<f64> = (0..8 * dim).map(|i| (i % 7) as f64).collect();
        let mut points: Vec<f64> = (0..10 * dim).map(|i| ((i * 3) % 13) as f64).collect();
        points[2] = f64::NAN;
        points[5 * dim] = f64::NEG_INFINITY;
        let got = nearest_centers_batch(
            &points,
            &squared_norms(&points, dim),
            &centers,
            &squared_norms(&centers, dim),
            dim,
        );
        let want = naive(&points, &centers, dim);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }

    /// Regression: the margin must never let a bound that is a few ulps
    /// *above* the observed minimum (while its exact distance is the
    /// true minimum) be skipped. This is the catastrophic-cancellation
    /// shape — points far from the origin, centers a hair apart — where
    /// `‖x‖² − 2x·c + ‖c‖²` loses almost all its significant bits.
    #[test]
    fn margin_never_skips_the_true_nearest_under_cancellation() {
        let dim = 8;
        let offset = 1.0e7; // px2 ≈ 8e14: bound error swamps the gap
        for probe in 0..64 {
            let eps = (probe + 1) as f64 * 1.0e-9;
            let mut centers = Vec::new();
            // Center 0 marginally farther, center 1 the true nearest,
            // then decoys.
            for delta in [2.0 * eps, eps, 0.5, 1.0, 2.0] {
                let mut c = vec![offset; dim];
                c[0] += delta;
                centers.extend_from_slice(&c);
            }
            let p = vec![offset; dim];
            let got = nearest_centers_batch(
                &p,
                &squared_norms(&p, dim),
                &centers,
                &squared_norms(&centers, dim),
                dim,
            );
            let want = naive(&p, &centers, dim);
            assert_eq!(got[0].0, want[0].0, "eps={eps}");
            assert_eq!(got[0].1.to_bits(), want[0].1.to_bits(), "eps={eps}");
        }
    }

    proptest! {
        #[test]
        fn batch_is_bit_identical_to_scan(
            dim in 1usize..6,
            n in 1usize..150,
            k in 1usize..40,
            seed: u64,
        ) {
            // Deterministic pseudo-random fill; proptest drives the seed.
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 100.0
            };
            let points: Vec<f64> = (0..n * dim).map(|_| next()).collect();
            let centers: Vec<f64> = (0..k * dim).map(|_| next()).collect();
            let got = nearest_centers_batch(
                &points,
                &squared_norms(&points, dim),
                &centers,
                &squared_norms(&centers, dim),
                dim,
            );
            let want = naive(&points, &centers, dim);
            // Bit-identical: same index AND the exact same f64 distance.
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }

        #[test]
        fn batch_handles_clustered_near_ties(
            n in 1usize..80,
            seed: u64,
        ) {
            // Centers on a coarse grid and points snapped to midpoints
            // produce many exact ties.
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 7) as f64
            };
            let centers: Vec<f64> = (0..16).map(|_| next()).collect();
            let points: Vec<f64> = (0..n * 2).map(|_| next() + 0.5).collect();
            let got = nearest_centers_batch(
                &points,
                &squared_norms(&points, 2),
                &centers,
                &squared_norms(&centers, 2),
                2,
            );
            let want = naive(&points, &centers, 2);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }

        /// The satellite d = 128 margin stress: adversarial near-tie
        /// grids at high dimension, where the `(d+8)·8·ε` margin is at
        /// its tightest relative to the accumulated rounding error.
        #[test]
        fn batch_is_bit_identical_at_d128_near_ties(
            n in 1usize..24,
            k in 2usize..40,
            grid in 1usize..5,
            offset in 0.0..1.0e6f64,
            seed: u64,
        ) {
            const DIM: usize = 128;
            let mut state = seed | 1;
            let mut next_u = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            // Coarse integer grid shifted far from the origin: many
            // exact ties plus heavy cancellation in the decomposition.
            let centers: Vec<f64> = (0..k * DIM)
                .map(|_| (next_u() % grid as u64) as f64 + offset)
                .collect();
            let points: Vec<f64> = (0..n * DIM)
                .map(|_| (next_u() % grid as u64) as f64 + 0.5 + offset)
                .collect();
            let got = nearest_centers_batch(
                &points,
                &squared_norms(&points, DIM),
                &centers,
                &squared_norms(&centers, DIM),
                DIM,
            );
            let want = naive(&points, &centers, DIM);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0, w.0);
                prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
    }
}
