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
//! once at runtime via `is_x86_feature_detected!`) takes the points two
//! at a time and sweeps the tile in two halves of 16 lanes, so each
//! 4-lane load of center coordinates feeds one fused multiply-add per
//! point; everywhere else a 32-wide scalar accumulator array
//! autovectorizes to whatever the target baseline offers. Bound values
//! may differ between the two paths by a few ulps — the margin covers
//! both — but the *output* is identical because every survivor is
//! re-evaluated exactly.
//!
//! Both passes keep each (point, center tile) minimum bound, and the
//! exact survivor pass visits only the tiles whose minimum is within the
//! point's cutoff, rather than every one of the `k` bounds.
//!
//! Partial tiles are padded with zero coordinates and `+∞` norms: a
//! padded lane's bound is `+∞`, so it can never win the minimum and
//! never survives.
//!
//! The tiles depend on the centers only, so a caller that sweeps many
//! blocks against one center set builds them once ([`CenterTiles`]).

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
#[derive(Clone, Debug)]
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
/// writes the tile's 32 bounds (padding lanes included) into `out` and
/// returns their minimum.
///
/// The 32 accumulators are independent, so this loop autovectorizes at
/// whatever width the compilation target guarantees; it is also the
/// reference the AVX2 path must stay within one margin of.
#[inline]
fn tile_bounds_scalar(p: &[f64], px2: f64, tile: &CenterTile, out: &mut [f64; CENTER_TILE]) -> f64 {
    let mut dot = [0.0f64; CENTER_TILE];
    for (d, &pd) in p.iter().enumerate() {
        let col = &tile.t[d * CENTER_TILE..(d + 1) * CENTER_TILE];
        for (acc, &c) in dot.iter_mut().zip(col) {
            *acc += pd * c;
        }
    }
    for (b, (&acc, &cn)) in out.iter_mut().zip(dot.iter().zip(&tile.norms)) {
        *b = px2 - 2.0 * acc + cn;
    }
    out.iter().fold(f64::INFINITY, |m, &b| m.min(b))
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{CenterTile, CENTER_TILE};
    use std::arch::x86_64::*;

    /// AVX2+FMA bounds pass for two points against one transposed tile,
    /// writing each point's 32 bounds into its `out` row and returning
    /// each point's tile minimum. The tile is swept in two halves of 16
    /// lanes; in each, every 4-lane load of center coordinates feeds one
    /// FMA per point, into 2 × 4 independent accumulators.
    ///
    /// Each bound is the same FMA chain, lane for lane, that a one-point
    /// pass computes. NaN note: `_mm256_min_pd` returns its *second*
    /// operand on a NaN input, so a NaN bound can only *raise* a running
    /// minimum (or leave it NaN), never lower it. The caller only trusts
    /// a tile minimum under a finite cutoff, and a finite cutoff implies
    /// finite `‖x‖² + max ‖c‖²`, under which no bound is NaN.
    ///
    /// # Safety
    /// Caller must have verified AVX2 and FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_bounds_pair(
        p: [&[f64]; 2],
        px2: [f64; 2],
        tile: &CenterTile,
        out: [&mut [f64; CENTER_TILE]; 2],
    ) -> [f64; 2] {
        const LANES: usize = 4;
        const HALF: usize = CENTER_TILE / 2;
        const VECS: usize = HALF / LANES;
        let dim = p[0].len();
        // Every load below reads `t[d·CENTER_TILE + j]` with `d < dim`
        // and `j < CENTER_TILE`.
        assert!(p[1].len() == dim && tile.t.len() == dim * CENTER_TILE);
        let t = tile.t.as_ptr();
        let two = _mm256_set1_pd(2.0);
        let px2v = [_mm256_set1_pd(px2[0]), _mm256_set1_pd(px2[1])];
        let mut minv = [_mm256_set1_pd(f64::INFINITY); 2];
        let [out0, out1] = out;
        for half in 0..2 {
            let mut a0 = [_mm256_setzero_pd(); VECS];
            let mut a1 = [_mm256_setzero_pd(); VECS];
            for (d, (&x0, &x1)) in p[0].iter().zip(p[1]).enumerate() {
                let (x0, x1) = (_mm256_set1_pd(x0), _mm256_set1_pd(x1));
                // SAFETY: `d < dim` and `half·HALF + v·LANES + 3 <
                // CENTER_TILE`, within the length asserted above.
                let col = t.add(d * CENTER_TILE + half * HALF);
                for v in 0..VECS {
                    let c = _mm256_loadu_pd(col.add(v * LANES));
                    a0[v] = _mm256_fmadd_pd(x0, c, a0[v]);
                    a1[v] = _mm256_fmadd_pd(x1, c, a1[v]);
                }
            }
            for v in 0..VECS {
                let lane = half * HALF + v * LANES;
                let cn = _mm256_loadu_pd(tile.norms[lane..lane + LANES].as_ptr());
                // px2 − 2·dot + ‖c‖², with the subtraction fused.
                let b0 = _mm256_add_pd(_mm256_fnmadd_pd(a0[v], two, px2v[0]), cn);
                let b1 = _mm256_add_pd(_mm256_fnmadd_pd(a1[v], two, px2v[1]), cn);
                _mm256_storeu_pd(out0[lane..lane + LANES].as_mut_ptr(), b0);
                _mm256_storeu_pd(out1[lane..lane + LANES].as_mut_ptr(), b1);
                minv[0] = _mm256_min_pd(minv[0], b0);
                minv[1] = _mm256_min_pd(minv[1], b1);
            }
        }
        minv.map(|m| {
            let m = _mm_min_pd(_mm256_castpd256_pd128(m), _mm256_extractf128_pd(m, 1));
            _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)))
        })
    }
}

/// Bounds pass for two points against one tile: the AVX2 kernel when
/// the caller's one-time probe allowed it, else the scalar pass per
/// point.
#[inline]
fn tile_bounds_pair(
    p: [&[f64]; 2],
    px2: [f64; 2],
    tile: &CenterTile,
    out: [&mut [f64; CENTER_TILE]; 2],
    use_simd: bool,
) -> [f64; 2] {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only true when `simd_available()`
        // confirmed AVX2 and FMA at runtime.
        return unsafe { avx::tile_bounds_pair(p, px2, tile, out) };
    }
    let _ = use_simd;
    let [out0, out1] = out;
    [
        tile_bounds_scalar(p[0], px2[0], tile, out0),
        tile_bounds_scalar(p[1], px2[1], tile, out1),
    ]
}

/// Nearest center for every point of a flat row-major block, returning
/// one `(center_index, squared_distance)` per point.
///
/// `point_norms` / `center_norms` are the per-row squared norms of
/// `points` / `centers` (see [`squared_norms`]); callers cache them so
/// repeated sweeps (one per Lloyd iteration) pay for them once. Builds
/// the centers' tiles for this one call; a caller sweeping many blocks
/// against the same centers builds a [`CenterTiles`] once instead.
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
    CenterTiles::new(centers, center_norms, dim).nearest(points, point_norms)
}

/// A center set laid out for the blocked kernel: a copy of its
/// row-major centers for the exact pass, their largest squared norm,
/// and their transposed tiles — everything [`nearest_centers_batch`]
/// derives from the centers alone, built once.
#[derive(Clone, Debug)]
pub struct CenterTiles {
    centers: Vec<f64>,
    dim: usize,
    cn_max: f64,
    /// Empty when a center is non-finite: every block then goes to the
    /// reference scan.
    tiles: Vec<CenterTile>,
}

impl CenterTiles {
    /// Lays out `centers` (row-major, `dim` coordinates each) with their
    /// squared norms `center_norms`.
    ///
    /// # Panics
    /// Panics if `centers` is empty, `dim == 0`, the buffer is ragged,
    /// or `center_norms` disagrees with the row count.
    pub fn new(centers: &[f64], center_norms: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(!centers.is_empty(), "no centers");
        assert_eq!(centers.len() % dim, 0, "ragged center buffer");
        assert_eq!(
            center_norms.len(),
            centers.len() / dim,
            "center norm count mismatch"
        );
        // A non-finite center poisons every decomposition bound
        // involving it, and the naive scan's comparison semantics around
        // NaN are what the bit-identity contract pins — such a set sends
        // every block to the reference scan. (Non-finite *points* are
        // handled per point by the cutoff check.)
        let finite = center_norms.iter().all(|cn| cn.is_finite());
        Self {
            centers: centers.to_vec(),
            dim,
            cn_max: center_norms.iter().cloned().fold(0.0f64, f64::max),
            tiles: if finite {
                transpose_tiles(centers, center_norms, dim)
            } else {
                Vec::new()
            },
        }
    }

    /// [`nearest_centers_batch`] against these centers.
    ///
    /// # Panics
    /// Panics if `points` is ragged or `point_norms` disagrees with its
    /// row count.
    pub fn nearest(&self, points: &[f64], point_norms: &[f64]) -> Vec<(usize, f64)> {
        nearest_batch(points, point_norms, self, true)
    }
}

/// [`CenterTiles::nearest`] with the scalar bounds pass, or the AVX2
/// one where `use_simd` asks for it and [`simd_available`] allows it.
fn nearest_batch(
    points: &[f64],
    point_norms: &[f64],
    set: &CenterTiles,
    use_simd: bool,
) -> Vec<(usize, f64)> {
    let CenterTiles {
        centers,
        dim,
        cn_max,
        tiles,
    } = set;
    let (dim, cn_max, nt) = (*dim, *cn_max, tiles.len());
    assert_eq!(points.len() % dim, 0, "ragged point buffer");
    let n = points.len() / dim;
    assert_eq!(point_norms.len(), n, "point norm count mismatch");
    let scan = |p: &[f64]| {
        crate::distance::nearest_center_flat(p, centers, dim).expect("non-empty centers")
    };
    if tiles.is_empty() {
        return points.chunks_exact(dim).map(scan).collect();
    }

    let use_simd = use_simd && simd_available();
    let mut out = Vec::with_capacity(n);
    // `bounds[ti · POINT_TILE + pi]` holds point `pi`'s bounds against
    // center tile `ti`; `tile_mins[pi · nt + ti]` their minimum.
    let mut bounds = vec![[0.0f64; CENTER_TILE]; nt * POINT_TILE];
    let mut tile_mins = vec![0.0f64; POINT_TILE * nt];
    let mut spare = [0.0f64; CENTER_TILE];

    for (tile_idx, tile) in points.chunks(POINT_TILE * dim).enumerate() {
        let rows = tile.len() / dim;
        let p_base = tile_idx * POINT_TILE;
        let tile_norms = &point_norms[p_base..p_base + rows];

        // Bounds pass: each center tile against the points two at a
        // time; an odd last point is paired with itself.
        for (ti, ct) in tiles.iter().enumerate() {
            let tile_bounds = &mut bounds[ti * POINT_TILE..ti * POINT_TILE + rows];
            for pi in (0..rows).step_by(2) {
                let pj = (pi + 1).min(rows - 1);
                let p = [pi, pj].map(|i| &tile[i * dim..(i + 1) * dim]);
                let px2 = [tile_norms[pi], tile_norms[pj]];
                let (lo, hi) = tile_bounds.split_at_mut(pi + 1);
                let second = if pj > pi { &mut hi[0] } else { &mut spare };
                let mins = tile_bounds_pair(p, px2, ct, [&mut lo[pi], second], use_simd);
                tile_mins[pi * nt + ti] = mins[0];
                tile_mins[pj * nt + ti] = mins[1];
            }
        }

        // Survivor pass: exact recomputation in ascending center order,
        // over the tiles whose minimum bound is within the cutoff.
        for (pi, p) in tile.chunks_exact(dim).enumerate() {
            let mins = &tile_mins[pi * nt..(pi + 1) * nt];
            let min = mins.iter().fold(f64::INFINITY, |m, &b| m.min(b));
            let cutoff = min + bound_margin(dim, tile_norms[pi], cn_max);
            let mut best: Option<(usize, f64)> = None;
            if cutoff.is_finite() {
                for (ti, (ct, &tile_min)) in tiles.iter().zip(mins).enumerate() {
                    // Under a finite cutoff no bound is NaN, so a tile
                    // minimum above it rules out every center of the tile.
                    if tile_min > cutoff {
                        continue;
                    }
                    let row = &bounds[ti * POINT_TILE + pi][..ct.rows];
                    for (j, &b) in (ct.base..).zip(row) {
                        if b <= cutoff {
                            let d = squared_euclidean(p, &centers[j * dim..(j + 1) * dim]);
                            match best {
                                Some((_, bd)) if bd <= d => {}
                                _ => best = Some((j, d)),
                            }
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
    /// true minimum) be skipped, nor the tile that holds it. This is the
    /// catastrophic-cancellation shape — points far from the origin,
    /// centers a hair apart — where `‖x‖² − 2x·c + ‖c‖²` loses almost
    /// all its significant bits.
    #[test]
    fn margin_never_skips_the_true_nearest_under_cancellation() {
        let dim = 8;
        let offset = 1.0e7; // px2 ≈ 8e14: bound error swamps the gap
        for probe in 0..64 {
            let eps = (probe + 1) as f64 * 1.0e-9;
            // Center 0 marginally farther, then the true nearest, in the
            // same tile or the next one, among decoys.
            for decoys in [3, CENTER_TILE + 3] {
                let mut deltas = vec![2.0 * eps];
                deltas.extend((0..decoys).map(|i| 0.5 + i as f64));
                deltas.insert(1 + decoys / CENTER_TILE * (CENTER_TILE - 1), eps);
                let mut centers = Vec::new();
                for delta in deltas {
                    let mut c = vec![offset; dim];
                    c[0] += delta;
                    centers.extend_from_slice(&c);
                }
                passes_match_the_scan(&vec![offset; 2 * dim], &centers, dim);
            }
        }
    }

    /// The gated two-point pass, with the AVX2 bounds where the host has
    /// them and with the scalar bounds, against the per-point scan: the
    /// same index and the same distance bits for every point.
    fn passes_match_the_scan(points: &[f64], centers: &[f64], dim: usize) {
        let want = naive(points, centers, dim);
        let (pn, cn) = (squared_norms(points, dim), squared_norms(centers, dim));
        let set = CenterTiles::new(centers, &cn, dim);
        for simd in [false, simd_available()] {
            let got = nearest_batch(points, &pn, &set, simd);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    (g.0, g.1.to_bits()),
                    (w.0, w.1.to_bits()),
                    "point {i}, simd {simd}"
                );
            }
        }
    }

    /// Tiles built once serve every block, with blocks against sets of
    /// other sizes in between.
    #[test]
    fn tiles_built_once_serve_every_block() {
        let dim = 4;
        let points: Vec<f64> = (0..300 * dim).map(|i| ((i * 37) % 101) as f64).collect();
        let norms = squared_norms(&points, dim);
        let sets: Vec<(Vec<f64>, CenterTiles)> = [100, 3, 257]
            .iter()
            .map(|&k| {
                let centers: Vec<f64> = (0..k * dim).map(|i| ((i * 53) % 97) as f64).collect();
                let tiles = CenterTiles::new(&centers, &squared_norms(&centers, dim), dim);
                (centers, tiles)
            })
            .collect();
        for block in 0..3 {
            let rows = block * 100 * dim..(block + 1) * 100 * dim;
            let (p, pn) = (&points[rows], &norms[block * 100..(block + 1) * 100]);
            for (centers, tiles) in &sets {
                assert_eq!(
                    tiles.nearest(p, pn),
                    naive(p, centers, dim),
                    "block {block}"
                );
            }
        }
    }

    #[test]
    fn odd_and_even_point_counts_at_every_tile_edge() {
        let dim = 3;
        for k in [1, 31, 32, 33, 100, 257] {
            for n in [1, 2, 3, POINT_TILE - 1, POINT_TILE, POINT_TILE + 1] {
                let points: Vec<f64> = (0..n * dim).map(|i| ((i * 37) % 101) as f64).collect();
                let centers: Vec<f64> = (0..k * dim).map(|i| ((i * 53) % 97) as f64).collect();
                passes_match_the_scan(&points, &centers, dim);
            }
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

        /// Odd and even point counts, k across the tile edges, coarse
        /// grids with exact ties and near-ties a few ulps apart, far from
        /// the origin or near it, and a NaN or infinite coordinate in a
        /// point or a center.
        #[test]
        fn gated_pair_pass_matches_the_scalar_pass_and_the_scan(
            shape in (1usize..12, 1usize..140, 0usize..6),
            grid in (0u64..5, 0usize..3, 0usize..5),
            seed: u64,
        ) {
            let (dim, n, k) = (shape.0, shape.1, [1, 31, 32, 33, 100, 257][shape.2]);
            let (levels, offset, poison) = (grid.0, [0.0, 1.0e3, 1.0e7][grid.1], grid.2);
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 11
            };
            // `levels == 0`: continuous values; otherwise a grid of
            // `levels + 1` values per axis, points at midpoints nudged
            // by a few ulps.
            let mut coord = |point: bool| {
                let r = next();
                let v = if levels == 0 {
                    (r % 2_000_000) as f64 / 1e4 - 100.0
                } else {
                    let mid = if point { 0.5 } else { 0.0 };
                    let g = (r % (levels + 1)) as f64 + mid;
                    f64::from_bits(g.to_bits() + (r >> 40) % 3)
                };
                v + offset
            };
            let mut points: Vec<f64> = (0..n * dim).map(|_| coord(true)).collect();
            let mut centers: Vec<f64> = (0..k * dim).map(|_| coord(false)).collect();
            let (p, c) = (seed as usize % points.len(), seed as usize % centers.len());
            match poison {
                1 => points[p] = f64::NAN,
                2 => points[p] = f64::NEG_INFINITY,
                3 => centers[c] = f64::NAN,
                4 => centers[c] = f64::INFINITY,
                _ => {}
            }
            passes_match_the_scan(&points, &centers, dim);
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
