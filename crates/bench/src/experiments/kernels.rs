//! Nearest-center kernel benchmark: a d × k sweep of every backend.
//!
//! This is the PR-over-PR perf trajectory for the hot path the paper's
//! §4 cost model counts. Where earlier revisions measured one cell
//! (d = 2, k = 128), this one sweeps d ∈ {2, 8, 32, 128} ×
//! k ∈ {128, 512, 4096} so the auto-dispatch policy in
//! [`KernelBackend::resolve`] is tuned from — and guarded by — the same
//! grid it routes on. Per cell the sweep measures:
//!
//! * `naive` — the scalar flat scan (the paper's cost-model unit),
//! * `blocked` — the SIMD bounds-then-exact tile kernel,
//! * `kd` — the opt-in k-d index (charges *actual* evaluations),
//! * `default` — [`KernelBackend::Auto`], i.e. exactly what every
//!   distance-heavy mapper gets from `EngineCtx::prepare`; the cell
//!   records which concrete backend the policy picked.
//!
//! Every backend must produce *identical* assignments; each cell proves
//! it by running a short Lloyd refinement per backend and requiring
//! bit-identical final centers, then measures assignment throughput
//! (points/sec), charged distance evaluations, and the wall time of one
//! sweep: the best, the median and the interquartile range over at
//! least five sweeps and 100 ms of measured time. The sweep is rendered
//! as a table and serialized to `BENCH_kernels.json` by the `repro`
//! binary so the trajectory accumulates across PRs.

use std::time::Instant;

use gmeans::mr::{CenterSet, KernelBackend};
use gmr_datagen::{ClusterWeights, GaussianMixture};
use gmr_linalg::{nearest_center_flat, squared_norms, Dataset};

use crate::harness::{render_table, ExperimentScale};

/// The sweep grid: every (dim, k) cell measured by `repro kernels`.
pub const CELLS: [(usize, usize); 12] = [
    (2, 128),
    (2, 512),
    (2, 4096),
    (8, 128),
    (8, 512),
    (8, 4096),
    (32, 128),
    (32, 512),
    (32, 4096),
    (128, 128),
    (128, 512),
    (128, 4096),
];

/// Points handed to `nearest_block` per call, mirroring the runtime's
/// map-phase block size.
const BLOCK_POINTS: usize = 256;
/// Fewest timed sweeps per backend and cell.
const MIN_SWEEPS: usize = 5;
/// Least total measured time per backend and cell: a fast backend keeps
/// sweeping past [`MIN_SWEEPS`] until its timed sweeps add up to this,
/// so no row rests on a sub-millisecond window or two.
const MIN_MEASURED_SECS: f64 = 0.1;

/// One measured backend within a cell.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Backend label.
    pub name: &'static str,
    /// Assignment throughput over the cell's dataset, at the best sweep.
    pub points_per_sec: f64,
    /// Distance evaluations charged for one full sweep.
    pub distance_evals: u64,
    /// Wall time of the best (fastest) sweep, in seconds.
    pub wall_secs: f64,
    /// Median sweep wall time, in seconds.
    pub median_wall_secs: f64,
    /// Interquartile range (third minus first quartile) of the sweep
    /// wall times, in seconds.
    pub iqr_wall_secs: f64,
    /// Timed sweeps behind the three wall figures.
    pub sweeps: usize,
}

/// One (dim, k) cell of the sweep.
#[derive(Clone, Debug)]
pub struct KernelCell {
    /// Dimensionality of the cell's workload.
    pub dim: usize,
    /// Centers in the cell's workload.
    pub k: usize,
    /// Points in the cell's workload.
    pub points: usize,
    /// The concrete backend [`KernelBackend::Auto`] resolved to here.
    pub auto_backend: &'static str,
    /// One row per backend, naive first.
    pub rows: Vec<KernelRow>,
    /// Whether all backends produced bit-identical final Lloyd centers.
    pub identical_centers: bool,
}

impl KernelCell {
    /// Speedup of the named backend over the naive scan (points/sec).
    pub fn speedup(&self, name: &str) -> f64 {
        let naive = self.rows[0].points_per_sec;
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.points_per_sec / naive)
    }
}

/// The benchmark report: the whole d × k sweep.
#[derive(Clone, Debug)]
pub struct KernelBench {
    /// One entry per measured (dim, k) cell.
    pub cells: Vec<KernelCell>,
    /// Whether *every* cell's backends ended bit-identically.
    pub identical_centers: bool,
}

impl KernelBench {
    /// The cell measured at `(dim, k)`, if the sweep ran it.
    pub fn cell(&self, dim: usize, k: usize) -> Option<&KernelCell> {
        self.cells.iter().find(|c| c.dim == dim && c.k == k)
    }

    /// Serializes the report as a small JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"experiment\": \"kernels\",\n");
        s.push_str(&format!(
            "  \"identical_final_centers\": {},\n",
            self.identical_centers
        ));
        s.push_str("  \"cells\": [\n");
        for (ci, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"dim\": {}, \"k\": {}, \"points\": {}, \"auto_backend\": \"{}\", \
                 \"identical_final_centers\": {},\n",
                c.dim, c.k, c.points, c.auto_backend, c.identical_centers
            ));
            s.push_str("     \"backends\": [\n");
            for (i, r) in c.rows.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"name\": \"{}\", \"points_per_sec\": {:.1}, \"distance_evals\": {}, \
                     \"wall_secs\": {:.6}, \"median_wall_secs\": {:.6}, \"iqr_wall_secs\": {:.6}, \
                     \"sweeps\": {}, \"speedup_vs_naive\": {:.3}}}{}\n",
                    r.name,
                    r.points_per_sec,
                    r.distance_evals,
                    r.wall_secs,
                    r.median_wall_secs,
                    r.iqr_wall_secs,
                    r.sweeps,
                    r.points_per_sec / c.rows[0].points_per_sec,
                    if i + 1 < c.rows.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "     ]}}{}\n",
                if ci + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// A backend under test: the naive scalar scan, or a [`CenterSet`]
/// (with some kernel attached) queried through the engine's block path
/// in [`BLOCK_POINTS`]-sized chunks.
enum Backend {
    Naive(CenterSet),
    Block(CenterSet),
}

/// Builds a [`Backend`] around a fresh copy of the centers.
type BackendFactory = fn(CenterSet) -> Backend;

/// The four measured backends, naive first.
fn backends() -> [(&'static str, BackendFactory); 4] {
    [
        ("naive", Backend::Naive),
        ("blocked", |s| {
            Backend::Block(s.with_backend(KernelBackend::Blocked))
        }),
        ("kd", |s| Backend::Block(s.with_kd_index())),
        ("default", |s| {
            Backend::Block(s.with_backend(KernelBackend::Auto))
        }),
    ]
}

/// One assignment sweep of a backend: fills `assign` and returns the
/// distance evaluations charged.
fn sweep(backend: &Backend, data: &Dataset, norms: &[f64], assign: &mut Vec<usize>) -> u64 {
    assign.clear();
    let dim = data.dim();
    match backend {
        Backend::Naive(set) => {
            let flat = set.to_dataset();
            let centers = flat.flat();
            for p in data.rows() {
                let (idx, _) = nearest_center_flat(p, centers, dim).expect("non-empty centers");
                assign.push(idx);
            }
            (data.len() * set.len()) as u64
        }
        Backend::Block(set) => {
            let mut evals = 0u64;
            let flat = data.flat();
            for (bi, block) in flat.chunks(BLOCK_POINTS * dim).enumerate() {
                let base = bi * BLOCK_POINTS;
                let rows = block.len() / dim;
                for (idx, _, _, e) in set.nearest_block(block, &norms[base..base + rows]) {
                    assign.push(idx);
                    evals += e;
                }
            }
            evals
        }
    }
}

/// Deterministic spread-out init: stride through the dataset (wrapping
/// when `k` exceeds the cell's point count, which deliberately creates
/// duplicate centers — a tie case every backend must break identically).
/// The stride is forced odd so it is coprime to the generator's
/// power-of-two round-robin cluster count — an even stride can alias
/// onto a fraction of the clusters, leaving most queries far from every
/// center, which benchmarks an aliasing artifact rather than the
/// clustered workload the engine actually runs.
fn centers_from(data: &Dataset, k: usize) -> CenterSet {
    let stride = (data.len() / k).max(1) | 1;
    let mut set = CenterSet::new(data.dim());
    for i in 0..k {
        set.push(i as i64, data.row((i * stride) % data.len()));
    }
    set
}

/// Runs a short Lloyd refinement with the backend's assignments and
/// returns the final flat center buffer (for the bit-identity check).
fn lloyd(
    backend_of: impl Fn(CenterSet) -> Backend,
    data: &Dataset,
    norms: &[f64],
    k: usize,
    iters: usize,
) -> Vec<f64> {
    let dim = data.dim();
    let mut set = centers_from(data, k);
    let mut assign = Vec::with_capacity(data.len());
    for _ in 0..iters {
        let backend = backend_of(set.clone());
        sweep(&backend, data, norms, &mut assign);
        let mut sums = vec![0.0f64; k * dim];
        let mut counts = vec![0u64; k];
        for (p, &a) in data.rows().zip(&assign) {
            counts[a] += 1;
            for (s, x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(p) {
                *s += x;
            }
        }
        let mut next = CenterSet::new(dim);
        for j in 0..k {
            if counts[j] > 0 {
                let inv = 1.0 / counts[j] as f64;
                let mean: Vec<f64> = sums[j * dim..(j + 1) * dim]
                    .iter()
                    .map(|s| s * inv)
                    .collect();
                next.push(j as i64, &mean);
            } else {
                next.push(j as i64, set.coords(j));
            }
        }
        set = next;
    }
    set.to_dataset().flat().to_vec()
}

/// Points for one cell: sized so a single naive sweep stays near a
/// constant ~25.6M multiply-adds (`n·k·d`), floored so tiny cells still
/// measure something and capped by the configured scale. At the default
/// scale this makes the d=2, k=128 cell exactly the 100k-point workload
/// earlier single-cell revisions of this benchmark measured, so its
/// trajectory stays comparable.
fn cell_points(scale: &ExperimentScale, dim: usize, k: usize) -> usize {
    (scale.points * 256 / (k * dim))
        .max(256)
        .min(scale.points.max(256))
}

/// Measures one (dim, k) cell.
fn run_cell(scale: &ExperimentScale, dim: usize, k: usize) -> KernelCell {
    let n = cell_points(scale, dim, k);
    let spec = GaussianMixture {
        n_points: n,
        dim,
        n_clusters: k.min(128).min(n / 4).max(2),
        box_min: 0.0,
        box_max: 1000.0,
        stddev: 4.0,
        min_separation_sigmas: 3.0,
        // The same seed every cell (the spec's dim/cluster shape already
        // varies the draw) keeps the d=2, k=128 cell's dataset identical
        // to the prior single-cell benchmark's.
        seed: scale.seed ^ 0x6b65,
        weights: ClusterWeights::Balanced,
    };
    let data = spec.generate().expect("dataset generation").points;
    let norms = squared_norms(data.flat(), data.dim());
    let base = centers_from(&data, k);
    let auto_backend = base
        .clone()
        .with_backend(KernelBackend::Auto)
        .kernel()
        .unwrap_or("scan");

    let backends = backends();
    let work = n * k * dim;

    // Identity: every backend's short Lloyd run ends bit-identically
    // (fewer iterations on the heaviest cells — the tie/merge structure
    // shows up in the very first assignment pass).
    let iters = if work > 64_000_000 { 2 } else { 3 };
    let finals: Vec<Vec<f64>> = backends
        .iter()
        .map(|(_, mk)| lloyd(mk, &data, &norms, k, iters))
        .collect();
    let identical_centers = finals.iter().all(|f| {
        f.len() == finals[0].len()
            && f.iter()
                .zip(&finals[0])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });

    // Throughput: the best sweep is the least noisy estimate of the
    // kernel's cost on a shared machine; the median and IQR say how far
    // to trust it. Rounds interleave the backends, so a slow spell of
    // the machine lands on all of them rather than on whichever one
    // happened to run during it.
    let built: Vec<Backend> = backends.iter().map(|(_, mk)| mk(base.clone())).collect();
    let mut assign = Vec::with_capacity(data.len());
    // Warm-up (also the eval count; identical across sweeps).
    let evals: Vec<u64> = built
        .iter()
        .map(|b| sweep(b, &data, &norms, &mut assign))
        .collect();
    let enough = |t: &[f64]| t.len() >= MIN_SWEEPS && t.iter().sum::<f64>() >= MIN_MEASURED_SECS;
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); built.len()];
    while !times.iter().all(|t| enough(t)) {
        for (backend, t) in built.iter().zip(&mut times) {
            if !enough(t) {
                let start = Instant::now();
                sweep(backend, &data, &norms, &mut assign);
                t.push(start.elapsed().as_secs_f64());
            }
        }
    }
    let rows = backends
        .iter()
        .zip(evals)
        .zip(&mut times)
        .map(|(((name, _), distance_evals), t)| {
            t.sort_by(f64::total_cmp);
            KernelRow {
                name,
                points_per_sec: data.len() as f64 / t[0],
                distance_evals,
                wall_secs: t[0],
                median_wall_secs: quantile(t, 0.5),
                iqr_wall_secs: quantile(t, 0.75) - quantile(t, 0.25),
                sweeps: t.len(),
            }
        })
        .collect();

    KernelCell {
        dim,
        k,
        points: n,
        auto_backend,
        rows,
        identical_centers,
    }
}

/// The `q`-quantile of ascending `sorted` samples, interpolating
/// linearly between the two nearest ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs an explicit subset of cells (test hook; `run` sweeps
/// [`CELLS`]).
pub fn run_cells(scale: &ExperimentScale, cells: &[(usize, usize)]) -> KernelBench {
    let cells: Vec<KernelCell> = cells
        .iter()
        .map(|&(dim, k)| run_cell(scale, dim, k))
        .collect();
    let identical_centers = cells.iter().all(|c| c.identical_centers);
    KernelBench {
        cells,
        identical_centers,
    }
}

/// Runs the full d × k sweep.
pub fn run(scale: &ExperimentScale) -> KernelBench {
    run_cells(scale, &CELLS)
}

/// Renders the report.
pub fn render(b: &KernelBench) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for c in &b.cells {
        for (i, r) in c.rows.iter().enumerate() {
            let head = if i == 0 {
                (
                    c.dim.to_string(),
                    c.k.to_string(),
                    c.points.to_string(),
                    c.auto_backend.to_string(),
                )
            } else {
                (String::new(), String::new(), String::new(), String::new())
            };
            rows.push(vec![
                head.0,
                head.1,
                head.2,
                head.3,
                r.name.to_string(),
                format!("{:.0}", r.points_per_sec),
                format!("{:.2}x", r.points_per_sec / c.rows[0].points_per_sec),
                r.distance_evals.to_string(),
                format!("{:.3}", r.wall_secs * 1e3),
                format!("{:.3}", r.median_wall_secs * 1e3),
                format!("{:.3}", r.iqr_wall_secs * 1e3),
            ]);
        }
    }
    let mut out = render_table(
        "Nearest-center kernels — d × k sweep",
        &[
            "d",
            "k",
            "points",
            "auto",
            "backend",
            "points/sec",
            "speedup",
            "distance evals",
            "best ms",
            "median ms",
            "IQR ms",
        ],
        &rows,
    );
    out.push_str(&format!(
        "final Lloyd centers identical across backends in every cell: {}\n",
        b.identical_centers
    ));
    out
}

/// Regression guard over the sweep: the engine's *default* path (auto
/// dispatch) must never run slower than the naive scan it replaces, in
/// any cell — and must actually pay off (≥ 2×) in the sweet spot the
/// issue pins (d = 8, k = 512). Allows a small timing-noise slack for
/// shared machines, and only measures optimized builds — unoptimized
/// timing says nothing about the shipped kernel. The CI release smoke
/// run (`repro kernels --quick`) enforces it on every push.
///
/// # Panics
/// Panics when `default` falls below 90% of naive throughput in any
/// measured cell, or below 2× naive at d = 8, k = 512 (when that cell
/// was measured) in an optimized build.
pub fn assert_no_regression(b: &KernelBench) {
    if cfg!(debug_assertions) {
        return;
    }
    for c in &b.cells {
        let s = c.speedup("default");
        assert!(
            s >= 0.9,
            "default backend regressed below naive at d={}, k={}: {:.2}x",
            c.dim,
            c.k,
            s
        );
    }
    if let Some(c) = b.cell(8, 512) {
        let s = c.speedup("default");
        assert!(
            s >= 2.0,
            "default backend below 2x naive at d=8, k=512: {:.2}x",
            s
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap debug-mode cells: one where auto resolves to each concrete
    /// backend (per [`KernelBackend::resolve`]).
    const TEST_CELLS: [(usize, usize); 2] = [(2, 48), (32, 48)];

    fn expected_auto(dim: usize, k: usize) -> &'static str {
        match KernelBackend::Auto.resolve(dim, k) {
            KernelBackend::Kd => "kd",
            _ => "blocked",
        }
    }

    #[test]
    fn backends_agree_and_speed_paths_charge_scan_cost() {
        let b = run_cells(&ExperimentScale::quick(), &TEST_CELLS);
        assert!(b.identical_centers, "backends diverged");
        assert_eq!(b.cells.len(), 2);
        for c in &b.cells {
            assert_eq!(c.rows.len(), 4);
            assert_eq!(c.auto_backend, expected_auto(c.dim, c.k));
            let naive = &c.rows[0];
            assert_eq!(naive.name, "naive");
            for r in &c.rows {
                assert!(r.sweeps >= MIN_SWEEPS, "{}", r.name);
                assert!(r.wall_secs <= r.median_wall_secs && r.iqr_wall_secs >= 0.0);
            }
            assert_eq!(naive.distance_evals, (c.points * c.k) as u64);
            // Speed backends charge exactly the naive count (the
            // determinism/cost contract); the opt-in index charges its
            // actual (smaller) count.
            for speed in ["blocked", "default"] {
                let r = c.rows.iter().find(|r| r.name == speed).unwrap();
                assert_eq!(r.distance_evals, naive.distance_evals, "{speed}");
            }
            let kd = c.rows.iter().find(|r| r.name == "kd").unwrap();
            assert!(kd.distance_evals < naive.distance_evals);
        }
        assert_no_regression(&b);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let b = run_cells(&ExperimentScale::quick(), &[(2, 48)]);
        let j = b.to_json();
        assert!(j.contains("\"experiment\": \"kernels\""));
        assert!(j.contains("\"cells\""));
        assert!(j.contains("\"auto_backend\""));
        assert_eq!(j.matches("points_per_sec").count(), 4);
    }
}
