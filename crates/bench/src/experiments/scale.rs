//! Out-of-core scale sweep (`BENCH_scale.json`): 10⁸–10⁹-point
//! workloads under a capped heap, spill-merge vs fully in-memory.
//!
//! The paper's Table 1 datasets hold 10M points; this sweep asks what
//! happens at 100×–1000× that — datasets that dwarf any per-task heap.
//! What governs the out-of-core machinery is not the absolute point
//! count but the **dataset-to-heap ratio**: how many times the shuffle
//! must cycle its sort buffer through spill runs, and how many merge
//! passes the fan-in forces. So each row shrinks the dataset *and* the
//! per-task heap by the same factor, preserving the exact ratio a
//! 100×/320×/1000×-paper dataset would face against the engine's
//! standard 1 GiB task heap. Row `m` runs `points·m/100` real points
//! under a heap of `points·2³⁰/(m·10M)` bytes — at the default scale
//! the 1000× row pushes one million real points through a ~105 KiB
//! heap, a 1600:1 dataset:heap ratio, same as 1.6 TB against 1 GiB.
//!
//! Each row runs k-means twice on bit-identical input: once spilling
//! (capped heap, compressed spill runs, block-compressed DFS) and once
//! fully buffered (uncapped, plain DFS). The centers must match bit
//! for bit — out-of-core execution is an implementation detail — and
//! the row records what the spill path paid: spill volume, merge
//! passes, codec traffic, DFS compression ratio, and the simulated
//! slowdown vs in-memory.

use std::sync::Arc;

use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::cluster::{ClusterConfig, OutOfCoreConfig};
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::runtime::JobRunner;

use crate::harness::{render_table, ExperimentScale};

/// Points in one paper dataset (Table 1).
const PAPER_POINTS: f64 = 10_000_000.0;

/// The engine's standard per-task heap the full-size scenario is
/// measured against (the [`ClusterConfig`] default).
const FULL_HEAP: f64 = (1u64 << 30) as f64;

/// Paper-size multiples swept (100× = 10⁹ points at full size).
pub const MULTIPLES: [usize; 3] = [100, 320, 1000];

/// Smallest heap cap a row may use. Below this the fixed per-task
/// residents (sort buffer, merge block buffers, reducer state) no
/// longer fit and tasks genuinely die of heap exhaustion — the sweep
/// measures out-of-core execution, not unrecoverable configurations.
const HEAP_FLOOR: u64 = 64 * 1024;

/// One sweep row.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Paper-size multiple this row models (100 = 10⁹ points).
    pub paper_multiple: usize,
    /// Real points processed.
    pub points: usize,
    /// Raw dataset bytes.
    pub dataset_bytes: u64,
    /// Physical bytes after DFS block compression.
    pub stored_bytes: u64,
    /// Per-task heap cap of the spilling run.
    pub heap_cap: u64,
    /// Spill events.
    pub spills: u64,
    /// Raw bytes written to spill and intermediate merge runs.
    pub spill_bytes: u64,
    /// Multi-pass merges forced by the fan-in bound.
    pub merge_passes: u64,
    /// Raw bytes pushed through the spill codec (compress side).
    pub bytes_compressed: u64,
    /// Raw bytes pulled back through the codec (decompress side).
    pub bytes_decompressed: u64,
    /// Simulated makespan of the spilling run.
    pub spill_secs: f64,
    /// Simulated makespan of the uncapped in-memory run.
    pub memory_secs: f64,
    /// `spill_secs / memory_secs`.
    pub slowdown: f64,
    /// Points per simulated second, spilling.
    pub throughput: f64,
    /// `dataset_bytes / stored_bytes` on the compressed DFS.
    pub dfs_ratio: f64,
}

/// The sweep report.
#[derive(Debug)]
pub struct ScaleBench {
    /// One row per paper-size multiple.
    pub rows: Vec<ScaleRow>,
    /// Worst spilling-vs-memory slowdown across the sweep.
    pub max_slowdown: f64,
}

impl ScaleBench {
    /// Serializes the report as a small JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"experiment\": \"scale\",\n");
        s.push_str(&format!("  \"max_slowdown\": {:.4},\n", self.max_slowdown));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"paper_multiple\": {}, \"points\": {}, \
                 \"dataset_bytes\": {}, \"stored_bytes\": {}, \
                 \"heap_cap\": {}, \"spills\": {}, \"spill_bytes\": {}, \
                 \"merge_passes\": {}, \"bytes_compressed\": {}, \
                 \"bytes_decompressed\": {}, \"spill_secs\": {:.3}, \
                 \"memory_secs\": {:.3}, \"slowdown\": {:.4}, \
                 \"throughput_pts_per_sec\": {:.1}, \
                 \"dfs_compression_ratio\": {:.4}}}{}\n",
                r.paper_multiple,
                r.points,
                r.dataset_bytes,
                r.stored_bytes,
                r.heap_cap,
                r.spills,
                r.spill_bytes,
                r.merge_passes,
                r.bytes_compressed,
                r.bytes_decompressed,
                r.spill_secs,
                r.memory_secs,
                r.slowdown,
                r.throughput,
                r.dfs_ratio,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// FNV-1a over center coordinates, for the bit-identity assertion.
fn center_bits(r: &gmeans::mr::MRKMeansResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in r.centers.rows() {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    h
}

/// Runs k-means on a freshly staged DFS and returns the result plus
/// the DFS stats of the run.
fn run_kmeans(
    spec: &GaussianMixture,
    compress_dfs: bool,
    cluster: ClusterConfig,
    k: usize,
    seed: u64,
) -> (gmeans::mr::MRKMeansResult, u64, u64) {
    let dfs = Arc::new(Dfs::with_compression(256 * 1024, compress_dfs));
    spec.generate_to_dfs(&dfs, "points.txt")
        .expect("dataset generation");
    let raw = dfs.len("points.txt").expect("staged");
    let stored = dfs.stored_len("points.txt").expect("staged");
    let runner = JobRunner::new(dfs, cluster).expect("valid cluster");
    let r = MRKMeans::new(runner, k, 3, seed)
        .run("points.txt")
        .expect("k-means run");
    assert!(
        r.failure.is_none(),
        "k-means degraded instead of spilling: {:?}",
        r.failure
    );
    (r, raw, stored)
}

/// Runs the sweep.
pub fn run(scale: &ExperimentScale) -> ScaleBench {
    let mut rows = Vec::new();
    for &multiple in &MULTIPLES {
        // The 100× row runs at the base scale; larger multiples grow
        // the real dataset proportionally so the spill machinery sees
        // genuinely more data, not just a smaller heap.
        let points = scale.points * multiple / MULTIPLES[0];
        let k = scale.k(100).min(points / 50).max(2);
        let spec = GaussianMixture::paper_r10(points, k, scale.seed ^ 0x5ca1e);

        // Preserve the full-size dataset:heap ratio — a `multiple`×
        // paper dataset against the standard 1 GiB task heap.
        let ratio = multiple as f64 * PAPER_POINTS / points as f64;
        let heap_cap = ((FULL_HEAP / ratio) as u64).max(HEAP_FLOOR);
        let ooc = OutOfCoreConfig::enabled()
            .with_sort_buffer((heap_cap / 8).max(4096))
            .with_merge_fan_in(8)
            .with_block_bytes(4 * 1024);
        let capped = ClusterConfig {
            heap_per_task: heap_cap,
            ..ClusterConfig::default().with_out_of_core(ooc)
        };

        let (spilled, raw, stored) = run_kmeans(&spec, true, capped, k, scale.seed);
        let (buffered, _, _) = run_kmeans(&spec, false, ClusterConfig::default(), k, scale.seed);
        assert_eq!(
            center_bits(&spilled),
            center_bits(&buffered),
            "{multiple}x: spill-merge centers diverged from in-memory"
        );
        assert_eq!(
            spilled.counts, buffered.counts,
            "{multiple}x: counts diverged"
        );

        let (spill_secs, memory_secs) = (spilled.simulated_secs, buffered.simulated_secs);
        rows.push(ScaleRow {
            paper_multiple: multiple,
            points,
            dataset_bytes: raw,
            stored_bytes: stored,
            heap_cap,
            spills: spilled.counters.get(Counter::ShuffleSpills),
            spill_bytes: spilled.counters.get(Counter::ShuffleSpillBytes),
            merge_passes: spilled.counters.get(Counter::ShuffleMergePasses),
            bytes_compressed: spilled.counters.get(Counter::BytesCompressed),
            bytes_decompressed: spilled.counters.get(Counter::BytesDecompressed),
            spill_secs,
            memory_secs,
            slowdown: spill_secs / memory_secs,
            throughput: points as f64 / spill_secs,
            dfs_ratio: raw as f64 / stored as f64,
        });
    }
    let max_slowdown = rows.iter().map(|r| r.slowdown).fold(0.0, f64::max);
    ScaleBench { rows, max_slowdown }
}

/// Panics unless spilling stayed within `budget`× of the in-memory
/// makespan everywhere and every row actually spilled — the CI smoke
/// guard (`repro scale --quick`).
pub fn assert_within_budget(b: &ScaleBench, budget: f64) {
    for r in &b.rows {
        assert!(
            r.spills > 0,
            "{}x: a capped heap this small must spill",
            r.paper_multiple
        );
        assert!(
            r.slowdown <= budget,
            "{}x: spilling ran {:.2}x slower than in-memory (budget {budget}x)",
            r.paper_multiple,
            r.slowdown
        );
    }
}

/// Renders the report.
pub fn render(b: &ScaleBench) -> String {
    let rows: Vec<Vec<String>> = b
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x", r.paper_multiple),
                r.points.to_string(),
                format!("{:.1}", r.dataset_bytes as f64 / 1024.0 / 1024.0),
                format!("{}", r.heap_cap / 1024),
                r.spills.to_string(),
                format!("{:.1}", r.spill_bytes as f64 / 1024.0 / 1024.0),
                r.merge_passes.to_string(),
                format!("{:.2}", r.dfs_ratio),
                format!("{:.0}", r.spill_secs),
                format!("{:.0}", r.memory_secs),
                format!("{:.2}", r.slowdown),
            ]
        })
        .collect();
    let mut out = render_table(
        "Out-of-core scale sweep: spill-merge under paper-ratio heap caps",
        &[
            "paper",
            "points",
            "MiB",
            "heap KiB",
            "spills",
            "spilled MiB",
            "merges",
            "dfs ratio",
            "spill s",
            "mem s",
            "slow",
        ],
        &rows,
    );
    out.push_str(&format!(
        "all rows bit-identical to in-memory; worst slowdown {:.2}x\n",
        b.max_slowdown
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick sweep, run once for all of this module's tests: it is
    /// deterministic, so every test reads the rows a run of its own
    /// would produce.
    fn quick_sweep() -> &'static ScaleBench {
        static SWEEP: OnceLock<ScaleBench> = OnceLock::new();
        SWEEP.get_or_init(|| run(&ExperimentScale::quick()))
    }

    #[test]
    fn bench_meets_the_acceptance_floor() {
        let b = quick_sweep();
        assert_eq!(b.rows.len(), MULTIPLES.len());
        for r in &b.rows {
            assert!(r.spills > 0, "{}x row did not spill", r.paper_multiple);
            assert!(
                r.merge_passes > 0,
                "{}x row never hit the merge fan-in",
                r.paper_multiple
            );
            assert!(
                r.bytes_compressed > 0 && r.bytes_decompressed > 0,
                "{}x row skipped the spill codec",
                r.paper_multiple
            );
            assert!(
                r.dfs_ratio > 1.0,
                "{}x: DFS block compression did not shrink the dataset",
                r.paper_multiple
            );
        }
        // Rows grow tenfold in real data; spill volume must follow.
        assert!(b.rows[2].spill_bytes > b.rows[0].spill_bytes);
        // The CI smoke guard itself.
        assert_within_budget(b, 1.3);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let b = quick_sweep();
        let j = b.to_json();
        assert!(j.contains("\"experiment\": \"scale\""));
        assert!(j.contains("\"max_slowdown\""));
        assert_eq!(j.matches("\"paper_multiple\":").count(), b.rows.len());
    }
}
