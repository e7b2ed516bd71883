//! Per-layer metrics: exact counts from a run's public counters, and
//! unit costs from probes that time the benchmark's own calls into each
//! layer's public functions on the workload's data.
//!
//! A layer's busy time is the probe's unit cost times the run's exact
//! count: a computed figure, not a span measured inside the run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gmeans::mr::kmeans_job::{fold_point_sums, PointSum};
use gmeans::mr::{CenterSet, KMeansJob, KernelBackend, MultiKMeansJob};
use gmr_linalg::Dataset;
use gmr_mapreduce::cache::{CachedSplit, PointCache};
use gmr_mapreduce::checkpoint::RunJournal;
use gmr_mapreduce::cost::CostModel;
use gmr_mapreduce::counters::{Counter, Counters};
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::job::Job;
use gmr_mapreduce::shuffle::{encode_segment, sort_and_combine, MergeIter, Segment};
use gmr_mapreduce::spill::{RunCursor, RunWriter, SpillDir};
use gmr_stats::AndersonDarling;

use crate::workload::{load_points, Outcome, Staged, Workload, INPUT, SPILL_BLOCK_BYTES};

/// Each probe repeats its call at least this many times and reports the
/// median unit cost.
const PROBE_REPS: usize = 3;

/// Each probe also repeats until this many seconds have passed.
const PROBE_MIN_SECS: f64 = 0.05;

/// Points a kernel, shuffle or spill probe runs on at most, so that the
/// traced run stays short on multi-k's 71 center sets.
const PROBE_POINTS: usize = 20_000;

/// Spans of the traced run, kept in memory and printed when the
/// benchmark ends: each is the benchmark's own call into a layer, timed
/// from the benchmark's side.
pub struct Trace {
    origin: Instant,
    /// Name, start and end of each span, in seconds since the trace
    /// began, in the order the spans ended.
    pub spans: Vec<(String, f64, f64)>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns `f`'s value and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let value = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push((name.to_string(), start, end));
        (value, end - start)
    }
}

/// Median per-unit cost in nanoseconds of `call`, which does `units`
/// units of work per invocation.
fn unit_cost_ns(units: f64, mut call: impl FnMut()) -> f64 {
    let mut costs = Vec::new();
    let started = Instant::now();
    while costs.len() < PROBE_REPS || started.elapsed().as_secs_f64() < PROBE_MIN_SECS {
        let t = Instant::now();
        call();
        costs.push(t.elapsed().as_secs_f64() * 1e9 / units);
    }
    crate::stats::median(&costs)
}

/// Unit costs the probes measured, in nanoseconds; zero for a layer
/// the workload does not run.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    /// Parsing staged text into points, per text byte.
    pub parse_ns_per_byte: f64,
    /// One point-to-center distance evaluation, by the workload's kernel.
    pub kernel_ns_per_eval: f64,
    /// Sort, combine, encode and merge, per map output record.
    pub shuffle_ns_per_record: f64,
    /// The same, per encoded (shuffled) byte.
    pub shuffle_ns_per_byte: f64,
    /// Writing a spill run and reading it back, per raw byte.
    pub spill_ns_per_byte: f64,
    /// Stored-to-raw size of the probed spill run.
    pub spill_stored_ratio: f64,
    /// Anderson–Darling test, per projected value.
    pub ad_ns_per_projection: f64,
    /// One checkpoint commit.
    pub checkpoint_ns_per_commit: f64,
    /// The same, per stored checkpoint byte.
    pub checkpoint_ns_per_byte: f64,
}

/// Runs every probe that applies to `w`, each inside its own span.
pub fn probe(
    w: Workload,
    staged: &Staged,
    cache: &PointCache,
    out: &Outcome,
    trace: &mut Trace,
) -> Result<UnitCosts, String> {
    let mut costs = UnitCosts::default();
    let text_bytes = staged.dfs.len(INPUT).map_err(|e| e.to_string())? as f64;
    let mut parse_err = None;
    trace.span("parse: PointCache::build", || {
        costs.parse_ns_per_byte = unit_cost_ns(text_bytes, || {
            if let Err(e) = load_points(staged) {
                parse_err = Some(e);
            }
        });
    });
    if let Some(e) = parse_err {
        return Err(e);
    }
    let sets = center_sets(w, out);
    let splits = head_splits(cache, PROBE_POINTS);
    trace.span("kernel", || {
        costs.kernel_ns_per_eval = kernel_probe(w, &sets, &splits)
    });
    trace.span(
        "shuffle: sort_and_combine + encode_segment + MergeIter",
        || {
            (costs.shuffle_ns_per_record, costs.shuffle_ns_per_byte) =
                if w == Workload::MultikCached {
                    let job = MultiKMeansJob::new(Arc::new(sets.clone()));
                    shuffle_probe(&job, &splits, |p| {
                        sets.iter()
                            .enumerate()
                            .map(|(ki, s)| ((ki as u32, nearest_id(s, p) as u32), (p.to_vec(), 1)))
                            .collect()
                    })
                } else {
                    let job = KMeansJob::new(Arc::new(sets[0].clone()));
                    shuffle_probe(&job, &splits, |p| {
                        vec![(nearest_id(&sets[0], p), (p.to_vec(), 1))]
                    })
                };
        },
    );
    if w == Workload::KmeansSpill {
        let (result, _) = trace.span("spill: RunWriter + RunCursor", || {
            spill_probe(&sets[0], &splits)
        });
        (costs.spill_ns_per_byte, costs.spill_stored_ratio) = result?;
    }
    let counters = &out.counters;
    let mean_projections = counters
        .get(Counter::Projections)
        .checked_div(counters.get(Counter::AdTests));
    if let Some(mean) = mean_projections {
        let mean_sample = mean.max(20) as usize;
        trace.span("ad: AndersonDarling::test", || {
            costs.ad_ns_per_projection = ad_probe(&splits, mean_sample);
        });
    }
    let mean_commit = counters
        .get(Counter::CheckpointBytes)
        .checked_div(counters.get(Counter::CheckpointsCommitted));
    if let Some(mean_stored) = mean_commit {
        let (result, _) = trace.span("checkpoint: RunJournal::commit", || {
            checkpoint_probe(mean_stored)
        });
        costs.checkpoint_ns_per_commit = result?;
        costs.checkpoint_ns_per_byte = costs.checkpoint_ns_per_commit / mean_stored.max(1) as f64;
    }
    Ok(costs)
}

/// The run's final center sets, with the kernel backend the engine
/// attaches to every job's centers.
fn center_sets(w: Workload, out: &Outcome) -> Vec<CenterSet> {
    let models: &[Dataset] = if w == Workload::MultikCached {
        &out.models
    } else {
        &out.models[..1]
    };
    models
        .iter()
        .map(|m| CenterSet::from_dataset(m).with_backend(KernelBackend::Auto))
        .collect()
}

fn nearest_id(set: &CenterSet, p: &[f64]) -> i64 {
    set.nearest(p).expect("non-empty center set").1
}

/// The cache's first splits holding at least `max` points (all of them
/// when it holds fewer), kept whole so the probes see the runtime's own
/// map-task granularity.
fn head_splits(cache: &PointCache, max: usize) -> Vec<&CachedSplit> {
    let mut budget = max;
    cache
        .splits()
        .iter()
        .take_while(|s| {
            let keep = budget > 0;
            budget = budget.saturating_sub(s.points.len());
            keep
        })
        .collect()
}

/// Text-mode mappers scan every center per point
/// (`CenterSet::nearest_with_cost`); cached mappers hand whole splits to
/// `CenterSet::nearest_block`.
fn kernel_probe(w: Workload, sets: &[CenterSet], splits: &[&CachedSplit]) -> f64 {
    let points: usize = splits.iter().map(|s| s.points.len()).sum();
    let evals = points as f64 * sets.iter().map(|s| s.len() as f64).sum::<f64>();
    unit_cost_ns(evals, || {
        for set in sets {
            for s in splits {
                if w.is_cached() {
                    black_box(set.nearest_block(s.points.flat(), &s.norms));
                } else {
                    for p in s.points.rows() {
                        black_box(set.nearest_with_cost(p));
                    }
                }
            }
        }
    })
}

/// One job's worth of map output of `job`'s key/value shape, built per
/// split by `emit`, pushed through map-side sort and combine, encoded,
/// then merged and folded as a reducer would. Returns nanoseconds per
/// map output record and per encoded byte.
fn shuffle_probe<J>(
    job: &J,
    splits: &[&CachedSplit],
    emit: impl Fn(&[f64]) -> Vec<(J::Key, PointSum)>,
) -> (f64, f64)
where
    J: Job<Value = PointSum>,
{
    let buffers: Vec<Vec<(J::Key, PointSum)>> = splits
        .iter()
        .map(|s| s.points.rows().flat_map(&emit).collect())
        .collect();
    let records: usize = buffers.iter().map(Vec::len).sum();
    let mut encoded = 0usize;
    let ns = unit_cost_ns(records as f64, || {
        let counters = Counters::new();
        let segments: Vec<Segment> = buffers
            .iter()
            .map(|b| {
                let mut buf = b.clone();
                sort_and_combine(job, &mut buf, &counters);
                encode_segment(&buf)
            })
            .collect();
        encoded = segments.iter().map(Segment::len).sum();
        let merged =
            MergeIter::<J::Key, PointSum>::new(segments).expect("in-memory segments decode");
        let mut group: Option<(J::Key, Vec<PointSum>)> = None;
        for record in merged {
            let (k, v) = record.expect("in-memory segments decode");
            match group.as_mut() {
                Some((gk, vs)) if *gk == k => vs.push(v),
                _ => {
                    if let Some((_, vs)) = group.replace((k, vec![v])) {
                        black_box(fold_point_sums(vs));
                    }
                }
            }
        }
        if let Some((_, vs)) = group {
            black_box(fold_point_sums(vs));
        }
    });
    (ns, ns * records as f64 / encoded.max(1) as f64)
}

/// Writes the sorted k-means map output of the probe points as one
/// compressed run at the workload's block size, then reads it back.
/// Returns nanoseconds per raw byte and the stored-to-raw ratio.
fn spill_probe(set: &CenterSet, splits: &[&CachedSplit]) -> Result<(f64, f64), String> {
    let mut records: Vec<(i64, PointSum)> = splits
        .iter()
        .flat_map(|s| {
            s.points
                .rows()
                .map(|p| (nearest_id(set, p), (p.to_vec(), 1u64)))
        })
        .collect();
    records.sort_by_key(|r| r.0);
    let dir = SpillDir::create().map_err(|e| e.to_string())?;
    let write_read = || -> gmr_mapreduce::Result<(u64, u64)> {
        let mut writer = RunWriter::create(&dir, true, SPILL_BLOCK_BYTES)?;
        for (k, v) in &records {
            writer.push(k, v)?;
        }
        let (run, _) = writer.finish()?;
        let sizes = (run.raw_len(), run.stored_len());
        let mut cursor = RunCursor::open(Arc::new(run))?;
        while let Some(r) = cursor.next_record::<i64, PointSum>()? {
            black_box(r);
        }
        Ok(sizes)
    };
    // Size the run once to express the cost per raw byte.
    let (raw, stored) = write_read().map_err(|e| e.to_string())?;
    let mut failure = None;
    let ns = unit_cost_ns(raw as f64, || {
        if let Err(e) = write_read() {
            failure = Some(e.to_string());
        }
    });
    failure.map_or(Ok((ns, stored as f64 / raw as f64)), Err)
}

/// The default Anderson–Darling test on a sample of the run's mean test
/// size, drawn from the first coordinate of the workload's points.
fn ad_probe(splits: &[&CachedSplit], size: usize) -> f64 {
    let mut sample: Vec<f64> = splits
        .iter()
        .flat_map(|s| s.points.rows().map(|p| p[0]))
        .take(size)
        .collect();
    let mut i = 0;
    while sample.len() < size {
        sample.push(sample[i] + 0.5);
        i += 1;
    }
    let ad = AndersonDarling::default();
    unit_cost_ns(size as f64, || {
        black_box(ad.test(&sample).ok());
    })
}

/// One checkpoint commit of the run's mean stored size into a scratch
/// DFS journal. The journal stores payloads hex-encoded, so the payload
/// is half the stored size.
fn checkpoint_probe(mean_stored: u64) -> Result<f64, String> {
    let journal = RunJournal::new(Arc::new(Dfs::new(256 * 1024)), "probe");
    let payload: Vec<u8> = (0..mean_stored / 2).map(|i| (i * 31 % 251) as u8).collect();
    let mut seq = 0;
    let mut failure = None;
    let ns = unit_cost_ns(1.0, || {
        seq += 1;
        if let Err(e) = journal.commit(seq, &payload) {
            failure = Some(e.to_string());
        }
    });
    failure.map_or(Ok(ns), Err)
}

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Counts of every layer from the run's counters and result fields.
pub fn counts(out: &Outcome, stored_bytes: u64) -> Vec<Metric> {
    let c = |counter| out.counters.get(counter) as f64;
    let m = |name: &str, value: f64, unit| (name.to_string(), value, unit);
    vec![
        m("parse.scans", out.dataset_scans as f64, "count"),
        m("parse.bytes", out.parsed_bytes as f64, "B"),
        m("kernel.evals", c(Counter::DistanceComputations), "count"),
        m(
            "shuffle.map_output_records",
            c(Counter::MapOutputRecords),
            "count",
        ),
        m(
            "shuffle.combine_output_records",
            c(Counter::CombineOutputRecords),
            "count",
        ),
        m("shuffle.bytes", c(Counter::ShuffleBytes), "B"),
        m(
            "reduce.input_records",
            c(Counter::ReduceInputRecords),
            "count",
        ),
        m("reduce.groups", c(Counter::ReduceInputGroups), "count"),
        m("spill.count", c(Counter::ShuffleSpills), "count"),
        m("spill.bytes", c(Counter::ShuffleSpillBytes), "B"),
        m(
            "spill.merge_passes",
            c(Counter::ShuffleMergePasses),
            "count",
        ),
        m("spill.bytes_compressed", c(Counter::BytesCompressed), "B"),
        m(
            "spill.bytes_decompressed",
            c(Counter::BytesDecompressed),
            "B",
        ),
        m("dfs.stored_bytes", stored_bytes as f64, "B"),
        m("ad.tests", c(Counter::AdTests), "count"),
        m("ad.projections", c(Counter::Projections), "count"),
        m(
            "checkpoint.commits",
            c(Counter::CheckpointsCommitted),
            "count",
        ),
        m("checkpoint.bytes", c(Counter::CheckpointBytes), "B"),
        m("runtime.jobs", out.jobs as f64, "count"),
        m(
            "runtime.task_attempts",
            c(Counter::AttemptsLaunched),
            "count",
        ),
        m("runtime.job_wall_s", out.job_wall_secs, "s"),
        m("memory.heap_peak_bytes", c(Counter::HeapPeakBytes), "B"),
    ]
}

/// Busy seconds of each probed layer: unit cost times the run's count.
pub fn busy(out: &Outcome, u: &UnitCosts) -> Vec<Metric> {
    let c = |counter| out.counters.get(counter) as f64;
    let secs = |ns: f64, units: f64| ns * units * 1e-9;
    vec![
        (
            "parse.busy_s".into(),
            secs(u.parse_ns_per_byte, out.parsed_bytes as f64),
            "s",
        ),
        (
            "kernel.busy_s".into(),
            secs(u.kernel_ns_per_eval, c(Counter::DistanceComputations)),
            "s",
        ),
        (
            "shuffle.busy_s".into(),
            secs(u.shuffle_ns_per_record, c(Counter::MapOutputRecords)),
            "s",
        ),
        (
            "spill.busy_s".into(),
            secs(u.spill_ns_per_byte, c(Counter::ShuffleSpillBytes)),
            "s",
        ),
        (
            "ad.busy_s".into(),
            secs(u.ad_ns_per_projection, c(Counter::Projections)),
            "s",
        ),
        (
            "checkpoint.busy_s".into(),
            secs(u.checkpoint_ns_per_commit, c(Counter::CheckpointsCommitted)),
            "s",
        ),
    ]
}

/// The probes' unit costs as metrics.
pub fn unit_metrics(u: &UnitCosts) -> Vec<Metric> {
    vec![
        ("parse.ns_per_byte".into(), u.parse_ns_per_byte, "ns/B"),
        ("kernel.ns_per_eval".into(), u.kernel_ns_per_eval, "ns/eval"),
        (
            "shuffle.ns_per_record".into(),
            u.shuffle_ns_per_record,
            "ns/record",
        ),
        ("spill.ns_per_byte".into(), u.spill_ns_per_byte, "ns/B"),
        (
            "ad.ns_per_projection".into(),
            u.ad_ns_per_projection,
            "ns/projection",
        ),
    ]
}

/// One row of the calibration table: a probe's unit cost beside the
/// simulated cost `CostModel::default()` charges for the same unit.
pub struct Calibration {
    /// Layer and unit.
    pub what: &'static str,
    /// Measured nanoseconds per unit.
    pub measured_ns: f64,
    /// Nanoseconds per unit under the default cost model.
    pub model_ns: f64,
    /// Which model constants make up `model_ns`.
    pub model_terms: &'static str,
}

/// Sets each probe beside the cost-model constant it stands for.
pub fn calibration(u: &UnitCosts, dim: usize) -> Vec<Calibration> {
    let m = CostModel::default();
    let ns = |secs: f64| secs * 1e9;
    let mut rows = vec![
        Calibration {
            what: "parse, per input byte",
            measured_ns: u.parse_ns_per_byte,
            model_ns: ns(m.secs_per_input_byte),
            model_terms: "secs_per_input_byte",
        },
        Calibration {
            what: "kernel, per distance eval",
            measured_ns: u.kernel_ns_per_eval,
            model_ns: ns(m.secs_per_compute_unit) * dim as f64,
            model_terms: "secs_per_compute_unit x dim",
        },
        Calibration {
            what: "shuffle, per shuffled byte",
            measured_ns: u.shuffle_ns_per_byte,
            model_ns: 2.0 * ns(m.secs_per_shuffle_byte),
            model_terms: "2 x secs_per_shuffle_byte",
        },
    ];
    if u.spill_ns_per_byte > 0.0 {
        rows.push(Calibration {
            what: "spill write+read, per raw byte",
            measured_ns: u.spill_ns_per_byte,
            model_ns: ns(2.0 * m.secs_per_spill_byte * u.spill_stored_ratio
                + m.secs_per_compress_byte
                + m.secs_per_decompress_byte),
            model_terms: "2 x spill x stored/raw + compress + decompress",
        });
    }
    if u.checkpoint_ns_per_byte > 0.0 {
        rows.push(Calibration {
            what: "checkpoint, per stored byte",
            measured_ns: u.checkpoint_ns_per_byte,
            model_ns: ns(m.secs_per_checkpoint_byte),
            model_terms: "secs_per_checkpoint_byte",
        });
    }
    rows
}
