//! Job execution: map tasks over input splits, the shuffle, and reduce
//! tasks, on a pool of threads standing in for the cluster's task slots.
//!
//! Execution is faithful to the Hadoop model the paper programs against:
//!
//! * one map task per input split, one reduce task per partition;
//! * map output is combined (if the job has a combiner) as it is
//!   emitted or at task end, sorted and **serialized**; reduce input is
//!   decoded from those bytes through a streaming k-way merge —
//!   `SHUFFLE_BYTES` measures real serialized volume;
//! * tasks run concurrently on up to `slots` worker threads and every
//!   task accumulates a [`TaskCost`], from which the job's simulated
//!   makespan is computed per the cluster's [`crate::cost::CostModel`]
//!   (wave-scheduled, as Hadoop would run the tasks);
//! * a task exceeding its simulated heap fails the whole job with
//!   [`crate::error::Error::HeapSpace`] — the behaviour Figure 2 maps;
//! * every task runs as a sequence of **attempts** under the cluster's
//!   [`crate::faults::FaultPlan`]: injected or genuine failures burn an
//!   attempt (and simulated slot time), a bounded retry budget decides
//!   when the job gives up, and abnormally slow tasks get speculative
//!   backup attempts — all deterministically, so a faulty run produces
//!   bit-identical output to a fault-free one, just a longer makespan;
//! * every attempt is **placed on a node**, preferring (for map tasks)
//!   a node that holds a DFS replica of the input block — node-local
//!   first, any-node fallback, counted by `maps_node_local` /
//!   `maps_remote`; a node crash kills the
//!   attempts in flight on it, strands the map outputs it completed
//!   (detected as shuffle-fetch failures and re-executed on survivors
//!   after a heartbeat timeout), and costs the DFS its block replicas;
//!   repeat offenders are blacklisted and the cluster's slot capacity
//!   shrinks.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::cache::{CachedSplit, PointCache};
use crate::cluster::{ClusterConfig, OutOfCoreConfig};
use crate::cost::{makespan, JobTiming, TaskCost};
use crate::counters::{Counter, Counters};
use crate::dfs::{Dfs, InputSplit};
use crate::error::{Error, Result};
use crate::faults::{FaultDecision, FaultPlan, NodeStatus, TaskKind};
use crate::job::{Emitter, Job, JobConfig, MapOutput, Mapper, Reducer, TaskContext, Values};
use crate::memory::HeapLedger;
use crate::shuffle::{
    encode_segment, merge_combine_to_run, merge_to_run, CommitFence, KeyGroups, MergeIter, Segment,
    ShuffleSegment,
};
use crate::spill::{RunWriter, SpillDir, SpillIo};
use crate::text::PointLines;
use crate::writable::{ShuffleKey, ShuffleValue};

/// Points per [`Mapper::prepare_block`] block of a cached split,
/// and lines per block of a text split (rejected lines leave fewer
/// points): big enough to amortize the blocked kernel's tile sweeps,
/// small enough that a block of precomputed assignments stays
/// cache-resident, and a bound on the bad lines a block remembers.
pub const MAP_BLOCK_POINTS: usize = 256;

/// Heartbeat false positives a single task tolerates before the draws
/// are ignored: fenced attempts never burn the retry budget, so without
/// a cap a pathological plan could zombie-kill one task forever.
const MAX_ZOMBIES_PER_TASK: u32 = 3;

/// Result of one executed job.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Reducer output records, in reduce-partition order.
    pub output: Vec<O>,
    /// The job's counters.
    pub counters: Counters,
    /// Simulated and wall-clock timing.
    pub timing: JobTiming,
}

/// Executes [`Job`]s against a DFS on a simulated cluster.
#[derive(Clone)]
pub struct JobRunner {
    dfs: Arc<Dfs>,
    cluster: ClusterConfig,
    /// 1-based count of jobs this runner has started — the *epoch* that
    /// keys node-crash draws, so an identically configured rerun (or a
    /// resumed driver, which re-syncs the count) sees identical node
    /// weather. Shared across clones.
    epochs: Arc<AtomicU64>,
    /// Scratch directory for out-of-core spill runs; present only when
    /// [`OutOfCoreConfig::spill_enabled`] and removed (with every run
    /// file) when the last runner clone drops.
    spill: Option<Arc<SpillDir>>,
}

struct MapTaskOut {
    segments: Vec<ShuffleSegment>,
    timing: TaskTiming,
}

/// Simulated timing of one completed task, attempts included.
struct TaskTiming {
    /// Effective duration of the winning attempt (straggler slowdown
    /// applied).
    duration: f64,
    /// Duration the same work takes on a healthy node — the speed a
    /// speculative backup attempt runs at.
    base: f64,
    /// Slot time burned by this task's failed attempts.
    failed: Vec<f64>,
    /// Node the winning attempt ran on.
    node: usize,
}

/// Node weather of one job: which nodes take attempts, which die
/// mid-job, and the epoch the draws were keyed on.
struct NodeView {
    epoch: u64,
    status: NodeStatus,
    /// `status.live` minus `status.crashed`: where retries, re-executed
    /// maps and reduce tasks land.
    survivors: Vec<usize>,
}

/// Identity and placement preference of one task's attempt sequence —
/// everything the fault plan keys its draws and placement off.
struct TaskSite<'a> {
    job: &'a str,
    kind: TaskKind,
    index: usize,
    /// DFS replica holders of the task's input block (empty for
    /// reduces, whose input is shuffled, not read from the DFS).
    prefer: &'a [usize],
}

/// Submission-time facts lost-map detection and re-execution key off:
/// the job's name (weather and placement hashes), reducer count
/// (fetches per map output) and each input block's replica holders
/// (locality preference).
struct JobSite<'a> {
    name: &'a str,
    num_reduce_tasks: usize,
    replicas: &'a [Vec<usize>],
}

/// Out-of-core state of one spilling map attempt: the spill trigger,
/// the accumulated runs per partition, and the byte ledgers.
///
/// Bit-identity with buffered execution rests on two invariants this
/// struct maintains:
///
/// * spills write **raw** (uncombined) stably-sorted runs — each run is
///   a consecutive emission window, so the earliest-source-first merge
///   replays each key's values in emission order;
/// * the combiner folds each key's values **once**, streaming over the
///   fully merged partition at task end — the same left fold, in the
///   same emission order, that a buffered attempt applies as it emits
///   (and the same combine-counter totals).
struct MapSpill {
    dir: Arc<SpillDir>,
    cfg: OutOfCoreConfig,
    /// Effective sort-buffer size: the configured bytes, clamped down
    /// when the attempt is rescuing an injected heap fault.
    sort_buffer: u64,
    /// Per-partition spilled runs, in spill order.
    runs: Vec<Vec<ShuffleSegment>>,
    io: SpillIo,
    /// Raw bytes written to spill runs ([`premerge`] counts its
    /// intermediate runs; final output runs are shuffle bytes, not
    /// spill bytes).
    spill_bytes: u64,
    spills: u64,
    /// Sort-buffer bytes currently charged to the task's heap ledger.
    ledger_charged: u64,
}

impl MapSpill {
    fn new(dir: Arc<SpillDir>, cfg: OutOfCoreConfig, forced: bool, num_parts: usize) -> Self {
        let sort_buffer = if forced {
            (cfg.sort_buffer_bytes / 8).max(4096)
        } else {
            cfg.sort_buffer_bytes
        };
        Self {
            dir,
            cfg,
            sort_buffer,
            runs: (0..num_parts).map(|_| Vec::new()).collect(),
            io: SpillIo::default(),
            spill_bytes: 0,
            spills: 0,
            ledger_charged: 0,
        }
    }

    /// Charges newly buffered sort-buffer bytes to the task's heap
    /// ledger and spills when the buffer fills or the heap cannot take
    /// the charge — the task degrades to disk instead of dying with
    /// `HeapSpace`.
    #[allow(clippy::too_many_arguments)]
    fn maybe_spill<K: ShuffleKey, V: ShuffleValue>(
        &mut self,
        emitter: &mut Emitter<K, V>,
        ctx: &mut TaskContext,
        counters: &Counters,
        plan: &FaultPlan,
        job_name: &str,
        index: usize,
        attempt: u32,
    ) -> Result<()> {
        let buffered = emitter.buffered_bytes();
        let mut full = buffered >= self.sort_buffer;
        if !full {
            let delta = buffered.saturating_sub(self.ledger_charged);
            if delta > 0 {
                match ctx.heap.charge(delta) {
                    Ok(()) => self.ledger_charged = buffered,
                    Err(_) => full = true,
                }
            }
        }
        if full {
            self.spill(emitter, ctx, counters, plan, job_name, index, attempt)?;
        }
        Ok(())
    }

    /// Writes every non-empty partition buffer as a raw sorted run,
    /// releases the heap ledger, and resets the sort window.
    #[allow(clippy::too_many_arguments)]
    fn spill<K: ShuffleKey, V: ShuffleValue>(
        &mut self,
        emitter: &mut Emitter<K, V>,
        ctx: &mut TaskContext,
        counters: &Counters,
        plan: &FaultPlan,
        job_name: &str,
        index: usize,
        attempt: u32,
    ) -> Result<()> {
        // One torn-spill draw per spill event; a hit truncates the
        // first run written, for the task's own merge to detect.
        let mut tear_pending = plan.torn_spill(job_name, index, attempt, self.spills);
        let mut wrote = false;
        for (p, part) in emitter.partitions_mut().iter_mut().enumerate() {
            if part.is_empty() {
                continue;
            }
            // Raw, stably sorted, uncombined — see the struct docs.
            part.sort_by(|a, b| a.0.cmp(&b.0));
            let mut writer = RunWriter::create(&self.dir, true, self.cfg.spill_block_bytes)?;
            for (k, v) in part.iter() {
                writer.push(k, v)?;
            }
            let (run, io) = writer.finish()?;
            if std::mem::take(&mut tear_pending) {
                run.tear()?;
            }
            self.spill_bytes += run.raw_len();
            self.io.absorb(&io);
            self.runs[p].push(ShuffleSegment::Disk(Arc::new(run)));
            part.clear();
            wrote = true;
        }
        if wrote {
            self.spills += 1;
            counters.inc(Counter::ShuffleSpills);
        }
        ctx.heap.release(self.ledger_charged);
        self.ledger_charged = 0;
        emitter.close_window(counters);
        emitter.reset_buffered_bytes();
        Ok(())
    }

    /// Ends a spilled map attempt: folds the still-buffered tail in as
    /// a memory source (Hadoop's final in-memory spill), pre-merges each
    /// partition down to the fan-in bound ([`premerge`]), and streams
    /// each partition once through the combiner into its final output
    /// run.
    ///
    /// Returns the final per-partition segments, the serialized output
    /// size (the `shuffle_bytes` contribution) and the attempt's spill
    /// I/O totals.
    fn finish<J: Job>(
        mut self,
        job: &J,
        emitter: &mut Emitter<J::Key, J::Value>,
        ctx: &mut TaskContext,
        counters: &Counters,
    ) -> Result<(Vec<ShuffleSegment>, u64, SpillIo)> {
        let mut segments = Vec::with_capacity(self.runs.len());
        let mut shuffle_out = 0u64;
        let runs = std::mem::take(&mut self.runs);
        let parts = emitter.partitions_mut();
        for (p, mut sources) in runs.into_iter().enumerate() {
            let part = &mut parts[p];
            if !part.is_empty() {
                // The unspilled tail joins the merge from memory, as
                // the latest emission window.
                part.sort_by(|a, b| a.0.cmp(&b.0));
                sources.push(ShuffleSegment::Mem(encode_segment(part)));
                part.clear();
            }
            if sources.is_empty() {
                segments.push(ShuffleSegment::Mem(Segment::default()));
                continue;
            }
            let resident = premerge::<J::Key, J::Value>(
                &self.dir,
                &self.cfg,
                &mut sources,
                &ctx.heap,
                counters,
                &mut self.io,
            )?;
            let combined = merge_combine_to_run(job, &self.dir, &self.cfg, sources, counters);
            ctx.heap.release(resident);
            let (run, io) = combined?;
            self.io.absorb(&io);
            shuffle_out += run.raw_len();
            segments.push(ShuffleSegment::Disk(Arc::new(run)));
        }
        ctx.heap.release(self.ledger_charged);
        self.ledger_charged = 0;
        counters.add(Counter::ShuffleSpillBytes, self.spill_bytes);
        counters.add(Counter::BytesCompressed, self.io.compressed_raw);
        counters.add(Counter::BytesDecompressed, self.io.decompressed_raw);
        Ok((segments, shuffle_out, self.io))
    }
}

/// Bounds a merge's fan-in, on the map and the reduce side alike: while
/// more than `merge_fan_in` sources remain, merges the *oldest*
/// `merge_fan_in` raw into a disk run that re-enters at the front —
/// nested merges of consecutive sources preserve the flat merge's
/// tie-break order. Each pass's resident block bytes are charged to
/// `heap` around the pass; the pass counts one merge pass, its run's
/// spill bytes, and its I/O into `io`. Then charges the final merge's
/// resident bytes and returns them, for the caller to release once the
/// final merge is done.
fn premerge<K: ShuffleKey, V: ShuffleValue>(
    dir: &SpillDir,
    cfg: &OutOfCoreConfig,
    sources: &mut Vec<ShuffleSegment>,
    heap: &HeapLedger,
    counters: &Counters,
    io: &mut SpillIo,
) -> Result<u64> {
    let resident =
        |s: &[ShuffleSegment]| -> u64 { s.iter().map(ShuffleSegment::merge_resident_bytes).sum() };
    while sources.len() > cfg.merge_fan_in {
        let batch: Vec<ShuffleSegment> = sources.drain(..cfg.merge_fan_in).collect();
        let charge = resident(&batch);
        heap.charge(charge)?;
        let merged = merge_to_run::<K, V>(dir, cfg, batch);
        heap.release(charge);
        let (run, pass_io) = merged?;
        counters.inc(Counter::ShuffleMergePasses);
        counters.add(Counter::ShuffleSpillBytes, run.raw_len());
        io.absorb(&pass_io);
        sources.insert(0, ShuffleSegment::Disk(Arc::new(run)));
    }
    let charge = resident(sources);
    heap.charge(charge)?;
    Ok(charge)
}

/// The split one map task reads.
enum PointSplit<'a> {
    /// DFS text, parsed block by block inside the task.
    Text(&'a InputSplit),
    /// A split of a [`PointCache`], parsed when the cache was built.
    Cached(&'a CachedSplit),
}

/// What one map attempt returns: its per-partition output segments and
/// its simulated cost.
type MapTaskResult = Result<(Vec<ShuffleSegment>, TaskCost)>;

/// One attempt of one map task: the task context, the emitter, the
/// spill state and the per-record spill policy.
///
/// The attempt picks its emitter from two facts: whether it may spill
/// and whether the job combines. A buffered attempt of a combiner job
/// folds each emission into its key's accumulator; an attempt that may
/// spill, or of a job without a combiner, keeps the raw sort buffer,
/// because spill runs must hold raw records.
struct MapAttempt<'a, J: Job> {
    runner: &'a JobRunner,
    job: &'a J,
    config: &'a JobConfig,
    index: usize,
    attempt: u32,
    counters: &'a Arc<Counters>,
    ctx: TaskContext,
    emitter: Emitter<J::Key, J::Value>,
    spill: Option<MapSpill>,
}

impl<'a, J: Job> MapAttempt<'a, J> {
    fn new(
        runner: &'a JobRunner,
        job: &'a J,
        config: &'a JobConfig,
        index: usize,
        attempt: u32,
        forced_spill: bool,
        counters: &'a Arc<Counters>,
    ) -> Self {
        let num_parts = config.num_reduce_tasks;
        let spill = runner.spill.as_ref().map(|dir| {
            MapSpill::new(
                Arc::clone(dir),
                runner.cluster.out_of_core,
                forced_spill,
                num_parts,
            )
        });
        let emitter = if spill.is_none() && job.has_combiner() {
            Emitter::folding(num_parts)
        } else {
            Emitter::raw(num_parts, spill.is_some())
        };
        let heap = runner.cluster.heap_per_task;
        Self {
            runner,
            job,
            config,
            index,
            attempt,
            counters,
            ctx: TaskContext::new(format!("map-{index}"), Arc::clone(counters), heap),
            emitter,
            spill,
        }
    }

    /// Runs the mapper over its split, block by block (see
    /// [`MapAttempt::point_block`]).
    fn run(mut self, split: PointSplit<'_>) -> MapTaskResult {
        let mut mapper = self.job.create_mapper();
        match split {
            PointSplit::Cached(split) => {
                let dim = split.points.dim();
                let blocks = split.points.flat().chunks(MAP_BLOCK_POINTS * dim);
                for (points, norms) in blocks.zip(split.norms.chunks(MAP_BLOCK_POINTS)) {
                    self.point_block(&mut mapper, dim, points, norms, &[], norms.len())?;
                }
                self.finish(&mut mapper, None, split.points.len() as u64)
            }
            PointSplit::Text(split) => {
                self.parse_blocks(&mut mapper, split)?;
                self.finish(&mut mapper, Some(split), 0)
            }
        }
    }

    /// Parses a text split into blocks of up to [`MAP_BLOCK_POINTS`]
    /// lines, each remembering where its rejected lines fell, and feeds
    /// every block to the mapper.
    fn parse_blocks(&mut self, mapper: &mut J::Mapper, split: &InputSplit) -> Result<()> {
        let dim = mapper.dim();
        let mut points = Vec::with_capacity(MAP_BLOCK_POINTS * dim);
        let mut bad: Vec<(usize, &str)> = Vec::new();
        let mut lines = PointLines::new(&split.data);
        loop {
            points.clear();
            bad.clear();
            let mut records = 0;
            while records < MAP_BLOCK_POINTS {
                let Some(parsed) = lines.next_point_dim(dim, &mut points) else {
                    break;
                };
                if let Err(line) = parsed {
                    bad.push((records, line));
                }
                records += 1;
            }
            if records == 0 {
                return Ok(());
            }
            let norms = gmr_linalg::squared_norms(&points, dim);
            self.point_block(mapper, dim, &points, &norms, &bad, records)?;
        }
    }

    /// Calls `f` with the attempt's output handle and task context.
    fn with_output(
        &mut self,
        f: impl FnOnce(&mut MapOutput<'_, J::Key, J::Value>, &mut TaskContext) -> Result<()>,
    ) -> Result<()> {
        let (job, parts) = (self.job, self.config.num_reduce_tasks);
        let mut out = MapOutput {
            emitter: &mut self.emitter,
            partitioner: &|k| job.partition(k, parts),
            combiner: &|k, acc, v| job.combine(k, acc, v),
        };
        f(&mut out, &mut self.ctx)
    }

    /// Hands the per-record tallies to the attempt's counter bank:
    /// `records` more [`Counter::MapInputRecords`], the emissions since
    /// the last flush as [`Counter::MapOutputRecords`], and the task
    /// context's distance computations and projections. Called once per
    /// block and when the attempt ends. The bank is private to the
    /// attempt until it commits, so no reader sees the tallies lag.
    fn flush_tally(&mut self, records: u64) {
        self.counters.add(Counter::MapInputRecords, records);
        self.counters
            .add(Counter::MapOutputRecords, self.emitter.take_emitted());
        self.ctx.flush_tally();
    }

    /// Consumes one input record through `map`, then applies the spill
    /// policy: a spilling attempt spills when its sort buffer or heap
    /// fills; a buffered one closes a window every
    /// `spill_threshold_records` emissions, which only counts
    /// ([`Emitter::close_window`]).
    fn record(
        &mut self,
        map: impl FnOnce(&mut MapOutput<'_, J::Key, J::Value>, &mut TaskContext) -> Result<()>,
    ) -> Result<()> {
        self.with_output(map)?;
        match self.spill.as_mut() {
            Some(s) => s.maybe_spill(
                &mut self.emitter,
                &mut self.ctx,
                self.counters,
                &self.runner.cluster.faults,
                self.job.name(),
                self.index,
                self.attempt,
            ),
            None => {
                if self.emitter.records_since_spill() >= self.config.spill_threshold_records {
                    self.counters.inc(Counter::Spills);
                    self.emitter.close_window(self.counters);
                }
                Ok(())
            }
        }
    }

    /// Feeds one block to the mapper: [`Mapper::prepare_block`] over
    /// its points, then one record per input line in order —
    /// `map_point` with its row for each point, and a bad-record
    /// quarantine for each `(line number within the block, line)` of
    /// `bad` — then flushes the block's tallies. A block without points
    /// prepares nothing.
    fn point_block(
        &mut self,
        mapper: &mut J::Mapper,
        dim: usize,
        points: &[f64],
        norms: &[f64],
        bad: &[(usize, &str)],
        records: usize,
    ) -> Result<()> {
        let rows = if norms.is_empty() {
            Vec::new()
        } else {
            mapper.prepare_block(points, norms, &mut self.ctx)?
        };
        if rows.len() != norms.len() {
            return Err(Error::Task(format!(
                "{}: prepare_block returned {} rows for {} points",
                self.job.name(),
                rows.len(),
                norms.len()
            )));
        }
        let mut rows = points.chunks_exact(dim).zip(rows);
        let mut bad = bad.iter().peekable();
        for record in 0..records {
            if let Some(&(_, line)) = bad.next_if(|(at, _)| *at == record) {
                self.record(|_, ctx| {
                    ctx.skip_bad_record(line);
                    Ok(())
                })?;
            } else {
                let (point, row) = rows.next().expect("one point per accepted line");
                self.record(|out, ctx| mapper.map_point(point, row, out, ctx))?;
            }
        }
        self.flush_tally(records as u64);
        Ok(())
    }

    /// Closes the mapper and seals the attempt's output, charging the
    /// text split it read (if any) and the points it scanned from a
    /// cache.
    fn finish(
        mut self,
        mapper: &mut J::Mapper,
        text: Option<&InputSplit>,
        cached_points: u64,
    ) -> MapTaskResult {
        self.with_output(|out, ctx| mapper.close(out, ctx))?;
        self.flush_tally(0);
        let counters = self.counters;
        let (segments, shuffle_out, spill_io) = match self.spill.take() {
            // A spilled attempt merges its runs into final combined runs.
            Some(spill) if spill.spills > 0 => {
                spill.finish(self.job, &mut self.emitter, &mut self.ctx, counters)?
            }
            unspilled => {
                // Give back any sort-buffer charge, then combine and
                // serialize in memory — bit for bit the behaviour
                // without out-of-core execution.
                if let Some(spill) = unspilled {
                    self.ctx.heap.release(spill.ledger_charged);
                }
                let segments = self.emitter.seal(self.job, counters);
                let shuffle_out = segments.iter().map(|s| s.len() as u64).sum();
                let segments = segments.into_iter().map(ShuffleSegment::Mem).collect();
                (segments, shuffle_out, SpillIo::default())
            }
        };
        counters.add(Counter::ShuffleBytes, shuffle_out);
        counters.max(Counter::HeapPeakBytes, self.ctx.heap.peak());
        let input_bytes = text.map_or(0, |split| split.len() as u64);
        if let Some(split) = text {
            counters.add(Counter::InputBytes, input_bytes);
            self.runner.dfs.charge_split_read(split);
        }
        Ok((
            segments,
            TaskCost {
                input_bytes,
                cached_points,
                shuffle_bytes_out: shuffle_out,
                shuffle_bytes_in: 0,
                compute_units: self.ctx.compute_units(),
                spill_io_bytes: spill_io.disk_bytes(),
                compressed_bytes: spill_io.compressed_raw,
                decompressed_bytes: spill_io.decompressed_raw,
            },
        ))
    }
}

/// Rejects a job configured without reduce tasks.
fn check_reduce_tasks<J: Job>(job: &J, config: &JobConfig) -> Result<()> {
    if config.num_reduce_tasks == 0 {
        return Err(Error::Config(format!(
            "job {} needs at least one reduce task",
            job.name()
        )));
    }
    Ok(())
}

impl NodeView {
    /// Placement domain for one attempt. First attempts of map tasks
    /// schedule over every live node — the scheduler cannot know the
    /// crash yet; retries are placed after the failure is detected, and
    /// the whole reduce phase starts after the map-phase barrier, so
    /// both go to survivors only.
    fn domain(&self, kind: TaskKind, attempt: u32) -> &[usize] {
        if kind == TaskKind::Map && attempt == 0 {
            &self.status.live
        } else {
            &self.survivors
        }
    }
}

/// What becomes of one task attempt, in Hadoop's attempt taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    /// An injected transient (`heap: false`) or heap fault kills the
    /// attempt before it does any work. The only fate that consumes
    /// [`FaultPlan::max_attempts`].
    Failed { heap: bool },
    /// The attempt's node crashed before the attempt finished. KILLED,
    /// not FAILED: the task did nothing wrong.
    Killed,
    /// A heartbeat false positive declared the live attempt dead: it
    /// runs on as a zombie whose commit the task's fence rejects.
    Fenced,
    /// The attempt executes the task body.
    Run,
}

/// Decides the fate of attempt `attempt` of `site`'s task, placed on
/// `node`, after `zombies` earlier attempts of the task were fenced: a
/// pure function of the plan's draws and the node view. Also returns
/// whether an injected heap fault was absorbed by a forced spill (only
/// with spilling enabled) — the attempt then meets the rest of its fate
/// with a clamped sort buffer, no attempt burned.
fn attempt_fate(
    plan: &FaultPlan,
    spill_enabled: bool,
    nodes: &NodeView,
    site: &TaskSite<'_>,
    attempt: u32,
    node: usize,
    zombies: u32,
) -> (Fate, bool) {
    let TaskSite {
        job, kind, index, ..
    } = *site;
    let forced_spill = match plan.decide(job, kind, index, attempt) {
        FaultDecision::FailTransient => return (Fate::Failed { heap: false }, false),
        FaultDecision::FailHeap if !spill_enabled => return (Fate::Failed { heap: true }, false),
        FaultDecision::FailHeap => true,
        FaultDecision::Run => false,
    };
    // An attempt on a node that dies mid-job either finishes before the
    // crash point (its output is computed, stranded on the dead node,
    // and re-executed after the map phase) or is killed in flight. Its
    // replacement goes to a survivor, so at most one kill strikes a
    // task per epoch.
    let fate = if nodes.status.crashed.contains(&node)
        && !plan.attempt_completed_before_crash(job, kind, index, attempt, nodes.epoch, node)
    {
        Fate::Killed
    } else if zombies < MAX_ZOMBIES_PER_TASK
        && plan.heartbeat_false_positive(job, kind, index, attempt)
    {
        Fate::Fenced
    } else {
        Fate::Run
    };
    (fate, forced_spill)
}

/// The locality counter a map attempt charges.
fn locality(node_local: bool) -> Counter {
    if node_local {
        Counter::MapsNodeLocal
    } else {
        Counter::MapsRemote
    }
}

/// Runs `task(i)` for every `i` in `0..n` on up to `threads` scoped
/// worker threads standing in for a phase's task slots, and returns the
/// outputs in index order. Workers claim indices in ascending order and
/// stop claiming after the first failure; every lower index was claimed
/// earlier and still finishes, so the lowest-index error is returned,
/// whatever the thread timing.
fn run_tasks<T: Send>(
    threads: usize,
    n: usize,
    task: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let results: Mutex<Vec<Option<Result<T>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                while !failed.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = task(i);
                    if r.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    results.lock()[i] = Some(r);
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for r in results.into_inner().into_iter().flatten() {
        out.push(r?);
    }
    if out.len() < n {
        // Skipped with no stored error: impossible unless a failure
        // went unrecorded.
        return Err(Error::Task(format!(
            "{} of {n} tasks did not run",
            n - out.len()
        )));
    }
    Ok(out)
}

impl JobRunner {
    /// Creates a runner; validates the cluster configuration and
    /// attaches the cluster's node topology to the DFS so blocks get
    /// replica placements. The topology spans the full node *universe*
    /// ([`ClusterConfig::peak_nodes`]); under an elastic membership
    /// plan the not-yet-joined nodes start in the DFS down-set so
    /// initial placement avoids them until their join epoch.
    pub fn new(dfs: Arc<Dfs>, cluster: ClusterConfig) -> Result<Self> {
        cluster.validate()?;
        if cluster.membership.is_active() {
            dfs.set_down_nodes(&cluster.unavailable_at(0));
        }
        dfs.attach_topology(cluster.peak_nodes(), cluster.dfs_replication);
        let spill = if cluster.out_of_core.spill_enabled {
            Some(Arc::new(SpillDir::create()?))
        } else {
            None
        };
        Ok(Self {
            dfs,
            cluster,
            epochs: Arc::new(AtomicU64::new(0)),
            spill,
        })
    }

    /// The underlying DFS.
    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    /// The cluster this runner simulates.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Re-synchronizes the job-epoch counter to `completed_jobs` jobs
    /// already run. The engine calls this with `0` at the start of a
    /// fresh run and with the restored job count on resume, so the
    /// epoch that keys node-crash draws matches the uninterrupted run's
    /// at every job. Under an elastic membership plan it also
    /// reconstructs the DFS down-set the uninterrupted run had at this
    /// point in its membership timeline, so writes issued before the
    /// next job (checkpoint commits, intermediate files) are placed
    /// identically — the membership half of driver-crash resume
    /// bit-identity.
    pub fn sync_job_epochs(&self, completed_jobs: u64) {
        self.epochs.store(completed_jobs, Ordering::Relaxed);
        if self.cluster.membership.is_active() {
            self.dfs
                .set_down_nodes(&self.cluster.unavailable_at(completed_jobs));
        }
    }

    /// Opens the next job epoch: advances the epoch counter, computes
    /// the node weather under the fault *and* membership plans, tells
    /// the DFS which nodes may not hold data this epoch (blacklisted,
    /// decommissioned, not yet joined, and announced revocation
    /// victims), processes membership events (joins and graceful
    /// decommissions rebalance replicas toward the new topology
    /// *before* the schedule's locality snapshot is taken), snapshots
    /// the input's replica map (journaled so a resumed driver replaying
    /// the epoch places identically; taken *before* this epoch's
    /// crashes are processed, because a node that crashes mid-job was
    /// still a preferred target when its attempts were placed),
    /// processes this epoch's crashes and revocations (replica loss +
    /// re-replication), verifies the input's replica checksums under
    /// the corruption plan, and charges the node-level counters.
    /// Degrades to [`Error::Degenerate`] when no node is left to run
    /// tasks.
    fn begin_job(&self, input: &str, counters: &Counters) -> Result<(NodeView, Vec<Vec<usize>>)> {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let status = self.cluster.node_status(epoch);
        self.dfs.set_down_nodes(&self.cluster.unavailable_at(epoch));
        counters.max(Counter::NodesBlacklisted, status.blacklisted.len() as u64);
        if status.live.is_empty() {
            return Err(Error::Degenerate(format!(
                "all {} cluster nodes are blacklisted at job epoch {epoch}",
                self.cluster.nodes
            )));
        }
        // Membership events first: a join pulls data onto the newcomer
        // and a graceful decommission drains data off the leaver, so
        // the locality snapshot below already sees the epoch's
        // topology. Both are journaled per (epoch, node) — a resumed
        // driver re-moves nothing and the counters replay identically.
        for node in self.cluster.membership.scheduled_joins.at(epoch) {
            counters.inc(Counter::NodeJoins);
            let moved = self.dfs.node_joined(epoch, node);
            counters.add(Counter::DfsBlocksRebalanced, moved);
        }
        for node in self.cluster.membership.scheduled_decommissions.at(epoch) {
            counters.inc(Counter::NodesDecommissioned);
            let moved = self.dfs.node_decommissioned(epoch, node);
            counters.add(Counter::DfsBlocksRebalanced, moved);
        }
        let replicas = self.dfs.block_replicas_at(epoch, input);
        for &node in &status.crashed {
            // A spot revocation is a hard kill with different
            // bookkeeping: announced capacity loss, not node fault —
            // it neither advances the blacklist budget (NodeStatus
            // already excludes it from the replay) nor the crash
            // counter.
            if status.revoked.contains(&node) {
                counters.inc(Counter::NodesRevoked);
            } else {
                counters.inc(Counter::NodeCrashes);
            }
            let report = self.dfs.node_lost(epoch, node, &status.crashed);
            counters.add(Counter::DfsBlocksRereplicated, report.rereplicated);
        }
        let detected =
            self.dfs
                .scan_replicas_for_corruption(input, &replicas, &self.cluster.faults)?;
        counters.add(Counter::DfsCorruptBlocksDetected, detected);
        let survivors = status.survivors();
        if survivors.is_empty() {
            return Err(Error::Degenerate(format!(
                "every live node crashed during job epoch {epoch}; no survivor to finish the job"
            )));
        }
        Ok((
            NodeView {
                epoch,
                status,
                survivors,
            },
            replicas,
        ))
    }

    /// Runs one task as a bounded sequence of attempts under the
    /// cluster's fault plan.
    ///
    /// Each attempt is placed on a node of `nodes`' placement domain —
    /// preferring the nodes in `site.prefer` (the DFS replica holders of
    /// a map task's input block; empty for reduces) when one is in the
    /// domain — and meets the fate [`attempt_fate`] decides. A FAILED,
    /// KILLED or FENCED attempt burns simulated slot time and hands the
    /// task's commit fence to its successor; a RUN attempt executes
    /// `body` against a private counter bank that is merged into the
    /// job's only when the attempt commits, so failed attempts leave no
    /// counter residue (Hadoop likewise discards failed-attempt
    /// counters). A genuine error from `body` is FAILED too.
    ///
    /// Only FAILED attempts consume `max_attempts`. When the budget is
    /// exhausted the last failure decides the error: the genuine task
    /// error, [`Error::HeapSpace`] for an injected heap fault, or
    /// [`Error::AttemptsExhausted`] for an injected transient — so a
    /// heap fault followed by a transient one surfaces
    /// `AttemptsExhausted`.
    fn run_attempts<T>(
        &self,
        nodes: &NodeView,
        site: &TaskSite<'_>,
        counters: &Arc<Counters>,
        mut body: impl FnMut(u32, bool, &Arc<Counters>) -> Result<(T, TaskCost)>,
    ) -> Result<(T, TaskTiming)> {
        let TaskSite {
            job,
            kind,
            index,
            prefer,
        } = *site;
        let plan = &self.cluster.faults;
        let model = &self.cluster.cost_model;
        let spill = self.cluster.out_of_core.spill_enabled;
        let max = plan.max_attempts.max(1);
        // Setup charges of genuine failures, known when they surface.
        let mut failed: Vec<f64> = Vec::new();
        // The other non-committing attempts, whose slot time is only
        // computable once the winner reveals the task's base duration:
        // the progress fraction the attempt reached, plus any detection
        // latency (a heartbeat timeout for kills and zombies).
        let mut pending: Vec<(f64, f64)> = Vec::new();
        let mut last_err: Option<Error> = None;
        let (mut attempt, mut failures, mut zombies) = (0u32, 0u32, 0u32);
        // The task's commit fence: every replacement the JobTracker
        // schedules is granted the token, so whichever attempt holds it
        // at commit time is the one whose output becomes visible.
        let fence = CommitFence::new();
        while failures < max {
            counters.inc(Counter::AttemptsLaunched);
            let (node, node_local) = plan.place(
                nodes.domain(kind, attempt),
                prefer,
                job,
                kind,
                index,
                Some(attempt),
            );
            let (fate, forced_spill) =
                attempt_fate(plan, spill, nodes, site, attempt, node, zombies);
            if forced_spill {
                counters.inc(Counter::HeapSpillRescues);
            }
            let progress = plan.failed_attempt_progress(job, kind, index, attempt);
            let burned = match fate {
                Fate::Failed { heap } => {
                    counters.inc(Counter::AttemptsFailed);
                    failures += 1;
                    last_err = heap.then(|| Error::HeapSpace {
                        task: format!("{}-{index}", kind.label()),
                        attempted: self.cluster.heap_per_task.saturating_add(1),
                        limit: self.cluster.heap_per_task,
                    });
                    Some((progress, 0.0))
                }
                Fate::Killed => {
                    counters.inc(Counter::AttemptsKilled);
                    Some((progress, model.heartbeat_timeout_secs))
                }
                // The zombie finishes its (deterministic, bit-identical)
                // work, holding its slot for the full task, and tries to
                // commit after its duplicate — started once the missed
                // heartbeats were (falsely) confirmed dead — was granted
                // the fence.
                Fate::Fenced => {
                    zombies += 1;
                    counters.inc(Counter::AttemptsFenced);
                    fence.grant(attempt + 1);
                    if !fence.try_commit(attempt) {
                        counters.inc(Counter::ZombieCommitsRejected);
                    }
                    Some((1.0, model.heartbeat_timeout_secs))
                }
                Fate::Run => {
                    let attempt_counters = Arc::new(Counters::new());
                    match body(attempt, forced_spill, &attempt_counters) {
                        // The winner publishes through the fence. Every
                        // attempt before it handed the token on, so the
                        // attempt that gets here always holds it — but
                        // the fence, not the control flow, is the
                        // authority on visibility.
                        Ok((out, cost)) if fence.try_commit(attempt) => {
                            counters.merge(&attempt_counters);
                            // Locality is charged for the winning attempt
                            // only: that is the copy of the work whose
                            // input actually had to reach its node.
                            if kind == TaskKind::Map && !prefer.is_empty() {
                                counters.inc(locality(node_local));
                            }
                            let base = cost.duration(model);
                            let setup = model.task_setup_secs;
                            failed.extend(pending.iter().map(|&(p, detection)| {
                                setup + p * (base - setup).max(0.0) + detection
                            }));
                            let slowdown = plan.straggler_multiplier(job, kind, index, attempt);
                            let timing = TaskTiming {
                                duration: base * slowdown,
                                base,
                                failed,
                                node,
                            };
                            return Ok((out, timing));
                        }
                        Ok(_) => {
                            counters.inc(Counter::AttemptsFenced);
                            counters.inc(Counter::ZombieCommitsRejected);
                            Some((1.0, model.heartbeat_timeout_secs))
                        }
                        Err(e) => {
                            counters.inc(Counter::AttemptsFailed);
                            failures += 1;
                            last_err = Some(e);
                            // How far a genuine failure got is unknowable
                            // here; charge its setup so the slot time is
                            // not free.
                            failed.push(model.task_setup_secs);
                            None
                        }
                    }
                }
            };
            pending.extend(burned);
            fence.grant(attempt + 1);
            attempt += 1;
        }
        Err(last_err.unwrap_or(Error::AttemptsExhausted {
            task: format!("{}-{index}", kind.label()),
            attempts: max,
        }))
    }

    /// Applies speculative execution post hoc and flattens per-task
    /// timings into the duration list the wave scheduler packs: one
    /// entry per winning attempt plus one per failed or losing attempt.
    ///
    /// Speculation is decided from the simulated durations themselves —
    /// a task whose duration exceeds the configured multiple of the
    /// phase median gets a backup attempt launched at that trigger
    /// point, running at the task's healthy-node speed; the first
    /// finisher wins and the loser's slot time is kept in the schedule
    /// as waste. Outputs always come from the primary attempt (both
    /// attempts compute identical results), so speculation never
    /// changes job output — only the simulated schedule.
    fn finalize_phase(&self, timings: Vec<TaskTiming>, counters: &Counters) -> Vec<f64> {
        let plan = &self.cluster.faults;
        // A failure is only detected when the attempt dies, and the
        // replacement attempt starts after that, so every failed
        // attempt serializes in front of the one that finally
        // succeeds: the task's completion is the sum.
        let mut durations: Vec<f64> = timings
            .iter()
            .map(|t| t.failed.iter().sum::<f64>() + t.duration)
            .collect();
        let mut extra: Vec<f64> = Vec::new();
        if let Some(threshold) = plan.speculation.filter(|_| durations.len() >= 2) {
            let mut sorted = durations.clone();
            sorted.sort_by(f64::total_cmp);
            let mid = sorted.len() / 2;
            let median = if sorted.len() % 2 == 0 {
                0.5 * (sorted[mid - 1] + sorted[mid])
            } else {
                sorted[mid]
            };
            let trigger = threshold * median;
            if trigger.is_finite() && trigger > 0.0 {
                for (i, t) in timings.iter().enumerate() {
                    let eff = durations[i];
                    if eff > trigger {
                        counters.inc(Counter::SpeculativeLaunched);
                        counters.inc(Counter::AttemptsLaunched);
                        let backup_total = trigger + t.base;
                        if backup_total < eff {
                            // Backup wins; the primary is killed at the
                            // backup's finish after occupying a slot
                            // the whole time.
                            durations[i] = backup_total;
                            extra.push(backup_total);
                        } else {
                            // Primary wins; the backup's slot time from
                            // launch to the primary's finish is wasted.
                            counters.inc(Counter::SpeculativeWasted);
                            extra.push(eff - trigger);
                        }
                    }
                }
            }
        }
        durations.extend(extra);
        durations
    }

    /// Finds the map outputs the reducers cannot fetch, in re-execution
    /// order, given the node each map's winning attempt ran on:
    ///
    /// 1. outputs stranded on a node that crashed this epoch — in
    ///    Hadoop every reducer independently fails to fetch them and the
    ///    JobTracker notices after a heartbeat timeout;
    /// 2. outputs whose fetch burned its retry budget under the plan's
    ///    network weather — no detection delay, the burned backoff *is*
    ///    the detection time, already charged to the reducers.
    ///
    /// The weather: every `(map output, reduce task)` fetch draws
    /// per-try flake decisions (salt 14). Each flaked try counts one
    /// `fetch_retries` and adds an exponential-backoff wait (salt-15
    /// jitter, summed into `fetch_backoff_secs`) to the fetching
    /// reducer's delay, so the wave scheduler sees the retry delays in
    /// the resulting [`JobTiming`].
    ///
    /// Returns each lost output as `(map index, detection delay)` — an
    /// output both stranded and burned appears twice, as it is
    /// re-executed twice — and each reduce partition's backoff delay.
    fn lost_map_outputs(
        &self,
        nodes: &NodeView,
        site: &JobSite<'_>,
        winners: &[usize],
        counters: &Counters,
    ) -> (Vec<(usize, f64)>, Vec<f64>) {
        let plan = &self.cluster.faults;
        let mut lost: Vec<(usize, f64)> = winners
            .iter()
            .enumerate()
            .filter(|(_, node)| nodes.status.crashed.contains(node))
            .map(|(m, _)| (m, self.cluster.cost_model.heartbeat_timeout_secs))
            .collect();
        let mut delays = vec![0.0f64; site.num_reduce_tasks];
        let budget = plan.fetch_retry_budget.max(1);
        let mut retries: u64 = 0;
        let mut backoff_total = 0.0f64;
        for m in 0..winners.len() {
            let mut burned = false;
            for (p, delay) in delays.iter_mut().enumerate() {
                let mut try_no = 0u32;
                while try_no < budget && plan.fetch_flakes(site.name, m, p, try_no) {
                    retries += 1;
                    let wait = plan.fetch_backoff_secs(site.name, m, p, try_no);
                    *delay += wait;
                    backoff_total += wait;
                    try_no += 1;
                }
                burned |= try_no >= budget;
            }
            if burned {
                lost.push((m, 0.0));
            }
        }
        counters.add(Counter::FetchRetries, retries);
        counters.add(Counter::FetchBackoffSecs, backoff_total.round() as u64);
        (lost, delays)
    }

    /// Re-executes the `lost` map outputs [`JobRunner::lost_map_outputs`]
    /// found, via `rerun`, on survivors (preferring the block's
    /// surviving replica holders), replacing each output's segments and
    /// node. Charges each lost output as one `map_outputs_lost`, one
    /// `shuffle_fetch_failures` per reduce task, one re-executed map and
    /// one launched attempt, plus its locality.
    ///
    /// Re-execution is deterministic: the same split through the same
    /// mapper yields bit-identical segments, so job *output* never
    /// changes — only the schedule. The re-run's counters are charged
    /// to a throwaway bank and discarded (the original attempt already
    /// charged the job), keeping counter totals fault-invariant.
    /// Returns the re-run durations: the detection delay plus the map's
    /// healthy-node time, packed as an extra wave on the survivors' map
    /// slots by [`JobRunner::compute_timing`].
    fn reexecute_maps(
        &self,
        nodes: &NodeView,
        site: &JobSite<'_>,
        counters: &Arc<Counters>,
        map_outputs: &mut [MapTaskOut],
        lost: &[(usize, f64)],
        mut rerun: impl FnMut(usize, &Arc<Counters>) -> MapTaskResult,
    ) -> Result<Vec<f64>> {
        let mut durations = Vec::with_capacity(lost.len());
        for &(i, detection) in lost {
            counters.inc(Counter::MapOutputsLost);
            counters.add(Counter::ShuffleFetchFailures, site.num_reduce_tasks as u64);
            counters.inc(Counter::MapsReexecuted);
            counters.inc(Counter::AttemptsLaunched);
            let prefer = site.replicas.get(i).map(Vec::as_slice).unwrap_or(&[]);
            let (node, node_local) = self.cluster.faults.place(
                &nodes.survivors,
                prefer,
                site.name,
                TaskKind::Map,
                i,
                None,
            );
            if !prefer.is_empty() {
                counters.inc(locality(node_local));
            }
            let (segments, cost) = rerun(i, &Arc::new(Counters::new()))?;
            map_outputs[i].segments = segments;
            map_outputs[i].timing.node = node;
            durations.push(detection + cost.duration(&self.cluster.cost_model));
        }
        Ok(durations)
    }

    /// Computes the job's timing on the cluster's *live* capacity, then
    /// appends the lost-map re-execution wave: those maps run after the
    /// fetch failures surface, on the survivors' map slots, extending
    /// the simulated makespan. With no node faults this reduces exactly
    /// to the full-cluster computation — every duration bit unchanged.
    fn compute_timing(
        &self,
        nodes: &NodeView,
        map_durations: Vec<f64>,
        reduce_durations: Vec<f64>,
        reruns: Vec<f64>,
        wall_secs: f64,
    ) -> JobTiming {
        let mut timing = JobTiming::compute(
            &self.cluster.cost_model,
            map_durations,
            reduce_durations,
            self.cluster.live_map_slots(nodes.status.live.len()),
            self.cluster.live_reduce_slots(nodes.survivors.len()),
            wall_secs,
        );
        if !reruns.is_empty() {
            timing.simulated_secs +=
                makespan(&reruns, self.cluster.live_map_slots(nodes.survivors.len()));
            timing.map_durations.extend(reruns);
        }
        timing
    }

    /// Runs a job over a DFS text file (one dataset read) and returns
    /// its output, counters and timing.
    ///
    /// Every map task reads its own block on its task thread, so a
    /// corrupt stored block fails the attempts that read it, and the
    /// job once the task's attempt budget is spent. It parses its split
    /// [`MAP_BLOCK_POINTS`] lines at a time with [`PointLines`],
    /// quarantining the lines that are not points of the mapper's
    /// dimension as bad records, and hands each block of points to the
    /// mapper exactly as [`JobRunner::run_cached`] hands over a cached
    /// block.
    pub fn run<J: Job>(
        &self,
        job: &J,
        input: &str,
        config: &JobConfig,
    ) -> Result<JobResult<J::Output>> {
        check_reduce_tasks(job, config)?;
        let wall_start = Instant::now();
        let blocks = self.dfs.blocks(input)?;
        self.dfs.begin_dataset_read();
        self.run_job(job, input, config, blocks.len(), wall_start, |i, task| {
            task.run(PointSplit::Text(&blocks[i].read()?))
        })
    }

    /// Runs a job over an in-memory [`PointCache`] instead of a
    /// DFS file — the Spark-style iterative mode of the paper's §6
    /// future work. No dataset read is charged (the cache build already
    /// paid one), no bytes are scanned from the DFS, and no text is
    /// parsed; the map cost is the `secs_per_cached_point` memory-scan
    /// term. Results are identical to [`JobRunner::run`] on the text
    /// form of the same points.
    pub fn run_cached<J: Job>(
        &self,
        job: &J,
        cache: &PointCache,
        config: &JobConfig,
    ) -> Result<JobResult<J::Output>> {
        check_reduce_tasks(job, config)?;
        let wall_start = Instant::now();
        let splits = cache.splits();
        // Cached splits mirror the DFS blocks of the cached file, so
        // locality preferences come from the same journaled block map
        // as the streaming path.
        self.run_job(
            job,
            cache.path(),
            config,
            splits.len(),
            wall_start,
            |i, task| task.run(PointSplit::Cached(&splits[i])),
        )
    }

    /// The job body every input source shares: node weather, the map
    /// phase over `tasks` splits (`map_task(i, attempt)` runs one
    /// attempt over split `i`), lost-map re-execution, the reduce phase
    /// and the simulated timing. `input` is the DFS file whose block
    /// placement keys locality.
    fn run_job<J, T>(
        &self,
        job: &J,
        input: &str,
        config: &JobConfig,
        tasks: usize,
        wall_start: Instant,
        map_task: T,
    ) -> Result<JobResult<J::Output>>
    where
        J: Job,
        T: Fn(usize, MapAttempt<'_, J>) -> MapTaskResult + Sync,
    {
        let counters = Arc::new(Counters::new());
        let (nodes, replicas) = self.begin_job(input, &counters)?;
        let attempt = |i: usize, attempt: u32, forced_spill: bool, c: &Arc<Counters>| {
            map_task(
                i,
                MapAttempt::new(self, job, config, i, attempt, forced_spill, c),
            )
        };

        // ---------------- map phase ----------------
        let live_slots = self.cluster.live_map_slots(nodes.status.live.len());
        let mut map_outputs = run_tasks(self.cluster.execution_threads(live_slots), tasks, |i| {
            let site = TaskSite {
                job: job.name(),
                kind: TaskKind::Map,
                index: i,
                prefer: replicas.get(i).map(Vec::as_slice).unwrap_or(&[]),
            };
            let (segments, timing) =
                self.run_attempts(&nodes, &site, &counters, |a, forced, c| {
                    attempt(i, a, forced, c)
                })?;
            Ok(MapTaskOut { segments, timing })
        })?;

        // Map outputs the reducers cannot fetch — left on a crashed
        // node's dead disk, or behind a fetch that burned its retry
        // budget — are re-executed on survivors; flaked fetches delay
        // their reducers.
        let site = JobSite {
            name: job.name(),
            num_reduce_tasks: config.num_reduce_tasks,
            replicas: &replicas,
        };
        let winners: Vec<usize> = map_outputs.iter().map(|m| m.timing.node).collect();
        let (lost, fetch_delays) = self.lost_map_outputs(&nodes, &site, &winners, &counters);
        let rerun = |i: usize, c: &Arc<Counters>| attempt(i, 0, false, c);
        let reruns =
            self.reexecute_maps(&nodes, &site, &counters, &mut map_outputs, &lost, rerun)?;

        let (map_durations, partitioned) = self.collect_map_outputs(map_outputs, config, &counters);

        // ---------------- reduce phase ----------------
        let (outputs, reduce_durations) =
            self.run_reduce_phase(job, &nodes, partitioned, &fetch_delays, &counters)?;

        let timing = self.compute_timing(
            &nodes,
            map_durations,
            reduce_durations,
            reruns,
            wall_start.elapsed().as_secs_f64(),
        );
        let counters = Arc::try_unwrap(counters).unwrap_or_else(|arc| {
            // All task threads are joined; the Arc is unique in
            // practice. Fall back to a copy if not.
            let c = Counters::new();
            c.merge(&arc);
            c
        });
        Ok(JobResult {
            output: outputs,
            counters,
            timing,
        })
    }

    /// Transposes map outputs into per-partition segment lists and
    /// returns the map task durations (speculation applied, failed
    /// attempts included).
    fn collect_map_outputs(
        &self,
        map_outputs: Vec<MapTaskOut>,
        config: &JobConfig,
        counters: &Counters,
    ) -> (Vec<f64>, Vec<Vec<ShuffleSegment>>) {
        let mut timings = Vec::with_capacity(map_outputs.len());
        let mut partitioned: Vec<Vec<ShuffleSegment>> =
            (0..config.num_reduce_tasks).map(|_| Vec::new()).collect();
        for m in map_outputs {
            timings.push(m.timing);
            for (p, seg) in m.segments.into_iter().enumerate() {
                if !seg.is_empty() {
                    partitioned[p].push(seg);
                }
            }
        }
        (self.finalize_phase(timings, counters), partitioned)
    }

    fn run_reduce_phase<J: Job>(
        &self,
        job: &J,
        nodes: &NodeView,
        partitioned: Vec<Vec<ShuffleSegment>>,
        fetch_delays: &[f64],
        counters: &Arc<Counters>,
    ) -> Result<(Vec<J::Output>, Vec<f64>)> {
        let live_slots = self.cluster.live_reduce_slots(nodes.survivors.len());
        let max_attempts = self.cluster.faults.max_attempts.max(1);
        let inputs: Vec<Mutex<Option<Vec<ShuffleSegment>>>> = partitioned
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect();
        let reduced = run_tasks(
            self.cluster.execution_threads(live_slots),
            inputs.len(),
            |p| {
                let mut store = inputs[p].lock().take();
                let site = TaskSite {
                    job: job.name(),
                    kind: TaskKind::Reduce,
                    index: p,
                    prefer: &[],
                };
                let (out, mut timing) = self.run_attempts(nodes, &site, counters, |_, _, c| {
                    // Retries re-read the shuffled segments; keep a copy
                    // while another attempt may follow. Kills (node loss,
                    // fencing) advance the attempt number without consuming
                    // the failure budget, so only a budget of one — where a
                    // single genuine failure ends the task — proves this
                    // body runs once.
                    let segments = if max_attempts == 1 {
                        store.take().expect("segments present for sole attempt")
                    } else {
                        store.clone().expect("segments present")
                    };
                    self.run_reduce_task(job, p, segments, c)
                })?;
                // Backoff waits for flaked fetches delay this reducer before
                // any attempt can run, whatever node it lands on: charge the
                // wait to both the effective and the healthy-node duration,
                // so speculation never "rescues" a network delay.
                timing.duration += fetch_delays[p];
                timing.base += fetch_delays[p];
                Ok((out, timing))
            },
        )?;
        let (outputs, timings): (Vec<Vec<J::Output>>, Vec<TaskTiming>) =
            reduced.into_iter().unzip();
        let durations = self.finalize_phase(timings, counters);
        Ok((outputs.into_iter().flatten().collect(), durations))
    }

    fn run_reduce_task<J: Job>(
        &self,
        job: &J,
        partition: usize,
        mut sources: Vec<ShuffleSegment>,
        counters: &Arc<Counters>,
    ) -> Result<(Vec<J::Output>, TaskCost)> {
        let mut ctx = TaskContext::new(
            format!("reduce-{partition}"),
            Arc::clone(counters),
            self.cluster.heap_per_task,
        );
        let shuffle_in: u64 = sources.iter().map(|s| s.len() as u64).sum();
        let mut reducer = job.create_reducer();
        let mut out: Vec<J::Output> = Vec::new();

        // Out-of-core reduces bound the merge fan-in the same way the
        // map side does.
        let mut io = SpillIo::default();
        let mut merge_charged = 0u64;
        if let Some(dir) = self.spill.as_ref() {
            merge_charged = premerge::<J::Key, J::Value>(
                dir,
                &self.cluster.out_of_core,
                &mut sources,
                &ctx.heap,
                counters,
                &mut io,
            )?;
        }

        // Input records and groups are tallied here and added once the
        // stream ends: a failed attempt's bank is discarded anyway.
        let mut merge: MergeIter<J::Key, J::Value> = MergeIter::from_sources(sources)?;
        let (mut records, mut keys) = (0u64, 0u64);
        let mut groups = KeyGroups::new(merge.by_ref().inspect(|_| records += 1));
        while let Some(key) = groups.next_key()? {
            keys += 1;
            let mut next_fn = || groups.next_value();
            let values = Values {
                next_fn: &mut next_fn,
            };
            reducer.reduce(key, values, &mut out, &mut ctx)?;
        }
        drop(groups);
        counters.add(Counter::ReduceInputRecords, records);
        counters.add(Counter::ReduceInputGroups, keys);
        ctx.flush_tally();
        io.absorb(&merge.io());
        ctx.heap.release(merge_charged);
        if io.compressed_raw > 0 || io.decompressed_raw > 0 {
            counters.add(Counter::BytesCompressed, io.compressed_raw);
            counters.add(Counter::BytesDecompressed, io.decompressed_raw);
        }
        counters.add(Counter::ReduceOutputRecords, out.len() as u64);
        counters.max(Counter::HeapPeakBytes, ctx.heap.peak());
        Ok((
            out,
            TaskCost {
                input_bytes: 0,
                cached_points: 0,
                shuffle_bytes_out: 0,
                shuffle_bytes_in: shuffle_in,
                compute_units: ctx.compute_units(),
                spill_io_bytes: io.disk_bytes(),
                compressed_bytes: io.compressed_raw,
                decompressed_bytes: io.decompressed_raw,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: &str = "attempts";

    /// A runner over an empty DFS on a 4-node cluster under `plan`.
    fn runner(plan: FaultPlan) -> JobRunner {
        let cluster = ClusterConfig::with_nodes(4).with_faults(plan);
        JobRunner::new(Arc::new(Dfs::new(1 << 16)), cluster).unwrap()
    }

    /// The node weather of the runner's first job epoch.
    fn first_epoch(runner: &JobRunner) -> NodeView {
        let status = runner.cluster.node_status(1);
        let survivors = status.survivors();
        NodeView {
            epoch: 1,
            status,
            survivors,
        }
    }

    fn map_site(index: usize) -> TaskSite<'static> {
        TaskSite {
            job: JOB,
            kind: TaskKind::Map,
            index,
            prefer: &[],
        }
    }

    /// Runs map task `index`'s attempts in the first epoch with a body
    /// that costs nothing; returns the outcome and how often the body
    /// ran.
    fn run_task<T>(
        runner: &JobRunner,
        index: usize,
        counters: &Arc<Counters>,
        mut body: impl FnMut(u32) -> Result<T>,
    ) -> (Result<(T, TaskTiming)>, u32) {
        let mut runs = 0;
        let r = runner.run_attempts(
            &first_epoch(runner),
            &map_site(index),
            counters,
            |a, _, _| {
                runs += 1;
                body(a).map(|out| (out, TaskCost::default()))
            },
        );
        (r, runs)
    }

    #[test]
    fn fate_follows_the_plans_raw_draws() {
        let plan = FaultPlan::hadoop_defaults(5)
            .with_transient_failures(0.15)
            .with_heap_failures(0.2)
            .with_stragglers(0.2, 3.0)
            .with_torn_spills(0.1)
            .with_heartbeat_false_positives(0.3)
            .with_node_crash(1, 1)
            .with_node_crash(1, 2);
        let nodes = first_epoch(&runner(plan));
        assert_eq!(nodes.status.crashed, vec![1, 2]);
        let kind = TaskKind::Map;
        let mut seen: Vec<(Fate, bool)> = Vec::new();
        for spill in [false, true] {
            for zombies in [0, MAX_ZOMBIES_PER_TASK - 1, MAX_ZOMBIES_PER_TASK] {
                for index in 0..30 {
                    for attempt in 0..4 {
                        let (node, _) =
                            plan.place(&nodes.status.live, &[], JOB, kind, index, Some(attempt));
                        let site = map_site(index);
                        let fate =
                            attempt_fate(&plan, spill, &nodes, &site, attempt, node, zombies);
                        let decision = plan.decide(JOB, kind, index, attempt);
                        let rescued = spill && decision == FaultDecision::FailHeap;
                        let killed = nodes.status.crashed.contains(&node)
                            && !plan
                                .attempt_completed_before_crash(JOB, kind, index, attempt, 1, node);
                        let zombie = zombies < MAX_ZOMBIES_PER_TASK
                            && plan.heartbeat_false_positive(JOB, kind, index, attempt);
                        let expected = match decision {
                            FaultDecision::FailTransient => (Fate::Failed { heap: false }, false),
                            FaultDecision::FailHeap if !spill => {
                                (Fate::Failed { heap: true }, false)
                            }
                            _ if killed => (Fate::Killed, rescued),
                            _ if zombie => (Fate::Fenced, rescued),
                            _ => (Fate::Run, rescued),
                        };
                        assert_eq!(
                            fate, expected,
                            "spill {spill}, zombies {zombies}, task {index}, attempt {attempt}"
                        );
                        if !seen.contains(&fate) {
                            seen.push(fate);
                        }
                    }
                }
            }
        }
        // Every fate occurred, and each of the three a rescued attempt
        // can meet.
        assert_eq!(seen.len(), 8, "{seen:?}");
    }

    #[test]
    fn a_failing_body_runs_max_attempts_times_and_its_error_surfaces() {
        let runner = runner(FaultPlan::hadoop_defaults(1));
        let counters = Arc::new(Counters::new());
        let boom = Error::Task("boom".into());
        let (r, runs) = run_task(&runner, 0, &counters, |_| Err::<(), _>(boom.clone()));
        assert_eq!(r.err(), Some(boom));
        assert_eq!(runs, 4);
        assert_eq!(counters.get(Counter::AttemptsFailed), 4);
        assert_eq!(counters.get(Counter::AttemptsLaunched), 4);
    }

    #[test]
    fn a_genuine_error_charges_one_task_setup() {
        let runner = runner(FaultPlan::hadoop_defaults(1));
        let counters = Arc::new(Counters::new());
        let (r, runs) = run_task(&runner, 0, &counters, |attempt| match attempt {
            0 => Err(Error::Task("once".into())),
            _ => Ok(()),
        });
        let (_, timing) = r.unwrap();
        assert_eq!(runs, 2);
        assert_eq!(
            timing.failed,
            vec![runner.cluster.cost_model.task_setup_secs]
        );
    }

    #[test]
    fn the_last_failure_decides_the_exhaustion_error() {
        let plan = FaultPlan::none()
            .with_max_attempts(2)
            .with_transient_failures(0.5)
            .with_heap_failures(0.5);
        let runner = runner(plan);
        let task_failing = |first, second| {
            (0..)
                .find(|&i| {
                    plan.decide(JOB, TaskKind::Map, i, 0) == first
                        && plan.decide(JOB, TaskKind::Map, i, 1) == second
                })
                .unwrap()
        };
        let counters = Arc::new(Counters::new());

        let i = task_failing(FaultDecision::FailHeap, FaultDecision::FailTransient);
        let (r, runs) = run_task(&runner, i, &counters, |_| Ok(()));
        let exhausted = Error::AttemptsExhausted {
            task: format!("map-{i}"),
            attempts: 2,
        };
        assert_eq!((r.err(), runs), (Some(exhausted), 0));

        let i = task_failing(FaultDecision::FailTransient, FaultDecision::FailHeap);
        let (r, runs) = run_task(&runner, i, &counters, |_| Ok(()));
        assert!(matches!(r.err(), Some(Error::HeapSpace { .. })));
        assert_eq!(runs, 0);
    }

    #[test]
    fn kills_and_fences_never_consume_the_budget() {
        const TASKS: usize = 64;
        // A deterministic scan for a storm whose first epoch both kills
        // and fences attempts of the first TASKS tasks, with a node
        // surviving to take the replacements. The budget is one attempt.
        let (counters, runs) = (0u64..)
            .find_map(|seed| {
                let runner = runner(
                    FaultPlan::none()
                        .with_seed(seed)
                        .with_node_crashes(0.4)
                        .with_heartbeat_false_positives(0.4),
                );
                if first_epoch(&runner).survivors.is_empty() {
                    return None;
                }
                let counters = Arc::new(Counters::new());
                let mut runs = 0;
                for index in 0..TASKS {
                    let (r, n) = run_task(&runner, index, &counters, |_| Ok(()));
                    assert!(r.is_ok(), "seed {seed}: task {index} did not commit");
                    runs += n;
                }
                let both = counters.get(Counter::AttemptsKilled) > 0
                    && counters.get(Counter::AttemptsFenced) > 0;
                both.then_some((counters, runs))
            })
            .unwrap();
        assert_eq!(counters.get(Counter::AttemptsFailed), 0);
        assert_eq!(runs, TASKS as u32, "the body runs once per committed task");
        assert_eq!(
            counters.get(Counter::AttemptsFenced),
            counters.get(Counter::ZombieCommitsRejected)
        );
    }

    #[test]
    fn run_tasks_returns_the_lowest_index_error_or_outputs_in_order() {
        for threads in [1, 4] {
            let r = run_tasks(threads, 8, |i| match i {
                2 | 5 => Err(Error::Task(format!("task {i}"))),
                _ => Ok(i),
            });
            assert_eq!(r, Err(Error::Task("task 2".into())), "{threads} threads");
            let r = run_tasks(threads, 8, |i| Ok(i * 10));
            assert_eq!(r, Ok((0..8).map(|i| i * 10).collect()));
        }
        assert_eq!(run_tasks(4, 0, Ok), Ok(Vec::new()));
    }

    /// Map outputs whose winning attempts ran on `winners`.
    fn map_outputs(winners: &[usize]) -> Vec<MapTaskOut> {
        let timing = |node| TaskTiming {
            duration: 0.0,
            base: 0.0,
            failed: Vec::new(),
            node,
        };
        winners
            .iter()
            .map(|&node| MapTaskOut {
                segments: Vec::new(),
                timing: timing(node),
            })
            .collect()
    }

    /// Runs the first epoch's detection pass over map outputs won on
    /// `winners` and re-executes what it finds; returns the lost map
    /// indices.
    fn lose_maps(
        plan: FaultPlan,
        winners: &[usize],
        reduce_tasks: usize,
        counters: &Arc<Counters>,
    ) -> Vec<usize> {
        let runner = runner(plan);
        let nodes = first_epoch(&runner);
        let site = JobSite {
            name: JOB,
            num_reduce_tasks: reduce_tasks,
            replicas: &[],
        };
        let (lost, _) = runner.lost_map_outputs(&nodes, &site, winners, counters);
        let rerun = |_: usize, _: &Arc<Counters>| Ok((Vec::new(), TaskCost::default()));
        let mut outputs = map_outputs(winners);
        runner
            .reexecute_maps(&nodes, &site, counters, &mut outputs, &lost, rerun)
            .unwrap();
        lost.iter().map(|&(m, _)| m).collect()
    }

    #[test]
    fn fetch_failures_name_lost_maps_and_charge_counters() {
        let counters = Arc::new(Counters::new());
        // Maps 0..5 won on nodes 0,2,1,2,0; node 2 crashed.
        let crash = FaultPlan::none().with_node_crash(1, 2);
        let lost = lose_maps(crash, &[0, 2, 1, 2, 0], 3, &counters);
        assert_eq!(lost, vec![1, 3]);
        assert_eq!(counters.get(Counter::MapOutputsLost), 2);
        assert_eq!(counters.get(Counter::ShuffleFetchFailures), 6);
    }

    #[test]
    fn no_crash_means_no_fetch_failures() {
        let counters = Arc::new(Counters::new());
        let lost = lose_maps(FaultPlan::none(), &[0, 1, 2, 3], 4, &counters);
        assert!(lost.is_empty());
        assert_eq!(counters.get(Counter::ShuffleFetchFailures), 0);
    }

    /// Counts its three-coordinate input points under one key; its
    /// mapper returns `missing` rows too few per block.
    struct LineCount {
        missing: usize,
    }
    struct LineCountMapper {
        missing: usize,
    }
    struct LineCountReducer;

    impl Mapper for LineCountMapper {
        type Key = i64;
        type Value = u64;
        type Row = ();

        fn dim(&self) -> usize {
            3
        }

        fn prepare_block(
            &mut self,
            _points: &[f64],
            norms: &[f64],
            _ctx: &mut TaskContext,
        ) -> Result<Vec<()>> {
            Ok(vec![(); norms.len() - self.missing])
        }

        fn map_point(
            &mut self,
            _point: &[f64],
            _row: (),
            out: &mut MapOutput<'_, i64, u64>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.emit(0, &1);
            Ok(())
        }
    }

    impl Reducer for LineCountReducer {
        type Key = i64;
        type Value = u64;
        type Output = u64;
        fn reduce(
            &mut self,
            _key: i64,
            values: Values<'_, u64>,
            out: &mut Vec<u64>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.push(values.sum());
            Ok(())
        }
    }

    impl Job for LineCount {
        type Key = i64;
        type Value = u64;
        type Output = u64;
        type Mapper = LineCountMapper;
        type Reducer = LineCountReducer;
        fn name(&self) -> &str {
            "line-count"
        }
        fn create_mapper(&self) -> LineCountMapper {
            LineCountMapper {
                missing: self.missing,
            }
        }
        fn create_reducer(&self) -> LineCountReducer {
            LineCountReducer
        }
    }

    #[test]
    fn a_corrupt_stored_block_fails_the_job_that_reads_it() {
        let dfs = Arc::new(Dfs::with_compression(256, true));
        dfs.put_lines("in", (0..400).map(|i| format!("{i} {} {}", i * 3, i % 7)))
            .unwrap();
        let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::with_nodes(4)).unwrap();
        let config = JobConfig::with_reducers(1);
        let count = LineCount { missing: 0 };
        let calm = runner.run(&count, "in", &config).unwrap();
        assert_eq!(calm.output, vec![400]);
        // Handing out the blocks still succeeds; the map task reading
        // block 3 fails every attempt, and the job with its error.
        let stored = dfs.swap_stored_block("in", 3, bytes::Bytes::new());
        let torn = bytes::Bytes::from(&stored[..stored.len() - 1]);
        dfs.swap_stored_block("in", 3, torn);
        assert!(dfs.blocks("in").is_ok());
        let err = runner.run(&count, "in", &config).unwrap_err();
        assert!(
            matches!(err, Error::Corrupt(ref msg) if msg.starts_with("in block 3: ")),
            "{err}"
        );
    }

    #[test]
    fn a_block_with_a_row_per_point_missing_fails_the_task() {
        let dfs = Arc::new(Dfs::new(1 << 16));
        dfs.put_lines("in", (0..10).map(|i| format!("{i} 0 0")))
            .unwrap();
        let runner = JobRunner::new(dfs, ClusterConfig::with_nodes(4)).unwrap();
        let err = runner
            .run(
                &LineCount { missing: 1 },
                "in",
                &JobConfig::with_reducers(1),
            )
            .unwrap_err();
        let want = "line-count: prepare_block returned 9 rows for 10 points";
        assert_eq!(err, Error::Task(want.into()));
    }

    #[test]
    fn stranded_outputs_precede_burned_fetches() {
        // One try per fetch: any flake burns the budget.
        let plan = FaultPlan::none()
            .with_node_crash(1, 2)
            .with_fetch_flakes(0.3)
            .with_fetch_retry_budget(1);
        let runner = runner(plan);
        let nodes = first_epoch(&runner);
        let site = JobSite {
            name: JOB,
            num_reduce_tasks: 3,
            replicas: &[],
        };
        let counters = Counters::new();
        let winners = [0, 2, 1, 2, 0, 3, 1, 0];
        let (lost, delays) = runner.lost_map_outputs(&nodes, &site, &winners, &counters);
        let timeout = runner.cluster.cost_model.heartbeat_timeout_secs;
        assert_eq!(lost[..2], [(1, timeout), (3, timeout)]);
        let burned: Vec<(usize, f64)> = (0..winners.len())
            .filter(|&m| (0..3).any(|p| plan.fetch_flakes(JOB, m, p, 0)))
            .map(|m| (m, 0.0))
            .collect();
        assert!(!burned.is_empty());
        assert_eq!(lost[2..], burned[..]);
        let waited: f64 = delays.iter().sum();
        assert!(waited > 0.0);
        assert_eq!(counters.get(Counter::FetchRetries), {
            let flakes = (0..winners.len()).flat_map(|m| (0..3).map(move |p| (m, p)));
            flakes
                .filter(|&(m, p)| plan.fetch_flakes(JOB, m, p, 0))
                .count() as u64
        });
    }

    /// Counts points per (truncated) first coordinate.
    struct CountJob;
    struct CountMapper;
    struct CountReducer;

    impl Mapper for CountMapper {
        type Key = i64;
        type Value = u64;
        type Row = ();

        fn dim(&self) -> usize {
            2
        }

        fn prepare_block(
            &mut self,
            _points: &[f64],
            norms: &[f64],
            _ctx: &mut TaskContext,
        ) -> Result<Vec<()>> {
            Ok(vec![(); norms.len()])
        }

        fn map_point(
            &mut self,
            point: &[f64],
            _row: (),
            out: &mut MapOutput<'_, i64, u64>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.emit(point[0] as i64, &1);
            Ok(())
        }
    }

    impl Reducer for CountReducer {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        fn reduce(
            &mut self,
            key: i64,
            values: Values<'_, u64>,
            out: &mut Vec<(i64, u64)>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.push((key, values.sum()));
            Ok(())
        }
    }

    impl Job for CountJob {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        type Mapper = CountMapper;
        type Reducer = CountReducer;
        fn name(&self) -> &str {
            "count"
        }
        fn create_mapper(&self) -> CountMapper {
            CountMapper
        }
        fn create_reducer(&self) -> CountReducer {
            CountReducer
        }
    }

    /// Emits `x mod 3` records per point `(x, y)` — 0, 1 or 2 — under
    /// key `x mod 7`, and charges `x mod 5` distance computations. The
    /// first mapper it creates fails at its 300th point when
    /// `fail_first` is set.
    struct TallyJob {
        fail_first: bool,
        mappers: AtomicUsize,
    }
    struct TallyMapper {
        fail_at: Option<usize>,
        seen: usize,
    }

    impl Mapper for TallyMapper {
        type Key = i64;
        type Value = u64;
        type Row = ();

        fn dim(&self) -> usize {
            2
        }

        fn prepare_block(
            &mut self,
            _points: &[f64],
            norms: &[f64],
            _ctx: &mut TaskContext,
        ) -> Result<Vec<()>> {
            Ok(vec![(); norms.len()])
        }

        fn map_point(
            &mut self,
            point: &[f64],
            _row: (),
            out: &mut MapOutput<'_, i64, u64>,
            ctx: &mut TaskContext,
        ) -> Result<()> {
            if self.fail_at == Some(self.seen) {
                return Err(Error::Task("failed mid-block".into()));
            }
            self.seen += 1;
            let x = point[0] as u64;
            ctx.charge_distances(x % 5, 2);
            for _ in 0..x % 3 {
                out.emit((x % 7) as i64, &1);
            }
            Ok(())
        }
    }

    impl Job for TallyJob {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        type Mapper = TallyMapper;
        type Reducer = CountReducer;
        fn name(&self) -> &str {
            "tally"
        }
        fn create_mapper(&self) -> TallyMapper {
            let first = self.mappers.fetch_add(1, Ordering::Relaxed) == 0;
            TallyMapper {
                fail_at: (self.fail_first && first).then_some(300),
                seen: 0,
            }
        }
        fn create_reducer(&self) -> CountReducer {
            CountReducer
        }
    }

    /// The per-record counts a map attempt tallies and flushes once per
    /// block reach the job's bank whole: over one text split of three
    /// blocks holding quarantined lines, the committed job counts every
    /// line as a map input record, every emission as a map output
    /// record and every charged distance computation. An attempt that
    /// fails mid-block, after a block was flushed, adds nothing.
    #[test]
    fn map_tallies_reach_the_job_bank_once_per_committed_attempt() {
        let lines: Vec<String> = (0..700u64)
            .map(|i| match i % 37 {
                3 => "not a point".to_string(),
                11 => format!("{i}"),
                _ => format!("{i} {}", i % 4),
            })
            .collect();
        let good: Vec<u64> = (0..700u64)
            .filter(|i| ![3, 11].contains(&(i % 37)))
            .collect();
        let dfs = Arc::new(Dfs::new(1 << 20));
        dfs.put_lines("in", lines.iter().map(String::as_str))
            .unwrap();
        let cluster =
            ClusterConfig::with_nodes(4).with_faults(FaultPlan::none().with_max_attempts(2));
        let runner = JobRunner::new(dfs, cluster).unwrap();
        let config = JobConfig::with_reducers(2);
        let run = |fail_first| {
            let job = TallyJob {
                fail_first,
                mappers: AtomicUsize::new(0),
            };
            let mut r = runner.run(&job, "in", &config).unwrap();
            r.output.sort();
            r
        };
        let (calm, failed) = (run(false), run(true));
        assert_eq!(calm.counters.get(Counter::AttemptsFailed), 0);
        assert_eq!(failed.counters.get(Counter::AttemptsFailed), 1);
        for r in [&calm, &failed] {
            let c = |counter| r.counters.get(counter);
            assert_eq!(c(Counter::MapInputRecords), 700);
            assert_eq!(c(Counter::BadRecordsSkipped), 700 - good.len() as u64);
            assert_eq!(
                c(Counter::MapOutputRecords),
                good.iter().map(|x| x % 3).sum::<u64>()
            );
            assert_eq!(
                c(Counter::DistanceComputations),
                good.iter().map(|x| x % 5).sum::<u64>()
            );
            assert_eq!(c(Counter::ReduceInputRecords), c(Counter::MapOutputRecords));
        }
        assert_eq!(calm.output, failed.output);
    }

    fn staged() -> (JobRunner, PointCache) {
        let dfs = Arc::new(Dfs::new(64));
        dfs.put_lines("pts", ["0.5 1.0", "0.25 2.0", "3.5 0.0", "3.25 1.5"])
            .unwrap();
        let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
        let cache = PointCache::build(&dfs, "pts", 2, crate::text::parse_point).unwrap();
        (runner, cache)
    }

    #[test]
    fn run_and_run_cached_agree() {
        let (runner, cache) = staged();
        let config = JobConfig::with_reducers(2);
        let mut on_disk = runner.run(&CountJob, "pts", &config).unwrap().output;
        let mut cached = runner
            .run_cached(&CountJob, &cache, &config)
            .unwrap()
            .output;
        on_disk.sort();
        cached.sort();
        assert_eq!(on_disk, vec![(0, 2), (3, 2)]);
        assert_eq!(on_disk, cached);
    }

    #[test]
    fn run_cached_skips_the_dataset_scan() {
        let (runner, cache) = staged();
        let config = JobConfig::with_reducers(1);
        let before = runner.dfs().stats().dataset_reads;
        runner.run_cached(&CountJob, &cache, &config).unwrap();
        assert_eq!(runner.dfs().stats().dataset_reads, before);
        let r = runner.run(&CountJob, "pts", &config).unwrap();
        assert!(r.counters.get(Counter::MapInputRecords) > 0);
    }
}
