//! The generic iterative-driver engine.
//!
//! Every MapReduce driver in this crate — G-means (Algorithm 1), plain
//! k-means, multi-k-means (Algorithm 6) and k-means‖ initialization —
//! is the same loop wearing a different algorithm: run an iteration's
//! jobs, fold their outputs into driver state, checkpoint at the
//! iteration boundary, repeat until converged. This module owns that
//! loop once, so every cross-cutting guarantee is single-sourced:
//!
//! * **journal reset / commit** with the serialize-before-charge
//!   ordering (a checkpoint cannot contain the cost of its own commit,
//!   so the charge is applied *after* [`RunJournal::commit`] returns
//!   the stored byte count — and re-applied in the same position on
//!   resume);
//! * **resume recovery**: newest intact checkpoint → decode the run
//!   totals and the algorithm's state (state it could not run is
//!   [`Error::Corrupt`]) → re-apply the loaded checkpoint's commit
//!   charge → rebuild the point cache (physical re-read only) →
//!   continue bit-identically;
//! * **fault degradation**: task failures ([`Error::HeapSpace`],
//!   [`Error::AttemptsExhausted`], [`Error::Degenerate`],
//!   [`Error::ReplicasLost`]) are offered
//!   to the algorithm to absorb; everything else — including the
//!   injected [`Error::DriverCrash`], which a dying process cannot
//!   catch — propagates;
//! * **counters, dataset reads, and the wall/simulated clocks**,
//!   accumulated per job by [`EngineCtx::run_job`] in a fixed order so
//!   resumed totals match uninterrupted ones bit for bit;
//! * **cached-vs-streaming dispatch** ([`ExecutionMode`]): each job
//!   runs through [`JobRunner::run_cached`] when a point cache is
//!   pinned and [`JobRunner::run`] otherwise;
//! * **kernel wiring**: the nearest-center kernel (the k-d index flag,
//!   or the cost-neutral auto backend) is attached by
//!   [`EngineCtx::prepare`], never by algorithms directly.
//!
//! An algorithm implements [`IterativeAlgorithm`]: `fresh` builds the
//! initial state, `iteration` runs one segment — every job up to the
//! next checkpointable boundary, each through [`EngineCtx::run_job`] —
//! and folds the outputs into the state, and `finish` converts the
//! final state into the driver's result. The state is its own journal
//! wire form ([`Writable`]); the engine numbers the boundaries it is
//! journaled at: 0 after `fresh`, one more per completed segment, and
//! on resume the loaded checkpoint's number.
//!
//! A driver is an [`Engine<A>`](Engine) built by
//! [`Engine::for_algorithm`]; its options (`with_execution_mode`,
//! `with_kd_index`, `with_checkpoints`) and `run`/`resume` are written
//! once, here. The four shipped drivers are aliases of it whose own
//! impls hold only their constructors and what else differs. Adding a
//! fifth driver means writing the trait's methods; the engine needs no
//! changes.

use std::sync::Arc;
use std::time::Instant;

use gmr_linalg::Dataset;
use gmr_mapreduce::cache::PointCache;
use gmr_mapreduce::checkpoint::{no_journal_error, RunJournal};
use gmr_mapreduce::cluster::ClusterConfig;
use gmr_mapreduce::cost::JobTiming;
use gmr_mapreduce::counters::{Counter, Counters};
use gmr_mapreduce::job::{Job, JobConfig};
use gmr_mapreduce::runtime::JobRunner;
use gmr_mapreduce::writable::Writable;
use gmr_mapreduce::{Error, Result};

use crate::mr::centers::{CenterSet, KernelBackend};
use crate::mr::sample::sample_points;

/// How a driver feeds the dataset to its jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Hadoop-style: every job re-reads and re-parses the text dataset
    /// from the DFS (the paper's implementation).
    #[default]
    OnDisk,
    /// Spark-style (the paper's §6 future work): the dataset is parsed
    /// once into an in-memory, partition-preserving [`PointCache`];
    /// every job scans the decoded points. One dataset read total
    /// instead of one per job.
    Cached,
}

/// Job and clock totals of the current iteration segment (the jobs
/// since the last checkpointed boundary).
#[derive(Clone, Copy, Debug, Default)]
pub struct SegmentStats {
    /// Simulated seconds of this segment's successful jobs.
    pub simulated_secs: f64,
    /// Successful jobs launched this segment.
    pub jobs: usize,
}

/// Whole-run totals handed to [`IterativeAlgorithm::finish`].
#[derive(Debug)]
pub struct RunStats {
    /// Total simulated seconds (job makespans + checkpoint commits).
    pub simulated_secs: f64,
    /// Real wall-clock of the run so far.
    pub wall_secs: f64,
    /// Total MapReduce jobs launched.
    pub jobs: usize,
    /// Logical dataset reads (serial samples + cache build + per-job
    /// scans of disk-based jobs).
    pub dataset_reads: u64,
    /// Counters accumulated over every successful job.
    pub counters: Counters,
    /// The task failure that ended the run early, if any.
    pub failure: Option<Error>,
}

/// An iterative MapReduce algorithm: the loop the [`Engine`] drives
/// one segment at a time. See the module docs for the contract; the
/// shipped drivers' algorithms ([`crate::mr::driver::GMeansAlgo`],
/// [`crate::mr::kmeans_driver::KMeansAlgo`],
/// [`crate::mr::multi_kmeans::MultiKAlgo`],
/// [`crate::mr::parallel_init::ParInitAlgo`]) are the reference
/// implementations.
pub trait IterativeAlgorithm {
    /// Complete loop state at an iteration boundary, and its own
    /// journal wire form: the engine writes it at every boundary and
    /// reads it back on resume, which replays an interrupted iteration
    /// from its boundary state. `read` must answer any state that
    /// `iteration` could not run with [`Error::Corrupt`].
    type State: Writable;
    /// What the driver ultimately returns.
    type Output;

    /// Driver name, used in journal-configuration errors.
    const NAME: &'static str;
    /// Checkpoint framing magic (also versions the layout; bump on
    /// change). A journal written by one driver cannot resume another.
    const MAGIC: u32;
    /// Whether checkpoint commits are charged to the counters and the
    /// simulated clock. `false` only for drivers that surface neither
    /// (k-means‖ returns a bare center set).
    const CHARGE_COMMITS: bool = true;

    /// Builds the initial state (serial samples via
    /// [`EngineCtx::sample`]).
    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<Self::State>;
    /// Dataset dimensionality, for the cached-mode point cache.
    fn dim(&self, state: &Self::State) -> Result<usize>;
    /// True when no further iterations should run.
    fn done(&self, state: &Self::State) -> bool;
    /// Runs one iteration segment: every job up to the next
    /// checkpointable boundary, each through [`EngineCtx::run_job`],
    /// folding their outputs into the state as they come back.
    /// [`EngineCtx::segment`] holds the segment's stats so far (for
    /// per-iteration reports).
    fn iteration(&self, state: &mut Self::State, ctx: &mut EngineCtx<'_>) -> Result<()>;
    /// Offered an absorbable task failure (heap, attempts exhausted,
    /// degenerate input, lost replicas) that a job of `iteration`
    /// raised, with the state as the iteration left it. Return
    /// `Ok(err)` to degrade gracefully — the run stops and `err` lands
    /// in [`RunStats::failure`] — or `Err` to propagate. The default
    /// propagates.
    fn on_task_failure(
        &self,
        _state: &mut Self::State,
        failure: Error,
        _seg: &SegmentStats,
    ) -> Result<Error> {
        Err(failure)
    }
    /// Converts the final state into the driver result. `ctx` still
    /// accepts [`EngineCtx::run_job`] for deterministic post-loop jobs
    /// (k-means‖ runs its candidate-weighting job here).
    fn finish(
        &self,
        state: Self::State,
        ctx: &mut EngineCtx<'_>,
        stats: RunStats,
    ) -> Result<Self::Output>;
}

/// Run totals the engine owns on behalf of every algorithm; written
/// into the checkpoint frame ahead of the algorithm state.
#[derive(Debug, Default)]
struct Totals {
    jobs: u64,
    reads: u64,
    simulated: f64,
    counters: Counters,
}

impl Writable for Totals {
    fn write(&self, buf: &mut Vec<u8>) {
        self.jobs.write(buf);
        self.reads.write(buf);
        self.simulated.write(buf);
        self.counters.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self {
            jobs: u64::read(buf)?,
            reads: u64::read(buf)?,
            simulated: f64::read(buf)?,
            counters: Counters::read(buf)?,
        })
    }
}

/// Frames engine totals + algorithm state under the driver magic.
fn encode_frame<A: IterativeAlgorithm>(totals: &Totals, state: &A::State) -> Vec<u8> {
    let mut buf = Vec::new();
    A::MAGIC.write(&mut buf);
    totals.write(&mut buf);
    state.write(&mut buf);
    buf
}

/// Unframes a checkpoint payload, rejecting other drivers' journals.
fn decode_frame<A: IterativeAlgorithm>(payload: &[u8]) -> Result<(Totals, A::State)> {
    let mut buf = payload;
    let found = u32::read(&mut buf)?;
    if found != A::MAGIC {
        return Err(Error::Corrupt(format!(
            "checkpoint magic {found:#010x} does not match expected {magic:#010x}",
            magic = A::MAGIC
        )));
    }
    Ok((Totals::read(&mut buf)?, A::State::read(&mut buf)?))
}

/// The engine: one [`IterativeAlgorithm`] on a [`JobRunner`], plus the
/// cross-cutting driver configuration (execution mode, accelerators,
/// journaling). Each shipped driver is an alias of it —
/// [`crate::mr::MRGMeans`], [`crate::mr::MRKMeans`],
/// [`crate::mr::MultiKMeans`] and [`crate::mr::KMeansParallelInit`] —
/// whose own impl holds only its constructor and what else differs.
pub struct Engine<A: IterativeAlgorithm> {
    runner: JobRunner,
    mode: ExecutionMode,
    kd_index: bool,
    checkpoint_dir: Option<String>,
    pub(crate) algo: A,
}

impl<A: IterativeAlgorithm> Engine<A> {
    /// Creates an engine running `algo` on `runner`'s cluster with
    /// default settings: on-disk execution, no accelerators, no
    /// journaling.
    pub fn for_algorithm(runner: JobRunner, algo: A) -> Self {
        Self {
            runner,
            mode: ExecutionMode::OnDisk,
            kd_index: false,
            checkpoint_dir: None,
            algo,
        }
    }

    /// Selects disk-based (Hadoop-style) or cached (Spark-style)
    /// execution. See [`ExecutionMode`].
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables the k-d-tree nearest-center index (the mrkd-tree
    /// acceleration of §2's related work) inside every prepared center
    /// set of the run. Results are identical; the distance-evaluation
    /// counters drop.
    pub fn with_kd_index(mut self, kd_index: bool) -> Self {
        self.kd_index = kd_index;
        self
    }

    /// Journals state into a DFS checkpoint directory after `fresh` and
    /// after every iteration boundary, enabling [`Engine::resume`].
    /// Commit I/O is charged to the simulated clock and the checkpoint
    /// counters unless [`IterativeAlgorithm::CHARGE_COMMITS`] is false.
    pub fn with_checkpoints(mut self, dir: impl Into<String>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    fn journal(&self) -> Option<RunJournal> {
        self.checkpoint_dir
            .as_ref()
            .map(|dir| RunJournal::new(Arc::clone(self.runner.dfs()), dir.clone()))
    }

    /// A context for one run over `input`, starting from `totals`.
    fn ctx<'e>(&'e self, input: &'e str, totals: Totals) -> EngineCtx<'e> {
        EngineCtx {
            runner: &self.runner,
            kd_index: self.kd_index,
            input,
            cache: None,
            totals,
            seg: SegmentStats::default(),
        }
    }

    /// Runs the algorithm against the DFS text file at `input` from a
    /// fresh initial state.
    pub fn run(&self, input: &str) -> Result<A::Output> {
        self.run_with(&self.algo, input)
    }

    /// [`Engine::run`] with `algo` in place of the engine's own
    /// algorithm (a variant of it, such as explicit initial centers).
    pub(crate) fn run_with(&self, algo: &A, input: &str) -> Result<A::Output> {
        let wall = Instant::now();
        // A fresh run starts at job epoch 0 so node-crash draws are a
        // pure function of the fault plan and the job sequence.
        self.runner.sync_job_epochs(0);
        let mut ctx = self.ctx(input, Totals::default());
        let state = algo.fresh(&mut ctx)?;
        self.build_cache(&mut ctx, algo.dim(&state)?, true)?;
        if let Some(journal) = self.journal() {
            journal.reset();
            ctx.commit::<A>(&journal, 0, &state)?;
        }
        self.drive(algo, state, ctx, 0, wall)
    }

    /// Resumes an interrupted checkpointed run from its newest intact
    /// checkpoint, continuing to a result bit-identical to an
    /// uninterrupted [`Engine::run`]. Falls back to a fresh run when
    /// the journal holds no valid checkpoint; errors when the engine
    /// was built without [`Engine::with_checkpoints`], and with
    /// [`Error::Corrupt`] when the checkpoint holds state the
    /// algorithm could not run.
    pub fn resume(&self, input: &str) -> Result<A::Output> {
        let wall = Instant::now();
        let journal = self.journal().ok_or_else(|| no_journal_error(A::NAME))?;
        let ckpt = match journal.latest()? {
            Some(c) => c,
            None => return self.run(input),
        };
        let (totals, state) = decode_frame::<A>(&ckpt.payload)?;
        // Fast-forward the job-epoch counter past the jobs the restored
        // totals already account for, so every remaining job sees the
        // same node weather as in the uninterrupted run.
        self.runner.sync_job_epochs(totals.jobs);
        let mut ctx = self.ctx(input, totals);
        if A::CHARGE_COMMITS {
            // Re-apply the loaded checkpoint's own commit charge: the
            // state was serialized before it, so the uninterrupted
            // run added it right after this point in its accumulation
            // order.
            ctx.apply_commit_charge(ckpt.stored_bytes);
        }
        // Rebuild the point cache (physical re-read only; the logical
        // read is already in the restored totals).
        self.build_cache(&mut ctx, self.algo.dim(&state)?, false)?;
        self.drive(&self.algo, state, ctx, ckpt.seq, wall)
    }

    /// Spark-style mode: parse the dataset once, pin it in memory.
    /// `charge_read` distinguishes a fresh build (one logical read and
    /// its quarantined lines) from a resume rebuild (physical re-read
    /// only).
    fn build_cache(&self, ctx: &mut EngineCtx<'_>, dim: usize, charge_read: bool) -> Result<()> {
        if self.mode == ExecutionMode::Cached {
            let cache = PointCache::build(
                self.runner.dfs(),
                ctx.input,
                dim,
                gmr_mapreduce::text::parse_point,
            )?;
            if charge_read {
                // The cache materialization scans the dataset once.
                ctx.totals.reads += 1;
                let counters = &ctx.totals.counters;
                counters.add(Counter::BadRecordsSkipped, cache.bad_records());
                counters.add(Counter::BadRecordBytes, cache.bad_record_bytes());
            }
            ctx.cache = Some(cache);
        }
        Ok(())
    }

    /// The shared driver loop: one `iteration` per segment until the
    /// algorithm converges, with a checkpoint at every boundary. `seq`
    /// numbers the boundary `state` stands at: 0 after `fresh`, one
    /// more per completed segment.
    fn drive(
        &self,
        algo: &A,
        mut state: A::State,
        mut ctx: EngineCtx<'_>,
        mut seq: u64,
        wall: Instant,
    ) -> Result<A::Output> {
        let journal = self.journal();
        let mut failure: Option<Error> = None;
        while !algo.done(&state) {
            ctx.seg = SegmentStats::default();
            match algo.iteration(&mut state, &mut ctx) {
                Ok(()) => {}
                Err(
                    e @ (Error::HeapSpace { .. }
                    | Error::AttemptsExhausted { .. }
                    | Error::Degenerate(_)
                    | Error::ReplicasLost { .. }),
                ) => {
                    // A job exhausted its task-attempt budget:
                    // absorbable, if the algorithm agrees.
                    ctx.fold_segment();
                    failure = Some(algo.on_task_failure(&mut state, e, &ctx.seg)?);
                    break;
                }
                // Environment/configuration errors — and the injected
                // driver crash, which a dying process cannot catch —
                // propagate.
                Err(e) => return Err(e),
            }
            ctx.fold_segment();
            seq += 1;
            if let Some(journal) = &journal {
                ctx.commit::<A>(journal, seq, &state)?;
            }
        }
        let stats = ctx.stats(wall, failure);
        algo.finish(state, &mut ctx, stats)
    }
}

/// The engine's per-run context: input binding, optional point cache,
/// and the run totals. Algorithms use it to sample, prepare center
/// sets, size reduce phases and run jobs.
pub struct EngineCtx<'e> {
    runner: &'e JobRunner,
    kd_index: bool,
    input: &'e str,
    cache: Option<PointCache>,
    totals: Totals,
    seg: SegmentStats,
}

impl<'e> EngineCtx<'e> {
    /// The input path this run is bound to.
    pub fn input(&self) -> &str {
        self.input
    }

    /// The simulated cluster configuration.
    pub fn cluster(&self) -> &ClusterConfig {
        self.runner.cluster()
    }

    /// Caps a wanted reduce-task count by the cluster's reduce slots
    /// (at least one task).
    pub fn reduce_tasks(&self, wanted: usize) -> usize {
        wanted
            .max(1)
            .min(self.cluster().total_reduce_slots().max(1))
    }

    /// All reduce slots of the cluster (at least one) — for jobs whose
    /// key space is not center-bounded.
    pub fn reduce_slots(&self) -> usize {
        self.cluster().total_reduce_slots().max(1)
    }

    /// Attaches the nearest-center kernel to a center set bound for a
    /// job: the opt-in k-d index (which charges actual evaluations) when
    /// enabled, otherwise the cost-neutral [`KernelBackend::Auto`], so
    /// every distance-heavy mapper inherits the fast path with zero
    /// per-mapper changes.
    pub fn prepare(&self, set: CenterSet) -> CenterSet {
        if self.kd_index && !set.is_empty() {
            set.with_kd_index()
        } else {
            set.with_backend(KernelBackend::Auto)
        }
    }

    /// Reservoir sample of `count` points — one charged dataset read,
    /// exactly like the paper's serial `PickInitialCenters`; blocks are
    /// read and parsed in parallel, the sample is the serial one.
    pub fn sample(&mut self, count: usize, seed: u64) -> Result<Dataset> {
        let sample = sample_points(self.runner, self.input, count, seed)?;
        self.totals.reads += 1;
        Ok(sample)
    }

    /// Stats of the open iteration segment: its successful jobs so far.
    pub fn segment(&self) -> &SegmentStats {
        &self.seg
    }

    /// Runs `job` with `reducers` reduce tasks over the pinned point
    /// cache, or the DFS text file at the input path when none is
    /// pinned, and returns its output records and timing. Absorbs the
    /// job's counters and clock into the run totals, then fires the
    /// injected driver crash if this job boundary is the configured
    /// one. The crash strikes *before* the iteration-end checkpoint, so
    /// a resumed driver replays the interrupted iteration from its
    /// start — re-deriving identical job outcomes from the per-job
    /// fault draws.
    pub fn run_job<J: Job>(
        &mut self,
        job: J,
        reducers: usize,
    ) -> Result<(Vec<J::Output>, JobTiming)> {
        let config = JobConfig::with_reducers(reducers);
        let runner = self.runner;
        let result = match &self.cache {
            Some(cache) => runner.run_cached(&job, cache, &config)?,
            None => {
                // One logical dataset read per disk-based job, charged
                // whether or not the job succeeds (the runtime charges
                // the scan before any task can fail).
                self.totals.reads += 1;
                runner.run(&job, self.input, &config)?
            }
        };
        self.totals.counters.merge(&result.counters);
        self.seg.simulated_secs += result.timing.simulated_secs;
        self.seg.jobs += 1;
        self.totals.jobs += 1;
        let boundary = self.totals.jobs;
        if self.cluster().faults.driver_crashes_at(boundary) {
            return Err(Error::DriverCrash { boundary });
        }
        Ok((result.output, result.timing))
    }

    /// Folds the open iteration segment into the run totals. One f64
    /// addition per boundary — the same accumulation order as the
    /// pre-engine drivers, which is what keeps resumed clocks
    /// bit-identical.
    fn fold_segment(&mut self) {
        self.totals.simulated += self.seg.simulated_secs;
    }

    /// Serialize → commit → charge, in that order (the checkpoint
    /// cannot contain the cost of its own commit).
    fn commit<A: IterativeAlgorithm>(
        &mut self,
        journal: &RunJournal,
        seq: u64,
        state: &A::State,
    ) -> Result<()> {
        let payload = encode_frame::<A>(&self.totals, state);
        let stored = journal.commit(seq, &payload)?;
        if A::CHARGE_COMMITS {
            self.apply_commit_charge(stored);
        }
        Ok(())
    }

    /// Charges one committed (or resume-replayed) checkpoint to the
    /// counters and the simulated clock.
    fn apply_commit_charge(&mut self, stored: u64) {
        self.totals.counters.inc(Counter::CheckpointsCommitted);
        self.totals.counters.add(Counter::CheckpointBytes, stored);
        self.totals.simulated += self.cluster().cost_model.checkpoint_secs(stored);
    }

    /// Copies the run totals out for [`IterativeAlgorithm::finish`].
    fn stats(&self, wall: Instant, failure: Option<Error>) -> RunStats {
        let counters = Counters::new();
        counters.merge(&self.totals.counters);
        RunStats {
            simulated_secs: self.totals.simulated,
            wall_secs: wall.elapsed().as_secs_f64(),
            jobs: self.totals.jobs as usize,
            dataset_reads: self.totals.reads,
            counters,
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GMeansConfig;
    use crate::mr::driver::GMeansAlgo;
    use crate::mr::kmeans_driver::KMeansAlgo;
    use crate::mr::multi_kmeans::MultiKAlgo;
    use crate::mr::parallel_init::ParInitAlgo;
    use crate::mr::{KMeansParallelInit, MRGMeans, MRKMeans, MultiKMeans};
    use gmr_datagen::GaussianMixture;
    use gmr_mapreduce::dfs::Dfs;

    /// A toy algorithm whose state is a bare `u64`, framed under `M`.
    struct Toy<const M: u32>;

    impl<const M: u32> IterativeAlgorithm for Toy<M> {
        type State = u64;
        type Output = ();
        const NAME: &'static str = "Toy";
        const MAGIC: u32 = M;
        fn fresh(&self, _ctx: &mut EngineCtx<'_>) -> Result<u64> {
            Ok(7)
        }
        fn dim(&self, _s: &u64) -> Result<usize> {
            Ok(1)
        }
        fn done(&self, _s: &u64) -> bool {
            true
        }
        fn iteration(&self, _s: &mut u64, _ctx: &mut EngineCtx<'_>) -> Result<()> {
            unreachable!("a done algorithm runs no iteration")
        }
        fn finish(&self, _s: u64, _ctx: &mut EngineCtx<'_>, _r: RunStats) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_reject_foreign_magic() {
        type A = Toy<0xAAAA_0001>;
        type B = Toy<0xBBBB_0001>;
        let totals = Totals::default();
        let payload = encode_frame::<A>(&totals, &7u64);
        let (back, state) = decode_frame::<A>(&payload).unwrap();
        assert_eq!(back.jobs, 0);
        assert_eq!(state, 7);
        assert!(decode_frame::<B>(&payload).is_err());
    }

    /// Decodes every truncation of `payload` and every single-bit flip
    /// after its magic: each must come back `Ok` or `Err`, never panic.
    /// Returns the number of decodes run.
    fn sweep<A: IterativeAlgorithm>(payload: &[u8]) -> usize {
        assert!(decode_frame::<A>(payload).is_ok(), "{}: intact", A::NAME);
        for len in 0..payload.len() {
            assert!(
                decode_frame::<A>(&payload[..len]).is_err(),
                "{}: a {len}-byte prefix decoded",
                A::NAME
            );
        }
        let mut flipped = payload.to_vec();
        for bit in 32..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_frame::<A>(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        payload.len() * 9 - 32
    }

    /// The payloads every driver commits on the driver-engine suite's
    /// dataset survive the truncation and bit-flip sweep.
    #[test]
    fn decoding_mutated_checkpoints_never_panics() {
        const CKPT: &str = "ckpt/sweep";
        let runner = || {
            let dfs = Arc::new(Dfs::new(16 * 1024));
            GaussianMixture::paper_r10(1200, 3, 77)
                .generate_to_dfs(&dfs, "pts")
                .unwrap();
            JobRunner::new(dfs, ClusterConfig::default()).unwrap()
        };
        let payloads = |runner: &JobRunner| -> Vec<Vec<u8>> {
            let journal = RunJournal::new(Arc::clone(runner.dfs()), CKPT);
            let seqs = journal.committed_seqs();
            assert!(seqs.len() > 1, "a run commits every boundary");
            seqs.into_iter()
                .map(|seq| journal.load(seq).unwrap().unwrap().payload)
                .collect()
        };
        let mut decodes = 0;

        let r = runner();
        MRGMeans::new(r.clone(), GMeansConfig::default())
            .with_checkpoints(CKPT)
            .run("pts")
            .unwrap();
        decodes += payloads(&r)
            .iter()
            .map(|p| sweep::<GMeansAlgo>(p))
            .sum::<usize>();

        let r = runner();
        MRKMeans::new(r.clone(), 3, 6, 5)
            .with_checkpoints(CKPT)
            .run("pts")
            .unwrap();
        decodes += payloads(&r)
            .iter()
            .map(|p| sweep::<KMeansAlgo>(p))
            .sum::<usize>();

        let r = runner();
        MultiKMeans::new(r.clone(), 1, 4, 1, 5, 9)
            .with_checkpoints(CKPT)
            .run("pts")
            .unwrap();
        decodes += payloads(&r)
            .iter()
            .map(|p| sweep::<MultiKAlgo>(p))
            .sum::<usize>();

        let r = runner();
        KMeansParallelInit::new(r.clone(), 3, 13)
            .with_checkpoints(CKPT)
            .run("pts")
            .unwrap();
        decodes += payloads(&r)
            .iter()
            .map(|p| sweep::<ParInitAlgo>(p))
            .sum::<usize>();

        assert!(decodes > 100_000, "only {decodes} decodes");
    }
}
