//! The generic iterative-driver engine, proven over every algorithm.
//!
//! All four drivers (G-means, k-means, multi-k-means, k-means‖ init)
//! are state machines on the same [`Engine`]; one shared harness
//! exercises each through the three behaviours the engine owns:
//!
//! * **Goldens** — results are bit-identical to the pre-engine,
//!   hand-rolled drivers. The fingerprints below were captured from
//!   the drivers *before* the engine refactor; any drift in centers,
//!   counts, counters or the simulated clock fails here.
//! * **Crash/resume** — a driver crash injected at every job boundary,
//!   followed by [`resume`], lands bit-identical to the uninterrupted
//!   run.
//! * **Fault storms** — 12% transient task failures change the
//!   makespan but never the answer.
//!
//! A fifth, purpose-built toy algorithm at the bottom shows the engine
//! is generic for real: it runs, checkpoints and resumes a brand-new
//! algorithm with zero engine changes.

use std::sync::Arc;

use gmeans::mr::{apply_updates, CenterUpdate, KMeansJob};
use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, Error, FaultPlan, JobRunner, Writable};
use gmr_mapreduce::Result;

const CKPT: &str = "ckpt/engine";

/// The dataset every golden below was captured on.
fn staged_dfs() -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(16 * 1024));
    GaussianMixture::paper_r10(1200, 3, 77)
        .generate_to_dfs(&dfs, "pts")
        .expect("write dataset");
    dfs
}

fn runner_on(dfs: &Arc<Dfs>, faults: FaultPlan) -> JobRunner {
    let cluster = ClusterConfig::default().with_faults(faults);
    JobRunner::new(Arc::clone(dfs), cluster).expect("valid cluster")
}

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn hash_rows<'a>(rows: impl Iterator<Item = &'a [f64]>) -> u64 {
    fnv(rows.flat_map(|r| r.iter().map(|v| v.to_bits())))
}

/// Everything observable about a finished run, bit-exact.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Fingerprint {
    centers: u64,
    counts: u64,
    sim_bits: u64,
    jobs: u64,
    reads: u64,
    counters: Vec<u64>,
}

/// The answer alone (what fault recovery must preserve while the
/// bookkeeping legitimately changes).
#[derive(Debug, PartialEq, Eq, Clone)]
struct Answer {
    centers: u64,
    counts: u64,
}

impl Fingerprint {
    fn answer(&self) -> Answer {
        Answer {
            centers: self.centers,
            counts: self.counts,
        }
    }
}

fn counter_vec(c: &gmr_mapreduce::counters::Counters) -> Vec<u64> {
    Counter::all().iter().map(|&k| c.get(k)).collect()
}

/// One driver under the shared harness: how to run it fresh and how to
/// resume it, both reduced to a comparable fingerprint.
trait Harness {
    const NAME: &'static str;
    /// Job boundaries a clean run passes (crash points to probe).
    const BOUNDARIES: u64;
    fn run(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint>;
    fn resume(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint>;
}

struct GMeansHarness;
impl Harness for GMeansHarness {
    const NAME: &'static str = "MRGMeans";
    const BOUNDARIES: u64 = 6;
    fn run(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let r = MRGMeans::new(runner_on(dfs, faults), GMeansConfig::default())
            .with_checkpoints(CKPT)
            .run("pts")?;
        Ok(gmeans_fp(&r))
    }
    fn resume(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let r = MRGMeans::new(runner_on(dfs, faults), GMeansConfig::default())
            .with_checkpoints(CKPT)
            .resume("pts")?;
        Ok(gmeans_fp(&r))
    }
}

fn gmeans_fp(r: &MRGMeansResult) -> Fingerprint {
    Fingerprint {
        centers: hash_rows(r.centers.rows()),
        counts: fnv(r.counts.iter().copied()),
        sim_bits: r.simulated_secs.to_bits(),
        jobs: r.jobs as u64,
        reads: r.dataset_reads,
        counters: counter_vec(&r.counters),
    }
}

struct KMeansHarness;
impl Harness for KMeansHarness {
    const NAME: &'static str = "MRKMeans";
    const BOUNDARIES: u64 = 6;
    fn run(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let r = MRKMeans::new(runner_on(dfs, faults), 3, 6, 5)
            .with_checkpoints(CKPT)
            .run("pts")?;
        Ok(kmeans_fp(&r))
    }
    fn resume(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let r = MRKMeans::new(runner_on(dfs, faults), 3, 6, 5)
            .with_checkpoints(CKPT)
            .resume("pts")?;
        Ok(kmeans_fp(&r))
    }
}

fn kmeans_fp(r: &gmeans::mr::MRKMeansResult) -> Fingerprint {
    Fingerprint {
        centers: hash_rows(r.centers.rows()),
        counts: fnv(r.counts.iter().copied()),
        sim_bits: r.simulated_secs.to_bits(),
        jobs: r.iteration_timings.len() as u64,
        reads: 0,
        counters: counter_vec(&r.counters),
    }
}

struct MultiKHarness;
impl Harness for MultiKHarness {
    const NAME: &'static str = "MultiKMeans";
    const BOUNDARIES: u64 = 5;
    fn run(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let r = MultiKMeans::new(runner_on(dfs, faults), 1, 4, 1, 5, 9)
            .with_checkpoints(CKPT)
            .run("pts")?;
        Ok(multik_fp(&r))
    }
    fn resume(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let r = MultiKMeans::new(runner_on(dfs, faults), 1, 4, 1, 5, 9)
            .with_checkpoints(CKPT)
            .resume("pts")?;
        Ok(multik_fp(&r))
    }
}

fn multik_fp(r: &gmeans::mr::MultiKMeansResult) -> Fingerprint {
    Fingerprint {
        centers: fnv(r
            .models
            .iter()
            .flat_map(|m| m.centers.rows())
            .flat_map(|row| row.iter().map(|v| v.to_bits()))),
        counts: fnv(r.models.iter().flat_map(|m| m.counts.iter().copied())),
        sim_bits: r.simulated_secs.to_bits(),
        jobs: r.iteration_timings.len() as u64,
        reads: 0,
        counters: counter_vec(&r.counters),
    }
}

struct ParInitHarness;
impl Harness for ParInitHarness {
    const NAME: &'static str = "KMeansParallelInit";
    const BOUNDARIES: u64 = 6;
    fn run(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let c = KMeansParallelInit::new(runner_on(dfs, faults), 3, 13)
            .with_checkpoints(CKPT)
            .run("pts")?;
        Ok(parinit_fp(&c))
    }
    fn resume(&self, dfs: &Arc<Dfs>, faults: FaultPlan) -> Result<Fingerprint> {
        let c = KMeansParallelInit::new(runner_on(dfs, faults), 3, 13)
            .with_checkpoints(CKPT)
            .resume("pts")?;
        Ok(parinit_fp(&c))
    }
}

fn parinit_fp(c: &CenterSet) -> Fingerprint {
    Fingerprint {
        centers: hash_rows((0..c.len()).map(|i| c.coords(i))),
        counts: fnv((0..c.len()).map(|i| c.id(i) as u64)),
        sim_bits: 0,
        jobs: 0,
        reads: 0,
        counters: Vec::new(),
    }
}

/// Crash the driver at every job boundary of `h`, resume, and demand
/// the fingerprint of the uninterrupted run — counters, clocks and all.
fn crashes_resume_bit_identical<H: Harness>(h: &H) {
    let reference = h
        .run(&staged_dfs(), FaultPlan::none())
        .expect("reference run");
    for boundary in 1..=H::BOUNDARIES {
        let dfs = staged_dfs();
        let err = h
            .run(&dfs, FaultPlan::none().with_driver_crash_after(boundary))
            .expect_err("driver must crash at the injected boundary");
        match err {
            Error::DriverCrash { boundary: b } => assert_eq!(b, boundary, "{}", H::NAME),
            other => panic!("{}: expected DriverCrash, got {other:?}", H::NAME),
        }
        let resumed = h.resume(&dfs, FaultPlan::none()).expect("resume completes");
        assert_eq!(
            reference,
            resumed,
            "{} diverged after resume at boundary {boundary}",
            H::NAME
        );
    }
}

/// 12% transient task failures (recovered by attempt re-execution)
/// must leave the answer untouched.
fn storm_changes_nothing_but_the_clock<H: Harness>(h: &H) {
    let clean = h.run(&staged_dfs(), FaultPlan::none()).expect("clean run");
    let storm = FaultPlan::none()
        .with_seed(9)
        .with_transient_failures(0.12)
        .with_max_attempts(8);
    let faulty = h.run(&staged_dfs(), storm).expect("stormy run survives");
    assert_eq!(
        clean.answer(),
        faulty.answer(),
        "{}: fault recovery changed the answer",
        H::NAME
    );
    assert_eq!(clean.jobs, faulty.jobs, "{}: job count", H::NAME);
}

#[test]
fn every_algorithm_resumes_bit_identical_at_every_boundary() {
    crashes_resume_bit_identical(&GMeansHarness);
    crashes_resume_bit_identical(&KMeansHarness);
    crashes_resume_bit_identical(&MultiKHarness);
    crashes_resume_bit_identical(&ParInitHarness);
}

#[test]
fn every_algorithm_survives_a_transient_storm_unchanged() {
    storm_changes_nothing_but_the_clock(&GMeansHarness);
    storm_changes_nothing_but_the_clock(&KMeansHarness);
    storm_changes_nothing_but_the_clock(&MultiKHarness);
    storm_changes_nothing_but_the_clock(&ParInitHarness);
}

// ---------------------------------------------------------------------
// Goldens: fingerprints captured from the hand-rolled drivers BEFORE
// the engine refactor. These pin the refactor to bit-identity.
// ---------------------------------------------------------------------

#[test]
fn gmeans_matches_the_pre_engine_driver() {
    let r = MRGMeans::new(
        runner_on(&staged_dfs(), FaultPlan::none()),
        GMeansConfig::default(),
    )
    .run("pts")
    .unwrap();
    assert_eq!(r.k(), 2);
    assert_eq!(r.iterations, 2);
    assert_eq!(r.jobs, 6);
    assert_eq!(r.dataset_reads, 7);
    assert_eq!(r.counters.get(Counter::DistanceComputations), 18000);
    assert_eq!(fnv(r.counts.iter().copied()), 0x1f2fbf6b3d6975bf);
    assert_eq!(hash_rows(r.centers.rows()), 0xdaca81e7fad10409);
    assert_eq!(r.simulated_secs.to_bits(), 0x40450059e39b7d6b);
}

#[test]
fn cached_gmeans_matches_the_pre_engine_driver() {
    let r = MRGMeans::new(
        runner_on(&staged_dfs(), FaultPlan::none()),
        GMeansConfig::default(),
    )
    .with_execution_mode(ExecutionMode::Cached)
    .run("pts")
    .unwrap();
    assert_eq!(r.k(), 2);
    assert_eq!(r.jobs, 6);
    assert_eq!(r.dataset_reads, 2, "cached mode reads sample + one scan");
    assert_eq!(hash_rows(r.centers.rows()), 0xdaca81e7fad10409);
    assert_eq!(r.simulated_secs.to_bits(), 0x4045001a13f7bbae);
}

#[test]
fn kmeans_matches_the_pre_engine_driver() {
    let r = MRKMeans::new(runner_on(&staged_dfs(), FaultPlan::none()), 3, 6, 5)
        .run("pts")
        .unwrap();
    assert_eq!(r.counters.get(Counter::DistanceComputations), 21600);
    assert_eq!(hash_rows(r.centers.rows()), 0x1099ab674d075bae);
    assert_eq!(fnv(r.counts.iter().copied()), 0x09a0796ed1bfbcfc);
    assert_eq!(r.simulated_secs.to_bits(), 0x4045005bbabbd32a);
}

#[test]
fn multi_kmeans_matches_the_pre_engine_driver() {
    let r = MultiKMeans::new(runner_on(&staged_dfs(), FaultPlan::none()), 1, 4, 1, 5, 9)
        .run("pts")
        .unwrap();
    assert_eq!(r.models.len(), 4);
    assert_eq!(r.counters.get(Counter::DistanceComputations), 60000);
    let fp = multik_fp(&r);
    assert_eq!(fp.centers, 0x667e8c67fba6225f);
    assert_eq!(fp.counts, 0xa694d62c60cde254);
    assert_eq!(fp.sim_bits, 0x4041805f5d5da928);
}

#[test]
fn parallel_init_matches_the_pre_engine_driver() {
    let c = KMeansParallelInit::new(runner_on(&staged_dfs(), FaultPlan::none()), 3, 13)
        .run("pts")
        .unwrap();
    assert_eq!(c.len(), 3);
    assert_eq!(c.dim(), 10);
    assert_eq!(
        hash_rows((0..c.len()).map(|i| c.coords(i))),
        0xd7973ef4d74560ac
    );
}

// ---------------------------------------------------------------------
// A fifth algorithm, written against the public engine API alone: a
// dataset-centroid finder (one-center Lloyd). Proves a new driver needs
// zero engine changes to get execution, checkpointing and resume.
// ---------------------------------------------------------------------

struct Centroid {
    rounds: usize,
}

struct CentroidState {
    round: usize,
    center: CenterSet,
}

impl Writable for CentroidState {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.round as u64).write(buf);
        self.center.coords(0).to_vec().write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let round = u64::read(buf)? as usize;
        let coords = Vec::<f64>::read(buf)?;
        if coords.is_empty() {
            return Err(Error::Corrupt("centroid of dimension 0".into()));
        }
        let mut center = CenterSet::new(coords.len());
        center.push(0, &coords);
        Ok(Self { round, center })
    }
}

impl IterativeAlgorithm for Centroid {
    type State = CentroidState;
    type Output = Vec<f64>;
    const NAME: &'static str = "Centroid";
    const MAGIC: u32 = 0x1070_0001;

    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<CentroidState> {
        let sample = ctx.sample(1, 7)?;
        let mut center = CenterSet::new(sample.dim());
        center.push(0, sample.row(0));
        Ok(CentroidState { round: 0, center })
    }
    fn dim(&self, state: &CentroidState) -> Result<usize> {
        Ok(state.center.dim())
    }
    fn done(&self, state: &CentroidState) -> bool {
        state.round >= self.rounds
    }
    fn seq(&self, state: &CentroidState) -> u64 {
        state.round as u64
    }
    fn plan(&self, state: &mut CentroidState, ctx: &EngineCtx<'_>) -> Result<Vec<PlannedJob>> {
        let job = KMeansJob::new(Arc::new(state.center.clone()));
        Ok(vec![PlannedJob::new(job, ctx.reduce_tasks(1))])
    }
    fn apply(
        &self,
        state: &mut CentroidState,
        mut outputs: Vec<JobOutputs>,
        _seg: &SegmentStats,
    ) -> Result<Step> {
        let updates = outputs.remove(0).take::<CenterUpdate>();
        let (next, _counts) = apply_updates(&state.center, &updates);
        state.center = next;
        state.round += 1;
        Ok(Step::Boundary)
    }
    fn finish(
        &self,
        state: CentroidState,
        _ctx: &mut EngineCtx<'_>,
        _stats: RunStats,
    ) -> Result<Vec<f64>> {
        Ok(state.center.coords(0).to_vec())
    }
}

#[test]
fn a_new_algorithm_runs_and_resumes_with_zero_engine_changes() {
    let dfs = staged_dfs();
    let clean = Engine::new(runner_on(&dfs, FaultPlan::none()))
        .with_checkpoints(CKPT)
        .run(&Centroid { rounds: 2 }, "pts")
        .expect("toy algorithm runs");
    assert_eq!(clean.len(), 10, "centroid has the dataset's dimension");

    // With one center, every point folds into the same mean: the toy
    // algorithm must land exactly on the true global centroid.
    let check = Engine::new(runner_on(&dfs, FaultPlan::none()))
        .run(&Centroid { rounds: 1 }, "pts")
        .expect("single round");
    assert_eq!(check, clean, "one-center Lloyd converges in one round");

    // Crash it mid-run and resume: same engine guarantees, no new code.
    let crashed = staged_dfs();
    let err = Engine::new(runner_on(
        &crashed,
        FaultPlan::none().with_driver_crash_after(1),
    ))
    .with_checkpoints(CKPT)
    .run(&Centroid { rounds: 2 }, "pts")
    .expect_err("crash");
    assert!(matches!(err, Error::DriverCrash { boundary: 1 }));
    let resumed = Engine::new(runner_on(&crashed, FaultPlan::none()))
        .with_checkpoints(CKPT)
        .resume(&Centroid { rounds: 2 }, "pts")
        .expect("resume");
    assert_eq!(resumed, clean, "resumed toy run diverged");
}
