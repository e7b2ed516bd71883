//! Plain MapReduce k-means driver: fixed k, iterated [`KMeansJob`]s.
//!
//! The "common MapReduce implementation of k-means" the paper's
//! abstract compares against; also the refinement engine behind the
//! Table 3 quality comparison (multi-k-means at `k = k_found`, 10
//! iterations). The driver is a [`KMeansAlgo`] state machine on the
//! generic [`Engine`]; [`MRKMeans`] is the thin façade keeping the
//! original constructor-style API.

use std::sync::Arc;

use gmr_linalg::Dataset;
use gmr_mapreduce::cost::JobTiming;
use gmr_mapreduce::counters::Counters;
use gmr_mapreduce::runtime::JobRunner;
use gmr_mapreduce::writable::Writable;
use gmr_mapreduce::{Error, Result};

use crate::mr::centers::{apply_updates, CenterSet, CenterUpdate};
use crate::mr::engine::{
    Engine, EngineCtx, IterativeAlgorithm, JobOutputs, PlannedJob, RunStats, SegmentStats, Step,
};
use crate::mr::kmeans_job::KMeansJob;

/// Result of a MapReduce k-means run.
#[derive(Debug)]
pub struct MRKMeansResult {
    /// Final centers.
    pub centers: Dataset,
    /// Points per center after the last iteration.
    pub counts: Vec<u64>,
    /// Per-iteration job timings.
    pub iteration_timings: Vec<JobTiming>,
    /// Accumulated counters.
    pub counters: Counters,
    /// Total simulated seconds.
    pub simulated_secs: f64,
    /// Real wall-clock seconds.
    pub wall_secs: f64,
    /// The task failure that stopped iterating early, if any; centers
    /// and counts are then those of the last completed iteration.
    pub failure: Option<Error>,
}

/// The driver's complete loop state at an iteration boundary.
pub struct KState {
    /// Completed Lloyd iterations.
    iteration: usize,
    centers: CenterSet,
    counts: Vec<u64>,
    timings: Vec<JobTiming>,
}

/// Journal wire form: the iteration, centers, counts and job timings
/// (run totals travel in the engine's frame, not here).
impl Writable for KState {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.iteration as u64).write(buf);
        self.centers.write(buf);
        self.counts.write(buf);
        self.timings.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self {
            iteration: u64::read(buf)? as usize,
            centers: CenterSet::read(buf)?,
            counts: Vec::read(buf)?,
            timings: Vec::read(buf)?,
        })
    }
}

/// Iterated-Lloyd k-means as a pure state machine on the [`Engine`]:
/// one [`KMeansJob`] per iteration, every iteration a checkpointable
/// boundary.
pub struct KMeansAlgo {
    k: usize,
    iterations: usize,
    seed: u64,
    /// Explicit initial centers (bypasses the random sample).
    init: Option<CenterSet>,
}

impl IterativeAlgorithm for KMeansAlgo {
    type State = KState;
    type Output = MRKMeansResult;

    const NAME: &'static str = "MRKMeans";
    const MAGIC: u32 = 0x4b4d_4e01;

    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<KState> {
        let centers = match &self.init {
            Some(init) => init.clone(),
            None => {
                let sample = ctx.sample(self.k, self.seed)?;
                let mut centers = CenterSet::new(sample.dim());
                for i in 0..self.k {
                    centers.push(i as i64, sample.row(i % sample.len()));
                }
                centers
            }
        };
        let counts = vec![0u64; centers.len()];
        Ok(KState {
            iteration: 0,
            centers,
            counts,
            timings: Vec::with_capacity(self.iterations),
        })
    }

    fn dim(&self, state: &KState) -> Result<usize> {
        Ok(state.centers.dim())
    }

    fn done(&self, state: &KState) -> bool {
        state.iteration >= self.iterations
    }

    fn seq(&self, state: &KState) -> u64 {
        state.iteration as u64
    }

    fn plan(&self, state: &mut KState, ctx: &EngineCtx<'_>) -> Result<Vec<PlannedJob>> {
        let job = KMeansJob::new(Arc::new(state.centers.clone()));
        let reducers = ctx.reduce_tasks(state.centers.len());
        Ok(vec![PlannedJob::new(job, reducers)])
    }

    fn apply(
        &self,
        state: &mut KState,
        mut outputs: Vec<JobOutputs>,
        _seg: &SegmentStats,
    ) -> Result<Step> {
        let (updates, timing) = outputs.remove(0).into_parts::<CenterUpdate>();
        let (next, counts) = apply_updates(&state.centers, &updates);
        state.centers = next;
        state.counts = counts;
        state.timings.push(timing);
        state.iteration += 1;
        Ok(Step::Boundary)
    }

    fn on_task_failure(
        &self,
        _state: &mut KState,
        failure: Error,
        _seg: &SegmentStats,
    ) -> Result<Error> {
        // Degrade: surface the failure alongside the last completed
        // iteration's centers instead of losing the whole run.
        Ok(failure)
    }

    fn finish(
        &self,
        state: KState,
        _ctx: &mut EngineCtx<'_>,
        stats: RunStats,
    ) -> Result<MRKMeansResult> {
        Ok(MRKMeansResult {
            centers: state.centers.to_dataset(),
            counts: state.counts,
            iteration_timings: state.timings,
            counters: stats.counters,
            simulated_secs: stats.simulated_secs,
            wall_secs: stats.wall_secs,
            failure: stats.failure,
        })
    }
}

/// MapReduce k-means with random serial initialization.
pub struct MRKMeans {
    engine: Engine,
    algo: KMeansAlgo,
}

impl MRKMeans {
    /// Creates the driver.
    ///
    /// # Panics
    /// Panics if `k == 0` or `iterations == 0`.
    pub fn new(runner: JobRunner, k: usize, iterations: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(iterations > 0, "need at least one iteration");
        Self {
            engine: Engine::new(runner),
            algo: KMeansAlgo {
                k,
                iterations,
                seed,
                init: None,
            },
        }
    }

    /// Journals driver state into a DFS checkpoint directory after
    /// initialization and after every iteration, enabling
    /// [`MRKMeans::resume`].
    pub fn with_checkpoints(mut self, dir: impl Into<String>) -> Self {
        self.engine = self.engine.with_checkpoints(dir);
        self
    }

    /// Runs on the DFS text file at `input`, initializing from a random
    /// sample (one serial dataset read), then iterating the job.
    pub fn run(&self, input: &str) -> Result<MRKMeansResult> {
        self.engine.run(&self.algo, input)
    }

    /// Runs from explicit initial centers.
    pub fn run_from(&self, input: &str, centers: CenterSet) -> Result<MRKMeansResult> {
        let algo = KMeansAlgo {
            init: Some(centers),
            ..self.algo
        };
        self.engine.run(&algo, input)
    }

    /// Resumes an interrupted checkpointed run from its newest intact
    /// checkpoint (the initial centers travel in the seq-0 checkpoint,
    /// so explicit-init runs resume too), continuing to a result
    /// bit-identical to an uninterrupted run. Falls back to a fresh
    /// [`MRKMeans::run`] when the journal holds no valid checkpoint.
    /// Requires [`MRKMeans::with_checkpoints`].
    pub fn resume(&self, input: &str) -> Result<MRKMeansResult> {
        self.engine.resume(&self.algo, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::{format_point, GaussianMixture};
    use gmr_linalg::euclidean;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;

    #[test]
    fn converges_on_separated_blobs() {
        let d = GaussianMixture::paper_r10(2000, 5, 16).generate().unwrap();
        let dfs = Arc::new(Dfs::new(64 * 1024));
        dfs.put_lines("pts", d.points.rows().map(format_point))
            .unwrap();
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let r = MRKMeans::new(runner, 5, 10, 5).run("pts").unwrap();
        assert_eq!(r.centers.len(), 5);
        assert_eq!(r.counts.iter().sum::<u64>(), 2000);
        assert_eq!(r.iteration_timings.len(), 10);
        // Random init can double-book a blob and strand another (that
        // is exactly the local-minimum behaviour Figure 4 illustrates),
        // so only require that most true centers are recovered.
        let hit = d
            .true_centers
            .rows()
            .filter(|t| {
                r.centers
                    .rows()
                    .map(|c| euclidean(c, t))
                    .fold(f64::INFINITY, f64::min)
                    < 1.0
            })
            .count();
        assert!(hit >= 3, "only {hit}/5 true centers recovered");
    }

    #[test]
    fn mr_matches_serial_lloyd_from_same_start() {
        let d = GaussianMixture::paper_r10(600, 3, 19).generate().unwrap();
        let dfs = Arc::new(Dfs::new(8 * 1024));
        dfs.put_lines("pts", d.points.rows().map(format_point))
            .unwrap();
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();

        let init =
            crate::serial::initial_centers(&d.points, 3, crate::serial::InitStrategy::Random, 5);
        let mut start = CenterSet::new(10);
        for (i, row) in init.rows().enumerate() {
            start.push(i as i64, row);
        }
        let mr = MRKMeans::new(runner, 3, 4, 0)
            .run_from("pts", start)
            .unwrap();
        let serial = crate::serial::kmeans_from(
            &d.points,
            init,
            &crate::config::KMeansConfig::new(3).with_iterations(4),
        );
        for (a, b) in mr.centers.rows().zip(serial.centers.rows()) {
            assert!(
                euclidean(a, b) < 1e-6,
                "MR and serial Lloyd diverged: {a:?} vs {b:?}"
            );
        }
    }
}
