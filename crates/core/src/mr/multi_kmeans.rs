//! Multi-k-means (Algorithm 6): one MapReduce job per Lloyd iteration
//! that updates the centers for **every** k in `[k_min, k_max]`
//! simultaneously.
//!
//! This is the baseline the paper compares G-means against: "all
//! possible values of k can be tested in a single round, thus vastly
//! reducing the number of iterations and dataset reads" — at the price
//! of `O(n·k_max²)` distance computations per iteration, which is what
//! Table 2 and Figure 3 measure.
//!
//! The driver is a [`MultiKAlgo`] state machine on the generic
//! [`Engine`]; [`MultiKMeans`] is the thin façade keeping the original
//! constructor-style API.

use std::collections::HashMap;
use std::sync::Arc;

use gmr_datagen::parse_point_dim_into;
use gmr_linalg::Dataset;
use gmr_mapreduce::cost::JobTiming;
use gmr_mapreduce::counters::Counters;
use gmr_mapreduce::prelude::*;
use gmr_mapreduce::writable::Writable;

use crate::mr::centers::{apply_updates, CenterSet, CenterUpdate};
use crate::mr::engine::{
    CenterSetSnap, Engine, EngineCtx, ExecutionMode, IterativeAlgorithm, JobOutputs, PlannedJob,
    RunStats, SegmentStats, Step, TimingSnap,
};
use crate::mr::kmeans_job::{empty_centers_error, fold_point_sums, PointSum};

/// Intermediate key: `(k-index, center id)` — the paper's `k_centerid`
/// composite key, kept numeric for cheap shuffle sorting.
pub type MultiKey = (u32, u32);

/// The multi-k-means job over one family of center sets.
pub struct MultiKMeansJob {
    sets: Arc<Vec<CenterSet>>,
}

impl MultiKMeansJob {
    /// Creates the job.
    pub fn new(sets: Arc<Vec<CenterSet>>) -> Self {
        assert!(!sets.is_empty(), "need at least one center set");
        assert!(
            sets.iter().all(|s| !s.is_empty()),
            "every center set needs centers"
        );
        Self { sets }
    }
}

/// Mapper: "for k = k_min; k ≤ k_max; k += k_step: find nearest center,
/// emit(k_centerid ⇒ point)".
pub struct MultiKMeansMapper {
    sets: Arc<Vec<CenterSet>>,
    /// Per-point `(id, evals)` rows — one entry per center set — the
    /// blocked kernel computed for the current block, drained one row
    /// per `map_point` call.
    pending: std::collections::VecDeque<Vec<(i64, u64)>>,
}

impl Mapper for MultiKMeansMapper {
    type Key = MultiKey;
    type Value = PointSum;
}

impl PointMapper for MultiKMeansMapper {
    fn dim(&self) -> usize {
        self.sets[0].dim()
    }

    fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool {
        parse_point_dim_into(line, self.dim(), out).is_ok()
    }

    fn map_point(
        &mut self,
        point: &[f64],
        out: &mut MapOutput<'_, MultiKey, PointSum>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let dim = self.dim();
        let row = self
            .pending
            .pop_front()
            .ok_or_else(|| empty_centers_error("MultiKMeans"))?;
        for (ki, (id, evals)) in row.into_iter().enumerate() {
            ctx.charge_distances(evals, dim);
            out.emit((ki as u32, id as u32), (point.to_vec(), 1));
        }
        Ok(())
    }

    fn prepare_block(
        &mut self,
        points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        debug_assert!(self.pending.is_empty(), "undrained block");
        self.pending.clear();
        let n = norms.len();
        let mut rows: Vec<Vec<(i64, u64)>> = vec![Vec::with_capacity(self.sets.len()); n];
        for set in self.sets.iter() {
            let block = set.nearest_block(points, norms);
            if block.len() != n {
                // Degenerate (empty) set: leave the queue empty so
                // `map_point` reports the typed error.
                return Ok(());
            }
            for (row, (_, id, _, evals)) in rows.iter_mut().zip(block) {
                row.push((id, evals));
            }
        }
        self.pending.extend(rows);
        Ok(())
    }
}

/// Reducer: classical centroid mean per `(k, center)` key.
pub struct MultiKMeansReducer;

impl Reducer for MultiKMeansReducer {
    type Key = MultiKey;
    type Value = PointSum;
    type Output = (u32, CenterUpdate);

    fn reduce(
        &mut self,
        key: MultiKey,
        values: Values<'_, PointSum>,
        out: &mut Vec<(u32, CenterUpdate)>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if let Some((sum, count)) = fold_point_sums(values) {
            let inv = 1.0 / count as f64;
            out.push((
                key.0,
                CenterUpdate {
                    id: key.1 as i64,
                    coords: sum.iter().map(|s| s * inv).collect(),
                    count,
                },
            ));
        }
        Ok(())
    }
}

impl Job for MultiKMeansJob {
    type Key = MultiKey;
    type Value = PointSum;
    type Output = (u32, CenterUpdate);
    type Mapper = MultiKMeansMapper;
    type Reducer = MultiKMeansReducer;

    fn name(&self) -> &str {
        "MultiKMeans"
    }

    fn create_mapper(&self) -> MultiKMeansMapper {
        MultiKMeansMapper {
            sets: Arc::clone(&self.sets),
            pending: std::collections::VecDeque::new(),
        }
    }

    fn create_reducer(&self) -> MultiKMeansReducer {
        MultiKMeansReducer
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &MultiKey, values: Vec<PointSum>) -> Vec<PointSum> {
        fold_point_sums(values).into_iter().collect()
    }
}

/// One fitted model of the MapReduce multi-k family.
#[derive(Clone, Debug)]
pub struct MRKModel {
    /// Number of clusters of this model.
    pub k: usize,
    /// Fitted centers.
    pub centers: Dataset,
    /// Points per center after the final iteration.
    pub counts: Vec<u64>,
}

/// Result of a full multi-k-means run.
#[derive(Debug)]
pub struct MultiKMeansResult {
    /// One model per tested k, ascending.
    pub models: Vec<MRKModel>,
    /// Timing of each Lloyd iteration's job.
    pub iteration_timings: Vec<JobTiming>,
    /// Counters accumulated over all jobs.
    pub counters: Counters,
    /// Total simulated seconds.
    pub simulated_secs: f64,
    /// Real wall-clock seconds.
    pub wall_secs: f64,
}

impl MultiKMeansResult {
    /// Average simulated seconds of a single iteration — the quantity
    /// Table 2 reports.
    pub fn avg_iteration_simulated_secs(&self) -> f64 {
        if self.iteration_timings.is_empty() {
            0.0
        } else {
            self.iteration_timings
                .iter()
                .map(|t| t.simulated_secs)
                .sum::<f64>()
                / self.iteration_timings.len() as f64
        }
    }
}

/// The sweep's complete loop state at an iteration boundary.
pub struct MState {
    /// Completed Lloyd iterations.
    iteration: usize,
    sets: Vec<CenterSet>,
    counts: Vec<Vec<u64>>,
    timings: Vec<JobTiming>,
}

/// Journal wire form of [`MState`] (run totals travel in the engine's
/// frame, not here).
pub struct MultiKMeansSnapshot {
    iteration: u64,
    sets: Vec<CenterSetSnap>,
    counts: Vec<Vec<u64>>,
    timings: Vec<TimingSnap>,
}

impl Writable for MultiKMeansSnapshot {
    fn write(&self, buf: &mut Vec<u8>) {
        self.iteration.write(buf);
        self.sets.write(buf);
        self.counts.write(buf);
        self.timings.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self {
            iteration: u64::read(buf)?,
            sets: Vec::read(buf)?,
            counts: Vec::read(buf)?,
            timings: Vec::read(buf)?,
        })
    }
}

/// The multi-k sweep as a pure state machine on the [`Engine`]: one
/// fused job per Lloyd iteration, every iteration a checkpointable
/// boundary. Task failures propagate (the sweep has no partial result
/// worth degrading to).
pub struct MultiKAlgo {
    ks: Vec<usize>,
    iterations: usize,
    seed: u64,
}

impl IterativeAlgorithm for MultiKAlgo {
    type State = MState;
    type Snapshot = MultiKMeansSnapshot;
    type Output = MultiKMeansResult;

    const NAME: &'static str = "MultiKMeans";
    const MAGIC: u32 = 0x4d4b_4e01;

    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<MState> {
        let k_max = *self.ks.last().expect("nonempty ks");
        // Serial init: one reservoir sample feeds every k (centers for
        // k are the first k sampled points).
        let sample = ctx.sample(k_max, self.seed)?;
        let dim = sample.dim();
        let mut sets: Vec<CenterSet> = Vec::with_capacity(self.ks.len());
        for &k in &self.ks {
            let mut set = CenterSet::new(dim);
            for i in 0..k {
                set.push(i as i64, sample.row(i % sample.len()));
            }
            sets.push(set);
        }
        let counts: Vec<Vec<u64>> = sets.iter().map(|s| vec![0; s.len()]).collect();
        Ok(MState {
            iteration: 0,
            sets,
            counts,
            timings: Vec::with_capacity(self.iterations),
        })
    }

    fn dim(&self, state: &MState) -> Result<usize> {
        state
            .sets
            .first()
            .map(|s| s.dim())
            .ok_or_else(|| Error::Corrupt("multi-k snapshot has no center sets".into()))
    }

    fn done(&self, state: &MState) -> bool {
        state.iteration >= self.iterations
    }

    fn seq(&self, state: &MState) -> u64 {
        state.iteration as u64
    }

    fn plan(&self, state: &mut MState, ctx: &EngineCtx<'_>) -> Result<Vec<PlannedJob>> {
        let job_sets: Vec<CenterSet> = state.sets.iter().map(|s| ctx.prepare(s.clone())).collect();
        let job = MultiKMeansJob::new(Arc::new(job_sets));
        let reducers = ctx.reduce_tasks(self.ks.iter().sum::<usize>());
        Ok(vec![PlannedJob::new(job, reducers)])
    }

    fn apply(
        &self,
        state: &mut MState,
        mut outputs: Vec<JobOutputs>,
        _seg: &SegmentStats,
    ) -> Result<Step> {
        let (output, timing) = outputs.remove(0).into_parts::<(u32, CenterUpdate)>();
        let mut per_k: HashMap<u32, Vec<CenterUpdate>> = HashMap::new();
        for (ki, update) in output {
            per_k.entry(ki).or_default().push(update);
        }
        for (ki, set) in state.sets.iter_mut().enumerate() {
            let updates = per_k.remove(&(ki as u32)).unwrap_or_default();
            let (next, c) = apply_updates(set, &updates);
            *set = next;
            state.counts[ki] = c;
        }
        state.timings.push(timing);
        state.iteration += 1;
        Ok(Step::Boundary)
    }

    fn snapshot(&self, state: &MState) -> MultiKMeansSnapshot {
        MultiKMeansSnapshot {
            iteration: state.iteration as u64,
            sets: state.sets.iter().map(CenterSetSnap::from_set).collect(),
            counts: state.counts.clone(),
            timings: state.timings.iter().map(TimingSnap::from_timing).collect(),
        }
    }

    fn restore(&self, snap: MultiKMeansSnapshot) -> Result<MState> {
        let sets = snap
            .sets
            .iter()
            .map(CenterSetSnap::to_set)
            .collect::<Result<Vec<_>>>()?;
        Ok(MState {
            iteration: snap.iteration as usize,
            sets,
            counts: snap.counts,
            timings: snap.timings.iter().map(TimingSnap::to_timing).collect(),
        })
    }

    fn finish(
        &self,
        state: MState,
        _ctx: &mut EngineCtx<'_>,
        stats: RunStats,
    ) -> Result<MultiKMeansResult> {
        let models = state
            .sets
            .iter()
            .zip(&self.ks)
            .zip(&state.counts)
            .map(|((set, &k), c)| MRKModel {
                k,
                centers: set.to_dataset(),
                counts: c.clone(),
            })
            .collect();
        Ok(MultiKMeansResult {
            models,
            iteration_timings: state.timings,
            counters: stats.counters,
            simulated_secs: stats.simulated_secs,
            wall_secs: stats.wall_secs,
        })
    }
}

/// Driver: initializes a center set per k and iterates the fused job.
pub struct MultiKMeans {
    runner: JobRunner,
    ks: Vec<usize>,
    iterations: usize,
    seed: u64,
    mode: ExecutionMode,
    kd_index: bool,
    checkpoint_dir: Option<String>,
}

impl MultiKMeans {
    /// Tests every k in `k_min..=k_max` with the given step.
    ///
    /// # Panics
    /// Panics on an empty k range or zero step/iterations.
    pub fn new(
        runner: JobRunner,
        k_min: usize,
        k_max: usize,
        k_step: usize,
        iterations: usize,
        seed: u64,
    ) -> Self {
        assert!(k_min > 0 && k_min <= k_max, "bad k range");
        assert!(k_step > 0, "k_step must be positive");
        assert!(iterations > 0, "need at least one iteration");
        let ks: Vec<usize> = (k_min..=k_max).step_by(k_step).collect();
        Self {
            runner,
            ks,
            iterations,
            seed,
            mode: ExecutionMode::OnDisk,
            kd_index: false,
            checkpoint_dir: None,
        }
    }

    /// Enables the k-d-tree nearest-center index inside the job.
    pub fn with_kd_index(mut self, kd_index: bool) -> Self {
        self.kd_index = kd_index;
        self
    }

    /// Selects disk-based (Hadoop-style) or cached (Spark-style)
    /// execution. See [`ExecutionMode`].
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The tested k values.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// Journals sweep state into a DFS checkpoint directory after every
    /// iteration, enabling [`MultiKMeans::resume`].
    pub fn with_checkpoints(mut self, dir: impl Into<String>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    fn engine(&self) -> Engine {
        let engine = Engine::new(self.runner.clone())
            .with_execution_mode(self.mode)
            .with_kd_index(self.kd_index);
        match &self.checkpoint_dir {
            Some(dir) => engine.with_checkpoints(dir.clone()),
            None => engine,
        }
    }

    fn algo(&self) -> MultiKAlgo {
        MultiKAlgo {
            ks: self.ks.clone(),
            iterations: self.iterations,
            seed: self.seed,
        }
    }

    /// Runs the sweep over the DFS text file at `input`.
    pub fn run(&self, input: &str) -> Result<MultiKMeansResult> {
        self.engine().run(&self.algo(), input)
    }

    /// Resumes an interrupted checkpointed sweep from its newest intact
    /// snapshot, continuing to a result bit-identical to an
    /// uninterrupted [`MultiKMeans::run`]. Falls back to a fresh run
    /// when the journal holds no valid checkpoint. Requires
    /// [`MultiKMeans::with_checkpoints`].
    pub fn resume(&self, input: &str) -> Result<MultiKMeansResult> {
        self.engine().resume(&self.algo(), input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::{format_point, GaussianMixture};
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;

    fn runner_with_blobs(k_real: usize, n: usize, seed: u64) -> (JobRunner, Dataset) {
        let d = GaussianMixture::paper_r10(n, k_real, seed)
            .generate()
            .unwrap();
        let dfs = Arc::new(Dfs::new(64 * 1024));
        dfs.put_lines("pts", d.points.rows().map(format_point))
            .unwrap();
        (
            JobRunner::new(dfs, ClusterConfig::default()).unwrap(),
            d.points,
        )
    }

    #[test]
    fn sweep_produces_model_per_k() {
        let (runner, data) = runner_with_blobs(4, 1200, 3);
        let mk = MultiKMeans::new(runner, 1, 6, 1, 5, 10);
        let r = mk.run("pts").unwrap();
        assert_eq!(r.models.len(), 6);
        for (i, m) in r.models.iter().enumerate() {
            assert_eq!(m.k, i + 1);
            assert_eq!(m.centers.len(), m.k);
            assert_eq!(m.counts.iter().sum::<u64>(), 1200, "k={} loses points", m.k);
        }
        assert_eq!(r.iteration_timings.len(), 5);
        assert!(r.avg_iteration_simulated_secs() > 0.0);
        // WCSS at k=4 (true k) must crush WCSS at k=1.
        let w1 = crate::eval::wcss(&data, &r.models[0].centers);
        let w4 = crate::eval::wcss(&data, &r.models[3].centers);
        assert!(w4 < w1 / 10.0, "w1={w1} w4={w4}");
    }

    #[test]
    fn distance_count_is_sum_over_ks() {
        let (runner, _) = runner_with_blobs(2, 300, 5);
        let mk = MultiKMeans::new(runner, 1, 4, 1, 1, 2);
        let r = mk.run("pts").unwrap();
        // Per point per iteration: 1+2+3+4 = 10 distance computations.
        assert_eq!(
            r.counters.get(Counter::DistanceComputations),
            300 * 10,
            "O(n·Σk) distances"
        );
    }

    #[test]
    fn step_is_respected() {
        let (runner, _) = runner_with_blobs(2, 200, 6);
        let mk = MultiKMeans::new(runner, 2, 10, 4, 1, 1);
        assert_eq!(mk.ks(), &[2, 6, 10]);
        let r = mk.run("pts").unwrap();
        assert_eq!(r.models.len(), 3);
    }

    #[test]
    #[should_panic(expected = "bad k range")]
    fn bad_range_panics() {
        let (runner, _) = runner_with_blobs(2, 50, 7);
        MultiKMeans::new(runner, 0, 4, 1, 1, 1);
    }
}
