//! The MapReduce G-means driver (Algorithm 1).
//!
//! ```text
//! PickInitialCenters
//! while Not ClusteringCompleted do
//!     KMeans
//!     KMeansAndFindNewCenters
//!     TestClusters        (or TestFewClusters — §3.2 strategy switch)
//! end while
//! ```
//!
//! The driver orchestrates the per-iteration bookkeeping the paper calls
//! out as the implementation's subtlety: each iteration juggles centers
//! from the **previous** iteration (the cluster memberships points are
//! tested under), the **current** iteration (the children pairs k-means
//! refines and the test projects onto) and the **next** iteration (the
//! candidate pairs `KMeansAndFindNewCenters` picks).
//!
//! Clusters whose projections pass the Anderson–Darling test keep their
//! center and stop splitting; the rest are replaced by their two
//! children. Because *all* clusters split in parallel, k roughly doubles
//! per iteration and the final count overestimates `k_real` by the
//! paper's ≈1.5× (Table 1); [`crate::merge`] implements the
//! post-processing the paper leaves as future work.
//!
//! The driver, [`MRGMeans`], is the generic [`Engine`] running a
//! [`GMeansAlgo`]: each G-means iteration is one engine segment that
//! runs its jobs top to bottom (k-means refinements, the fused
//! find-new-centers job, the split test, an optional reducer-side
//! retry) and is checkpointed at its boundary. Options, crash recovery,
//! fault degradation, counters and clocks are the engine's; the
//! algorithm only runs the jobs and folds their outputs into the
//! cluster hierarchy.

use std::collections::HashMap;
use std::sync::Arc;

use gmr_linalg::{Dataset, SegmentProjector};
use gmr_mapreduce::counters::Counters;
use gmr_mapreduce::writable::Writable;
use gmr_mapreduce::{Error, Result};

use crate::config::GMeansConfig;
use crate::mr::centers::{apply_updates, check_next_id, CenterSet};
use crate::mr::engine::{Engine, EngineCtx, IterativeAlgorithm, RunStats, SegmentStats};
use crate::mr::find_new_centers::{FindNewCentersJob, FindNewOutput};
use crate::mr::kmeans_job::KMeansJob;
use crate::mr::split_test::{SplitTestSpec, TestClustersJob, TestDecision, TestFewClustersJob};
use crate::mr::strategy::{choose_strategy, TestStrategy};
use gmr_mapreduce::runtime::JobRunner;

/// A candidate next-iteration center.
#[derive(Clone, Debug)]
struct Child {
    id: i64,
    coords: Vec<f64>,
}

impl Writable for Child {
    fn write(&self, buf: &mut Vec<u8>) {
        self.id.write(buf);
        self.coords.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self {
            id: i64::read(buf)?,
            coords: Vec::read(buf)?,
        })
    }
}

/// One cluster of the hierarchy.
#[derive(Clone, Debug)]
struct Parent {
    id: i64,
    center: Vec<f64>,
    found: bool,
    count: u64,
    /// The two current-iteration centers being refined (empty once
    /// found).
    children: Vec<Child>,
}

/// Journal wire form: the fields in declaration order, with one
/// reserved byte between `count` and `children` that is always 0. The
/// slot held the keep-verdict streak of the X-means (BIC) split
/// criterion, which this driver no longer has; keeping it keeps every
/// checkpoint byte and checkpoint charge where it was. A non-zero byte
/// is the journal of a BIC run, which G-means would not reproduce, so
/// decoding rejects it.
impl Writable for Parent {
    fn write(&self, buf: &mut Vec<u8>) {
        self.id.write(buf);
        self.center.write(buf);
        self.found.write(buf);
        self.count.write(buf);
        0u8.write(buf);
        self.children.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let id = i64::read(buf)?;
        let center = Vec::read(buf)?;
        let found = bool::read(buf)?;
        let count = u64::read(buf)?;
        let reserved = u8::read(buf)?;
        if reserved != 0 {
            return Err(Error::Corrupt(format!(
                "parent {id} has reserved byte {reserved}: a BIC-criterion checkpoint"
            )));
        }
        Ok(Self {
            id,
            center,
            found,
            count,
            children: Vec::read(buf)?,
        })
    }
}

/// Per-iteration diagnostics.
#[derive(Clone, Debug)]
pub struct IterationReport {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Clusters (parents) at the start of the iteration.
    pub clusters_before: usize,
    /// Clusters actually tested (had a valid split vector).
    pub clusters_tested: usize,
    /// Clusters split this iteration.
    pub splits: usize,
    /// Clusters accepted (found) so far, after the iteration.
    pub found_after: usize,
    /// Total clusters after the iteration.
    pub clusters_after: usize,
    /// Strategy used for the split test, when one ran.
    pub strategy: Option<TestStrategy>,
    /// Simulated seconds of this iteration's jobs.
    pub simulated_secs: f64,
    /// MapReduce jobs launched this iteration.
    pub jobs: usize,
    /// Cluster centers after the iteration (found parents' centers and
    /// unfound parents' children), for trajectory plots like Figure 1.
    pub centers_after: Dataset,
    /// Why the iteration failed, when a job of it exhausted its task
    /// attempts; `None` for iterations that completed.
    pub error: Option<String>,
}

/// Journal wire form: the fields in declaration order, counts as `u64`,
/// the strategy as a one-byte tag and `centers_after` as its dimension
/// then its flat coordinates.
impl Writable for IterationReport {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.iteration as u64).write(buf);
        (self.clusters_before as u64).write(buf);
        (self.clusters_tested as u64).write(buf);
        (self.splits as u64).write(buf);
        (self.found_after as u64).write(buf);
        (self.clusters_after as u64).write(buf);
        self.strategy.map(strategy_tag).write(buf);
        self.simulated_secs.write(buf);
        (self.jobs as u64).write(buf);
        (self.centers_after.dim() as u32).write(buf);
        self.centers_after.flat().to_vec().write(buf);
        self.error.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let iteration = u64::read(buf)? as usize;
        let clusters_before = u64::read(buf)? as usize;
        let clusters_tested = u64::read(buf)? as usize;
        let splits = u64::read(buf)? as usize;
        let found_after = u64::read(buf)? as usize;
        let clusters_after = u64::read(buf)? as usize;
        let strategy = Option::<u8>::read(buf)?
            .map(strategy_from_tag)
            .transpose()?;
        let simulated_secs = f64::read(buf)?;
        let jobs = u64::read(buf)? as usize;
        let dim = u32::read(buf)? as usize;
        let flat = Vec::<f64>::read(buf)?;
        if dim == 0 || flat.len() % dim != 0 {
            return Err(Error::Corrupt(
                "iteration report centers do not fill whole rows".into(),
            ));
        }
        Ok(Self {
            iteration,
            clusters_before,
            clusters_tested,
            splits,
            found_after,
            clusters_after,
            strategy,
            simulated_secs,
            jobs,
            centers_after: Dataset::from_flat(dim, flat),
            error: Option::read(buf)?,
        })
    }
}

/// Result of a MapReduce G-means run.
#[derive(Debug)]
pub struct MRGMeansResult {
    /// Discovered centers.
    pub centers: Dataset,
    /// Points per discovered center (from the last k-means pass).
    pub counts: Vec<u64>,
    /// G-means iterations performed.
    pub iterations: usize,
    /// Per-iteration diagnostics.
    pub reports: Vec<IterationReport>,
    /// Total simulated time (sum of job makespans, incl. job setup and
    /// checkpoint commits).
    pub simulated_secs: f64,
    /// Real wall-clock of the whole run.
    pub wall_secs: f64,
    /// Counters accumulated over every job.
    pub counters: Counters,
    /// Dataset reads consumed (jobs + the initial serial sample).
    pub dataset_reads: u64,
    /// Total MapReduce jobs launched.
    pub jobs: usize,
    /// The task failure that ended the run early, if any. The result
    /// then holds the centers of the last completed iteration, with
    /// still-splitting clusters accepted as-is; counters and timings
    /// cover every *successful* job.
    pub failure: Option<Error>,
}

impl MRGMeansResult {
    /// The discovered number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }
}

/// The G-means driver's complete loop state at an iteration boundary.
pub struct GState {
    dim: usize,
    next_id: i64,
    iteration: usize,
    parents: Vec<Parent>,
    reports: Vec<IterationReport>,
}

/// Every parent's center, keyed by the parent id.
fn parent_centers(dim: usize, parents: &[Parent]) -> Result<CenterSet> {
    CenterSet::try_from_centers(dim, parents.iter().map(|p| (p.id, &p.center[..])))
}

/// The centers an iteration refines: the children of splitting parents
/// and the centers of found ones.
fn current_centers(dim: usize, parents: &[Parent]) -> Result<CenterSet> {
    let centers = parents.iter().flat_map(|p| {
        let own = p.found.then_some((p.id, &p.center[..]));
        own.into_iter()
            .chain(p.children.iter().map(|ch| (ch.id, &ch.coords[..])))
    });
    CenterSet::try_from_centers(dim, centers)
}

impl GState {
    /// Lands the fused job's refined centers and counts in the
    /// hierarchy: a found parent takes its own center's, an unfound one
    /// its children's positions and their summed count.
    fn land(&mut self, refined: &CenterSet, counts: &HashMap<i64, u64>) {
        for p in self.parents.iter_mut() {
            if p.found {
                if let Some(idx) = refined.index_of(p.id) {
                    p.center = refined.coords(idx).to_vec();
                    p.count = counts[&p.id];
                }
            } else {
                for ch in p.children.iter_mut() {
                    if let Some(idx) = refined.index_of(ch.id) {
                        ch.coords = refined.coords(idx).to_vec();
                    }
                }
                p.count = p
                    .children
                    .iter()
                    .map(|ch| counts.get(&ch.id).copied().unwrap_or(0))
                    .sum();
            }
        }
    }

    /// Applies the test decisions: an unfound parent the test split is
    /// replaced by its two children, each taking its two candidates as
    /// children of its own (or found with fewer); every other unfound
    /// parent is found. Returns the number of splits.
    fn split(
        &mut self,
        counts: &HashMap<i64, u64>,
        mut candidates: HashMap<i64, Vec<Vec<f64>>>,
        decisions: &HashMap<i64, TestDecision>,
    ) -> usize {
        let mut splits = 0;
        let parents = std::mem::take(&mut self.parents);
        let mut next_parents: Vec<Parent> = Vec::with_capacity(parents.len() * 2);
        for p in parents {
            if p.found {
                next_parents.push(p);
                continue;
            }
            // No decision: the cluster had no split vector, or no
            // projection reached the test (it lost all its points to
            // neighbours). Keep the center.
            match decisions
                .get(&p.id)
                .copied()
                .unwrap_or(TestDecision::Normal)
            {
                TestDecision::Normal | TestDecision::Undecided => next_parents.push(Parent {
                    found: true,
                    children: Vec::new(),
                    ..p
                }),
                TestDecision::Split => {
                    splits += 1;
                    for ch in p.children {
                        let count = counts.get(&ch.id).copied().unwrap_or(0);
                        let cands = candidates.remove(&ch.id).unwrap_or_default();
                        let (found, children) = if cands.len() < 2 {
                            (true, Vec::new())
                        } else {
                            let mut kids = Vec::with_capacity(2);
                            for coords in cands.into_iter().take(2) {
                                kids.push(Child {
                                    id: self.next_id,
                                    coords,
                                });
                                self.next_id += 1;
                            }
                            (false, kids)
                        };
                        next_parents.push(Parent {
                            id: ch.id,
                            center: ch.coords,
                            found,
                            count,
                            children,
                        });
                    }
                }
            }
        }
        self.parents = next_parents;
        splits
    }

    /// The current iteration's report on the hierarchy as it stands.
    fn report(
        &self,
        clusters_before: usize,
        clusters_tested: usize,
        splits: usize,
        strategy: Option<TestStrategy>,
        seg: &SegmentStats,
    ) -> IterationReport {
        let mut centers_after = Dataset::with_capacity(self.dim, self.parents.len());
        for p in &self.parents {
            centers_after.push(&p.center);
        }
        IterationReport {
            iteration: self.iteration,
            clusters_before,
            clusters_tested,
            splits,
            found_after: self.parents.iter().filter(|p| p.found).count(),
            clusters_after: self.parents.len(),
            strategy,
            simulated_secs: seg.simulated_secs,
            jobs: seg.jobs,
            centers_after,
            error: None,
        }
    }
}

/// Journal wire form: the dimension, next id, iteration, parents and
/// reports. Decoding rejects state `iteration` could not run — a center
/// of the wrong dimension, a duplicate or out-of-range id, a found
/// parent with children or an unsplit one without exactly two, a
/// `next_id` that is not fresh, or a parent whose reserved byte is not
/// 0.
impl Writable for GState {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.dim as u32).write(buf);
        self.next_id.write(buf);
        (self.iteration as u64).write(buf);
        self.parents.write(buf);
        self.reports.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let state = Self {
            dim: u32::read(buf)? as usize,
            next_id: i64::read(buf)?,
            iteration: u64::read(buf)? as usize,
            parents: Vec::read(buf)?,
            reports: Vec::read(buf)?,
        };
        let unrunnable = |p: &&Parent| p.children.len() != if p.found { 0 } else { 2 };
        if let Some(p) = state.parents.iter().find(unrunnable) {
            return Err(Error::Corrupt(format!(
                "parent {} (found: {}) has {} children",
                p.id,
                p.found,
                p.children.len()
            )));
        }
        parent_centers(state.dim, &state.parents)?;
        current_centers(state.dim, &state.parents)?;
        let ids = state
            .parents
            .iter()
            .flat_map(|p| std::iter::once(p.id).chain(p.children.iter().map(|ch| ch.id)));
        check_next_id(state.next_id, ids)?;
        Ok(state)
    }
}

/// Stable wire tag of a [`TestStrategy`].
fn strategy_tag(s: TestStrategy) -> u8 {
    match s {
        TestStrategy::FewClusters => 0,
        TestStrategy::Clusters => 1,
    }
}

/// Inverse of [`strategy_tag`].
fn strategy_from_tag(tag: u8) -> Result<TestStrategy> {
    match tag {
        0 => Ok(TestStrategy::FewClusters),
        1 => Ok(TestStrategy::Clusters),
        other => Err(Error::Corrupt(format!("unknown strategy tag {other}"))),
    }
}

/// G-means (Algorithm 1) on the [`Engine`].
pub struct GMeansAlgo {
    config: GMeansConfig,
    force_strategy: Option<TestStrategy>,
}

impl GMeansAlgo {
    /// Each parent's split vector, the segment between its two refined
    /// children; `None` for found parents and for those settled without
    /// a test: an empty half, fewer than `min_test_sample` points, or
    /// children at one position.
    fn split_vectors(
        &self,
        parents: &[Parent],
        counts: &HashMap<i64, u64>,
    ) -> Vec<Option<SegmentProjector>> {
        let count = |ch: &Child| counts.get(&ch.id).copied().unwrap_or(0);
        parents
            .iter()
            .map(|p| {
                if p.found {
                    return None;
                }
                let (c1, c2) = (&p.children[0], &p.children[1]);
                let (n1, n2) = (count(c1), count(c2));
                if n1 == 0 || n2 == 0 || n1 + n2 < self.config.min_test_sample as u64 {
                    return None;
                }
                let proj = SegmentProjector::new(&c1.coords, &c2.coords);
                (!proj.is_degenerate()).then_some(proj)
            })
            .collect()
    }

    /// `TestClusters` or `TestFewClusters`, as the §3.2 switch (or the
    /// forced strategy) picks, on the `tested` parents that have a
    /// split vector; then a reducer-side re-test of the clusters a
    /// mapper-side test left undecided. Returns each tested parent's
    /// decision and the strategy used.
    fn test_splits(
        &self,
        state: &GState,
        ctx: &mut EngineCtx<'_>,
        projectors: Vec<Option<SegmentProjector>>,
        tested: usize,
    ) -> Result<(HashMap<i64, TestDecision>, TestStrategy)> {
        let parents = Arc::new(ctx.prepare(parent_centers(state.dim, &state.parents)?));
        let biggest = state
            .parents
            .iter()
            .zip(&projectors)
            .filter(|(_, proj)| proj.is_some())
            .map(|(p, _)| p.count)
            .max()
            .unwrap_or(0);
        let strategy = self
            .force_strategy
            .unwrap_or_else(|| choose_strategy(tested, biggest, ctx.cluster()));
        let projectors = Arc::new(projectors);
        let spec = SplitTestSpec::new(
            Arc::clone(&parents),
            Arc::clone(&projectors),
            self.config.ad_test(),
        );
        let reducers = ctx.reduce_tasks(tested);
        let (outcomes, _) = match strategy {
            TestStrategy::FewClusters => ctx.run_job(TestFewClustersJob::new(spec), reducers)?,
            TestStrategy::Clusters => ctx.run_job(TestClustersJob::new(spec), reducers)?,
        };
        let mut decisions: HashMap<i64, TestDecision> = outcomes
            .into_iter()
            .map(|o| (o.parent_id, o.decision))
            .collect();

        // Mapper-side testing comes back undecided where every split's
        // sub-sample was too small; re-test those reducer-side (an
        // extra job, only when needed).
        let undecided: Vec<i64> = decisions
            .iter()
            .filter(|(_, d)| **d == TestDecision::Undecided)
            .map(|(id, _)| *id)
            .collect();
        if !undecided.is_empty() {
            let retry = state
                .parents
                .iter()
                .zip(projectors.iter())
                .map(|(p, proj)| proj.clone().filter(|_| undecided.contains(&p.id)))
                .collect();
            let spec = SplitTestSpec::new(parents, Arc::new(retry), self.config.ad_test());
            let reducers = ctx.reduce_tasks(undecided.len());
            let (outcomes, _) = ctx.run_job(TestClustersJob::new(spec), reducers)?;
            decisions.extend(outcomes.into_iter().map(|o| (o.parent_id, o.decision)));
        }
        Ok((decisions, strategy))
    }
}

impl IterativeAlgorithm for GMeansAlgo {
    type State = GState;
    type Output = MRGMeansResult;

    const NAME: &'static str = "MRGMeans";
    const MAGIC: u32 = 0x474d_4e01;

    /// `PickInitialCenters`: one sample read, charged as one serial
    /// dataset read (its blocks are parsed in parallel, the sample is
    /// the serial one), and the initial one-cluster hierarchy.
    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<GState> {
        let sample = ctx.sample(64, self.config.seed)?;
        let dim = sample.dim();
        let mut acc = gmr_linalg::CentroidAccumulator::new(dim);
        for row in sample.rows() {
            acc.push(row);
        }
        let mean = acc.mean().expect("nonempty sample").into_vec();
        let (i1, i2) = (
            0,
            if sample.len() > 1 {
                sample.len() / 2
            } else {
                0
            },
        );
        let parents = vec![Parent {
            id: 0,
            center: mean,
            found: false,
            count: 0,
            children: vec![
                Child {
                    id: 1,
                    coords: sample.row(i1).to_vec(),
                },
                Child {
                    id: 2,
                    coords: sample.row(i2).to_vec(),
                },
            ],
        }];
        Ok(GState {
            dim,
            next_id: 3,
            iteration: 0,
            parents,
            reports: Vec::new(),
        })
    }

    fn dim(&self, state: &GState) -> Result<usize> {
        Ok(state.dim)
    }

    fn done(&self, state: &GState) -> bool {
        state.parents.iter().all(|p| p.found) || state.iteration >= self.config.max_iterations
    }

    fn iteration(&self, state: &mut GState, ctx: &mut EngineCtx<'_>) -> Result<()> {
        state.iteration += 1;
        let clusters_before = state.parents.len();

        // KMeans: every refinement of the round but the last, on the
        // current centers (children of splitting parents, centers of
        // found ones).
        let mut current = current_centers(state.dim, &state.parents)?;
        let reducers = ctx.reduce_tasks(current.len());
        for _ in 1..self.config.kmeans_iterations_per_round.max(1) {
            let job = KMeansJob::new(Arc::new(ctx.prepare(current.clone())));
            let (updates, _) = ctx.run_job(job, reducers)?;
            current = apply_updates(&current, &updates).0;
        }

        // KMeansAndFindNewCenters: the last refinement, fused with the
        // pick of every center's two candidate children.
        let job = FindNewCentersJob::new(
            Arc::new(ctx.prepare(current.clone())),
            self.config.seed ^ (state.iteration as u64).wrapping_mul(0x9e37),
        );
        let mut updates = Vec::new();
        let mut candidates = HashMap::new();
        for out in ctx.run_job(job, reducers)?.0 {
            match out {
                FindNewOutput::Update(u) => updates.push(u),
                FindNewOutput::Candidates { id, points } => {
                    candidates.insert(id, points);
                }
            }
        }
        let (refined, counts) = apply_updates(&current, &updates);
        let counts: HashMap<i64, u64> = refined.iter().map(|(id, _)| id).zip(counts).collect();
        state.land(&refined, &counts);

        // TestClusters / TestFewClusters on the parents with a split
        // vector; the rest keep their centers without a job.
        let projectors = self.split_vectors(&state.parents, &counts);
        let clusters_tested = projectors.iter().filter(|p| p.is_some()).count();
        let (decisions, strategy) = if clusters_tested > 0 {
            let (decisions, strategy) =
                self.test_splits(state, ctx, projectors, clusters_tested)?;
            (decisions, Some(strategy))
        } else {
            (HashMap::new(), None)
        };

        let splits = state.split(&counts, candidates, &decisions);
        let report = state.report(
            clusters_before,
            clusters_tested,
            splits,
            strategy,
            ctx.segment(),
        );
        state.reports.push(report);
        Ok(())
    }

    fn on_task_failure(
        &self,
        state: &mut GState,
        failure: Error,
        seg: &SegmentStats,
    ) -> Result<Error> {
        // A job of this iteration exhausted its task attempts: report
        // the iteration as failed; `finish` then accepts the hierarchy
        // as the iteration's committed jobs left it.
        let report = IterationReport {
            error: Some(failure.to_string()),
            ..state.report(state.parents.len(), 0, 0, None, seg)
        };
        state.reports.push(report);
        Ok(failure)
    }

    fn finish(
        &self,
        mut state: GState,
        _ctx: &mut EngineCtx<'_>,
        stats: RunStats,
    ) -> Result<MRGMeansResult> {
        // Iteration cap hit (or run ended by a task failure): accept
        // whatever is left.
        for p in state.parents.iter_mut() {
            p.found = true;
        }
        let mut centers = Dataset::with_capacity(state.dim, state.parents.len());
        let mut counts = Vec::with_capacity(state.parents.len());
        for p in &state.parents {
            centers.push(&p.center);
            counts.push(p.count);
        }
        Ok(MRGMeansResult {
            centers,
            counts,
            iterations: state.iteration,
            reports: state.reports,
            simulated_secs: stats.simulated_secs,
            wall_secs: stats.wall_secs,
            counters: stats.counters,
            dataset_reads: stats.dataset_reads,
            jobs: stats.jobs,
            failure: stats.failure,
        })
    }
}

/// MapReduce G-means: [`GMeansAlgo`] on the [`Engine`], which supplies
/// the options, `run` and `resume`. Checkpoints are journaled after
/// `PickInitialCenters` and after every iteration.
pub type MRGMeans = Engine<GMeansAlgo>;

impl MRGMeans {
    /// Creates a driver running on `runner`'s cluster.
    pub fn new(runner: JobRunner, config: GMeansConfig) -> Self {
        Engine::for_algorithm(
            runner,
            GMeansAlgo {
                config,
                force_strategy: None,
            },
        )
    }

    /// Overrides the §3.2 strategy switch, always using the given test
    /// job. For the ablation that measures what switching too early or
    /// too late costs; `None` (the default) applies the paper's rule.
    pub fn with_forced_strategy(mut self, strategy: Option<TestStrategy>) -> Self {
        self.algo.force_strategy = strategy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::centers::OFFSET;
    use gmr_mapreduce::writable::{from_bytes, to_bytes};

    /// `GState::read` itself rejects every hierarchy `iteration` could
    /// not run.
    #[test]
    fn decoding_rejects_hierarchies_the_driver_cannot_run() {
        let child = |id, dim| Child {
            id,
            coords: vec![0.5; dim],
        };
        let state = |next_id, found, children| GState {
            dim: 10,
            next_id,
            iteration: 0,
            parents: vec![Parent {
                id: 0,
                center: vec![0.5; 10],
                found,
                count: 0,
                children,
            }],
            reports: Vec::new(),
        };
        let decode = |s: &GState| from_bytes::<GState>(&to_bytes(s));
        let pair = || vec![child(1, 10), child(2, 10)];
        assert!(decode(&state(3, false, pair())).is_ok());
        assert!(decode(&state(1, true, Vec::new())).is_ok());
        for (case, s) in [
            (
                "a 3-d child",
                state(3, false, vec![child(1, 10), child(2, 3)]),
            ),
            ("one child", state(3, false, vec![child(1, 10)])),
            (
                "a found parent with children",
                state(3, true, vec![child(1, 10), child(2, 10)]),
            ),
            (
                "a repeated child id",
                state(3, false, vec![child(1, 10), child(1, 10)]),
            ),
            (
                "a child id at OFFSET",
                state(3, false, vec![child(1, 10), child(OFFSET, 10)]),
            ),
            (
                "a stale next id",
                state(2, false, vec![child(1, 10), child(2, 10)]),
            ),
        ] {
            match decode(&s) {
                Err(Error::Corrupt(_)) => {}
                Err(e) => panic!("{case}: {e:?}"),
                Ok(_) => panic!("{case}: decoded"),
            }
        }
        // A non-zero reserved byte: the keep-verdict streak a BIC run
        // journaled. The byte sits just before the parent's children
        // and the empty report list that end the encoding.
        let mut bytes = to_bytes(&state(3, false, pair()));
        let tail = to_bytes(&pair()).len() + to_bytes(&Vec::<IterationReport>::new()).len();
        let reserved = bytes.len() - tail - 1;
        assert_eq!(bytes[reserved], 0, "the reserved byte is written as 0");
        bytes[reserved] = 1;
        match from_bytes::<GState>(&bytes) {
            Err(Error::Corrupt(_)) => {}
            Err(e) => panic!("a non-zero reserved byte: {e:?}"),
            Ok(_) => panic!("a non-zero reserved byte: decoded"),
        }
    }

    #[test]
    fn strategy_tags_are_stable() {
        // The journal wire format depends on these exact values.
        assert_eq!(strategy_tag(TestStrategy::FewClusters), 0);
        assert_eq!(strategy_tag(TestStrategy::Clusters), 1);
        assert_eq!(strategy_from_tag(0).unwrap(), TestStrategy::FewClusters);
        assert_eq!(strategy_from_tag(1).unwrap(), TestStrategy::Clusters);
        assert!(strategy_from_tag(9).is_err());
    }
}
