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
//! The driver is a [`GMeansAlgo`] state machine on the generic
//! [`Engine`]: each G-means iteration is one engine segment of several
//! job waves (k-means refinements, the fused find-new-centers job, the
//! split test, an optional reducer-side retry), checkpointed at the
//! iteration boundary. Crash recovery, fault degradation, counters and
//! clocks are the engine's; the state machine only decides what job
//! comes next and how its outputs fold into the cluster hierarchy.

use std::collections::HashMap;
use std::sync::Arc;

use gmr_linalg::{Dataset, SegmentProjector};
use gmr_mapreduce::counters::Counters;
use gmr_mapreduce::writable::Writable;
use gmr_mapreduce::{Error, Result};

use crate::config::GMeansConfig;
use crate::mr::bic_test::{BicTestJob, BicTestSpec};
use crate::mr::centers::{apply_updates, check_next_id, CenterSet, CenterUpdate};
use crate::mr::engine::{
    Engine, EngineCtx, ExecutionMode, IterativeAlgorithm, JobOutputs, PlannedJob, RunStats,
    SegmentStats, Step,
};
use crate::mr::find_new_centers::{FindNewCentersJob, FindNewOutput};
use crate::mr::kmeans_job::KMeansJob;
use crate::mr::split_test::{
    SplitTestSpec, TestClustersJob, TestDecision, TestFewClustersJob, TestOutcome,
};
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
    /// Consecutive keep-verdicts (used by the BIC criterion, which —
    /// like serial X-means — retries a cluster with fresh candidate
    /// children before accepting it).
    normal_streak: u8,
    /// The two current-iteration centers being refined (empty once
    /// found).
    children: Vec<Child>,
}

impl Writable for Parent {
    fn write(&self, buf: &mut Vec<u8>) {
        self.id.write(buf);
        self.center.write(buf);
        self.found.write(buf);
        self.count.write(buf);
        self.normal_streak.write(buf);
        self.children.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok(Self {
            id: i64::read(buf)?,
            center: Vec::read(buf)?,
            found: bool::read(buf)?,
            count: u64::read(buf)?,
            normal_streak: u8::read(buf)?,
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

/// Which statistical criterion decides whether a cluster splits.
///
/// The driver, jobs, bookkeeping and strategy machinery are shared;
/// only the per-cluster decision differs — exactly the G-means/X-means
/// relationship §2 describes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitCriterion {
    /// Anderson–Darling normality of the child-axis projections
    /// (G-means — the paper's contribution).
    #[default]
    AndersonDarling,
    /// Bayesian Information Criterion comparison of the one-center vs
    /// two-children models (X-means, Pelleg & Moore).
    Bic,
}

/// Where inside one G-means iteration the state machine stands: which
/// job wave [`GMeansAlgo::plan`] emits next.
enum GPhase {
    /// `remaining` plain k-means refinement waves left before the fused
    /// job.
    Refine { remaining: usize },
    /// The fused `KMeansAndFindNewCenters` wave.
    FindNew,
    /// The split-test wave (BIC aggregation, or the §3.2
    /// strategy-chosen Anderson–Darling job).
    Test,
    /// Reducer-side re-test of clusters the mapper-side job left
    /// undecided.
    Retry,
}

/// Intra-iteration scratch: everything the iteration accumulates
/// between its job waves. Deliberately *not* checkpointed — a resume
/// replays the interrupted iteration from its boundary checkpoint and
/// re-derives identical scratch.
struct IterScratch {
    phase: GPhase,
    clusters_before: usize,
    /// Centers being refined this iteration (children of splitting
    /// parents + centers of found ones).
    current: CenterSet,
    kmeans_reducers: usize,
    /// Post-refinement per-center point counts.
    counts: HashMap<i64, u64>,
    /// Candidate next-iteration centers per current center.
    candidates: HashMap<i64, Vec<Vec<f64>>>,
    /// Split vectors per parent index (`None` = not testable).
    projectors: Vec<Option<SegmentProjector>>,
    /// Child coordinate pairs per parent index (the BIC test's input).
    child_pairs: Vec<Option<(Vec<f64>, Vec<f64>)>>,
    /// Parent indices settled without a job (empty half / too small /
    /// degenerate axis).
    auto_normal: Vec<usize>,
    clusters_tested: usize,
    decisions: HashMap<i64, TestOutcome>,
    strategy_used: Option<TestStrategy>,
    /// Ids the mapper-side test left undecided (feeds the retry wave).
    undecided: Vec<i64>,
}

/// The G-means driver's complete loop state at an iteration boundary.
pub struct GState {
    dim: usize,
    next_id: i64,
    iteration: usize,
    parents: Vec<Parent>,
    reports: Vec<IterationReport>,
    /// In-flight iteration scratch; `None` at boundaries.
    scratch: Option<IterScratch>,
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

/// Journal wire form: the dimension, next id, iteration, parents and
/// reports. The scratch is not written: the engine journals only at
/// iteration boundaries, where it is `None`. Decoding rejects state
/// `plan` or `apply` could not run — a center of the wrong dimension, a
/// duplicate or out-of-range id, a found parent with children or an
/// unsplit one without exactly two, or a `next_id` that is not fresh.
impl Writable for GState {
    fn write(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.scratch.is_none(), "journaled mid-iteration");
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
            scratch: None,
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

/// G-means (Algorithm 1) as a pure state machine on the [`Engine`].
pub struct GMeansAlgo {
    config: GMeansConfig,
    criterion: SplitCriterion,
    force_strategy: Option<TestStrategy>,
}

impl GMeansAlgo {
    /// Ends the iteration: folds decisions into the hierarchy and
    /// pushes the iteration report.
    fn finalize_iteration(&self, state: &mut GState, scratch: IterScratch, seg: &SegmentStats) {
        let IterScratch {
            clusters_before,
            counts,
            mut candidates,
            auto_normal,
            clusters_tested,
            decisions,
            strategy_used,
            ..
        } = scratch;
        let mut splits = 0usize;
        let parents = std::mem::take(&mut state.parents);
        let mut next_parents: Vec<Parent> = Vec::with_capacity(parents.len() * 2);
        for (pi, p) in parents.into_iter().enumerate() {
            if p.found {
                next_parents.push(p);
                continue;
            }
            let decision = if auto_normal.contains(&pi) {
                TestDecision::Normal
            } else {
                decisions
                    .get(&p.id)
                    .map(|o| o.decision)
                    // No projections reached the test (e.g. the
                    // cluster lost all its points to neighbours):
                    // keep the center.
                    .unwrap_or(TestDecision::Normal)
            };
            match decision {
                TestDecision::Normal | TestDecision::Undecided => {
                    // The BIC criterion retries once with a fresh
                    // child pair (serial X-means re-attempts every
                    // structure round); a one-shot keep-verdict is
                    // too sensitive to an unlucky candidate pair.
                    let streak = p.normal_streak.saturating_add(1);
                    let retries = match self.criterion {
                        SplitCriterion::AndersonDarling => 1,
                        SplitCriterion::Bic => 2,
                    };
                    let fresh_pair = (!p.children.is_empty()).then(|| {
                        let a = candidates
                            .remove(&p.children[0].id)
                            .unwrap_or_default()
                            .into_iter()
                            .next();
                        let b = candidates
                            .remove(&p.children[1].id)
                            .unwrap_or_default()
                            .into_iter()
                            .next();
                        (a, b)
                    });
                    if streak >= retries {
                        next_parents.push(Parent {
                            found: true,
                            children: Vec::new(),
                            ..p
                        });
                    } else if let Some((Some(a), Some(b))) = fresh_pair {
                        let mut kids = Vec::with_capacity(2);
                        for coords in [a, b] {
                            kids.push(Child {
                                id: state.next_id,
                                coords,
                            });
                            state.next_id += 1;
                        }
                        next_parents.push(Parent {
                            normal_streak: streak,
                            children: kids,
                            ..p
                        });
                    } else {
                        // No fresh candidates: accept.
                        next_parents.push(Parent {
                            found: true,
                            children: Vec::new(),
                            ..p
                        });
                    }
                }
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
                                    id: state.next_id,
                                    coords,
                                });
                                state.next_id += 1;
                            }
                            (false, kids)
                        };
                        next_parents.push(Parent {
                            id: ch.id,
                            center: ch.coords,
                            found,
                            count,
                            normal_streak: 0,
                            children,
                        });
                    }
                }
            }
        }
        state.parents = next_parents;

        let mut centers_after = Dataset::with_capacity(state.dim, state.parents.len());
        for p in &state.parents {
            centers_after.push(&p.center);
        }
        state.reports.push(IterationReport {
            iteration: state.iteration,
            clusters_before,
            clusters_tested,
            splits,
            found_after: state.parents.iter().filter(|p| p.found).count(),
            clusters_after: state.parents.len(),
            strategy: strategy_used,
            simulated_secs: seg.simulated_secs,
            jobs: seg.jobs,
            centers_after,
            error: None,
        });
    }
}

impl IterativeAlgorithm for GMeansAlgo {
    type State = GState;
    type Output = MRGMeansResult;

    const NAME: &'static str = "MRGMeans";
    const MAGIC: u32 = 0x474d_4e01;

    /// `PickInitialCenters`: one serial sample read and the initial
    /// one-cluster hierarchy.
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
            normal_streak: 0,
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
            scratch: None,
        })
    }

    fn dim(&self, state: &GState) -> Result<usize> {
        Ok(state.dim)
    }

    fn done(&self, state: &GState) -> bool {
        state.parents.iter().all(|p| p.found) || state.iteration >= self.config.max_iterations
    }

    fn seq(&self, state: &GState) -> u64 {
        state.iteration as u64
    }

    fn plan(&self, state: &mut GState, ctx: &EngineCtx<'_>) -> Result<Vec<PlannedJob>> {
        if state.scratch.is_none() {
            // Iteration start: snapshot the hierarchy into the current
            // center set (children of splitting parents, centers of
            // found ones).
            state.iteration += 1;
            let current = current_centers(state.dim, &state.parents)?;
            let kmeans_reducers = ctx.reduce_tasks(current.len());
            let refinements = self.config.kmeans_iterations_per_round.max(1) - 1;
            state.scratch = Some(IterScratch {
                phase: if refinements > 0 {
                    GPhase::Refine {
                        remaining: refinements,
                    }
                } else {
                    GPhase::FindNew
                },
                clusters_before: state.parents.len(),
                current,
                kmeans_reducers,
                counts: HashMap::new(),
                candidates: HashMap::new(),
                projectors: Vec::new(),
                child_pairs: Vec::new(),
                auto_normal: Vec::new(),
                clusters_tested: 0,
                decisions: HashMap::new(),
                strategy_used: None,
                undecided: Vec::new(),
            });
        }
        let scratch = state.scratch.as_mut().expect("scratch initialized above");
        match &scratch.phase {
            GPhase::Refine { .. } => {
                let job = KMeansJob::new(Arc::new(ctx.prepare(scratch.current.clone())));
                Ok(vec![PlannedJob::new(job, scratch.kmeans_reducers)])
            }
            GPhase::FindNew => {
                let job = FindNewCentersJob::new(
                    Arc::new(ctx.prepare(scratch.current.clone())),
                    self.config.seed ^ (state.iteration as u64).wrapping_mul(0x9e37),
                );
                Ok(vec![PlannedJob::new(job, scratch.kmeans_reducers)])
            }
            GPhase::Test => {
                let parent_set = Arc::new(ctx.prepare(parent_centers(state.dim, &state.parents)?));
                let test_reducers = ctx.reduce_tasks(scratch.clusters_tested);
                if self.criterion == SplitCriterion::Bic {
                    // X-means decision: one aggregation job, no strategy
                    // switch needed (the aggregates are tiny).
                    let spec = BicTestSpec::new(
                        parent_set,
                        Arc::new(scratch.child_pairs.clone()),
                        self.config.min_test_sample,
                    );
                    Ok(vec![PlannedJob::new(BicTestJob::new(spec), test_reducers)])
                } else {
                    let biggest = state
                        .parents
                        .iter()
                        .enumerate()
                        .filter(|(pi, p)| !p.found && scratch.projectors[*pi].is_some())
                        .map(|(_, p)| p.count)
                        .max()
                        .unwrap_or(0);
                    let strategy = self.force_strategy.unwrap_or_else(|| {
                        choose_strategy(scratch.clusters_tested, biggest, ctx.cluster())
                    });
                    scratch.strategy_used = Some(strategy);
                    let spec = SplitTestSpec::new(
                        parent_set,
                        Arc::new(scratch.projectors.clone()),
                        self.config.ad_test(),
                    );
                    Ok(vec![match strategy {
                        TestStrategy::FewClusters => {
                            PlannedJob::new(TestFewClustersJob::new(spec), test_reducers)
                        }
                        TestStrategy::Clusters => {
                            PlannedJob::new(TestClustersJob::new(spec), test_reducers)
                        }
                    }])
                }
            }
            GPhase::Retry => {
                // Mapper-side testing came back undecided where every
                // split's sub-sample was too small; re-test those with
                // the reducer-side strategy (an extra job, only when
                // needed).
                let mut retry_projectors: Vec<Option<SegmentProjector>> =
                    vec![None; state.parents.len()];
                for (pi, p) in state.parents.iter().enumerate() {
                    if scratch.undecided.contains(&p.id) {
                        retry_projectors[pi] = scratch.projectors[pi].clone();
                    }
                }
                let parent_set = Arc::new(ctx.prepare(parent_centers(state.dim, &state.parents)?));
                let spec = SplitTestSpec::new(
                    parent_set,
                    Arc::new(retry_projectors),
                    self.config.ad_test(),
                );
                Ok(vec![PlannedJob::new(
                    TestClustersJob::new(spec),
                    ctx.reduce_tasks(scratch.undecided.len()),
                )])
            }
        }
    }

    fn apply(
        &self,
        state: &mut GState,
        mut outputs: Vec<JobOutputs>,
        seg: &SegmentStats,
    ) -> Result<Step> {
        let mut scratch = state.scratch.take().expect("apply without plan");
        match scratch.phase {
            GPhase::Refine { remaining } => {
                let updates = outputs.remove(0).take::<CenterUpdate>();
                let (next, _) = apply_updates(&scratch.current, &updates);
                scratch.current = next;
                scratch.phase = if remaining > 1 {
                    GPhase::Refine {
                        remaining: remaining - 1,
                    }
                } else {
                    GPhase::FindNew
                };
                state.scratch = Some(scratch);
                Ok(Step::Continue)
            }
            GPhase::FindNew => {
                let output = outputs.remove(0).take::<FindNewOutput>();
                let mut updates: Vec<CenterUpdate> = Vec::new();
                for out in output {
                    match out {
                        FindNewOutput::Update(u) => updates.push(u),
                        FindNewOutput::Candidates { id, points } => {
                            scratch.candidates.insert(id, points);
                        }
                    }
                }
                let (refined, counts_vec) = apply_updates(&scratch.current, &updates);
                scratch.current = refined;
                scratch.counts = (0..scratch.current.len())
                    .map(|i| (scratch.current.id(i), counts_vec[i]))
                    .collect();

                // Push the refined positions back into the hierarchy.
                for p in state.parents.iter_mut() {
                    if p.found {
                        if let Some(idx) = scratch.current.index_of(p.id) {
                            p.center = scratch.current.coords(idx).to_vec();
                            p.count = scratch.counts[&p.id];
                        }
                    } else {
                        for ch in p.children.iter_mut() {
                            if let Some(idx) = scratch.current.index_of(ch.id) {
                                ch.coords = scratch.current.coords(idx).to_vec();
                            }
                        }
                        p.count = p
                            .children
                            .iter()
                            .map(|ch| scratch.counts.get(&ch.id).copied().unwrap_or(0))
                            .sum();
                    }
                }

                // Build projectors; settle trivial cases without a job.
                scratch.projectors = vec![None; state.parents.len()];
                scratch.child_pairs = vec![None; state.parents.len()];
                for (pi, p) in state.parents.iter().enumerate() {
                    if p.found {
                        continue;
                    }
                    let c1 = &p.children[0];
                    let c2 = &p.children[1];
                    let n1 = scratch.counts.get(&c1.id).copied().unwrap_or(0);
                    let n2 = scratch.counts.get(&c2.id).copied().unwrap_or(0);
                    if n1 == 0 || n2 == 0 || n1 + n2 < self.config.min_test_sample as u64 {
                        // Nothing to split: an empty half or a cluster
                        // too small to test.
                        scratch.auto_normal.push(pi);
                        continue;
                    }
                    let proj = SegmentProjector::new(&c1.coords, &c2.coords);
                    if proj.is_degenerate() {
                        scratch.auto_normal.push(pi);
                    } else {
                        scratch.projectors[pi] = Some(proj);
                        scratch.child_pairs[pi] = Some((c1.coords.clone(), c2.coords.clone()));
                    }
                }
                scratch.clusters_tested = scratch.projectors.iter().filter(|p| p.is_some()).count();

                if scratch.clusters_tested > 0 {
                    scratch.phase = GPhase::Test;
                    state.scratch = Some(scratch);
                    Ok(Step::Continue)
                } else {
                    self.finalize_iteration(state, scratch, seg);
                    Ok(Step::Boundary)
                }
            }
            GPhase::Test => {
                let outcomes = outputs.remove(0).take::<TestOutcome>();
                for o in outcomes {
                    scratch.decisions.insert(o.parent_id, o);
                }
                if self.criterion == SplitCriterion::Bic {
                    // The BIC aggregation decides every cluster in one
                    // pass; there is no undecided retry.
                    self.finalize_iteration(state, scratch, seg);
                    return Ok(Step::Boundary);
                }
                scratch.undecided = scratch
                    .decisions
                    .values()
                    .filter(|o| o.decision == TestDecision::Undecided)
                    .map(|o| o.parent_id)
                    .collect();
                if scratch.undecided.is_empty() {
                    self.finalize_iteration(state, scratch, seg);
                    Ok(Step::Boundary)
                } else {
                    scratch.phase = GPhase::Retry;
                    state.scratch = Some(scratch);
                    Ok(Step::Continue)
                }
            }
            GPhase::Retry => {
                let outcomes = outputs.remove(0).take::<TestOutcome>();
                for o in outcomes {
                    scratch.decisions.insert(o.parent_id, o);
                }
                self.finalize_iteration(state, scratch, seg);
                Ok(Step::Boundary)
            }
        }
    }

    fn on_task_failure(
        &self,
        state: &mut GState,
        failure: Error,
        seg: &SegmentStats,
    ) -> Result<Error> {
        // A job of this iteration exhausted its task attempts: report
        // the iteration as failed; `finish` then accepts the hierarchy
        // as it stood after the last completed iteration.
        state.scratch = None;
        let mut centers_after = Dataset::with_capacity(state.dim, state.parents.len());
        for p in &state.parents {
            centers_after.push(&p.center);
        }
        state.reports.push(IterationReport {
            iteration: state.iteration,
            clusters_before: state.parents.len(),
            clusters_tested: 0,
            splits: 0,
            found_after: state.parents.iter().filter(|p| p.found).count(),
            clusters_after: state.parents.len(),
            strategy: None,
            simulated_secs: seg.simulated_secs,
            jobs: seg.jobs,
            centers_after,
            error: Some(failure.to_string()),
        });
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

/// MapReduce G-means.
pub struct MRGMeans {
    engine: Engine,
    algo: GMeansAlgo,
}

impl MRGMeans {
    /// Creates a driver running on `runner`'s cluster.
    pub fn new(runner: JobRunner, config: GMeansConfig) -> Self {
        Self {
            engine: Engine::new(runner),
            algo: GMeansAlgo {
                config,
                criterion: SplitCriterion::AndersonDarling,
                force_strategy: None,
            },
        }
    }

    /// Selects the split criterion: Anderson–Darling (G-means, default)
    /// or BIC (X-means). See [`SplitCriterion`].
    pub fn with_split_criterion(mut self, criterion: SplitCriterion) -> Self {
        self.algo.criterion = criterion;
        self
    }

    /// Enables the k-d-tree nearest-center index (the mrkd-tree
    /// acceleration of §2's related work) inside every job of the run.
    /// Results are identical; the distance-evaluation counters drop.
    pub fn with_kd_index(mut self, kd_index: bool) -> Self {
        self.engine = self.engine.with_kd_index(kd_index);
        self
    }

    /// Journals driver state into a DFS checkpoint directory after
    /// `PickInitialCenters` and after every iteration, enabling
    /// [`MRGMeans::resume`]. Commit I/O is charged to the simulated
    /// clock and the checkpoint counters.
    pub fn with_checkpoints(mut self, dir: impl Into<String>) -> Self {
        self.engine = self.engine.with_checkpoints(dir);
        self
    }

    /// Selects disk-based (Hadoop-style) or cached (Spark-style)
    /// execution. See [`ExecutionMode`].
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.engine = self.engine.with_execution_mode(mode);
        self
    }

    /// Overrides the §3.2 strategy switch, always using the given test
    /// job. For the ablation that measures what switching too early or
    /// too late costs; `None` (the default) applies the paper's rule.
    pub fn with_forced_strategy(mut self, strategy: Option<TestStrategy>) -> Self {
        self.algo.force_strategy = strategy;
        self
    }

    /// Clusters the DFS text file at `input`.
    pub fn run(&self, input: &str) -> Result<MRGMeansResult> {
        self.engine.run(&self.algo, input)
    }

    /// Resumes an interrupted checkpointed run from its newest intact
    /// checkpoint, continuing to a result bit-identical to an
    /// uninterrupted [`MRGMeans::run`]. Falls back to a fresh run when
    /// the journal holds no valid checkpoint. Requires
    /// [`MRGMeans::with_checkpoints`].
    pub fn resume(&self, input: &str) -> Result<MRGMeansResult> {
        self.engine.resume(&self.algo, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::centers::OFFSET;
    use gmr_mapreduce::writable::{from_bytes, to_bytes};

    /// `GState::read` itself rejects every hierarchy `plan` or `apply`
    /// could not run.
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
                normal_streak: 0,
                children,
            }],
            reports: Vec::new(),
            scratch: None,
        };
        let decode = |s: &GState| from_bytes::<GState>(&to_bytes(s));
        assert!(decode(&state(3, false, vec![child(1, 10), child(2, 10)])).is_ok());
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
