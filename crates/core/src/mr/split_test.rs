//! The cluster split test: `TestClusters` (Algorithms 3–4) and
//! `TestFewClusters` (Algorithm 5), plus the shared projection logic.
//!
//! Both jobs answer the same question for every cluster of the previous
//! iteration: *do its points, projected on the axis joining its two
//! refined children, look Gaussian?* They differ in **where** the
//! Anderson–Darling test runs:
//!
//! * `TestClusters` — the mapper projects and shuffles raw projections;
//!   one reducer per cluster buffers them (on the simulated heap — this
//!   is the reducer Figure 2 profiles at 64 B/point) and tests.
//!   Parallelism of the test phase is `k`, so it "performs poorly" when
//!   `k` is low.
//! * `TestFewClusters` — the mapper buffers projections per cluster *for
//!   its split only* and tests in `Close`, shuffling one tiny verdict
//!   per (cluster, split). Reducers only combine verdicts. Works great
//!   when `k` is low (every split holds plenty of points per cluster);
//!   when `k` is high, per-split sub-samples fall under the 20-point
//!   minimum and the mapper "is then not able to compute a decision".
//!
//! The choice between them is [`crate::mr::strategy`]'s job.

use std::collections::HashMap;
use std::sync::Arc;

use gmr_datagen::parse_point_dim_into;
use gmr_linalg::SegmentProjector;
use gmr_mapreduce::memory::BYTES_PER_PROJECTION;
use gmr_mapreduce::prelude::*;
use gmr_stats::{AdError, AndersonDarling};

use crate::mr::centers::CenterSet;
use crate::mr::kmeans_job::empty_centers_error;

/// What the split test concluded for one cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestDecision {
    /// Projections look Gaussian — keep the original center.
    Normal,
    /// Projections are non-Gaussian — split into the two children.
    Split,
    /// No mapper sub-sample was large enough to decide
    /// (`TestFewClusters` only). The driver re-tests such clusters with
    /// the reducer-side strategy.
    Undecided,
}

/// Per-cluster outcome of a split-test job.
#[derive(Clone, Debug, PartialEq)]
pub struct TestOutcome {
    /// Id of the tested (previous-iteration) cluster.
    pub parent_id: i64,
    /// Projections that informed the decision.
    pub n: u64,
    /// The corrected Anderson–Darling statistic, when a test ran.
    pub a2_star: Option<f64>,
    /// The decision.
    pub decision: TestDecision,
}

/// Everything a split-test mapper needs at `Setup` (Algorithm 3:
/// "Build vectors from center pairs; Read centers from previous
/// iteration").
#[derive(Clone)]
pub struct SplitTestSpec {
    /// Previous-iteration centers — the clusters points belong to.
    pub parents: Arc<CenterSet>,
    /// Projection vector per parent (indexed like `parents`); `None`
    /// for clusters that are already accepted and need no test.
    pub projectors: Arc<Vec<Option<SegmentProjector>>>,
    /// The configured normality test.
    pub ad: AndersonDarling,
}

impl SplitTestSpec {
    /// Validates the spec's shape.
    pub fn new(
        parents: Arc<CenterSet>,
        projectors: Arc<Vec<Option<SegmentProjector>>>,
        ad: AndersonDarling,
    ) -> Self {
        assert_eq!(
            parents.len(),
            projectors.len(),
            "one projector slot per parent"
        );
        assert!(!parents.is_empty(), "need at least one parent");
        Self {
            parents,
            projectors,
            ad,
        }
    }

    /// Projects one point, given the `(index, id, evals)` of its nearest
    /// parent as the blocked kernel found it (`None` only for an empty
    /// parent set); `Ok(None)` when the parent has no test vector.
    fn project(
        &self,
        point: &[f64],
        assigned: Option<(usize, i64, u64)>,
        ctx: &mut TaskContext,
    ) -> Result<Option<(i64, f64)>> {
        let (idx, id, evals) = assigned.ok_or_else(|| empty_centers_error("TestClusters"))?;
        ctx.charge_distances(evals, self.parents.dim());
        Ok(self.projectors[idx].as_ref().map(|proj| {
            ctx.counters().inc(Counter::Projections);
            ctx.charge_compute(self.parents.dim() as f64);
            (id, proj.project(point))
        }))
    }

    /// The nearest-parent assignments of one block of points.
    fn assign_block(&self, points: &[f64], norms: &[f64]) -> Vec<(usize, i64, u64)> {
        self.parents
            .nearest_block(points, norms)
            .into_iter()
            .map(|(idx, id, _, evals)| (idx, id, evals))
            .collect()
    }

    /// Runs the Anderson–Darling test on a buffered sample, mapping
    /// statistical edge cases to the conservative decision.
    fn decide(&self, sample: &mut [f64], ctx: &mut TaskContext) -> (Option<f64>, TestDecision) {
        ctx.counters().inc(Counter::AdTests);
        // n·log n comparison work plus CDF evaluations.
        let n = sample.len() as f64;
        ctx.charge_compute(n * (n.max(2.0)).log2() + 30.0 * n);
        match self.ad.test_in_place(sample) {
            Ok(outcome) => {
                let decision = if outcome.is_normal(self.ad.alpha()) {
                    TestDecision::Normal
                } else {
                    TestDecision::Split
                };
                (Some(outcome.a2_star), decision)
            }
            // Too small to test: keep the cluster (splitting something
            // that cannot even be tested only shrinks it further).
            Err(AdError::SampleTooSmall { .. }) => (None, TestDecision::Normal),
            // No variation along the split axis: nothing to split.
            Err(AdError::ZeroVariance) => (None, TestDecision::Normal),
            Err(AdError::NonFinite) => (None, TestDecision::Normal),
        }
    }
}

// ---------------------------------------------------------------------
// TestClusters (Algorithms 3 and 4)
// ---------------------------------------------------------------------

/// Reducer-side split test job.
pub struct TestClustersJob {
    spec: SplitTestSpec,
}

impl TestClustersJob {
    /// Creates the job.
    pub fn new(spec: SplitTestSpec) -> Self {
        Self { spec }
    }
}

/// Mapper: project every point onto its cluster's vector (Algorithm 3).
pub struct TestClustersMapper {
    spec: SplitTestSpec,
    /// `(index, id, evals)` rows the blocked kernel computed for the
    /// current block, drained one per `map_point` call.
    pending: std::collections::VecDeque<(usize, i64, u64)>,
}

impl Mapper for TestClustersMapper {
    type Key = i64;
    type Value = f64;
}

impl PointMapper for TestClustersMapper {
    fn dim(&self) -> usize {
        self.spec.parents.dim()
    }

    fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool {
        parse_point_dim_into(line, self.dim(), out).is_ok()
    }

    fn map_point(
        &mut self,
        point: &[f64],
        out: &mut MapOutput<'_, i64, f64>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        if let Some((id, projection)) = self.spec.project(point, self.pending.pop_front(), ctx)? {
            out.emit(id, projection);
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
        self.pending = self.spec.assign_block(points, norms).into();
        Ok(())
    }
}

/// Reducer: buffer the projections (charging the simulated heap at the
/// paper's measured 64 B/point), normalize, test (Algorithm 4).
pub struct TestClustersReducer {
    spec: SplitTestSpec,
}

impl Reducer for TestClustersReducer {
    type Key = i64;
    type Value = f64;
    type Output = TestOutcome;

    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, f64>,
        out: &mut Vec<TestOutcome>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        // "Read projections to build a vector" — this buffering is what
        // exhausts the JVM heap in Figure 2.
        let mut sample: Vec<f64> = Vec::new();
        for v in values {
            ctx.heap.charge(BYTES_PER_PROJECTION)?;
            sample.push(v);
        }
        let n = sample.len() as u64;
        let (a2_star, decision) = self.spec.decide(&mut sample, ctx);
        ctx.heap.release(n * BYTES_PER_PROJECTION);
        out.push(TestOutcome {
            parent_id: key,
            n,
            a2_star,
            decision,
        });
        Ok(())
    }
}

impl Job for TestClustersJob {
    type Key = i64;
    type Value = f64;
    type Output = TestOutcome;
    type Mapper = TestClustersMapper;
    type Reducer = TestClustersReducer;

    fn name(&self) -> &str {
        "TestClusters"
    }

    fn create_mapper(&self) -> TestClustersMapper {
        TestClustersMapper {
            spec: self.spec.clone(),
            pending: std::collections::VecDeque::new(),
        }
    }

    fn create_reducer(&self) -> TestClustersReducer {
        TestClustersReducer {
            spec: self.spec.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// TestFewClusters (Algorithm 5)
// ---------------------------------------------------------------------

/// Mapper-side verdict: sub-sample size and, when testable, its `A*²`.
pub type SubVerdict = (u64, Option<f64>);

/// Mapper-side split test job.
pub struct TestFewClustersJob {
    spec: SplitTestSpec,
}

impl TestFewClustersJob {
    /// Creates the job.
    pub fn new(spec: SplitTestSpec) -> Self {
        Self { spec }
    }
}

/// Mapper: buffer projections per cluster, test in `Close`
/// (Algorithm 5). The buffers live on the *mapper's* heap, bounded by
/// the split size — the memory argument for this strategy in §3.2.
pub struct TestFewClustersMapper {
    spec: SplitTestSpec,
    buffers: HashMap<i64, Vec<f64>>,
    /// `(index, id, evals)` rows the blocked kernel computed for the
    /// current block, drained one per `map_point` call.
    pending: std::collections::VecDeque<(usize, i64, u64)>,
}

impl Mapper for TestFewClustersMapper {
    type Key = i64;
    type Value = SubVerdict;

    fn close(
        &mut self,
        out: &mut MapOutput<'_, i64, SubVerdict>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut buffers: Vec<(i64, Vec<f64>)> = self.buffers.drain().collect();
        buffers.sort_by_key(|(id, _)| *id); // deterministic emission order
        for (id, mut sample) in buffers {
            let n = sample.len() as u64;
            if sample.len() >= self.spec.ad.min_sample() {
                let (a2_star, _) = self.spec.decide(&mut sample, ctx);
                out.emit(id, (n, a2_star));
            } else {
                // "the mapper is then not able to compute a decision"
                out.emit(id, (n, None));
            }
            ctx.heap.release(n * BYTES_PER_PROJECTION);
        }
        Ok(())
    }
}

/// Reducer: combine the mappers' verdicts — "their task is only to
/// combine the decisions taken by mappers".
pub struct TestFewClustersReducer {
    spec: SplitTestSpec,
}

impl Reducer for TestFewClustersReducer {
    type Key = i64;
    type Value = SubVerdict;
    type Output = TestOutcome;

    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, SubVerdict>,
        out: &mut Vec<TestOutcome>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        let alpha = self.spec.ad.alpha();
        let mut total_n = 0u64;
        let mut worst_a2: Option<f64> = None;
        // Weighted Stouffer combination of the sub-sample p-values:
        // each mapper's test is weak on its own (a split holds only a
        // slice of the cluster), but under H₀ the p-values are uniform,
        // so Z = Σ wᵢ·Φ⁻¹(1−pᵢ) / √(Σ wᵢ²) with wᵢ = √nᵢ is standard
        // normal — and accumulates many mildly suspicious sub-samples
        // into a decisive rejection. A plain "any sub-test rejected?"
        // rule has almost no power at the paper's strict α = 1e-4.
        let mut z_num = 0.0f64;
        let mut w2_sum = 0.0f64;
        let mut tested = 0usize;
        for (n, a2_star) in values {
            total_n += n;
            if let Some(a2) = a2_star {
                worst_a2 = Some(worst_a2.map_or(a2, |w: f64| w.max(a2)));
                let p = gmr_stats::anderson_darling::p_value_case4(a2).clamp(1e-15, 1.0 - 1e-15);
                let w = (n as f64).sqrt();
                z_num += w * gmr_stats::normal_quantile(1.0 - p);
                w2_sum += w * w;
                tested += 1;
            }
        }
        let decision = if tested > 0 {
            let z = z_num / w2_sum.sqrt();
            let p_combined = 1.0 - gmr_stats::normal_cdf(z);
            if p_combined <= alpha {
                TestDecision::Split
            } else {
                TestDecision::Normal
            }
        } else if total_n < self.spec.ad.min_sample() as u64 {
            TestDecision::Normal // too small to ever test — keep
        } else {
            TestDecision::Undecided // big cluster, all sub-samples tiny
        };
        out.push(TestOutcome {
            parent_id: key,
            n: total_n,
            a2_star: worst_a2,
            decision,
        });
        Ok(())
    }
}

impl PointMapper for TestFewClustersMapper {
    fn dim(&self) -> usize {
        self.spec.parents.dim()
    }

    fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool {
        parse_point_dim_into(line, self.dim(), out).is_ok()
    }

    fn map_point(
        &mut self,
        point: &[f64],
        _out: &mut MapOutput<'_, i64, SubVerdict>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        if let Some((id, projection)) = self.spec.project(point, self.pending.pop_front(), ctx)? {
            ctx.heap.charge(BYTES_PER_PROJECTION)?;
            self.buffers.entry(id).or_default().push(projection);
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
        self.pending = self.spec.assign_block(points, norms).into();
        Ok(())
    }
}

impl Job for TestFewClustersJob {
    type Key = i64;
    type Value = SubVerdict;
    type Output = TestOutcome;
    type Mapper = TestFewClustersMapper;
    type Reducer = TestFewClustersReducer;

    fn name(&self) -> &str {
        "TestFewClusters"
    }

    fn create_mapper(&self) -> TestFewClustersMapper {
        TestFewClustersMapper {
            spec: self.spec.clone(),
            buffers: HashMap::new(),
            pending: std::collections::VecDeque::new(),
        }
    }

    fn create_reducer(&self) -> TestFewClustersReducer {
        TestFewClustersReducer {
            spec: self.spec.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::{format_point, ClusterWeights, GaussianMixture};
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;

    /// One parent at the origin-ish mean of either one blob (normal) or
    /// two blobs (should split); projector along the blob axis.
    fn spec_for(parents: CenterSet, pairs: Vec<Option<(Vec<f64>, Vec<f64>)>>) -> SplitTestSpec {
        let projectors: Vec<Option<SegmentProjector>> = pairs
            .into_iter()
            .map(|p| p.map(|(a, b)| SegmentProjector::new(&a, &b)))
            .collect();
        SplitTestSpec::new(
            Arc::new(parents),
            Arc::new(projectors),
            AndersonDarling::default(),
        )
    }

    fn write_blobs(two: bool, n: usize, seed: u64, block: usize) -> Arc<Dfs> {
        let spec = GaussianMixture {
            n_points: n,
            dim: 2,
            n_clusters: if two { 2 } else { 1 },
            box_min: 0.0,
            box_max: 30.0,
            stddev: 1.0,
            min_separation_sigmas: if two { 15.0 } else { 0.0 },
            seed,
            weights: ClusterWeights::Balanced,
        };
        let d = spec.generate().unwrap();
        let dfs = Arc::new(Dfs::new(block));
        dfs.put_lines("pts", d.points.rows().map(format_point))
            .unwrap();
        dfs.put_lines("truth", d.true_centers.rows().map(format_point))
            .unwrap();
        dfs
    }

    fn truth_centers(dfs: &Arc<Dfs>) -> Vec<Vec<f64>> {
        dfs.read_lines("truth")
            .unwrap()
            .iter()
            .map(|l| gmr_datagen::parse_point(l).unwrap())
            .collect()
    }

    fn run_test_job(dfs: Arc<Dfs>, spec: SplitTestSpec, few: bool) -> Vec<TestOutcome> {
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let config = JobConfig::with_reducers(2);
        if few {
            runner
                .run(&TestFewClustersJob::new(spec), "pts", &config)
                .unwrap()
                .output
        } else {
            runner
                .run(&TestClustersJob::new(spec), "pts", &config)
                .unwrap()
                .output
        }
    }

    #[test]
    fn gaussian_cluster_is_kept_by_both_strategies() {
        for few in [false, true] {
            let dfs = write_blobs(false, 2000, 5, 1 << 20);
            let truth = truth_centers(&dfs);
            let mut parents = CenterSet::new(2);
            parents.push(0, &truth[0]);
            // Children on either side of the true center.
            let c1 = vec![truth[0][0] - 1.0, truth[0][1]];
            let c2 = vec![truth[0][0] + 1.0, truth[0][1]];
            let spec = spec_for(parents, vec![Some((c1, c2))]);
            let out = run_test_job(dfs, spec, few);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].decision, TestDecision::Normal, "few={few}");
            assert_eq!(out[0].n, 2000);
        }
    }

    #[test]
    fn bimodal_cluster_is_split_by_both_strategies() {
        for few in [false, true] {
            let dfs = write_blobs(true, 2000, 6, 1 << 20);
            let truth = truth_centers(&dfs);
            // One parent midway between the two blobs; children at the
            // blob centers — the projection is clearly bimodal.
            let mid: Vec<f64> = truth[0]
                .iter()
                .zip(&truth[1])
                .map(|(a, b)| (a + b) / 2.0)
                .collect();
            let mut parents = CenterSet::new(2);
            parents.push(0, &mid);
            let spec = spec_for(parents, vec![Some((truth[0].clone(), truth[1].clone()))]);
            let out = run_test_job(dfs, spec, few);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].decision, TestDecision::Split, "few={few}");
            assert!(out[0].a2_star.unwrap() > 1.0);
        }
    }

    #[test]
    fn found_clusters_are_not_tested() {
        let dfs = write_blobs(false, 500, 7, 1 << 20);
        let truth = truth_centers(&dfs);
        let mut parents = CenterSet::new(2);
        parents.push(0, &truth[0]);
        let spec = spec_for(parents, vec![None]); // already accepted
        let out = run_test_job(dfs, spec, false);
        assert!(out.is_empty(), "no vector → no projections → no outcome");
    }

    #[test]
    fn few_strategy_undecided_on_scattered_small_subsamples() {
        // 60 points across many tiny splits: every mapper sees fewer
        // than 20 points of the cluster, so nobody can decide.
        let dfs = write_blobs(false, 60, 8, 64);
        let truth = truth_centers(&dfs);
        let mut parents = CenterSet::new(2);
        parents.push(0, &truth[0]);
        let c1 = vec![truth[0][0] - 1.0, truth[0][1]];
        let c2 = vec![truth[0][0] + 1.0, truth[0][1]];
        let spec = spec_for(parents, vec![Some((c1, c2))]);
        let out = run_test_job(dfs, spec, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].decision, TestDecision::Undecided);
        assert_eq!(out[0].n, 60);
    }

    #[test]
    fn tiny_cluster_is_kept_not_undecided() {
        let dfs = write_blobs(false, 10, 9, 1 << 20);
        let truth = truth_centers(&dfs);
        let mut parents = CenterSet::new(2);
        parents.push(0, &truth[0]);
        let c1 = vec![truth[0][0] - 1.0, truth[0][1]];
        let c2 = vec![truth[0][0] + 1.0, truth[0][1]];
        let spec = spec_for(parents, vec![Some((c1, c2))]);
        for few in [true, false] {
            let out = run_test_job(dfs.clone(), spec.clone(), few);
            assert_eq!(out[0].decision, TestDecision::Normal, "few={few}");
        }
    }

    #[test]
    fn reducer_heap_is_charged_per_projection() {
        let dfs = write_blobs(false, 1000, 10, 1 << 20);
        let truth = truth_centers(&dfs);
        let mut parents = CenterSet::new(2);
        parents.push(0, &truth[0]);
        let c1 = vec![truth[0][0] - 1.0, truth[0][1]];
        let c2 = vec![truth[0][0] + 1.0, truth[0][1]];
        let spec = spec_for(parents, vec![Some((c1, c2))]);
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let r = runner
            .run(
                &TestClustersJob::new(spec),
                "pts",
                &JobConfig::with_reducers(1),
            )
            .unwrap();
        assert_eq!(
            r.counters.get(Counter::HeapPeakBytes),
            1000 * BYTES_PER_PROJECTION
        );
        assert_eq!(r.counters.get(Counter::Projections), 1000);
        assert_eq!(r.counters.get(Counter::AdTests), 1);
    }

    #[test]
    fn test_clusters_reducer_overflows_small_heap() {
        let dfs = write_blobs(false, 2000, 11, 1 << 20);
        let truth = truth_centers(&dfs);
        let mut parents = CenterSet::new(2);
        parents.push(0, &truth[0]);
        let c1 = vec![truth[0][0] - 1.0, truth[0][1]];
        let c2 = vec![truth[0][0] + 1.0, truth[0][1]];
        let spec = spec_for(parents, vec![Some((c1, c2))]);
        let cluster = ClusterConfig {
            heap_per_task: 2000 * BYTES_PER_PROJECTION / 2, // half of what's needed
            ..ClusterConfig::default()
        };
        let runner = JobRunner::new(dfs, cluster).unwrap();
        let err = runner
            .run(
                &TestClustersJob::new(spec),
                "pts",
                &JobConfig::with_reducers(1),
            )
            .unwrap_err();
        assert!(matches!(err, gmr_mapreduce::Error::HeapSpace { .. }));
    }
}
