//! The BIC split test: X-means' structure-improvement criterion
//! (Pelleg & Moore, 2000) as a MapReduce job.
//!
//! §2 presents X-means as the other iterative determine-k algorithm —
//! same skeleton as G-means, different split decision: a cluster is
//! split when the Bayesian Information Criterion of the two-child model
//! on its points beats the one-center model. Expressed over the same
//! driver state as the G-means pipeline (parents from the previous
//! iteration, refined child pairs from the current one), the whole test
//! is a single job:
//!
//! * **Mapper** — per point: nearest parent; accumulate the parent-model
//!   dispersion `d²(x, parent)` and, against the parent's two children,
//!   the child-model dispersion `d²(x, nearest child)` plus per-child
//!   counts. One aggregate record per parent per split (emitted from
//!   `Close`, like Algorithm 5).
//! * **Reducer** — fold the aggregates and split when
//!   `BIC(two children) − BIC(parent)`, which the outcome reports as
//!   its `bic_gain`, is positive.
//!
//! This makes `MRGMeans` a *family* of algorithms: the same jobs,
//! drivers, strategy and bookkeeping with a pluggable split criterion —
//! exactly the comparison the paper's related work sets up.

use std::collections::HashMap;
use std::sync::Arc;

use gmr_linalg::squared_euclidean;
use gmr_mapreduce::prelude::*;
use gmr_stats::{bic_spherical, ClusterModelStats};

use crate::mr::centers::{CenterSet, Nearest};
use crate::mr::kmeans_job::{combine_point_sum, fold_point_sums, PointSum};
use crate::mr::split_test::{TestDecision, TestOutcome};

/// Per-parent aggregate: `[Σd²_parent, Σd²_children, n_child0, n_child1]`
/// plus the total point count, packed as the k-means [`PointSum`]
/// algebra so the standard fold ([`fold_point_sums`]) applies.
type BicPartial = PointSum;

/// The two refined child centers per parent, `None` for parents whose
/// cluster is already accepted.
pub type ChildPairs = Arc<Vec<Option<(Vec<f64>, Vec<f64>)>>>;

/// Everything the BIC test mapper needs at setup.
#[derive(Clone)]
pub struct BicTestSpec {
    /// Previous-iteration centers — the clusters points belong to.
    pub parents: Arc<CenterSet>,
    /// The two refined children per parent (indexed like `parents`);
    /// `None` for already-accepted clusters.
    pub children: ChildPairs,
    /// Minimum points under which a cluster is kept untested.
    pub min_points: usize,
}

impl BicTestSpec {
    /// Validates the spec's shape.
    pub fn new(parents: Arc<CenterSet>, children: ChildPairs, min_points: usize) -> Self {
        assert_eq!(parents.len(), children.len(), "one child slot per parent");
        assert!(!parents.is_empty(), "need at least one parent");
        Self {
            parents,
            children,
            min_points,
        }
    }
}

/// The BIC split-test job.
pub struct BicTestJob {
    spec: BicTestSpec,
}

impl BicTestJob {
    /// Creates the job.
    pub fn new(spec: BicTestSpec) -> Self {
        Self { spec }
    }
}

/// Mapper with per-parent aggregation, emitted from `Close`.
pub struct BicTestMapper {
    spec: BicTestSpec,
    /// parent idx → [Σd²_parent, Σd²_child, n_c0, n_c1], count
    acc: HashMap<usize, ([f64; 4], u64)>,
}

impl Mapper for BicTestMapper {
    type Key = i64;
    type Value = BicPartial;
    type Row = Nearest;

    fn dim(&self) -> usize {
        self.spec.parents.dim()
    }

    fn prepare_block(
        &mut self,
        points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<Nearest>> {
        Ok(self.spec.parents.nearest_block(points, norms))
    }

    fn map_point(
        &mut self,
        point: &[f64],
        (idx, _, d2_parent, evals): Nearest,
        _out: &mut MapOutput<'_, i64, BicPartial>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        ctx.charge_distances(evals, self.spec.parents.dim());
        let Some((c0, c1)) = &self.spec.children[idx] else {
            return Ok(()); // accepted cluster: no test
        };
        let d0 = squared_euclidean(point, c0);
        let d1 = squared_euclidean(point, c1);
        ctx.charge_distances(2, self.spec.parents.dim());
        let (d2_child, which) = if d0 <= d1 { (d0, 0) } else { (d1, 1) };
        let entry = self.acc.entry(idx).or_insert(([0.0; 4], 0));
        entry.0[0] += d2_parent;
        entry.0[1] += d2_child;
        entry.0[2 + which] += 1.0;
        entry.1 += 1;
        Ok(())
    }

    fn close(
        &mut self,
        out: &mut MapOutput<'_, i64, BicPartial>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        let mut entries: Vec<(usize, ([f64; 4], u64))> = self.acc.drain().collect();
        entries.sort_by_key(|(idx, _)| *idx);
        for (idx, (sums, n)) in entries {
            out.emit(self.spec.parents.id(idx), &(sums.to_vec(), n));
        }
        Ok(())
    }
}

/// Reducer: the BIC comparison itself.
pub struct BicTestReducer {
    spec: BicTestSpec,
}

impl Reducer for BicTestReducer {
    type Key = i64;
    type Value = BicPartial;
    type Output = TestOutcome;

    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, BicPartial>,
        out: &mut Vec<TestOutcome>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let Some((sums, n)) = fold_point_sums(values) else {
            return Ok(());
        };
        ctx.counters().inc(Counter::AdTests); // "split tests", BIC flavour
        let dim = self.spec.parents.dim();
        let bic_gain = if (n as usize) < self.spec.min_points {
            None
        } else {
            let parent_bic = bic_spherical(&ClusterModelStats {
                cluster_sizes: vec![n],
                wcss: sums[0],
                dim,
            });
            let child_sizes = vec![sums[2] as u64, sums[3] as u64];
            let child_bic = if child_sizes.contains(&0) {
                None // a degenerate split never wins
            } else {
                bic_spherical(&ClusterModelStats {
                    cluster_sizes: child_sizes,
                    wcss: sums[1],
                    dim,
                })
            };
            parent_bic.zip(child_bic).map(|(p, c)| c - p)
        };
        out.push(TestOutcome {
            parent_id: key,
            n,
            a2_star: None,
            bic_gain,
            decision: match bic_gain {
                Some(gain) if gain > 0.0 => TestDecision::Split,
                _ => TestDecision::Normal,
            },
        });
        Ok(())
    }
}

impl Job for BicTestJob {
    type Key = i64;
    type Value = BicPartial;
    type Output = TestOutcome;
    type Mapper = BicTestMapper;
    type Reducer = BicTestReducer;

    fn name(&self) -> &str {
        "BicTest"
    }

    fn create_mapper(&self) -> BicTestMapper {
        BicTestMapper {
            spec: self.spec.clone(),
            acc: HashMap::new(),
        }
    }

    fn create_reducer(&self) -> BicTestReducer {
        BicTestReducer {
            spec: self.spec.clone(),
        }
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &i64, acc: &mut Vec<BicPartial>, value: &BicPartial) {
        combine_point_sum(acc, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::{format_point, GaussianMixture};
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;

    fn run_bic(two_blobs: bool, n: usize, seed: u64) -> Vec<TestOutcome> {
        let spec = GaussianMixture {
            n_points: n,
            dim: 2,
            n_clusters: if two_blobs { 2 } else { 1 },
            box_min: 0.0,
            box_max: 40.0,
            stddev: 1.5,
            min_separation_sigmas: if two_blobs { 12.0 } else { 0.0 },
            seed,
            weights: gmr_datagen::ClusterWeights::Balanced,
        };
        let d = spec.generate().unwrap();
        let dfs = Arc::new(Dfs::new(8 * 1024));
        dfs.put_lines("pts", d.points.rows().map(format_point))
            .unwrap();

        // Parent at the global mean; children at the true centers (or
        // ±1σ around the single blob).
        let mut acc = gmr_linalg::CentroidAccumulator::new(2);
        for row in d.points.rows() {
            acc.push(row);
        }
        let mean = acc.mean().unwrap().into_vec();
        let mut parents = CenterSet::new(2);
        parents.push(0, &mean);
        let children = if two_blobs {
            (
                d.true_centers.row(0).to_vec(),
                d.true_centers.row(1).to_vec(),
            )
        } else {
            (vec![mean[0] - 1.5, mean[1]], vec![mean[0] + 1.5, mean[1]])
        };
        let spec = BicTestSpec::new(Arc::new(parents), Arc::new(vec![Some(children)]), 20);
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        runner
            .run(&BicTestJob::new(spec), "pts", &JobConfig::with_reducers(2))
            .unwrap()
            .output
    }

    #[test]
    fn two_blobs_split_one_blob_does_not() {
        let split = run_bic(true, 2000, 7);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].decision, TestDecision::Split);
        assert_eq!(split[0].n, 2000);
        assert!(split[0].bic_gain.is_some_and(|g| g > 0.0), "{split:?}");

        let keep = run_bic(false, 2000, 8);
        assert_eq!(keep.len(), 1);
        assert_eq!(keep[0].decision, TestDecision::Normal);
        assert!(keep[0].bic_gain.is_some_and(|g| g <= 0.0), "{keep:?}");
    }

    #[test]
    fn tiny_cluster_is_kept() {
        let out = run_bic(true, 15, 9); // below min_points = 20
        assert_eq!(out[0].decision, TestDecision::Normal);
        assert_eq!(out[0].bic_gain, None, "no model is scored");
    }
}
