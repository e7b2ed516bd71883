//! `KMeansAndFindNewCenters` (Algorithm 2): the last k-means iteration
//! of a G-means round, fused with the selection of two candidate
//! centers per cluster for the *next* iteration.
//!
//! The mapper emits each point **twice**: once under its center id (the
//! k-means channel) and once under `id + OFFSET` (the candidate
//! channel). "This doubles the quantity of data to be shuffled … this
//! effect is largely mitigated by the use of a combiner" (§3.1): the
//! combiner folds the k-means channel into one partial sum and prunes
//! the candidate channel to two points per center per map task.
//!
//! The paper picks the two candidates randomly. A combiner must be
//! associative, so "random" is implemented as *hash-minimal*: each point
//! gets a pseudo-random priority `h(seed, coords)` and the two smallest
//! priorities win. Min-selection commutes with partial combining, and
//! the winning pair varies with the per-iteration seed exactly like a
//! random draw.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gmr_datagen::parse_point_dim_into;
use gmr_mapreduce::prelude::*;

use crate::mr::centers::{CenterSet, CenterUpdate, ChannelKey};
use crate::mr::kmeans_job::{empty_centers_error, fold_point_sums, PointSum};

/// Output of the fused job.
#[derive(Clone, Debug, PartialEq)]
pub enum FindNewOutput {
    /// Refined center (the k-means channel).
    Update(CenterUpdate),
    /// Candidate next-iteration centers for one current center (the
    /// OFFSET channel). At most two points; fewer when the cluster has
    /// fewer than two distinct points.
    Candidates {
        /// The current center's id (offset already removed).
        id: i64,
        /// The winning candidate coordinates.
        points: Vec<Vec<f64>>,
    },
}

/// Pseudo-random selection priority of a point.
fn priority(seed: u64, coords: &[f64]) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    seed.hash(&mut h);
    for c in coords {
        c.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Keeps the two values with the smallest priorities (stable under
/// recombination: min of mins is the global min). Streams its input —
/// at most three candidates are resident at a time, so the reducer can
/// feed it values straight off the merge without collecting the group.
fn keep_two_minimal(seed: u64, values: impl IntoIterator<Item = PointSum>) -> Vec<PointSum> {
    let mut best: Vec<(u64, PointSum)> = Vec::with_capacity(3);
    for v in values {
        let p = priority(seed, &v.0);
        best.push((p, v));
        best.sort_by_key(|(p, _)| *p);
        best.truncate(2);
    }
    best.into_iter().map(|(_, v)| v).collect()
}

/// The fused job.
pub struct FindNewCentersJob {
    centers: Arc<CenterSet>,
    seed: u64,
}

impl FindNewCentersJob {
    /// Creates the job for the given current centers; `seed` randomizes
    /// the candidate picks per G-means iteration.
    pub fn new(centers: Arc<CenterSet>, seed: u64) -> Self {
        assert!(!centers.is_empty(), "needs at least one center");
        Self { centers, seed }
    }
}

/// Mapper of [`FindNewCentersJob`] (Algorithm 2 verbatim: "Emit twice").
pub struct FindNewCentersMapper {
    centers: Arc<CenterSet>,
    /// Assignments the blocked kernel computed for the current block,
    /// drained one per `map_point` call.
    pending: std::collections::VecDeque<(i64, u64)>,
}

impl Mapper for FindNewCentersMapper {
    type Key = i64;
    type Value = PointSum;
}

impl PointMapper for FindNewCentersMapper {
    fn dim(&self) -> usize {
        self.centers.dim()
    }

    fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool {
        parse_point_dim_into(line, self.centers.dim(), out).is_ok()
    }

    fn map_point(
        &mut self,
        point: &[f64],
        out: &mut MapOutput<'_, i64, PointSum>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let (id, evals) = self
            .pending
            .pop_front()
            .ok_or_else(|| empty_centers_error("KMeansAndFindNewCenters"))?;
        ctx.charge_distances(evals, self.centers.dim());
        out.emit(ChannelKey::Refine(id).encode(), (point.to_vec(), 1));
        out.emit(ChannelKey::Candidate(id).encode(), (point.to_vec(), 1));
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
        self.pending.extend(
            self.centers
                .nearest_block(points, norms)
                .into_iter()
                .map(|(_, id, _, evals)| (id, evals)),
        );
        Ok(())
    }
}

/// Reducer of [`FindNewCentersJob`]: demuxes the key's channel (the
/// paper's test against OFFSET, via [`ChannelKey::decode`]) — k-means
/// reduction on the refine channel, candidate selection on the other.
pub struct FindNewCentersReducer {
    seed: u64,
}

impl Reducer for FindNewCentersReducer {
    type Key = i64;
    type Value = PointSum;
    type Output = FindNewOutput;

    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, PointSum>,
        out: &mut Vec<FindNewOutput>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        match ChannelKey::decode(key) {
            ChannelKey::Candidate(id) => {
                let winners = keep_two_minimal(self.seed, values);
                out.push(FindNewOutput::Candidates {
                    id,
                    points: winners.into_iter().map(|(coords, _)| coords).collect(),
                });
            }
            ChannelKey::Refine(id) => {
                if let Some((sum, count)) = fold_point_sums(values) {
                    let inv = 1.0 / count as f64;
                    out.push(FindNewOutput::Update(CenterUpdate {
                        id,
                        coords: sum.iter().map(|s| s * inv).collect(),
                        count,
                    }));
                }
            }
        }
        Ok(())
    }
}

impl Job for FindNewCentersJob {
    type Key = i64;
    type Value = PointSum;
    type Output = FindNewOutput;
    type Mapper = FindNewCentersMapper;
    type Reducer = FindNewCentersReducer;

    fn name(&self) -> &str {
        "KMeansAndFindNewCenters"
    }

    fn create_mapper(&self) -> FindNewCentersMapper {
        FindNewCentersMapper {
            centers: Arc::clone(&self.centers),
            pending: std::collections::VecDeque::new(),
        }
    }

    fn create_reducer(&self) -> FindNewCentersReducer {
        FindNewCentersReducer { seed: self.seed }
    }

    fn has_combiner(&self) -> bool {
        true
    }

    /// "The combiner and reducer test the value of the key. If it is
    /// larger than the predefined offset, they keep only 2 new centers
    /// per cluster. Otherwise they perform classical k-means reduction."
    fn combine(&self, key: &i64, values: Vec<PointSum>) -> Vec<PointSum> {
        match ChannelKey::decode(*key) {
            ChannelKey::Candidate(_) => keep_two_minimal(self.seed, values),
            ChannelKey::Refine(_) => fold_point_sums(values).into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::format_point;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;

    fn run_job(
        pts: &[Vec<f64>],
        centers: CenterSet,
        seed: u64,
        block: usize,
    ) -> gmr_mapreduce::runtime::JobResult<FindNewOutput> {
        let dfs = Arc::new(Dfs::new(block));
        dfs.put_lines("pts", pts.iter().map(|p| format_point(p)))
            .unwrap();
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let job = FindNewCentersJob::new(Arc::new(centers), seed);
        runner
            .run(&job, "pts", &JobConfig::with_reducers(3))
            .unwrap()
    }

    fn one_center_line() -> (Vec<Vec<f64>>, CenterSet) {
        let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let mut centers = CenterSet::new(1);
        centers.push(0, &[5.0]);
        (pts, centers)
    }

    #[test]
    fn emits_update_and_candidates_per_center() {
        let (pts, centers) = one_center_line();
        let result = run_job(&pts, centers, 7, 1 << 20);
        let mut updates = 0;
        let mut cands = 0;
        for o in &result.output {
            match o {
                FindNewOutput::Update(u) => {
                    updates += 1;
                    assert_eq!(u.id, 0);
                    assert_eq!(u.count, 20);
                    assert!((u.coords[0] - 9.5).abs() < 1e-12); // mean of 0..19
                }
                FindNewOutput::Candidates { id, points } => {
                    cands += 1;
                    assert_eq!(*id, 0);
                    assert_eq!(points.len(), 2);
                    // Candidates are actual data points.
                    for p in points {
                        assert!(p[0].fract() == 0.0 && (0.0..20.0).contains(&p[0]));
                    }
                }
            }
        }
        assert_eq!((updates, cands), (1, 1));
    }

    #[test]
    fn candidates_are_split_invariant() {
        // The hash-min selection must pick the same two points whether
        // the file lands in one split or many (combiner associativity).
        let (pts, centers) = one_center_line();
        let single = run_job(&pts, centers.clone(), 7, 1 << 20);
        let many = run_job(&pts, centers, 7, 16);
        let get_cands = |r: &gmr_mapreduce::runtime::JobResult<FindNewOutput>| {
            r.output
                .iter()
                .find_map(|o| match o {
                    FindNewOutput::Candidates { points, .. } => Some(points.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(get_cands(&single), get_cands(&many));
    }

    #[test]
    fn different_seeds_pick_different_candidates() {
        let (pts, centers) = one_center_line();
        let a = run_job(&pts, centers.clone(), 1, 1 << 20);
        let b = run_job(&pts, centers, 2, 1 << 20);
        let get = |r: &gmr_mapreduce::runtime::JobResult<FindNewOutput>| {
            r.output
                .iter()
                .find_map(|o| match o {
                    FindNewOutput::Candidates { points, .. } => Some(points.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert_ne!(get(&a), get(&b));
    }

    #[test]
    fn shuffle_counts_double_then_combine() {
        let (pts, centers) = one_center_line();
        let result = run_job(&pts, centers, 7, 1 << 20);
        // 20 points, emitted twice.
        assert_eq!(
            result.counters.get(Counter::MapOutputRecords),
            40,
            "each point must be emitted twice"
        );
        // Single split: combiner leaves 1 sum + 2 candidates.
        assert_eq!(result.counters.get(Counter::ReduceInputRecords), 3);
    }

    #[test]
    fn single_point_cluster_yields_one_candidate() {
        let pts = vec![vec![0.0], vec![100.0]];
        let mut centers = CenterSet::new(1);
        centers.push(0, &[0.0]);
        centers.push(1, &[100.0]);
        let result = run_job(&pts, centers, 3, 1 << 20);
        for o in &result.output {
            if let FindNewOutput::Candidates { points, .. } = o {
                assert_eq!(points.len(), 1, "one-point cluster has one candidate");
            }
        }
    }

    #[test]
    fn keep_two_minimal_is_associative() {
        let vals: Vec<PointSum> = (0..10).map(|i| (vec![i as f64], 1)).collect();
        let all = keep_two_minimal(9, vals.clone());
        // Partition into chunks, combine per chunk, then combine winners.
        let (a, b) = vals.split_at(4);
        let partial: Vec<PointSum> = keep_two_minimal(9, a.to_vec())
            .into_iter()
            .chain(keep_two_minimal(9, b.to_vec()))
            .collect();
        let recombined = keep_two_minimal(9, partial);
        assert_eq!(all, recombined);
    }
}
