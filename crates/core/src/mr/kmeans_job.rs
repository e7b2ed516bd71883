//! The classical MapReduce k-means job with combiners (§3, first loop
//! operation of Algorithm 1).
//!
//! * **Mapper** — parse the point, find its nearest center, emit
//!   `(center_id, (coordinates, 1))`.
//! * **Combiner** — pre-aggregate partial `(sum, count)` pairs per
//!   center, collapsing a split's emissions to at most one record per
//!   center ("a combiner is a well-known pre-aggregation optimization").
//! * **Reducer** — fold the partials and emit the new center position
//!   `sum / count`.

use std::sync::Arc;

use gmr_datagen::parse_point_dim_into;
use gmr_mapreduce::prelude::*;

use crate::mr::centers::{CenterSet, CenterUpdate};

/// Intermediate value: partial coordinate sums plus a point count.
pub type PointSum = (Vec<f64>, u64);

/// The typed failure for a job launched over an empty center set — a
/// degenerate iteration the drivers degrade into a reported error
/// instead of a panic.
pub(crate) fn empty_centers_error(job: &str) -> Error {
    Error::Degenerate(format!("{job} launched with an empty center set"))
}

/// Element-wise fold of partial sums (shared by this job's combiner and
/// reducer and by `KMeansAndFindNewCenters`).
pub fn fold_point_sums(values: impl IntoIterator<Item = PointSum>) -> Option<PointSum> {
    let mut acc: Option<PointSum> = None;
    for (coords, count) in values {
        match acc.as_mut() {
            None => acc = Some((coords, count)),
            Some((sum, total)) => {
                debug_assert_eq!(sum.len(), coords.len(), "mixed dimensions in shuffle");
                for (s, c) in sum.iter_mut().zip(&coords) {
                    *s += c;
                }
                *total += count;
            }
        }
    }
    acc
}

/// The k-means MapReduce job.
pub struct KMeansJob {
    centers: Arc<CenterSet>,
    combiner: bool,
}

impl KMeansJob {
    /// Creates the job for the given current centers. An empty center
    /// set is accepted here — the job then fails at runtime with the
    /// typed [`Error::Degenerate`], which the drivers degrade into a
    /// reported iteration error instead of a panic.
    pub fn new(centers: Arc<CenterSet>) -> Self {
        Self {
            centers,
            combiner: true,
        }
    }

    /// Disables or re-enables the map-side combiner. The paper treats
    /// the combiner as essential (§3.1); the toggle exists for the
    /// ablation benchmark that quantifies what it buys.
    pub fn with_combiner(mut self, combiner: bool) -> Self {
        self.combiner = combiner;
        self
    }
}

/// Mapper of [`KMeansJob`].
pub struct KMeansMapper {
    centers: Arc<CenterSet>,
    /// Assignments the blocked kernel computed for the current block,
    /// drained one per `map_point` call.
    pending: std::collections::VecDeque<(i64, u64)>,
}

impl Mapper for KMeansMapper {
    type Key = i64;
    type Value = PointSum;
}

impl PointMapper for KMeansMapper {
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
            .ok_or_else(|| empty_centers_error("KMeans"))?;
        ctx.charge_distances(evals, self.centers.dim());
        out.emit(id, (point.to_vec(), 1));
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

/// Reducer of [`KMeansJob`].
pub struct KMeansReducer;

impl Reducer for KMeansReducer {
    type Key = i64;
    type Value = PointSum;
    type Output = CenterUpdate;

    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, PointSum>,
        out: &mut Vec<CenterUpdate>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if let Some((sum, count)) = fold_point_sums(values) {
            let inv = 1.0 / count as f64;
            out.push(CenterUpdate {
                id: key,
                coords: sum.iter().map(|s| s * inv).collect(),
                count,
            });
        }
        Ok(())
    }
}

impl Job for KMeansJob {
    type Key = i64;
    type Value = PointSum;
    type Output = CenterUpdate;
    type Mapper = KMeansMapper;
    type Reducer = KMeansReducer;

    fn name(&self) -> &str {
        "KMeans"
    }

    fn create_mapper(&self) -> KMeansMapper {
        KMeansMapper {
            centers: Arc::clone(&self.centers),
            pending: std::collections::VecDeque::new(),
        }
    }

    fn create_reducer(&self) -> KMeansReducer {
        KMeansReducer
    }

    fn has_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, _key: &i64, values: Vec<PointSum>) -> Vec<PointSum> {
        fold_point_sums(values).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::centers::apply_updates;
    use gmr_datagen::format_point;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;

    fn write_points(dfs: &Arc<Dfs>, path: &str, pts: &[Vec<f64>]) {
        dfs.put_lines(path, pts.iter().map(|p| format_point(p)))
            .unwrap();
    }

    #[test]
    fn fold_sums_basic() {
        let folded = fold_point_sums(vec![(vec![1.0, 2.0], 1), (vec![3.0, 4.0], 2)]).unwrap();
        assert_eq!(folded, (vec![4.0, 6.0], 3));
        assert_eq!(fold_point_sums(Vec::new()), None);
    }

    #[test]
    fn one_job_equals_one_lloyd_iteration() {
        // Two 1-D blobs; centers slightly off. After one job the centers
        // must be the blob means, exactly like serial Lloyd.
        let dfs = Arc::new(Dfs::new(64));
        write_points(
            &dfs,
            "pts",
            &[
                vec![0.0],
                vec![1.0],
                vec![2.0],
                vec![10.0],
                vec![11.0],
                vec![12.0],
            ],
        );
        let mut centers = CenterSet::new(1);
        centers.push(0, &[0.5]);
        centers.push(1, &[11.5]);
        let job = KMeansJob::new(Arc::new(centers.clone()));
        let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
        let result = runner
            .run(&job, "pts", &JobConfig::with_reducers(2))
            .unwrap();

        let (next, counts) = apply_updates(&centers, &result.output);
        assert_eq!(counts, vec![3, 3]);
        assert!((next.coords(0)[0] - 1.0).abs() < 1e-12);
        assert!((next.coords(1)[0] - 11.0).abs() < 1e-12);

        // Distance accounting: 6 points × 2 centers.
        assert_eq!(result.counters.get(Counter::DistanceComputations), 12);
    }

    #[test]
    fn empty_cluster_is_absent_from_output() {
        let dfs = Arc::new(Dfs::new(64));
        write_points(&dfs, "pts", &[vec![0.0], vec![1.0]]);
        let mut centers = CenterSet::new(1);
        centers.push(0, &[0.5]);
        centers.push(1, &[100.0]);
        let job = KMeansJob::new(Arc::new(centers.clone()));
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let result = runner
            .run(&job, "pts", &JobConfig::with_reducers(2))
            .unwrap();
        assert_eq!(result.output.len(), 1);
        assert_eq!(result.output[0].id, 0);
        let (next, counts) = apply_updates(&centers, &result.output);
        assert_eq!(next.coords(1), &[100.0]);
        assert_eq!(counts[1], 0);
    }

    #[test]
    fn combiner_collapses_to_one_record_per_center_per_split() {
        let dfs = Arc::new(Dfs::new(1 << 20)); // single split
        let pts: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 2) as f64 * 10.0]).collect();
        write_points(&dfs, "pts", &pts);
        let mut centers = CenterSet::new(1);
        centers.push(0, &[0.0]);
        centers.push(1, &[10.0]);
        let job = KMeansJob::new(Arc::new(centers));
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let result = runner
            .run(&job, "pts", &JobConfig::with_reducers(2))
            .unwrap();
        assert_eq!(result.counters.get(Counter::MapOutputRecords), 100);
        // One split, two centers → exactly 2 combined records shuffled.
        assert_eq!(result.counters.get(Counter::ReduceInputRecords), 2);
    }

    #[test]
    fn malformed_points_are_skipped_not_fatal() {
        // Unparsable text, a NaN coordinate, and a dimension mismatch
        // are all quarantined; the clean points still cluster.
        let dfs = Arc::new(Dfs::new(64));
        dfs.put_lines("pts", ["1.0", "oops", "nan", "2.0 3.0", "3.0"])
            .unwrap();
        let mut centers = CenterSet::new(1);
        centers.push(0, &[0.0]);
        let job = KMeansJob::new(Arc::new(centers));
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let result = runner
            .run(&job, "pts", &JobConfig::with_reducers(1))
            .unwrap();
        assert_eq!(result.counters.get(Counter::BadRecordsSkipped), 3);
        assert!(result.counters.get(Counter::BadRecordBytes) > 0);
        assert_eq!(result.output.len(), 1);
        assert_eq!(result.output[0].count, 2);
        assert!((result.output[0].coords[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_center_set_is_a_typed_degenerate_error() {
        let dfs = Arc::new(Dfs::new(64));
        dfs.put_lines("pts", ["1.0 2.0"]).unwrap();
        let job = KMeansJob::new(Arc::new(CenterSet::new(2)));
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let err = runner
            .run(&job, "pts", &JobConfig::with_reducers(1))
            .unwrap_err();
        assert!(
            matches!(err, gmr_mapreduce::Error::Degenerate(_)),
            "expected Degenerate, got {err:?}"
        );
    }
}
