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

use gmr_mapreduce::prelude::*;

use crate::mr::centers::{CenterSet, CenterUpdate, Nearest};

/// Intermediate value: partial coordinate sums plus a point count.
pub type PointSum = (Vec<f64>, u64);

/// Element-wise left fold of partial sums, the first taken as it is
/// (shared by the reducers of every job whose values are `PointSum`s).
pub fn fold_point_sums(values: impl IntoIterator<Item = PointSum>) -> Option<PointSum> {
    let mut values = values.into_iter();
    let mut acc = values.next()?;
    for value in values {
        add_point_sum(&mut acc, &value);
    }
    Some(acc)
}

/// One step of [`fold_point_sums`], in [`Job::combine`]'s form: `acc`
/// holds the key's one partial sum so far, or nothing before the first
/// value, which is copied as it is; every later value is added into it
/// in place, element by element. The combiner of every job whose values
/// are `PointSum`s.
pub fn combine_point_sum(acc: &mut Vec<PointSum>, value: &PointSum) {
    match acc.first_mut() {
        None => acc.push(value.clone()),
        Some(sum) => add_point_sum(sum, value),
    }
}

/// Adds `(coords, count)` into `(sum, total)`, element by element.
fn add_point_sum((sum, total): &mut PointSum, (coords, count): &PointSum) {
    debug_assert_eq!(sum.len(), coords.len(), "mixed dimensions in shuffle");
    for (s, c) in sum.iter_mut().zip(coords) {
        *s += c;
    }
    *total += count;
}

/// Refills `scratch` with `point` and a count of one — the value a point
/// mapper emits for each point — reusing its buffer, so a mapper that
/// keeps one scratch value allocates only for its first point.
pub(crate) fn load_point<'a>(scratch: &'a mut PointSum, point: &[f64]) -> &'a PointSum {
    scratch.0.clear();
    scratch.0.extend_from_slice(point);
    scratch.1 = 1;
    scratch
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
    /// The value emitted for the current point.
    scratch: PointSum,
}

impl Mapper for KMeansMapper {
    type Key = i64;
    type Value = PointSum;
    type Row = Nearest;

    fn dim(&self) -> usize {
        self.centers.dim()
    }

    fn prepare_block(
        &mut self,
        points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<Nearest>> {
        if self.centers.is_empty() {
            return Err(Error::Degenerate(
                "KMeans launched with an empty center set".into(),
            ));
        }
        Ok(self.centers.nearest_block(points, norms))
    }

    fn map_point(
        &mut self,
        point: &[f64],
        (_, id, _, evals): Nearest,
        out: &mut MapOutput<'_, i64, PointSum>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        ctx.charge_distances(evals, self.centers.dim());
        out.emit(id, load_point(&mut self.scratch, point));
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
        out.extend(fold_point_sums(values).map(|sums| CenterUpdate::from_sums(key, sums)));
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
            scratch: PointSum::default(),
        }
    }

    fn create_reducer(&self) -> KMeansReducer {
        KMeansReducer
    }

    fn has_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, _key: &i64, acc: &mut Vec<PointSum>, value: &PointSum) {
        combine_point_sum(acc, value);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mr::centers::apply_updates;
    use gmr_datagen::format_point;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;
    use proptest::prelude::*;

    /// A drawn sequence of `PointSum`s: a pool index below 6 picks one of
    /// six fixed points — so a sequence repeats points, and their
    /// priorities tie — the first two of them with a `-0.0` first
    /// coordinate; any other index picks a point spread from `x`.
    pub(crate) fn sums(draws: &[(usize, f64, u64)]) -> Vec<PointSum> {
        draws
            .iter()
            .map(|&(i, x, n)| {
                let coords = match i {
                    0 => vec![-0.0, 1.5, -2.25],
                    1 => vec![-0.0, -0.0, 3.0],
                    2..=5 => vec![i as f64 * 0.1, -1e-300, 1e300 / i as f64],
                    _ => vec![x, x * 1e-7 + i as f64, -x * x],
                };
                (coords, n)
            })
            .collect()
    }

    /// Draws for [`sums`].
    pub(crate) fn draws() -> impl Strategy<Value = Vec<(usize, f64, u64)>> {
        proptest::collection::vec((0usize..12, -1e3..1e3f64, 1u64..4), 0..48)
    }

    /// Cuts `values` into consecutive windows at the offsets `cuts`
    /// (each taken modulo one more than the length, then sorted) — the
    /// emission windows of a map attempt.
    pub(crate) fn windows<T: Clone>(values: &[T], cuts: &[usize]) -> Vec<Vec<T>> {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
        at.push(values.len());
        at.sort_unstable();
        let mut start = 0;
        at.into_iter()
            .map(|end| {
                let window = values[start..end].to_vec();
                start = end;
                window
            })
            .collect()
    }

    /// The records' coordinate bits and counts.
    pub(crate) fn bits(records: &[PointSum]) -> Vec<(Vec<u64>, u64)> {
        records
            .iter()
            .map(|(c, n)| (c.iter().map(|x| x.to_bits()).collect(), *n))
            .collect()
    }

    /// The batch fold the combiner replaced, kept as the reference.
    fn batch_fold(values: Vec<PointSum>) -> Vec<PointSum> {
        let mut acc: Option<PointSum> = None;
        for (coords, count) in values {
            match acc.as_mut() {
                None => acc = Some((coords, count)),
                Some((sum, total)) => {
                    for (s, c) in sum.iter_mut().zip(&coords) {
                        *s += c;
                    }
                    *total += count;
                }
            }
        }
        acc.into_iter().collect()
    }

    proptest! {
        /// The streaming combiner, fed any sequence, holds the batch
        /// fold's bits and record count after every value; so does the
        /// batch fold applied
        /// per window to what the last window held plus the window's
        /// values, as an in-place combine per spill window computed it.
        #[test]
        fn streaming_point_sum_matches_the_batch_fold(
            draws in draws(),
            cuts in proptest::collection::vec(0usize..64, 0..4),
        ) {
            let values = sums(&draws);
            let mut acc = Vec::new();
            for (i, value) in values.iter().enumerate() {
                combine_point_sum(&mut acc, value);
                prop_assert_eq!(bits(&acc), bits(&batch_fold(values[..=i].to_vec())));
            }
            let mut held = Vec::new();
            for window in windows(&values, &cuts) {
                held = batch_fold(held.into_iter().chain(window).collect());
            }
            prop_assert_eq!(bits(&acc), bits(&held));
            prop_assert_eq!(fold_point_sums(values.clone()).into_iter().collect::<Vec<_>>(), acc);
        }
    }

    #[test]
    fn the_first_value_is_taken_as_it_is() {
        // Added to a zero start, −0.0 would come out +0.0.
        let mut acc = Vec::new();
        combine_point_sum(&mut acc, &(vec![-0.0, 2.0], 1));
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].0[0].to_bits(), (-0.0f64).to_bits());
        combine_point_sum(&mut acc, &(vec![-0.0, 1.0], 2));
        assert_eq!(bits(&acc), bits(&[(vec![-0.0, 3.0], 3)]));
    }

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
