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
//!
//! Each point's priority is hashed once. While a map attempt combines,
//! a kept candidate carries its priority in the count slot of its
//! `(coords, count)` record, and [`Job::finish_combine`] restores the
//! count of 1 the mapper emitted before the record leaves the attempt.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gmr_mapreduce::hash::StableHasher;
use gmr_mapreduce::prelude::*;

use crate::mr::centers::{CenterSet, CenterUpdate, ChannelKey, Nearest};
use crate::mr::kmeans_job::{combine_point_sum, fold_point_sums, load_point, PointSum};

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
    let mut h = StableHasher::new();
    seed.hash(&mut h);
    for c in coords {
        c.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Folds the point `coords` of priority `p` into `best`, the at most
/// two `(coords, priority)` pairs of smallest priority seen so far, in
/// ascending priority with ties in arrival order: a stable two-slot
/// insert, which keeps what pushing, stably sorting by priority and
/// keeping two would (stable under recombination: min of mins is the
/// global min). A point that displaces the second pair is copied into
/// that pair's buffer. The combiner and the candidate reducer share it,
/// so neither collects a key's values.
fn keep_two_minimal(best: &mut Vec<(Vec<f64>, u64)>, coords: &[f64], p: u64) {
    // Past every kept pair whose priority is at most `p`: ties keep
    // arrival order.
    let at = best
        .iter()
        .rposition(|&(_, kept)| kept <= p)
        .map_or(0, |i| i + 1);
    if at < 2 {
        let mut slot = if best.len() == 2 {
            best.pop().expect("two kept pairs")
        } else {
            (Vec::new(), 0)
        };
        slot.0.clear();
        slot.0.extend_from_slice(coords);
        slot.1 = p;
        best.insert(at, slot);
    }
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
    /// The value emitted, twice, for the current point.
    scratch: PointSum,
}

impl Mapper for FindNewCentersMapper {
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
        let value = load_point(&mut self.scratch, point);
        out.emit(ChannelKey::Refine(id).encode(), value);
        out.emit(ChannelKey::Candidate(id).encode(), value);
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
                let mut winners = Vec::with_capacity(2);
                for (coords, _) in values {
                    keep_two_minimal(&mut winners, &coords, priority(self.seed, &coords));
                }
                out.push(FindNewOutput::Candidates {
                    id,
                    points: winners.into_iter().map(|(coords, _)| coords).collect(),
                });
            }
            ChannelKey::Refine(id) => out.extend(
                fold_point_sums(values)
                    .map(|sums| FindNewOutput::Update(CenterUpdate::from_sums(id, sums))),
            ),
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
            scratch: PointSum::default(),
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
    /// A kept candidate holds its priority in its count until
    /// [`Job::finish_combine`].
    fn combine(&self, key: &i64, acc: &mut Vec<PointSum>, value: &PointSum) {
        match ChannelKey::decode(*key) {
            ChannelKey::Candidate(_) => {
                keep_two_minimal(acc, &value.0, priority(self.seed, &value.0));
            }
            ChannelKey::Refine(_) => combine_point_sum(acc, value),
        }
    }

    /// Restores the count of 1 each kept candidate was emitted with.
    fn finish_combine(&self, key: &i64, combined: &mut Vec<PointSum>) {
        if let ChannelKey::Candidate(_) = ChannelKey::decode(*key) {
            for (_, count) in combined {
                *count = 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::kmeans_job::tests::{bits, draws, sums, windows};
    use gmr_datagen::format_point;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;
    use proptest::prelude::*;

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

    /// The batch form the streaming insert replaced, kept as the
    /// reference: push, stable sort by priority, keep two.
    fn batch_keep_two(seed: u64, values: Vec<PointSum>) -> Vec<PointSum> {
        let mut best: Vec<(u64, PointSum)> = Vec::with_capacity(3);
        for v in values {
            let p = priority(seed, &v.0);
            best.push((p, v));
            best.sort_by_key(|(p, _)| *p);
            best.truncate(2);
        }
        best.into_iter().map(|(_, v)| v).collect()
    }

    /// What the runtime drains from a candidate accumulator: the
    /// records after [`Job::finish_combine`].
    fn drained(job: &FindNewCentersJob, key: i64, acc: &[PointSum]) -> Vec<PointSum> {
        let mut records = acc.to_vec();
        job.finish_combine(&key, &mut records);
        records
    }

    /// The job over one three-dimensional center, and its two keys.
    fn one_center_job(seed: u64) -> (FindNewCentersJob, i64, i64) {
        let mut centers = CenterSet::new(3);
        centers.push(4, &[0.0; 3]);
        let job = FindNewCentersJob::new(Arc::new(centers), seed);
        let candidate = ChannelKey::Candidate(4).encode();
        (job, candidate, ChannelKey::Refine(4).encode())
    }

    proptest! {
        /// The job's combiner, fed any sequence of emitted `(point, 1)`
        /// values — repeated points tie on priority — keeps on the
        /// candidate channel what the batch form keeps: drained through
        /// `finish_combine` after every value, its records equal the
        /// batch form's bit for bit and in order, each with count 1; so
        /// does the batch form applied per window to what the last
        /// window kept plus the window's values. The refine channel
        /// folds like the point-sum fold and drains unchanged.
        #[test]
        fn streaming_keep_two_matches_the_batch_form(
            draws in draws(),
            cuts in proptest::collection::vec(0usize..64, 0..4),
            seed in 0u64..4,
        ) {
            let values: Vec<PointSum> = sums(&draws).into_iter().map(|(c, _)| (c, 1)).collect();
            let (job, candidate, refine) = one_center_job(seed);
            let (mut candidates, mut refined) = (Vec::new(), Vec::new());
            for (i, value) in values.iter().enumerate() {
                job.combine(&candidate, &mut candidates, value);
                job.combine(&refine, &mut refined, value);
                let batch = batch_keep_two(seed, values[..=i].to_vec());
                prop_assert_eq!(bits(&drained(&job, candidate, &candidates)), bits(&batch));
            }
            let mut held = Vec::new();
            for window in windows(&values, &cuts) {
                held = batch_keep_two(seed, held.into_iter().chain(window).collect());
            }
            let records = drained(&job, candidate, &candidates);
            prop_assert_eq!(bits(&records), bits(&held));
            prop_assert!(records.iter().all(|&(_, count)| count == 1));
            let folded: Vec<PointSum> = fold_point_sums(values).into_iter().collect();
            prop_assert_eq!(bits(&drained(&job, refine, &refined)), bits(&folded));
        }
    }

    /// A candidate whose priority ties a kept one goes after it: tying
    /// the first kept pair, it displaces the second; tying the second,
    /// it is dropped. The accumulator holds the kept priorities in
    /// ascending order until it is drained with count 1.
    #[test]
    fn a_tied_priority_keeps_arrival_order() {
        let seed = 5;
        let (job, candidate, _) = one_center_job(seed);
        let mut points: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64, 1.0, -0.0]).collect();
        points.sort_by_key(|p| priority(seed, p));
        let [a, b, c] = [0, 1, 2].map(|i| (points[i].clone(), 1u64));
        let p = |v: &PointSum| priority(seed, &v.0);
        let cases = [
            (vec![&a, &b, &a], vec![(&a, p(&a)), (&a, p(&a))]),
            (vec![&a, &b, &b], vec![(&a, p(&a)), (&b, p(&b))]),
            (vec![&b, &c, &b], vec![(&b, p(&b)), (&b, p(&b))]),
            (vec![&c, &b, &b, &a], vec![(&a, p(&a)), (&b, p(&b))]),
        ];
        for (order, kept) in cases {
            let mut acc = Vec::new();
            for value in &order {
                job.combine(&candidate, &mut acc, value);
            }
            let held: Vec<PointSum> = kept.iter().map(|(v, p)| (v.0.clone(), *p)).collect();
            assert_eq!(bits(&acc), bits(&held), "{order:?}");
            let values: Vec<PointSum> = order.into_iter().cloned().collect();
            let records = drained(&job, candidate, &acc);
            assert_eq!(bits(&records), bits(&batch_keep_two(seed, values)));
            assert!(records.iter().all(|&(_, count)| count == 1));
        }
    }

    /// Keeps two of `values` as the candidate reducer does.
    fn keep_two(seed: u64, values: impl IntoIterator<Item = PointSum>) -> Vec<PointSum> {
        let mut best = Vec::new();
        for (coords, _) in values {
            keep_two_minimal(&mut best, &coords, priority(seed, &coords));
        }
        best.into_iter().map(|(coords, _)| (coords, 1)).collect()
    }

    #[test]
    fn keep_two_minimal_is_associative() {
        let vals: Vec<PointSum> = (0..10).map(|i| (vec![i as f64], 1)).collect();
        let all = keep_two(9, vals.clone());
        // Partition into chunks, combine per chunk, then combine winners.
        let (a, b) = vals.split_at(4);
        let partial: Vec<PointSum> = keep_two(9, a.to_vec())
            .into_iter()
            .chain(keep_two(9, b.to_vec()))
            .collect();
        let recombined = keep_two(9, partial);
        assert_eq!(all, recombined);
    }
}
