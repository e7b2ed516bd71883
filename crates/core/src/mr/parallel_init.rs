//! k-means‖ — the MapReduce k-means++ initialization (§2: "Bahmani
//! \[4\] also proposed a MapReduce version of k-means++ initialization
//! algorithm").
//!
//! The paper's G-means picks initial centers at random and notes that
//! "other distributed or more efficient algorithms can be found in the
//! literature and can perfectly be used instead"; this module provides
//! the canonical one. Following Bahmani et al. (VLDB 2012):
//!
//! 1. seed `C` with one random point;
//! 2. for a few rounds, run a job that (a) computes the clustering cost
//!    `ψ = Σ d²(x, C)` and (b) samples each point independently with
//!    probability `ℓ·d²(x, C)/ψ`, adding the samples to `C`;
//! 3. weight every candidate by the number of points nearest to it
//!    (one more job — the k-means job's counts);
//! 4. recluster the small weighted candidate set into exactly `k`
//!    centers with weighted k-means++ on the driver.
//!
//! Sampling inside a mapper must be deterministic and split-invariant,
//! so "random" is the same hash-uniform construction the candidate
//! picker of `KMeansAndFindNewCenters` uses: a point is sampled iff
//! `h(seed_round, coords) / 2⁶⁴ < ℓ·d²/ψ`.
//!
//! The driver, [`KMeansParallelInit`], is the generic [`Engine`]
//! running a [`ParInitAlgo`]: each sampling round is one job and one
//! checkpointable boundary; the weighting job and the driver-side
//! k-means++ run in `finish` and are recomputed deterministically on
//! resume.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gmr_linalg::{squared_euclidean, Dataset};
use gmr_mapreduce::hash::StableHasher;
use gmr_mapreduce::prelude::*;
use gmr_mapreduce::writable::Writable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mr::centers::{check_next_id, CenterSet, Nearest};
use crate::mr::engine::{Engine, EngineCtx, IterativeAlgorithm, RunStats};
use crate::mr::kmeans_job::{combine_point_sum, fold_point_sums, load_point, PointSum};

/// Key 0 carries the cost aggregate; key 1 carries sampled candidates.
const COST_KEY: i64 = 0;
const SAMPLE_KEY: i64 = 1;

/// Sampling rounds after the ψ-only round 0 (Bahmani's setting).
const ROUNDS: usize = 5;

/// Uniform-in-[0,1) hash of a point, keyed per round.
fn uniform_hash(seed: u64, coords: &[f64]) -> f64 {
    let mut h = StableHasher::new();
    seed.hash(&mut h);
    for c in coords {
        c.to_bits().hash(&mut h);
    }
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// One round of k-means‖: cost computation + proportional sampling.
pub struct ParallelInitRound {
    candidates: Arc<CenterSet>,
    /// `ℓ / ψ` from the previous round; `None` on the very first round
    /// (no cost known yet → no sampling, cost only).
    sample_factor: Option<f64>,
    round_seed: u64,
}

impl ParallelInitRound {
    /// Creates the round job.
    pub fn new(candidates: Arc<CenterSet>, sample_factor: Option<f64>, round_seed: u64) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        Self {
            candidates,
            sample_factor,
            round_seed,
        }
    }
}

/// Mapper: distance to the candidate set; emit partial cost, and the
/// point itself when sampled.
pub struct ParallelInitMapper {
    candidates: Arc<CenterSet>,
    sample_factor: Option<f64>,
    round_seed: u64,
    cost_acc: f64,
    seen: u64,
    /// The value emitted for a sampled point.
    scratch: PointSum,
}

impl Mapper for ParallelInitMapper {
    type Key = i64;
    type Value = PointSum;
    type Row = Nearest;

    fn dim(&self) -> usize {
        self.candidates.dim()
    }

    fn prepare_block(
        &mut self,
        points: &[f64],
        norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<Vec<Nearest>> {
        Ok(self.candidates.nearest_block(points, norms))
    }

    fn map_point(
        &mut self,
        point: &[f64],
        (_, _, d2, evals): Nearest,
        out: &mut MapOutput<'_, i64, PointSum>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        ctx.charge_distances(evals, self.candidates.dim());
        self.cost_acc += d2;
        self.seen += 1;
        if let Some(factor) = self.sample_factor {
            let p = (factor * d2).min(1.0);
            if uniform_hash(self.round_seed, point) < p {
                out.emit(SAMPLE_KEY, load_point(&mut self.scratch, point));
            }
        }
        Ok(())
    }

    fn close(
        &mut self,
        out: &mut MapOutput<'_, i64, PointSum>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        // One aggregate cost record per map task.
        out.emit(COST_KEY, &(vec![self.cost_acc], self.seen));
        Ok(())
    }
}

/// Output of one round.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundOutput {
    /// Total clustering cost `ψ` and the number of points.
    Cost {
        /// `Σ d²(x, C)`.
        psi: f64,
        /// Points seen.
        n: u64,
    },
    /// One sampled candidate.
    Candidate(Vec<f64>),
}

/// Reducer: folds cost aggregates; passes candidates through.
pub struct ParallelInitReducer;

impl Reducer for ParallelInitReducer {
    type Key = i64;
    type Value = PointSum;
    type Output = RoundOutput;

    fn reduce(
        &mut self,
        key: i64,
        values: Values<'_, PointSum>,
        out: &mut Vec<RoundOutput>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        if key == COST_KEY {
            if let Some((sum, n)) = fold_point_sums(values) {
                out.push(RoundOutput::Cost { psi: sum[0], n });
            }
        } else {
            for (coords, _) in values {
                out.push(RoundOutput::Candidate(coords));
            }
        }
        Ok(())
    }
}

impl Job for ParallelInitRound {
    type Key = i64;
    type Value = PointSum;
    type Output = RoundOutput;
    type Mapper = ParallelInitMapper;
    type Reducer = ParallelInitReducer;

    fn name(&self) -> &str {
        "KMeansParallelInitRound"
    }

    fn create_mapper(&self) -> ParallelInitMapper {
        ParallelInitMapper {
            candidates: Arc::clone(&self.candidates),
            sample_factor: self.sample_factor,
            round_seed: self.round_seed,
            cost_acc: 0.0,
            seen: 0,
            scratch: PointSum::default(),
        }
    }

    fn create_reducer(&self) -> ParallelInitReducer {
        ParallelInitReducer
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, key: &i64, acc: &mut Vec<PointSum>, value: &PointSum) {
        if *key == COST_KEY {
            combine_point_sum(acc, value);
        } else {
            acc.push(value.clone()); // candidates pass through untouched
        }
    }
}

/// Driver state at a round boundary.
pub struct PState {
    /// Next sampling round to run (rounds `0..next_round` are done).
    next_round: usize,
    candidates: CenterSet,
    next_id: i64,
    psi: Option<f64>,
    /// The sampling loop broke early (cost hit zero).
    done_sampling: bool,
}

/// Journal wire form: the next round, candidates, next id, ψ and the
/// early-stop flag. Decoding rejects state `iteration` could not run:
/// no candidates, or a `next_id` that is not fresh.
impl Writable for PState {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.next_round as u64).write(buf);
        self.candidates.write(buf);
        self.next_id.write(buf);
        self.psi.write(buf);
        self.done_sampling.write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let state = Self {
            next_round: u64::read(buf)? as usize,
            candidates: CenterSet::read(buf)?,
            next_id: i64::read(buf)?,
            psi: Option::read(buf)?,
            done_sampling: bool::read(buf)?,
        };
        if state.candidates.is_empty() {
            return Err(Error::Corrupt("k-means|| state has no candidates".into()));
        }
        check_next_id(state.next_id, state.candidates.iter().map(|(id, _)| id))?;
        Ok(state)
    }
}

/// k-means‖ on the [`Engine`]. Checkpoint commits are not charged
/// ([`IterativeAlgorithm::CHARGE_COMMITS`] is `false`): the init driver
/// surfaces no counters or simulated clock.
pub struct ParInitAlgo {
    k: usize,
    seed: u64,
}

impl IterativeAlgorithm for ParInitAlgo {
    type State = PState;
    type Output = CenterSet;

    const NAME: &'static str = "KMeansParallelInit";
    const MAGIC: u32 = 0x504e_4901;
    const CHARGE_COMMITS: bool = false;

    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<PState> {
        // Seed candidate: one random point (one dataset read).
        let seed_points = ctx.sample(1, self.seed)?;
        let mut candidates = CenterSet::new(seed_points.dim());
        candidates.push(0, seed_points.row(0));
        Ok(PState {
            next_round: 0,
            candidates,
            next_id: 1,
            psi: None,
            done_sampling: false,
        })
    }

    fn dim(&self, state: &PState) -> Result<usize> {
        Ok(state.candidates.dim())
    }

    fn done(&self, state: &PState) -> bool {
        // Round 0 measures ψ only; rounds 1..=rounds also sample. A
        // restored ψ of `None` past round 0 means there is nothing left
        // to sample with.
        state.done_sampling
            || state.next_round > ROUNDS
            || (state.next_round > 0 && state.psi.is_none())
    }

    fn iteration(&self, state: &mut PState, ctx: &mut EngineCtx<'_>) -> Result<()> {
        let round = state.next_round;
        // Oversampling factor ℓ = 2k.
        let oversample = 2.0 * self.k as f64;
        let factor = state
            .psi
            .map(|p| if p > 0.0 { oversample / p } else { 0.0 });
        let job = ParallelInitRound::new(
            Arc::new(ctx.prepare(state.candidates.clone())),
            if round == 0 { None } else { factor },
            self.seed ^ (round as u64).wrapping_mul(0x517c_c1b7),
        );
        let mut new_psi = 0.0;
        for out in ctx.run_job(job, ctx.reduce_slots())?.0 {
            match out {
                RoundOutput::Cost { psi: p, .. } => new_psi += p,
                RoundOutput::Candidate(coords) => {
                    state.candidates.push(state.next_id, &coords);
                    state.next_id += 1;
                }
            }
        }
        state.psi = Some(new_psi);
        state.next_round += 1;
        if new_psi == 0.0 {
            state.done_sampling = true; // every point is already a candidate
        }
        Ok(())
    }

    fn finish(
        &self,
        state: PState,
        ctx: &mut EngineCtx<'_>,
        _stats: RunStats,
    ) -> Result<CenterSet> {
        // Weight candidates by attraction counts (one k-means job).
        let candidates = state.candidates;
        let weight_job =
            crate::mr::kmeans_job::KMeansJob::new(Arc::new(ctx.prepare(candidates.clone())));
        let (updates, _) = ctx.run_job(weight_job, ctx.reduce_slots())?;
        let mut weights = vec![1u64; candidates.len()];
        for update in &updates {
            if let Some(idx) = candidates.index_of(update.id) {
                weights[idx] = update.count.max(1);
            }
        }

        // Recluster the weighted candidates to exactly k (driver-side
        // weighted k-means++, as in Bahmani §3.3).
        Ok(weighted_kmeanspp(&candidates, &weights, self.k, self.seed))
    }
}

/// The k-means‖ driver: [`ParInitAlgo`] on the [`Engine`], which
/// supplies the options, `run` and `resume`. `run` returns exactly `k`
/// centers (ids `0..k`) ready for [`crate::mr::MRKMeans::run_from`].
pub type KMeansParallelInit = Engine<ParInitAlgo>;

impl KMeansParallelInit {
    /// Initialization for `k` clusters with Bahmani's settings: 5
    /// sampling rounds, oversampling factor `ℓ = 2k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(runner: JobRunner, k: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        Engine::for_algorithm(runner, ParInitAlgo { k, seed })
    }
}

/// Weighted k-means++ over a small candidate set.
fn weighted_kmeanspp(candidates: &CenterSet, weights: &[u64], k: usize, seed: u64) -> CenterSet {
    let n = candidates.len();
    let dim = candidates.dim();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01);
    let mut chosen = Dataset::with_capacity(dim, k);

    // First pick: weight-proportional.
    let total_w: u64 = weights.iter().sum();
    let mut target = rng.random_range(0.0..total_w.max(1) as f64);
    let mut first = 0;
    for (i, &w) in weights.iter().enumerate() {
        if target < w as f64 {
            first = i;
            break;
        }
        target -= w as f64;
    }
    chosen.push(candidates.coords(first));

    let mut dist2: Vec<f64> = (0..n)
        .map(|i| squared_euclidean(candidates.coords(i), chosen.row(0)))
        .collect();
    while chosen.len() < k.min(n) {
        let total: f64 = dist2.iter().zip(weights).map(|(d, &w)| d * w as f64).sum();
        let pick = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen_i = n - 1;
            for (i, (&d, &w)) in dist2.iter().zip(weights).enumerate() {
                let mass = d * w as f64;
                if target < mass {
                    chosen_i = i;
                    break;
                }
                target -= mass;
            }
            chosen_i
        };
        chosen.push(candidates.coords(pick));
        for (i, d) in dist2.iter_mut().enumerate() {
            let nd = squared_euclidean(candidates.coords(i), candidates.coords(pick));
            if nd < *d {
                *d = nd;
            }
        }
    }
    // Fewer candidates than k: repeat picks (degenerate but total).
    while chosen.len() < k {
        let i = rng.random_range(0..n);
        chosen.push(candidates.coords(i));
    }
    CenterSet::from_dataset(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::{format_point, GaussianMixture};
    use gmr_linalg::euclidean;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use gmr_mapreduce::runtime::JobRunner;

    /// The cost key folds like the batch fold; the sample key keeps
    /// every value, in emission order.
    #[test]
    fn combiner_folds_cost_and_passes_samples_through() {
        use crate::mr::kmeans_job::tests::{bits, sums};
        let draws: Vec<(usize, f64, u64)> = (0..20).map(|i| (i % 12, i as f64 * 3.5, 1)).collect();
        let values = sums(&draws);
        let mut candidates = CenterSet::new(3);
        candidates.push(0, &[0.0; 3]);
        let job = ParallelInitRound::new(Arc::new(candidates), Some(0.5), 3);
        let (mut cost, mut samples) = (Vec::new(), Vec::new());
        for value in &values {
            job.combine(&COST_KEY, &mut cost, value);
            job.combine(&SAMPLE_KEY, &mut samples, value);
        }
        let folded: Vec<PointSum> = fold_point_sums(values.clone()).into_iter().collect();
        assert_eq!(bits(&cost), bits(&folded));
        assert_eq!(bits(&samples), bits(&values));
    }

    fn staged(k: usize, n: usize, seed: u64) -> (JobRunner, Dataset) {
        let spec = GaussianMixture::paper_r10(n, k, seed);
        let d = spec.generate().unwrap();
        let dfs = Arc::new(Dfs::new(16 * 1024));
        dfs.put_lines("pts", d.points.rows().map(format_point))
            .unwrap();
        (
            JobRunner::new(dfs, ClusterConfig::default()).unwrap(),
            d.true_centers,
        )
    }

    #[test]
    fn produces_exactly_k_centers() {
        let (runner, _) = staged(6, 2000, 50);
        let centers = KMeansParallelInit::new(runner, 6, 9).run("pts").unwrap();
        assert_eq!(centers.len(), 6);
        assert_eq!(centers.dim(), 10);
    }

    #[test]
    fn covers_every_true_cluster() {
        // The whole point of k-means‖: one center lands near every true
        // blob even before Lloyd runs.
        let (runner, truth) = staged(8, 4000, 51);
        let centers = KMeansParallelInit::new(runner, 8, 10).run("pts").unwrap();
        let mut covered = 0;
        for t in truth.rows() {
            let best = (0..centers.len())
                .map(|i| euclidean(centers.coords(i), t))
                .fold(f64::INFINITY, f64::min);
            if best < 10.0 {
                covered += 1;
            }
        }
        assert!(covered >= 7, "only {covered}/8 blobs covered at init time");
    }

    #[test]
    fn deterministic_per_seed() {
        let (runner_a, _) = staged(4, 1000, 52);
        let (runner_b, _) = staged(4, 1000, 52);
        let a = KMeansParallelInit::new(runner_a, 4, 3).run("pts").unwrap();
        let b = KMeansParallelInit::new(runner_b, 4, 3).run("pts").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn beats_random_init_on_final_quality() {
        use crate::mr::kmeans_driver::MRKMeans;
        let (runner, _) = staged(8, 4000, 53);
        let init = KMeansParallelInit::new(runner.clone(), 8, 4)
            .run("pts")
            .unwrap();
        let with_pp = MRKMeans::new(runner.clone(), 8, 5, 4)
            .run_from("pts", init)
            .unwrap();
        let plain = MRKMeans::new(runner.clone(), 8, 5, 4).run("pts").unwrap();

        // Evaluate WCSS of both against the data.
        let lines = runner.dfs().read_lines("pts").unwrap();
        let mut data = Dataset::new(10);
        for l in &lines {
            data.push(&gmr_datagen::parse_point(l).unwrap());
        }
        let w_pp = crate::eval::wcss(&data, &with_pp.centers);
        let w_plain = crate::eval::wcss(&data, &plain.centers);
        assert!(
            w_pp <= w_plain * 1.01,
            "k-means|| init {w_pp} should not lose to random {w_plain}"
        );
    }

    #[test]
    fn small_dataset_does_not_underflow() {
        let dfs = Arc::new(Dfs::new(64));
        dfs.put_lines("pts", ["0 0", "1 1", "10 10"]).unwrap();
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let centers = KMeansParallelInit::new(runner, 5, 1).run("pts").unwrap();
        assert_eq!(centers.len(), 5, "k > n still yields k centers");
    }

    #[test]
    fn sampling_is_split_invariant() {
        // Same data, different block sizes → identical init.
        let spec = GaussianMixture::paper_r10(800, 4, 54);
        let d = spec.generate().unwrap();
        let mut results = Vec::new();
        for block in [1 << 20, 512] {
            let dfs = Arc::new(Dfs::new(block));
            dfs.put_lines("pts", d.points.rows().map(format_point))
                .unwrap();
            let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
            results.push(KMeansParallelInit::new(runner, 4, 8).run("pts").unwrap());
        }
        assert_eq!(results[0], results[1]);
    }
}
