//! The "additional job" of the classical pipeline: distributed model
//! scoring.
//!
//! §4: "once the centers have been computed for different values of k,
//! multi-k-means requires at least one additional job to find the
//! correct value of k". This is that job: a single MapReduce pass that
//! computes, for every candidate model, its within-cluster sum of
//! squares (and the total sum of squares around the global mean), from
//! which the WCSS-based §2 criteria — elbow and the jump method — pick
//! k without ever materializing assignments.

use std::sync::Arc;

use gmr_datagen::parse_point_dim_into;
use gmr_mapreduce::prelude::*;

use crate::mr::centers::CenterSet;
use crate::mr::kmeans_job::empty_centers_error;

/// Reserved key for the global-dispersion aggregate (`Σ‖x‖²`, `Σx`,
/// `n` — enough to derive the total sum of squares around the mean).
const TOTAL_KEY: u32 = u32::MAX;

/// Partial aggregate: `(Σ d², Σ coordinate-sums…, count)` packed as
/// `(Vec<f64>, u64)` so the k-means combiner algebra applies.
type Partial = (Vec<f64>, u64);

fn fold(values: impl IntoIterator<Item = Partial>) -> Option<Partial> {
    let mut acc: Option<Partial> = None;
    for (v, n) in values {
        match acc.as_mut() {
            None => acc = Some((v, n)),
            Some((sum, total)) => {
                for (s, x) in sum.iter_mut().zip(&v) {
                    *s += x;
                }
                *total += n;
            }
        }
    }
    acc
}

/// The scoring job over one family of candidate models.
pub struct ModelScoringJob {
    sets: Arc<Vec<CenterSet>>,
}

impl ModelScoringJob {
    /// Creates the job.
    pub fn new(sets: Arc<Vec<CenterSet>>) -> Self {
        assert!(!sets.is_empty(), "need at least one model");
        assert!(sets.iter().all(|s| !s.is_empty()), "empty model");
        Self { sets }
    }
}

/// Mapper: per point, one squared distance per model plus the global
/// dispersion aggregate.
pub struct ModelScoringMapper {
    sets: Arc<Vec<CenterSet>>,
    /// Per-model partial WCSS, flushed in `close` (one record per model
    /// per split — the combiner pattern, done in the mapper).
    partial_wcss: Vec<f64>,
    /// Global aggregates: Σ‖x‖² and Σx per dimension.
    sum_sq: f64,
    coord_sums: Vec<f64>,
    seen: u64,
    /// Per-point `(d², evals)` rows — one entry per model — the blocked
    /// kernel computed for the current block, drained one row per
    /// `map_point` call.
    pending: std::collections::VecDeque<Vec<(f64, u64)>>,
}

impl Mapper for ModelScoringMapper {
    type Key = u32;
    type Value = Partial;

    fn close(
        &mut self,
        out: &mut MapOutput<'_, u32, Partial>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        for (mi, wcss) in self.partial_wcss.iter().enumerate() {
            out.emit(mi as u32, (vec![*wcss], self.seen));
        }
        let mut total = vec![self.sum_sq];
        total.extend_from_slice(&self.coord_sums);
        out.emit(TOTAL_KEY, (total, self.seen));
        Ok(())
    }
}

impl PointMapper for ModelScoringMapper {
    fn dim(&self) -> usize {
        self.sets[0].dim()
    }

    fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool {
        parse_point_dim_into(line, self.dim(), out).is_ok()
    }

    fn map_point(
        &mut self,
        point: &[f64],
        _out: &mut MapOutput<'_, u32, Partial>,
        ctx: &mut TaskContext,
    ) -> Result<()> {
        let row = self
            .pending
            .pop_front()
            .ok_or_else(|| empty_centers_error("ModelScoring"))?;
        for (mi, (d2, evals)) in row.into_iter().enumerate() {
            ctx.charge_distances(evals, self.sets[mi].dim());
            self.partial_wcss[mi] += d2;
        }
        self.sum_sq += point.iter().map(|c| c * c).sum::<f64>();
        for (s, c) in self.coord_sums.iter_mut().zip(point) {
            *s += c;
        }
        self.seen += 1;
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
        let mut rows: Vec<Vec<(f64, u64)>> = vec![Vec::with_capacity(self.sets.len()); n];
        for set in self.sets.iter() {
            let block = set.nearest_block(points, norms);
            if block.len() != n {
                // Degenerate (empty) model: leave the queue empty so
                // `map_point` reports the typed error.
                return Ok(());
            }
            for (row, (_, _, d2, evals)) in rows.iter_mut().zip(block) {
                row.push((d2, evals));
            }
        }
        self.pending.extend(rows);
        Ok(())
    }
}

/// One scored model, or the global dispersion record.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelScore {
    /// WCSS of model `index` over `n` points.
    Wcss {
        /// Index into the submitted model family.
        index: usize,
        /// Within-cluster sum of squares.
        wcss: f64,
        /// Points scored.
        n: u64,
    },
    /// Total sum of squares around the global mean, `Σ‖x − x̄‖²`.
    TotalSs {
        /// The dispersion value.
        total_ss: f64,
        /// Points scored.
        n: u64,
    },
}

/// Reducer: folds the partials.
pub struct ModelScoringReducer;

impl Reducer for ModelScoringReducer {
    type Key = u32;
    type Value = Partial;
    type Output = ModelScore;

    fn reduce(
        &mut self,
        key: u32,
        values: Values<'_, Partial>,
        out: &mut Vec<ModelScore>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        let Some((sum, n)) = fold(values) else {
            return Ok(());
        };
        if key == TOTAL_KEY {
            // Σ‖x − x̄‖² = Σ‖x‖² − ‖Σx‖²/n
            let sum_sq = sum[0];
            let norm2: f64 = sum[1..].iter().map(|s| s * s).sum();
            out.push(ModelScore::TotalSs {
                total_ss: sum_sq - norm2 / n as f64,
                n,
            });
        } else {
            out.push(ModelScore::Wcss {
                index: key as usize,
                wcss: sum[0],
                n,
            });
        }
        Ok(())
    }
}

impl Job for ModelScoringJob {
    type Key = u32;
    type Value = Partial;
    type Output = ModelScore;
    type Mapper = ModelScoringMapper;
    type Reducer = ModelScoringReducer;

    fn name(&self) -> &str {
        "ModelScoring"
    }

    fn create_mapper(&self) -> ModelScoringMapper {
        let dim = self.sets[0].dim();
        ModelScoringMapper {
            partial_wcss: vec![0.0; self.sets.len()],
            sets: Arc::clone(&self.sets),
            sum_sq: 0.0,
            coord_sums: vec![0.0; dim],
            seen: 0,
            pending: std::collections::VecDeque::new(),
        }
    }

    fn create_reducer(&self) -> ModelScoringReducer {
        ModelScoringReducer
    }

    fn has_combiner(&self) -> bool {
        true
    }

    fn combine(&self, _key: &u32, values: Vec<Partial>) -> Vec<Partial> {
        fold(values).into_iter().collect()
    }
}

/// Scored family: per-model WCSS plus the dataset's total dispersion.
#[derive(Clone, Debug)]
pub struct ScoredModels {
    /// `(k, wcss)` per model, in the submitted order.
    pub wcss: Vec<(usize, f64)>,
    /// Total sum of squares around the global mean.
    pub total_ss: f64,
    /// Points scored.
    pub n: u64,
}

impl ScoredModels {
    /// Elbow pick over the distributed scores: the k whose explained
    /// variance gain drops the most (§2's elbow criterion, computed
    /// from one MR pass instead of n·k assignments per model).
    pub fn elbow(&self) -> Option<usize> {
        if self.wcss.len() < 3 || self.total_ss <= 0.0 {
            return None;
        }
        let ev: Vec<f64> = self
            .wcss
            .iter()
            .map(|(_, w)| (1.0 - w / self.total_ss).clamp(0.0, 1.0))
            .collect();
        let mut best = None;
        let mut best_drop = f64::NEG_INFINITY;
        for i in 1..ev.len() - 1 {
            let drop = (ev[i] - ev[i - 1]) - (ev[i + 1] - ev[i]);
            if drop > best_drop {
                best_drop = drop;
                best = Some(self.wcss[i].0);
            }
        }
        best
    }

    /// Jump-method pick (Sugar & James) from the distributed scores.
    pub fn jump(&self, dim: usize) -> Option<usize> {
        if self.wcss.is_empty() || self.n == 0 {
            return None;
        }
        let nd = self.n as f64 * dim as f64;
        let power = -(dim as f64) / 2.0;
        let mut prev = 0.0;
        let mut best: Option<(usize, f64)> = None;
        for (k, w) in &self.wcss {
            let transformed = (w / nd).max(1e-300).powf(power);
            let jump = transformed - prev;
            prev = transformed;
            if best.map_or(true, |(_, bj)| jump > bj) {
                best = Some((*k, jump));
            }
        }
        best.map(|(k, _)| k)
    }
}

/// Runs the scoring job over a model family (e.g. the output of
/// [`crate::mr::MultiKMeans`]), returning the assembled scores.
pub fn score_models(
    runner: &JobRunner,
    input: &str,
    models: &[(usize, CenterSet)],
) -> Result<ScoredModels> {
    let sets: Vec<CenterSet> = models.iter().map(|(_, s)| s.clone()).collect();
    let job = ModelScoringJob::new(Arc::new(sets));
    let reducers = runner
        .cluster()
        .total_reduce_slots()
        .min(models.len() + 1)
        .max(1);
    let result = runner.run(&job, input, &JobConfig::with_reducers(reducers))?;
    let mut wcss = vec![(0usize, f64::NAN); models.len()];
    let mut total_ss = f64::NAN;
    let mut n = 0u64;
    for score in result.output {
        match score {
            ModelScore::Wcss { index, wcss: w, .. } => {
                wcss[index] = (models[index].0, w);
            }
            ModelScore::TotalSs { total_ss: t, n: nn } => {
                total_ss = t;
                n = nn;
            }
        }
    }
    if wcss.iter().any(|(_, w)| w.is_nan()) || total_ss.is_nan() {
        return Err(Error::Task("model scoring output incomplete".into()));
    }
    Ok(ScoredModels { wcss, total_ss, n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::MultiKMeans;
    use gmr_datagen::GaussianMixture;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;

    fn staged(k_real: usize, n: usize, seed: u64) -> (JobRunner, gmr_linalg::Dataset) {
        let spec = GaussianMixture::paper_r10(n, k_real, seed);
        let d = spec.generate().unwrap();
        let dfs = Arc::new(Dfs::new(16 * 1024));
        spec.generate_to_dfs(&dfs, "pts").unwrap();
        (
            JobRunner::new(dfs, ClusterConfig::default()).unwrap(),
            d.points,
        )
    }

    #[test]
    fn scores_match_serial_evaluation() {
        let (runner, data) = staged(4, 1500, 200);
        let sweep = MultiKMeans::new(runner.clone(), 1, 6, 1, 5, 3)
            .run("pts")
            .unwrap();
        let models: Vec<(usize, CenterSet)> = sweep
            .models
            .iter()
            .map(|m| (m.k, CenterSet::from_dataset(&m.centers)))
            .collect();
        let scored = score_models(&runner, "pts", &models).unwrap();
        assert_eq!(scored.n, 1500);
        for ((k, w), m) in scored.wcss.iter().zip(&sweep.models) {
            assert_eq!(*k, m.k);
            let serial = crate::eval::wcss(&data, &m.centers);
            assert!(
                (w - serial).abs() < 1e-6 * serial.max(1.0),
                "k={k}: distributed {w} vs serial {serial}"
            );
        }
        // Total SS matches the serial definition.
        let mut acc = gmr_linalg::CentroidAccumulator::new(10);
        for row in data.rows() {
            acc.push(row);
        }
        let mean = acc.mean().unwrap();
        let serial_total: f64 = data
            .rows()
            .map(|p| gmr_linalg::squared_euclidean(p, mean.as_slice()))
            .sum();
        assert!((scored.total_ss - serial_total).abs() < 1e-6 * serial_total);
    }

    #[test]
    fn distributed_criteria_pick_near_k_real() {
        let (runner, _) = staged(5, 2500, 202);
        let sweep = MultiKMeans::new(runner.clone(), 1, 10, 1, 8, 3)
            .run("pts")
            .unwrap();
        let models: Vec<(usize, CenterSet)> = sweep
            .models
            .iter()
            .map(|m| (m.k, CenterSet::from_dataset(&m.centers)))
            .collect();
        let scored = score_models(&runner, "pts", &models).unwrap();
        let elbow = scored.elbow().unwrap();
        let jump = scored.jump(10).unwrap();
        assert!((4..=7).contains(&elbow), "elbow picked {elbow}");
        assert!((4..=8).contains(&jump), "jump picked {jump}");
    }

    #[test]
    fn incomplete_or_empty_inputs_error() {
        let dfs = Arc::new(Dfs::new(64));
        let w = dfs.create("empty", false).unwrap();
        w.close();
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let mut set = CenterSet::new(2);
        set.push(0, &[0.0, 0.0]);
        let err = score_models(&runner, "empty", &[(1, set)]).unwrap_err();
        assert!(matches!(err, Error::Task(_)), "{err:?}");
    }
}
