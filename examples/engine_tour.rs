//! A tour of the engine-level options the paper motivates but leaves as
//! future work or related work — all implemented here:
//!
//! * Spark-style cached execution (§6: save disk I/O via in-memory
//!   caching, partition-preserving),
//! * k-d-tree nearest-center search (§2: mrkd-tree),
//! * k-means‖ initialization (§2: Bahmani's MapReduce k-means++),
//! * the generic iterative-driver engine all four shipped drivers run
//!   on — demonstrated end to end with a custom algorithm.
//!
//! ```text
//! cargo run --release --example engine_tour
//! ```

use std::sync::Arc;

use gmeans_mapreduce::algorithms::mr::{
    apply_updates, CenterUpdate, KMeansJob, KMeansParallelInit, MRKMeans,
};
use gmeans_mapreduce::algorithms::prelude::*;
use gmeans_mapreduce::datagen::GaussianMixture;
use gmeans_mapreduce::mapreduce::counters::Counter;
use gmeans_mapreduce::mapreduce::prelude::{ClusterConfig, Dfs, Error, JobRunner, Writable};
use gmeans_mapreduce::mapreduce::Result;

fn staged(seed: u64) -> JobRunner {
    let spec = GaussianMixture::paper_r10(30_000, 32, seed);
    let dfs = Arc::new(Dfs::new(128 * 1024));
    spec.generate_to_dfs(&dfs, "points.txt").expect("dataset");
    JobRunner::new(dfs, ClusterConfig::default()).expect("cluster")
}

fn main() {
    let config = GMeansConfig::default();

    println!("== execution engines: Hadoop-style vs Spark-style (§6) ==");
    for (label, mode) in [
        ("on-disk (re-read per job)", ExecutionMode::OnDisk),
        ("cached (read once)       ", ExecutionMode::Cached),
    ] {
        let r = MRGMeans::new(staged(7), config)
            .with_execution_mode(mode)
            .run("points.txt")
            .expect("run");
        println!(
            "  {label}  k={:<3} dataset reads={:<3} simulated {:.0}s  wall {:.2}s",
            r.k(),
            r.dataset_reads,
            r.simulated_secs,
            r.wall_secs
        );
    }

    println!("\n== nearest-center search: linear scan vs k-d tree (§2) ==");
    for (label, kd) in [("linear scan", false), ("k-d tree   ", true)] {
        let r = MRGMeans::new(staged(7), config)
            .with_kd_index(kd)
            .run("points.txt")
            .expect("run");
        println!(
            "  {label}  k={:<3} distance evaluations={:<12} wall {:.2}s",
            r.k(),
            r.counters.get(Counter::DistanceComputations),
            r.wall_secs
        );
    }

    println!("\n== initialization for plain MR k-means: random vs k-means|| ==");
    let runner = staged(7);
    let data = {
        let lines = runner.dfs().read_lines("points.txt").expect("read");
        let mut ds = gmeans_mapreduce::linalg::Dataset::new(10);
        for l in &lines {
            ds.push(&gmeans_mapreduce::datagen::parse_point(l).expect("point"));
        }
        ds
    };
    let random = MRKMeans::new(runner.clone(), 32, 5, 1)
        .run("points.txt")
        .expect("run");
    println!(
        "  random sample    wcss = {:.0}",
        wcss(&data, &random.centers)
    );
    let init = KMeansParallelInit::new(runner.clone(), 32, 1)
        .run("points.txt")
        .expect("init");
    let kmpp = MRKMeans::new(runner, 32, 5, 1)
        .run_from("points.txt", init)
        .expect("run");
    println!(
        "  k-means||        wcss = {:.0}   (lower is better)",
        wcss(&data, &kmpp.centers)
    );

    println!("\n== bring your own algorithm: the iterative-driver engine ==");
    // Every shipped driver (G-means, k-means, multi-k, k-means||) is a
    // state machine on the same Engine; here is the smallest possible
    // fifth one — a dataset-centroid finder — getting execution,
    // counters, the simulated clock and crash recovery for free.
    let centroid = Engine::new(staged(7))
        .run(&Centroid, "points.txt")
        .expect("centroid run");
    println!(
        "  global centroid (dim {}) first coords: {:.3}, {:.3}, {:.3}",
        centroid.len(),
        centroid[0],
        centroid[1],
        centroid[2]
    );
}

/// The smallest custom [`IterativeAlgorithm`]: one-center Lloyd, which
/// converges on the global dataset centroid after a single iteration.
struct Centroid;

/// The algorithm's whole loop state at a checkpointable boundary.
struct CentroidState {
    round: usize,
    center: CenterSet,
}

/// The state is its own journal wire form, `(round, coords)`; `read`
/// answers a state the algorithm could not run with `Error::Corrupt`.
/// The engine handles framing, checksums and recovery.
impl Writable for CentroidState {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.round as u64).write(buf);
        self.center.coords(0).to_vec().write(buf);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let round = u64::read(buf)? as usize;
        let coords = Vec::<f64>::read(buf)?;
        if coords.is_empty() {
            return Err(Error::Corrupt("centroid of dimension 0".into()));
        }
        let mut center = CenterSet::new(coords.len());
        center.push(0, &coords);
        Ok(Self { round, center })
    }
}

impl IterativeAlgorithm for Centroid {
    type State = CentroidState;
    type Output = Vec<f64>;
    const NAME: &'static str = "Centroid";
    const MAGIC: u32 = 0x1070_0001;

    fn fresh(&self, ctx: &mut EngineCtx<'_>) -> Result<CentroidState> {
        // Seed the single center from a one-point sample of the input.
        let sample = ctx.sample(1, 7)?;
        let mut center = CenterSet::new(sample.dim());
        center.push(0, sample.row(0));
        Ok(CentroidState { round: 0, center })
    }
    fn dim(&self, state: &CentroidState) -> Result<usize> {
        Ok(state.center.dim())
    }
    fn done(&self, state: &CentroidState) -> bool {
        state.round >= 1
    }
    fn seq(&self, state: &CentroidState) -> u64 {
        state.round as u64
    }
    fn plan(&self, state: &mut CentroidState, ctx: &EngineCtx<'_>) -> Result<Vec<PlannedJob>> {
        let job = KMeansJob::new(Arc::new(state.center.clone()));
        Ok(vec![PlannedJob::new(job, ctx.reduce_tasks(1))])
    }
    fn apply(
        &self,
        state: &mut CentroidState,
        mut outputs: Vec<JobOutputs>,
        _seg: &SegmentStats,
    ) -> Result<Step> {
        let updates = outputs.remove(0).take::<CenterUpdate>();
        let (next, _counts) = apply_updates(&state.center, &updates);
        state.center = next;
        state.round += 1;
        Ok(Step::Boundary)
    }
    fn finish(
        &self,
        state: CentroidState,
        _ctx: &mut EngineCtx<'_>,
        _stats: RunStats,
    ) -> Result<Vec<f64>> {
        Ok(state.center.coords(0).to_vec())
    }
}
