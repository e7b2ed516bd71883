//! Integration tests asserting the *shape* claims of the paper's §4–§5
//! at test scale: cost proportionality, node speedup, and the quality
//! advantage of progressive center placement.

use std::sync::Arc;

use gmeans::mr::MultiKMeans;
use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, Error, JobRunner};

fn dfs_with(spec: &GaussianMixture) -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(16 * 1024));
    spec.generate_to_dfs(&dfs, "points.txt").unwrap();
    dfs
}

/// §4: G-means computes O(8·n·k_real) distances; doubling k_real should
/// roughly double the distance count, not quadruple it.
#[test]
fn gmeans_distance_count_grows_linearly_in_k() {
    let mut counts = Vec::new();
    for &k in &[4usize, 8, 16] {
        let spec = GaussianMixture::paper_r10(4000, k, 100 + k as u64);
        let runner = JobRunner::new(dfs_with(&spec), ClusterConfig::default()).unwrap();
        let r = MRGMeans::new(runner, GMeansConfig::default())
            .run("points.txt")
            .unwrap();
        counts.push(r.counters.get(Counter::DistanceComputations) as f64);
    }
    let r1 = counts[1] / counts[0]; // k: 4 → 8
    let r2 = counts[2] / counts[1]; // k: 8 → 16
                                    // Linear in k means ratios around 2 (with slack for the iteration
                                    // count growing by one); quadratic would give ratios around 4.
    assert!((1.2..=3.4).contains(&r1), "ratio 4→8 was {r1}");
    assert!((1.2..=3.4).contains(&r2), "ratio 8→16 was {r2}");
}

/// §4: one multi-k-means iteration computes O(n·Σk) = O(n·k_max²/2)
/// distances — doubling k_max roughly quadruples the per-iteration work.
#[test]
fn multik_distance_count_grows_quadratically_in_kmax() {
    let mut counts = Vec::new();
    for &kmax in &[8usize, 16] {
        let spec = GaussianMixture::paper_r10(2000, 4, 70);
        let runner = JobRunner::new(dfs_with(&spec), ClusterConfig::default()).unwrap();
        let r = MultiKMeans::new(runner, 1, kmax, 1, 1, 5)
            .run("points.txt")
            .unwrap();
        counts.push(r.counters.get(Counter::DistanceComputations));
    }
    // Exact: n·Σ₁..k = 2000·36 and 2000·136.
    assert_eq!(counts[0], 2000 * 36);
    assert_eq!(counts[1], 2000 * 136);
    let ratio = counts[1] as f64 / counts[0] as f64;
    assert!(ratio > 3.0, "expected ~3.8×, got {ratio}");
}

/// A cost model in which compute dominates — the regime of the paper's
/// evaluation (10M–100M points), where per-job setup is noise. At test
/// scale (thousands of points) the default model is setup-dominated,
/// which is itself the paper's caveat ("the price to pay is an
/// iterative processing"); `compute_dominant` isolates the §4
/// asymptotics the experiments are about.
fn compute_dominant() -> gmr_mapreduce::cost::CostModel {
    gmr_mapreduce::cost::CostModel {
        job_setup_secs: 0.0,
        task_setup_secs: 0.0,
        secs_per_input_byte: 0.0,
        secs_per_shuffle_byte: 0.0,
        secs_per_compute_unit: 1e-6,
        secs_per_cached_point: 0.0,
        secs_per_checkpoint_byte: 0.0,
        ..Default::default()
    }
}

/// Figure 3's crossover, in simulated time: at equal k_real, the *total*
/// G-means run beats a converged multi-k-means sweep once compute
/// dominates.
#[test]
fn gmeans_beats_multik_in_simulated_time_at_moderate_k() {
    let k = 24usize;
    let spec = GaussianMixture::paper_r10(4000, k, 71);
    let dfs = dfs_with(&spec);
    let cluster = ClusterConfig {
        cost_model: compute_dominant(),
        ..ClusterConfig::default()
    };
    let runner = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    let g = MRGMeans::new(runner, GMeansConfig::default())
        .run("points.txt")
        .unwrap();

    let runner = JobRunner::new(dfs, cluster).unwrap();
    // The paper's multi-k runs 10 iterations to converge (Table 3).
    let m = MultiKMeans::new(runner, 1, k, 1, 10, 5)
        .run("points.txt")
        .unwrap();

    assert!(
        g.simulated_secs < m.simulated_secs,
        "G-means {:.2}s should beat multi-k {:.2}s at k={k}",
        g.simulated_secs,
        m.simulated_secs
    );
}

/// The flip side the paper concedes in §4: G-means needs O(log₂ k)
/// chained jobs, so when fixed job overhead dominates (tiny data), the
/// single-round-per-iteration multi-k baseline launches fewer jobs.
#[test]
fn gmeans_pays_more_job_setups_than_multik() {
    let spec = GaussianMixture::paper_r10(2000, 8, 75);
    let dfs = dfs_with(&spec);
    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let g = MRGMeans::new(runner, GMeansConfig::default())
        .run("points.txt")
        .unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let m = MultiKMeans::new(runner, 1, 8, 1, 10, 5)
        .run("points.txt")
        .unwrap();
    assert!(
        g.jobs > m.iteration_timings.len(),
        "G-means launched {} jobs vs multi-k {}",
        g.jobs,
        m.iteration_timings.len()
    );
}

/// Table 4 / Figure 5: the simulated makespan shrinks roughly linearly
/// with the node count.
#[test]
fn simulated_time_scales_with_nodes() {
    let spec = GaussianMixture::paper_r10(6000, 8, 72);
    let mut times = Vec::new();
    for nodes in [4usize, 8, 12] {
        let dfs = dfs_with(&spec);
        let cluster = ClusterConfig {
            cost_model: compute_dominant(),
            ..ClusterConfig::with_nodes(nodes)
        };
        let runner = JobRunner::new(dfs, cluster).unwrap();
        let r = MRGMeans::new(runner, GMeansConfig::default())
            .run("points.txt")
            .unwrap();
        times.push(r.simulated_secs);
    }
    assert!(
        times[0] >= times[1] && times[1] >= times[2],
        "speedup not monotone: {times:?}"
    );
    // The paper's 4→12 nodes gives 798→323 min (2.5×). Accept anything
    // safely above 1.5× — task granularity bounds the ideal 3×.
    let speedup = times[0] / times[2];
    assert!(
        speedup > 1.5,
        "4→12 nodes speedup only {speedup:.2} ({times:?})"
    );
}

/// Table 3: G-means' progressively placed centers give a lower (better)
/// average point-to-center distance than multi-k-means run at the same
/// k with random initialization.
#[test]
fn gmeans_quality_beats_multik_at_same_k() {
    let spec = GaussianMixture::paper_r10(5000, 10, 73);
    let dfs = dfs_with(&spec);
    let data = {
        // Reload the points for evaluation.
        let lines = dfs.read_lines("points.txt").unwrap();
        let mut ds = gmr_linalg::Dataset::new(10);
        for l in &lines {
            ds.push(&gmr_datagen::parse_point(l).unwrap());
        }
        ds
    };

    let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let g = MRGMeans::new(runner, GMeansConfig::default())
        .run("points.txt")
        .unwrap();
    let g_avg = average_distance(&data, &g.centers);

    // Multi-k at exactly k_found, 10 iterations, as in Table 3.
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let m = MultiKMeans::new(runner, g.k(), g.k(), 1, 10, 5)
        .run("points.txt")
        .unwrap();
    let m_avg = average_distance(&data, &m.models[0].centers);

    // The paper reports ≈10% better for G-means; require any advantage
    // (randomness can shrink the margin at this scale).
    assert!(
        g_avg < m_avg * 1.02,
        "G-means avg distance {g_avg:.3} vs multi-k {m_avg:.3}"
    );
}

/// §3.2 / Figure 2 mechanism end to end: the same clustering run
/// succeeds with a roomy heap and dies with "Java heap space" when the
/// reducer-side test is forced onto a heap that cannot hold the biggest
/// cluster — unless the strategy switch protects it.
#[test]
fn strategy_switch_protects_small_heaps() {
    let spec = GaussianMixture::figure_r2(4000, 74);
    // Heap that cannot hold 4000 projections × 64 B... but generous
    // enough for the per-mapper buffers of TestFewClusters (whose
    // splits are small).
    let cluster = ClusterConfig {
        heap_per_task: 100 * 1024, // 100 KiB < 4000·64 B = 250 KiB
        ..ClusterConfig::default()
    };
    let dfs = dfs_with(&spec);
    let runner = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    // The switch rule keeps the big first-iteration cluster mapper-side
    // (its sub-buffers are bounded by the split size), so the run
    // completes.
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("points.txt")
        .unwrap();
    assert!(r.k() >= 10);

    // Forced reducer-side, the first iteration's k-means and
    // find-new-centers jobs commit, then the test job's one reducer
    // holds all 4000 projections and dies. The run degrades: the
    // iteration is reported failed and the hierarchy stands as the
    // committed jobs left it (one cluster, with its refined count).
    let runner = JobRunner::new(dfs, cluster).unwrap();
    let forced = MRGMeans::new(runner, GMeansConfig::default())
        .with_forced_strategy(Some(TestStrategy::Clusters))
        .run("points.txt")
        .unwrap();
    match &forced.failure {
        Some(Error::HeapSpace {
            task,
            attempted,
            limit,
        }) => assert_eq!(
            (task.as_str(), *attempted, *limit),
            ("reduce-0", 102_464, 102_400)
        ),
        other => panic!("expected the test reducer to run out of heap, got {other:?}"),
    }
    assert_eq!(forced.reports.len(), 1);
    let report = &forced.reports[0];
    assert_eq!((report.iteration, report.jobs), (1, 2));
    assert!(
        report.error.is_some(),
        "the failed iteration carries its error"
    );
    assert_eq!(forced.k(), 1);
    assert_eq!(forced.counts, [4000]);
    // The sample, the two committed jobs and the failed test job's scan.
    assert_eq!(forced.dataset_reads, 4);
    assert_eq!(forced.counters.get(Counter::DistanceComputations), 16_000);
    // 14.0007382 s: the committed jobs only.
    assert_eq!(forced.simulated_secs.to_bits(), 0x402c_0060_c1e1_b740);
}
