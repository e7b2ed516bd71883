//! Scaling behaviour on the simulated cluster — the Table 4 / Figure 5
//! experiment in miniature, plus the §3.1 combiner effect.
//!
//! ```text
//! cargo run --release --example scaling
//! ```

use std::sync::Arc;

use gmeans_mapreduce::algorithms::prelude::*;
use gmeans_mapreduce::datagen::GaussianMixture;
use gmeans_mapreduce::mapreduce::counters::Counter;
use gmeans_mapreduce::mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};

fn main() {
    // The paper's scalability dataset is 100M points in R¹⁰ over 1000
    // clusters; this is the same generator at example scale.
    let spec = GaussianMixture::paper_r10(50_000, 64, 555);

    println!("== node scaling (Table 4 / Figure 5 shape) ==");
    println!("nodes   simulated time   speedup   wall time");
    let mut base = None;
    for nodes in [4usize, 8, 12] {
        let dfs = Arc::new(Dfs::new(64 * 1024));
        spec.generate_to_dfs(&dfs, "points.txt")
            .expect("write dataset");
        let runner = JobRunner::new(dfs, ClusterConfig::with_nodes(nodes)).expect("valid cluster");
        let r = MRGMeans::new(runner, GMeansConfig::default())
            .run("points.txt")
            .expect("run succeeds");
        let base_time = *base.get_or_insert(r.simulated_secs);
        println!(
            "{nodes:>5}   {:>11.1} s   {:>6.2}x   {:>7.2} s   (k found: {})",
            r.simulated_secs,
            base_time / r.simulated_secs,
            r.wall_secs,
            r.k()
        );
    }

    println!("\n== nearest-center backend throughput ==");
    // Same data and cluster, two kernel configurations: the default
    // blocked batch kernel and the k-d tree index.
    // Points/sec counts every streamed point (passes × n) against wall
    // time, so it measures the assignment fast path the way the
    // `kernels` bench does, but through the whole engine.
    println!("backend          simulated time   wall time   points/sec   k found");
    for (label, kd) in [("blocked (default)", false), ("kd-index", true)] {
        let dfs = Arc::new(Dfs::new(64 * 1024));
        spec.generate_to_dfs(&dfs, "points.txt")
            .expect("write dataset");
        let runner = JobRunner::new(dfs, ClusterConfig::default()).expect("valid cluster");
        let r = MRGMeans::new(runner, GMeansConfig::default())
            .with_kd_index(kd)
            .run("points.txt")
            .expect("run succeeds");
        println!(
            "{label:<16} {:>13.1} s   {:>7.2} s   {:>10.0}   {:>7}",
            r.simulated_secs,
            r.wall_secs,
            r.dataset_reads as f64 * 50_000.0 / r.wall_secs,
            r.k()
        );
    }

    println!("\n== shuffle volume: the §3.1 combiner argument ==");
    // One KMeansAndFindNewCenters-style accounting: compare bytes
    // shuffled by the k-means job against the raw map output volume.
    let dfs = Arc::new(Dfs::new(64 * 1024));
    spec.generate_to_dfs(&dfs, "points.txt")
        .expect("write dataset");
    let runner = JobRunner::new(dfs, ClusterConfig::default()).expect("valid cluster");
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("points.txt")
        .expect("run succeeds");
    let map_out = r.counters.get(Counter::MapOutputRecords);
    let combine_out = r.counters.get(Counter::CombineOutputRecords);
    let shuffled = r.counters.get(Counter::ShuffleBytes);
    println!("map output records:      {map_out:>12}");
    println!("after combining:         {combine_out:>12}");
    println!(
        "combiner record ratio:   {:>11.1}x fewer records over the network",
        map_out as f64 / combine_out.max(1) as f64
    );
    println!("bytes actually shuffled: {shuffled:>12}");
    println!(
        "distance computations:   {:>12}   (§4 bound ≈ 8·n·k = {})",
        r.counters.get(Counter::DistanceComputations),
        8 * 50_000u64 * 64
    );
    println!(
        "dataset reads:           {:>12}   (§4 bound ≈ 4·log₂k + 1 per extra pass)",
        r.dataset_reads
    );
}
