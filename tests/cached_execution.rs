//! The Spark-style cached execution mode (the paper's §6 future work):
//! identical results to the Hadoop-style mode, with the dataset read
//! and parsed exactly once.

use std::sync::Arc;

use gmeans::mr::MultiKMeans;
use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::cache::PointCache;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};

fn staged(seed: u64) -> (Arc<Dfs>, JobRunner) {
    let spec = GaussianMixture::figure_r2(3000, seed);
    let dfs = Arc::new(Dfs::new(16 * 1024));
    spec.generate_to_dfs(&dfs, "points.txt").unwrap();
    (
        Arc::clone(&dfs),
        JobRunner::new(dfs, ClusterConfig::default()).unwrap(),
    )
}

#[test]
fn cached_gmeans_matches_on_disk_gmeans_exactly() {
    let (_dfs1, runner1) = staged(90);
    let (_dfs2, runner2) = staged(90);
    let config = GMeansConfig::default().with_seed(3);
    let disk = MRGMeans::new(runner1, config).run("points.txt").unwrap();
    let cached = MRGMeans::new(runner2, config)
        .with_execution_mode(ExecutionMode::Cached)
        .run("points.txt")
        .unwrap();
    assert_eq!(disk.centers, cached.centers);
    assert_eq!(disk.counts, cached.counts);
    assert_eq!(disk.iterations, cached.iterations);
    // Identical algorithmic work...
    assert_eq!(
        disk.counters.get(Counter::DistanceComputations),
        cached.counters.get(Counter::DistanceComputations)
    );
    assert_eq!(
        disk.counters.get(Counter::AdTests),
        cached.counters.get(Counter::AdTests)
    );
}

#[test]
fn cached_mode_reads_the_dataset_twice_total() {
    // One read for the serial PickInitialCenters sample, one to
    // materialize the cache — and none per job, against ~3 jobs ×
    // O(log k) iterations + 1 for the on-disk mode.
    let (dfs, runner) = staged(91);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .with_execution_mode(ExecutionMode::Cached)
        .run("points.txt")
        .unwrap();
    assert_eq!(r.dataset_reads, 2, "sample + cache build only");
    assert!(r.jobs > 5, "the run still launched {} jobs", r.jobs);
    // All map input after the cache build came from memory.
    let stats = dfs.stats();
    assert_eq!(stats.bytes_read, 2 * stats.bytes_written);
}

#[test]
fn on_disk_mode_reads_once_per_job() {
    let (_dfs, runner) = staged(92);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("points.txt")
        .unwrap();
    assert_eq!(r.dataset_reads, r.jobs as u64 + 1);
}

#[test]
fn cached_mode_lowers_simulated_time() {
    // With the default cost model, replacing per-job text scans
    // (50 MB/s) by in-memory point scans (20M pts/s) must not slow the
    // run down; the dominant saving at paper scale is I/O.
    let (_d1, runner1) = staged(93);
    let (_d2, runner2) = staged(93);
    let disk = MRGMeans::new(runner1, GMeansConfig::default())
        .run("points.txt")
        .unwrap();
    let cached = MRGMeans::new(runner2, GMeansConfig::default())
        .with_execution_mode(ExecutionMode::Cached)
        .run("points.txt")
        .unwrap();
    assert!(
        cached.simulated_secs <= disk.simulated_secs,
        "cached {:.2}s vs disk {:.2}s",
        cached.simulated_secs,
        disk.simulated_secs
    );
}

#[test]
fn cached_multik_matches_on_disk() {
    let (_d1, runner1) = staged(94);
    let (_d2, runner2) = staged(94);
    let disk = MultiKMeans::new(runner1, 1, 6, 1, 4, 9)
        .run("points.txt")
        .unwrap();
    let cached = MultiKMeans::new(runner2, 1, 6, 1, 4, 9)
        .with_execution_mode(ExecutionMode::Cached)
        .run("points.txt")
        .unwrap();
    assert_eq!(disk.models.len(), cached.models.len());
    for (d, c) in disk.models.iter().zip(&cached.models) {
        assert_eq!(d.k, c.k);
        assert_eq!(d.centers, c.centers);
        assert_eq!(d.counts, c.counts);
    }
}

/// Every coordinate's bits, row by row.
fn bits<'a>(rows: impl Iterator<Item = &'a [f64]>) -> Vec<u64> {
    rows.flat_map(|r| r.iter().map(|v| v.to_bits())).collect()
}

#[test]
fn cached_kmeans_and_parallel_init_match_on_disk() {
    for iterations in [2, 5] {
        let (disk_dfs, runner1) = staged(96);
        let (cached_dfs, runner2) = staged(96);
        let disk = MRKMeans::new(runner1, 6, iterations, 4)
            .run("points.txt")
            .unwrap();
        let cached = MRKMeans::new(runner2, 6, iterations, 4)
            .with_execution_mode(ExecutionMode::Cached)
            .run("points.txt")
            .unwrap();
        assert_eq!(bits(disk.centers.rows()), bits(cached.centers.rows()));
        assert_eq!(disk.counts, cached.counts);
        // The sample, then one scan per Lloyd iteration on disk; the
        // sample and the cache build only when cached.
        assert_eq!(disk_dfs.stats().dataset_reads, 1 + iterations as u64);
        assert_eq!(
            cached_dfs.stats().dataset_reads,
            2,
            "{iterations} iterations"
        );
    }

    let (_d1, runner1) = staged(97);
    let (_d2, runner2) = staged(97);
    let disk = KMeansParallelInit::new(runner1, 5, 8)
        .run("points.txt")
        .unwrap();
    let cached = KMeansParallelInit::new(runner2, 5, 8)
        .with_execution_mode(ExecutionMode::Cached)
        .run("points.txt")
        .unwrap();
    assert_eq!(disk.len(), 5);
    assert_eq!(
        bits(disk.iter().map(|(_, c)| c)),
        bits(cached.iter().map(|(_, c)| c))
    );
}

#[test]
fn cache_exposes_partitioning_and_size() {
    let (dfs, _runner) = staged(95);
    let cache = PointCache::build(&dfs, "points.txt", 2, gmr_datagen::parse_point).unwrap();
    assert_eq!(cache.len(), 3000);
    assert_eq!(cache.dim(), 2);
    assert_eq!(
        cache.splits().len(),
        dfs.blocks("points.txt").unwrap().len()
    );
    assert_eq!(cache.memory_bytes(), 3000 * 2 * 8);
}

/// The dirty dataset of `checkpoint_recovery.rs`'s end-to-end
/// quarantine test: 300 points in two blobs, salted every 60 points
/// with garbage text, NaN and infinite coordinates, a wrong-dimension
/// row and a blank line.
fn staged_dirty() -> JobRunner {
    let dfs = Arc::new(Dfs::new(4 * 1024));
    let mut lines: Vec<String> = Vec::new();
    for i in 0..300 {
        let (x, y) = if i % 2 == 0 { (0.0, 0.0) } else { (40.0, 40.0) };
        lines.push(format!("{} {}", x + (i % 7) as f64 * 0.1, y));
        match i % 60 {
            0 => lines.push("definitely not a point".into()),
            1 => lines.push("nan 3.0".into()),
            2 => lines.push("1.0 inf".into()),
            3 => lines.push("1.0 2.0 3.0".into()),
            4 => lines.push(String::new()),
            _ => {}
        }
    }
    dfs.put_lines("dirty", lines).unwrap();
    JobRunner::new(dfs, ClusterConfig::default()).unwrap()
}

#[test]
fn cached_mode_quarantines_bad_lines_like_on_disk_mode() {
    let disk = MRGMeans::new(staged_dirty(), GMeansConfig::default())
        .run("dirty")
        .unwrap();
    let cached = MRGMeans::new(staged_dirty(), GMeansConfig::default())
        .with_execution_mode(ExecutionMode::Cached)
        .run("dirty")
        .expect("bad records must not kill a cached run");
    assert_eq!(disk.centers, cached.centers);
    assert_eq!(disk.counts, cached.counts);
    assert_eq!(cached.counts.iter().sum::<u64>(), 300);
    // The cache build quarantines each of the 25 bad lines once, with
    // its length plus one terminator: 5 × (23 + 8 + 8 + 12 + 1) bytes.
    assert_eq!(cached.counters.get(Counter::BadRecordsSkipped), 25);
    assert_eq!(cached.counters.get(Counter::BadRecordBytes), 260);
}
