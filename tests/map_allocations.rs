//! Map output costs no heap allocation per record: a point job's mapper
//! refills one scratch value, the folding emitter copies only a key's
//! first value, and the per-record counters are plain adds.
//!
//! This binary counts every allocation through its own global allocator
//! and holds a single test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gmeans::mr::find_new_centers::FindNewCentersJob;
use gmeans::mr::{CenterSet, KMeansJob, KernelBackend};
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::cache::PointCache;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::job::{Job, JobConfig};
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};
use gmr_mapreduce::text::parse_point;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per map input record of one cached run of `job`.
fn allocations_per_record<J: Job>(
    runner: &JobRunner,
    job: &J,
    cache: &PointCache,
    config: &JobConfig,
) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = runner.run_cached(job, cache, config).expect("job runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let records = result.counters.get(Counter::MapInputRecords);
    assert_eq!(records, 20_000);
    allocations as f64 / records as f64
}

/// KMeans emits each point once and `KMeansAndFindNewCenters` twice;
/// neither may allocate per emission. With 1 MiB splits a run has four
/// map tasks of about 5,000 points each, whose per-task, per-block and
/// per-key allocations — and the reduce side's — stay far below one per
/// ten records.
#[test]
fn point_jobs_allocate_far_less_than_once_per_map_input_record() {
    let dfs = Arc::new(Dfs::new(1 << 20));
    let data = GaussianMixture::paper_r10(20_000, 8, 2024)
        .generate_to_dfs(&dfs, "pts")
        .expect("write dataset");
    let cache = PointCache::build(&dfs, "pts", 10, parse_point).expect("cache");
    let mut centers = CenterSet::new(10);
    for (id, row) in data.rows().take(12).enumerate() {
        centers.push(id as i64, row);
    }
    // The kernel the engine attaches to every job's centers.
    let centers = Arc::new(centers.with_backend(KernelBackend::Auto));
    assert_eq!(cache.splits().len(), 4);
    let kmeans = KMeansJob::new(Arc::clone(&centers));
    let find_new = FindNewCentersJob::new(centers, 17);
    let runner = JobRunner::new(dfs, ClusterConfig::default()).expect("runner");
    for reducers in [1, 2] {
        let config = JobConfig::with_reducers(reducers);
        let per_record = [
            (
                "KMeans",
                allocations_per_record(&runner, &kmeans, &cache, &config),
            ),
            (
                "KMeansAndFindNewCenters",
                allocations_per_record(&runner, &find_new, &cache, &config),
            ),
        ];
        for (name, per_record) in per_record {
            println!("{name}, {reducers} reducers: {per_record:.4} allocations per record");
            assert!(
                per_record < 0.1,
                "{name} with {reducers} reducers: {per_record:.4} allocations per record"
            );
        }
    }
}
