//! Micro-benchmarks of the numeric kernels on the hot paths of every
//! MapReduce job: distance computation (the unit of the paper's §4 cost
//! model) and the blocked nearest-center kernel, projection, the
//! Anderson–Darling test, the text codec points travel through, down to
//! one map-task block of text, and the checksum every stored byte range
//! is verified with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use gmr_datagen::{format_point, parse_point, ClusterWeights, GaussianMixture};
use gmr_linalg::{
    nearest_center_flat, nearest_centers_batch, squared_euclidean, squared_norms, LinearFit,
    RunningStats, SegmentProjector,
};
use gmr_mapreduce::dfs::block_crc;
use gmr_mapreduce::runtime::MAP_BLOCK_POINTS;
use gmr_mapreduce::text::PointLines;
use gmr_stats::AndersonDarling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-100.0..100.0)).collect()
}

fn bench_distance(c: &mut Criterion) {
    let mut g = c.benchmark_group("squared_euclidean");
    for dim in [2usize, 10, 100] {
        let a = rand_vec(dim, 1);
        let b = rand_vec(dim, 2);
        g.throughput(Throughput::Elements(dim as u64));
        g.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| squared_euclidean(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_nearest_center(c: &mut Criterion) {
    let mut g = c.benchmark_group("nearest_center_flat");
    let dim = 10;
    let point = rand_vec(dim, 3);
    for k in [10usize, 100, 1000] {
        let centers = rand_vec(dim * k, 4);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| nearest_center_flat(black_box(&point), black_box(&centers), dim))
        });
    }
    g.finish();
}

/// One map-task block of `paper_r10` points against the true centers
/// of a `k`-cluster mixture: the blocked kernel as a d = 10 G-means job
/// runs it, once per block.
fn bench_blocked_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("nearest_centers_batch_dim10_block256");
    for k in [16usize, 100, 200] {
        let data = GaussianMixture::paper_r10(MAP_BLOCK_POINTS, k, 11)
            .generate()
            .unwrap();
        let (points, centers) = (data.points.flat(), data.true_centers.flat());
        let (point_norms, center_norms) = (squared_norms(points, 10), squared_norms(centers, 10));
        g.throughput(Throughput::Elements((MAP_BLOCK_POINTS * k) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| {
                nearest_centers_batch(
                    black_box(points),
                    &point_norms,
                    black_box(centers),
                    &center_norms,
                    10,
                )
            })
        });
    }
    g.finish();
}

fn bench_projection(c: &mut Criterion) {
    let c1 = rand_vec(10, 5);
    let c2 = rand_vec(10, 6);
    let projector = SegmentProjector::new(&c1, &c2);
    let point = rand_vec(10, 7);
    c.bench_function("segment_projection_dim10", |b| {
        b.iter(|| projector.project(black_box(&point)))
    });
}

fn bench_anderson_darling(c: &mut Criterion) {
    let mut g = c.benchmark_group("anderson_darling");
    let ad = AndersonDarling::default();
    for n in [100usize, 1_000, 10_000] {
        let sample = GaussianMixture {
            n_points: n,
            dim: 1,
            n_clusters: 1,
            box_min: 0.0,
            box_max: 10.0,
            stddev: 1.0,
            min_separation_sigmas: 0.0,
            seed: 8,
            weights: ClusterWeights::Balanced,
        }
        .generate()
        .unwrap();
        let xs: Vec<f64> = sample.points.rows().map(|r| r[0]).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| ad.test(black_box(&xs)).unwrap())
        });
    }
    g.finish();
}

fn bench_running_stats(c: &mut Criterion) {
    let xs = rand_vec(10_000, 9);
    c.bench_function("running_stats_10k", |b| {
        b.iter(|| {
            let mut s = RunningStats::new();
            s.push_all(black_box(&xs));
            s.variance_sample()
        })
    });
}

fn bench_linear_fit(c: &mut Criterion) {
    let pts: Vec<(f64, f64)> = (0..1000)
        .map(|i| (i as f64, 64.0 * i as f64 - 42.0))
        .collect();
    c.bench_function("linear_fit_1k", |b| {
        b.iter(|| LinearFit::fit(black_box(&pts)).unwrap())
    });
}

fn bench_text_codec(c: &mut Criterion) {
    let point = rand_vec(10, 10);
    let line = format_point(&point);
    c.bench_function("format_point_dim10", |b| {
        b.iter(|| format_point(black_box(&point)))
    });
    c.bench_function("parse_point_dim10", |b| {
        b.iter(|| parse_point(black_box(&line)).unwrap())
    });
    // One map-task block of `paper_r10` text through the runtime's
    // scanner: the path every Hadoop-mode point map task runs.
    let block = GaussianMixture::paper_r10(MAP_BLOCK_POINTS, 10, 5)
        .generate()
        .unwrap();
    let text: String = block
        .points
        .rows()
        .map(|row| format_point(row) + "\n")
        .collect();
    let mut points = Vec::with_capacity(MAP_BLOCK_POINTS * 10);
    c.bench_function("parse_block_256_dim10", |b| {
        b.iter(|| {
            points.clear();
            let mut lines = PointLines::new(black_box(text.as_bytes()));
            while let Some(line) = lines.next_point_dim(10, &mut points) {
                line.unwrap();
            }
            points.len()
        })
    });
}

/// The checksum over one 256 KiB split of `paper_r10` text.
fn bench_block_crc(c: &mut Criterion) {
    let data = GaussianMixture::paper_r10(2_000, 10, 12)
        .generate()
        .unwrap();
    let mut text: Vec<u8> = data
        .points
        .rows()
        .flat_map(|row| format_point(row).into_bytes().into_iter().chain([b'\n']))
        .collect();
    text.truncate(256 * 1024);
    let mut g = c.benchmark_group("block_crc");
    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("256KiB", |bench| bench.iter(|| block_crc(black_box(&text))));
    g.finish();
}

criterion_group!(
    kernels,
    bench_distance,
    bench_nearest_center,
    bench_blocked_kernel,
    bench_block_crc,
    bench_projection,
    bench_anderson_darling,
    bench_running_stats,
    bench_linear_fit,
    bench_text_codec
);
criterion_main!(kernels);
