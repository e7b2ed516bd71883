//! Point sampling from the DFS.
//!
//! `PickInitialCenters` is "a serial implementation, that picks initial
//! centers at random" (§3). Reading the dataset once to reservoir-sample
//! a handful of points is exactly one dataset read — the driver counts
//! it as such, and it adds nothing to the simulated makespan, however
//! the read is carried out. The reservoir is serial; the read is not:
//! blocks are read and parsed in parallel waves as wide as the map
//! phase's thread count, and their points reach the reservoir in file
//! order, so the sample is the one a serial pass draws.

use gmr_linalg::Dataset;
use gmr_mapreduce::dfs::{BlockHandle, Dfs};
use gmr_mapreduce::runtime::JobRunner;
use gmr_mapreduce::text::PointLines;
use gmr_mapreduce::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::mr::input::modal_dim;

/// Reservoir-samples `count` points from a DFS text file (one dataset
/// read). Returns fewer points when the file is smaller than `count`.
///
/// Malformed rows — unparsable lines and non-finite coordinates — are
/// skipped, not fatal, mirroring the mappers' bad-record quarantine;
/// skipped rows touch neither the reservoir count nor the RNG stream,
/// so a clean dataset samples identically with or without garbage rows
/// interleaved. When the file mixes dimensions, the sample is filtered
/// to the modal (most frequent) dimension.
pub fn sample_points(runner: &JobRunner, path: &str, count: usize, seed: u64) -> Result<Dataset> {
    let cluster = runner.cluster();
    let width = cluster.execution_threads(cluster.total_map_slots());
    sample_in_waves(runner.dfs(), path, count, seed, width)
}

/// The points of one block that parse, flat, with the end of each.
#[derive(Default)]
struct ParsedBlock {
    coords: Vec<f64>,
    ends: Vec<usize>,
}

impl ParsedBlock {
    /// Reads one block, charged as consumed, and parses its rows,
    /// skipping the malformed ones.
    fn read(dfs: &Dfs, block: &BlockHandle) -> Result<Self> {
        let split = block.read()?;
        dfs.charge_split_read(&split);
        let mut parsed = Self::default();
        let mut lines = PointLines::new(&split.data);
        while let Some(line) = lines.next_point(&mut parsed.coords) {
            if line.is_ok() {
                parsed.ends.push(parsed.coords.len());
            }
        }
        Ok(parsed)
    }

    fn points(&self) -> impl Iterator<Item = &[f64]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.coords[s..e])
    }
}

/// [`sample_points`] reading `width` blocks at a time: the blocks of a
/// wave are read and parsed on their own threads, then fed to the
/// reservoir in file order, so every width draws the same sample.
fn sample_in_waves(
    dfs: &Dfs,
    path: &str,
    count: usize,
    seed: u64,
    width: usize,
) -> Result<Dataset> {
    assert!(count > 0, "sample count must be positive");
    let blocks = dfs.blocks(path)?;
    dfs.begin_dataset_read();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reservoir: Vec<Vec<f64>> = Vec::with_capacity(count);
    let mut seen = 0usize;
    let mut dim_counts: HashMap<usize, u64> = HashMap::new();
    for wave in blocks.chunks(width.max(1)) {
        let parsed: Vec<Result<ParsedBlock>> = std::thread::scope(|scope| {
            let rest: Vec<_> = wave[1..]
                .iter()
                .map(|block| scope.spawn(|| ParsedBlock::read(dfs, block)))
                .collect();
            let first = ParsedBlock::read(dfs, &wave[0]);
            std::iter::once(first)
                .chain(
                    rest.into_iter()
                        .map(|h| h.join().expect("a block parse thread panicked")),
                )
                .collect()
        });
        for block in parsed {
            for point in block?.points() {
                *dim_counts.entry(point.len()).or_insert(0) += 1;
                seen += 1;
                if reservoir.len() < count {
                    reservoir.push(point.to_vec());
                } else {
                    let j = rng.random_range(0..seen);
                    if j < count {
                        reservoir[j].clear();
                        reservoir[j].extend_from_slice(point);
                    }
                }
            }
        }
    }
    let Some((dim, _)) = modal_dim(&dim_counts) else {
        return Err(Error::Config(format!("no parsable points in {path}")));
    };
    reservoir.retain(|p| p.len() == dim);
    if reservoir.is_empty() {
        return Err(Error::Corrupt(format!(
            "sample of {path} holds no points of the modal dimension {dim}"
        )));
    }
    let mut ds = Dataset::with_capacity(dim, reservoir.len());
    for p in &reservoir {
        ds.push(p);
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::parse_point_into;
    use gmr_mapreduce::cluster::ClusterConfig;
    use std::sync::Arc;

    fn fs_with(n: usize) -> Arc<Dfs> {
        let dfs = Arc::new(Dfs::new(256));
        dfs.put_lines("pts", (0..n).map(|i| format!("{i} {}", i * 2)))
            .unwrap();
        dfs
    }

    /// The clean 500-row file with two garbage rows after every 50th.
    fn dirty_fs() -> Arc<Dfs> {
        let dirty = Arc::new(Dfs::new(256));
        dirty
            .put_lines(
                "pts",
                (0..500).flat_map(|i| {
                    let mut rows = vec![format!("{i} {}", i * 2)];
                    if i % 50 == 0 {
                        rows.push("not a point".to_string());
                        rows.push(format!("{i} nan"));
                    }
                    rows
                }),
            )
            .unwrap();
        dirty
    }

    /// 100 rows, every tenth of them three-dimensional.
    fn mixed_fs() -> Arc<Dfs> {
        let dfs = Arc::new(Dfs::new(256));
        dfs.put_lines(
            "pts",
            (0..100).map(|i| {
                if i % 10 == 0 {
                    format!("{i} {i} {i}")
                } else {
                    format!("{i} {}", i * 2)
                }
            }),
        )
        .unwrap();
        dfs
    }

    fn runner(dfs: &Arc<Dfs>) -> JobRunner {
        JobRunner::new(Arc::clone(dfs), ClusterConfig::default()).unwrap()
    }

    /// The serial pass the waves replaced: each block read, parsed and
    /// fed to the reservoir in turn.
    fn reference_sample(dfs: &Dfs, path: &str, count: usize, seed: u64) -> Result<Dataset> {
        let blocks = dfs.blocks(path)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reservoir: Vec<Vec<f64>> = Vec::with_capacity(count);
        let mut seen = 0usize;
        let mut dim_counts: HashMap<usize, u64> = HashMap::new();
        let mut point = Vec::new();
        for block in &blocks {
            for line in block.read()?.lines() {
                point.clear();
                let Ok(dim) = parse_point_into(line, &mut point) else {
                    continue;
                };
                *dim_counts.entry(dim).or_insert(0) += 1;
                seen += 1;
                if reservoir.len() < count {
                    reservoir.push(point.clone());
                } else {
                    let j = rng.random_range(0..seen);
                    if j < count {
                        reservoir[j].clone_from(&point);
                    }
                }
            }
        }
        let (&dim, _) = dim_counts
            .iter()
            .max_by_key(|&(&d, &n)| (n, std::cmp::Reverse(d)))
            .expect("parsable points");
        reservoir.retain(|p| p.len() == dim);
        let mut ds = Dataset::with_capacity(dim, reservoir.len());
        for p in &reservoir {
            ds.push(p);
        }
        Ok(ds)
    }

    #[test]
    fn samples_requested_count() {
        let dfs = fs_with(1000);
        let s = sample_points(&runner(&dfs), "pts", 10, 1).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.dim(), 2);
        // Sampled rows are real data rows (y = 2x).
        for row in s.rows() {
            assert_eq!(row[1], row[0] * 2.0);
        }
    }

    #[test]
    fn small_file_returns_everything() {
        let dfs = fs_with(5);
        let s = sample_points(&runner(&dfs), "pts", 100, 1).unwrap();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn counts_as_one_dataset_read() {
        let dfs = fs_with(100);
        sample_points(&runner(&dfs), "pts", 3, 1).unwrap();
        assert_eq!(dfs.stats().dataset_reads, 1);
    }

    #[test]
    fn deterministic_per_seed_and_spread_out() {
        let dfs = fs_with(10_000);
        let runner = runner(&dfs);
        let a = sample_points(&runner, "pts", 20, 9).unwrap();
        let b = sample_points(&runner, "pts", 20, 9).unwrap();
        assert_eq!(a, b);
        let c = sample_points(&runner, "pts", 20, 10).unwrap();
        assert_ne!(a, c);
        // A uniform sample of 20 from 10k must not all come from the
        // first 1000 rows.
        assert!(a.rows().any(|r| r[0] > 1000.0));
    }

    #[test]
    fn bad_records_do_not_perturb_the_sample() {
        // Garbage rows are skipped without touching the RNG stream, so
        // the sample is identical to the clean file's.
        let clean = fs_with(500);
        let dirty = dirty_fs();
        let a = sample_points(&runner(&clean), "pts", 10, 7).unwrap();
        let b = sample_points(&runner(&dirty), "pts", 10, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_dimensions_resolve_to_the_modal_one() {
        let dfs = mixed_fs();
        let s = sample_points(&runner(&dfs), "pts", 20, 3).unwrap();
        assert_eq!(s.dim(), 2);
        assert!(s.len() <= 20);
    }

    #[test]
    fn missing_file_and_empty_file_error() {
        let dfs = Arc::new(Dfs::new(64));
        let runner = runner(&dfs);
        assert!(sample_points(&runner, "nope", 3, 0).is_err());
        let w = dfs.create("empty", false).unwrap();
        w.close();
        assert!(sample_points(&runner, "empty", 3, 0).is_err());
    }

    fn bits(ds: &Dataset) -> Vec<u64> {
        ds.flat().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_wave_width_draws_the_serial_sample() {
        let many_blocks = fs_with(10_000);
        assert!(many_blocks.blocks("pts").unwrap().len() > 7);
        for dfs in [fs_with(1000), dirty_fs(), mixed_fs(), many_blocks] {
            for (count, seed) in [(1, 3), (10, 7), (64, 11)] {
                let expected = reference_sample(&dfs, "pts", count, seed).unwrap();
                for width in [1, 2, 3, 7] {
                    let got = sample_in_waves(&dfs, "pts", count, seed, width).unwrap();
                    assert_eq!(got.dim(), expected.dim(), "width {width}");
                    assert_eq!(bits(&got), bits(&expected), "width {width}");
                }
            }
        }
    }
}
