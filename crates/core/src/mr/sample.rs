//! Serial point sampling from the DFS.
//!
//! `PickInitialCenters` is "a serial implementation, that picks initial
//! centers at random" (§3). Reading the dataset once to reservoir-sample
//! a handful of points is exactly one dataset read — the driver charges
//! it as such.

use gmr_datagen::parse_point_into;
use gmr_linalg::Dataset;
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Reservoir-samples `count` points from a DFS text file (one dataset
/// read). Returns fewer points when the file is smaller than `count`.
///
/// Malformed rows — unparsable lines and non-finite coordinates — are
/// skipped, not fatal, mirroring the mappers' bad-record quarantine;
/// skipped rows touch neither the reservoir count nor the RNG stream,
/// so a clean dataset samples identically with or without garbage rows
/// interleaved. When the file mixes dimensions, the sample is filtered
/// to the modal (most frequent) dimension.
pub fn sample_points(dfs: &Arc<Dfs>, path: &str, count: usize, seed: u64) -> Result<Dataset> {
    assert!(count > 0, "sample count must be positive");
    let splits = dfs.splits(path)?;
    dfs.begin_dataset_read();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reservoir: Vec<Vec<f64>> = Vec::with_capacity(count);
    let mut seen = 0usize;
    let mut dim_counts: HashMap<usize, u64> = HashMap::new();
    let mut point = Vec::new();
    for split in &splits {
        dfs.charge_split_read(split);
        for (_, line) in split.lines() {
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
    let Some((&dim, _)) = dim_counts
        .iter()
        .max_by_key(|&(&d, &n)| (n, std::cmp::Reverse(d)))
    else {
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

    fn fs_with(n: usize) -> Arc<Dfs> {
        let dfs = Arc::new(Dfs::new(256));
        dfs.put_lines("pts", (0..n).map(|i| format!("{i} {}", i * 2)))
            .unwrap();
        dfs
    }

    #[test]
    fn samples_requested_count() {
        let dfs = fs_with(1000);
        let s = sample_points(&dfs, "pts", 10, 1).unwrap();
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
        let s = sample_points(&dfs, "pts", 100, 1).unwrap();
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn counts_as_one_dataset_read() {
        let dfs = fs_with(100);
        sample_points(&dfs, "pts", 3, 1).unwrap();
        assert_eq!(dfs.stats().dataset_reads, 1);
    }

    #[test]
    fn deterministic_per_seed_and_spread_out() {
        let dfs = fs_with(10_000);
        let a = sample_points(&dfs, "pts", 20, 9).unwrap();
        let b = sample_points(&dfs, "pts", 20, 9).unwrap();
        assert_eq!(a, b);
        let c = sample_points(&dfs, "pts", 20, 10).unwrap();
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
        let a = sample_points(&clean, "pts", 10, 7).unwrap();
        let b = sample_points(&dirty, "pts", 10, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_dimensions_resolve_to_the_modal_one() {
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
        let s = sample_points(&dfs, "pts", 20, 3).unwrap();
        assert_eq!(s.dim(), 2);
        assert!(s.len() <= 20);
    }

    #[test]
    fn missing_file_and_empty_file_error() {
        let dfs = Arc::new(Dfs::new(64));
        assert!(sample_points(&dfs, "nope", 3, 0).is_err());
        let w = dfs.create("empty", false).unwrap();
        w.close();
        assert!(sample_points(&dfs, "empty", 3, 0).is_err());
    }
}
