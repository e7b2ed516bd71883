//! Pre-flight input validation shared by every driver.
//!
//! Real Hadoop pipelines fail an hour in when the input holds malformed
//! records; [`check_input`] scans once up front and summarizes instead,
//! so a driver (or an operator) can decide whether the quarantine rate
//! is acceptable before paying for a run.

use std::collections::HashMap;

use gmr_mapreduce::runtime::JobRunner;
use gmr_mapreduce::text::PointLines;
use gmr_mapreduce::{Error, Result};

/// Summary of a pre-flight input scan: what [`check_input`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputCheck {
    /// Total text lines scanned.
    pub lines: u64,
    /// Lines that parsed as points of the modal dimensionality.
    pub points: u64,
    /// Lines quarantined: unparsable, non-finite, or of a minority
    /// dimensionality.
    pub bad_records: u64,
    /// The modal point dimensionality.
    pub dim: usize,
}

/// Validates an input path before running (friendlier than the first
/// job failing), scanning it once — one charged dataset read — and
/// summarizing instead of failing on the first malformed line: how many
/// lines parse as points, how many would be quarantined as bad records,
/// and the modal dimensionality the run would use.
///
/// Errors only when the file is missing or holds no usable points at
/// all.
pub fn check_input(runner: &JobRunner, input: &str) -> Result<InputCheck> {
    let dfs = runner.dfs();
    let blocks = dfs.blocks(input)?;
    dfs.begin_dataset_read();
    let mut lines = 0u64;
    let mut dim_counts: HashMap<usize, u64> = HashMap::new();
    let mut point = Vec::new();
    for block in &blocks {
        let split = block.read()?;
        dfs.charge_split_read(&split);
        let mut split_lines = PointLines::new(&split.data);
        while let Some(line) = split_lines.next_point(&mut point) {
            lines += 1;
            if let Ok(dim) = line {
                *dim_counts.entry(dim).or_insert(0) += 1;
            }
            point.clear();
        }
    }
    let (dim, points) = modal_dim(&dim_counts)
        .ok_or_else(|| Error::Config(format!("no parsable points in {input}")))?;
    Ok(InputCheck {
        lines,
        points,
        bad_records: lines - points,
        dim,
    })
}

/// The modal dimension of a file's parsed points, given their count per
/// dimension, and its count: the most frequent dimension, the lowest of
/// those tied; `None` when no point parsed. The one rule by which a file
/// that mixes dimensions resolves to one, so [`check_input`] and
/// [`crate::mr::sample_points`] agree on it.
pub(crate) fn modal_dim(counts: &HashMap<usize, u64>) -> Option<(usize, u64)> {
    counts
        .iter()
        .max_by_key(|&(&d, &n)| (n, std::cmp::Reverse(d)))
        .map(|(&d, &n)| (d, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::sample_points;
    use gmr_mapreduce::cluster::ClusterConfig;
    use gmr_mapreduce::dfs::Dfs;
    use std::sync::Arc;

    #[test]
    fn check_and_sample_break_a_dimension_tie_alike() {
        let dfs = Arc::new(Dfs::new(256));
        dfs.put_lines(
            "pts",
            (0..100).map(|i| {
                if i % 2 == 0 {
                    format!("{i} {i} {i}")
                } else {
                    format!("{i} {i}")
                }
            }),
        )
        .unwrap();
        let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
        let check = check_input(&runner, "pts").unwrap();
        assert_eq!((check.dim, check.points, check.bad_records), (2, 50, 50));
        assert_eq!(sample_points(&runner, "pts", 20, 3).unwrap().dim(), 2);
    }
}
