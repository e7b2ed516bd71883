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
    let (&dim, &points) = dim_counts
        .iter()
        .max_by_key(|&(&d, &n)| (n, std::cmp::Reverse(d)))
        .ok_or_else(|| Error::Config(format!("no parsable points in {input}")))?;
    Ok(InputCheck {
        lines,
        points,
        bad_records: lines - points,
        dim,
    })
}
