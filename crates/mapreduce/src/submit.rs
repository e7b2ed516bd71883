//! A job-submission façade over [`JobRunner`]: one handle that hides
//! whether jobs scan DFS text (Hadoop-style) or an in-memory
//! [`PointCache`] (Spark-style, the paper's §6 future work).
//!
//! Drivers used to branch on the execution mode at every submission
//! site; the iterative-driver engine constructs one [`Submission`] per
//! job wave instead, so the cached-vs-streaming decision lives in
//! exactly one place.

use crate::cache::PointCache;
use crate::job::{Job, JobConfig, PointMapper};
use crate::runtime::{JobResult, JobRunner};
use crate::Result;

/// Where a submitted job reads its points from.
enum Source<'a> {
    /// Re-read and re-parse the DFS text file at this path per job.
    Streaming(&'a str),
    /// Scan the pinned, pre-parsed point cache.
    Cached(&'a PointCache),
}

/// A borrowed submission handle: a [`JobRunner`] bound to one input
/// source for the duration of a job wave.
pub struct Submission<'a> {
    runner: &'a JobRunner,
    source: Source<'a>,
}

impl<'a> Submission<'a> {
    /// Submissions that re-read the DFS text file at `input` per job.
    pub fn streaming(runner: &'a JobRunner, input: &'a str) -> Self {
        Self {
            runner,
            source: Source::Streaming(input),
        }
    }

    /// Submissions that scan the pinned `cache` instead of the DFS.
    pub fn cached(runner: &'a JobRunner, cache: &'a PointCache) -> Self {
        Self {
            runner,
            source: Source::Cached(cache),
        }
    }

    /// Whether jobs scan the in-memory cache (no per-job dataset read).
    pub fn is_cached(&self) -> bool {
        matches!(self.source, Source::Cached(_))
    }

    /// Runs `job` against the bound source.
    pub fn submit<J>(&self, job: &J, config: &JobConfig) -> Result<JobResult<J::Output>>
    where
        J: Job,
        J::Mapper: PointMapper,
    {
        match self.source {
            Source::Streaming(input) => self.runner.run(job, input, config),
            Source::Cached(cache) => self.runner.run_cached(job, cache, config),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::dfs::Dfs;
    use crate::job::{MapOutput, Mapper, Reducer, TaskContext, Values};
    use crate::prelude::Counter;

    /// Counts points per (truncated) first coordinate.
    struct CountJob;
    struct CountMapper;
    struct CountReducer;

    impl Mapper for CountMapper {
        type Key = i64;
        type Value = u64;
    }

    impl PointMapper for CountMapper {
        fn dim(&self) -> usize {
            2
        }

        fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool {
            let start = out.len();
            out.extend(
                line.split_whitespace()
                    .filter_map(|t| t.parse::<f64>().ok()),
            );
            if out.len() - start != 2 {
                out.truncate(start);
                return false;
            }
            true
        }

        fn map_point(
            &mut self,
            point: &[f64],
            out: &mut MapOutput<'_, i64, u64>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.emit(point[0] as i64, 1);
            Ok(())
        }
    }

    impl Reducer for CountReducer {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        fn reduce(
            &mut self,
            key: i64,
            values: Values<'_, u64>,
            out: &mut Vec<(i64, u64)>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.push((key, values.sum()));
            Ok(())
        }
    }

    impl Job for CountJob {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        type Mapper = CountMapper;
        type Reducer = CountReducer;
        fn name(&self) -> &str {
            "count"
        }
        fn create_mapper(&self) -> CountMapper {
            CountMapper
        }
        fn create_reducer(&self) -> CountReducer {
            CountReducer
        }
    }

    fn staged() -> (JobRunner, PointCache) {
        let dfs = Arc::new(Dfs::new(64));
        dfs.put_lines("pts", ["0.5 1.0", "0.25 2.0", "3.5 0.0", "3.25 1.5"])
            .unwrap();
        let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
        let parse = |line: &str| {
            line.split_whitespace()
                .map(|t| t.parse().map_err(|_| crate::Error::Corrupt(line.into())))
                .collect()
        };
        let cache = PointCache::build(&dfs, "pts", 2, parse).unwrap();
        (runner, cache)
    }

    #[test]
    fn streaming_and_cached_submissions_agree() {
        let (runner, cache) = staged();
        let config = JobConfig::with_reducers(2);
        let streaming = Submission::streaming(&runner, "pts");
        assert!(!streaming.is_cached());
        let mut on_disk = streaming.submit(&CountJob, &config).unwrap().output;
        let cached_sub = Submission::cached(&runner, &cache);
        assert!(cached_sub.is_cached());
        let mut cached = cached_sub.submit(&CountJob, &config).unwrap().output;
        on_disk.sort();
        cached.sort();
        assert_eq!(on_disk, vec![(0, 2), (3, 2)]);
        assert_eq!(on_disk, cached);
    }

    #[test]
    fn cached_submission_skips_the_dataset_scan() {
        let (runner, cache) = staged();
        let config = JobConfig::with_reducers(1);
        let before = runner.dfs().stats().dataset_reads;
        Submission::cached(&runner, &cache)
            .submit(&CountJob, &config)
            .unwrap();
        assert_eq!(runner.dfs().stats().dataset_reads, before);
        let r = Submission::streaming(&runner, "pts")
            .submit(&CountJob, &config)
            .unwrap();
        assert!(r.counters.get(Counter::MapInputRecords) > 0);
    }
}
