//! A MapReduce runtime for the G-means reproduction.
//!
//! The paper ("Determining the k in k-means with MapReduce", EDBT 2014)
//! implements its algorithms as Hadoop jobs. There is no Hadoop in Rust,
//! so this crate provides the substrate: a faithful, thread-parallel
//! MapReduce engine with the pieces the paper's reasoning depends on —
//!
//! * [`dfs`] — an in-memory HDFS stand-in: text files in line-aligned
//!   blocks, one map task per block, byte-level read accounting ("number
//!   of dataset reads" is a first-class cost in the paper's §4);
//! * [`writable`] — Hadoop-style binary serialization for everything
//!   crossing the shuffle;
//! * [`job`] — the Mapper/Reducer/Combiner/Partitioner programming
//!   model, with `setup`/`close` hooks (Algorithm 5 emits from `Close`);
//! * [`shuffle`] — spill, sort, combine, serialize, then a streaming
//!   k-way merge on the reduce side;
//! * [`runtime`] — task execution over a pool of worker threads standing
//!   in for the cluster's map/reduce slots;
//! * [`submit`] — a submission façade binding a runner to one input
//!   source (DFS text or point cache), so iterative drivers stop
//!   branching on the execution mode at every job site;
//! * [`scheduler`] — a multi-tenant JobTracker: weighted fair-share
//!   queues with min-share preemption and locality-aware map
//!   placement arbitrating the cluster's slots between N tenants;
//! * [`counters`] — the measurable events §4's cost model is written in;
//! * [`memory`] — simulated per-task heap; exceeding it fails the job
//!   with the "Java heap space" error Figure 2 maps out;
//! * [`chaos`] — seeded composite fault storms across every injection
//!   dimension, and a shrinker that reduces an invariant violation to a
//!   minimal one-line reproducible schedule;
//! * [`checkpoint`] — a DFS-backed write-ahead run journal with
//!   atomic rename commit, so a crashed driver resumes from its last
//!   complete snapshot instead of recomputing the run;
//! * [`cluster`] + [`cost`] — the simulated cluster (nodes × slots) and
//!   the cost model converting task work into simulated seconds through
//!   wave scheduling, which regenerates every "Time" column and the
//!   Table 4 / Figure 5 scalability sweep.
//!
//! # Example
//!
//! A complete word-count-shaped job (sum per key) over DFS text:
//!
//! ```
//! use std::sync::Arc;
//! use gmr_mapreduce::prelude::*;
//!
//! struct SumJob;
//! struct SumMapper;
//! struct SumReducer;
//!
//! impl Mapper for SumMapper {
//!     type Key = i64;
//!     type Value = u64;
//! }
//!
//! impl LineMapper for SumMapper {
//!     fn map(&mut self, _off: u64, line: &str, out: &mut MapOutput<'_, i64, u64>,
//!            _ctx: &mut TaskContext) -> gmr_mapreduce::Result<()> {
//!         let id: i64 = line.trim().parse().unwrap_or(0);
//!         out.emit(id, 1);
//!         Ok(())
//!     }
//! }
//!
//! impl Reducer for SumReducer {
//!     type Key = i64;
//!     type Value = u64;
//!     type Output = (i64, u64);
//!     fn reduce(&mut self, key: i64, values: Values<'_, u64>, out: &mut Vec<(i64, u64)>,
//!               _ctx: &mut TaskContext) -> gmr_mapreduce::Result<()> {
//!         out.push((key, values.sum()));
//!         Ok(())
//!     }
//! }
//!
//! impl Job for SumJob {
//!     type Key = i64;
//!     type Value = u64;
//!     type Output = (i64, u64);
//!     type Mapper = SumMapper;
//!     type Reducer = SumReducer;
//!     fn name(&self) -> &str { "sum" }
//!     fn create_mapper(&self) -> SumMapper { SumMapper }
//!     fn create_reducer(&self) -> SumReducer { SumReducer }
//!     fn has_combiner(&self) -> bool { true }
//!     fn combine(&self, _key: &i64, values: Vec<u64>) -> Vec<u64> {
//!         vec![values.iter().sum()]
//!     }
//! }
//!
//! let dfs = Arc::new(Dfs::default());
//! dfs.put_lines("in", ["1", "2", "1", "1"]).unwrap();
//! let runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
//! let mut result = runner.run_lines(&SumJob, "in", &JobConfig::with_reducers(2)).unwrap();
//! result.output.sort();
//! assert_eq!(result.output, vec![(1, 3), (2, 1)]);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod compress;
pub mod cost;
pub mod counters;
pub mod dfs;
pub mod error;
pub mod faults;
pub mod job;
pub mod memory;
pub mod runtime;
pub mod scheduler;
pub mod shuffle;
pub mod spill;
pub mod submit;
pub mod writable;

pub use error::{Error, Result};

/// Convenient glob-import surface for job authors.
pub mod prelude {
    pub use crate::cache::{CachedSplit, PointCache};
    pub use crate::chaos::{shrink, Dimension, Storm};
    pub use crate::checkpoint::{Checkpoint, RunJournal};
    pub use crate::cluster::{ClusterConfig, OutOfCoreConfig};
    pub use crate::cost::{CostModel, JobTiming, TaskCost};
    pub use crate::counters::{Counter, Counters};
    pub use crate::dfs::{BlockLossReport, Dfs, InputSplit};
    pub use crate::error::{Error, Result};
    pub use crate::faults::{FaultDecision, FaultPlan, MembershipPlan, NodeStatus, TaskKind};
    pub use crate::job::{
        Job, JobConfig, LineMapper, MapOutput, Mapper, PointMapper, Reducer, TaskContext, Values,
    };
    pub use crate::memory::{HeapEstimator, HeapLedger, BYTES_PER_PROJECTION, MAX_HEAP_USAGE};
    pub use crate::runtime::{JobResult, JobRunner};
    pub use crate::scheduler::{
        JobDemand, JobTracker, QueueConfig, SchedulingPolicy, TaskDemand, TenantDemand, TrackerRun,
    };
    pub use crate::shuffle::CommitFence;
    pub use crate::submit::Submission;
    pub use crate::writable::{ShuffleKey, ShuffleValue, Writable};
}
