//! The MapReduce implementations: the paper's contribution.
//!
//! * [`centers`] — center sets shipped to mappers; the `OFFSET` trick.
//! * [`kmeans_job`] — classical MR k-means with combiners.
//! * [`find_new_centers`] — Algorithm 2, the fused last-iteration +
//!   candidate-pick job.
//! * [`split_test`] — Algorithms 3–5: `TestClusters` (reducer-side) and
//!   `TestFewClusters` (mapper-side) Anderson–Darling testing.
//! * [`strategy`] — the §3.2 switch rule between the two test jobs.
//! * [`driver`] — Algorithm 1: the MapReduce G-means loop.
//! * [`kmeans_driver`] — plain iterated MR k-means (baseline).
//! * [`multi_kmeans`] — Algorithm 6: all k in one job per iteration
//!   (the O(nk²) baseline).
//! * [`sample`] — reservoir sampling for `PickInitialCenters`: a
//!   serial reservoir fed by blocks parsed in parallel.
//! * [`parallel_init`] — k-means‖, the distributed k-means++
//!   initialization (§2's Bahmani citation), as MapReduce jobs.
//! * [`engine`] — the generic iterative-driver engine, `Engine<A>`:
//!   every driver above is an alias of it over its algorithm
//!   ([`MRGMeans`] is `Engine<GMeansAlgo>`, and so on). One loop calls
//!   the algorithm's `iteration` once per segment; the engine owns the
//!   run options, journaling and checkpoint numbering, resume, fault
//!   degradation, and, in `EngineCtx::run_job`, counters, clocks and
//!   cached-vs-streaming dispatch.
//! * [`input`] — pre-flight input validation shared by the drivers.

pub mod centers;
pub mod driver;
pub mod engine;
pub mod find_new_centers;
pub mod input;
pub mod kmeans_driver;
pub mod kmeans_job;
pub mod multi_kmeans;
pub mod parallel_init;
pub mod sample;
pub mod split_test;
pub mod strategy;

pub use centers::{apply_updates, CenterSet, CenterUpdate, ChannelKey, KernelBackend, OFFSET};
pub use driver::{IterationReport, MRGMeans, MRGMeansResult};
pub use engine::{Engine, EngineCtx, ExecutionMode, IterativeAlgorithm, RunStats, SegmentStats};
pub use find_new_centers::{FindNewCentersJob, FindNewOutput};
pub use input::{check_input, InputCheck};
pub use kmeans_driver::{MRKMeans, MRKMeansResult};
pub use kmeans_job::KMeansJob;
pub use multi_kmeans::{MRKModel, MultiKMeans, MultiKMeansJob, MultiKMeansResult};
pub use parallel_init::KMeansParallelInit;
pub use sample::sample_points;
pub use split_test::{
    SplitTestSpec, TestClustersJob, TestDecision, TestFewClustersJob, TestOutcome,
};
pub use strategy::{choose_strategy, TestStrategy};
