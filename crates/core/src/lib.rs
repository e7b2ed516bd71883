//! G-means for MapReduce — the core of the reproduction of
//! *"Determining the k in k-means with MapReduce"* (Debatty, Michiardi,
//! Mees, Thonnard — EDBT/ICDT 2014 workshops).
//!
//! G-means (Hamerly & Elkan, 2003) learns the number of clusters `k` by
//! growing a hierarchy: every cluster is split in two unless the 1-D
//! projection of its points onto the axis joining its two refined
//! children passes an Anderson–Darling normality test. The paper
//! reformulates the algorithm as a pipeline of MapReduce jobs whose
//! total computation cost stays `O(n·k)` — against `O(n·k²)` for the
//! classical run-k-means-for-every-k approach — and evaluates both on a
//! Hadoop cluster.
//!
//! This crate contains both sides of that comparison, plus the serial
//! references:
//!
//! * [`serial`] — Lloyd's k-means (with random and k-means++ init) and
//!   the original recursive G-means;
//! * [`mr`] — the paper's contribution: the G-means job pipeline
//!   (`KMeans`, `KMeansAndFindNewCenters` with the `OFFSET = 2⁶²`
//!   key-multiplexing trick, `TestClusters` / `TestFewClusters` with
//!   the heap-aware strategy switch) and the multi-k-means baseline
//!   (Algorithm 6), all running on the [`gmr_mapreduce`] engine;
//! * [`merge`] — the close-center post-processing the paper leaves as
//!   future work;
//! * [`eval`] — WCSS and the average point-to-center distance used in
//!   Table 3.
//!
//! # Quickstart (serial)
//!
//! ```
//! use gmeans::prelude::*;
//! use gmr_datagen::GaussianMixture;
//!
//! let data = GaussianMixture::figure_r2(2000, 7).generate().unwrap();
//! let result = GMeans::new(GMeansConfig::default()).fit(&data.points);
//! // 10 real clusters; G-means finds about that many without being told.
//! assert!((8..=16).contains(&result.k()));
//! ```
//!
//! # Quickstart (MapReduce)
//!
//! ```
//! use std::sync::Arc;
//! use gmeans::prelude::*;
//! use gmr_datagen::GaussianMixture;
//! use gmr_mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};
//!
//! let dfs = Arc::new(Dfs::new(64 * 1024));
//! GaussianMixture::figure_r2(2000, 7)
//!     .generate_to_dfs(&dfs, "points.txt")
//!     .unwrap();
//! let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
//! let result = MRGMeans::new(runner, GMeansConfig::default())
//!     .run("points.txt")
//!     .unwrap();
//! assert!((8..=20).contains(&result.k()));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod eval;
pub mod merge;
pub mod mr;
pub mod serial;

pub use config::{GMeansConfig, KMeansConfig};

/// The commonly used types in one import.
pub mod prelude {
    pub use crate::config::{GMeansConfig, KMeansConfig};
    pub use crate::eval::{assign, average_distance, wcss, Assignment};
    pub use crate::merge::{merge_close_centers, MergeResult};
    pub use crate::mr::{
        check_input, CenterSet, Engine, EngineCtx, ExecutionMode, InputCheck, IterativeAlgorithm,
        KMeansParallelInit, MRGMeans, MRGMeansResult, MRKMeans, MultiKMeans, RunStats,
        SegmentStats, TestStrategy,
    };
    pub use crate::serial::{
        gmeans::{GMeans, GMeansResult},
        initial_centers, kmeans, kmeans_from, InitStrategy,
    };
}
