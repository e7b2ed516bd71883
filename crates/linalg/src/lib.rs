//! Dense vector primitives shared by every crate in the G-means MapReduce
//! reproduction.
//!
//! The paper ("Determining the k in k-means with MapReduce", EDBT 2014)
//! manipulates points in low-dimensional Euclidean space (R² for the
//! illustrations, R¹⁰ for the evaluation). This crate provides the small
//! set of numeric building blocks those algorithms need:
//!
//! * [`Point`] — an owned dense vector with the arithmetic used by Lloyd
//!   iterations (addition, scaling, norms).
//! * [`Dataset`] — a flat, cache-friendly row-major matrix of points, the
//!   in-memory representation used by the serial algorithms and by the
//!   synthetic-data generator.
//! * [`distance`] — squared/plain Euclidean distances and nearest-center
//!   search, the kernel the paper's cost model counts (`O(nk)` distance
//!   computations per k-means iteration).
//! * [`projection`] — projection of a point onto the line joining two
//!   centers, the 1-D reduction at the heart of the G-means split test.
//! * [`stats`] — Welford running mean/variance with a parallel `merge`,
//!   used to normalize projections (zero mean, unit variance) before the
//!   Anderson–Darling test and to aggregate per-cluster statistics in
//!   combiners.
//! * [`centroid`] — sum-and-count accumulators, the associative value the
//!   k-means combiner and reducer fold over.
//! * [`regression`] — ordinary least squares on (x, y) pairs, used to fit
//!   the Figure 2 heap-requirement line (`64·x − 42.67`).
//! * [`kdtree`] — an exact static k-d tree, the mrkd-tree-style
//!   nearest-center acceleration the paper's related work cites as a
//!   drop-in optimization.
//! * [`batch`] — a blocked nearest-center kernel processing tiles of
//!   points × tiles of centers with cached squared norms, bit-identical
//!   to the scalar scan.

#![warn(missing_docs)]

pub mod batch;
pub mod centroid;
pub mod distance;
pub mod kdtree;
pub mod point;
pub mod projection;
pub mod regression;
pub mod stats;

pub use batch::{nearest_centers_batch, squared_norms};
pub use centroid::CentroidAccumulator;
pub use distance::{euclidean, nearest_center, nearest_center_flat, squared_euclidean};
pub use kdtree::{KdQuery, KdTree};
pub use point::{Dataset, Point};
pub use projection::{project_onto_segment, SegmentProjector};
pub use regression::LinearFit;
pub use stats::RunningStats;
