//! Single-machine reference implementations.
//!
//! These are the algorithms as the literature describes them, without
//! the MapReduce reformulation: Lloyd's k-means with pluggable
//! initialization and the original recursive G-means. The MapReduce
//! jobs in [`crate::mr`] are validated against these in the integration
//! tests.

pub mod gmeans;
pub mod init;
pub mod kmeans;

pub use gmeans::{GMeans, GMeansResult};
pub use init::{initial_centers, InitStrategy};
pub use kmeans::{kmeans, kmeans_from, lloyd_iteration, KMeansResult};
