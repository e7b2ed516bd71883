//! Single-machine reference implementations.
//!
//! These are the algorithms as the literature describes them, without
//! the MapReduce reformulation: Lloyd's k-means with pluggable
//! initialization, the original recursive G-means, X-means, and the
//! loop-over-k multi-k-means baseline. The MapReduce jobs in
//! [`crate::mr`] are validated against these in the integration tests.

pub mod gmeans;
pub mod init;
pub mod kmeans;
pub mod multik;
pub mod xmeans;

pub use gmeans::{GMeans, GMeansResult};
pub use init::{initial_centers, InitStrategy};
pub use kmeans::{kmeans, kmeans_from, lloyd_iteration, KMeansResult};
pub use multik::{multi_kmeans, KModel};
pub use xmeans::{xmeans, XMeansConfig, XMeansResult};
