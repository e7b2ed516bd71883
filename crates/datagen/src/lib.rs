//! Synthetic dataset generation for the paper's evaluation workloads.
//!
//! Every experiment in §5 runs on synthetic data: "datasets of 10M
//! points (in R¹⁰) generated using a Gaussian distribution, and using a
//! variable number of clusters ranging from 100 up to 1600", plus a
//! 100M-point, 1000-cluster dataset for the scalability test and small
//! 10-cluster R² datasets for the illustrations (Figures 1 and 4).
//!
//! * [`mixture`] — seeded spherical Gaussian mixture generator with
//!   controllable separation; produces in-memory [`gmr_linalg::Dataset`]s
//!   with ground truth, or streams points straight into the DFS for
//!   sizes that should not be materialized twice.
//! * [`text`] — the point-per-line text encoding the paper assumes
//!   (§3.2 budgets ~15 characters per coordinate when sizing reducer
//!   heap), shared with the MapReduce jobs that parse it back.

#![warn(missing_docs)]

pub mod mixture;
pub mod text;

pub use mixture::{ClusterWeights, GaussianMixture, GroundTruth, LabeledDataset};
pub use text::{
    format_point, parse_point, parse_point_dim, parse_point_dim_into, parse_point_into,
};
