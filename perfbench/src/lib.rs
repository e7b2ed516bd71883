//! The repository benchmark: MapReduce G-means, multi-k-means and
//! out-of-core k-means run end to end through their public drivers,
//! answers checked, with per-layer busy time from probes of each layer's
//! public functions. See `README.md` in this directory.

pub mod bench;
pub mod heap;
pub mod layers;
pub mod stats;
pub mod sys;
pub mod workload;
