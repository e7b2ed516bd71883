//! Umbrella crate of the reproduction of *"Determining the k in k-means
//! with MapReduce"* (Debatty, Michiardi, Mees, Thonnard — EDBT/ICDT
//! 2014).
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests read like downstream code:
//!
//! * [`algorithms`] ([`gmeans`]) — serial and MapReduce G-means,
//!   k-means, MapReduce multi-k-means, center merging, evaluation
//!   metrics;
//! * [`mapreduce`] ([`gmr_mapreduce`]) — the MapReduce engine (DFS,
//!   jobs, shuffle, counters, simulated cluster & cost model);
//! * [`datagen`] ([`gmr_datagen`]) — seeded Gaussian-mixture workloads;
//! * [`linalg`] ([`gmr_linalg`]) — vector primitives;
//! * [`stats`] ([`gmr_stats`]) — Anderson–Darling, normal
//!   distribution functions.
//!
//! See `README.md` for the quickstart, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured record. The
//! runnable entry points live in `examples/` and in the `repro` binary
//! of the `gmr-bench` crate (one subcommand per table/figure of the
//! paper).

pub use gmeans as algorithms;
pub use gmr_datagen as datagen;
pub use gmr_linalg as linalg;
pub use gmr_mapreduce as mapreduce;
pub use gmr_stats as stats;
