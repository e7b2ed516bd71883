//! One module per artifact of the paper's evaluation (§5).
//!
//! | module | artifact | paper content |
//! |---|---|---|
//! | [`fig1`] | Figure 1 | centers placed by successive G-means iterations (10 clusters, R²) |
//! | [`fig2`] | Figure 2 | reducer heap needed vs points per reducer; 64 B/pt regression |
//! | [`times`] | Tables 1–2, Figure 3 | G-means vs multi-k-means running times vs k |
//! | [`table3`] | Table 3 | clustering quality (average point–center distance) |
//! | [`fig4`] | Figure 4 | the local-minimum illustration (14 vs 10 centers) |
//! | [`table4`] | Table 4, Figure 5 | node-count scalability |
//! | [`ablations`] | — | design-choice ablations DESIGN.md calls out |
//! | [`kernels`] | — | nearest-center kernel throughput trajectory (`BENCH_kernels.json`) |
//! | [`elastic`] | — | elastic membership: join speedup, revocation cost (`BENCH_elastic.json`) |
//! | [`scale`] | — | out-of-core spill-merge at 100×–1000× paper scale (`BENCH_scale.json`) |
//! | [`chaos`] | — | composite storm intensity vs makespan, zero answer drift (`BENCH_chaos.json`) |

pub mod ablations;
pub mod chaos;
pub mod elastic;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod kernels;
pub mod scale;
pub mod table3;
pub mod table4;
pub mod times;
