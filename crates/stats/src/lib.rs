//! Statistical machinery for the G-means MapReduce reproduction.
//!
//! The core of G-means is a statistical hypothesis test: a cluster is
//! split iff the 1-D projection of its points onto the axis joining its
//! two candidate children does **not** look Gaussian. The paper uses the
//! Anderson–Darling test ("a powerful statistical test, which has proved
//! being reliable even with small samples", §3.2) with a minimum sample
//! size of 20.
//!
//! * [`normal`] — `erf`, the standard normal CDF/PDF and a quantile
//!   function, the ingredients of the A² statistic.
//! * [`anderson_darling`] — the A² statistic, the small-sample A*²
//!   correction for the case where mean and variance are estimated from
//!   the data, Stephens' critical-value table and p-value formulas.

#![warn(missing_docs)]

pub mod anderson_darling;
pub mod normal;

pub use anderson_darling::{AdError, AdOutcome, AndersonDarling, MIN_SAMPLE_SIZE};
pub use normal::{erf, erfc, normal_cdf, normal_pdf, normal_quantile};
