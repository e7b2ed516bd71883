//! Chaos search: seeded composite fault storms and a schedule shrinker.
//!
//! The robustness suites so far each exercise one fault family at a
//! time. Real incidents compose: a revocation sweep lands while fetches
//! are flaking and a heartbeat false positive has just zombied a
//! reducer. This module turns that composition into a searchable
//! space:
//!
//! * [`Storm::generate`] derives a random-looking but fully
//!   deterministic composite schedule — a [`FaultPlan`] plus a
//!   [`MembershipPlan`] — from a single seed, with every dimension's
//!   intensity bounded to survivable ranges;
//! * an *oracle* (owned by the caller — the integration suites run the
//!   four paper algorithms and compare against a calm run) decides
//!   whether a storm violates an invariant;
//! * [`shrink`] reduces a violating storm to a minimal repro by greedy
//!   dimension-dropping followed by per-knob bisection, so any future
//!   robustness bug becomes a one-line reproducible plan.
//!
//! Everything here is pure arithmetic on plans: no clocks, no OS
//! randomness, no I/O. The same seed always yields the same storm and
//! the same violation always shrinks to the same repro.

use std::fmt;

pub use crate::faults::Dimension;
use crate::faults::{EventSchedule, FaultPlan, MembershipPlan, NodeStatus};

/// Base cluster size the generator targets; matches
/// [`crate::cluster::ClusterConfig::default`].
const BASE_NODES: u32 = 4;

/// A composite fault schedule: one fault plan and one membership plan,
/// composed across up to every [`Dimension`].
///
/// `Copy` and `PartialEq` like its parts, so a shrunk repro can be
/// compared, printed ([`fmt::Display`]) and pasted into a regression
/// test verbatim.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Storm {
    /// Task-, node- and data-level faults.
    pub faults: FaultPlan,
    /// Cluster-membership events (joins, decommissions, revocations).
    pub membership: MembershipPlan,
}

/// SplitMix64 step — the generator's only source of (seeded)
/// randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One uniform draw in `[0, 1)`.
fn u01(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One biased coin flip.
fn chance(state: &mut u64, p: f64) -> bool {
    u01(state) < p
}

impl Storm {
    /// The storm that injects nothing.
    pub fn calm() -> Storm {
        Storm {
            faults: FaultPlan::none(),
            membership: MembershipPlan::none(),
        }
    }

    /// Derives a composite storm from a seed: each dimension is toggled
    /// by a coin flip and, when on, drawn an intensity from a bounded
    /// survivable range. The plans' own injection seeds are derived
    /// from `seed` too, so two storms differ in *where* faults strike,
    /// not just how hard.
    ///
    /// Every generated storm validates against the default 4-node
    /// cluster by construction; whether its node weather leaves a
    /// survivor each epoch is the caller's check
    /// ([`Storm::survivable`]) — an unsurvivable storm legitimately
    /// fails the run rather than degrading the answer.
    pub fn generate(seed: u64) -> Storm {
        let mut s = seed ^ 0xC4A0_55EA_D15A_57E5;
        let mut faults = FaultPlan::none()
            .with_seed(splitmix(&mut s))
            .with_max_attempts(6 + (splitmix(&mut s) % 5) as u32);
        if chance(&mut s, 0.5) {
            faults = faults.with_transient_failures(0.05 + 0.15 * u01(&mut s));
        }
        if chance(&mut s, 0.35) {
            faults = faults.with_heap_failures(0.02 + 0.08 * u01(&mut s));
        }
        if chance(&mut s, 0.5) {
            let prob = 0.05 + 0.25 * u01(&mut s);
            let factor = 1.5 + 2.5 * u01(&mut s);
            faults = faults.with_stragglers(prob, factor);
        }
        if chance(&mut s, 0.35) {
            faults = faults.with_speculation(1.2 + u01(&mut s));
        }
        if chance(&mut s, 0.4) {
            faults = faults.with_node_crashes(0.02 + 0.1 * u01(&mut s));
        }
        if chance(&mut s, 0.3) {
            faults = faults.with_dfs_corruption(0.01 + 0.04 * u01(&mut s));
        }
        if chance(&mut s, 0.3) {
            faults = faults.with_torn_spills(0.02 + 0.1 * u01(&mut s));
        }
        if chance(&mut s, 0.5) {
            faults = faults
                .with_fetch_flakes(0.05 + 0.25 * u01(&mut s))
                .with_fetch_retry_budget(3 + (splitmix(&mut s) % 4) as u32)
                .with_fetch_backoff(0.25 + u01(&mut s));
        }
        if chance(&mut s, 0.5) {
            faults = faults.with_heartbeat_false_positives(0.03 + 0.12 * u01(&mut s));
        }
        if chance(&mut s, 0.2) {
            faults = faults.with_driver_crash_after(2 + splitmix(&mut s) % 4);
        }
        let mut membership = MembershipPlan::none().with_seed(splitmix(&mut s));
        if chance(&mut s, 0.3) {
            membership = membership.with_node_join(1 + splitmix(&mut s) % 5, BASE_NODES);
        }
        if chance(&mut s, 0.25) {
            let node = (splitmix(&mut s) % BASE_NODES as u64) as u32;
            membership = membership.with_node_decommission(2 + splitmix(&mut s) % 4, node);
        }
        if chance(&mut s, 0.35) {
            let period = 2 + splitmix(&mut s) % 3;
            membership = membership.with_revocation_sweeps(period, 0.1 + 0.2 * u01(&mut s));
        }
        Storm { faults, membership }
    }

    /// `dim`'s probability knob in this storm: the fault plan's eight,
    /// plus the membership plan's revocation fraction.
    fn knob_mut(&mut self, dim: Dimension) -> Option<&mut f64> {
        match dim {
            Dimension::Revocations => Some(&mut self.membership.revocation_fraction),
            _ => self.faults.knob_mut(dim),
        }
    }

    /// Whether `dim` injects anything in this storm.
    pub fn has(self, dim: Dimension) -> bool {
        let (faults, membership) = (self.faults, self.membership);
        match dim {
            Dimension::Speculation => faults.speculation.is_some(),
            Dimension::NodeCrashes if !faults.scheduled_node_crashes.is_empty() => true,
            Dimension::Joins => !membership.scheduled_joins.is_empty(),
            Dimension::Decommissions => !membership.scheduled_decommissions.is_empty(),
            Dimension::Revocations if membership.revocation_period == 0 => false,
            Dimension::DriverCrashes => faults.driver_crash_after_jobs.is_some(),
            _ => self.intensity(dim).is_some(),
        }
    }

    /// The storm's active dimensions, in [`Dimension::ALL`] order.
    pub fn dimensions(self) -> Vec<Dimension> {
        Dimension::ALL
            .into_iter()
            .filter(|d| self.has(*d))
            .collect()
    }

    /// A copy of the storm with `dim` fully cleared. Other dimensions'
    /// draws are untouched (disjoint salts), which is what makes greedy
    /// dropping meaningful.
    pub fn without(self, dim: Dimension) -> Storm {
        let mut s = self.with_intensity(dim, 0.0);
        match dim {
            Dimension::Speculation => s.faults.speculation = None,
            Dimension::NodeCrashes => s.faults.scheduled_node_crashes = EventSchedule::default(),
            Dimension::Joins => s.membership.scheduled_joins = EventSchedule::default(),
            Dimension::Decommissions => {
                s.membership.scheduled_decommissions = EventSchedule::default()
            }
            Dimension::Revocations => s.membership.revocation_period = 0,
            Dimension::DriverCrashes => s.faults = s.faults.without_driver_crashes(),
            _ => {}
        }
        s
    }

    /// The storm's continuous intensity knob for `dim`, when it has one
    /// (a probability the shrinker can bisect). Discrete dimensions —
    /// speculation, scheduled joins and decommissions, the driver
    /// crash — return `None` and are only droppable whole.
    pub fn intensity(mut self, dim: Dimension) -> Option<f64> {
        self.knob_mut(dim).map(|p| *p).filter(|&p| p > 0.0)
    }

    /// A copy of the storm with `dim`'s intensity knob set to `p`
    /// (clamped to the valid `[0, 1)` range; `0` clears the dimension).
    /// No-op for dimensions without a knob.
    pub fn with_intensity(mut self, dim: Dimension, p: f64) -> Storm {
        if let Some(knob) = self.knob_mut(dim) {
            *knob = p.clamp(0.0, 0.999);
        }
        self
    }

    /// Whether both plans validate against a base cluster of `nodes`
    /// nodes and every epoch in `1..=epochs` keeps at least one
    /// survivor — the precondition for the bit-identity oracle. A storm
    /// that kills every node mid-epoch legitimately *fails* the run; it
    /// does not get to change the answer.
    pub fn survivable(self, nodes: usize, epochs: u64) -> bool {
        self.faults.validate().is_ok()
            && self.membership.validate(nodes).is_ok()
            && (1..=epochs).all(|e| {
                !NodeStatus::compute(&self.faults, &self.membership, nodes, e)
                    .survivors()
                    .is_empty()
            })
    }
}

impl fmt::Display for Storm {
    /// One-line repro: the active dimensions with their knobs, plus the
    /// two injection seeds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storm[faults_seed={:#x}, membership_seed={:#x}",
            self.faults.seed, self.membership.seed
        )?;
        for dim in Dimension::ALL {
            if self.has(dim) {
                match self.intensity(dim) {
                    Some(p) => write!(f, ", {}={p:.4}", dim.label())?,
                    None => write!(f, ", {}", dim.label())?,
                }
            }
        }
        write!(f, ", max_attempts={}]", self.faults.max_attempts)
    }
}

/// Shrinks a violating storm to a minimal repro.
///
/// Two deterministic passes:
///
/// 1. **Greedy dimension-dropping** to a fixed point: dimensions are
///    visited in [`Dimension::ALL`] order and each is removed whenever
///    the violation persists without it, repeating until no single
///    active dimension can be dropped.
/// 2. **Bisection** of every remaining continuous knob: eight halving
///    steps squeeze each probability down to (a quantized neighborhood
///    of) the smallest value that still violates.
///
/// `violates` must be a pure function of the storm — with the
/// deterministic runtime that is exactly what "run the algorithms and
/// compare" gives. Returns the input unchanged when it does not violate
/// (nothing to shrink).
pub fn shrink(storm: &Storm, mut violates: impl FnMut(&Storm) -> bool) -> Storm {
    let mut current = *storm;
    if !violates(&current) {
        return current;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for dim in Dimension::ALL {
            if current.has(dim) {
                let candidate = current.without(dim);
                if violates(&candidate) {
                    current = candidate;
                    changed = true;
                }
            }
        }
    }
    for dim in Dimension::ALL {
        if let Some(p) = current.intensity(dim) {
            // Invariant: `current.with_intensity(dim, hi)` violates.
            let mut lo = 0.0;
            let mut hi = p;
            for _ in 0..8 {
                let mid = 0.5 * (lo + hi);
                let candidate = current.with_intensity(dim, mid);
                if candidate.has(dim) && violates(&candidate) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            current = current.with_intensity(dim, hi);
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in 0..32u64 {
            assert_eq!(Storm::generate(seed), Storm::generate(seed));
        }
        assert_ne!(Storm::generate(1), Storm::generate(2));
    }

    #[test]
    fn generated_storms_validate_by_construction() {
        for seed in 0..256u64 {
            let storm = Storm::generate(seed);
            assert!(storm.faults.validate().is_ok(), "seed {seed}: {storm}");
            assert!(
                storm.membership.validate(BASE_NODES as usize).is_ok(),
                "seed {seed}: {storm}"
            );
        }
    }

    #[test]
    fn every_dimension_appears_across_seeds() {
        for dim in Dimension::ALL {
            assert!(
                (0..256u64).any(|seed| Storm::generate(seed).has(dim)),
                "{} never generated",
                dim.label()
            );
        }
    }

    #[test]
    fn most_storms_are_survivable() {
        let ok = (0..256u64)
            .filter(|&s| Storm::generate(s).survivable(BASE_NODES as usize, 12))
            .count();
        assert!(ok > 128, "only {ok}/256 storms survivable");
    }

    #[test]
    fn without_clears_exactly_one_dimension() {
        // A storm with everything on.
        let storm = Storm {
            faults: FaultPlan::none()
                .with_transient_failures(0.1)
                .with_heap_failures(0.05)
                .with_stragglers(0.1, 2.0)
                .with_speculation(1.5)
                .with_node_crashes(0.05)
                .with_dfs_corruption(0.02)
                .with_torn_spills(0.05)
                .with_fetch_flakes(0.1)
                .with_heartbeat_false_positives(0.1)
                .with_driver_crash_after(3)
                .with_max_attempts(8),
            membership: MembershipPlan::none()
                .with_node_join(2, BASE_NODES)
                .with_node_decommission(3, 1)
                .with_revocation_sweeps(2, 0.2),
        };
        assert_eq!(storm.dimensions().len(), Dimension::ALL.len());
        for dim in Dimension::ALL {
            let reduced = storm.without(dim);
            assert!(!reduced.has(dim), "{} not cleared", dim.label());
            for other in Dimension::ALL {
                if other != dim {
                    assert!(reduced.has(other), "{} collaterally cleared", other.label());
                }
            }
        }
    }

    #[test]
    fn shrink_drops_to_the_guilty_dimension_and_bisects_its_knob() {
        let storm = Storm::generate(0xBAD5EED)
            .with_intensity(Dimension::NodeCrashes, 0.4)
            .with_intensity(Dimension::FetchFlakes, 0.2)
            .with_intensity(Dimension::Transients, 0.15);
        assert!(storm.dimensions().len() >= 3);
        // Synthetic violation: "the bug" fires whenever node crashes
        // strike with probability above 0.1.
        let violates = |s: &Storm| s.faults.node_crash_prob > 0.1;
        let minimal = shrink(&storm, violates);
        assert_eq!(minimal.dimensions(), vec![Dimension::NodeCrashes]);
        let p = minimal.faults.node_crash_prob;
        assert!(violates(&minimal));
        // Eight bisection steps squeeze the knob to within
        // 0.4 / 2^8 of the 0.1 threshold.
        assert!(p <= 0.1 + 0.4 / 256.0 + 1e-12, "knob not minimized: {p}");
        // Deterministic: shrinking again yields the identical repro.
        assert_eq!(minimal, shrink(&storm, violates));
        // And the repro prints as one line.
        assert!(minimal.to_string().contains("node_crashes"));
    }

    #[test]
    fn shrink_keeps_a_discrete_dimension_it_cannot_bisect() {
        let storm = Storm::calm();
        let storm = Storm {
            faults: storm.faults.with_transient_failures(0.2),
            membership: storm.membership.with_node_join(2, BASE_NODES),
        };
        // The violation needs the join — transients are innocent.
        let violates = |s: &Storm| !s.membership.scheduled_joins.is_empty();
        let minimal = shrink(&storm, violates);
        assert_eq!(minimal.dimensions(), vec![Dimension::Joins]);
    }

    #[test]
    fn shrink_returns_non_violating_storms_unchanged() {
        let storm = Storm::generate(7);
        assert_eq!(shrink(&storm, |_| false), storm);
    }

    /// Every knob value of the storms seeds 0–511 generate, folded into
    /// one FNV-1a value: `Storm::generate`'s draw sequence is a
    /// contract (the chaos suite and `BENCH_chaos.json` pin storms by
    /// seed), so a refactor must leave it unchanged.
    #[test]
    fn every_generated_storm_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for seed in 0..512u64 {
            let storm = Storm::generate(seed);
            let (f, m) = (storm.faults, storm.membership);
            fold(f.seed);
            fold(m.seed);
            fold(f.max_attempts as u64);
            for dim in Dimension::ALL {
                fold(storm.has(dim) as u64);
                fold(storm.intensity(dim).map_or(u64::MAX, f64::to_bits));
            }
            fold(f.straggler_factor.to_bits());
            fold(f.speculation.map_or(0, f64::to_bits));
            fold(f.fetch_retry_budget as u64);
            fold(f.fetch_backoff_base_secs.to_bits());
            fold(f.driver_crash_after_jobs.unwrap_or(0));
            for events in [
                f.scheduled_node_crashes,
                m.scheduled_joins,
                m.scheduled_decommissions,
            ] {
                for (epoch, node) in events.iter() {
                    fold(epoch);
                    fold(node as u64);
                }
                fold(u64::MAX);
            }
            fold(m.revocation_period);
        }
        assert_eq!(h, 0x4f53_3e19_4dc2_7b2d, "{h:#018x}");
    }

    #[test]
    fn calm_storm_is_inactive_and_survivable() {
        let calm = Storm::calm();
        assert!(calm.dimensions().is_empty());
        assert!(!calm.faults.is_active());
        assert!(!calm.membership.is_active());
        assert!(calm.survivable(4, 100));
    }
}
