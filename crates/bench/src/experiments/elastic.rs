//! Elastic-membership benchmark: what joins buy and revocations cost
//! (`BENCH_elastic.json`).
//!
//! Two scenarios, both running the full G-means driver:
//!
//! 1. **Mid-run scale-out** — a 3-node cluster doubles to 6 nodes at
//!    job epoch 2 ([`MembershipPlan::with_node_join`]). The elastic
//!    makespan must land strictly between the fixed 3-node and fixed
//!    6-node runs: early jobs pay the small cluster, later jobs enjoy
//!    the large one, and the DFS rebalances blocks onto the newcomers
//!    so their map slots get node-local work.
//! 2. **Spot revocations** — the paper's 4-node cluster under a sweep
//!    that revokes each live node with probability 25% every other
//!    epoch ([`MembershipPlan::with_revocation_sweeps`]). Stranded map
//!    outputs are re-executed on survivors; the slowdown is bounded
//!    and the discovered k identical.
//!
//! Membership only ever moves *where* and *when* tasks run. Every
//! scenario must report the same discovered k — that invariant is
//! asserted here, not just in the test suite.

use std::sync::Arc;

use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::cluster::ClusterConfig;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::faults::MembershipPlan;
use gmr_mapreduce::runtime::JobRunner;

use crate::harness::{render_table, ExperimentScale};

/// The staged dataset path.
const DATA: &str = "points.txt";

/// DFS block size: small enough that every job runs several map waves,
/// so membership changes land mid-workload instead of between waves.
const BLOCK_SIZE: usize = 32 * 1024;

/// Seed of the revocation sweep (chosen so the sweep actually revokes
/// someone during a quick run without ever emptying the cluster).
const SWEEP_SEED: u64 = 0x4;

/// One scenario of the benchmark.
#[derive(Clone, Debug)]
pub struct ElasticRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Node count description (e.g. "3→6").
    pub nodes: String,
    /// Discovered k.
    pub k: usize,
    /// Jobs the driver launched.
    pub jobs: usize,
    /// Simulated makespan.
    pub makespan: f64,
    /// Nodes that joined mid-run.
    pub node_joins: u64,
    /// Nodes revoked by sweeps.
    pub nodes_revoked: u64,
    /// DFS blocks proactively moved by membership changes.
    pub blocks_rebalanced: u64,
    /// Map tasks re-executed after revocations stranded their output.
    pub maps_reexecuted: u64,
}

/// The benchmark report.
#[derive(Debug)]
pub struct ElasticBench {
    /// One row per scenario.
    pub rows: Vec<ElasticRow>,
    /// Fixed-3-node makespan over elastic 3→6 makespan (> 1 means the
    /// join paid off).
    pub join_speedup: f64,
    /// Revoked makespan over fixed-4-node makespan (≥ 1; bounded).
    pub revocation_slowdown: f64,
}

impl ElasticBench {
    /// Serializes the report as a small JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"experiment\": \"elastic\",\n");
        s.push_str(&format!("  \"join_speedup\": {:.4},\n", self.join_speedup));
        s.push_str(&format!(
            "  \"revocation_slowdown\": {:.4},\n",
            self.revocation_slowdown
        ));
        s.push_str("  \"scenarios\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"nodes\": \"{}\", \"k\": {}, \
                 \"jobs\": {}, \"makespan_secs\": {:.3}, \"node_joins\": {}, \
                 \"nodes_revoked\": {}, \"blocks_rebalanced\": {}, \
                 \"maps_reexecuted\": {}}}{}\n",
                r.scenario,
                r.nodes,
                r.k,
                r.jobs,
                r.makespan,
                r.node_joins,
                r.nodes_revoked,
                r.blocks_rebalanced,
                r.maps_reexecuted,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Stages the dataset in a fresh DFS and runs G-means on `cluster`.
fn run_scenario(
    spec: &GaussianMixture,
    cluster: ClusterConfig,
    scenario: &'static str,
    nodes: String,
) -> ElasticRow {
    let dfs = Arc::new(Dfs::new(BLOCK_SIZE));
    spec.generate_to_dfs(&dfs, DATA)
        .expect("dataset generation");
    let runner = JobRunner::new(dfs, cluster).expect("valid cluster");
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run(DATA)
        .expect("driver result");
    assert!(
        r.failure.is_none(),
        "{scenario}: run degraded: {:?}",
        r.failure
    );
    ElasticRow {
        scenario,
        nodes,
        k: r.k(),
        jobs: r.jobs,
        makespan: r.simulated_secs,
        node_joins: r.counters.get(Counter::NodeJoins),
        nodes_revoked: r.counters.get(Counter::NodesRevoked),
        blocks_rebalanced: r.counters.get(Counter::DfsBlocksRebalanced),
        maps_reexecuted: r.counters.get(Counter::MapsReexecuted),
    }
}

/// Runs the benchmark.
pub fn run(scale: &ExperimentScale) -> ElasticBench {
    let k = scale.k(100);
    let spec = GaussianMixture::paper_r10(scale.points, k, scale.seed ^ 0xe1a5);

    // Scale-out: fixed 3, elastic 3→6 (nodes 3..5 join at epoch 2),
    // fixed 6 as the lower-bound reference.
    let join_plan = MembershipPlan::none()
        .with_node_join(2, 3)
        .with_node_join(2, 4)
        .with_node_join(2, 5);
    let fixed3 = run_scenario(
        &spec,
        ClusterConfig::with_nodes(3),
        "fixed small",
        "3".into(),
    );
    let elastic = run_scenario(
        &spec,
        ClusterConfig::with_nodes(3).with_membership(join_plan),
        "join mid-run",
        "3→6".into(),
    );
    let fixed6 = run_scenario(
        &spec,
        ClusterConfig::with_nodes(6),
        "fixed large",
        "6".into(),
    );

    // Spot market: the paper's 4-node cluster, 25% revocation sweeps
    // every other epoch.
    let sweep_plan = MembershipPlan::none()
        .with_seed(SWEEP_SEED)
        .with_revocation_sweeps(2, 0.25);
    let fixed4 = run_scenario(&spec, ClusterConfig::default(), "fixed paper", "4".into());
    let revoked = run_scenario(
        &spec,
        ClusterConfig::default().with_membership(sweep_plan),
        "25% spot sweeps",
        "4 (spot)".into(),
    );

    let rows = vec![fixed3, elastic, fixed6, fixed4, revoked];
    // Membership must never move the answer: one k across the board.
    for r in &rows[1..] {
        assert_eq!(
            r.k, rows[0].k,
            "{}: membership changed the discovered k",
            r.scenario
        );
    }
    ElasticBench {
        join_speedup: rows[0].makespan / rows[1].makespan,
        revocation_slowdown: rows[4].makespan / rows[3].makespan,
        rows,
    }
}

/// Renders the report.
pub fn render(b: &ElasticBench) -> String {
    let rows: Vec<Vec<String>> = b
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.nodes.clone(),
                r.k.to_string(),
                r.jobs.to_string(),
                format!("{:.0}", r.makespan),
                r.node_joins.to_string(),
                r.nodes_revoked.to_string(),
                r.blocks_rebalanced.to_string(),
                r.maps_reexecuted.to_string(),
            ]
        })
        .collect();
    let mut out = render_table(
        "Elastic membership: G-means under joins and revocations",
        &[
            "scenario", "nodes", "k", "jobs", "makespan", "joins", "revoked", "rebal", "re-exec",
        ],
        &rows,
    );
    out.push_str(&format!(
        "mid-run 3→6 join: {:.2}x faster than fixed 3 nodes; \
         25% spot sweeps: {:.2}x slower than stable capacity — same k everywhere\n",
        b.join_speedup, b.revocation_slowdown
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick sweep, run once for all of this module's tests: it is
    /// deterministic, so every test reads the rows a run of its own
    /// would produce.
    fn quick_sweep() -> &'static ElasticBench {
        static SWEEP: OnceLock<ElasticBench> = OnceLock::new();
        SWEEP.get_or_init(|| run(&ExperimentScale::quick()))
    }

    #[test]
    fn bench_meets_the_acceptance_floor() {
        let b = quick_sweep();
        assert_eq!(b.rows.len(), 5);
        // The join pays: elastic lands strictly between fixed 3 and 6.
        assert!(
            b.join_speedup > 1.0,
            "mid-run join must beat the fixed small cluster (speedup {:.3})",
            b.join_speedup
        );
        let (elastic, fixed6) = (&b.rows[1], &b.rows[2]);
        assert!(
            elastic.makespan >= fixed6.makespan,
            "an elastic start on 3 nodes cannot beat 6 nodes throughout"
        );
        assert_eq!(elastic.node_joins, 3);
        assert!(elastic.blocks_rebalanced > 0, "joins must pull blocks");
        // Revocations cost time, boundedly, and revoke someone.
        let revoked = &b.rows[4];
        assert!(revoked.nodes_revoked >= 1, "the sweep revoked nobody");
        assert!(
            b.revocation_slowdown > 1.0,
            "revoked capacity must cost simulated time"
        );
        // Quick-scale makespans are job-setup-dominated, so the ratio
        // overstates the real-scale cost; 6x still proves recovery is
        // bounded (an unrecovered kill would never finish at all).
        assert!(
            b.revocation_slowdown < 6.0,
            "25% sweeps slowed the run {:.2}x — recovery is not bounded",
            b.revocation_slowdown
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let b = quick_sweep();
        let j = b.to_json();
        assert!(j.contains("\"experiment\": \"elastic\""));
        assert!(j.contains("\"join_speedup\""));
        assert_eq!(j.matches("\"scenario\":").count(), b.rows.len());
    }
}
