//! Multi-tenant scheduler benchmark: fair-share vs FIFO arbitration of
//! real algorithm workloads (`BENCH_scheduler.json`).
//!
//! Three tenants share the paper's 4-node cluster through the
//! [`JobTracker`]: a `research` queue running Lloyd k-means, a `batch`
//! queue running a multi-k-means sweep, and an `interactive` queue with
//! a minimum share that submits a short job mid-run (the classic
//! "ad-hoc query against a busy cluster" scenario the Hadoop fair
//! scheduler was built for). Each tenant's jobs execute on the queue's
//! own runner — outputs and per-task durations are the single-tenant
//! ones, bit for bit — and the tracker then arbitrates the collected
//! demands twice, under fair share and under FIFO, so the comparison
//! isolates pure scheduling policy.
//!
//! Reported: makespan under both policies, per-tenant finish times
//! (FIFO starves the late arrival; fair share does not), the
//! share-error curve, preemption counts, and the node-local map
//! fraction of the locality-aware placement.

use std::sync::Arc;

use gmeans::mr::{MRKMeans, MultiKMeans};
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::cluster::ClusterConfig;
use gmr_mapreduce::cost::JobTiming;
use gmr_mapreduce::dfs::Dfs;
use gmr_mapreduce::scheduler::{
    JobTracker, QueueConfig, SchedulingPolicy, ShareSample, TenantDemand, TrackerRun,
};

use crate::harness::{render_table, ExperimentScale};

/// The staged dataset path.
const DATA: &str = "points.txt";

/// DFS block size: small enough that every job runs several map waves
/// on the 32-slot cluster, so the policies actually contend.
const BLOCK_SIZE: usize = 32 * 1024;

/// One tenant of the benchmark.
#[derive(Clone, Debug)]
pub struct TenantRow {
    /// Queue name.
    pub queue: &'static str,
    /// Queue weight.
    pub weight: f64,
    /// Workload description.
    pub algorithm: String,
    /// Simulated submission time.
    pub submit_at: f64,
    /// Jobs the tenant ran.
    pub jobs: usize,
    /// Map tasks across those jobs.
    pub maps: usize,
    /// Finish time under fair share.
    pub finish_fair: f64,
    /// Finish time under FIFO.
    pub finish_fifo: f64,
}

/// The benchmark report.
#[derive(Debug)]
pub struct SchedulerBench {
    /// Cluster nodes.
    pub nodes: usize,
    /// Total map slots arbitrated.
    pub map_slots: usize,
    /// One row per tenant.
    pub tenants: Vec<TenantRow>,
    /// Makespan under fair share.
    pub fair_makespan: f64,
    /// Makespan under FIFO.
    pub fifo_makespan: f64,
    /// Mean share error of the fair-share schedule over its sampled
    /// scheduling instants (unweighted by how long each one held).
    pub mean_share_error: f64,
    /// Share-error curve of the fair-share schedule (downsampled).
    pub share_curve: Vec<ShareSample>,
    /// Node-local fraction of winning map placements (fair share).
    pub node_local_fraction: f64,
    /// Attempts killed by min-share preemption (fair share).
    pub tasks_preempted: u64,
}

impl SchedulerBench {
    /// Serializes the report as a small JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"experiment\": \"scheduler\",\n");
        s.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        s.push_str(&format!("  \"map_slots\": {},\n", self.map_slots));
        s.push_str(&format!(
            "  \"fair_makespan_secs\": {:.3},\n",
            self.fair_makespan
        ));
        s.push_str(&format!(
            "  \"fifo_makespan_secs\": {:.3},\n",
            self.fifo_makespan
        ));
        s.push_str(&format!(
            "  \"mean_share_error\": {:.4},\n",
            self.mean_share_error
        ));
        s.push_str(&format!(
            "  \"node_local_fraction\": {:.4},\n",
            self.node_local_fraction
        ));
        s.push_str(&format!(
            "  \"tasks_preempted\": {},\n",
            self.tasks_preempted
        ));
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"queue\": \"{}\", \"weight\": {}, \"algorithm\": \"{}\", \
                 \"submit_at\": {:.3}, \"jobs\": {}, \"maps\": {}, \
                 \"finish_fair_secs\": {:.3}, \"finish_fifo_secs\": {:.3}}}{}\n",
                t.queue,
                t.weight,
                t.algorithm,
                t.submit_at,
                t.jobs,
                t.maps,
                t.finish_fair,
                t.finish_fifo,
                if i + 1 < self.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"share_error_curve\": [\n");
        for (i, p) in self.share_curve.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"time_secs\": {:.3}, \"share_error\": {:.4}}}{}\n",
                p.time,
                p.share_error,
                if i + 1 < self.share_curve.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Builds a tracker with the benchmark's three queues.
fn tracker(dfs: &Arc<Dfs>, cluster: ClusterConfig, policy: SchedulingPolicy) -> JobTracker {
    let mut t = JobTracker::new(Arc::clone(dfs), cluster)
        .expect("valid cluster")
        .with_policy(policy);
    t.add_queue(QueueConfig::new("research").with_weight(2.0))
        .expect("research queue");
    t.add_queue(QueueConfig::new("batch")).expect("batch queue");
    t.add_queue(QueueConfig::new("interactive").with_min_share(cluster.total_map_slots() / 4))
        .expect("interactive queue");
    t
}

/// Turns a driver's per-iteration timings into one tenant demand.
fn demand(
    tracker: &JobTracker,
    queue: &str,
    submit_at: f64,
    label: &str,
    timings: &[JobTiming],
) -> TenantDemand {
    TenantDemand {
        queue: queue.into(),
        submit_at,
        jobs: timings
            .iter()
            .enumerate()
            .map(|(i, t)| tracker.demand_for(DATA, format!("{label}-{i}"), t))
            .collect(),
    }
}

fn finish_of(run: &TrackerRun, queue: &str) -> f64 {
    run.queues
        .iter()
        .find(|q| q.queue == queue)
        .map_or(0.0, |q| q.finish_secs)
}

/// Runs the benchmark.
pub fn run(scale: &ExperimentScale) -> SchedulerBench {
    let k = scale.k(100);
    let spec = GaussianMixture::paper_r10(scale.points, k, scale.seed ^ 0x5c4d);
    let dfs = Arc::new(Dfs::new(BLOCK_SIZE));
    spec.generate_to_dfs(&dfs, DATA)
        .expect("dataset generation");
    let cluster = ClusterConfig::default();

    let fair = tracker(&dfs, cluster, SchedulingPolicy::FairShare);
    let fifo = tracker(&dfs, cluster, SchedulingPolicy::Fifo);

    // Execute each tenant's workload on its queue's runner; outputs and
    // durations are exactly the single-tenant ones.
    let research = MRKMeans::new(
        fair.runner("research").expect("queue").clone(),
        k,
        4,
        scale.seed,
    )
    .run(DATA)
    .expect("research k-means");
    let batch = MultiKMeans::new(
        fair.runner("batch").expect("queue").clone(),
        1,
        scale.k(50),
        1,
        2,
        scale.seed,
    )
    .run(DATA)
    .expect("batch multi-k-means");
    let interactive = MRKMeans::new(
        fair.runner("interactive").expect("queue").clone(),
        2.max(k / 4),
        2,
        scale.seed ^ 1,
    )
    .run(DATA)
    .expect("interactive k-means");

    // The ad-hoc tenant arrives while the first research map wave is
    // still on the cluster (setup + half the longest map).
    let first_wave = research.iteration_timings[0]
        .map_durations
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    let submit_at = cluster.cost_model.job_setup_secs + 0.5 * first_wave;

    let demands = [
        demand(
            &fair,
            "research",
            0.0,
            "kmeans",
            &research.iteration_timings,
        ),
        demand(&fair, "batch", 0.0, "multik", &batch.iteration_timings),
        demand(
            &fair,
            "interactive",
            submit_at,
            "adhoc",
            &interactive.iteration_timings,
        ),
    ];

    let fair_run = fair.arbitrate(&demands).expect("fair arbitration");
    let fifo_run = fifo.arbitrate(&demands).expect("fifo arbitration");

    let rows = [
        ("research", 2.0, format!("k-means k={k} x4"), &demands[0]),
        (
            "batch",
            1.0,
            format!("multi-k 1..{} x2", scale.k(50)),
            &demands[1],
        ),
        (
            "interactive",
            1.0,
            format!("k-means k={} x2 (min-share)", 2.max(k / 4)),
            &demands[2],
        ),
    ];
    let tenants = rows
        .into_iter()
        .map(|(queue, weight, algorithm, d)| TenantRow {
            queue,
            weight,
            algorithm,
            submit_at: d.submit_at,
            jobs: d.jobs.len(),
            maps: d.jobs.iter().map(|j| j.maps.len()).sum(),
            finish_fair: finish_of(&fair_run, queue),
            finish_fifo: finish_of(&fifo_run, queue),
        })
        .collect();

    // Downsample the share curve to a plottable size.
    let stride = (fair_run.share_samples.len() / 64).max(1);
    let share_curve: Vec<ShareSample> = fair_run
        .share_samples
        .iter()
        .step_by(stride)
        .cloned()
        .collect();

    SchedulerBench {
        nodes: cluster.nodes,
        map_slots: cluster.total_map_slots(),
        tenants,
        fair_makespan: fair_run.makespan,
        fifo_makespan: fifo_run.makespan,
        mean_share_error: fair_run.mean_share_error(),
        share_curve,
        node_local_fraction: fair_run.node_local_fraction(),
        tasks_preempted: fair_run
            .counters
            .get(gmr_mapreduce::counters::Counter::TasksPreempted),
    }
}

/// Renders the report.
pub fn render(b: &SchedulerBench) -> String {
    let rows: Vec<Vec<String>> = b
        .tenants
        .iter()
        .map(|t| {
            vec![
                t.queue.to_string(),
                format!("{:.0}", t.weight),
                t.algorithm.clone(),
                format!("{:.0}", t.submit_at),
                t.jobs.to_string(),
                t.maps.to_string(),
                format!("{:.0}", t.finish_fair),
                format!("{:.0}", t.finish_fifo),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Scheduler: {} tenants on {} nodes ({} map slots)",
            b.tenants.len(),
            b.nodes,
            b.map_slots
        ),
        &[
            "queue", "w", "workload", "submit", "jobs", "maps", "fair fin", "fifo fin",
        ],
        &rows,
    );
    out.push_str(&format!(
        "makespan: fair {:.0}s vs fifo {:.0}s; mean share error {:.3}; \
         node-local maps {:.1}%; preempted {}\n",
        b.fair_makespan,
        b.fifo_makespan,
        b.mean_share_error,
        100.0 * b.node_local_fraction,
        b.tasks_preempted
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_meets_the_acceptance_floor() {
        let b = run(&ExperimentScale::quick());
        assert!(b.tenants.len() >= 2, "need at least two tenants");
        assert!(b.fair_makespan > 0.0 && b.fifo_makespan > 0.0);
        // Unfailed cluster with replication 3/4: locality-aware
        // placement keeps at least 80% of maps node-local.
        assert!(
            b.node_local_fraction >= 0.8,
            "node-local fraction {} below 0.8",
            b.node_local_fraction
        );
        assert!(
            !b.share_curve.is_empty(),
            "contending tenants must produce share samples"
        );
        // Fair share serves the late ad-hoc tenant no later than FIFO,
        // which parks it behind both standing workloads.
        let adhoc = b.tenants.iter().find(|t| t.queue == "interactive").unwrap();
        assert!(
            adhoc.finish_fair <= adhoc.finish_fifo + 1e-9,
            "fair share served the ad-hoc tenant later ({} vs {})",
            adhoc.finish_fair,
            adhoc.finish_fifo
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let b = run(&ExperimentScale::quick());
        let j = b.to_json();
        assert!(j.contains("\"experiment\": \"scheduler\""));
        assert!(j.contains("\"share_error_curve\""));
        assert_eq!(j.matches("finish_fair_secs").count(), b.tenants.len());
    }
}
