//! Node-level failure domains, proven end to end.
//!
//! Hadoop's unit of failure is the *node*: a TaskTracker that dies
//! takes down its in-flight attempts **and** the completed map outputs
//! on its local disk (re-fetched, re-executed), and HDFS loses one
//! replica of every block it held. These tests drive the simulated
//! cluster's node-failure machinery and prove the properties the
//! recovery layer promises:
//!
//! * node crashes — lost map outputs, shuffle-fetch failures, map
//!   re-execution on survivors — leave every algorithm's *answer*
//!   bit-identical and only lengthen the simulated makespan;
//! * each additional scheduled crash strictly lengthens the makespan;
//! * losing the last replica of a DFS block degrades the run through
//!   the typed [`Error::ReplicasLost`] instead of panicking;
//! * maps run on a holder of their block's replica: with free slots
//!   no map runs remote, and maps re-executed after a crash land on
//!   the surviving holders;
//! * repeat offenders are blacklisted after the configured budget and
//!   the cluster's schedulable capacity shrinks accordingly;
//! * a driver crash *during* a node-crash storm resumes bit-identical,
//!   because node weather is a pure function of the job epoch.

use std::sync::Arc;

use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, FaultPlan, JobRunner, MembershipPlan, TaskKind};
use gmr_mapreduce::Error;

const DATA: &str = "points.txt";

fn staged_dfs() -> Arc<Dfs> {
    staged_dfs_at(DATA)
}

/// The dataset of [`staged_dfs`] written to `path`, which seeds its
/// block placement.
fn staged_dfs_at(path: &str) -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(16 * 1024));
    GaussianMixture::paper_r10(1200, 3, 77)
        .generate_to_dfs(&dfs, path)
        .expect("write dataset");
    dfs
}

fn runner_with(config: ClusterConfig) -> JobRunner {
    JobRunner::new(staged_dfs(), config).expect("valid cluster")
}

/// A node-crash storm survivable by the default 4-node cluster: every
/// epoch each live node has a 25% chance of dying mid-job.
fn node_storm() -> FaultPlan {
    FaultPlan::none()
        .with_seed(0x50DE)
        .with_node_crashes(0.25)
        .with_max_attempts(8)
}

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn hash_rows<'a>(rows: impl Iterator<Item = &'a [f64]>) -> u64 {
    fnv(rows.flat_map(|r| r.iter().map(|v| v.to_bits())))
}

/// Asserts the faulty run actually exercised the node machinery and
/// paid for it on the simulated clock without touching the answer.
fn assert_storm_visible(name: &str, counters: &gmr_mapreduce::counters::Counters) {
    assert!(
        counters.get(Counter::NodeCrashes) > 0,
        "{name}: the storm crashed no node"
    );
    assert!(
        counters.get(Counter::MapsReexecuted) > 0,
        "{name}: no stranded map output was re-executed"
    );
    assert!(
        counters.get(Counter::MapOutputsLost) > 0,
        "{name}: no map output was lost"
    );
    assert!(
        counters.get(Counter::ShuffleFetchFailures) >= counters.get(Counter::MapOutputsLost),
        "{name}: every lost output must fail at least one fetch"
    );
    assert_eq!(
        counters.get(Counter::MapOutputsLost),
        counters.get(Counter::MapsReexecuted),
        "{name}: every lost map output must be re-executed exactly once"
    );
}

#[test]
fn gmeans_answer_survives_a_node_crash_storm() {
    let clean = MRGMeans::new(
        runner_with(ClusterConfig::default()),
        GMeansConfig::default(),
    )
    .run(DATA)
    .unwrap();
    let faulty = MRGMeans::new(
        runner_with(ClusterConfig::default().with_faults(node_storm())),
        GMeansConfig::default(),
    )
    .run(DATA)
    .unwrap();

    assert!(clean.failure.is_none());
    assert!(faulty.failure.is_none(), "the storm killed the run");
    assert_eq!(clean.k(), faulty.k(), "node recovery changed k");
    for (a, b) in clean.centers.rows().zip(faulty.centers.rows()) {
        assert_eq!(a, b, "node recovery perturbed a center");
    }
    assert_eq!(clean.counts, faulty.counts);
    assert_storm_visible("MRGMeans", &faulty.counters);
    assert_eq!(clean.counters.get(Counter::NodeCrashes), 0);
    assert!(
        faulty.simulated_secs > clean.simulated_secs,
        "lost outputs and re-executed maps must lengthen the makespan \
         (clean {:.3}s, faulty {:.3}s)",
        clean.simulated_secs,
        faulty.simulated_secs
    );
    // Logical work is fault-invariant: re-executed maps charge a
    // scratch bank, so the job's totals match the clean run's.
    assert_eq!(
        clean.counters.get(Counter::DistanceComputations),
        faulty.counters.get(Counter::DistanceComputations)
    );
    assert_eq!(
        clean.counters.get(Counter::ShuffleBytes),
        faulty.counters.get(Counter::ShuffleBytes)
    );
}

#[test]
fn kmeans_answer_survives_a_node_crash_storm() {
    let clean = MRKMeans::new(runner_with(ClusterConfig::default()), 3, 6, 5)
        .run(DATA)
        .unwrap();
    let faulty = MRKMeans::new(
        runner_with(ClusterConfig::default().with_faults(node_storm())),
        3,
        6,
        5,
    )
    .run(DATA)
    .unwrap();

    assert_eq!(
        hash_rows(clean.centers.rows()),
        hash_rows(faulty.centers.rows())
    );
    assert_eq!(clean.counts, faulty.counts);
    assert_storm_visible("MRKMeans", &faulty.counters);
    assert!(faulty.simulated_secs > clean.simulated_secs);
}

#[test]
fn multi_kmeans_answer_survives_a_node_crash_storm() {
    let clean = MultiKMeans::new(runner_with(ClusterConfig::default()), 1, 4, 1, 5, 9)
        .run(DATA)
        .unwrap();
    let faulty = MultiKMeans::new(
        runner_with(ClusterConfig::default().with_faults(node_storm())),
        1,
        4,
        1,
        5,
        9,
    )
    .run(DATA)
    .unwrap();

    let centers = |r: &gmeans::mr::MultiKMeansResult| {
        fnv(r
            .models
            .iter()
            .flat_map(|m| m.centers.rows())
            .flat_map(|row| row.iter().map(|v| v.to_bits())))
    };
    assert_eq!(centers(&clean), centers(&faulty));
    assert_storm_visible("MultiKMeans", &faulty.counters);
    assert!(faulty.simulated_secs > clean.simulated_secs);
}

#[test]
fn parallel_init_answer_survives_a_node_crash_storm() {
    let clean = KMeansParallelInit::new(runner_with(ClusterConfig::default()), 3, 13)
        .run(DATA)
        .unwrap();
    let faulty = KMeansParallelInit::new(
        runner_with(ClusterConfig::default().with_faults(node_storm())),
        3,
        13,
    )
    .run(DATA)
    .unwrap();

    assert_eq!(clean.len(), faulty.len(), "node recovery changed k");
    assert_eq!(
        hash_rows((0..clean.len()).map(|i| clean.coords(i))),
        hash_rows((0..faulty.len()).map(|i| faulty.coords(i))),
        "node recovery perturbed an initial center"
    );
}

#[test]
fn each_scheduled_node_crash_lengthens_the_makespan() {
    let run = |faults: FaultPlan| {
        MRGMeans::new(
            runner_with(ClusterConfig::default().with_faults(faults)),
            GMeansConfig::default(),
        )
        .run(DATA)
        .unwrap()
    };
    let zero = run(FaultPlan::none());
    let one = run(FaultPlan::none().with_node_crash(2, 0));
    let two = run(FaultPlan::none()
        .with_node_crash(2, 0)
        .with_node_crash(3, 1));

    assert_eq!(zero.counters.get(Counter::NodeCrashes), 0);
    assert_eq!(one.counters.get(Counter::NodeCrashes), 1);
    assert_eq!(two.counters.get(Counter::NodeCrashes), 2);
    for r in [&one, &two] {
        assert_eq!(zero.k(), r.k());
        for (a, b) in zero.centers.rows().zip(r.centers.rows()) {
            assert_eq!(a, b, "a scheduled crash changed a center");
        }
    }
    assert!(
        one.simulated_secs > zero.simulated_secs,
        "one crash must cost simulated time ({:.3}s vs {:.3}s)",
        one.simulated_secs,
        zero.simulated_secs
    );
    assert!(
        two.simulated_secs > one.simulated_secs,
        "a second crash must cost more ({:.3}s vs {:.3}s)",
        two.simulated_secs,
        one.simulated_secs
    );
}

#[test]
fn losing_the_last_replica_degrades_the_run() {
    // Replication 1: the first node crash that takes a data block's
    // only copy makes the *next* job's input unreadable. The typed
    // error is offered to the driver, which winds down with the
    // centers it has instead of panicking.
    let dfs = staged_dfs();
    let cluster = ClusterConfig::default().with_replication(1);
    // Attach the topology so we can see where block 0 landed.
    let probe = JobRunner::new(Arc::clone(&dfs), cluster).unwrap();
    let victim = probe.dfs().block_replicas(DATA)[0][0];
    let cluster = cluster.with_faults(FaultPlan::none().with_node_crash(2, victim as u32));
    let runner = JobRunner::new(dfs, cluster).unwrap();

    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run(DATA)
        .unwrap();
    let failure = r.failure.as_ref().expect("the run should have degraded");
    assert!(
        matches!(failure, Error::ReplicasLost { .. }),
        "expected ReplicasLost, got: {failure}"
    );
    assert!(r.k() >= 1, "no partial centers survived the block loss");
    assert_eq!(r.counters.get(Counter::NodeCrashes), 1);
    assert_eq!(r.counters.get(Counter::DfsBlocksRereplicated), 0);
}

#[test]
fn with_replication_the_same_crash_is_survived() {
    // The identical crash schedule against the default replication
    // factor: surviving replicas serve every read and the lost copies
    // are re-replicated, so the run completes clean.
    let dfs = staged_dfs();
    let probe = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let victim = probe.dfs().block_replicas(DATA)[0][0];
    let cluster =
        ClusterConfig::default().with_faults(FaultPlan::none().with_node_crash(2, victim as u32));
    let runner = JobRunner::new(dfs, cluster).unwrap();

    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run(DATA)
        .unwrap();
    assert!(
        r.failure.is_none(),
        "3-way replication should survive one crash"
    );
    assert!(
        r.counters.get(Counter::DfsBlocksRereplicated) > 0,
        "the dead node's blocks must be re-replicated"
    );
}

#[test]
fn reexecuted_maps_land_on_surviving_replica_holders() {
    // Crash a replica holder mid-run: its completed map outputs are
    // lost and re-executed. With 3-way replication the lost maps'
    // blocks still have live holders, and the re-executions must land
    // on them — every map placement stays node-local. Under this path
    // the crash strands completed outputs; under `DATA` the same crash
    // only kills attempts still in flight.
    const PATH: &str = "pts";
    let dfs = staged_dfs_at(PATH);
    let probe = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let victim = probe.dfs().block_replicas(PATH)[0][0];
    let cluster =
        ClusterConfig::default().with_faults(FaultPlan::none().with_node_crash(2, victim as u32));
    let runner = JobRunner::new(dfs, cluster).unwrap();

    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run(PATH)
        .unwrap();
    assert!(r.failure.is_none(), "replication should survive the crash");
    assert!(
        r.counters.get(Counter::MapsReexecuted) > 0,
        "the dead node's outputs must be re-executed"
    );
    assert!(r.counters.get(Counter::MapsNodeLocal) > 0);
    assert_eq!(
        r.counters.get(Counter::MapsRemote),
        0,
        "a re-executed map skipped its surviving replica holders"
    );
}

#[test]
fn free_local_slots_leave_no_remote_maps() {
    // The staged dataset has ~14 blocks — fewer than the 32 map slots —
    // so a replica holder always has a free slot for every map.
    let r = MRKMeans::new(runner_with(ClusterConfig::default()), 3, 6, 5)
        .run(DATA)
        .unwrap();
    assert!(r.counters.get(Counter::MapsNodeLocal) > 0);
    assert_eq!(
        r.counters.get(Counter::MapsRemote),
        0,
        "runtime placed a map off its replica holders with local slots free"
    );
}

#[test]
fn blacklisting_caps_repeat_offenders_and_shrinks_capacity() {
    let plan = FaultPlan::none()
        .with_seed(3)
        .with_node_crashes(0.5)
        .with_node_blacklist_after(2);
    let cluster = ClusterConfig::default().with_faults(plan);
    let mut crash_counts = [0u32; 4];
    let mut blacklisted_before = 0usize;
    for epoch in 1..=64u64 {
        let s = cluster.node_status(epoch);
        // Every node is exactly one of live or blacklisted.
        for n in 0..4usize {
            assert_ne!(
                s.live.contains(&n),
                s.blacklisted.contains(&n),
                "node {n} must be exactly one of live/blacklisted at epoch {epoch}"
            );
        }
        // Crashes strike live nodes only, never a blacklisted one, and
        // no node crashes more often than its blacklist budget.
        for &c in &s.crashed {
            assert!(s.live.contains(&c), "a dead node crashed at epoch {epoch}");
            crash_counts[c] += 1;
            assert!(
                crash_counts[c] <= 2,
                "node {c} crashed past its blacklist budget"
            );
        }
        // Blacklisting is permanent, and capacity tracks the live set.
        assert!(s.blacklisted.len() >= blacklisted_before);
        blacklisted_before = s.blacklisted.len();
        assert_eq!(cluster.live_map_slots(s.live.len()), s.live.len() * 8);
        assert_eq!(cluster.live_reduce_slots(s.live.len()), s.live.len() * 8);
        // Placement always stays inside its domain.
        let survivors = s.survivors();
        if !survivors.is_empty() {
            let (node, _) = plan.place(&survivors, &[], "job", TaskKind::Map, 0, Some(1));
            assert!(survivors.contains(&node), "placement left its domain");
        }
    }
    assert!(
        blacklisted_before >= 1,
        "a 50% crash rate never blacklisted a node in 64 epochs"
    );
}

#[test]
fn killed_fenced_and_revoked_attempts_never_consume_the_retry_budget() {
    // Kill-path audit: Hadoop's KILLED/FAILED taxonomy says an attempt
    // that died through no fault of its own — its node crashed, its
    // spot instance was revoked, or a heartbeat false positive fenced
    // it — must not burn the task's `max_attempts` budget. Run with a
    // budget of ONE, so a single mischarged kill on any path would fail
    // the whole run, under a storm that exercises all three paths at
    // once. The storm is tuned so the cluster survives every epoch:
    // harsher rates (e.g. 25% crashes on 4 nodes plus revocation
    // sweeps) can kill every live node in one epoch, and the driver
    // then *correctly* degrades to its last completed centers — that
    // is surfaced degradation, not a fencing bug.
    let faults = FaultPlan::none()
        .with_seed(0x40D1E)
        .with_node_crashes(0.08)
        .with_heartbeat_false_positives(0.25)
        .with_max_attempts(1);
    let membership = MembershipPlan::none()
        .with_seed(0x40D1E)
        .with_revocation_sweeps(3, 0.15);
    let faulty = MRKMeans::new(
        runner_with(
            ClusterConfig::with_nodes(8)
                .with_faults(faults)
                .with_membership(membership),
        ),
        3,
        6,
        5,
    )
    .run(DATA)
    .unwrap();
    assert!(
        faulty.failure.is_none(),
        "the tuned storm should not degrade the run: {:?}",
        faulty.failure
    );

    let c = &faulty.counters;
    assert!(
        c.get(Counter::AttemptsKilled) > 0,
        "the storm never crash-killed an attempt"
    );
    assert!(
        c.get(Counter::AttemptsFenced) > 0,
        "the storm never fenced a zombie attempt"
    );
    assert!(
        c.get(Counter::NodesRevoked) > 0,
        "the storm never revoked a node"
    );
    assert_eq!(
        c.get(Counter::AttemptsFailed),
        0,
        "a kill path charged the max_attempts budget"
    );
    // And the kills were free of answer drift.
    let clean = MRKMeans::new(runner_with(ClusterConfig::default()), 3, 6, 5)
        .run(DATA)
        .unwrap();
    assert_eq!(
        hash_rows(clean.centers.rows()),
        hash_rows(faulty.centers.rows())
    );
    assert_eq!(clean.counts, faulty.counts);
}

#[test]
fn node_storm_run_resumes_bit_identical_after_a_driver_crash() {
    const CKPT: &str = "ckpt/node-failures";
    let fingerprint = |r: &MRGMeansResult| {
        (
            hash_rows(r.centers.rows()),
            fnv(r.counts.iter().copied()),
            r.simulated_secs.to_bits(),
            r.jobs,
            r.counters.snapshot(),
        )
    };
    let reference = MRGMeans::new(
        runner_with(ClusterConfig::default().with_faults(node_storm())),
        GMeansConfig::default(),
    )
    .with_checkpoints(CKPT)
    .run(DATA)
    .unwrap();

    let dfs = staged_dfs();
    let crashed_cluster =
        ClusterConfig::default().with_faults(node_storm().with_driver_crash_after(3));
    let err = MRGMeans::new(
        JobRunner::new(Arc::clone(&dfs), crashed_cluster).unwrap(),
        GMeansConfig::default(),
    )
    .with_checkpoints(CKPT)
    .run(DATA)
    .expect_err("driver must crash at boundary 3");
    assert!(matches!(err, Error::DriverCrash { boundary: 3 }));

    let resumed = MRGMeans::new(
        JobRunner::new(dfs, ClusterConfig::default().with_faults(node_storm())).unwrap(),
        GMeansConfig::default(),
    )
    .with_checkpoints(CKPT)
    .resume(DATA)
    .unwrap();

    assert_eq!(
        fingerprint(&reference),
        fingerprint(&resumed),
        "resume under a node-crash storm diverged from the uninterrupted run"
    );
}
