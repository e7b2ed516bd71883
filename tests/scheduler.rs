//! Scheduler invariants, proven end to end.
//!
//! The multi-tenant [`JobTracker`] promises that adding arbitration on
//! top of the execution layer changes *scheduling* and nothing else:
//!
//! * **Bit-identity** — every algorithm run through a tracker queue's
//!   runner produces the same fingerprint (centers, counts, counters,
//!   simulated clock) as the direct single-tenant path, pinned to the
//!   same goldens `tests/driver_engine.rs` pins.
//! * **Fairness** — under random weight vectors, steady-state slot
//!   shares converge to the weights (low mean share error over the
//!   scheduling instants) and heavier queues finish identical workloads
//!   first.
//! * **Preemption** — min-share preemption moves makespans, never
//!   answers, and FIFO vs fair share only re-times the same results.
//! * **Golden arbitration** — the unrounded schedules of both policies
//!   on a three-queue scenario are pinned bit for bit.
//! * **Locality** — with free node-local slots every map placement is
//!   node-local, and maps re-executed after a node crash land on
//!   surviving replica holders.
//! * **Cross-suite guard** — the tracker path survives the node-storm
//!   and driver-crash-resume scenarios of `tests/node_failures.rs` and
//!   `tests/checkpoint_recovery.rs` unchanged.

use std::sync::Arc;

use gmeans::mr::{apply_updates, KMeansJob};
use gmeans::prelude::*;
use gmr_datagen::GaussianMixture;
use gmr_mapreduce::counters::Counter;
use gmr_mapreduce::prelude::{
    ClusterConfig, Dfs, Error, FaultPlan, JobConfig, JobRunner, JobTracker, QueueConfig,
    SchedulingPolicy, TenantDemand,
};
use gmr_mapreduce::scheduler::{JobDemand, TaskDemand};

const DATA: &str = "pts";
const CKPT: &str = "ckpt/scheduler";

/// The dataset the driver-engine goldens were captured on.
fn staged_dfs() -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(16 * 1024));
    GaussianMixture::paper_r10(1200, 3, 77)
        .generate_to_dfs(&dfs, DATA)
        .expect("write dataset");
    dfs
}

/// A tracker over `dfs` with one untuned queue per given name.
fn tracker_on(dfs: &Arc<Dfs>, cluster: ClusterConfig, queues: &[&str]) -> JobTracker {
    let mut t = JobTracker::new(Arc::clone(dfs), cluster).expect("valid cluster");
    for q in queues {
        t.add_queue(QueueConfig::new(*q)).expect("queue");
    }
    t
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

fn counter_vec(c: &gmr_mapreduce::counters::Counters) -> Vec<u64> {
    Counter::all().iter().map(|&k| c.get(k)).collect()
}

/// SplitMix64, for deterministic pseudo-random weights without a dep.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn u01(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------
// Bit-identity: tracker queue runner == direct runner, per algorithm.
// ---------------------------------------------------------------------

#[test]
fn single_tenant_through_the_tracker_is_bit_identical() {
    let dfs = staged_dfs();
    let tracker = tracker_on(&dfs, ClusterConfig::default(), &["solo"]);
    let via_tracker = tracker.runner("solo").expect("queue").clone();
    let direct = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).expect("valid");

    // G-means: pinned to the driver_engine goldens, both paths.
    let a = MRGMeans::new(via_tracker.clone(), GMeansConfig::default())
        .run(DATA)
        .unwrap();
    let b = MRGMeans::new(direct.clone(), GMeansConfig::default())
        .run(DATA)
        .unwrap();
    assert_eq!(hash_rows(a.centers.rows()), 0xdaca81e7fad10409);
    assert_eq!(fnv(a.counts.iter().copied()), 0x1f2fbf6b3d6975bf);
    assert_eq!(a.simulated_secs.to_bits(), 0x40450059e39b7d6b);
    assert_eq!(hash_rows(a.centers.rows()), hash_rows(b.centers.rows()));
    assert_eq!(counter_vec(&a.counters), counter_vec(&b.counters));

    // k-means.
    let a = MRKMeans::new(via_tracker.clone(), 3, 6, 5)
        .run(DATA)
        .unwrap();
    let b = MRKMeans::new(direct.clone(), 3, 6, 5).run(DATA).unwrap();
    assert_eq!(hash_rows(a.centers.rows()), 0x1099ab674d075bae);
    assert_eq!(a.simulated_secs.to_bits(), b.simulated_secs.to_bits());
    assert_eq!(fnv(a.counts.iter().copied()), fnv(b.counts.iter().copied()));
    assert_eq!(counter_vec(&a.counters), counter_vec(&b.counters));

    // Multi-k-means.
    let a = MultiKMeans::new(via_tracker.clone(), 1, 4, 1, 5, 9)
        .run(DATA)
        .unwrap();
    let b = MultiKMeans::new(direct.clone(), 1, 4, 1, 5, 9)
        .run(DATA)
        .unwrap();
    let models = |r: &gmeans::mr::MultiKMeansResult| {
        fnv(r
            .models
            .iter()
            .flat_map(|m| m.centers.rows())
            .flat_map(|row| row.iter().map(|v| v.to_bits())))
    };
    assert_eq!(models(&a), 0x667e8c67fba6225f);
    assert_eq!(models(&a), models(&b));
    assert_eq!(counter_vec(&a.counters), counter_vec(&b.counters));

    // k-means‖ initialization.
    let a = KMeansParallelInit::new(via_tracker, 3, 13)
        .run(DATA)
        .unwrap();
    let b = KMeansParallelInit::new(direct, 3, 13).run(DATA).unwrap();
    let coords = |c: &CenterSet| hash_rows((0..c.len()).map(|i| c.coords(i)));
    assert_eq!(coords(&a), 0xd7973ef4d74560ac);
    assert_eq!(coords(&a), coords(&b));
}

#[test]
fn tenant_client_constructors_reach_the_queues_runner() {
    let dfs = staged_dfs();
    let tracker = tracker_on(&dfs, ClusterConfig::default(), &["etl"]);

    // Engines and jobs reach a queue through its runner;
    // unknown queues are a config error, not a panic.
    assert!(matches!(tracker.runner("nope"), Err(Error::Config(_))));

    // A real job submitted on the queue's runner equals the direct path.
    let mut centers = CenterSet::new(10);
    let sample = gmr_datagen::parse_point(&dfs.read_lines(DATA).unwrap()[0]).unwrap();
    centers.push(0, &sample);
    let job = KMeansJob::new(Arc::new(centers.clone()));
    let config = JobConfig::with_reducers(2);
    let via_queue = tracker
        .runner("etl")
        .unwrap()
        .run(&job, DATA, &config)
        .unwrap();
    let direct_runner = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let direct = direct_runner.run(&job, DATA, &config).unwrap();
    let apply = |out: &[gmeans::mr::CenterUpdate]| {
        let (next, counts) = apply_updates(&centers, out);
        (hash_rows((0..next.len()).map(|i| next.coords(i))), counts)
    };
    assert_eq!(apply(&via_queue.output), apply(&direct.output));
    assert_eq!(
        counter_vec(&via_queue.counters),
        counter_vec(&direct.counters)
    );
}

// ---------------------------------------------------------------------
// Fairness: random weight vectors, identical workloads.
// ---------------------------------------------------------------------

/// A uniform synthetic workload: `maps` equal map tasks, 4 reduces.
fn uniform_job(maps: usize) -> JobDemand {
    JobDemand {
        name: "uniform".into(),
        maps: vec![
            TaskDemand {
                duration: 10.0,
                replicas: Vec::new(),
            };
            maps
        ],
        reduces: vec![5.0; 4],
    }
}

#[test]
fn slot_shares_converge_to_random_weight_vectors() {
    let dfs = staged_dfs();
    let mut state = 0xFA_1Au64;
    for _ in 0..4 {
        let weights: Vec<f64> = (0..3).map(|_| 0.5 + 3.5 * u01(&mut state)).collect();
        let mut tracker =
            JobTracker::new(Arc::clone(&dfs), ClusterConfig::default()).expect("valid cluster");
        for (i, w) in weights.iter().enumerate() {
            tracker
                .add_queue(QueueConfig::new(format!("q{i}")).with_weight(*w))
                .expect("queue");
        }
        let demands: Vec<TenantDemand> = (0..3)
            .map(|i| TenantDemand {
                queue: format!("q{i}"),
                submit_at: 0.0,
                jobs: vec![uniform_job(96)],
            })
            .collect();
        let run = tracker.arbitrate(&demands).expect("arbitration");
        assert!(
            run.mean_share_error() < 0.2,
            "weights {weights:?}: share error {} out of tolerance",
            run.mean_share_error()
        );
        // With a clear weight gap and identical workloads the heavier
        // queue must finish first.
        let heaviest = (0..3)
            .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .unwrap();
        let lightest = (0..3)
            .min_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .unwrap();
        if weights[heaviest] >= 1.8 * weights[lightest] {
            let finish = |q: usize| {
                run.queues
                    .iter()
                    .find(|s| s.queue == format!("q{q}"))
                    .expect("queue ran")
                    .finish_secs
            };
            assert!(
                finish(heaviest) <= finish(lightest),
                "weights {weights:?}: heavier queue finished later"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Preemption: moves makespans, never answers.
// ---------------------------------------------------------------------

#[test]
fn preemption_moves_makespans_never_answers() {
    let dfs = staged_dfs();
    let queues = |policy| {
        let mut t = JobTracker::new(Arc::clone(&dfs), ClusterConfig::default())
            .expect("valid cluster")
            .with_policy(policy);
        t.add_queue(QueueConfig::new("bulk")).expect("bulk");
        t.add_queue(QueueConfig::new("urgent").with_min_share(8))
            .expect("urgent");
        t
    };
    let fair = queues(SchedulingPolicy::FairShare);
    let fifo = queues(SchedulingPolicy::Fifo);

    // The answer comes from execution, which policy never touches.
    let a = MRKMeans::new(fair.runner("bulk").unwrap().clone(), 3, 6, 5)
        .run(DATA)
        .unwrap();
    let b = MRKMeans::new(fifo.runner("bulk").unwrap().clone(), 3, 6, 5)
        .run(DATA)
        .unwrap();
    assert_eq!(hash_rows(a.centers.rows()), hash_rows(b.centers.rows()));
    assert_eq!(fnv(a.counts.iter().copied()), fnv(b.counts.iter().copied()));
    assert_eq!(counter_vec(&a.counters), counter_vec(&b.counters));

    // Arbitration: a bulk wave of 100 s maps holds all 32 slots when
    // the min-share tenant arrives; fair share preempts, FIFO parks.
    let demands = [
        TenantDemand {
            queue: "bulk".into(),
            submit_at: 0.0,
            jobs: vec![JobDemand {
                name: "bulk".into(),
                maps: vec![
                    TaskDemand {
                        duration: 100.0,
                        replicas: Vec::new(),
                    };
                    64
                ],
                reduces: vec![5.0; 4],
            }],
        },
        TenantDemand {
            queue: "urgent".into(),
            submit_at: 10.0,
            jobs: vec![JobDemand {
                name: "urgent".into(),
                maps: vec![
                    TaskDemand {
                        duration: 5.0,
                        replicas: Vec::new(),
                    };
                    8
                ],
                reduces: vec![2.0; 2],
            }],
        },
    ];
    let fair_run = fair.arbitrate(&demands).expect("fair");
    let fifo_run = fifo.arbitrate(&demands).expect("fifo");

    assert!(
        fair_run.counters.get(Counter::TasksPreempted) > 0,
        "the starved min-share queue must preempt"
    );
    assert_eq!(fifo_run.counters.get(Counter::TasksPreempted), 0);
    let finish = |run: &gmr_mapreduce::scheduler::TrackerRun, q: &str| {
        run.queues
            .iter()
            .find(|s| s.queue == q)
            .expect("queue ran")
            .finish_secs
    };
    assert!(
        finish(&fair_run, "urgent") < finish(&fifo_run, "urgent"),
        "preemption must serve the urgent tenant earlier than FIFO"
    );
    assert_ne!(
        fair_run.makespan.to_bits(),
        fifo_run.makespan.to_bits(),
        "preemption re-times the schedule"
    );

    // Arbitration is a pure function: same demands, same schedule.
    let again = fair.arbitrate(&demands).expect("replay");
    assert_eq!(again.makespan.to_bits(), fair_run.makespan.to_bits());
    assert_eq!(
        counter_vec(&again.counters),
        counter_vec(&fair_run.counters)
    );
}

// ---------------------------------------------------------------------
// Golden arbitration: every bit of both policies' schedules, pinned.
// ---------------------------------------------------------------------

/// `maps` map tasks of varied length (block i on nodes {i%4, (i+1)%4})
/// and `reduces` reduce tasks of growing length.
fn varied_job(name: &str, maps: usize, reduces: usize, unit: f64) -> JobDemand {
    JobDemand {
        name: name.into(),
        maps: (0..maps)
            .map(|i| TaskDemand {
                duration: unit * (1.0 + (i % 5) as f64),
                replicas: vec![i % 4, (i + 1) % 4],
            })
            .collect(),
        reduces: (0..reduces).map(|r| 2.0 + r as f64).collect(),
    }
}

/// FNV-1a over every bit of a run: makespan, each share sample, each
/// queue's finish time, slot-seconds and counts, and the counters.
fn run_fingerprint(run: &gmr_mapreduce::scheduler::TrackerRun) -> u64 {
    let mut words = vec![run.makespan.to_bits()];
    for s in &run.share_samples {
        words.extend([s.time.to_bits(), s.share_error.to_bits()]);
    }
    for q in &run.queues {
        words.extend([
            q.finish_secs.to_bits(),
            q.slot_secs.to_bits(),
            q.maps_node_local,
            q.maps_remote,
            q.tasks_preempted,
        ]);
    }
    words.extend(
        [
            Counter::MapsNodeLocal,
            Counter::MapsRemote,
            Counter::TasksPreempted,
        ]
        .map(|c| run.counters.get(c)),
    );
    fnv(words)
}

#[test]
fn arbitration_of_three_weighted_queues_is_pinned() {
    // The example's queue layout: a weight-2 queue, a plain one and a
    // min-share queue whose tenant arrives while the others saturate
    // every map slot. The BENCH_scheduler.json figures are rounded;
    // this pins the unrounded schedule of both policies.
    let dfs = Arc::new(Dfs::new(1024));
    let demands = [
        TenantDemand {
            queue: "research".into(),
            submit_at: 0.0,
            jobs: vec![
                varied_job("research-0", 48, 4, 4.0),
                varied_job("research-1", 40, 4, 3.0),
            ],
        },
        TenantDemand {
            queue: "batch".into(),
            submit_at: 0.0,
            jobs: vec![varied_job("batch", 64, 6, 5.0)],
        },
        TenantDemand {
            queue: "interactive".into(),
            submit_at: 12.5,
            jobs: vec![varied_job("adhoc", 12, 2, 1.5)],
        },
    ];
    let run = |policy| {
        let mut t = JobTracker::new(Arc::clone(&dfs), ClusterConfig::default())
            .expect("valid cluster")
            .with_policy(policy);
        t.add_queue(QueueConfig::new("research").with_weight(2.0))
            .expect("research");
        t.add_queue(QueueConfig::new("batch")).expect("batch");
        t.add_queue(QueueConfig::new("interactive").with_min_share(8))
            .expect("interactive");
        t.arbitrate(&demands).expect("arbitration")
    };
    let fair = run(SchedulingPolicy::FairShare);
    let fifo = run(SchedulingPolicy::Fifo);
    // Fair share: makespan 83.5 s, 8 preemptions, 59 share samples.
    assert_eq!(fair.counters.get(Counter::TasksPreempted), 8);
    assert_eq!(run_fingerprint(&fair), 0xdfd2da1265ace837);
    // FIFO: makespan 85 s, no preemption, 62 share samples.
    assert_eq!(fifo.counters.get(Counter::TasksPreempted), 0);
    assert_eq!(run_fingerprint(&fifo), 0x3c266d1158ecd1e1);
}

// ---------------------------------------------------------------------
// Locality.
// ---------------------------------------------------------------------

#[test]
fn free_local_slots_leave_no_remote_maps() {
    // The staged dataset has ~14 blocks — fewer than the 32 map slots —
    // so a replica holder always has a free slot, in the runtime's own
    // placement and in the tracker's arbitration alike.
    let dfs = staged_dfs();
    let tracker = tracker_on(&dfs, ClusterConfig::default(), &["solo"]);
    let r = MRKMeans::new(tracker.runner("solo").unwrap().clone(), 3, 6, 5)
        .run(DATA)
        .unwrap();
    assert!(r.counters.get(Counter::MapsNodeLocal) > 0);
    assert_eq!(
        r.counters.get(Counter::MapsRemote),
        0,
        "runtime placed a map off its replica holders with local slots free"
    );

    let demands = [TenantDemand {
        queue: "solo".into(),
        submit_at: 0.0,
        jobs: r
            .iteration_timings
            .iter()
            .map(|t| tracker.demand_for(DATA, "kmeans", t))
            .collect(),
    }];
    let run = tracker.arbitrate(&demands).expect("arbitration");
    assert!(run.counters.get(Counter::MapsNodeLocal) > 0);
    assert_eq!(
        run.counters.get(Counter::MapsRemote),
        0,
        "tracker placed a map off its replica holders with local slots free"
    );
    assert_eq!(run.node_local_fraction(), 1.0);
}

#[test]
fn reexecuted_maps_land_on_surviving_replica_holders() {
    // Crash a replica holder mid-run: its completed map outputs are
    // lost and re-executed. With 3-way replication the lost maps'
    // blocks still have live holders, and the re-executions must land
    // on them — every map placement stays node-local.
    let dfs = staged_dfs();
    let probe = JobRunner::new(Arc::clone(&dfs), ClusterConfig::default()).unwrap();
    let victim = probe.dfs().block_replicas(DATA)[0][0];
    let cluster =
        ClusterConfig::default().with_faults(FaultPlan::none().with_node_crash(2, victim as u32));
    let runner = JobRunner::new(dfs, cluster).unwrap();

    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run(DATA)
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

// ---------------------------------------------------------------------
// Cross-suite guard: the tracker path under the fault suites' storms.
// ---------------------------------------------------------------------

/// The survivable storm of `tests/node_failures.rs`.
fn node_storm() -> FaultPlan {
    FaultPlan::none()
        .with_seed(0x50DE)
        .with_node_crashes(0.25)
        .with_max_attempts(8)
}

#[test]
fn tracker_runner_survives_the_node_storm_suites_scenario() {
    let clean = MRKMeans::new(
        JobRunner::new(staged_dfs(), ClusterConfig::default()).unwrap(),
        3,
        6,
        5,
    )
    .run(DATA)
    .unwrap();

    let dfs = staged_dfs();
    let tracker = tracker_on(
        &dfs,
        ClusterConfig::default().with_faults(node_storm()),
        &["stormy"],
    );
    let faulty = MRKMeans::new(tracker.runner("stormy").unwrap().clone(), 3, 6, 5)
        .run(DATA)
        .unwrap();

    assert_eq!(
        hash_rows(clean.centers.rows()),
        hash_rows(faulty.centers.rows()),
        "node recovery through the tracker changed a center"
    );
    assert_eq!(clean.counts, faulty.counts);
    assert!(faulty.counters.get(Counter::NodeCrashes) > 0);
    assert_eq!(
        faulty.counters.get(Counter::MapOutputsLost),
        faulty.counters.get(Counter::MapsReexecuted),
    );
    assert!(
        faulty.simulated_secs > clean.simulated_secs,
        "the storm must lengthen the makespan"
    );
}

#[test]
fn driver_crash_during_a_storm_resumes_bit_identical_through_the_tracker() {
    // Reference: the uninterrupted stormy run through a tracker queue.
    let dfs = staged_dfs();
    let tracker = tracker_on(
        &dfs,
        ClusterConfig::default().with_faults(node_storm()),
        &["stormy"],
    );
    let reference = MRKMeans::new(tracker.runner("stormy").unwrap().clone(), 3, 6, 5)
        .with_checkpoints(CKPT)
        .run(DATA)
        .unwrap();

    // Crash the driver mid-storm, then resume on the same tracker.
    let dfs = staged_dfs();
    let crashing = tracker_on(
        &dfs,
        ClusterConfig::default().with_faults(node_storm().with_driver_crash_after(3)),
        &["stormy"],
    );
    let err = MRKMeans::new(crashing.runner("stormy").unwrap().clone(), 3, 6, 5)
        .with_checkpoints(CKPT)
        .run(DATA)
        .expect_err("driver must crash at boundary 3");
    assert!(matches!(err, Error::DriverCrash { boundary: 3 }));

    let resumed_tracker = tracker_on(
        &dfs,
        ClusterConfig::default().with_faults(node_storm()),
        &["stormy"],
    );
    let resumed = MRKMeans::new(resumed_tracker.runner("stormy").unwrap().clone(), 3, 6, 5)
        .with_checkpoints(CKPT)
        .resume(DATA)
        .unwrap();

    assert_eq!(
        hash_rows(reference.centers.rows()),
        hash_rows(resumed.centers.rows())
    );
    assert_eq!(reference.counts, resumed.counts);
    assert_eq!(
        reference.simulated_secs.to_bits(),
        resumed.simulated_secs.to_bits()
    );
    assert_eq!(
        counter_vec(&reference.counters),
        counter_vec(&resumed.counters)
    );
}
