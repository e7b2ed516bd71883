//! Deterministic fault injection and the recovery policy for task
//! attempts.
//!
//! Real Hadoop clusters lose task attempts all the time — transient JVM
//! crashes, `Java heap space` kills, stragglers on overloaded nodes —
//! and the framework's answer (per-task retry with a bounded attempt
//! budget, plus speculative backup attempts) is what makes a multi-hour
//! G-means run on the paper's 4-node testbed finish at all. The
//! simulated runtime reproduces that layer here.
//!
//! Everything is **deterministic**: whether attempt `a` of task `i` of
//! a job fails is a pure function of the [`FaultPlan`] seed and the
//! task's coordinates `(job_name, kind, index, attempt)` — never of
//! thread scheduling, slot counts or wall-clock time. Two runs with the
//! same plan inject exactly the same faults, and a run on 1 simulated
//! slot injects the same faults as a run on 32.
//!
//! Divergences from Hadoop, chosen to keep simulated results exactly
//! reproducible (see DESIGN.md "Fault model"):
//!
//! * counters of failed attempts are discarded entirely (Hadoop also
//!   excludes failed task attempts from job totals), so job counters
//!   are invariant under injected faults;
//! * speculative execution is decided post hoc from simulated task
//!   durations rather than from a live progress-rate estimate, and
//!   backup attempts are never themselves fault-injected.

use crate::error::{Error, Result};

/// The salt of every independent draw the plans make, in one table so
/// no two dimensions share a draw stream by accident. `Placement` is
/// shared on purpose: [`FaultPlan::place_attempt`] and
/// [`FaultPlan::place_attempt_preferring`] draw the same node when no
/// replica holder is preferred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Salt {
    Transient = 1,
    Heap = 2,
    Straggler = 3,
    FailedProgress = 4,
    DriverCrash = 5,
    NodeCrash = 6,
    CrashPoint = 7,
    CompletedBeforeCrash = 8,
    Placement = 9,
    ReexecutedPlacement = 10,
    Revocation = 11,
    ReplicaCorruption = 12,
    TornSpill = 13,
    FetchFlake = 14,
    BackoffJitter = 15,
    HeartbeatFalsePositive = 16,
}

/// One independent uniform draw in `[0, 1)` per
/// `(seed, job, tag, index, attempt, salt)` coordinate: FNV-1a over the
/// coordinates, then a SplitMix64 finalizer so near-identical keys
/// decorrelate. Shared by [`FaultPlan`] and [`MembershipPlan`] — one
/// hash discipline, disjoint salts.
fn hash_u01(seed: u64, job: &str, tag: u64, index: usize, attempt: u32, salt: Salt) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in job.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for word in [tag, index as u64, attempt as u64, salt as u64] {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Which phase a task belongs to, for fault-plan keying and task names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskKind {
    /// A map task (one per input split).
    Map,
    /// A reduce task (one per partition).
    Reduce,
    /// The driver itself, keyed at job boundaries rather than per task.
    Driver,
}

impl TaskKind {
    /// The task-name prefix, e.g. `"map"` in `"map-3"`.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
            TaskKind::Driver => "driver",
        }
    }

    fn tag(self) -> u64 {
        match self {
            TaskKind::Map => 0x6d61_7000,
            TaskKind::Reduce => 0x7265_6400,
            TaskKind::Driver => 0x6472_7600,
        }
    }
}

/// What the fault plan decrees for one task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Execute the attempt normally.
    Run,
    /// Kill the attempt with a transient error (a retry may succeed).
    FailTransient,
    /// Kill the attempt with a simulated `Java heap space` error.
    FailHeap,
}

/// Deterministic fault-injection plan plus the recovery policy
/// (attempt budget and speculative execution) of a simulated cluster.
///
/// The default plan is inert: no injected faults, one attempt per task
/// (a failure fails the job immediately, the pre-fault-tolerance
/// behaviour), no speculation. [`FaultPlan::hadoop_defaults`] matches
/// Hadoop 1.x (`mapred.map.max.attempts = 4`, speculation on).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed all injection decisions derive from.
    pub seed: u64,
    /// Probability an attempt is killed by a transient fault.
    pub transient_fail_prob: f64,
    /// Probability an attempt is killed by a simulated heap overflow.
    pub heap_fail_prob: f64,
    /// Probability a successful attempt runs on a straggling node.
    pub straggler_prob: f64,
    /// Duration multiplier a straggling attempt suffers (≥ 1).
    pub straggler_factor: f64,
    /// Attempt budget per task; the task (and job) fails when all
    /// attempts are exhausted. `1` disables retries.
    pub max_attempts: u32,
    /// Whether to launch backup attempts for abnormally slow tasks.
    pub speculative_execution: bool,
    /// A task is speculated when its duration exceeds this multiple of
    /// the phase's median task duration (> 1).
    pub speculative_slowdown_threshold: f64,
    /// Kill the driver after exactly this many completed jobs
    /// (1-based). `Some(n)` aborts the run with
    /// [`Error::DriverCrash`] at boundary `n`; resuming from the
    /// checkpoint journal is the only recovery.
    pub driver_crash_after_jobs: Option<u64>,
    /// Probability the driver dies at any given job boundary, drawn
    /// with the same `(seed, boundary)` hash discipline as task faults.
    pub driver_crash_prob: f64,
    /// Probability any given node crashes during any given job (drawn
    /// independently per `(job epoch, node)` coordinate). A crashed
    /// node kills its in-flight attempts, loses its completed map
    /// outputs and its DFS block replicas, and rejoins at the next job
    /// unless blacklisted.
    pub node_crash_prob: f64,
    /// Scheduled node crashes as `(job_epoch, node)` pairs (epochs are
    /// 1-based counts of jobs started by the driver). Fixed-size so the
    /// plan stays `Copy`; up to four scheduled crashes.
    pub scheduled_node_crashes: [Option<(u64, u32)>; 4],
    /// Number of crashes after which a node is permanently blacklisted:
    /// it stops receiving attempts and replicas, and the cluster's slot
    /// capacity shrinks (Hadoop's per-TaskTracker failure blacklist).
    pub node_blacklist_after: u32,
    /// Probability any given DFS block replica is silently corrupt on
    /// disk (drawn independently per `(path, block, node)` coordinate,
    /// salt 12). Reads verify the block's FNV checksum, fall back to
    /// the next replica and charge `dfs_corrupt_blocks_detected`; only
    /// when every replica is bad does the read fail with
    /// [`Error::ReplicasLost`].
    pub dfs_corruption_prob: f64,
    /// Probability a spill run a map attempt just wrote lands torn —
    /// truncated mid-block, the crashed-writer / full-disk case (drawn
    /// independently per `(job, task, attempt, spill)` coordinate,
    /// salt 13). The attempt's own merge detects the damage through the
    /// run's block checksums, fails the attempt with
    /// [`Error::Corrupt`], and the ordinary bounded-retry budget
    /// re-runs the task.
    pub torn_spill_prob: f64,
    /// Probability any single shuffle-fetch try flakes transiently
    /// (drawn independently per `(job, map, reduce, try)` coordinate,
    /// salt 14) — the network weather. A flaked try costs the fetching
    /// reducer a deterministic exponential-backoff wait
    /// ([`FaultPlan::fetch_backoff_secs`]); only when
    /// [`fetch_retry_budget`](FaultPlan::fetch_retry_budget)
    /// consecutive tries flake is the map output declared lost and the
    /// map re-executed via the stranded-output path.
    pub fetch_flake_prob: f64,
    /// Consecutive flaked tries a reducer tolerates per map output
    /// before declaring the fetch failed (≥ 1).
    pub fetch_retry_budget: u32,
    /// Base of the exponential backoff charged per flaked fetch try,
    /// in simulated seconds: try `t` waits `base · 2^t · (1 + jitter)`
    /// (jitter in `[0, 1)`, salt 15).
    pub fetch_backoff_base_secs: f64,
    /// Probability the JobTracker falsely declares a live attempt dead
    /// after missed heartbeats (salt 16). The attempt keeps running as
    /// a *zombie*: a duplicate is scheduled and granted the task's
    /// commit fence, so the zombie's late commit is rejected
    /// (`zombie_commits_rejected`). Like node-loss kills, fenced
    /// attempts are KILLED, not FAILED — they never consume
    /// [`max_attempts`](FaultPlan::max_attempts).
    pub heartbeat_false_positive_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_fail_prob: 0.0,
            heap_fail_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 4.0,
            max_attempts: 1,
            speculative_execution: false,
            speculative_slowdown_threshold: 1.5,
            driver_crash_after_jobs: None,
            driver_crash_prob: 0.0,
            node_crash_prob: 0.0,
            scheduled_node_crashes: [None; 4],
            node_blacklist_after: 3,
            dfs_corruption_prob: 0.0,
            torn_spill_prob: 0.0,
            fetch_flake_prob: 0.0,
            fetch_retry_budget: 4,
            fetch_backoff_base_secs: 1.0,
            heartbeat_false_positive_prob: 0.0,
        }
    }
}

impl FaultPlan {
    /// The inert plan: no faults, no retries, no speculation.
    pub fn none() -> Self {
        Self::default()
    }

    /// Hadoop 1.x recovery defaults: 4 attempts per task and
    /// speculative execution on — but nothing injected yet; compose
    /// with the `with_*` builders to add faults.
    pub fn hadoop_defaults(seed: u64) -> Self {
        Self {
            seed,
            max_attempts: 4,
            speculative_execution: true,
            ..Self::default()
        }
    }

    /// Sets the injection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Kills attempts with a transient fault at the given probability.
    pub fn with_transient_failures(mut self, prob: f64) -> Self {
        self.transient_fail_prob = prob;
        self
    }

    /// Kills attempts with a simulated heap overflow at the given
    /// probability.
    pub fn with_heap_failures(mut self, prob: f64) -> Self {
        self.heap_fail_prob = prob;
        self
    }

    /// Slows successful attempts by `factor` at the given probability.
    pub fn with_stragglers(mut self, prob: f64, factor: f64) -> Self {
        self.straggler_prob = prob;
        self.straggler_factor = factor;
        self
    }

    /// Sets the per-task attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Enables speculative execution with the given slowdown threshold.
    pub fn with_speculation(mut self, slowdown_threshold: f64) -> Self {
        self.speculative_execution = true;
        self.speculative_slowdown_threshold = slowdown_threshold;
        self
    }

    /// Kills the driver after exactly `jobs` completed jobs (1-based).
    pub fn with_driver_crash_after(mut self, jobs: u64) -> Self {
        self.driver_crash_after_jobs = Some(jobs);
        self
    }

    /// Kills the driver at each job boundary with the given probability.
    pub fn with_driver_crashes(mut self, prob: f64) -> Self {
        self.driver_crash_prob = prob;
        self
    }

    /// Crashes each node during each job with the given probability.
    pub fn with_node_crashes(mut self, prob: f64) -> Self {
        self.node_crash_prob = prob;
        self
    }

    /// Schedules one node crash: `node` dies during the `epoch`-th job
    /// the driver starts (1-based). Up to four crashes can be
    /// scheduled.
    ///
    /// # Panics
    /// Panics when four crashes are already scheduled.
    pub fn with_node_crash(mut self, epoch: u64, node: u32) -> Self {
        let slot = self
            .scheduled_node_crashes
            .iter_mut()
            .find(|s| s.is_none())
            .expect("at most four scheduled node crashes");
        *slot = Some((epoch, node));
        self
    }

    /// Sets the per-node crash budget before permanent blacklisting.
    pub fn with_node_blacklist_after(mut self, crashes: u32) -> Self {
        self.node_blacklist_after = crashes;
        self
    }

    /// Marks each DFS block replica silently corrupt with the given
    /// probability (per `(path, block, node)`, stable across epochs —
    /// bit rot does not heal).
    pub fn with_dfs_corruption(mut self, prob: f64) -> Self {
        self.dfs_corruption_prob = prob;
        self
    }

    /// Tears (truncates mid-block) each spill run a map attempt writes
    /// with the given probability. Only meaningful with out-of-core
    /// spilling enabled; detected by run checksums and absorbed by the
    /// attempt budget.
    pub fn with_torn_spills(mut self, prob: f64) -> Self {
        self.torn_spill_prob = prob;
        self
    }

    /// Flakes each shuffle-fetch try transiently at the given
    /// probability — the network weather. Flaked tries charge an
    /// exponential backoff to the simulated clock and retry; a fetch
    /// that burns its whole retry budget escalates to stranded-output
    /// map re-execution.
    pub fn with_fetch_flakes(mut self, prob: f64) -> Self {
        self.fetch_flake_prob = prob;
        self
    }

    /// Sets the consecutive-flake budget per `(map output, reducer)`
    /// fetch before the output is declared lost.
    pub fn with_fetch_retry_budget(mut self, tries: u32) -> Self {
        self.fetch_retry_budget = tries;
        self
    }

    /// Sets the base (try 0) of the exponential fetch-retry backoff,
    /// in simulated seconds.
    pub fn with_fetch_backoff(mut self, base_secs: f64) -> Self {
        self.fetch_backoff_base_secs = base_secs;
        self
    }

    /// Falsely declares live attempts dead at the given probability —
    /// heartbeat false positives. The runtime schedules a duplicate and
    /// fences the zombie's late commit; the task's retry budget is
    /// never consumed.
    pub fn with_heartbeat_false_positives(mut self, prob: f64) -> Self {
        self.heartbeat_false_positive_prob = prob;
        self
    }

    /// Clears all driver-crash injection, keeping task faults intact.
    /// A resumed run uses this: the crash was an incident in the
    /// previous driver process, not part of the cluster's weather.
    pub fn without_driver_crashes(mut self) -> Self {
        self.driver_crash_after_jobs = None;
        self.driver_crash_prob = 0.0;
        self
    }

    /// The plan's probability knobs by field name: each must lie in
    /// `[0, 1)`, and any positive one arms the plan.
    fn probabilities(&self) -> [(&'static str, f64); 9] {
        [
            ("transient_fail_prob", self.transient_fail_prob),
            ("heap_fail_prob", self.heap_fail_prob),
            ("straggler_prob", self.straggler_prob),
            ("driver_crash_prob", self.driver_crash_prob),
            ("node_crash_prob", self.node_crash_prob),
            ("dfs_corruption_prob", self.dfs_corruption_prob),
            ("torn_spill_prob", self.torn_spill_prob),
            ("fetch_flake_prob", self.fetch_flake_prob),
            (
                "heartbeat_false_positive_prob",
                self.heartbeat_false_positive_prob,
            ),
        ]
    }

    /// Validates the plan (called from cluster validation).
    pub fn validate(&self) -> Result<()> {
        for (name, p) in self.probabilities() {
            if !(0.0..1.0).contains(&p) {
                return Err(Error::Config(format!(
                    "fault plan {name} must be in [0, 1), got {p}"
                )));
            }
        }
        if self.straggler_factor < 1.0 || !self.straggler_factor.is_finite() {
            return Err(Error::Config(format!(
                "straggler_factor must be a finite value ≥ 1, got {}",
                self.straggler_factor
            )));
        }
        if self.max_attempts == 0 {
            return Err(Error::Config("max_attempts must be positive".into()));
        }
        if self.speculative_slowdown_threshold <= 1.0
            || !self.speculative_slowdown_threshold.is_finite()
        {
            return Err(Error::Config(format!(
                "speculative_slowdown_threshold must be a finite value > 1, got {}",
                self.speculative_slowdown_threshold
            )));
        }
        if self.driver_crash_after_jobs == Some(0) {
            return Err(Error::Config(
                "driver_crash_after_jobs is 1-based and must be positive".into(),
            ));
        }
        if self
            .scheduled_node_crashes
            .iter()
            .flatten()
            .any(|(e, _)| *e == 0)
        {
            return Err(Error::Config(
                "scheduled node-crash epochs are 1-based and must be positive".into(),
            ));
        }
        if self.node_blacklist_after == 0 {
            return Err(Error::Config(
                "node_blacklist_after must be positive".into(),
            ));
        }
        if self.fetch_retry_budget == 0 {
            return Err(Error::Config("fetch_retry_budget must be positive".into()));
        }
        if self.fetch_backoff_base_secs < 0.0 || !self.fetch_backoff_base_secs.is_finite() {
            return Err(Error::Config(format!(
                "fetch_backoff_base_secs must be a finite value ≥ 0, got {}",
                self.fetch_backoff_base_secs
            )));
        }
        Ok(())
    }

    /// Whether the plan can change anything relative to [`none`].
    ///
    /// [`none`]: FaultPlan::none
    pub fn is_active(&self) -> bool {
        self.probabilities().iter().any(|&(_, p)| p > 0.0)
            || self.speculative_execution
            || self.driver_crash_after_jobs.is_some()
            || self.scheduled_node_crashes.iter().any(Option::is_some)
    }

    /// One independent uniform draw in `[0, 1)` per
    /// `(job, kind, index, attempt, salt)` coordinate.
    fn u01(&self, job: &str, kind: TaskKind, index: usize, attempt: u32, salt: Salt) -> f64 {
        hash_u01(self.seed, job, kind.tag(), index, attempt, salt)
    }

    /// One draw keyed off a cluster-level coordinate — the driver, a
    /// node, a DFS block — rather than a task attempt.
    fn cluster_u01(&self, key: &str, index: usize, sub: u32, salt: Salt) -> f64 {
        self.u01(key, TaskKind::Driver, index, sub, salt)
    }

    /// The plan's verdict for one attempt. Transient faults are checked
    /// before heap faults; the two draws are independent.
    pub fn decide(&self, job: &str, kind: TaskKind, index: usize, attempt: u32) -> FaultDecision {
        if self.transient_fail_prob > 0.0
            && self.u01(job, kind, index, attempt, Salt::Transient) < self.transient_fail_prob
        {
            return FaultDecision::FailTransient;
        }
        if self.heap_fail_prob > 0.0
            && self.u01(job, kind, index, attempt, Salt::Heap) < self.heap_fail_prob
        {
            return FaultDecision::FailHeap;
        }
        FaultDecision::Run
    }

    /// Duration multiplier for a successful attempt: 1, or
    /// `straggler_factor` when the attempt landed on a straggling node.
    pub fn straggler_multiplier(
        &self,
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
    ) -> f64 {
        if self.straggler_prob > 0.0
            && self.u01(job, kind, index, attempt, Salt::Straggler) < self.straggler_prob
        {
            self.straggler_factor
        } else {
            1.0
        }
    }

    /// How far through its work an injected-failed attempt got before
    /// dying, as a fraction of the task's base duration, in
    /// `[0.25, 1)` — failures tend to strike mid-flight, not at launch.
    pub fn failed_attempt_progress(
        &self,
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
    ) -> f64 {
        0.25 + 0.75 * self.u01(job, kind, index, attempt, Salt::FailedProgress)
    }

    /// Whether the driver dies at job boundary `boundary` (the 1-based
    /// count of jobs completed so far). Deterministic in the plan seed
    /// and the boundary alone, so an identically configured rerun — or
    /// a resumed run that recomputes the same boundary — crashes at
    /// exactly the same place.
    pub fn driver_crashes_at(&self, boundary: u64) -> bool {
        if self.driver_crash_after_jobs == Some(boundary) {
            return true;
        }
        self.driver_crash_prob > 0.0
            && self.cluster_u01("driver", boundary as usize, 0, Salt::DriverCrash)
                < self.driver_crash_prob
    }

    /// Whether `node` crashes during the `epoch`-th job (1-based count
    /// of jobs the driver has started). Like [`driver_crashes_at`] this
    /// is a pure function of the plan, so a replayed or resumed run
    /// sees identical node weather at the same epoch.
    ///
    /// [`driver_crashes_at`]: FaultPlan::driver_crashes_at
    pub fn node_crashes_at(&self, epoch: u64, node: usize) -> bool {
        if self
            .scheduled_node_crashes
            .iter()
            .flatten()
            .any(|&(e, n)| e == epoch && n as usize == node)
        {
            return true;
        }
        self.node_crash_prob > 0.0
            && self.cluster_u01("node", node, epoch as u32, Salt::NodeCrash) < self.node_crash_prob
    }

    /// When during the map phase the crash strikes, as a fraction of
    /// the phase in `[0.2, 0.8)`: attempts placed on the node race this
    /// point — those that finish earlier produce (doomed) output, the
    /// rest are killed in flight.
    pub fn node_crash_point(&self, epoch: u64, node: usize) -> f64 {
        0.2 + 0.6 * self.cluster_u01("node", node, epoch as u32, Salt::CrashPoint)
    }

    /// Whether this attempt, placed on a node that crashes during the
    /// job, completes before the crash point (its output then exists on
    /// the dead node, to be invalidated at shuffle-fetch time).
    pub fn attempt_completed_before_crash(
        &self,
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
        epoch: u64,
        node: usize,
    ) -> bool {
        self.u01(job, kind, index, attempt, Salt::CompletedBeforeCrash)
            < self.node_crash_point(epoch, node)
    }

    /// Deterministic task→node placement: which node of `domain` this
    /// attempt runs on. A pure function of the plan seed and the
    /// attempt's coordinates, so placement is independent of thread
    /// scheduling and slot counts.
    ///
    /// # Panics
    /// Panics on an empty domain (the runtime degrades to
    /// [`Error::Degenerate`] before placing attempts on a dead
    /// cluster).
    pub fn place_attempt(
        &self,
        domain: &[usize],
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
    ) -> usize {
        assert!(!domain.is_empty(), "no live node to place an attempt on");
        let draw = self.u01(job, kind, index, attempt, Salt::Placement);
        domain[((draw * domain.len() as f64) as usize).min(domain.len() - 1)]
    }

    /// Locality-aware placement: like [`FaultPlan::place_attempt`], but
    /// the attempt is drawn from `domain ∩ preferred` (the live nodes
    /// holding a DFS replica of the task's input block) when that
    /// intersection is non-empty, falling back to the full `domain`
    /// otherwise. Uses the same draw as `place_attempt`, so plans with
    /// no preference (empty `preferred`) place identically to PR 5.
    ///
    /// Returns `(node, node_local)` where `node_local` says whether the
    /// chosen node holds a replica of the input block.
    ///
    /// # Panics
    /// Panics on an empty `domain`.
    pub fn place_attempt_preferring(
        &self,
        domain: &[usize],
        preferred: &[usize],
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
    ) -> (usize, bool) {
        assert!(!domain.is_empty(), "no live node to place an attempt on");
        let local: Vec<usize> = domain
            .iter()
            .copied()
            .filter(|n| preferred.contains(n))
            .collect();
        let pool = if local.is_empty() { domain } else { &local[..] };
        let draw = self.u01(job, kind, index, attempt, Salt::Placement);
        let node = pool[((draw * pool.len() as f64) as usize).min(pool.len() - 1)];
        (node, preferred.contains(&node))
    }

    /// Placement for a map task re-executed after its winning attempt's
    /// output was stranded on a crashed node. A fresh draw (salt 10)
    /// independent of the original attempt draws, preferring surviving
    /// replica holders of the task's input block.
    ///
    /// # Panics
    /// Panics on an empty `domain`.
    pub fn place_reexecuted_map(
        &self,
        domain: &[usize],
        preferred: &[usize],
        job: &str,
        index: usize,
    ) -> (usize, bool) {
        assert!(!domain.is_empty(), "no survivor to re-execute a map on");
        let local: Vec<usize> = domain
            .iter()
            .copied()
            .filter(|n| preferred.contains(n))
            .collect();
        let pool = if local.is_empty() { domain } else { &local[..] };
        let draw = self.u01(job, TaskKind::Map, index, 0, Salt::ReexecutedPlacement);
        let node = pool[((draw * pool.len() as f64) as usize).min(pool.len() - 1)];
        (node, preferred.contains(&node))
    }

    /// Whether the replica of block `block` of `path` stored on `node`
    /// is silently corrupt (salt 12). Stable across epochs: a rotted
    /// replica stays rotted until re-replication writes a fresh copy
    /// elsewhere.
    pub fn dfs_replica_corrupt(&self, path: &str, block: usize, node: usize) -> bool {
        self.dfs_corruption_prob > 0.0
            && self.cluster_u01(path, block, node as u32, Salt::ReplicaCorruption)
                < self.dfs_corruption_prob
    }

    /// Whether the `spill_seq`-th spill this attempt writes lands torn
    /// (salt 13, with the spill sequence folded into the kind tag so
    /// every spill of an attempt draws independently).
    pub fn torn_spill(
        &self,
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
        spill_seq: u64,
    ) -> bool {
        self.torn_spill_prob > 0.0
            && hash_u01(
                self.seed,
                job,
                kind.tag() ^ spill_seq.wrapping_mul(0x9E37_79B9),
                index,
                attempt,
                Salt::TornSpill,
            ) < self.torn_spill_prob
    }

    /// Whether try `try_no` of reduce task `reduce_index`'s fetch of
    /// map `map_index`'s output flakes transiently (salt 14, with the
    /// map index folded into the kind tag so every `(map, reduce)` pair
    /// of a job draws independently).
    pub fn fetch_flakes(
        &self,
        job: &str,
        map_index: usize,
        reduce_index: usize,
        try_no: u32,
    ) -> bool {
        self.fetch_flake_prob > 0.0
            && hash_u01(
                self.seed,
                job,
                TaskKind::Reduce.tag() ^ (map_index as u64).wrapping_mul(0x9E37_79B9),
                reduce_index,
                try_no,
                Salt::FetchFlake,
            ) < self.fetch_flake_prob
    }

    /// Backoff charged to the simulated clock after flaked try
    /// `try_no`: exponential in the try number with a deterministic
    /// hash jitter (salt 15), via [`crate::cost::fetch_backoff_secs`].
    pub fn fetch_backoff_secs(
        &self,
        job: &str,
        map_index: usize,
        reduce_index: usize,
        try_no: u32,
    ) -> f64 {
        let jitter = hash_u01(
            self.seed,
            job,
            TaskKind::Reduce.tag() ^ (map_index as u64).wrapping_mul(0x9E37_79B9),
            reduce_index,
            try_no,
            Salt::BackoffJitter,
        );
        crate::cost::fetch_backoff_secs(self.fetch_backoff_base_secs, try_no, jitter)
    }

    /// Whether the JobTracker falsely declares this live attempt dead
    /// (salt 16). The attempt becomes a zombie — still running, already
    /// replaced — and its eventual commit bounces off the task's
    /// commit fence.
    pub fn heartbeat_false_positive(
        &self,
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
    ) -> bool {
        self.heartbeat_false_positive_prob > 0.0
            && self.u01(job, kind, index, attempt, Salt::HeartbeatFalsePositive)
                < self.heartbeat_false_positive_prob
    }
}

/// Deterministic cluster-membership events: scheduled node joins,
/// graceful decommissions and spot-style revocation sweeps.
///
/// Like [`FaultPlan`], every decision is a pure function of the plan
/// and the `(epoch, node)` coordinate — same pure-hash salt discipline
/// (revocation draws use salt 11), so a faulty run replays bit for bit
/// and a resumed run reconstructs the identical membership timeline
/// from its job count alone.
///
/// Epochs are the 1-based count of jobs the driver has started — the
/// same clock [`FaultPlan::node_crashes_at`] uses. The three event
/// kinds differ in how much warning the framework gets:
///
/// * **join** (`with_node_join`): the node appears at its epoch, adds
///   slots, and becomes a target for new replicas and rebalanced
///   blocks.
/// * **graceful decommission** (`with_node_decommission`): the node is
///   drained at its epoch — it takes no further attempts, its DFS
///   blocks are copied off (`dfs_blocks_rebalanced`) *before* the node
///   is removed, so nothing is lost even at `dfs_replication = 1`.
/// * **revocation sweep** (`with_revocation_sweeps`): at every sweep
///   epoch each live node is revoked with the configured probability —
///   a hard kill exactly like a crash (in-flight attempts die, finished
///   map outputs are stranded, DFS replicas are lost), except the
///   revocation is announced one epoch ahead, so the DFS stops
///   targeting the doomed node for new replicas and the scheduler's
///   capacity timeline stops placing work there. Revoked capacity is
///   replaced at the next epoch (spot fleets backfill), and revocations
///   never count toward the crash blacklist — the node did nothing
///   wrong.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MembershipPlan {
    /// Seed the revocation draws derive from.
    pub seed: u64,
    /// Scheduled joins as `(epoch, node)`; node ids must extend the
    /// base cluster (`node >= nodes`). Fixed-size so the plan stays
    /// `Copy`; up to four scheduled joins.
    pub scheduled_joins: [Option<(u64, u32)>; 4],
    /// Scheduled graceful decommissions as `(epoch, node)`.
    pub scheduled_decommissions: [Option<(u64, u32)>; 4],
    /// Sweep period in epochs (a sweep fires at every positive multiple
    /// of the period); `0` disables sweeps.
    pub revocation_period: u64,
    /// Probability each live node is revoked at a sweep epoch.
    pub revocation_fraction: f64,
}

impl Default for MembershipPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            scheduled_joins: [None; 4],
            scheduled_decommissions: [None; 4],
            revocation_period: 0,
            revocation_fraction: 0.0,
        }
    }
}

impl MembershipPlan {
    /// The inert plan: fixed membership forever.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the revocation-draw seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules `node` to join the cluster at the start of the
    /// `epoch`-th job (1-based). The node id must extend the base
    /// cluster (`node >= ClusterConfig::nodes`).
    ///
    /// # Panics
    /// Panics when four joins are already scheduled.
    pub fn with_node_join(mut self, epoch: u64, node: u32) -> Self {
        let slot = self
            .scheduled_joins
            .iter_mut()
            .find(|s| s.is_none())
            .expect("at most four scheduled joins");
        *slot = Some((epoch, node));
        self
    }

    /// Schedules `node` for graceful decommission at the start of the
    /// `epoch`-th job (1-based): drained, blocks copied off, removed.
    ///
    /// # Panics
    /// Panics when four decommissions are already scheduled.
    pub fn with_node_decommission(mut self, epoch: u64, node: u32) -> Self {
        let slot = self
            .scheduled_decommissions
            .iter_mut()
            .find(|s| s.is_none())
            .expect("at most four scheduled decommissions");
        *slot = Some((epoch, node));
        self
    }

    /// Enables spot-style revocation sweeps: at every epoch that is a
    /// positive multiple of `period`, each live node is revoked with
    /// probability `fraction`.
    pub fn with_revocation_sweeps(mut self, period: u64, fraction: f64) -> Self {
        self.revocation_period = period;
        self.revocation_fraction = fraction;
        self
    }

    /// Whether the plan can change anything relative to [`none`].
    ///
    /// [`none`]: MembershipPlan::none
    pub fn is_active(&self) -> bool {
        self.scheduled_joins.iter().any(Option::is_some)
            || self.scheduled_decommissions.iter().any(Option::is_some)
            || (self.revocation_period > 0 && self.revocation_fraction > 0.0)
    }

    /// Validates the plan against a base cluster of `nodes` nodes.
    pub fn validate(&self, nodes: usize) -> Result<()> {
        if !(0.0..1.0).contains(&self.revocation_fraction) {
            return Err(Error::Config(format!(
                "revocation_fraction must be in [0, 1), got {}",
                self.revocation_fraction
            )));
        }
        if self.revocation_fraction > 0.0 && self.revocation_period == 0 {
            return Err(Error::Config(
                "revocation_fraction needs a positive revocation_period".into(),
            ));
        }
        let joins: Vec<(u64, u32)> = self.scheduled_joins.iter().flatten().copied().collect();
        let decoms: Vec<(u64, u32)> = self
            .scheduled_decommissions
            .iter()
            .flatten()
            .copied()
            .collect();
        if joins.iter().chain(&decoms).any(|&(e, _)| e == 0) {
            return Err(Error::Config(
                "membership epochs are 1-based and must be positive".into(),
            ));
        }
        for (i, &(_, n)) in joins.iter().enumerate() {
            if (n as usize) < nodes {
                return Err(Error::Config(format!(
                    "join node {n} is already part of the {nodes}-node base cluster"
                )));
            }
            if joins[..i].iter().any(|&(_, m)| m == n) {
                return Err(Error::Config(format!("node {n} joins twice")));
            }
        }
        for (i, &(e, n)) in decoms.iter().enumerate() {
            let exists_by = if (n as usize) < nodes {
                Some(0)
            } else {
                joins.iter().find(|&&(_, m)| m == n).map(|&(je, _)| je)
            };
            match exists_by {
                Some(join_epoch) if join_epoch < e => {}
                Some(_) => {
                    return Err(Error::Config(format!(
                        "node {n} is decommissioned at epoch {e} but joins no earlier"
                    )));
                }
                None => {
                    return Err(Error::Config(format!(
                        "decommission targets unknown node {n}"
                    )));
                }
            }
            if decoms[..i].iter().any(|&(_, m)| m == n) {
                return Err(Error::Config(format!("node {n} is decommissioned twice")));
            }
        }
        Ok(())
    }

    /// Size of the node universe: base nodes plus everything that ever
    /// joins. Node ids in `[nodes, peak)` exist only from their join
    /// epoch on.
    pub fn peak_nodes(&self, nodes: usize) -> usize {
        self.scheduled_joins
            .iter()
            .flatten()
            .map(|&(_, n)| n as usize + 1)
            .fold(nodes, usize::max)
    }

    /// The epoch `node` joins at, if it is a scheduled joiner.
    pub fn join_epoch(&self, node: usize) -> Option<u64> {
        self.scheduled_joins
            .iter()
            .flatten()
            .find(|&&(_, n)| n as usize == node)
            .map(|&(e, _)| e)
    }

    /// The epoch `node` is gracefully decommissioned at, if scheduled.
    pub fn decommission_epoch(&self, node: usize) -> Option<u64> {
        self.scheduled_decommissions
            .iter()
            .flatten()
            .find(|&&(_, n)| n as usize == node)
            .map(|&(e, _)| e)
    }

    /// Whether `node` is part of the cluster during epoch `epoch`:
    /// either a base node or joined by then, and not yet decommissioned.
    pub fn present_at(&self, node: usize, epoch: u64, nodes: usize) -> bool {
        let joined = node < nodes || self.join_epoch(node).is_some_and(|e| e <= epoch);
        joined && !self.decommission_epoch(node).is_some_and(|e| e <= epoch)
    }

    /// Nodes that join at exactly `epoch`, ascending.
    pub fn joins_at(&self, epoch: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .scheduled_joins
            .iter()
            .flatten()
            .filter(|&&(e, _)| e == epoch)
            .map(|&(_, n)| n as usize)
            .collect();
        v.sort_unstable();
        v
    }

    /// Nodes gracefully decommissioned at exactly `epoch`, ascending.
    pub fn decommissions_at(&self, epoch: u64) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .scheduled_decommissions
            .iter()
            .flatten()
            .filter(|&&(e, _)| e == epoch)
            .map(|&(_, n)| n as usize)
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether a revocation sweep fires at `epoch`.
    pub fn sweep_at(&self, epoch: u64) -> bool {
        self.revocation_period > 0
            && self.revocation_fraction > 0.0
            && epoch > 0
            && epoch % self.revocation_period == 0
    }

    /// Whether `node` is revoked during epoch `epoch` (salt 11). Pure
    /// in the plan and the coordinate; presence and liveness are the
    /// caller's concern ([`NodeStatus::compute_full`] only consults
    /// this for live nodes).
    pub fn revoked_at(&self, epoch: u64, node: usize) -> bool {
        self.sweep_at(epoch)
            && hash_u01(
                self.seed,
                "revocation",
                TaskKind::Driver.tag(),
                node,
                epoch as u32,
                Salt::Revocation,
            ) < self.revocation_fraction
    }
}

/// Liveness of the cluster's nodes at one job epoch, derived purely
/// from the fault and membership plans by replaying every epoch's crash
/// draws and membership events against the blacklist policy. The same
/// plans yield the same node weather at the same epoch whether the run
/// is fresh, replayed with different slot counts, or resumed from a
/// checkpoint — this is the epoch-indexed live-node view the runtime,
/// the DFS and the scheduler all share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// Nodes alive when the job starts, ascending (everything present
    /// and not blacklisted; a node crashed or revoked at an earlier
    /// epoch has rebooted / been backfilled).
    pub live: Vec<usize>,
    /// Subset of `live` hard-killed during this job, ascending: crash
    /// draws plus revocation-sweep victims.
    pub crashed: Vec<usize>,
    /// Nodes permanently removed by the blacklist policy, ascending.
    pub blacklisted: Vec<usize>,
    /// Nodes gracefully decommissioned at epochs ≤ this one, ascending.
    /// Drained before removal: never in `live`, blocks copied off.
    pub decommissioned: Vec<usize>,
    /// Subset of `crashed` killed by a revocation sweep rather than a
    /// crash draw, ascending. Announced one epoch ahead: the DFS and
    /// the scheduler already avoid these as targets.
    pub revoked: Vec<usize>,
    /// Nodes that joined at epochs ≤ this one and are still part of the
    /// cluster, ascending.
    pub joined: Vec<usize>,
    /// Nodes of the universe that have not joined yet, ascending.
    pub absent: Vec<usize>,
}

impl NodeStatus {
    /// Computes the node weather of epoch `epoch` on a cluster of
    /// `nodes` nodes under `plan`, with fixed membership.
    pub fn compute(plan: &FaultPlan, nodes: usize, epoch: u64) -> NodeStatus {
        Self::compute_full(plan, &MembershipPlan::none(), nodes, epoch)
    }

    /// Computes the node weather of epoch `epoch` on a base cluster of
    /// `nodes` nodes under a fault plan and a membership plan. The node
    /// universe is `membership.peak_nodes(nodes)`; ids beyond the base
    /// cluster exist only from their join epoch on.
    pub fn compute_full(
        plan: &FaultPlan,
        membership: &MembershipPlan,
        nodes: usize,
        epoch: u64,
    ) -> NodeStatus {
        let universe = membership.peak_nodes(nodes);
        let budget = plan.node_blacklist_after.max(1);
        let mut crash_counts = vec![0u32; universe];
        for past in 1..epoch {
            for (node, count) in crash_counts.iter_mut().enumerate() {
                // A blacklisted node is powered off and an absent or
                // decommissioned node is not racked: no crashes. Past
                // revocations deliberately do not advance the count —
                // losing a spot instance is not the node's fault.
                if membership.present_at(node, past, nodes)
                    && *count < budget
                    && plan.node_crashes_at(past, node)
                {
                    *count += 1;
                }
            }
        }
        let mut status = NodeStatus {
            live: Vec::new(),
            crashed: Vec::new(),
            blacklisted: Vec::new(),
            decommissioned: Vec::new(),
            revoked: Vec::new(),
            joined: Vec::new(),
            absent: Vec::new(),
        };
        for (node, &count) in crash_counts.iter().enumerate() {
            if membership
                .decommission_epoch(node)
                .is_some_and(|e| e <= epoch)
            {
                status.decommissioned.push(node);
                continue;
            }
            if !membership.present_at(node, epoch, nodes) {
                status.absent.push(node);
                continue;
            }
            if membership.join_epoch(node).is_some_and(|e| e <= epoch) {
                status.joined.push(node);
            }
            if count >= budget {
                status.blacklisted.push(node);
                continue;
            }
            status.live.push(node);
            if membership.revoked_at(epoch, node) {
                status.revoked.push(node);
                status.crashed.push(node);
            } else if plan.node_crashes_at(epoch, node) {
                status.crashed.push(node);
            }
        }
        status
    }

    /// Nodes that are still up when the job ends: `live` minus
    /// `crashed`. Retries, re-executed maps and reduce tasks run here.
    pub fn survivors(&self) -> Vec<usize> {
        self.live
            .iter()
            .copied()
            .filter(|n| !self.crashed.contains(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        for i in 0..100 {
            assert_eq!(plan.decide("job", TaskKind::Map, i, 0), FaultDecision::Run);
            assert_eq!(plan.straggler_multiplier("job", TaskKind::Map, i, 0), 1.0);
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::hadoop_defaults(7)
            .with_transient_failures(0.3)
            .with_heap_failures(0.1);
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            for i in 0..50 {
                for a in 0..4 {
                    assert_eq!(
                        plan.decide("kmeans", kind, i, a),
                        plan.decide("kmeans", kind, i, a)
                    );
                }
            }
        }
    }

    #[test]
    fn decisions_vary_across_coordinates() {
        let plan = FaultPlan::none().with_seed(11).with_transient_failures(0.5);
        let mut failures = 0usize;
        let n = 400;
        for i in 0..n {
            if plan.decide("j", TaskKind::Map, i, 0) == FaultDecision::FailTransient {
                failures += 1;
            }
        }
        // Half the attempts should fail, within generous slack.
        assert!(
            (n / 4..=3 * n / 4).contains(&failures),
            "{failures}/{n} failed"
        );
        // Different attempts of the same task draw independently.
        let per_attempt: Vec<_> = (0..8)
            .map(|a| plan.decide("j", TaskKind::Map, 0, a))
            .collect();
        assert!(per_attempt.contains(&FaultDecision::Run));
    }

    #[test]
    fn seeds_change_the_plan() {
        let a = FaultPlan::none().with_seed(1).with_transient_failures(0.5);
        let b = FaultPlan::none().with_seed(2).with_transient_failures(0.5);
        let differs = (0..100)
            .any(|i| a.decide("j", TaskKind::Map, i, 0) != b.decide("j", TaskKind::Map, i, 0));
        assert!(differs);
    }

    #[test]
    fn progress_fraction_in_range() {
        let plan = FaultPlan::none().with_seed(3);
        for i in 0..200 {
            let f = plan.failed_attempt_progress("j", TaskKind::Reduce, i, 1);
            assert!((0.25..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn driver_crash_fires_at_exactly_the_configured_boundary() {
        let plan = FaultPlan::none().with_driver_crash_after(3);
        assert!(plan.is_active());
        for b in 1..10 {
            assert_eq!(plan.driver_crashes_at(b), b == 3, "boundary {b}");
        }
        assert!(!FaultPlan::none().driver_crashes_at(3));
    }

    #[test]
    fn probabilistic_driver_crashes_are_deterministic_and_seeded() {
        let plan = FaultPlan::none().with_seed(5).with_driver_crashes(0.5);
        let draws: Vec<bool> = (1..200).map(|b| plan.driver_crashes_at(b)).collect();
        let again: Vec<bool> = (1..200).map(|b| plan.driver_crashes_at(b)).collect();
        assert_eq!(draws, again);
        let crashes = draws.iter().filter(|&&c| c).count();
        assert!((50..150).contains(&crashes), "{crashes}/199 crashed");
        let other = FaultPlan::none().with_seed(6).with_driver_crashes(0.5);
        assert!((1..200).any(|b| plan.driver_crashes_at(b) != other.driver_crashes_at(b)));
    }

    #[test]
    fn without_driver_crashes_clears_only_driver_faults() {
        let plan = FaultPlan::hadoop_defaults(7)
            .with_transient_failures(0.1)
            .with_driver_crash_after(2)
            .with_driver_crashes(0.3)
            .without_driver_crashes();
        assert_eq!(plan.driver_crash_after_jobs, None);
        assert_eq!(plan.driver_crash_prob, 0.0);
        assert_eq!(plan.transient_fail_prob, 0.1);
    }

    #[test]
    fn scheduled_node_crash_fires_at_exactly_its_epoch() {
        let plan = FaultPlan::none().with_node_crash(3, 1);
        assert!(plan.is_active());
        for epoch in 1..8 {
            for node in 0..4 {
                assert_eq!(
                    plan.node_crashes_at(epoch, node),
                    epoch == 3 && node == 1,
                    "epoch {epoch} node {node}"
                );
            }
        }
    }

    #[test]
    fn probabilistic_node_crashes_are_deterministic_and_seeded() {
        let plan = FaultPlan::none().with_seed(9).with_node_crashes(0.3);
        let draws: Vec<bool> = (1..100)
            .flat_map(|e| (0..4).map(move |n| (e, n)))
            .map(|(e, n)| plan.node_crashes_at(e, n))
            .collect();
        let again: Vec<bool> = (1..100)
            .flat_map(|e| (0..4).map(move |n| (e, n)))
            .map(|(e, n)| plan.node_crashes_at(e, n))
            .collect();
        assert_eq!(draws, again);
        let crashes = draws.iter().filter(|&&c| c).count();
        assert!((60..180).contains(&crashes), "{crashes}/396 crashed");
        let other = FaultPlan::none().with_seed(10).with_node_crashes(0.3);
        assert!((1..100).any(|e| plan.node_crashes_at(e, 0) != other.node_crashes_at(e, 0)));
    }

    #[test]
    fn crash_point_in_range() {
        let plan = FaultPlan::none().with_seed(3).with_node_crashes(0.5);
        for epoch in 1..50 {
            for node in 0..4 {
                let p = plan.node_crash_point(epoch, node);
                assert!((0.2..0.8).contains(&p), "{p}");
            }
        }
    }

    #[test]
    fn placement_is_deterministic_and_stays_in_domain() {
        let plan = FaultPlan::hadoop_defaults(4);
        let domain = [0usize, 2, 3];
        let mut seen = [false; 4];
        for i in 0..200 {
            for a in 0..3 {
                let n = plan.place_attempt(&domain, "j", TaskKind::Map, i, a);
                assert_eq!(n, plan.place_attempt(&domain, "j", TaskKind::Map, i, a));
                assert!(domain.contains(&n), "{n}");
                seen[n] = true;
            }
        }
        // Every domain node receives work; the excluded node never does.
        assert!(seen[0] && seen[2] && seen[3] && !seen[1]);
    }

    #[test]
    fn node_status_blacklists_after_budget() {
        // Node 2 crashes at epochs 1, 2 and 3; budget is 2 crashes.
        let plan = FaultPlan::none()
            .with_node_crash(1, 2)
            .with_node_crash(2, 2)
            .with_node_crash(3, 2)
            .with_node_blacklist_after(2);
        let e1 = NodeStatus::compute(&plan, 4, 1);
        assert_eq!(e1.live, vec![0, 1, 2, 3]);
        assert_eq!(e1.crashed, vec![2]);
        assert!(e1.blacklisted.is_empty());
        let e2 = NodeStatus::compute(&plan, 4, 2);
        assert_eq!(e2.crashed, vec![2], "rebooted node crashes again");
        let e3 = NodeStatus::compute(&plan, 4, 3);
        assert_eq!(e3.blacklisted, vec![2], "two crashes exhaust the budget");
        assert_eq!(e3.live, vec![0, 1, 3]);
        assert!(e3.crashed.is_empty(), "a powered-off node cannot crash");
        assert_eq!(e3.survivors(), vec![0, 1, 3]);
        // The blacklist is permanent.
        for epoch in 4..10 {
            assert_eq!(NodeStatus::compute(&plan, 4, epoch).blacklisted, vec![2]);
        }
    }

    #[test]
    fn node_status_without_node_faults_is_all_live() {
        let plan = FaultPlan::hadoop_defaults(7).with_transient_failures(0.2);
        for epoch in 1..20 {
            let s = NodeStatus::compute(&plan, 4, epoch);
            assert_eq!(s.live, vec![0, 1, 2, 3]);
            assert!(s.crashed.is_empty());
            assert!(s.blacklisted.is_empty());
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(FaultPlan::none()
            .with_transient_failures(1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_heap_failures(-0.1)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_stragglers(0.5, 0.5)
            .validate()
            .is_err());
        assert!(FaultPlan::none().with_max_attempts(0).validate().is_err());
        assert!(FaultPlan::none().with_speculation(1.0).validate().is_err());
        assert!(FaultPlan::none()
            .with_driver_crashes(1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_driver_crash_after(0)
            .validate()
            .is_err());
        assert!(FaultPlan::none().with_node_crashes(1.0).validate().is_err());
        assert!(FaultPlan::none().with_node_crash(0, 1).validate().is_err());
        assert!(FaultPlan::none()
            .with_node_blacklist_after(0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_dfs_corruption(1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::none().with_torn_spills(1.0).validate().is_err());
        assert!(FaultPlan::none().with_fetch_flakes(1.0).validate().is_err());
        assert!(FaultPlan::none()
            .with_fetch_retry_budget(0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_fetch_backoff(-1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_fetch_backoff(f64::INFINITY)
            .validate()
            .is_err());
        assert!(FaultPlan::none()
            .with_heartbeat_false_positives(1.0)
            .validate()
            .is_err());
        assert!(FaultPlan::hadoop_defaults(0).validate().is_ok());
    }

    #[test]
    fn salts_keep_sixteen_distinct_values() {
        use Salt::*;
        let salts = [
            Transient,
            Heap,
            Straggler,
            FailedProgress,
            DriverCrash,
            NodeCrash,
            CrashPoint,
            CompletedBeforeCrash,
            Placement,
            ReexecutedPlacement,
            Revocation,
            ReplicaCorruption,
            TornSpill,
            FetchFlake,
            BackoffJitter,
            HeartbeatFalsePositive,
        ];
        let mut values: Vec<u64> = salts.iter().map(|&s| s as u64).collect();
        values.sort_unstable();
        values.dedup();
        // Distinct, and the literals every committed draw was made with.
        assert_eq!(values, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn every_probability_knob_arms_the_plan_and_is_validated_by_name() {
        // One `with_*` setter per knob, in the order of the shared list.
        let knobs: [fn(FaultPlan, f64) -> FaultPlan; 9] = [
            FaultPlan::with_transient_failures,
            FaultPlan::with_heap_failures,
            |plan, p| plan.with_stragglers(p, 2.0),
            FaultPlan::with_driver_crashes,
            FaultPlan::with_node_crashes,
            FaultPlan::with_dfs_corruption,
            FaultPlan::with_torn_spills,
            FaultPlan::with_fetch_flakes,
            FaultPlan::with_heartbeat_false_positives,
        ];
        let names = FaultPlan::none().probabilities().map(|(name, _)| name);
        for (set, name) in knobs.iter().zip(names) {
            assert!(set(FaultPlan::none(), 0.1).is_active(), "{name}");
            let err = set(FaultPlan::none(), 1.0).validate().unwrap_err();
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn torn_spill_draws_are_deterministic_and_per_spill() {
        let plan = FaultPlan::none().with_seed(17).with_torn_spills(0.3);
        assert!(plan.is_active());
        let draws: Vec<bool> = (0..100)
            .flat_map(|i| (0..4u64).map(move |s| (i, s)))
            .map(|(i, s)| plan.torn_spill("gmeans", TaskKind::Map, i, 0, s))
            .collect();
        let again: Vec<bool> = (0..100)
            .flat_map(|i| (0..4u64).map(move |s| (i, s)))
            .map(|(i, s)| plan.torn_spill("gmeans", TaskKind::Map, i, 0, s))
            .collect();
        assert_eq!(draws, again);
        let torn = draws.iter().filter(|&&t| t).count();
        assert!((60..180).contains(&torn), "{torn}/400 torn");
        // Successive spills of the same attempt draw independently.
        assert!(
            (0..64u64).any(|s| plan.torn_spill("j", TaskKind::Map, 0, 0, s)
                != plan.torn_spill("j", TaskKind::Map, 0, 0, s + 1))
        );
        assert!(!FaultPlan::none().torn_spill("j", TaskKind::Map, 0, 0, 0));
    }

    #[test]
    fn fetch_flake_draws_are_deterministic_and_per_pair() {
        let plan = FaultPlan::none().with_seed(23).with_fetch_flakes(0.3);
        assert!(plan.is_active());
        let draws: Vec<bool> = (0..20)
            .flat_map(|m| (0..20).map(move |p| (m, p)))
            .map(|(m, p)| plan.fetch_flakes("gmeans", m, p, 0))
            .collect();
        let again: Vec<bool> = (0..20)
            .flat_map(|m| (0..20).map(move |p| (m, p)))
            .map(|(m, p)| plan.fetch_flakes("gmeans", m, p, 0))
            .collect();
        assert_eq!(draws, again);
        let flaked = draws.iter().filter(|&&f| f).count();
        assert!((60..180).contains(&flaked), "{flaked}/400 flaked");
        // Successive tries of the same fetch draw independently.
        assert!((0..64u32)
            .any(|t| plan.fetch_flakes("j", 0, 0, t) != plan.fetch_flakes("j", 0, 0, t + 1)));
        // So do different map outputs fetched by the same reducer.
        assert!(
            (0..64).any(|m| plan.fetch_flakes("j", m, 0, 0) != plan.fetch_flakes("j", m + 1, 0, 0))
        );
        assert!(!FaultPlan::none().fetch_flakes("j", 0, 0, 0));
    }

    #[test]
    fn fetch_backoff_grows_exponentially_with_bounded_jitter() {
        let plan = FaultPlan::none()
            .with_seed(29)
            .with_fetch_flakes(0.3)
            .with_fetch_backoff(2.0);
        for t in 0..6u32 {
            let wait = plan.fetch_backoff_secs("gmeans", 3, 1, t);
            let base = 2.0 * (1u64 << t) as f64;
            assert!(
                wait >= base && wait < 2.0 * base,
                "try {t}: {wait} outside [{base}, {})",
                2.0 * base
            );
            // Deterministic: the same coordinate always waits the same.
            assert_eq!(wait, plan.fetch_backoff_secs("gmeans", 3, 1, t));
        }
        // Jitter decorrelates reducers hammering the same map output.
        assert!((0..32).any(|p| {
            plan.fetch_backoff_secs("j", 0, p, 0) != plan.fetch_backoff_secs("j", 0, p + 1, 0)
        }));
    }

    #[test]
    fn heartbeat_false_positive_draws_are_deterministic_and_per_attempt() {
        let plan = FaultPlan::none()
            .with_seed(31)
            .with_heartbeat_false_positives(0.3);
        assert!(plan.is_active());
        let draws: Vec<bool> = (0..100)
            .flat_map(|i| (0..4u32).map(move |a| (i, a)))
            .map(|(i, a)| plan.heartbeat_false_positive("gmeans", TaskKind::Map, i, a))
            .collect();
        let again: Vec<bool> = (0..100)
            .flat_map(|i| (0..4u32).map(move |a| (i, a)))
            .map(|(i, a)| plan.heartbeat_false_positive("gmeans", TaskKind::Map, i, a))
            .collect();
        assert_eq!(draws, again);
        let fenced = draws.iter().filter(|&&z| z).count();
        assert!((60..180).contains(&fenced), "{fenced}/400 false positives");
        // Independent of the transient draw at the same coordinate.
        let both = FaultPlan::none()
            .with_seed(31)
            .with_transient_failures(0.3)
            .with_heartbeat_false_positives(0.3);
        assert!((0..64).any(|i| {
            (both.decide("j", TaskKind::Map, i, 0) == FaultDecision::FailTransient)
                != both.heartbeat_false_positive("j", TaskKind::Map, i, 0)
        }));
        assert!(!FaultPlan::none().heartbeat_false_positive("j", TaskKind::Map, 0, 0));
    }

    #[test]
    fn corruption_draws_are_deterministic_and_epoch_stable() {
        let plan = FaultPlan::none().with_seed(21).with_dfs_corruption(0.3);
        assert!(plan.is_active());
        let draws: Vec<bool> = (0..50)
            .flat_map(|b| (0..4).map(move |n| (b, n)))
            .map(|(b, n)| plan.dfs_replica_corrupt("points.txt", b, n))
            .collect();
        let again: Vec<bool> = (0..50)
            .flat_map(|b| (0..4).map(move |n| (b, n)))
            .map(|(b, n)| plan.dfs_replica_corrupt("points.txt", b, n))
            .collect();
        assert_eq!(draws, again);
        let rotten = draws.iter().filter(|&&c| c).count();
        assert!((20..100).contains(&rotten), "{rotten}/200 corrupt");
        // Different paths rot independently.
        assert!((0..50).any(|b| plan.dfs_replica_corrupt("points.txt", b, 0)
            != plan.dfs_replica_corrupt("other.txt", b, 0)));
        assert!(!FaultPlan::none().dfs_replica_corrupt("points.txt", 0, 0));
    }

    #[test]
    fn membership_join_appears_at_its_epoch() {
        let m = MembershipPlan::none().with_node_join(3, 4);
        assert!(m.is_active());
        assert!(m.validate(4).is_ok());
        assert_eq!(m.peak_nodes(4), 5);
        let plan = FaultPlan::none();
        let e2 = NodeStatus::compute_full(&plan, &m, 4, 2);
        assert_eq!(e2.live, vec![0, 1, 2, 3]);
        assert_eq!(e2.absent, vec![4]);
        assert!(e2.joined.is_empty());
        let e3 = NodeStatus::compute_full(&plan, &m, 4, 3);
        assert_eq!(e3.live, vec![0, 1, 2, 3, 4]);
        assert_eq!(e3.joined, vec![4]);
        assert!(e3.absent.is_empty());
        // Joins are permanent.
        assert_eq!(NodeStatus::compute_full(&plan, &m, 4, 9).live.len(), 5);
    }

    #[test]
    fn membership_decommission_drains_at_its_epoch() {
        let m = MembershipPlan::none().with_node_decommission(2, 1);
        assert!(m.validate(4).is_ok());
        let plan = FaultPlan::none();
        let e1 = NodeStatus::compute_full(&plan, &m, 4, 1);
        assert_eq!(e1.live, vec![0, 1, 2, 3]);
        assert!(e1.decommissioned.is_empty());
        let e2 = NodeStatus::compute_full(&plan, &m, 4, 2);
        assert_eq!(e2.live, vec![0, 2, 3], "drained node takes no work");
        assert_eq!(e2.decommissioned, vec![1]);
        assert!(e2.crashed.is_empty(), "a drain is not a crash");
        // A decommissioned node cannot crash at later epochs either.
        let crashy = FaultPlan::none().with_node_crash(3, 1);
        let e3 = NodeStatus::compute_full(&crashy, &m, 4, 3);
        assert!(e3.crashed.is_empty());
        assert_eq!(e3.decommissioned, vec![1]);
    }

    #[test]
    fn revocation_sweeps_fire_on_period_and_are_deterministic() {
        let m = MembershipPlan::none()
            .with_seed(13)
            .with_revocation_sweeps(3, 0.5);
        assert!(m.validate(8).is_ok());
        assert!(m.sweep_at(3) && m.sweep_at(6) && !m.sweep_at(4));
        let plan = FaultPlan::none();
        let s3 = NodeStatus::compute_full(&plan, &m, 8, 3);
        let again = NodeStatus::compute_full(&plan, &m, 8, 3);
        assert_eq!(s3, again);
        assert_eq!(s3.revoked, s3.crashed, "sweep kills are the only kills");
        // Across several sweeps, some node is revoked and some is spared.
        let any_revoked =
            (1..20).any(|e| !NodeStatus::compute_full(&plan, &m, 8, e).revoked.is_empty());
        assert!(any_revoked, "fraction 0.5 over 6 sweeps must hit something");
        let off_sweep = NodeStatus::compute_full(&plan, &m, 8, 4);
        assert!(off_sweep.revoked.is_empty());
        assert_eq!(off_sweep.live.len(), 8, "revoked capacity is backfilled");
    }

    #[test]
    fn revocations_do_not_consume_the_blacklist_budget() {
        // Sweep every epoch at fraction just below 1: node 0 is revoked
        // at every epoch, yet never blacklisted.
        let m = MembershipPlan::none()
            .with_seed(1)
            .with_revocation_sweeps(1, 0.999);
        let plan = FaultPlan::none().with_node_blacklist_after(1);
        for epoch in 1..8 {
            let s = NodeStatus::compute_full(&plan, &m, 4, epoch);
            assert!(
                s.blacklisted.is_empty(),
                "epoch {epoch}: {:?}",
                s.blacklisted
            );
            assert_eq!(s.live.len(), 4);
        }
    }

    #[test]
    fn membership_validation_rejects_bad_plans() {
        // Join epoch 0.
        assert!(MembershipPlan::none()
            .with_node_join(0, 4)
            .validate(4)
            .is_err());
        // Join of a base node.
        assert!(MembershipPlan::none()
            .with_node_join(2, 1)
            .validate(4)
            .is_err());
        // Duplicate join.
        assert!(MembershipPlan::none()
            .with_node_join(2, 4)
            .with_node_join(3, 4)
            .validate(4)
            .is_err());
        // Decommission of an unknown node.
        assert!(MembershipPlan::none()
            .with_node_decommission(2, 9)
            .validate(4)
            .is_err());
        // Decommission before (or at) the join.
        assert!(MembershipPlan::none()
            .with_node_join(3, 4)
            .with_node_decommission(3, 4)
            .validate(4)
            .is_err());
        // Join then decommission later is fine.
        assert!(MembershipPlan::none()
            .with_node_join(2, 4)
            .with_node_decommission(5, 4)
            .validate(4)
            .is_ok());
        // Duplicate decommission.
        assert!(MembershipPlan::none()
            .with_node_decommission(2, 1)
            .with_node_decommission(4, 1)
            .validate(4)
            .is_err());
        // Fraction out of range / missing period.
        assert!(MembershipPlan::none()
            .with_revocation_sweeps(2, 1.0)
            .validate(4)
            .is_err());
        assert!(MembershipPlan::none()
            .with_revocation_sweeps(0, 0.5)
            .validate(4)
            .is_err());
        assert!(MembershipPlan::none().validate(4).is_ok());
    }

    #[test]
    fn compute_matches_compute_full_with_inert_membership() {
        let plan = FaultPlan::none()
            .with_seed(5)
            .with_node_crashes(0.2)
            .with_node_blacklist_after(2);
        for epoch in 1..30 {
            assert_eq!(
                NodeStatus::compute(&plan, 4, epoch),
                NodeStatus::compute_full(&plan, &MembershipPlan::none(), 4, epoch)
            );
        }
    }
}
