//! Multi-tenant job tracking: fair-share slot arbitration with
//! locality-aware placement over the simulated cluster.
//!
//! The paper's pipeline runs one driver that owns the whole cluster;
//! a production service runs many jobs from many users at once. The
//! [`JobTracker`] splits that problem the way Hadoop's JobTracker does:
//!
//! * **execution** stays on the per-tenant [`JobRunner`] — each queue
//!   gets its own runner (sharing the tracker's DFS) so job *outputs*,
//!   counters and per-task durations are computed exactly as on the
//!   single-tenant path, bit for bit;
//! * **arbitration** — who holds which map/reduce slot at which instant
//!   when N tenants contend — is a pure, deterministic discrete-event
//!   simulation over the collected task durations and DFS block
//!   replicas ([`JobTracker::arbitrate`]) on the cluster's fixed slots.
//!
//! Queues are flat, each with a weight and a minimum share; the
//! fair-share policy hands the next free slot to the queue furthest
//! below its weighted share, preempting a running attempt of an
//! over-share queue when a queue cannot reach its configured minimum
//! share. Shares and minimums are accounted per slot pool — a queue's
//! running reduces neither block it from preempting for maps nor make
//! it look over its map share — and a queue at or below its own
//! minimum share is never picked as a victim, so preemption converges
//! instead of ping-ponging between starved queues. When the
//! policy-preferred queue cannot place (no free slot, no preemption
//! right), the pass moves on to the remaining contenders rather than
//! giving up, so a starved queue always reaches its preemption
//! opportunity. Preempted attempts are KILLED, not FAILED — like node-crash
//! kills they burn no retry budget, and the re-run computes an
//! identical result, so preemption moves makespans and never answers.
//! Map placement is locality-aware: a free slot on a node holding a DFS
//! replica of the task's input block wins over any other free slot
//! (node-local first, any-node fallback), mirroring the runtime's own
//! [`crate::faults::FaultPlan::place`] pass.
//!
//! Every scheduling decision is a pure function of (queue
//! configuration, demands, event order) — no clocks, no RNG — so fault
//! replay, checkpoint resume and node storms stay bit-identical under
//! the tracker.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cluster::ClusterConfig;
use crate::cost::JobTiming;
use crate::counters::{Counter, Counters};
use crate::dfs::Dfs;
use crate::error::{Error, Result};
use crate::faults::TaskKind;
use crate::runtime::JobRunner;

/// How the tracker orders contending queues for the next free slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Strict job-arrival order: every task of the earliest-submitted
    /// job before any task of a later one. The baseline Hadoop shipped
    /// with, and the baseline the bench compares fairness against.
    Fifo,
    /// Weighted fair sharing with minimum-share preemption: the next
    /// slot goes to the queue furthest below its weighted share.
    FairShare,
}

/// Static configuration of one scheduler queue (a tenant).
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Queue name; unique within a tracker.
    pub name: String,
    /// Relative weight among the queues. Must be finite and positive.
    /// A queue's weighted share is its weight normalized among the
    /// *active* queues.
    pub weight: f64,
    /// Slots (per pool: map and reduce each) this queue may reclaim by
    /// preemption when starved below it. Zero disables preemption on
    /// the queue's behalf.
    pub min_share_slots: usize,
}

impl QueueConfig {
    /// A queue with weight 1 and no minimum share.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            weight: 1.0,
            min_share_slots: 0,
        }
    }

    /// Sets the queue's relative weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the minimum per-pool share the queue may preempt for.
    pub fn with_min_share(mut self, slots: usize) -> Self {
        self.min_share_slots = slots;
        self
    }
}

/// One map task's demand on the arbitrated cluster: how long its
/// winning attempt runs and which nodes hold a DFS replica of its
/// input block (empty when locality is unknown — speculative extras,
/// reduce tasks).
#[derive(Clone, Debug)]
pub struct TaskDemand {
    /// Simulated duration of the task, seconds.
    pub duration: f64,
    /// Nodes holding a replica of the task's input block.
    pub replicas: Vec<usize>,
}

/// One job's demand: its map tasks (with locality), then — after the
/// map barrier — its reduce tasks.
#[derive(Clone, Debug)]
pub struct JobDemand {
    /// Job name, for reporting.
    pub name: String,
    /// Map-task demands, in task order.
    pub maps: Vec<TaskDemand>,
    /// Reduce-task durations, in partition order.
    pub reduces: Vec<f64>,
}

impl JobDemand {
    /// Builds a demand from an executed job's timing: one map demand
    /// per map duration (the first `replicas.len()` get their block's
    /// replica holders; failed-attempt and speculative extras have no
    /// block of their own) and one reduce demand per reduce duration.
    pub fn from_timing(
        name: impl Into<String>,
        timing: &JobTiming,
        replicas: &[Vec<usize>],
    ) -> Self {
        Self {
            name: name.into(),
            maps: timing
                .map_durations
                .iter()
                .enumerate()
                .map(|(i, &duration)| TaskDemand {
                    duration,
                    replicas: replicas.get(i).cloned().unwrap_or_default(),
                })
                .collect(),
            reduces: timing.reduce_durations.clone(),
        }
    }
}

/// One tenant's demand: a queue to charge, a submission time, and the
/// jobs it runs back to back (each job waits for the previous one plus
/// the cluster's per-job setup cost, like an iterative driver).
#[derive(Clone, Debug)]
pub struct TenantDemand {
    /// The queue the tenant submits to.
    pub queue: String,
    /// Simulated time the tenant's first job is submitted.
    pub submit_at: f64,
    /// The tenant's jobs, run sequentially.
    pub jobs: Vec<JobDemand>,
}

/// Slot-share snapshot at one scheduling instant.
#[derive(Clone, Copy, Debug)]
pub struct ShareSample {
    /// Simulated time of the sample.
    pub time: f64,
    /// Half the L1 distance between the running-slot distribution and
    /// the weighted target distribution over active queues: 0 is
    /// perfectly fair, 1 is maximally unfair.
    pub share_error: f64,
}

/// Per-queue outcome of one arbitration.
#[derive(Clone, Debug)]
pub struct QueueStats {
    /// Queue name.
    pub queue: String,
    /// Simulated time the queue's last job finished (0 if it ran none).
    pub finish_secs: f64,
    /// Slot-seconds the queue's attempts occupied.
    pub slot_secs: f64,
    /// Winning map attempts placed on a replica holder of their block.
    pub maps_node_local: u64,
    /// Winning map attempts that had to read their block remotely.
    pub maps_remote: u64,
    /// Attempts killed by preemption on other queues' behalf.
    pub tasks_preempted: u64,
}

/// Outcome of arbitrating a set of tenant demands.
#[derive(Debug)]
pub struct TrackerRun {
    /// Simulated time the last tenant finished.
    pub makespan: f64,
    /// Per-queue outcomes, in queue-registration order (queues that
    /// received no demand are omitted).
    pub queues: Vec<QueueStats>,
    /// Share-error curve, one sample per scheduling instant.
    pub share_samples: Vec<ShareSample>,
    /// Cluster-wide scheduling counters (`maps_node_local`,
    /// `maps_remote` and `tasks_preempted`).
    pub counters: Counters,
}

impl TrackerRun {
    /// Fraction of winning map attempts placed node-local, or 1.0 when
    /// no map carried locality information.
    pub fn node_local_fraction(&self) -> f64 {
        let local = self.counters.get(Counter::MapsNodeLocal);
        let total = local + self.counters.get(Counter::MapsRemote);
        if total == 0 {
            1.0
        } else {
            local as f64 / total as f64
        }
    }

    /// Mean share error over the scheduling instants sampled: each
    /// sample counts once, however long the schedule held it.
    pub fn mean_share_error(&self) -> f64 {
        if self.share_samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.share_samples.iter().map(|s| s.share_error).sum();
        sum / self.share_samples.len() as f64
    }
}

/// A multi-tenant JobTracker over one simulated cluster.
///
/// Queues are registered up front; each gets its own [`JobRunner`]
/// against the shared DFS, identical to `JobRunner::new(dfs, cluster)`
/// — the single-tenant client path is bit-identical to the direct path.
pub struct JobTracker {
    dfs: Arc<Dfs>,
    cluster: ClusterConfig,
    policy: SchedulingPolicy,
    queues: Vec<QueueConfig>,
    runners: BTreeMap<String, JobRunner>,
}

impl JobTracker {
    /// A tracker with no queues yet, arbitrating fair-share.
    pub fn new(dfs: Arc<Dfs>, cluster: ClusterConfig) -> Result<Self> {
        cluster.validate()?;
        Ok(Self {
            dfs,
            cluster,
            policy: SchedulingPolicy::FairShare,
            queues: Vec::new(),
            runners: BTreeMap::new(),
        })
    }

    /// Sets the arbitration policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Registers a queue and builds its runner. Names are unique;
    /// weights are finite and positive; the minimum shares of all
    /// queues together must fit in each slot pool (otherwise preemption
    /// could thrash).
    pub fn add_queue(&mut self, queue: QueueConfig) -> Result<()> {
        if !(queue.weight.is_finite() && queue.weight > 0.0) {
            return Err(Error::Config(format!(
                "queue {}: weight must be finite and positive, got {}",
                queue.name, queue.weight
            )));
        }
        if self.queues.iter().any(|q| q.name == queue.name) {
            return Err(Error::Config(format!("duplicate queue {}", queue.name)));
        }
        let pool = self
            .cluster
            .total_map_slots()
            .min(self.cluster.total_reduce_slots());
        let committed: usize =
            self.queues.iter().map(|q| q.min_share_slots).sum::<usize>() + queue.min_share_slots;
        if committed > pool {
            return Err(Error::Config(format!(
                "queue {}: committed minimum shares ({committed}) exceed the \
                 {pool}-slot pool",
                queue.name
            )));
        }
        let runner = JobRunner::new(Arc::clone(&self.dfs), self.cluster)?;
        self.runners.insert(queue.name.clone(), runner);
        self.queues.push(queue);
        Ok(())
    }

    /// The queue's execution runner — the single-tenant client path.
    /// Engines and algorithms run on a clone of this runner unmodified.
    pub fn runner(&self, queue: &str) -> Result<&JobRunner> {
        self.runners
            .get(queue)
            .ok_or_else(|| Error::Config(format!("unknown queue {queue}")))
    }

    /// Builds a job demand from an executed job's timing, attaching the
    /// DFS replica holders of `input`'s blocks as map localities.
    pub fn demand_for(
        &self,
        input: &str,
        name: impl Into<String>,
        timing: &JobTiming,
    ) -> JobDemand {
        JobDemand::from_timing(name, timing, &self.dfs.block_replicas(input))
    }

    /// Arbitrates the demands over the cluster's slots: a deterministic
    /// discrete-event simulation of who holds which map/reduce slot at
    /// which instant under the tracker's policy. Demands must name
    /// registered queues, and every job must have a task.
    pub fn arbitrate(&self, demands: &[TenantDemand]) -> Result<TrackerRun> {
        for d in demands {
            if !self.queues.iter().any(|q| q.name == d.queue) {
                return Err(Error::Config(format!("unknown queue {}", d.queue)));
            }
            if let Some(job) = d
                .jobs
                .iter()
                .find(|j| j.maps.is_empty() && j.reduces.is_empty())
            {
                return Err(Error::Config(format!(
                    "queue {}: job {} has no tasks to schedule",
                    d.queue, job.name
                )));
            }
        }
        Simulation::new(self, demands).run()
    }
}

// ---------------------------------------------------------------------
// The arbitration simulation.
// ---------------------------------------------------------------------

/// One attempt occupying a slot.
struct Running {
    finish: f64,
    start: f64,
    seq: u64,
    queue: usize,
    tenant: usize,
    kind: TaskKind,
    task: usize,
    node: usize,
}

/// One tenant's progress through its job list.
struct TenantState {
    queue: usize,
    /// FIFO arrival key: (submit time, tenant index).
    arrival: (f64, usize),
    current: usize,
    /// When the current job's map tasks become runnable (setup paid).
    ready_at: f64,
    pending_maps: Vec<usize>,
    maps_done: usize,
    pending_reduces: Vec<usize>,
    reduces_done: usize,
    finish: f64,
}

impl TenantState {
    fn done(&self, jobs: usize) -> bool {
        self.current >= jobs
    }

    /// Loads job `self.current`'s tasks as pending.
    fn load_job(&mut self, job: &JobDemand) {
        self.pending_maps = (0..job.maps.len()).collect();
        self.maps_done = 0;
        self.pending_reduces = (0..job.reduces.len()).collect();
        self.reduces_done = 0;
    }
}

struct Simulation<'a> {
    tracker: &'a JobTracker,
    demands: &'a [TenantDemand],
    tenants: Vec<TenantState>,
    /// Free map/reduce slots per node.
    free_map: Vec<usize>,
    free_reduce: Vec<usize>,
    running: Vec<Running>,
    /// Concurrently running attempts per queue split by slot pool
    /// (index [`Self::kind_slot`]): `min_share_slots` is a per-pool
    /// guarantee, so the min-share check, the fair-share deficit and
    /// the preemption over-share must all compare like with like — a
    /// queue's reduces must neither block it from preempting for maps
    /// nor make it look over its map share. Slot-seconds and the share
    /// samples are defined over both pools together.
    running_by_kind: Vec<[usize; 2]>,
    slot_secs: Vec<f64>,
    maps_node_local: Vec<u64>,
    maps_remote: Vec<u64>,
    tasks_preempted: Vec<u64>,
    finish_secs: Vec<f64>,
    share_samples: Vec<ShareSample>,
    seq: u64,
    now: f64,
}

impl<'a> Simulation<'a> {
    /// Index of `kind`'s slot pool in [`Self::running_by_kind`].
    fn kind_slot(kind: TaskKind) -> usize {
        match kind {
            TaskKind::Map => 0,
            _ => 1,
        }
    }

    fn new(tracker: &'a JobTracker, demands: &'a [TenantDemand]) -> Self {
        let nq = tracker.queues.len();
        let setup = tracker.cluster.cost_model.job_setup_secs;
        let tenants = demands
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let queue = tracker
                    .queues
                    .iter()
                    .position(|q| q.name == d.queue)
                    .expect("validated by arbitrate");
                let mut t = TenantState {
                    queue,
                    arrival: (d.submit_at, i),
                    current: 0,
                    ready_at: d.submit_at + setup,
                    pending_maps: Vec::new(),
                    maps_done: 0,
                    pending_reduces: Vec::new(),
                    reduces_done: 0,
                    finish: d.submit_at,
                };
                if let Some(job) = d.jobs.first() {
                    t.load_job(job);
                }
                t
            })
            .collect();
        let nodes = tracker.cluster.nodes;
        Self {
            tracker,
            demands,
            tenants,
            free_map: vec![tracker.cluster.map_slots_per_node; nodes],
            free_reduce: vec![tracker.cluster.reduce_slots_per_node; nodes],
            running: Vec::new(),
            running_by_kind: vec![[0; 2]; nq],
            slot_secs: vec![0.0; nq],
            maps_node_local: vec![0; nq],
            maps_remote: vec![0; nq],
            tasks_preempted: vec![0; nq],
            finish_secs: vec![0.0; nq],
            share_samples: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Attempts queue `q` runs right now, both pools together.
    fn queue_running(&self, q: usize) -> usize {
        let [maps, reduces] = self.running_by_kind[q];
        maps + reduces
    }

    fn run(mut self) -> Result<TrackerRun> {
        loop {
            self.schedule();
            // Zero-length tasks retire at the instant they start.
            if self.running.iter().any(|r| r.finish <= self.now) {
                self.complete_finished();
                continue;
            }
            self.sample_shares();
            let Some(next) = self.next_event() else { break };
            for q in 0..self.running_by_kind.len() {
                self.slot_secs[q] += self.queue_running(q) as f64 * (next - self.now);
            }
            self.now = next;
            self.complete_finished();
        }
        // Defense in depth: a run that exits with demand still pending
        // would silently report a makespan as if complete. add_queue's
        // validation should make this unreachable.
        if let Some(t) = self
            .tenants
            .iter()
            .find(|t| !t.done(self.demands[t.arrival.1].jobs.len()))
        {
            return Err(Error::Config(format!(
                "scheduler stalled: queue {} exited with unrun demand",
                self.tracker.queues[t.queue].name
            )));
        }
        let makespan = self.tenants.iter().map(|t| t.finish).fold(0.0f64, f64::max);
        let counters = Counters::new();
        let mut queues = Vec::new();
        for (q, config) in self.tracker.queues.iter().enumerate() {
            let used = self.slot_secs[q] > 0.0
                || self.maps_node_local[q] + self.maps_remote[q] + self.tasks_preempted[q] > 0;
            if !used {
                continue;
            }
            counters.add(Counter::MapsNodeLocal, self.maps_node_local[q]);
            counters.add(Counter::MapsRemote, self.maps_remote[q]);
            counters.add(Counter::TasksPreempted, self.tasks_preempted[q]);
            queues.push(QueueStats {
                queue: config.name.clone(),
                finish_secs: self.finish_secs[q],
                slot_secs: self.slot_secs[q],
                maps_node_local: self.maps_node_local[q],
                maps_remote: self.maps_remote[q],
                tasks_preempted: self.tasks_preempted[q],
            });
        }
        Ok(TrackerRun {
            makespan,
            queues,
            share_samples: self.share_samples,
            counters,
        })
    }

    /// Earliest future event: a running attempt finishing, or an idle
    /// tenant's next job becoming ready.
    fn next_event(&self) -> Option<f64> {
        let mut next: Option<f64> = None;
        let mut consider = |t: f64| {
            if t > self.now && next.map_or(true, |n| t < n) {
                next = Some(t);
            }
        };
        for r in &self.running {
            consider(r.finish);
        }
        for t in &self.tenants {
            if !t.done(self.demands[t.arrival.1].jobs.len()) {
                consider(t.ready_at);
            }
        }
        next
    }

    /// Retires every attempt finishing at the current instant and
    /// advances job/tenant state across the map barrier.
    fn complete_finished(&mut self) {
        let now = self.now;
        let mut finished: Vec<Running> = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].finish <= now {
                finished.push(self.running.remove(i));
            } else {
                i += 1;
            }
        }
        // Deterministic retirement order.
        finished.sort_by_key(|r| r.seq);
        for r in finished {
            self.running_by_kind[r.queue][Self::kind_slot(r.kind)] -= 1;
            match r.kind {
                TaskKind::Map => {
                    self.free_map[r.node] += 1;
                    self.tenants[r.tenant].maps_done += 1;
                }
                _ => {
                    self.free_reduce[r.node] += 1;
                    self.tenants[r.tenant].reduces_done += 1;
                }
            }
            let tenant = &mut self.tenants[r.tenant];
            let demand = &self.demands[r.tenant];
            let job = &demand.jobs[tenant.current];
            if tenant.maps_done == job.maps.len() && tenant.reduces_done == job.reduces.len() {
                tenant.finish = now;
                self.finish_secs[tenant.queue] = self.finish_secs[tenant.queue].max(now);
                tenant.current += 1;
                if let Some(next_job) = demand.jobs.get(tenant.current) {
                    tenant.ready_at = now + self.tracker.cluster.cost_model.job_setup_secs;
                    tenant.load_job(next_job);
                }
            }
        }
    }

    /// Weighted target share of each queue: its weight normalized over
    /// the queues in `active`. Inactive queues get zero.
    fn target_shares(&self, active: &[bool]) -> Vec<f64> {
        let queues = &self.tracker.queues;
        let total: f64 = queues
            .iter()
            .zip(active)
            .filter(|(_, a)| **a)
            .map(|(q, _)| q.weight)
            .sum();
        queues
            .iter()
            .zip(active)
            .map(|(q, &a)| if a { q.weight / total } else { 0.0 })
            .collect()
    }

    /// Queues with at least one runnable or running attempt.
    fn active_queues(&self) -> Vec<bool> {
        let mut active: Vec<bool> = (0..self.tracker.queues.len())
            .map(|q| self.queue_running(q) > 0)
            .collect();
        for t in &self.tenants {
            if t.ready_at <= self.now
                && !t.done(self.demands[t.arrival.1].jobs.len())
                && (!t.pending_maps.is_empty()
                    || (t.maps_done == self.demands[t.arrival.1].jobs[t.current].maps.len()
                        && !t.pending_reduces.is_empty()))
            {
                active[t.queue] = true;
            }
        }
        active
    }

    fn sample_shares(&mut self) {
        let active = self.active_queues();
        if active.iter().filter(|a| **a).count() < 2 {
            return;
        }
        let total: usize = (0..active.len()).map(|q| self.queue_running(q)).sum();
        if total == 0 {
            return;
        }
        let target = self.target_shares(&active);
        let mut err = 0.0;
        for q in 0..active.len() {
            let running = self.queue_running(q);
            if active[q] || running > 0 {
                let actual = running as f64 / total as f64;
                err += (actual - target[q]).abs();
            }
        }
        self.share_samples.push(ShareSample {
            time: self.now,
            share_error: 0.5 * err,
        });
    }

    /// Tenants (indices) with a runnable task of `kind` right now.
    fn runnable_tenants(&self, kind: TaskKind) -> Vec<usize> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                if t.ready_at > self.now || t.done(self.demands[*i].jobs.len()) {
                    return false;
                }
                let job = &self.demands[*i].jobs[t.current];
                match kind {
                    TaskKind::Map => !t.pending_maps.is_empty(),
                    // Reduces start after the map barrier.
                    _ => t.maps_done == job.maps.len() && !t.pending_reduces.is_empty(),
                }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Fills free slots until no runnable task can be placed, applying
    /// the policy, locality and min-share preemption.
    fn schedule(&mut self) {
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let k = Self::kind_slot(kind);
            // Queues that failed to place this pass. A failed queue
            // leaves the candidate set rather than aborting the pass —
            // otherwise one queue with no free slot and no preemption
            // right (min share 0 or already met) would mask a starved
            // queue right behind it in the policy order, violating the
            // min-share guarantee. Cleared whenever a placement
            // changes the slot state.
            let mut exhausted = vec![false; self.tracker.queues.len()];
            loop {
                let runnable = self.runnable_tenants(kind);
                if runnable.is_empty() {
                    break;
                }
                // Queues with runnable work that may still place.
                let mut candidates: Vec<usize> =
                    runnable.iter().map(|&t| self.tenants[t].queue).collect();
                candidates.sort_unstable();
                candidates.dedup();
                candidates.retain(|&q| !exhausted[q]);
                if candidates.is_empty() {
                    break;
                }
                let queue = match self.tracker.policy {
                    SchedulingPolicy::Fifo => {
                        // The queue owning the earliest-arrived tenant.
                        let t = runnable
                            .iter()
                            .copied()
                            .filter(|&t| candidates.contains(&self.tenants[t].queue))
                            .min_by(|&a, &b| {
                                self.tenants[a]
                                    .arrival
                                    .0
                                    .total_cmp(&self.tenants[b].arrival.0)
                                    .then(self.tenants[a].arrival.1.cmp(&self.tenants[b].arrival.1))
                            });
                        match t {
                            Some(t) => self.tenants[t].queue,
                            None => break,
                        }
                    }
                    SchedulingPolicy::FairShare => {
                        let active = self.active_queues();
                        let target = self.target_shares(&active);
                        // The queue furthest below its share of *this*
                        // pool: minimal running/target over attempts of
                        // this kind (deterministic tie: index).
                        match candidates
                            .iter()
                            .copied()
                            .filter(|&q| target[q] > 0.0)
                            .min_by(|&a, &b| {
                                let da = self.running_by_kind[a][k] as f64 / target[a];
                                let db = self.running_by_kind[b][k] as f64 / target[b];
                                da.total_cmp(&db).then(a.cmp(&b))
                            }) {
                            Some(q) => q,
                            None => break,
                        }
                    }
                };
                // Earliest-arrived runnable tenant of the chosen queue.
                let tenant = runnable
                    .iter()
                    .copied()
                    .filter(|&t| self.tenants[t].queue == queue)
                    .min_by(|&a, &b| {
                        self.tenants[a]
                            .arrival
                            .0
                            .total_cmp(&self.tenants[b].arrival.0)
                            .then(self.tenants[a].arrival.1.cmp(&self.tenants[b].arrival.1))
                    })
                    .expect("chosen queue has a runnable tenant");
                if self.place(kind, queue, tenant) {
                    exhausted.fill(false);
                } else {
                    exhausted[queue] = true;
                }
            }
        }
    }

    /// Places one of the tenant's pending tasks of `kind`, preempting
    /// an over-share attempt if the queue is starved below its minimum
    /// share. Returns false when no slot could be obtained.
    ///
    /// Map-task selection is locality-first: the earliest pending map
    /// with a free slot on one of its replica holders runs before the
    /// head of the pending list would run remotely — the effect of
    /// Hadoop's delay scheduling, achieved by deterministic task
    /// selection instead of waiting. On a saturated cluster a freed
    /// slot's node is fixed, so matching the *task* to the node is what
    /// keeps placements node-local.
    fn place(&mut self, kind: TaskKind, queue: usize, tenant: usize) -> bool {
        // (position in the pending list, node): node-local first — for
        // the earliest pending task that has one — then the head task
        // on the lowest-index free node.
        let (pos, node) = match kind {
            TaskKind::Map => {
                let t = &self.tenants[tenant];
                let job = &self.demands[tenant].jobs[t.current];
                t.pending_maps
                    .iter()
                    .enumerate()
                    .find_map(|(pos, &task)| {
                        job.maps[task]
                            .replicas
                            .iter()
                            .copied()
                            .filter(|&n| n < self.free_map.len() && self.free_map[n] > 0)
                            .min()
                            .map(|node| (pos, Some(node)))
                    })
                    .unwrap_or_else(|| {
                        (0, (0..self.free_map.len()).find(|&n| self.free_map[n] > 0))
                    })
            }
            _ => (
                0,
                (0..self.free_reduce.len()).find(|&n| self.free_reduce[n] > 0),
            ),
        };
        let (pos, node) = match node {
            Some(n) => (pos, n),
            None => {
                let Some(n) = self.preempt_for(kind, queue) else {
                    return false;
                };
                // Preemption fixed the node after `pos` was chosen:
                // re-run the locality scan against that specific node
                // so the earliest pending map with a replica there
                // runs, not blindly the head of the pending list.
                let pos = match kind {
                    TaskKind::Map => {
                        let t = &self.tenants[tenant];
                        let job = &self.demands[tenant].jobs[t.current];
                        t.pending_maps
                            .iter()
                            .position(|&task| job.maps[task].replicas.contains(&n))
                            .unwrap_or(0)
                    }
                    _ => 0,
                };
                (pos, n)
            }
        };
        let t = &mut self.tenants[tenant];
        let (task, duration) = match kind {
            TaskKind::Map => {
                let task = t.pending_maps.remove(pos);
                (
                    task,
                    self.demands[tenant].jobs[t.current].maps[task].duration,
                )
            }
            _ => {
                let task = t.pending_reduces.remove(0);
                (task, self.demands[tenant].jobs[t.current].reduces[task])
            }
        };
        match kind {
            TaskKind::Map => {
                self.free_map[node] -= 1;
                let replicas =
                    &self.demands[tenant].jobs[self.tenants[tenant].current].maps[task].replicas;
                if !replicas.is_empty() {
                    if replicas.contains(&node) {
                        self.maps_node_local[queue] += 1;
                    } else {
                        self.maps_remote[queue] += 1;
                    }
                }
            }
            _ => self.free_reduce[node] -= 1,
        }
        self.running_by_kind[queue][Self::kind_slot(kind)] += 1;
        self.seq += 1;
        self.running.push(Running {
            finish: self.now + duration.max(0.0),
            start: self.now,
            seq: self.seq,
            queue,
            tenant,
            kind,
            task,
            node,
        });
        true
    }

    /// Minimum-share preemption: when `queue` is starved below its
    /// configured minimum in `kind`'s pool and no slot is free, kill
    /// the most recently launched attempt of the queue furthest *over*
    /// its weighted share of that pool. The killed attempt re-enters
    /// its tenant's pending list at full duration — KILLED, not
    /// FAILED, so no retry budget burns — and the freed slot is
    /// returned for the starved task.
    ///
    /// A queue at or below its *own* min share is never a victim: its
    /// guaranteed slots are exactly what preemption exists to protect.
    /// This is also the termination argument — a starved queue only
    /// gains attempts up to its minimum, a victim only loses down to
    /// its minimum, so two under-min queues can never kill each
    /// other's just-launched attempts in a ping-pong.
    fn preempt_for(&mut self, kind: TaskKind, queue: usize) -> Option<usize> {
        if self.tracker.policy != SchedulingPolicy::FairShare {
            return None;
        }
        let k = Self::kind_slot(kind);
        if self.running_by_kind[queue][k] >= self.tracker.queues[queue].min_share_slots {
            return None;
        }
        let active = self.active_queues();
        let target = self.target_shares(&active);
        let pool = match kind {
            TaskKind::Map => self.tracker.cluster.total_map_slots(),
            _ => self.tracker.cluster.total_reduce_slots(),
        } as f64;
        // The queue most slots of this pool over its share, provided
        // it is strictly over and would keep its own minimum share
        // after giving one up (> min implies it has an attempt of this
        // pool to give).
        let victim_queue = (0..self.tracker.queues.len())
            .filter(|&q| q != queue)
            .filter(|&q| self.running_by_kind[q][k] > self.tracker.queues[q].min_share_slots)
            .map(|q| (q, self.running_by_kind[q][k] as f64 - target[q] * pool))
            .filter(|&(_, over)| over >= 1.0)
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(q, _)| q)?;
        // Most recently launched attempt: latest start, then highest
        // sequence number (deterministic).
        let victim_idx = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.queue == victim_queue && r.kind == kind)
            .max_by(|(_, a), (_, b)| a.start.total_cmp(&b.start).then(a.seq.cmp(&b.seq)))
            .map(|(i, _)| i)?;
        let victim = self.running.remove(victim_idx);
        self.running_by_kind[victim.queue][Self::kind_slot(victim.kind)] -= 1;
        self.tasks_preempted[victim.queue] += 1;
        let vt = &mut self.tenants[victim.tenant];
        match victim.kind {
            TaskKind::Map => {
                vt.pending_maps.insert(0, victim.task);
                self.free_map[victim.node] += 1;
            }
            _ => {
                vt.pending_reduces.insert(0, victim.task);
                self.free_reduce[victim.node] += 1;
            }
        }
        Some(victim.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(policy: SchedulingPolicy) -> JobTracker {
        let dfs = Arc::new(Dfs::new(1024));
        JobTracker::new(dfs, ClusterConfig::default())
            .unwrap()
            .with_policy(policy)
    }

    /// A job of `maps` one-second map tasks (block i replicated on
    /// nodes {i%4, (i+1)%4}) and `reduces` one-second reduce tasks.
    fn job(maps: usize, reduces: usize) -> JobDemand {
        JobDemand {
            name: "j".into(),
            maps: (0..maps)
                .map(|i| TaskDemand {
                    duration: 1.0,
                    replicas: vec![i % 4, (i + 1) % 4],
                })
                .collect(),
            reduces: vec![1.0; reduces],
        }
    }

    fn tenant(queue: &str, submit_at: f64, jobs: Vec<JobDemand>) -> TenantDemand {
        TenantDemand {
            queue: queue.into(),
            submit_at,
            jobs,
        }
    }

    #[test]
    fn queue_validation_rejects_bad_configs() {
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("a")).unwrap();
        assert!(t.add_queue(QueueConfig::new("a")).is_err(), "duplicate");
        assert!(
            t.add_queue(QueueConfig::new("b").with_weight(0.0)).is_err(),
            "zero weight"
        );
        // 4 nodes x 8 slots = 32 per pool; 33 committed must not fit.
        assert!(
            t.add_queue(QueueConfig::new("b").with_min_share(33))
                .is_err(),
            "overcommitted min shares"
        );
        assert!(t.runner("a").is_ok());
        assert!(t.runner("missing").is_err());
    }

    #[test]
    fn arbitration_is_deterministic() {
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("a")).unwrap();
        t.add_queue(QueueConfig::new("b").with_weight(3.0)).unwrap();
        let demands = vec![
            tenant("a", 0.0, vec![job(64, 8), job(32, 4)]),
            tenant("b", 5.0, vec![job(64, 8)]),
        ];
        let r1 = t.arbitrate(&demands).unwrap();
        let r2 = t.arbitrate(&demands).unwrap();
        assert_eq!(r1.makespan.to_bits(), r2.makespan.to_bits());
        assert_eq!(r1.share_samples.len(), r2.share_samples.len());
        for (a, b) in r1.share_samples.iter().zip(&r2.share_samples) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.share_error.to_bits(), b.share_error.to_bits());
        }
        assert_eq!(
            r1.counters.get(Counter::MapsNodeLocal),
            r2.counters.get(Counter::MapsNodeLocal)
        );
    }

    #[test]
    fn backoff_inflated_reduce_demands_shift_arbitration() {
        // Network weather charges fetch backoff into the executed
        // job's `reduce_durations` (`JobRunner::lost_map_outputs`),
        // and `JobDemand::from_timing` copies those into the demand —
        // so a tenant whose reduces sat out retry backoff must occupy
        // its reduce slots longer under arbitration than a calm clone
        // of itself. Model one flaky tenant whose every reduce waited
        // out two retries of exponential backoff.
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("calm")).unwrap();
        t.add_queue(QueueConfig::new("flaky")).unwrap();

        let wait: f64 = (0..2)
            .map(|try_no| crate::cost::fetch_backoff_secs(1.0, try_no, 0.5))
            .sum();
        assert!(wait > 0.0);
        let mut inflated = job(8, 4);
        for d in &mut inflated.reduces {
            *d += wait;
        }

        let calm_run = t
            .arbitrate(&[
                tenant("calm", 0.0, vec![job(8, 4)]),
                tenant("flaky", 0.0, vec![job(8, 4)]),
            ])
            .unwrap();
        let stormy_run = t
            .arbitrate(&[
                tenant("calm", 0.0, vec![job(8, 4)]),
                tenant("flaky", 0.0, vec![inflated]),
            ])
            .unwrap();

        // The backoff is real occupancy: the flaky tenant stretches the
        // cluster makespan by at least its per-reduce wait.
        assert!(
            stormy_run.makespan >= calm_run.makespan + wait,
            "backoff did not reach arbitration: {} vs {}",
            stormy_run.makespan,
            calm_run.makespan
        );
        // And the shift is deterministic, like everything else here.
        let again = t
            .arbitrate(&[
                tenant("calm", 0.0, vec![job(8, 4)]),
                tenant(
                    "flaky",
                    0.0,
                    vec![{
                        let mut j = job(8, 4);
                        for d in &mut j.reduces {
                            *d += wait;
                        }
                        j
                    }],
                ),
            ])
            .unwrap();
        assert_eq!(stormy_run.makespan.to_bits(), again.makespan.to_bits());
    }

    #[test]
    fn free_local_slots_mean_no_remote_maps() {
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("a")).unwrap();
        let r = t.arbitrate(&[tenant("a", 0.0, vec![job(16, 4)])]).unwrap();
        assert_eq!(r.counters.get(Counter::MapsRemote), 0);
        assert_eq!(r.counters.get(Counter::MapsNodeLocal), 16);
        assert_eq!(r.node_local_fraction(), 1.0);
    }

    #[test]
    fn unreachable_replicas_fall_back_to_remote_slots() {
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("a")).unwrap();
        let mut j = job(4, 1);
        for m in &mut j.maps {
            m.replicas = vec![97, 98, 99];
        }
        let r = t.arbitrate(&[tenant("a", 0.0, vec![j])]).unwrap();
        assert_eq!(r.counters.get(Counter::MapsNodeLocal), 0);
        assert_eq!(r.counters.get(Counter::MapsRemote), 4);
        assert!(r.node_local_fraction() < 1.0);
    }

    #[test]
    fn fair_share_finishes_heavy_queues_first() {
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("light")).unwrap();
        t.add_queue(QueueConfig::new("heavy").with_weight(3.0))
            .unwrap();
        let demands = vec![
            tenant("light", 0.0, vec![job(128, 8); 2]),
            tenant("heavy", 0.0, vec![job(128, 8); 2]),
        ];
        let r = t.arbitrate(&demands).unwrap();
        let light = r.queues.iter().find(|q| q.queue == "light").unwrap();
        let heavy = r.queues.iter().find(|q| q.queue == "heavy").unwrap();
        assert!(
            heavy.finish_secs < light.finish_secs,
            "3x weight must finish first (heavy {:.1}s vs light {:.1}s)",
            heavy.finish_secs,
            light.finish_secs
        );
        assert!(r.mean_share_error() < 0.2, "err {}", r.mean_share_error());
    }

    #[test]
    fn fifo_starves_late_arrivals_fair_share_does_not() {
        let demands = vec![
            tenant("a", 0.0, vec![job(256, 8)]),
            tenant("b", 1.0, vec![job(32, 4)]),
        ];
        let finish_of = |policy: SchedulingPolicy, queue: &str| {
            let mut t = tracker(policy);
            t.add_queue(QueueConfig::new("a")).unwrap();
            t.add_queue(QueueConfig::new("b")).unwrap();
            let r = t.arbitrate(&demands).unwrap();
            r.queues
                .iter()
                .find(|q| q.queue == queue)
                .unwrap()
                .finish_secs
        };
        let b_fifo = finish_of(SchedulingPolicy::Fifo, "b");
        let b_fair = finish_of(SchedulingPolicy::FairShare, "b");
        assert!(
            b_fair < b_fifo,
            "fair share must serve the small late tenant sooner \
             (fair {b_fair:.1}s vs fifo {b_fifo:.1}s)"
        );
    }

    #[test]
    fn min_share_preemption_reclaims_slots_and_is_counted() {
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("bulk")).unwrap();
        t.add_queue(QueueConfig::new("urgent").with_min_share(8))
            .unwrap();
        // Bulk saturates every map slot with 100s tasks before urgent
        // arrives: without preemption urgent waits 100s for a slot.
        let long = JobDemand {
            name: "long".into(),
            maps: (0..32)
                .map(|i| TaskDemand {
                    duration: 100.0,
                    replicas: vec![i % 4],
                })
                .collect(),
            reduces: vec![1.0],
        };
        let demands = vec![
            tenant("bulk", 0.0, vec![long]),
            tenant("urgent", 10.0, vec![job(8, 2)]),
        ];
        let r = t.arbitrate(&demands).unwrap();
        let bulk = r.queues.iter().find(|q| q.queue == "bulk").unwrap();
        let urgent = r.queues.iter().find(|q| q.queue == "urgent").unwrap();
        assert_eq!(bulk.tasks_preempted, 8, "urgent reclaims its min share");
        assert_eq!(r.counters.get(Counter::TasksPreempted), 8);
        assert!(
            urgent.finish_secs < 40.0,
            "urgent must not wait out the 100s tasks (finished {:.1}s)",
            urgent.finish_secs
        );
        // The preempted work still completes: bulk finishes everything.
        assert!(bulk.finish_secs > 100.0);
    }

    #[test]
    fn symmetric_starved_queues_do_not_livelock() {
        // Two queues each below their min share and each ≥1 slot over
        // their weighted target (weights 1/1/30 on 32 slots put a and
        // b's targets at 1 slot) must not kill each other's attempts
        // in an endless ping-pong: queues at or below their own min
        // share are never preemption victims.
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("a").with_min_share(16))
            .unwrap();
        t.add_queue(QueueConfig::new("b").with_min_share(16))
            .unwrap();
        t.add_queue(QueueConfig::new("c").with_weight(30.0))
            .unwrap();
        let demands = vec![
            tenant("a", 0.0, vec![job(36, 2)]),
            tenant("b", 0.0, vec![job(36, 2)]),
            tenant("c", 0.0, vec![job(36, 2)]),
        ];
        let r = t.arbitrate(&demands).unwrap();
        assert!(r.makespan > 0.0);
        assert_eq!(r.queues.len(), 3, "every queue's demand must run");
    }

    #[test]
    fn starved_min_share_queue_preempts_even_when_not_first_pick() {
        // "idle" (lower index, deficit 0, min share 0) is the policy's
        // first pick but cannot place on the saturated cluster; its
        // failure must not abort the pass before "urgent" — starved
        // below its min share — gets its preemption opportunity.
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("bulk")).unwrap();
        t.add_queue(QueueConfig::new("idle")).unwrap();
        t.add_queue(QueueConfig::new("urgent").with_min_share(8))
            .unwrap();
        let long = JobDemand {
            name: "long".into(),
            maps: (0..40)
                .map(|i| TaskDemand {
                    duration: 100.0,
                    replicas: vec![i % 4],
                })
                .collect(),
            reduces: vec![1.0],
        };
        let demands = vec![
            tenant("bulk", 0.0, vec![long]),
            tenant("idle", 10.0, vec![job(4, 1)]),
            tenant("urgent", 10.0, vec![job(8, 2)]),
        ];
        let r = t.arbitrate(&demands).unwrap();
        let bulk = r.queues.iter().find(|q| q.queue == "bulk").unwrap();
        let urgent = r.queues.iter().find(|q| q.queue == "urgent").unwrap();
        assert_eq!(bulk.tasks_preempted, 8, "urgent reclaims its min share");
        assert!(
            urgent.finish_secs < 40.0,
            "urgent must not wait out the 100s tasks (finished {:.1}s)",
            urgent.finish_secs
        );
    }

    #[test]
    fn running_reduces_do_not_block_map_preemption() {
        // min_share_slots is per pool: a queue whose tenants hold 8
        // reduce slots is still entitled to preempt for maps when it
        // runs zero maps against a min share of 4.
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("m").with_min_share(4))
            .unwrap();
        t.add_queue(QueueConfig::new("bulk")).unwrap();
        let reducer_heavy = JobDemand {
            name: "reducer-heavy".into(),
            maps: vec![TaskDemand {
                duration: 1.0,
                replicas: vec![0],
            }],
            reduces: vec![200.0; 8],
        };
        let long = JobDemand {
            name: "long".into(),
            maps: (0..40)
                .map(|i| TaskDemand {
                    duration: 100.0,
                    replicas: vec![i % 4],
                })
                .collect(),
            reduces: vec![1.0],
        };
        let demands = vec![
            tenant("m", 0.0, vec![reducer_heavy]),
            tenant("bulk", 0.0, vec![long]),
            // Arrives while the first tenant's 8 reduces are running
            // and bulk holds every map slot with 100s tasks.
            tenant("m", 20.0, vec![job(4, 2)]),
        ];
        let r = t.arbitrate(&demands).unwrap();
        let bulk = r.queues.iter().find(|q| q.queue == "bulk").unwrap();
        assert_eq!(
            bulk.tasks_preempted, 4,
            "the map-pool min share must be enforced despite 8 running reduces"
        );
    }

    #[test]
    fn preemption_respects_locality_on_the_victim_node() {
        // bulk fills node 3 locally then spills onto nodes 0..2; the
        // preemption victim is its latest attempt, on node 2. The
        // starved queue's head map wants node 1, its second map wants
        // node 2 — the re-scan against the freed node must run the
        // second map there (node-local) instead of the head (remote).
        let mut t = tracker(SchedulingPolicy::FairShare);
        t.add_queue(QueueConfig::new("bulk")).unwrap();
        t.add_queue(QueueConfig::new("u").with_min_share(1))
            .unwrap();
        let skewed = JobDemand {
            name: "skewed".into(),
            maps: (0..32)
                .map(|_| TaskDemand {
                    duration: 100.0,
                    replicas: vec![3],
                })
                .collect(),
            reduces: vec![1.0],
        };
        let urgent = JobDemand {
            name: "urgent".into(),
            maps: vec![
                TaskDemand {
                    duration: 100.0,
                    replicas: vec![1],
                },
                TaskDemand {
                    duration: 100.0,
                    replicas: vec![2],
                },
            ],
            reduces: vec![1.0],
        };
        let demands = vec![
            tenant("bulk", 0.0, vec![skewed]),
            tenant("u", 10.0, vec![urgent]),
        ];
        let r = t.arbitrate(&demands).unwrap();
        let u = r.queues.iter().find(|q| q.queue == "u").unwrap();
        let bulk = r.queues.iter().find(|q| q.queue == "bulk").unwrap();
        assert_eq!(bulk.tasks_preempted, 1, "min share 1 preempts exactly once");
        assert_eq!(
            u.maps_remote, 0,
            "the map with a replica on the freed node must take it"
        );
        assert_eq!(u.maps_node_local, 2);
    }
}
