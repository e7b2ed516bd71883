//! Simulated cluster topology.
//!
//! The paper's testbed is "a cluster consisting of 4 nodes. Each node is
//! equipped with 2 quad-core Xeon processors and 32GB of RAM" (§5), and
//! the scalability experiment (Table 4 / Figure 5) grows it to 8 and 12
//! nodes. [`ClusterConfig`] captures exactly the knobs the algorithms
//! read:
//!
//! * the **total reduce capacity** (`nodes × reduce_slots_per_node`) —
//!   one half of the TestClusters strategy-switch condition;
//! * the **per-task heap** — the other half, through
//!   [`crate::memory::HeapEstimator`];
//! * the slot counts the wave scheduler packs simulated tasks onto.

use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::faults::{FaultPlan, MembershipPlan, NodeStatus};

/// Out-of-core execution policy: when and how map tasks spill their
/// sort buffers to disk instead of buffering every emission in memory.
///
/// Disabled by default — the buffer-everything mode is the reference
/// behaviour every golden fingerprint pins. Enabling spilling changes
/// *where* intermediate bytes live, never *what* the job computes:
/// spilled runs are raw (uncombined) sorted emission windows, merged
/// with a run-index tie-break and combined once over the merged
/// stream, so the final map output is byte-identical to the buffered
/// path (DESIGN.md §17 walks the argument). Spill runs are always
/// block-compressed, as with Hadoop's `mapred.compress.map.output` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfCoreConfig {
    /// Master switch: spill map sort buffers to disk on overflow and
    /// rescue injected heap faults by spilling instead of dying.
    pub spill_enabled: bool,
    /// Map-side sort buffer size in bytes (Hadoop's `io.sort.mb`,
    /// default 32 MiB). A spill is also forced whenever the task's
    /// heap ledger refuses the buffer's next charge.
    pub sort_buffer_bytes: u64,
    /// Maximum runs merged in one pass (Hadoop's `io.sort.factor`,
    /// default 16). More runs than this triggers intermediate merge
    /// passes, counted in `shuffle_merge_passes`.
    pub merge_fan_in: usize,
    /// Spill-file block size in bytes (default 256 KiB): the unit of
    /// checksumming, compression and read-side buffering.
    pub spill_block_bytes: usize,
}

impl Default for OutOfCoreConfig {
    fn default() -> Self {
        Self {
            spill_enabled: false,
            sort_buffer_bytes: 32 << 20,
            merge_fan_in: 16,
            spill_block_bytes: 256 << 10,
        }
    }
}

impl OutOfCoreConfig {
    /// Spilling enabled with the default buffer sizes.
    pub fn enabled() -> Self {
        Self {
            spill_enabled: true,
            ..Self::default()
        }
    }

    /// This policy with a different sort-buffer size.
    pub fn with_sort_buffer(mut self, bytes: u64) -> Self {
        self.sort_buffer_bytes = bytes;
        self
    }

    /// This policy with a different merge fan-in.
    pub fn with_merge_fan_in(mut self, fan_in: usize) -> Self {
        self.merge_fan_in = fan_in;
        self
    }

    /// This policy with a different spill block size.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.spill_block_bytes = bytes;
        self
    }

    /// Validates the policy (called from cluster validation).
    pub fn validate(&self) -> Result<()> {
        if !self.spill_enabled {
            return Ok(());
        }
        if self.sort_buffer_bytes == 0 {
            return Err(Error::Config("sort_buffer_bytes must be positive".into()));
        }
        if self.merge_fan_in < 2 {
            return Err(Error::Config("merge_fan_in must be at least 2".into()));
        }
        if self.spill_block_bytes == 0 {
            return Err(Error::Config("spill_block_bytes must be positive".into()));
        }
        Ok(())
    }
}

/// Static description of the (simulated) cluster a job runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// Heap available to each task attempt, in bytes.
    pub heap_per_task: u64,
    /// Cost model used to convert task work into simulated seconds.
    pub cost_model: CostModel,
    /// Fault injection and recovery policy (inert by default).
    pub faults: FaultPlan,
    /// DFS block replication factor (HDFS `dfs.replication`, default
    /// 3). Capped at the number of nodes that can hold a copy.
    pub dfs_replication: usize,
    /// Scheduled cluster-membership events — joins, graceful
    /// decommissions, revocation sweeps (fixed membership by default).
    /// `nodes` is the *base* cluster; joins extend it up to
    /// [`ClusterConfig::peak_nodes`].
    pub membership: MembershipPlan,
    /// Out-of-core execution policy (buffer-everything by default).
    pub out_of_core: OutOfCoreConfig,
}

impl Default for ClusterConfig {
    /// The paper's baseline: 4 nodes, 8 cores each (2 quad-core Xeons)
    /// exposed as 8 map and 8 reduce slots, 1 GiB of heap per task (a
    /// typical Hadoop-1 `mapred.child.java.opts` on 32 GB nodes).
    fn default() -> Self {
        Self {
            nodes: 4,
            map_slots_per_node: 8,
            reduce_slots_per_node: 8,
            heap_per_task: 1 << 30,
            cost_model: CostModel::default(),
            faults: FaultPlan::default(),
            dfs_replication: 3,
            membership: MembershipPlan::default(),
            out_of_core: OutOfCoreConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// A cluster like the default but with a different node count (the
    /// Table 4 / Figure 5 sweep).
    pub fn with_nodes(nodes: usize) -> Self {
        Self {
            nodes,
            ..Self::default()
        }
    }

    /// This cluster with a different fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// This cluster with a different DFS block replication factor.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.dfs_replication = replication;
        self
    }

    /// This cluster with a membership plan (joins, decommissions,
    /// revocation sweeps).
    pub fn with_membership(mut self, membership: MembershipPlan) -> Self {
        self.membership = membership;
        self
    }

    /// This cluster with an out-of-core execution policy.
    pub fn with_out_of_core(mut self, out_of_core: OutOfCoreConfig) -> Self {
        self.out_of_core = out_of_core;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::Config("cluster needs at least one node".into()));
        }
        if self.map_slots_per_node == 0 || self.reduce_slots_per_node == 0 {
            return Err(Error::Config("slot counts must be positive".into()));
        }
        if self.heap_per_task == 0 {
            return Err(Error::Config("per-task heap must be positive".into()));
        }
        if self.dfs_replication == 0 {
            return Err(Error::Config("dfs_replication must be positive".into()));
        }
        if let Some((_, node)) = self
            .faults
            .scheduled_node_crashes
            .iter()
            .find(|&(_, n)| n as usize >= self.peak_nodes())
        {
            return Err(Error::Config(format!(
                "scheduled crash names node {node} but the cluster peaks at {} nodes",
                self.peak_nodes()
            )));
        }
        self.faults.validate()?;
        self.membership.validate(self.nodes)?;
        self.out_of_core.validate()?;
        Ok(())
    }

    /// Size of the node universe: the base cluster plus every node that
    /// ever joins. Ids in `[nodes, peak_nodes)` exist only from their
    /// join epoch on.
    pub fn peak_nodes(&self) -> usize {
        self.membership.peak_nodes(self.nodes)
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.nodes * self.map_slots_per_node
    }

    /// Total reduce slots across the cluster — the paper's "total reduce
    /// capacity".
    pub fn total_reduce_slots(&self) -> usize {
        self.nodes * self.reduce_slots_per_node
    }

    /// Map slots available on `live_nodes` of the cluster's nodes — the
    /// capacity a degraded or elastic cluster actually schedules on.
    /// Callers must pass the **live** node count of
    /// [`ClusterConfig::node_status`], which excludes blacklisted,
    /// drained/decommissioned and not-yet-joined nodes alike, so the
    /// thread pool and the scheduler never over-subscribe a shrinking
    /// cluster (and do see the slots a join added).
    pub fn live_map_slots(&self, live_nodes: usize) -> usize {
        live_nodes * self.map_slots_per_node
    }

    /// Reduce slots available on `live_nodes` of the cluster's nodes.
    pub fn live_reduce_slots(&self, live_nodes: usize) -> usize {
        live_nodes * self.reduce_slots_per_node
    }

    /// Node weather at one job epoch under this cluster's fault *and*
    /// membership plans.
    pub fn node_status(&self, epoch: u64) -> NodeStatus {
        NodeStatus::compute(&self.faults, &self.membership, self.nodes, epoch)
    }

    /// Live map/reduce slot capacity at one job epoch: the slots on
    /// nodes that are present, not blacklisted and not drained.
    pub fn capacity_at(&self, epoch: u64) -> (usize, usize) {
        let live = self.node_status(epoch).live.len();
        (self.live_map_slots(live), self.live_reduce_slots(live))
    }

    /// Nodes of the universe that must not hold data or run work while
    /// epoch `epoch` executes: the epoch's [`NodeStatus::down`] nodes
    /// plus the next epoch's revocation victims (revocations are
    /// announced one epoch ahead — placing a fresh replica on a doomed
    /// node would just lose it again).
    pub fn unavailable_at(&self, epoch: u64) -> Vec<usize> {
        let mut down = self.node_status(epoch).down;
        for node in 0..self.peak_nodes() {
            if self.membership.revoked_at(epoch + 1, node) && !down.contains(&node) {
                down.push(node);
            }
        }
        down.sort_unstable();
        down
    }

    /// Number of OS threads the runtime actually uses to execute tasks:
    /// the simulated slot count, capped by the machine's parallelism so
    /// that simulating a 96-slot cluster on a laptop does not thrash.
    /// Callers pass the phase's *live* slot count
    /// ([`ClusterConfig::live_map_slots`] /
    /// [`ClusterConfig::live_reduce_slots`]), so a degraded cluster
    /// schedules on its actual surviving capacity, not the nominal
    /// `nodes × slots` total.
    pub fn execution_threads(&self, phase_slots: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        phase_slots.min(hw).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.total_map_slots(), 32);
        assert_eq!(c.total_reduce_slots(), 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_nodes_scales_slots() {
        let c = ClusterConfig::with_nodes(12);
        assert_eq!(c.total_reduce_slots(), 96);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            map_slots_per_node: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ClusterConfig {
            heap_per_task: 0,
            ..ClusterConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn replication_and_crash_targets_are_validated() {
        assert!(ClusterConfig::default()
            .with_replication(0)
            .validate()
            .is_err());
        assert!(ClusterConfig::default()
            .with_replication(1)
            .validate()
            .is_ok());
        // A scheduled crash must name a node the cluster has.
        let c = ClusterConfig::default().with_faults(FaultPlan::none().with_node_crash(1, 4));
        assert!(c.validate().is_err());
        let c = ClusterConfig::default().with_faults(FaultPlan::none().with_node_crash(1, 3));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn live_slots_scale_with_surviving_nodes() {
        let c = ClusterConfig::default();
        assert_eq!(c.live_map_slots(4), c.total_map_slots());
        assert_eq!(c.live_map_slots(3), 24);
        assert_eq!(c.live_reduce_slots(2), 16);
    }

    #[test]
    fn membership_is_validated_and_scales_capacity() {
        // A join target inside the base cluster is rejected.
        let c =
            ClusterConfig::default().with_membership(MembershipPlan::none().with_node_join(2, 3));
        assert!(c.validate().is_err());
        // A valid join grows the universe and, from its epoch, capacity.
        let c =
            ClusterConfig::default().with_membership(MembershipPlan::none().with_node_join(3, 4));
        assert!(c.validate().is_ok());
        assert_eq!(c.peak_nodes(), 5);
        assert_eq!(c.capacity_at(2), (32, 32));
        assert_eq!(c.capacity_at(3), (40, 40));
        // A scheduled crash may name a joined node.
        let c = c.with_faults(FaultPlan::none().with_node_crash(4, 4));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn decommission_shrinks_live_capacity() {
        let c = ClusterConfig::default()
            .with_membership(MembershipPlan::none().with_node_decommission(2, 1));
        assert!(c.validate().is_ok());
        assert_eq!(c.capacity_at(1), (32, 32));
        // The drained node's slots are gone — the thread pool and the
        // scheduler must not over-subscribe.
        assert_eq!(c.capacity_at(2), (24, 24));
        assert!(c.unavailable_at(2).contains(&1));
    }

    #[test]
    fn unavailable_includes_next_epochs_revocations() {
        let m = MembershipPlan::none()
            .with_seed(13)
            .with_revocation_sweeps(3, 0.5);
        let c = ClusterConfig::with_nodes(8).with_membership(m);
        assert!(c.validate().is_ok());
        let doomed: Vec<usize> = (0..8).filter(|&n| m.revoked_at(3, n)).collect();
        assert!(!doomed.is_empty(), "seed must revoke someone at epoch 3");
        // One epoch ahead of the sweep, the victims are already
        // unavailable as replica targets.
        let down = c.unavailable_at(2);
        for n in &doomed {
            assert!(down.contains(n), "node {n} dooms at 3, must be down at 2");
        }
    }

    #[test]
    fn out_of_core_config_is_validated() {
        // Disabled policies are never rejected, whatever the knobs say.
        let lax = OutOfCoreConfig {
            sort_buffer_bytes: 0,
            merge_fan_in: 0,
            spill_block_bytes: 0,
            ..OutOfCoreConfig::default()
        };
        assert!(ClusterConfig::default()
            .with_out_of_core(lax)
            .validate()
            .is_ok());
        assert!(ClusterConfig::default()
            .with_out_of_core(OutOfCoreConfig::enabled())
            .validate()
            .is_ok());
        for bad in [
            OutOfCoreConfig::enabled().with_sort_buffer(0),
            OutOfCoreConfig::enabled().with_merge_fan_in(1),
            OutOfCoreConfig::enabled().with_block_bytes(0),
        ] {
            assert!(
                ClusterConfig::default()
                    .with_out_of_core(bad)
                    .validate()
                    .is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn execution_threads_bounded() {
        let c = ClusterConfig::with_nodes(100);
        let t = c.execution_threads(c.total_map_slots());
        assert!(t >= 1);
        assert!(t <= 800);
        assert!(t <= std::thread::available_parallelism().unwrap().get());
    }
}
