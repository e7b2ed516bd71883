//! Hadoop-style job counters.
//!
//! §4 of the paper expresses every cost in terms of countable events —
//! dataset reads, distance computations, shuffled coordinates,
//! Anderson–Darling tests. The runtime increments framework counters
//! itself (records, bytes, spills); application code charges the
//! domain-specific ones through its [`crate::job::TaskContext`].
//!
//! Counters are plain atomics: tasks on different threads update them
//! concurrently without coordination, exactly like Hadoop's task-side
//! counter caches.
//!
//! Two families share the bank. *Logical* counters (records, bytes,
//! distance computations, AD tests…) are pure functions of the input
//! and the algorithm — bit-identical between a calm and a stormy run.
//! *Fault* counters (attempts failed/killed/fenced, fetch retries and
//! backoff, maps re-executed, zombie commits rejected…) are pure
//! functions of the [`crate::faults::FaultPlan`] and so equally
//! deterministic, but only nonzero under injected weather. The chaos
//! oracle (`crate::chaos`) leans on this split: logical counters must
//! never drift, fault counters must replay bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Error, Result};
use crate::writable::Writable;

/// The set of counters tracked for every job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Counter {
    /// Lines consumed by mappers.
    MapInputRecords,
    /// Pairs emitted by mappers (before combining).
    MapOutputRecords,
    /// Pairs entering combiners.
    CombineInputRecords,
    /// Pairs leaving combiners.
    CombineOutputRecords,
    /// Pairs entering reducers (after shuffle).
    ReduceInputRecords,
    /// Distinct keys reduced.
    ReduceInputGroups,
    /// Output items produced by reducers.
    ReduceOutputRecords,
    /// Bytes of serialized map output actually shuffled (post-combine).
    ShuffleBytes,
    /// Bytes of input read from the DFS.
    InputBytes,
    /// In-memory combine spills performed by map tasks.
    Spills,
    /// Euclidean distance computations (application counter; the unit of
    /// the paper's `O(nk)` bounds).
    DistanceComputations,
    /// Anderson–Darling tests performed (application counter).
    AdTests,
    /// Points projected onto split vectors (application counter).
    Projections,
    /// Peak bytes charged to any single task heap ledger.
    HeapPeakBytes,
    /// Task attempts launched (primary, retry and speculative).
    AttemptsLaunched,
    /// Task attempts that failed (injected or genuine).
    AttemptsFailed,
    /// Task attempts killed through no fault of their own — their node
    /// crashed under them. Killed attempts do not count against the
    /// task's failure budget (Hadoop's KILLED vs FAILED distinction).
    AttemptsKilled,
    /// Speculative backup attempts launched.
    SpeculativeLaunched,
    /// Speculative backups that lost the race to their primary.
    SpeculativeWasted,
    /// Checkpoints durably committed to the run journal.
    CheckpointsCommitted,
    /// Bytes of checkpoint state written to the run journal.
    CheckpointBytes,
    /// Input records quarantined as unparsable, dimension-mismatched or
    /// non-finite instead of poisoning the computation (Hadoop's
    /// bad-record skipping).
    BadRecordsSkipped,
    /// Bytes of quarantined bad records.
    BadRecordBytes,
    /// Worker nodes that crashed mid-job (one per node per job epoch).
    NodeCrashes,
    /// Completed map outputs invalidated because their node crashed
    /// before reducers fetched them.
    MapOutputsLost,
    /// Reduce-side fetch failures: one per (lost map output, reduce
    /// task) pair, as each reducer discovers the missing segment.
    ShuffleFetchFailures,
    /// Map tasks re-executed on surviving nodes to regenerate lost
    /// outputs.
    MapsReexecuted,
    /// Nodes removed from scheduling by the blacklist policy
    /// (max-semantics gauge: the high-water mark across jobs).
    NodesBlacklisted,
    /// DFS blocks copied to a new node after a crash reduced their
    /// replica count.
    DfsBlocksRereplicated,
    /// Map attempts whose winning attempt ran on a node holding a DFS
    /// replica of its input block (Hadoop's node-local placement).
    MapsNodeLocal,
    /// Map attempts whose winning attempt ran off-replica: the input
    /// block had to cross the network to reach its mapper.
    MapsRemote,
    /// Unused: nothing increments it, so it always reads 0. The slot
    /// stays because checkpoints serialize the whole bank in
    /// [`Counter::all`] order; removing it would change every committed
    /// checkpoint byte and the simulated clock of every checkpointed
    /// run.
    TasksPreempted,
    /// Nodes that joined the cluster mid-run (one per join epoch).
    NodeJoins,
    /// Nodes gracefully decommissioned: drained and removed only after
    /// their DFS blocks were copied off.
    NodesDecommissioned,
    /// Nodes hard-killed by a spot-style revocation sweep. Unlike
    /// [`Counter::NodeCrashes`] these are announced one epoch ahead and
    /// never count toward the blacklist budget.
    NodesRevoked,
    /// DFS blocks proactively copied toward a new topology by a join or
    /// a graceful decommission (distinct from the reactive
    /// [`Counter::DfsBlocksRereplicated`] after a crash).
    DfsBlocksRebalanced,
    /// Block replicas whose checksum verification failed on read; each
    /// detection falls back to the next replica.
    DfsCorruptBlocksDetected,
    /// Sort-buffer overflows that wrote a sorted run file to the
    /// mapper's local disk (external-sort spills, distinct from the
    /// in-memory combine [`Counter::Spills`]).
    ShuffleSpills,
    /// Serialized bytes written to spill run files (pre-compression).
    ShuffleSpillBytes,
    /// Intermediate merge passes performed because the number of
    /// spilled runs exceeded the merge fan-in.
    ShuffleMergePasses,
    /// Raw bytes fed into the block compressor (spill runs and
    /// compressed DFS segments).
    BytesCompressed,
    /// Raw bytes produced by the block decompressor on read.
    BytesDecompressed,
    /// Task attempts that would have died of an injected heap fault but
    /// degraded to the spill path instead (out-of-core enabled).
    HeapSpillRescues,
    /// Shuffle-fetch tries that flaked transiently and were retried
    /// after an exponential backoff (or escalated once the budget
    /// burned) — the network weather.
    FetchRetries,
    /// Whole simulated seconds of exponential-backoff wait charged to
    /// flaked shuffle fetches (rounded once per job).
    FetchBackoffSecs,
    /// Live attempts falsely declared dead by a heartbeat false
    /// positive and replaced by a duplicate. Fenced attempts are
    /// KILLED, not FAILED: they never consume the `max_attempts`
    /// retry budget.
    AttemptsFenced,
    /// Late commits by fenced zombie attempts rejected by the per-task
    /// commit fence — the exactly-one-visible-output guarantee made
    /// observable.
    ZombieCommitsRejected,
}

/// Number of counters (sizes [`Counters::values`] and [`ALL`]).
const COUNT: usize = 47;

/// All counters, indexable without a hash map.
const ALL: [Counter; COUNT] = [
    Counter::MapInputRecords,
    Counter::MapOutputRecords,
    Counter::CombineInputRecords,
    Counter::CombineOutputRecords,
    Counter::ReduceInputRecords,
    Counter::ReduceInputGroups,
    Counter::ReduceOutputRecords,
    Counter::ShuffleBytes,
    Counter::InputBytes,
    Counter::Spills,
    Counter::DistanceComputations,
    Counter::AdTests,
    Counter::Projections,
    Counter::HeapPeakBytes,
    Counter::AttemptsLaunched,
    Counter::AttemptsFailed,
    Counter::AttemptsKilled,
    Counter::SpeculativeLaunched,
    Counter::SpeculativeWasted,
    Counter::CheckpointsCommitted,
    Counter::CheckpointBytes,
    Counter::BadRecordsSkipped,
    Counter::BadRecordBytes,
    Counter::NodeCrashes,
    Counter::MapOutputsLost,
    Counter::ShuffleFetchFailures,
    Counter::MapsReexecuted,
    Counter::NodesBlacklisted,
    Counter::DfsBlocksRereplicated,
    Counter::MapsNodeLocal,
    Counter::MapsRemote,
    Counter::TasksPreempted,
    Counter::NodeJoins,
    Counter::NodesDecommissioned,
    Counter::NodesRevoked,
    Counter::DfsBlocksRebalanced,
    Counter::DfsCorruptBlocksDetected,
    Counter::ShuffleSpills,
    Counter::ShuffleSpillBytes,
    Counter::ShuffleMergePasses,
    Counter::BytesCompressed,
    Counter::BytesDecompressed,
    Counter::HeapSpillRescues,
    Counter::FetchRetries,
    Counter::FetchBackoffSecs,
    Counter::AttemptsFenced,
    Counter::ZombieCommitsRejected,
];

impl Counter {
    /// The counter's slot in a bank: its declaration index, which is its
    /// position in [`ALL`] (`counters_index_their_slot_in_all` checks).
    #[inline]
    fn index(self) -> usize {
        self as usize
    }

    /// Every counter, in display order.
    pub fn all() -> &'static [Counter] {
        &ALL
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MapInputRecords => "map_input_records",
            Counter::MapOutputRecords => "map_output_records",
            Counter::CombineInputRecords => "combine_input_records",
            Counter::CombineOutputRecords => "combine_output_records",
            Counter::ReduceInputRecords => "reduce_input_records",
            Counter::ReduceInputGroups => "reduce_input_groups",
            Counter::ReduceOutputRecords => "reduce_output_records",
            Counter::ShuffleBytes => "shuffle_bytes",
            Counter::InputBytes => "input_bytes",
            Counter::Spills => "spills",
            Counter::DistanceComputations => "distance_computations",
            Counter::AdTests => "anderson_darling_tests",
            Counter::Projections => "projections",
            Counter::HeapPeakBytes => "heap_peak_bytes",
            Counter::AttemptsLaunched => "task_attempts_launched",
            Counter::AttemptsFailed => "task_attempts_failed",
            Counter::AttemptsKilled => "task_attempts_killed",
            Counter::SpeculativeLaunched => "speculative_attempts_launched",
            Counter::SpeculativeWasted => "speculative_attempts_wasted",
            Counter::CheckpointsCommitted => "checkpoints_committed",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::BadRecordsSkipped => "bad_records_skipped",
            Counter::BadRecordBytes => "bad_record_bytes",
            Counter::NodeCrashes => "node_crashes",
            Counter::MapOutputsLost => "map_outputs_lost",
            Counter::ShuffleFetchFailures => "shuffle_fetch_failures",
            Counter::MapsReexecuted => "maps_reexecuted",
            Counter::NodesBlacklisted => "nodes_blacklisted",
            Counter::DfsBlocksRereplicated => "dfs_blocks_rereplicated",
            Counter::MapsNodeLocal => "maps_node_local",
            Counter::MapsRemote => "maps_remote",
            Counter::TasksPreempted => "tasks_preempted",
            Counter::NodeJoins => "node_joins",
            Counter::NodesDecommissioned => "nodes_decommissioned",
            Counter::NodesRevoked => "nodes_revoked",
            Counter::DfsBlocksRebalanced => "dfs_blocks_rebalanced",
            Counter::DfsCorruptBlocksDetected => "dfs_corrupt_blocks_detected",
            Counter::ShuffleSpills => "shuffle_spills",
            Counter::ShuffleSpillBytes => "shuffle_spill_bytes",
            Counter::ShuffleMergePasses => "shuffle_merge_passes",
            Counter::BytesCompressed => "bytes_compressed",
            Counter::BytesDecompressed => "bytes_decompressed",
            Counter::HeapSpillRescues => "heap_spill_rescues",
            Counter::FetchRetries => "fetch_retries",
            Counter::FetchBackoffSecs => "fetch_backoff_secs",
            Counter::AttemptsFenced => "attempts_fenced",
            Counter::ZombieCommitsRejected => "zombie_commits_rejected",
        }
    }
}

/// Thread-safe counter bank for one job (or one accumulated run).
#[derive(Debug)]
pub struct Counters {
    values: [AtomicU64; COUNT],
}

impl Default for Counters {
    fn default() -> Self {
        Self {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Counters {
    /// A zeroed counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.values[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Raises a high-water-mark counter to at least `value`.
    pub fn max(&self, counter: Counter, value: u64) {
        self.values[counter.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()].load(Ordering::Relaxed)
    }

    /// Folds another bank into this one. Max-semantics counters
    /// (`HeapPeakBytes`, `NodesBlacklisted`) take the maximum;
    /// everything else adds.
    pub fn merge(&self, other: &Counters) {
        for &c in Counter::all() {
            let v = other.get(c);
            match c {
                Counter::HeapPeakBytes | Counter::NodesBlacklisted => self.max(c, v),
                _ => self.add(c, v),
            }
        }
    }

    /// Immutable snapshot as `(counter, value)` pairs, zeros included.
    pub fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::all().iter().map(|&c| (c, self.get(c))).collect()
    }
}

/// Journal wire form: every value in [`Counter::all`] order, as a
/// length-prefixed `u64` vector. A bank of any other length is
/// [`Error::Corrupt`].
impl Writable for Counters {
    fn write(&self, buf: &mut Vec<u8>) {
        (COUNT as u32).write(buf);
        for v in &self.values {
            v.load(Ordering::Relaxed).write(buf);
        }
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let len = u32::read(buf)? as usize;
        if len != COUNT {
            return Err(Error::Corrupt(format!(
                "counter bank has {len} entries, runtime has {COUNT}"
            )));
        }
        let counters = Counters::new();
        for v in &counters.values {
            v.store(u64::read(buf)?, Ordering::Relaxed);
        }
        Ok(counters)
    }
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &c in Counter::all() {
            let v = self.get(c);
            if v != 0 {
                writeln!(f, "  {:>26}: {}", c.name(), v)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writable::{from_bytes, to_bytes};

    #[test]
    fn counters_round_trip_via_vec() {
        let c = Counters::new();
        c.add(Counter::DistanceComputations, 99);
        c.max(Counter::HeapPeakBytes, 1234);
        let back: Counters = from_bytes(&to_bytes(&c)).unwrap();
        for &counter in Counter::all() {
            assert_eq!(back.get(counter), c.get(counter));
        }
        assert!(from_bytes::<Counters>(&to_bytes(&vec![1u64, 2, 3])).is_err());
    }

    #[test]
    fn counters_index_their_slot_in_all() {
        for (i, c) in ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        c.add(Counter::MapInputRecords, 10);
        c.inc(Counter::MapInputRecords);
        assert_eq!(c.get(Counter::MapInputRecords), 11);
        assert_eq!(c.get(Counter::ShuffleBytes), 0);
    }

    #[test]
    fn max_semantics() {
        let c = Counters::new();
        c.max(Counter::HeapPeakBytes, 100);
        c.max(Counter::HeapPeakBytes, 50);
        assert_eq!(c.get(Counter::HeapPeakBytes), 100);
    }

    #[test]
    fn merge_adds_and_maxes() {
        let a = Counters::new();
        a.add(Counter::ShuffleBytes, 5);
        a.max(Counter::HeapPeakBytes, 10);
        let b = Counters::new();
        b.add(Counter::ShuffleBytes, 7);
        b.max(Counter::HeapPeakBytes, 3);
        a.merge(&b);
        assert_eq!(a.get(Counter::ShuffleBytes), 12);
        assert_eq!(a.get(Counter::HeapPeakBytes), 10);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc(Counter::DistanceComputations);
                    }
                });
            }
        });
        assert_eq!(c.get(Counter::DistanceComputations), 80_000);
    }

    #[test]
    fn node_failure_counters_have_issue_names() {
        for (c, name) in [
            (Counter::NodeCrashes, "node_crashes"),
            (Counter::MapOutputsLost, "map_outputs_lost"),
            (Counter::ShuffleFetchFailures, "shuffle_fetch_failures"),
            (Counter::MapsReexecuted, "maps_reexecuted"),
            (Counter::NodesBlacklisted, "nodes_blacklisted"),
            (Counter::DfsBlocksRereplicated, "dfs_blocks_rereplicated"),
        ] {
            assert_eq!(c.name(), name);
            assert!(Counter::all().contains(&c), "{name} missing from ALL");
        }
    }

    #[test]
    fn scheduler_counters_have_issue_names() {
        for (c, name) in [
            (Counter::MapsNodeLocal, "maps_node_local"),
            (Counter::MapsRemote, "maps_remote"),
            (Counter::TasksPreempted, "tasks_preempted"),
        ] {
            assert_eq!(c.name(), name);
            assert!(Counter::all().contains(&c), "{name} missing from ALL");
        }
    }

    #[test]
    fn elasticity_counters_have_issue_names() {
        for (c, name) in [
            (Counter::NodeJoins, "node_joins"),
            (Counter::NodesDecommissioned, "nodes_decommissioned"),
            (Counter::NodesRevoked, "nodes_revoked"),
            (Counter::DfsBlocksRebalanced, "dfs_blocks_rebalanced"),
            (
                Counter::DfsCorruptBlocksDetected,
                "dfs_corrupt_blocks_detected",
            ),
        ] {
            assert_eq!(c.name(), name);
            assert!(Counter::all().contains(&c), "{name} missing from ALL");
        }
    }

    #[test]
    fn out_of_core_counters_have_issue_names() {
        for (c, name) in [
            (Counter::ShuffleSpills, "shuffle_spills"),
            (Counter::ShuffleSpillBytes, "shuffle_spill_bytes"),
            (Counter::ShuffleMergePasses, "shuffle_merge_passes"),
            (Counter::BytesCompressed, "bytes_compressed"),
            (Counter::BytesDecompressed, "bytes_decompressed"),
            (Counter::HeapSpillRescues, "heap_spill_rescues"),
        ] {
            assert_eq!(c.name(), name);
            assert!(Counter::all().contains(&c), "{name} missing from ALL");
        }
    }

    #[test]
    fn chaos_counters_have_issue_names() {
        for (c, name) in [
            (Counter::FetchRetries, "fetch_retries"),
            (Counter::FetchBackoffSecs, "fetch_backoff_secs"),
            (Counter::AttemptsFenced, "attempts_fenced"),
            (Counter::ZombieCommitsRejected, "zombie_commits_rejected"),
        ] {
            assert_eq!(c.name(), name);
            assert!(Counter::all().contains(&c), "{name} missing from ALL");
        }
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::all().iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::all().len());
    }

    #[test]
    fn blacklist_gauge_merges_as_max() {
        let a = Counters::new();
        a.max(Counter::NodesBlacklisted, 2);
        let b = Counters::new();
        b.max(Counter::NodesBlacklisted, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::NodesBlacklisted), 2);
    }

    #[test]
    fn snapshot_covers_all_counters() {
        let c = Counters::new();
        assert_eq!(c.snapshot().len(), Counter::all().len());
    }

    #[test]
    fn display_skips_zeros() {
        let c = Counters::new();
        c.add(Counter::AdTests, 2);
        let s = c.to_string();
        assert!(s.contains("anderson_darling_tests"));
        assert!(!s.contains("shuffle_bytes"));
    }
}
