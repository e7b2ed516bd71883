//! The MapReduce programming model: mappers, reducers, combiners,
//! partitioners and per-task context.
//!
//! The API mirrors Hadoop's: a [`Job`] bundles the mapper/reducer
//! factories, an optional combiner and a partitioner. A mapper consumes
//! one of two record kinds: a [`LineMapper`] receives `(byte offset,
//! text line)` records exactly like `TextInputFormat`; a
//! [`PointMapper`] receives decoded points in blocks — every job in the
//! paper declares `Input: point (text)`, and the runtime parses the
//! text for it. Both task kinds get setup/close hooks — `close` matters
//! because the paper's `TestFewClusters` mapper (Algorithm 5) emits its
//! per-cluster statistics from `Close`, not from `Map`.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::counters::{Counter, Counters};
use crate::error::Result;
use crate::memory::HeapLedger;
use crate::writable::{ShuffleKey, ShuffleValue};

/// Per-task-attempt services: counters, the simulated heap ledger and
/// the compute-cost accumulator.
pub struct TaskContext {
    task: String,
    counters: Arc<Counters>,
    /// Simulated heap for this attempt. Buffering code must charge the
    /// bytes it holds; exceeding the configured limit fails the task
    /// with the paper's "Java heap space" error.
    pub heap: HeapLedger,
    compute_units: f64,
}

impl TaskContext {
    /// Creates a context for the named task attempt.
    pub fn new(task: impl Into<String>, counters: Arc<Counters>, heap_limit: u64) -> Self {
        let task = task.into();
        Self {
            heap: HeapLedger::new(task.clone(), heap_limit),
            task,
            counters,
            compute_units: 0.0,
        }
    }

    /// Name of the task attempt, e.g. `"map-3"`.
    pub fn task_name(&self) -> &str {
        &self.task
    }

    /// The job's counter bank.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Charges generic compute units to the simulated cost model (one
    /// unit ≈ one fused multiply-add).
    #[inline]
    pub fn charge_compute(&mut self, units: f64) {
        self.compute_units += units;
    }

    /// Convenience: records `count` distance computations in dimension
    /// `dim` — bumps the [`Counter::DistanceComputations`] counter and
    /// charges `count × dim` compute units.
    #[inline]
    pub fn charge_distances(&mut self, count: u64, dim: usize) {
        self.counters.add(Counter::DistanceComputations, count);
        self.compute_units += (count * dim as u64) as f64;
    }

    /// Total compute units charged so far.
    pub fn compute_units(&self) -> f64 {
        self.compute_units
    }

    /// Quarantines one bad input record (unparsable, wrong dimension,
    /// non-finite coordinates) instead of failing the task — Hadoop's
    /// bad-record skipping. Charges the skip counters; the record is
    /// otherwise dropped.
    pub fn skip_bad_record(&mut self, line: &str) {
        self.counters.inc(Counter::BadRecordsSkipped);
        self.counters
            .add(Counter::BadRecordBytes, line.len() as u64 + 1);
    }
}

/// Collects intermediate `(key, value)` pairs from a mapper, routing
/// them to reduce partitions.
///
/// The runtime owns the buffers; mappers only see `emit`.
pub struct Emitter<K, V> {
    partitions: Vec<Vec<(K, V)>>,
    records_since_spill: usize,
    emitted: u64,
    /// Serialized size of the buffered pairs — the sort-buffer bytes
    /// the out-of-core path triggers spills on and charges to the heap
    /// ledger. Only maintained when byte tracking is on, keeping the
    /// buffered hot path free of per-emit `byte_len` calls.
    buffered_bytes: u64,
    track_bytes: bool,
}

impl<K: ShuffleKey, V: ShuffleValue> Emitter<K, V> {
    pub(crate) fn new(num_partitions: usize) -> Self {
        Self {
            partitions: (0..num_partitions).map(|_| Vec::new()).collect(),
            records_since_spill: 0,
            emitted: 0,
            buffered_bytes: 0,
            track_bytes: false,
        }
    }

    /// An emitter that tracks the serialized size of its buffers, for
    /// spilling (out-of-core) map execution.
    pub(crate) fn with_byte_tracking(num_partitions: usize) -> Self {
        Self {
            track_bytes: true,
            ..Self::new(num_partitions)
        }
    }

    /// Emits one intermediate pair into partition `partition`.
    pub(crate) fn emit_to(&mut self, partition: usize, key: K, value: V) {
        if self.track_bytes {
            self.buffered_bytes += (key.byte_len() + value.byte_len()) as u64;
        }
        self.partitions[partition].push((key, value));
        self.records_since_spill += 1;
        self.emitted += 1;
    }

    pub(crate) fn records_since_spill(&self) -> usize {
        self.records_since_spill
    }

    pub(crate) fn reset_spill_window(&mut self) {
        self.records_since_spill = 0;
    }

    /// Serialized bytes currently buffered (byte-tracking mode only).
    pub(crate) fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }

    /// Resets the byte ledger after the runtime drains the buffers.
    pub(crate) fn reset_buffered_bytes(&mut self) {
        self.buffered_bytes = 0;
    }

    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    pub(crate) fn partitions_mut(&mut self) -> &mut [Vec<(K, V)>] {
        &mut self.partitions
    }

    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn into_partitions(self) -> Vec<Vec<(K, V)>> {
        self.partitions
    }
}

/// A handle mappers use to emit; wraps the emitter together with the
/// job's partitioner so application code never sees partition indices.
pub struct MapOutput<'a, K, V> {
    pub(crate) emitter: &'a mut Emitter<K, V>,
    pub(crate) partitioner: &'a dyn Fn(&K) -> usize,
    pub(crate) counters: &'a Counters,
}

impl<K: ShuffleKey, V: ShuffleValue> MapOutput<'_, K, V> {
    /// Emits one `(key, value)` pair.
    pub fn emit(&mut self, key: K, value: V) {
        let p = (self.partitioner)(&key);
        self.emitter.emit_to(p, key, value);
        self.counters.inc(Counter::MapOutputRecords);
    }
}

/// Map task logic common to both record kinds: the intermediate types
/// and the setup/close hooks. One instance is created per map task
/// attempt; a job's mapper also implements [`LineMapper`] or
/// [`PointMapper`], which decides how the runtime feeds it.
pub trait Mapper: Send {
    /// Intermediate key type.
    type Key: ShuffleKey;
    /// Intermediate value type.
    type Value: ShuffleValue;

    /// Called once before the first record (Hadoop `setup`).
    fn setup(&mut self, _ctx: &mut TaskContext) -> Result<()> {
        Ok(())
    }

    /// Called once after the last record (Hadoop `cleanup`); may emit.
    fn close(
        &mut self,
        _out: &mut MapOutput<'_, Self::Key, Self::Value>,
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Ok(())
    }
}

/// A mapper over raw text records, run by
/// [`crate::runtime::JobRunner::run_lines`].
pub trait LineMapper: Mapper {
    /// Called for every input record: the record's byte offset in the
    /// file and the text line.
    fn map(
        &mut self,
        offset: u64,
        line: &str,
        out: &mut MapOutput<'_, Self::Key, Self::Value>,
        ctx: &mut TaskContext,
    ) -> Result<()>;
}

/// A mapper over decoded points, run on a DFS text file by
/// [`crate::runtime::JobRunner::run`] and on a parsed-once cache by
/// [`crate::runtime::JobRunner::run_cached`].
///
/// Both feed the mapper the same way: blocks of at most
/// [`crate::runtime::MAP_BLOCK_POINTS`] points, each announced by
/// [`PointMapper::prepare_block`] and then consumed one point per
/// [`PointMapper::map_point`], in input order. A text map task parses
/// each line with [`PointMapper::parse_line`] and quarantines the lines
/// it rejects as bad records (Hadoop's bad-record skipping), at their
/// place in the record sequence.
pub trait PointMapper: Mapper {
    /// Dimensionality of the points this mapper consumes (positive).
    fn dim(&self) -> usize;

    /// Decodes one text line: appends exactly [`PointMapper::dim`]
    /// coordinates to `out` and returns true, or returns false and
    /// leaves `out` unchanged when the line is not a finite point of
    /// that dimension.
    fn parse_line(&self, line: &str, out: &mut Vec<f64>) -> bool;

    /// Processes one decoded point.
    fn map_point(
        &mut self,
        point: &[f64],
        out: &mut MapOutput<'_, Self::Key, Self::Value>,
        ctx: &mut TaskContext,
    ) -> Result<()>;

    /// Called with a flat block of points (and their squared norms)
    /// *before* the per-point [`PointMapper::map_point`] calls for those
    /// same points, in order.
    ///
    /// Mappers on a distance-heavy path compute nearest-center results
    /// for the whole block here (feeding the blocked kernel) and drain
    /// them one per `map_point` call, so emission order, spill
    /// boundaries, and counter timing are those of one point at a
    /// time. The default does nothing.
    fn prepare_block(
        &mut self,
        _points: &[f64],
        _norms: &[f64],
        _ctx: &mut TaskContext,
    ) -> Result<()> {
        Ok(())
    }
}

/// Streaming access to the values of one reduce group.
///
/// Values are decoded lazily from the fetched shuffle segments, so a
/// reducer that buffers them (like TestClusters) pays for that memory
/// itself through [`TaskContext::heap`].
pub struct Values<'a, V> {
    pub(crate) next_fn: &'a mut dyn FnMut() -> Option<V>,
}

impl<V> Iterator for Values<'_, V> {
    type Item = V;
    fn next(&mut self) -> Option<V> {
        (self.next_fn)()
    }
}

/// Reduce task logic. One instance is created per reduce task attempt.
pub trait Reducer: Send {
    /// Intermediate key type (must match the job's mapper).
    type Key: ShuffleKey;
    /// Intermediate value type (must match the job's mapper).
    type Value: ShuffleValue;
    /// Final output record type.
    type Output: Send + 'static;

    /// Called once before the first group.
    fn setup(&mut self, _ctx: &mut TaskContext) -> Result<()> {
        Ok(())
    }

    /// Called once per distinct key with all its values.
    fn reduce(
        &mut self,
        key: Self::Key,
        values: Values<'_, Self::Value>,
        out: &mut Vec<Self::Output>,
        ctx: &mut TaskContext,
    ) -> Result<()>;

    /// Called once after the last group; may append output.
    fn close(&mut self, _out: &mut Vec<Self::Output>, _ctx: &mut TaskContext) -> Result<()> {
        Ok(())
    }
}

/// A complete MapReduce job description.
///
/// The job object is shared (by reference) across all task threads; it
/// must therefore be `Sync` and create fresh mapper/reducer instances
/// per task.
pub trait Job: Sync {
    /// Intermediate key.
    type Key: ShuffleKey;
    /// Intermediate value.
    type Value: ShuffleValue;
    /// Final output record.
    type Output: Send + 'static;
    /// Mapper type.
    type Mapper: Mapper<Key = Self::Key, Value = Self::Value>;
    /// Reducer type.
    type Reducer: Reducer<Key = Self::Key, Value = Self::Value, Output = Self::Output>;

    /// Job name for diagnostics (e.g. `"KMeansAndFindNewCenters"`).
    fn name(&self) -> &str;

    /// Creates a mapper for one map task attempt.
    fn create_mapper(&self) -> Self::Mapper;

    /// Creates a reducer for one reduce task attempt.
    fn create_reducer(&self) -> Self::Reducer;

    /// Whether map-side combining is enabled. When `true`,
    /// [`Job::combine`] is applied to each key group at every spill and
    /// before map output is serialized for the shuffle.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Combines the values of one key on the map side. Must be
    /// semantically idempotent with respect to the reducer: the reducer
    /// sees combined values as if they were mapper emissions.
    fn combine(&self, _key: &Self::Key, values: Vec<Self::Value>) -> Vec<Self::Value> {
        values
    }

    /// Routes a key to one of `partitions` reduce tasks. The default is
    /// hash partitioning, like Hadoop's `HashPartitioner`.
    fn partition(&self, key: &Self::Key, partitions: usize) -> usize {
        default_partition(key, partitions)
    }
}

/// Hash partitioning with a process-deterministic hasher.
pub fn default_partition<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = std::hash::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Per-job tunables chosen by the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of reduce tasks (Hadoop's `mapred.reduce.tasks`).
    pub num_reduce_tasks: usize,
    /// Map-side buffer size, in records, before an in-memory combine
    /// spill (stands in for Hadoop's `io.sort.mb`).
    pub spill_threshold_records: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            num_reduce_tasks: 8,
            spill_threshold_records: 256 * 1024,
        }
    }
}

impl JobConfig {
    /// Config with an explicit reduce-task count.
    pub fn with_reducers(num_reduce_tasks: usize) -> Self {
        Self {
            num_reduce_tasks,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_partition_is_deterministic_and_in_range() {
        for key in 0i64..1000 {
            let p = default_partition(&key, 7);
            assert!(p < 7);
            assert_eq!(p, default_partition(&key, 7));
        }
    }

    #[test]
    fn default_partition_spreads_keys() {
        let mut hist = [0usize; 8];
        for key in 0i64..8000 {
            hist[default_partition(&key, 8)] += 1;
        }
        for (i, &h) in hist.iter().enumerate() {
            assert!(h > 500, "partition {i} starved: {h}");
        }
    }

    #[test]
    fn task_context_charges() {
        let counters = Arc::new(Counters::new());
        let mut ctx = TaskContext::new("map-0", Arc::clone(&counters), 1024);
        ctx.charge_distances(10, 5);
        ctx.charge_compute(25.0);
        assert_eq!(counters.get(Counter::DistanceComputations), 10);
        assert!((ctx.compute_units() - 75.0).abs() < 1e-12);
        assert_eq!(ctx.task_name(), "map-0");
    }

    #[test]
    fn emitter_tracks_serialized_bytes_only_when_asked() {
        let mut plain: Emitter<i64, f64> = Emitter::new(2);
        plain.emit_to(0, 1, 2.0);
        assert_eq!(plain.buffered_bytes(), 0, "untracked emitter stays at 0");

        let mut tracking: Emitter<i64, f64> = Emitter::with_byte_tracking(2);
        tracking.emit_to(0, 1, 2.0);
        tracking.emit_to(1, 2, 3.0);
        assert_eq!(tracking.buffered_bytes(), 2 * 16);
        tracking.reset_buffered_bytes();
        assert_eq!(tracking.buffered_bytes(), 0);
    }

    #[test]
    fn emitter_routes_partitions() {
        let counters = Counters::new();
        let mut emitter: Emitter<i64, f64> = Emitter::new(3);
        let partitioner = |k: &i64| (*k % 3) as usize;
        {
            let mut out = MapOutput {
                emitter: &mut emitter,
                partitioner: &partitioner,
                counters: &counters,
            };
            out.emit(0, 1.0);
            out.emit(1, 2.0);
            out.emit(3, 3.0);
        }
        assert_eq!(counters.get(Counter::MapOutputRecords), 3);
        assert_eq!(emitter.emitted(), 3);
        let parts = emitter.into_partitions();
        assert_eq!(parts[0], vec![(0, 1.0), (3, 3.0)]);
        assert_eq!(parts[1], vec![(1, 2.0)]);
        assert!(parts[2].is_empty());
    }
}
