//! The MapReduce programming model: mappers, reducers, combiners,
//! partitioners and per-task context.
//!
//! The API mirrors Hadoop's: a [`Job`] bundles the mapper/reducer
//! factories, an optional combiner and a partitioner. A [`Mapper`]
//! receives decoded points in blocks — every job in the paper declares
//! `Input: point (text)`, and the runtime parses the text for it. The
//! mapper's `close` hook matters because the paper's `TestFewClusters`
//! mapper (Algorithm 5) emits its per-cluster statistics from `Close`,
//! not from `Map`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::counters::{Counter, Counters};
use crate::error::Result;
use crate::hash::{FoldState, StableHasher};
use crate::memory::HeapLedger;
use crate::shuffle::{encode_segment, sort_and_combine, Segment};
use crate::writable::{ShuffleKey, ShuffleValue};

/// Per-task-attempt services: counters, the simulated heap ledger and
/// the compute-cost accumulator.
///
/// The per-record counts — distance computations and projections — are
/// plain adds to a tally that the runtime hands to the attempt's counter
/// bank once per block and when the attempt ends. No reader can tell
/// the difference: that bank is private to the attempt and merged into
/// the job's only when the attempt commits.
pub struct TaskContext {
    counters: Arc<Counters>,
    /// Simulated heap for this attempt. Buffering code must charge the
    /// bytes it holds; exceeding the configured limit fails the task
    /// with the paper's "Java heap space" error.
    pub heap: HeapLedger,
    compute_units: f64,
    /// [`Counter::DistanceComputations`] since the last flush.
    distances: u64,
    /// [`Counter::Projections`] since the last flush.
    projections: u64,
}

impl TaskContext {
    /// Creates a context for the named task attempt.
    pub fn new(task: impl Into<String>, counters: Arc<Counters>, heap_limit: u64) -> Self {
        Self {
            heap: HeapLedger::new(task.into(), heap_limit),
            counters,
            compute_units: 0.0,
            distances: 0,
            projections: 0,
        }
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

    /// Records `count` distance computations in dimension `dim`: adds
    /// them to the attempt's tally of [`Counter::DistanceComputations`]
    /// and charges `count × dim` compute units. The tally reaches the
    /// counter bank when the runtime flushes it, once per block and when
    /// the attempt ends.
    #[inline]
    pub fn charge_distances(&mut self, count: u64, dim: usize) {
        self.distances += count;
        self.compute_units += (count * dim as u64) as f64;
    }

    /// Records `count` points projected onto split vectors in dimension
    /// `dim`: adds them to the attempt's tally of [`Counter::Projections`]
    /// and charges `count × dim` compute units, flushed like
    /// [`TaskContext::charge_distances`].
    #[inline]
    pub fn charge_projections(&mut self, count: u64, dim: usize) {
        self.projections += count;
        self.compute_units += (count * dim as u64) as f64;
    }

    /// Adds the tallied distance computations and projections to the
    /// counter bank and restarts the tally.
    pub(crate) fn flush_tally(&mut self) {
        let (distances, projections) = (
            std::mem::take(&mut self.distances),
            std::mem::take(&mut self.projections),
        );
        self.counters.add(Counter::DistanceComputations, distances);
        self.counters.add(Counter::Projections, projections);
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

/// Collects a map attempt's intermediate `(key, value)` pairs.
///
/// A buffered attempt of a combiner job keeps one accumulator per key:
/// [`MapOutput::emit`] finds the key — routing it to its partition the
/// first time the attempt sees it — and folds the borrowed value in
/// through [`Job::combine`] at once, which copies only a key's first
/// value. Every other attempt, one that may spill or one of a job
/// without a combiner, keeps the raw sort buffer: one vector of pairs
/// per partition, in emission order, each value a clone of the emitted
/// one, because spill runs must hold raw records.
///
/// The runtime owns the buffers; mappers only see `emit`.
pub struct Emitter<K, V> {
    buffer: Buffer<K, V>,
    /// Emissions since the spill window last closed.
    records_since_spill: usize,
    /// Emissions not yet counted as [`Counter::MapOutputRecords`].
    emitted: u64,
    /// Records the accumulators held when the window last closed: the
    /// combined records a window's combine reads again, on top of the
    /// window's emissions.
    held_at_window: usize,
}

/// Where an [`Emitter`] keeps its pairs.
enum Buffer<K, V> {
    /// Raw pairs per partition, in emission order. `bytes` is their
    /// serialized size on an attempt that may spill — the sort-buffer
    /// bytes the out-of-core path spills on and charges to the heap
    /// ledger — and `None` elsewhere, keeping the buffered hot path free
    /// of per-emit `byte_len` calls.
    Raw {
        partitions: Vec<Vec<(K, V)>>,
        bytes: Option<u64>,
    },
    /// Per key: its partition and its combined records so far; and the
    /// number of partitions. The key map hashes with [`FoldState`], not
    /// SipHash: every emission looks its key up once.
    Fold {
        keys: HashMap<K, (usize, Vec<V>), FoldState>,
        partitions: usize,
    },
}

impl<K: ShuffleKey, V: ShuffleValue> Emitter<K, V> {
    /// An emitter that keeps the raw sort buffer over `num_partitions`
    /// partitions; `track_bytes` keeps its serialized size, for an
    /// attempt that may spill.
    pub(crate) fn raw(num_partitions: usize, track_bytes: bool) -> Self {
        Self::with(Buffer::Raw {
            partitions: (0..num_partitions).map(|_| Vec::new()).collect(),
            bytes: track_bytes.then_some(0),
        })
    }

    /// An emitter that folds each value into its key's accumulator as
    /// it is emitted, routing keys over `num_partitions` partitions.
    pub(crate) fn folding(num_partitions: usize) -> Self {
        Self::with(Buffer::Fold {
            keys: HashMap::with_hasher(FoldState::new()),
            partitions: num_partitions,
        })
    }

    fn with(buffer: Buffer<K, V>) -> Self {
        Self {
            buffer,
            records_since_spill: 0,
            emitted: 0,
            held_at_window: 0,
        }
    }

    /// Takes one intermediate pair: folds the value into its key's
    /// accumulator through `combine`, or appends a clone of it to its
    /// partition's raw buffer.
    fn emit(
        &mut self,
        key: K,
        value: &V,
        partition: Partitioner<'_, K>,
        combine: Combiner<'_, K, V>,
    ) {
        self.records_since_spill += 1;
        self.emitted += 1;
        match &mut self.buffer {
            Buffer::Fold { keys, .. } => {
                if let Some((_, acc)) = keys.get_mut(&key) {
                    combine(&key, acc, value);
                } else {
                    let mut acc = Vec::new();
                    combine(&key, &mut acc, value);
                    let partition = partition(&key);
                    keys.insert(key, (partition, acc));
                }
            }
            Buffer::Raw { partitions, bytes } => {
                if let Some(bytes) = bytes {
                    *bytes += (key.byte_len() + value.byte_len()) as u64;
                }
                partitions[partition(&key)].push((key, value.clone()));
            }
        }
    }

    pub(crate) fn records_since_spill(&self) -> usize {
        self.records_since_spill
    }

    /// The emissions since the last call: the attempt's
    /// [`Counter::MapOutputRecords`] tally.
    pub(crate) fn take_emitted(&mut self) -> u64 {
        std::mem::take(&mut self.emitted)
    }

    /// Closes the spill window. The pairs stay where they are: a later
    /// stable sort orders a raw buffer the same way, and a left fold
    /// gives the same bits whether or not it stops at a window. A raw
    /// emitter only restarts its count. A folding emitter charges the
    /// combine counters as Hadoop's in-memory combine of the window would
    /// tally them: every record held at the last window plus every
    /// emission since in, every record held now out.
    pub(crate) fn close_window(&mut self, counters: &Counters) {
        if let Buffer::Fold { keys, .. } = &self.buffer {
            let held = keys.values().map(|(_, acc)| acc.len()).sum::<usize>();
            let input = self.held_at_window + self.records_since_spill;
            counters.add(Counter::CombineInputRecords, input as u64);
            counters.add(Counter::CombineOutputRecords, held as u64);
            self.held_at_window = held;
        }
        self.records_since_spill = 0;
    }

    /// Serialized bytes of the raw buffer (byte-tracking mode only).
    pub(crate) fn buffered_bytes(&self) -> u64 {
        match self.buffer {
            Buffer::Raw {
                bytes: Some(bytes), ..
            } => bytes,
            _ => 0,
        }
    }

    /// Resets the byte ledger after the runtime drains the raw buffer.
    pub(crate) fn reset_buffered_bytes(&mut self) {
        if let Buffer::Raw {
            bytes: Some(bytes), ..
        } = &mut self.buffer
        {
            *bytes = 0;
        }
    }

    /// The raw buffer, for a spilling attempt to sort and write out.
    ///
    /// # Panics
    /// Panics on a folding emitter, which no spilling attempt has.
    pub(crate) fn partitions_mut(&mut self) -> &mut [Vec<(K, V)>] {
        match &mut self.buffer {
            Buffer::Raw { partitions, .. } => partitions,
            Buffer::Fold { .. } => unreachable!("a spilling attempt keeps the raw sort buffer"),
        }
    }

    /// Seals a buffered attempt's output into one segment per partition:
    /// drains the accumulators in key order, each through
    /// [`Job::finish_combine`], or sorts each raw partition and combines
    /// it when the job has a combiner ([`sort_and_combine`]), then
    /// serializes it.
    pub(crate) fn seal<J>(&mut self, job: &J, counters: &Counters) -> Vec<Segment>
    where
        J: Job<Key = K, Value = V>,
    {
        self.close_window(counters);
        match &mut self.buffer {
            Buffer::Fold { keys, partitions } => {
                let mut keys: Vec<_> = std::mem::take(keys).into_iter().collect();
                keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                let mut segments = vec![Segment::default(); *partitions];
                for (key, (partition, acc)) in &mut keys {
                    job.finish_combine(key, acc);
                    for value in acc.iter() {
                        segments[*partition].push(key, value);
                    }
                }
                segments
            }
            Buffer::Raw { partitions, .. } => partitions
                .iter_mut()
                .map(|part| {
                    sort_and_combine(job, part, counters);
                    encode_segment(part)
                })
                .collect(),
        }
    }
}

/// A job's partitioner over the attempt's reduce tasks.
pub(crate) type Partitioner<'a, K> = &'a dyn Fn(&K) -> usize;

/// A job's [`Job::combine`].
pub(crate) type Combiner<'a, K, V> = &'a dyn Fn(&K, &mut Vec<V>, &V);

/// A handle mappers use to emit; wraps the emitter together with the
/// job's partitioner and combiner so application code never sees
/// partition indices or accumulators.
pub struct MapOutput<'a, K, V> {
    pub(crate) emitter: &'a mut Emitter<K, V>,
    pub(crate) partitioner: Partitioner<'a, K>,
    pub(crate) combiner: Combiner<'a, K, V>,
}

impl<K: ShuffleKey, V: ShuffleValue> MapOutput<'_, K, V> {
    /// Emits one `(key, value)` pair. The value is borrowed: a buffered
    /// attempt of a combiner job folds it into the key's accumulator
    /// through [`Job::combine`], which copies it only when it is the
    /// key's first; any other attempt buffers a clone. So a mapper can
    /// refill one scratch value per record instead of allocating one.
    /// The emission counts as one [`Counter::MapOutputRecords`], tallied
    /// like [`TaskContext::charge_distances`].
    pub fn emit(&mut self, key: K, value: &V) {
        self.emitter
            .emit(key, value, self.partitioner, self.combiner);
    }
}

/// Map task logic. One instance is created per map task attempt.
///
/// The runtime feeds a mapper from a DFS text file
/// ([`crate::runtime::JobRunner::run`]) and from a parsed-once cache
/// ([`crate::runtime::JobRunner::run_cached`]) the same way: blocks of
/// at most [`crate::runtime::MAP_BLOCK_POINTS`] points, in input order.
/// For each block that holds a point it calls [`Mapper::prepare_block`]
/// once, then [`Mapper::map_point`] once per point, handing each point
/// its row.
/// A text map task parses its split with [`crate::text::PointLines`],
/// and quarantines each line that is not a finite point of
/// [`Mapper::dim`] coordinates as a bad record (Hadoop's bad-record
/// skipping), at its place in the record sequence.
pub trait Mapper: Send {
    /// Intermediate key type.
    type Key: ShuffleKey;
    /// Intermediate value type.
    type Value: ShuffleValue;
    /// What [`Mapper::prepare_block`] computes for one point — for every
    /// job in the paper, its nearest center.
    type Row;

    /// Dimensionality of the points this mapper consumes (positive).
    fn dim(&self) -> usize;

    /// Computes one row per point of a flat block of points (given with
    /// their squared norms), in order; any other number of rows fails
    /// the map task. Distance-heavy mappers run the blocked
    /// nearest-center kernel over the whole block here; the emissions
    /// stay in [`Mapper::map_point`], so emission order, spill
    /// boundaries and counter timing are those of one point at a time.
    fn prepare_block(
        &mut self,
        points: &[f64],
        norms: &[f64],
        ctx: &mut TaskContext,
    ) -> Result<Vec<Self::Row>>;

    /// Processes one point with the row [`Mapper::prepare_block`]
    /// computed for it.
    fn map_point(
        &mut self,
        point: &[f64],
        row: Self::Row,
        out: &mut MapOutput<'_, Self::Key, Self::Value>,
        ctx: &mut TaskContext,
    ) -> Result<()>;

    /// Called once after the last point (Hadoop `cleanup`); may emit.
    fn close(
        &mut self,
        _out: &mut MapOutput<'_, Self::Key, Self::Value>,
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

    /// Called once per distinct key with all its values.
    fn reduce(
        &mut self,
        key: Self::Key,
        values: Values<'_, Self::Value>,
        out: &mut Vec<Self::Output>,
        ctx: &mut TaskContext,
    ) -> Result<()>;
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

    /// Whether map-side combining is enabled. When `true`, every map
    /// attempt folds its emissions through [`Job::combine`] before they
    /// are serialized for the shuffle.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Folds the borrowed `value` into `acc`, the records this map
    /// attempt has combined for `key` so far, which start empty. A
    /// combiner clones what it keeps of `value` and adds into what `acc`
    /// already holds in place, so only a key's first value is copied.
    ///
    /// The runtime folds each key's values from one map attempt once, in
    /// emission order: either as they are emitted (a buffered attempt
    /// keeps one accumulator per key) or while merging the raw runs of
    /// an attempt that spilled. What `acc` holds after the last value,
    /// passed through [`Job::finish_combine`], is the key's combined
    /// output, and the reducer sees those records as if they were mapper
    /// emissions, so a combiner must be semantically idempotent with
    /// respect to the reducer. The default keeps every value.
    fn combine(&self, _key: &Self::Key, acc: &mut Vec<Self::Value>, value: &Self::Value) {
        acc.push(value.clone());
    }

    /// Finishes `key`'s combined records when the runtime drains them
    /// from a map attempt, just before they are serialized: once per key
    /// per attempt, after its last [`Job::combine`]. A combiner that
    /// keeps working state in its accumulator — the candidate channel
    /// keeps each kept point's priority in its count — restores the
    /// records it emits here. The default leaves them as they are.
    fn finish_combine(&self, _key: &Self::Key, _combined: &mut Vec<Self::Value>) {}

    /// Routes a key to one of `partitions` reduce tasks. The default is
    /// hash partitioning, like Hadoop's `HashPartitioner`.
    fn partition(&self, key: &Self::Key, partitions: usize) -> usize {
        default_partition(key, partitions)
    }
}

/// Hash partitioning with [`StableHasher`], the same on every run and
/// every toolchain.
pub fn default_partition<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = StableHasher::new();
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

    /// The counts are tallied and reach the bank when the tally is
    /// flushed; compute units are charged at once.
    #[test]
    fn task_context_charges() {
        let counters = Arc::new(Counters::new());
        let mut ctx = TaskContext::new("map-0", Arc::clone(&counters), 1024);
        ctx.charge_distances(10, 5);
        ctx.charge_projections(3, 5);
        ctx.charge_compute(25.0);
        assert_eq!(counters.get(Counter::DistanceComputations), 0);
        assert!((ctx.compute_units() - 90.0).abs() < 1e-12);
        ctx.flush_tally();
        assert_eq!(counters.get(Counter::DistanceComputations), 10);
        assert_eq!(counters.get(Counter::Projections), 3);
        ctx.flush_tally();
        assert_eq!(counters.get(Counter::DistanceComputations), 10);
    }

    /// Sums a key's values.
    fn sum(_key: &i64, acc: &mut Vec<f64>, value: &f64) {
        match acc.first_mut() {
            Some(total) => *total += value,
            None => acc.push(*value),
        }
    }

    /// Emits `pairs`, routing `k` to `k mod 3` and summing values, then
    /// flushes the emission tally into `counters`.
    fn emit_all(emitter: &mut Emitter<i64, f64>, counters: &Counters, pairs: &[(i64, f64)]) {
        let mut out = MapOutput {
            emitter: &mut *emitter,
            partitioner: &|k: &i64| (*k % 3) as usize,
            combiner: &sum,
        };
        for (k, v) in pairs {
            out.emit(*k, v);
        }
        counters.add(Counter::MapOutputRecords, emitter.take_emitted());
    }

    #[test]
    fn emitter_tracks_serialized_bytes_only_when_asked() {
        let counters = Counters::new();
        let mut plain: Emitter<i64, f64> = Emitter::raw(3, false);
        emit_all(&mut plain, &counters, &[(1, 2.0)]);
        assert_eq!(plain.buffered_bytes(), 0, "untracked emitter stays at 0");

        let mut tracking: Emitter<i64, f64> = Emitter::raw(3, true);
        emit_all(&mut tracking, &counters, &[(1, 2.0), (2, 3.0)]);
        assert_eq!(tracking.buffered_bytes(), 2 * 16);
        tracking.reset_buffered_bytes();
        assert_eq!(tracking.buffered_bytes(), 0);
    }

    #[test]
    fn emitter_routes_partitions() {
        let counters = Counters::new();
        let mut emitter: Emitter<i64, f64> = Emitter::raw(3, false);
        emit_all(&mut emitter, &counters, &[(0, 1.0), (1, 2.0), (3, 3.0)]);
        assert_eq!(counters.get(Counter::MapOutputRecords), 3);
        let parts = emitter.partitions_mut();
        assert_eq!(parts[0], vec![(0, 1.0), (3, 3.0)]);
        assert_eq!(parts[1], vec![(1, 2.0)]);
        assert!(parts[2].is_empty());
    }

    /// A folding emitter's windows tally the combine counters the way
    /// an in-place combine of each window's buffer would, and its sealed
    /// output is the one fold per key, in key order, per partition.
    #[test]
    fn folding_emitter_tallies_windows_and_seals_in_key_order() {
        let counters = Counters::new();
        let mut emitter: Emitter<i64, f64> = Emitter::folding(3);
        emit_all(&mut emitter, &counters, &[(4, 1.0), (1, 2.0), (4, 3.0)]);
        emitter.close_window(&counters);
        // Window 1: three emissions in, keys 1 and 4 out.
        assert_eq!(counters.get(Counter::CombineInputRecords), 3);
        assert_eq!(counters.get(Counter::CombineOutputRecords), 2);
        emit_all(&mut emitter, &counters, &[(7, 5.0), (4, 0.5)]);
        let segments = emitter.seal(&Sum, &counters);
        // Seal: two held records plus two emissions in, three out.
        assert_eq!(counters.get(Counter::CombineInputRecords), 3 + 4);
        assert_eq!(counters.get(Counter::CombineOutputRecords), 2 + 3);
        assert_eq!(counters.get(Counter::MapOutputRecords), 5);
        assert_eq!(segments.len(), 3);
        assert_eq!(
            segments[1].data,
            encode_segment(&[(1i64, 2.0), (4, 4.5), (7, 5.0)]).data
        );
        assert!(segments[0].is_empty() && segments[2].is_empty());
    }

    /// Both kinds of buffer drain each key through
    /// [`Job::finish_combine`] once: the accumulators at seal, the raw
    /// buffer through [`sort_and_combine`].
    #[test]
    fn seal_finishes_each_drained_key_once() {
        let counters = Counters::new();
        for mut emitter in [Emitter::folding(3), Emitter::raw(3, false)] {
            emit_all(&mut emitter, &counters, &[(4, 1.0), (1, 2.0), (4, 3.0)]);
            let segments = emitter.seal(&Marked, &counters);
            assert_eq!(
                segments[1].data,
                encode_segment(&[(1i64, 1002.0), (4, 1004.0)]).data
            );
        }
    }

    /// [`sum`] as a job, for [`Emitter::seal`].
    struct Sum;
    /// [`Sum`] that adds 1000 to each key's total as it is drained.
    struct Marked;
    struct NoMapper;
    struct NoReducer;
    impl Mapper for NoMapper {
        type Key = i64;
        type Value = f64;
        type Row = ();
        fn dim(&self) -> usize {
            1
        }
        fn prepare_block(&mut self, _: &[f64], _: &[f64], _: &mut TaskContext) -> Result<Vec<()>> {
            Ok(Vec::new())
        }
        fn map_point(
            &mut self,
            _: &[f64],
            _: (),
            _: &mut MapOutput<'_, i64, f64>,
            _: &mut TaskContext,
        ) -> Result<()> {
            Ok(())
        }
    }
    impl Reducer for NoReducer {
        type Key = i64;
        type Value = f64;
        type Output = ();
        fn reduce(
            &mut self,
            _: i64,
            _: Values<'_, f64>,
            _: &mut Vec<()>,
            _: &mut TaskContext,
        ) -> Result<()> {
            Ok(())
        }
    }
    impl Job for Sum {
        type Key = i64;
        type Value = f64;
        type Output = ();
        type Mapper = NoMapper;
        type Reducer = NoReducer;
        fn name(&self) -> &str {
            "sum"
        }
        fn create_mapper(&self) -> NoMapper {
            NoMapper
        }
        fn create_reducer(&self) -> NoReducer {
            NoReducer
        }
        fn has_combiner(&self) -> bool {
            true
        }
        fn combine(&self, key: &i64, acc: &mut Vec<f64>, value: &f64) {
            sum(key, acc, value);
        }
    }
    impl Job for Marked {
        type Key = i64;
        type Value = f64;
        type Output = ();
        type Mapper = NoMapper;
        type Reducer = NoReducer;
        fn name(&self) -> &str {
            "marked"
        }
        fn create_mapper(&self) -> NoMapper {
            NoMapper
        }
        fn create_reducer(&self) -> NoReducer {
            NoReducer
        }
        fn has_combiner(&self) -> bool {
            true
        }
        fn combine(&self, key: &i64, acc: &mut Vec<f64>, value: &f64) {
            sum(key, acc, value);
        }
        fn finish_combine(&self, _key: &i64, combined: &mut Vec<f64>) {
            for total in combined {
                *total += 1000.0;
            }
        }
    }
}
