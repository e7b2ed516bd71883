//! Sort-based shuffle: spills, segments, and the reduce-side k-way merge.
//!
//! The life of an intermediate pair mirrors Hadoop's:
//!
//! 1. mappers emit typed `(key, value)` pairs into per-partition buffers;
//! 2. when the buffer exceeds the spill threshold, each partition is
//!    sorted by key and — if the job has a combiner — combined in place
//!    (the paper's jobs all rely on this: "this effect is largely
//!    mitigated by the use of a combiner", §3.1);
//! 3. at task end the final sorted/combined buffer is **serialized** into
//!    a [`Segment`] of bytes; segment sizes are what the `SHUFFLE_BYTES`
//!    counter reports;
//! 4. each reduce task fetches its segments from every map task and
//!    streams them through a k-way merge that decodes records lazily, so
//!    reducers see keys in sorted order, one group at a time, without
//!    the framework materializing the partition.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
use std::sync::Arc;

use crate::cluster::OutOfCoreConfig;
use crate::counters::{Counter, Counters};
use crate::error::Result;
use crate::job::Job;
use crate::spill::{RunCursor, RunWriter, SpillDir, SpillIo, SpillRun};
use crate::writable::{ShuffleKey, ShuffleValue, Writable};

/// A serialized run of key-sorted `(key, value)` pairs produced by one
/// map task for one reduce partition.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    /// Serialized pairs.
    pub data: Vec<u8>,
    /// Number of pairs in the segment.
    pub records: u64,
}

impl Segment {
    /// Byte size of the segment.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }
}

/// One sorted source of a merge: either a memory-resident [`Segment`]
/// (the buffered path) or a spilled on-disk run (the out-of-core path).
///
/// Both shapes hold the same serialized record stream; `len()` reports
/// the *raw* (uncompressed) byte size in either case, so shuffle-volume
/// accounting is identical whether a run spilled or stayed resident.
#[derive(Clone, Debug)]
pub enum ShuffleSegment {
    /// A memory-resident serialized segment.
    Mem(Segment),
    /// A sorted, block-compressed run on local disk. The `Arc` keeps
    /// the backing file alive across reduce-attempt retries; the file
    /// is deleted when the last reference drops.
    Disk(Arc<SpillRun>),
}

impl ShuffleSegment {
    /// Raw serialized byte size (pre-compression for disk runs).
    pub fn len(&self) -> usize {
        match self {
            ShuffleSegment::Mem(s) => s.len(),
            ShuffleSegment::Disk(r) => r.raw_len() as usize,
        }
    }

    /// Number of records in the source.
    pub fn records(&self) -> u64 {
        match self {
            ShuffleSegment::Mem(s) => s.records,
            ShuffleSegment::Disk(r) => r.records(),
        }
    }

    /// True when the source holds no records.
    pub fn is_empty(&self) -> bool {
        self.records() == 0
    }

    /// Heap bytes a k-way merge must keep resident to stream this
    /// source: the whole segment when in memory, one block buffer when
    /// on disk — the quantity the out-of-core memory ledger charges.
    pub fn merge_resident_bytes(&self) -> u64 {
        match self {
            ShuffleSegment::Mem(s) => s.len() as u64,
            ShuffleSegment::Disk(r) => r.max_block_raw() as u64,
        }
    }
}

/// Sorts a map-output buffer by key and applies the job's combiner to
/// every key group (when enabled), updating the combine counters.
///
/// The buffer is replaced by the combined pairs, still key-sorted.
pub fn sort_and_combine<J: Job>(job: &J, buf: &mut Vec<(J::Key, J::Value)>, counters: &Counters) {
    // Stable sort keeps emission order within a key, so combiners see
    // values in a deterministic order.
    buf.sort_by(|a, b| a.0.cmp(&b.0));
    if !job.has_combiner() || buf.is_empty() {
        return;
    }
    let pairs = std::mem::take(buf);
    counters.add(Counter::CombineInputRecords, pairs.len() as u64);
    let mut out: Vec<(J::Key, J::Value)> = Vec::with_capacity(pairs.len() / 2 + 1);
    let mut iter = pairs.into_iter();
    let mut current: Option<(J::Key, Vec<J::Value>)> = None;
    let flush = |key: J::Key, values: Vec<J::Value>, out: &mut Vec<(J::Key, J::Value)>| {
        for v in job.combine(&key, values) {
            out.push((key.clone(), v));
        }
    };
    for (k, v) in iter.by_ref() {
        match current.as_mut() {
            Some((ck, vals)) if *ck == k => vals.push(v),
            _ => {
                if let Some((ck, vals)) = current.take() {
                    flush(ck, vals, &mut out);
                }
                current = Some((k, vec![v]));
            }
        }
    }
    if let Some((ck, vals)) = current.take() {
        flush(ck, vals, &mut out);
    }
    counters.add(Counter::CombineOutputRecords, out.len() as u64);
    *buf = out;
}

/// Serializes a key-sorted buffer into a shuffle [`Segment`].
pub fn encode_segment<K: Writable, V: Writable>(pairs: &[(K, V)]) -> Segment {
    let mut data = Vec::new();
    for (k, v) in pairs {
        k.write(&mut data);
        v.write(&mut data);
    }
    Segment {
        data,
        records: pairs.len() as u64,
    }
}

/// Lazily decodes the records of one segment.
struct SegmentCursor {
    data: Vec<u8>,
    pos: usize,
}

impl SegmentCursor {
    fn next_record<K: Writable, V: Writable>(&mut self) -> Result<Option<(K, V)>> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        let mut slice = &self.data[self.pos..];
        let before = slice.len();
        let k = K::read(&mut slice)?;
        let v = V::read(&mut slice)?;
        self.pos += before - slice.len();
        Ok(Some((k, v)))
    }
}

/// Record cursor over one merge source, memory- or disk-backed.
enum SourceCursor {
    Mem(SegmentCursor),
    Disk(RunCursor),
}

impl SourceCursor {
    fn next_record<K: Writable, V: Writable>(&mut self) -> Result<Option<(K, V)>> {
        match self {
            SourceCursor::Mem(c) => c.next_record(),
            SourceCursor::Disk(c) => c.next_record(),
        }
    }

    fn io(&self) -> SpillIo {
        match self {
            SourceCursor::Mem(_) => SpillIo::default(),
            SourceCursor::Disk(c) => c.io(),
        }
    }
}

struct HeapEntry<K, V> {
    key: K,
    value: V,
    segment: usize,
}

impl<K: Ord, V> PartialEq for HeapEntry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.segment == other.segment
    }
}
impl<K: Ord, V> Eq for HeapEntry<K, V> {}
impl<K: Ord, V> PartialOrd for HeapEntry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for HeapEntry<K, V> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for ascending key order, with
        // the segment index as a deterministic tie-break.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.segment.cmp(&self.segment))
    }
}

/// K-way merge over sorted sources, yielding `(key, value)` pairs in
/// globally ascending key order. Decodes lazily: at any moment only one
/// record per memory source (plus one block buffer per disk source) is
/// materialized. Equal keys break ties by source index, so feeding
/// sources in emission order reproduces the single-buffer sort's
/// within-key value order exactly.
pub struct MergeIter<K, V> {
    cursors: Vec<SourceCursor>,
    heap: BinaryHeap<HeapEntry<K, V>>,
}

impl<K: ShuffleKey, V: ShuffleValue> MergeIter<K, V> {
    /// Builds a merge over memory-resident segments.
    pub fn new(segments: Vec<Segment>) -> Result<Self> {
        Self::from_sources(segments.into_iter().map(ShuffleSegment::Mem).collect())
    }

    /// Builds a merge over mixed memory and disk sources.
    pub fn from_sources(sources: Vec<ShuffleSegment>) -> Result<Self> {
        let mut cursors = Vec::with_capacity(sources.len());
        for s in sources {
            cursors.push(match s {
                ShuffleSegment::Mem(seg) => SourceCursor::Mem(SegmentCursor {
                    data: seg.data,
                    pos: 0,
                }),
                ShuffleSegment::Disk(run) => SourceCursor::Disk(RunCursor::open(run)?),
            });
        }
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            if let Some((key, value)) = c.next_record::<K, V>()? {
                heap.push(HeapEntry {
                    key,
                    value,
                    segment: i,
                });
            }
        }
        Ok(Self { cursors, heap })
    }

    /// Accumulated disk-read and decompression traffic of the merge's
    /// disk-backed sources so far.
    pub fn io(&self) -> SpillIo {
        let mut total = SpillIo::default();
        for c in &self.cursors {
            total.absorb(&c.io());
        }
        total
    }
}

impl<K: ShuffleKey, V: ShuffleValue> Iterator for MergeIter<K, V> {
    type Item = Result<(K, V)>;

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.heap.pop()?;
        match self.cursors[entry.segment].next_record::<K, V>() {
            Ok(Some((key, value))) => self.heap.push(HeapEntry {
                key,
                value,
                segment: entry.segment,
            }),
            Ok(None) => {}
            Err(e) => return Some(Err(e)),
        }
        Some(Ok((entry.key, entry.value)))
    }
}

/// Merges sorted sources into one *raw* (uncombined) disk run — one
/// pass of a multi-pass merge.
///
/// Records come out exactly as [`MergeIter`] yields them, so merging
/// **consecutive** sources and putting the result back in their place
/// preserves the order a flat merge over all sources would produce:
/// nested earliest-source-first tie-breaks compose.
pub fn merge_to_run<K: ShuffleKey, V: ShuffleValue>(
    dir: &SpillDir,
    cfg: &OutOfCoreConfig,
    sources: Vec<ShuffleSegment>,
) -> Result<(SpillRun, SpillIo)> {
    let mut writer = RunWriter::create(dir, true, cfg.spill_block_bytes)?;
    let mut merge = MergeIter::<K, V>::from_sources(sources)?;
    for record in merge.by_ref() {
        let (k, v) = record?;
        writer.push(&k, &v)?;
    }
    let mut io = merge.io();
    let (run, write_io) = writer.finish()?;
    io.absorb(&write_io);
    Ok((run, io))
}

/// Merges sorted sources, applies the job's combiner once over the
/// merged stream, and writes the combined output as a new disk run —
/// the spilled map task's final output for one partition.
///
/// Counter parity with the buffered path is exact:
/// `combine_input_records` counts each record arriving from the merge
/// and `combine_output_records` counts each record written out, the
/// same totals [`sort_and_combine`] charges for the same data. To bound
/// memory, oversized key groups are pre-folded through the combiner in
/// chunks; partial applications are invisible to the counters (only
/// originals in, finals out) and output-transparent for any combiner
/// that folds — which [`Job::combine`]'s "semantically idempotent"
/// contract already requires.
pub fn merge_combine_to_run<J: Job>(
    job: &J,
    dir: &SpillDir,
    cfg: &OutOfCoreConfig,
    sources: Vec<ShuffleSegment>,
    counters: &Counters,
) -> Result<(SpillRun, SpillIo)> {
    /// Values buffered per key before a partial combiner fold.
    const GROUP_CHUNK: usize = 4096;
    let mut writer = RunWriter::create(dir, true, cfg.spill_block_bytes)?;
    let mut merge = MergeIter::<J::Key, J::Value>::from_sources(sources)?;
    if !job.has_combiner() {
        for record in merge.by_ref() {
            let (k, v) = record?;
            writer.push(&k, &v)?;
        }
    } else {
        let mut current: Option<(J::Key, Vec<J::Value>)> = None;
        let flush = |key: J::Key, values: Vec<J::Value>, writer: &mut RunWriter| -> Result<()> {
            let outs = job.combine(&key, values);
            counters.add(Counter::CombineOutputRecords, outs.len() as u64);
            for v in outs {
                writer.push(&key, &v)?;
            }
            Ok(())
        };
        for record in merge.by_ref() {
            let (k, v) = record?;
            counters.inc(Counter::CombineInputRecords);
            match current.as_mut() {
                Some((ck, vals)) if *ck == k => {
                    vals.push(v);
                    if vals.len() >= GROUP_CHUNK {
                        let partial = job.combine(ck, std::mem::take(vals));
                        *vals = partial;
                    }
                }
                _ => {
                    if let Some((ck, vals)) = current.take() {
                        flush(ck, vals, &mut writer)?;
                    }
                    current = Some((k, vec![v]));
                }
            }
        }
        if let Some((ck, vals)) = current.take() {
            flush(ck, vals, &mut writer)?;
        }
    }
    let mut io = merge.io();
    let (run, write_io) = writer.finish()?;
    io.absorb(&write_io);
    Ok((run, io))
}

/// Bit marking a [`CommitFence`] token as spent by a successful commit.
const FENCE_COMMITTED: u32 = 1 << 31;

/// Per-task commit fence: the exactly-one-visible-output guarantee.
///
/// The JobTracker grants the fencing token to the one attempt it
/// currently believes alive; publishing output — registering shuffle
/// segments, making a DFS file visible ([`crate::dfs::Dfs::publish_fenced`]) —
/// requires holding the token at commit time, and the first successful
/// commit retires the fence. A *zombie* attempt (falsely declared dead
/// by a heartbeat false positive and already replaced by a duplicate)
/// finds the token re-granted to its successor, so its commit is
/// rejected however late it lands. Plain Hadoop/HDFS output-committer
/// fencing, reduced to one atomic.
#[derive(Debug, Default)]
pub struct CommitFence {
    /// Attempt currently holding the token, OR-ed with
    /// [`FENCE_COMMITTED`] once an attempt has committed.
    token: AtomicU32,
}

impl CommitFence {
    /// A fresh fence granting the token to attempt 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-grants the token to `attempt` — the JobTracker scheduled a
    /// replacement for a (presumed) dead attempt. A no-op once some
    /// attempt has committed: a finished task cannot be re-opened.
    pub fn grant(&self, attempt: u32) {
        let _ = self
            .token
            .fetch_update(AtomicOrdering::SeqCst, AtomicOrdering::SeqCst, |t| {
                (t & FENCE_COMMITTED == 0).then_some(attempt)
            });
    }

    /// The attempt currently holding the token.
    pub fn holder(&self) -> u32 {
        self.token.load(AtomicOrdering::SeqCst) & !FENCE_COMMITTED
    }

    /// Whether some attempt has already committed.
    pub fn committed(&self) -> bool {
        self.token.load(AtomicOrdering::SeqCst) & FENCE_COMMITTED != 0
    }

    /// Atomically commits `attempt`'s output: succeeds iff `attempt`
    /// still holds the token and nobody has committed yet.
    pub fn try_commit(&self, attempt: u32) -> bool {
        self.token
            .compare_exchange(
                attempt,
                attempt | FENCE_COMMITTED,
                AtomicOrdering::SeqCst,
                AtomicOrdering::SeqCst,
            )
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Mapper, Reducer, TaskContext, Values};
    use proptest::prelude::*;

    /// Minimal word-count-style job used to drive sort_and_combine.
    struct SumJob {
        combiner: bool,
    }

    struct NopMapper;
    impl Mapper for NopMapper {
        type Key = i64;
        type Value = u64;
    }
    struct NopReducer;
    impl Reducer for NopReducer {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        fn reduce(
            &mut self,
            key: i64,
            values: Values<'_, u64>,
            out: &mut Vec<(i64, u64)>,
            _ctx: &mut TaskContext,
        ) -> Result<()> {
            out.push((key, values.sum()));
            Ok(())
        }
    }
    impl Job for SumJob {
        type Key = i64;
        type Value = u64;
        type Output = (i64, u64);
        type Mapper = NopMapper;
        type Reducer = NopReducer;
        fn name(&self) -> &str {
            "sum"
        }
        fn create_mapper(&self) -> NopMapper {
            NopMapper
        }
        fn create_reducer(&self) -> NopReducer {
            NopReducer
        }
        fn has_combiner(&self) -> bool {
            self.combiner
        }
        fn combine(&self, _key: &i64, values: Vec<u64>) -> Vec<u64> {
            vec![values.iter().sum()]
        }
    }

    #[test]
    fn sort_without_combiner_only_sorts() {
        let job = SumJob { combiner: false };
        let counters = Counters::new();
        let mut buf = vec![(3i64, 1u64), (1, 2), (3, 3), (2, 4)];
        sort_and_combine(&job, &mut buf, &counters);
        assert_eq!(buf, vec![(1, 2), (2, 4), (3, 1), (3, 3)]);
        assert_eq!(counters.get(Counter::CombineInputRecords), 0);
    }

    #[test]
    fn combiner_collapses_groups() {
        let job = SumJob { combiner: true };
        let counters = Counters::new();
        let mut buf = vec![(3i64, 1u64), (1, 2), (3, 3), (1, 5), (2, 4)];
        sort_and_combine(&job, &mut buf, &counters);
        assert_eq!(buf, vec![(1, 7), (2, 4), (3, 4)]);
        assert_eq!(counters.get(Counter::CombineInputRecords), 5);
        assert_eq!(counters.get(Counter::CombineOutputRecords), 3);
    }

    #[test]
    fn empty_buffer_is_fine() {
        let job = SumJob { combiner: true };
        let counters = Counters::new();
        let mut buf: Vec<(i64, u64)> = vec![];
        sort_and_combine(&job, &mut buf, &counters);
        assert!(buf.is_empty());
    }

    #[test]
    fn encode_decode_round_trip() {
        let pairs = vec![(1i64, 10.5f64), (2, 20.5), (2, 21.5)];
        let seg = encode_segment(&pairs);
        assert_eq!(seg.records, 3);
        assert_eq!(seg.len(), 3 * (8 + 8));
        let merged: Vec<(i64, f64)> = MergeIter::new(vec![seg])
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(merged, pairs);
    }

    #[test]
    fn merge_interleaves_sorted_segments() {
        let a = encode_segment(&[(1i64, "a".to_string()), (4, "d".into())]);
        let b = encode_segment(&[(2i64, "b".to_string()), (3, "c".into())]);
        let merged: Vec<(i64, String)> = MergeIter::new(vec![a, b])
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(
            merged,
            vec![
                (1, "a".to_string()),
                (2, "b".into()),
                (3, "c".into()),
                (4, "d".into())
            ]
        );
    }

    #[test]
    fn merge_is_stable_across_segments_for_equal_keys() {
        // Equal keys: segment 0's records come first (deterministic).
        let a = encode_segment(&[(7i64, 100u64)]);
        let b = encode_segment(&[(7i64, 200u64)]);
        let merged: Vec<(i64, u64)> = MergeIter::new(vec![a, b])
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(merged, vec![(7, 100), (7, 200)]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let mut m: MergeIter<i64, u64> = MergeIter::new(vec![]).unwrap();
        assert!(m.next().is_none());
        let empty = encode_segment::<i64, u64>(&[]);
        let mut m: MergeIter<i64, u64> = MergeIter::new(vec![empty]).unwrap();
        assert!(m.next().is_none());
    }

    #[test]
    fn corrupt_segment_surfaces_error() {
        let mut seg = encode_segment(&[(1i64, 2u64)]);
        seg.data.truncate(seg.data.len() - 3);
        let r: Result<Vec<(i64, u64)>> = match MergeIter::<i64, u64>::new(vec![seg]) {
            Ok(m) => m.collect(),
            Err(e) => Err(e),
        };
        assert!(r.is_err());
    }

    proptest! {
        /// Group boundaries survive any segment layout: for every key,
        /// the multiset of values seen by a group-by over the merge
        /// equals the multiset emitted.
        #[test]
        fn grouping_is_exact_under_any_layout(
            pairs in proptest::collection::vec((0i64..20, 0u64..1000), 1..150),
            splits in 1usize..6,
        ) {
            use std::collections::HashMap;
            let mut segs: Vec<Vec<(i64, u64)>> = vec![vec![]; splits];
            for (i, p) in pairs.iter().enumerate() {
                segs[i % splits].push(*p);
            }
            for s in &mut segs {
                s.sort_by_key(|p| p.0);
            }
            let segments: Vec<Segment> = segs.iter().map(|s| encode_segment(s)).collect();
            let merged: Vec<(i64, u64)> = MergeIter::new(segments)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            // Group by run — keys must never interleave.
            let mut seen_keys: Vec<i64> = Vec::new();
            let mut grouped: HashMap<i64, Vec<u64>> = HashMap::new();
            for (k, v) in &merged {
                if seen_keys.last() != Some(k) {
                    prop_assert!(
                        !seen_keys.contains(k),
                        "key {k} appeared in two separate runs"
                    );
                    seen_keys.push(*k);
                }
                grouped.entry(*k).or_default().push(*v);
            }
            let mut expected: HashMap<i64, Vec<u64>> = HashMap::new();
            for (k, v) in &pairs {
                expected.entry(*k).or_default().push(*v);
            }
            for (k, mut vs) in expected {
                vs.sort_unstable();
                let mut got = grouped.remove(&k).expect("key missing");
                got.sort_unstable();
                prop_assert_eq!(got, vs);
            }
            prop_assert!(grouped.is_empty(), "extra keys appeared");
        }

        /// Merging any partition of a sorted stream reproduces the stream.
        #[test]
        fn merge_reconstructs_global_order(
            mut pairs in proptest::collection::vec((0i64..50, 0u64..1000), 0..200),
            cuts in proptest::collection::vec(0usize..4, 0..200),
        ) {
            pairs.sort_by_key(|p| p.0);
            // Deal pairs into 4 segments round-robin-ish by `cuts`,
            // keeping each segment sorted (subsequences of sorted input).
            let mut segs: Vec<Vec<(i64, u64)>> = vec![vec![]; 4];
            for (i, p) in pairs.iter().enumerate() {
                let s = cuts.get(i).copied().unwrap_or(0);
                segs[s].push(*p);
            }
            let segments: Vec<Segment> = segs.iter().map(|s| encode_segment(s)).collect();
            let merged: Vec<(i64, u64)> = MergeIter::new(segments)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            let mut expected = pairs.clone();
            expected.sort_by_key(|p| p.0);
            // Keys must match exactly; values per key are a permutation.
            prop_assert_eq!(
                merged.iter().map(|p| p.0).collect::<Vec<_>>(),
                expected.iter().map(|p| p.0).collect::<Vec<_>>()
            );
            let mut mv: Vec<(i64, u64)> = merged;
            let mut ev = expected;
            mv.sort_unstable();
            ev.sort_unstable();
            prop_assert_eq!(mv, ev);
        }
    }

    #[test]
    fn fence_commits_exactly_once() {
        let fence = CommitFence::new();
        assert_eq!(fence.holder(), 0);
        assert!(!fence.committed());
        assert!(fence.try_commit(0));
        assert!(fence.committed());
        // Nobody commits twice — not even the winner.
        assert!(!fence.try_commit(0));
        assert!(!fence.try_commit(1));
    }

    #[test]
    fn fence_rejects_a_zombie_commit_after_regrant() {
        let fence = CommitFence::new();
        // The JobTracker declares attempt 0 dead and grants attempt 1.
        fence.grant(1);
        assert_eq!(fence.holder(), 1);
        // Attempt 0 — a zombie, still running — commits late: rejected.
        assert!(!fence.try_commit(0));
        assert!(!fence.committed());
        // The replacement commits normally.
        assert!(fence.try_commit(1));
        assert!(fence.committed());
        // A still-later zombie echo stays rejected.
        assert!(!fence.try_commit(0));
    }

    #[test]
    fn fence_grant_after_commit_is_a_no_op() {
        let fence = CommitFence::new();
        assert!(fence.try_commit(0));
        fence.grant(7);
        assert!(fence.committed(), "a finished task cannot be re-opened");
        assert_eq!(fence.holder(), 0);
        assert!(!fence.try_commit(7));
    }

    /// Spills a sorted pair list to a disk run.
    fn spill_pairs(dir: &SpillDir, cfg: &OutOfCoreConfig, pairs: &[(i64, u64)]) -> ShuffleSegment {
        let mut w = RunWriter::create(dir, true, cfg.spill_block_bytes).unwrap();
        for (k, v) in pairs {
            w.push(k, v).unwrap();
        }
        let (run, _) = w.finish().unwrap();
        ShuffleSegment::Disk(Arc::new(run))
    }

    fn small_ooc() -> OutOfCoreConfig {
        OutOfCoreConfig {
            spill_block_bytes: 64,
            ..OutOfCoreConfig::enabled()
        }
    }

    #[test]
    fn merge_mixes_memory_and_disk_sources() {
        let dir = SpillDir::create().unwrap();
        let cfg = small_ooc();
        let disk = spill_pairs(&dir, &cfg, &[(1i64, 10u64), (3, 30), (3, 31)]);
        let mem = ShuffleSegment::Mem(encode_segment(&[(2i64, 20u64), (3, 32)]));
        let mut merge = MergeIter::<i64, u64>::from_sources(vec![disk, mem]).unwrap();
        let merged: Vec<(i64, u64)> = merge.by_ref().collect::<Result<_>>().unwrap();
        // Source 0 (disk) wins ties, so 30, 31 precede 32.
        assert_eq!(merged, vec![(1, 10), (2, 20), (3, 30), (3, 31), (3, 32)]);
        let io = merge.io();
        assert!(io.stored_read > 0, "disk source was read from disk");
        assert_eq!(io.decompressed_raw, 3 * 16, "three records decompressed");
    }

    #[test]
    fn merge_to_run_nests_like_a_flat_merge() {
        // Four runs of a tie-heavy stream; merging runs {0,1} into an
        // intermediate and then {intermediate, 2, 3} must equal the
        // flat 4-way merge.
        let dir = SpillDir::create().unwrap();
        let cfg = small_ooc();
        let runs: Vec<Vec<(i64, u64)>> = vec![
            vec![(1, 0), (5, 1), (5, 2)],
            vec![(1, 3), (5, 4)],
            vec![(2, 5), (5, 6)],
            vec![(5, 7), (9, 8)],
        ];
        let sources: Vec<ShuffleSegment> =
            runs.iter().map(|r| spill_pairs(&dir, &cfg, r)).collect();
        let flat: Vec<(i64, u64)> = MergeIter::<i64, u64>::from_sources(sources.clone())
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();

        let mut nested = sources;
        let batch: Vec<ShuffleSegment> = nested.drain(..2).collect();
        let (mid, io) = merge_to_run::<i64, u64>(&dir, &cfg, batch).unwrap();
        assert_eq!(mid.records(), 5);
        assert!(io.raw_written > 0);
        nested.insert(0, ShuffleSegment::Disk(Arc::new(mid)));
        let merged: Vec<(i64, u64)> = MergeIter::<i64, u64>::from_sources(nested)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(merged, flat);
    }

    #[test]
    fn merge_combine_matches_sort_and_combine() {
        // The spilled path (raw runs -> merge_combine_to_run) must
        // produce byte-identical output and identical combine counters
        // to the buffered path (sort_and_combine -> encode_segment).
        let job = SumJob { combiner: true };
        let dir = SpillDir::create().unwrap();
        let cfg = small_ooc();
        let emitted: Vec<(i64, u64)> = (0..200u64).map(|i| ((i % 7) as i64, i)).collect();

        // Buffered reference.
        let buffered_counters = Counters::new();
        let mut buf = emitted.clone();
        sort_and_combine(&job, &mut buf, &buffered_counters);
        let reference = encode_segment(&buf);

        // Spilled: three consecutive emission windows, each stably
        // sorted, written raw, then merged + combined once.
        let spilled_counters = Counters::new();
        let sources: Vec<ShuffleSegment> = emitted
            .chunks(70)
            .map(|window| {
                let mut w = window.to_vec();
                w.sort_by_key(|a| a.0);
                spill_pairs(&dir, &cfg, &w)
            })
            .collect();
        let (run, _) = merge_combine_to_run(&job, &dir, &cfg, sources, &spilled_counters).unwrap();
        assert_eq!(run.raw_len(), reference.len() as u64);
        assert_eq!(run.records(), reference.records);
        let replayed: Vec<(i64, u64)> =
            MergeIter::<i64, u64>::from_sources(vec![ShuffleSegment::Disk(Arc::new(run))])
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
        assert_eq!(encode_segment(&replayed).data, reference.data);
        assert_eq!(
            spilled_counters.get(Counter::CombineInputRecords),
            buffered_counters.get(Counter::CombineInputRecords)
        );
        assert_eq!(
            spilled_counters.get(Counter::CombineOutputRecords),
            buffered_counters.get(Counter::CombineOutputRecords)
        );
    }

    #[test]
    fn merge_combine_without_combiner_passes_records_through() {
        let job = SumJob { combiner: false };
        let dir = SpillDir::create().unwrap();
        let cfg = small_ooc();
        let a = spill_pairs(&dir, &cfg, &[(1i64, 1u64), (2, 2)]);
        let b = spill_pairs(&dir, &cfg, &[(1i64, 3u64)]);
        let counters = Counters::new();
        let (run, _) = merge_combine_to_run(&job, &dir, &cfg, vec![a, b], &counters).unwrap();
        assert_eq!(run.records(), 3);
        assert_eq!(counters.get(Counter::CombineInputRecords), 0);
        let merged: Vec<(i64, u64)> =
            MergeIter::<i64, u64>::from_sources(vec![ShuffleSegment::Disk(Arc::new(run))])
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
        assert_eq!(merged, vec![(1, 1), (1, 3), (2, 2)]);
    }

    #[test]
    fn shuffle_segment_reports_raw_sizes() {
        let dir = SpillDir::create().unwrap();
        let cfg = small_ooc();
        let pairs = [(1i64, 1u64), (2, 2), (3, 3)];
        let mem = ShuffleSegment::Mem(encode_segment(&pairs));
        let disk = spill_pairs(&dir, &cfg, &pairs);
        assert_eq!(mem.len(), disk.len());
        assert_eq!(mem.records(), disk.records());
        assert!(!mem.is_empty() && !disk.is_empty());
        assert_eq!(mem.merge_resident_bytes(), 3 * 16);
        assert!(disk.merge_resident_bytes() <= cfg.spill_block_bytes as u64 + 16);
        assert!(ShuffleSegment::Mem(Segment::default()).is_empty());
    }
}
