//! Shared center-set state distributed to map tasks.
//!
//! Hadoop jobs ship the current centers to every mapper through the
//! distributed cache; here the job object holds an `Arc<CenterSet>` and
//! each mapper clones the handle in `create_mapper`. Center ids are
//! `i64` — the paper explicitly prefers integer keys over text ("sorting
//! text keys requires more processing than simple integer values",
//! §3.1) — and the candidate-center channel of `KMeansAndFindNewCenters`
//! is multiplexed by adding [`OFFSET`] to the id.

use crate::mr::kmeans_job::PointSum;
use gmr_linalg::{nearest_center_flat, nearest_centers_batch, CenterTiles, Dataset, KdTree};
use gmr_mapreduce::writable::Writable;
use gmr_mapreduce::{Error, Result};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One point's nearest center, as [`CenterSet::nearest_block`] reports
/// it: `(index, id, squared_distance, evaluations)`.
pub type Nearest = (usize, i64, f64, u64);

/// The id offset separating candidate-center keys from refine-center
/// keys: "as the type of center id is a Java Long, we use an offset
/// value equal to half the largest possible value of a Java Long. The
/// value of OFFSET is thus 2⁶²" (§3.1).
pub const OFFSET: i64 = 1 << 62;

/// The typed view of the dual-output key multiplexing in
/// `KMeansAndFindNewCenters` (§3.1): one shuffle carries both the
/// refine-center channel (plain center ids) and the candidate-center
/// channel (ids shifted by [`OFFSET`]). The wire format stays the
/// paper's raw `i64` arithmetic — [`ChannelKey::encode`] produces
/// exactly `id` or `id + OFFSET` — but mappers and reducers demux
/// through this enum instead of comparing against `OFFSET` by hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKey {
    /// A center-refinement record keyed by the center's own id.
    Refine(i64),
    /// A split-candidate record for the center with this id, keyed on
    /// the wire as `id + OFFSET`.
    Candidate(i64),
}

impl ChannelKey {
    /// The raw shuffle key: `id` for the refine channel, `id + OFFSET`
    /// for the candidate channel.
    pub fn encode(self) -> i64 {
        match self {
            ChannelKey::Refine(id) => id,
            ChannelKey::Candidate(id) => id + OFFSET,
        }
    }

    /// Classifies a raw shuffle key back into its channel. Center ids
    /// are always below [`OFFSET`] (enforced by [`CenterSet::push`]),
    /// so the comparison is exact.
    pub fn decode(key: i64) -> Self {
        if key >= OFFSET {
            ChannelKey::Candidate(key - OFFSET)
        } else {
            ChannelKey::Refine(key)
        }
    }
}

/// Which nearest-center kernel serves a job's point map tasks.
///
/// Every backend is **bit-identical** to the naive first-wins scan —
/// same argmin, same `f64` distance bits — and **cost-neutral**: it
/// charges exactly `k` distance evaluations per point, the paper's §4
/// accounting for a full scan. Backend choice therefore changes wall
/// time only; counters, simulated makespans, checkpoints and fault
/// replay are untouched, which is what lets the engine enable it on the
/// *default* path. (The opt-in [`CenterSet::with_kd_index`] runs the
/// same tree as [`KernelBackend::Kd`] but charges its *actual*
/// evaluation count, and so changes the cost model.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelBackend {
    /// Pick per job from the center set's shape: the k-d tree at low
    /// dimensionality with enough centers, the SIMD blocked kernel
    /// everywhere else. See [`KernelBackend::resolve`].
    #[default]
    Auto,
    /// The SIMD blocked bounds-then-exact kernel
    /// ([`gmr_linalg::nearest_centers_batch`]).
    Blocked,
    /// The k-d tree ([`gmr_linalg::KdTree`]), first-wins contract
    /// included.
    Kd,
}

impl KernelBackend {
    /// Resolves [`KernelBackend::Auto`] for a `dim`-dimensional set of
    /// `k` centers into a concrete backend: the k-d tree when k ≥ 32
    /// and either d ≤ 2, or d ≤ 8 with k ≥ 256; the blocked kernel
    /// everywhere else.
    ///
    /// The rule is a conservative one, not a measured crossover. The
    /// `repro kernels` sweep (`BENCH_kernels.json`) has the tree winning
    /// in cells the rule leaves to the blocked kernel too: 7.2× the
    /// naive scan against the blocked kernel's 4.5× at d = 8, k = 128,
    /// 7.5× against 4.8× at d = 10, k = 128, and 22.5× against 6.9× at
    /// d = 32, k = 512; the blocked kernel wins at d = 128, k = 128
    /// (10.0× against 7.9×). That sweep runs on well-separated mixtures,
    /// which flatter the tree, and on gmeans-text's d = 10 G-means center
    /// sets the tree measured slower than the blocked kernel (0.31
    /// against 0.28 s of kernel time per call, before the blocked
    /// kernel's two-point pass), so the rule only picks it where it wins
    /// by a wide margin. The planned
    /// replacement is a deterministic per-job probe that runs the tree
    /// on the first block and counts its evaluations per point (see the
    /// kernel item in ROADMAP.md).
    pub fn resolve(self, dim: usize, k: usize) -> KernelBackend {
        match self {
            KernelBackend::Auto => {
                if k >= 32 && (dim <= 2 || (dim <= 8 && k >= 256)) {
                    KernelBackend::Kd
                } else {
                    KernelBackend::Blocked
                }
            }
            concrete => concrete,
        }
    }
}

/// The nearest-center kernel attached to a [`CenterSet`], built once
/// per job.
#[derive(Clone, Debug)]
enum Kernel {
    /// The blocked kernel for blocks, over the set's tiles built once;
    /// the scalar scan per point.
    Blocked(Arc<CenterTiles>),
    /// A k-d tree. `counted` charges the tree's actual evaluations
    /// ([`CenterSet::with_kd_index`]); otherwise each point charges the
    /// scan's `k` ([`KernelBackend::Kd`]).
    Kd { tree: Arc<KdTree>, counted: bool },
}

/// An ordered set of centers with stable ids.
///
/// Nearest-center lookup defaults to the linear scan the paper's
/// implementation performs (`O(k)` distance computations per point —
/// the unit of its §4 cost model). [`CenterSet::with_backend`] attaches
/// a cost-neutral kernel (see [`KernelBackend`]) that keeps the
/// full-scan accounting; [`CenterSet::with_kd_index`] attaches an exact
/// k-d tree (the mrkd-tree acceleration §2 cites) whose lookups charge
/// the *actual* evaluation count.
#[derive(Clone, Debug, Default)]
pub struct CenterSet {
    dim: usize,
    ids: Vec<i64>,
    flat: Vec<f64>,
    /// Per-center squared norms, maintained incrementally by `push` so
    /// the blocked kernel never recomputes them per sweep (they are
    /// invariant within a job).
    norms: Vec<f64>,
    by_id: HashMap<i64, usize>,
    kernel: Option<Kernel>,
}

impl PartialEq for CenterSet {
    fn eq(&self, other: &Self) -> bool {
        // The kernel is derived state; equality is about the centers.
        self.dim == other.dim && self.ids == other.ids && self.flat == other.flat
    }
}

impl CenterSet {
    /// An empty set for centers in `R^dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            ..Self::default()
        }
    }

    /// Builds a set from a dataset, assigning ids `0..len`.
    pub fn from_dataset(ds: &Dataset) -> Self {
        let mut set = Self::new(ds.dim());
        for (i, row) in ds.rows().enumerate() {
            set.push(i as i64, row);
        }
        set
    }

    /// Appends a center.
    ///
    /// # Panics
    /// Panics on dimension mismatch, duplicate id, or id at/above
    /// [`OFFSET`] (those ids are reserved for the candidate channel).
    pub fn push(&mut self, id: i64, coords: &[f64]) {
        if let Err(e) = self.insert(id, coords) {
            panic!("{e}");
        }
    }

    /// Builds a set from `(id, coords)` pairs, answering every center
    /// [`CenterSet::push`] would panic on — and a zero dimension — with
    /// [`Error::Corrupt`]. Sets built from journaled state go through it.
    pub(crate) fn try_from_centers<'a>(
        dim: usize,
        centers: impl IntoIterator<Item = (i64, &'a [f64])>,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(Error::Corrupt("center set of dimension 0".into()));
        }
        let mut set = Self::new(dim);
        for (id, coords) in centers {
            set.insert(id, coords).map_err(Error::Corrupt)?;
        }
        Ok(set)
    }

    /// [`CenterSet::push`] without the panic: the one place a center is
    /// checked.
    fn insert(&mut self, id: i64, coords: &[f64]) -> std::result::Result<(), String> {
        if coords.len() != self.dim {
            return Err(format!(
                "dimension mismatch: center {id} has {} coordinates in a {}-d set",
                coords.len(),
                self.dim
            ));
        }
        if !(0..OFFSET).contains(&id) {
            return Err(format!("center id {id} outside [0, OFFSET)"));
        }
        match self.by_id.entry(id) {
            Entry::Occupied(_) => return Err(format!("duplicate center id {id}")),
            Entry::Vacant(slot) => slot.insert(self.ids.len()),
        };
        self.ids.push(id);
        self.norms.push(coords.iter().map(|x| x * x).sum());
        self.flat.extend_from_slice(coords);
        self.kernel = None; // centers changed; the kernel is stale
        Ok(())
    }

    /// Builds a k-d index over the current centers, replacing any
    /// attached kernel. Lookups then charge the tree's actual distance
    /// evaluations instead of the scan's `k`.
    ///
    /// # Panics
    /// Panics when the set is empty.
    pub fn with_kd_index(mut self) -> Self {
        assert!(!self.is_empty(), "cannot index an empty center set");
        self.kernel = Some(self.kd(true));
        self
    }

    /// Attaches a cost-neutral kernel, replacing any attached one:
    /// resolves [`KernelBackend::Auto`] against this set's shape and
    /// builds the backing structure eagerly (once per job). Results
    /// stay bit-identical to the naive scan and every point still
    /// charges `k` evaluations.
    ///
    /// Sets containing non-finite coordinates always get the blocked
    /// backend, whose internal scan fallback reproduces the naive
    /// scan's NaN comparison semantics exactly. Empty sets are a no-op.
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        if self.is_empty() {
            return self;
        }
        let finite = self.norms.iter().all(|n| n.is_finite());
        self.kernel = Some(
            if finite && backend.resolve(self.dim, self.len()) == KernelBackend::Kd {
                self.kd(false)
            } else {
                Kernel::Blocked(Arc::new(CenterTiles::new(
                    &self.flat,
                    &self.norms,
                    self.dim,
                )))
            },
        );
        self
    }

    fn kd(&self, counted: bool) -> Kernel {
        Kernel::Kd {
            tree: Arc::new(KdTree::build(&self.flat, self.dim)),
            counted,
        }
    }

    /// Name of the attached kernel (`"blocked"` or `"kd"`), or `None`
    /// when lookups run the plain default path.
    pub fn kernel(&self) -> Option<&'static str> {
        self.kernel.as_ref().map(|k| match k {
            Kernel::Blocked(_) => "blocked",
            Kernel::Kd { .. } => "kd",
        })
    }

    /// Per-center squared norms, aligned with center order.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Number of centers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the set holds no centers.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Id of the center at `idx`.
    pub fn id(&self, idx: usize) -> i64 {
        self.ids[idx]
    }

    /// Coordinates of the center at `idx`.
    pub fn coords(&self, idx: usize) -> &[f64] {
        &self.flat[idx * self.dim..(idx + 1) * self.dim]
    }

    /// Index of the center with the given id.
    pub fn index_of(&self, id: i64) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// Iterates `(id, coords)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &[f64])> {
        self.ids
            .iter()
            .copied()
            .zip(self.flat.chunks_exact(self.dim))
    }

    /// Nearest center to `point`: `(index, id, squared_distance)`.
    pub fn nearest(&self, point: &[f64]) -> Option<(usize, i64, f64)> {
        self.nearest_with_cost(point)
            .map(|(idx, id, d2, _)| (idx, id, d2))
    }

    /// Nearest center plus the number of distance evaluations charged —
    /// `k`, or the tree's actual count under [`CenterSet::with_kd_index`].
    pub fn nearest_with_cost(&self, point: &[f64]) -> Option<(usize, i64, f64, u64)> {
        if self.is_empty() {
            return None;
        }
        let k = self.ids.len() as u64;
        match &self.kernel {
            Some(Kernel::Kd { tree, counted }) => {
                let q = tree.nearest(point);
                let evals = if *counted { q.evaluations as u64 } else { k };
                Some((q.index, self.ids[q.index], q.dist2, evals))
            }
            _ => nearest_center_flat(point, &self.flat, self.dim)
                .map(|(idx, d2)| (idx, self.ids[idx], d2, k)),
        }
    }

    /// Nearest center for every row of a flat point block, returning one
    /// `(index, id, squared_distance, evaluations)` per point.
    ///
    /// `point_norms` are the per-row squared norms of `points` (cached
    /// once per split by the point cache). A k-d tree answers per row,
    /// exactly like [`CenterSet::nearest_with_cost`]; otherwise the SIMD
    /// blocked batch kernel runs, over the center tiles
    /// [`CenterSet::with_backend`] built once, or over tiles built for
    /// this call when no kernel is attached. Both are bit-identical to the scalar
    /// scan, so only wall time (and, under
    /// [`CenterSet::with_kd_index`], the charged count) differs.
    ///
    /// Returns an empty vector when the set is empty.
    pub fn nearest_block(&self, points: &[f64], point_norms: &[f64]) -> Vec<Nearest> {
        if self.is_empty() || points.is_empty() {
            return Vec::new();
        }
        let nearest = match &self.kernel {
            Some(Kernel::Kd { .. }) => {
                return points
                    .chunks_exact(self.dim)
                    .filter_map(|p| self.nearest_with_cost(p))
                    .collect();
            }
            Some(Kernel::Blocked(tiles)) => tiles.nearest(points, point_norms),
            None => nearest_centers_batch(points, point_norms, &self.flat, &self.norms, self.dim),
        };
        let k = self.ids.len() as u64;
        nearest
            .into_iter()
            .map(|(idx, d2)| (idx, self.ids[idx], d2, k))
            .collect()
    }

    /// The centers as a [`Dataset`] (ids dropped, order preserved).
    pub fn to_dataset(&self) -> Dataset {
        Dataset::from_flat(self.dim, self.flat.clone())
    }
}

/// Checks `next_id`, the next center id a driver hands out: it must be
/// a valid id (below [`OFFSET`]) above every id in `ids`, so the
/// centers it names are fresh.
pub(crate) fn check_next_id(next_id: i64, ids: impl IntoIterator<Item = i64>) -> Result<()> {
    let max = ids.into_iter().max().unwrap_or(-1);
    if next_id <= max || next_id >= OFFSET {
        return Err(Error::Corrupt(format!(
            "next center id {next_id} is not a fresh id above {max}"
        )));
    }
    Ok(())
}

/// Journal wire form: the dimension, the ids, then the coordinates
/// flattened in center order. Decoding rejects as [`Error::Corrupt`]
/// every center [`CenterSet::push`] would panic on, a zero dimension,
/// and coordinates that do not fill one center per id.
impl Writable for CenterSet {
    fn write(&self, buf: &mut Vec<u8>) {
        (self.dim as u32).write(buf);
        self.ids.write(buf);
        self.flat.write(buf);
    }

    fn read(buf: &mut &[u8]) -> Result<Self> {
        let dim = u32::read(buf)? as usize;
        let ids = Vec::<i64>::read(buf)?;
        let flat = Vec::<f64>::read(buf)?;
        if dim == 0 || ids.len().checked_mul(dim) != Some(flat.len()) {
            return Err(Error::Corrupt(format!(
                "center set of {} ids and {} coordinates in dimension {dim}",
                ids.len(),
                flat.len()
            )));
        }
        Self::try_from_centers(dim, ids.iter().copied().zip(flat.chunks_exact(dim)))
    }
}

/// One refined center coming out of a k-means reducer.
#[derive(Clone, Debug, PartialEq)]
pub struct CenterUpdate {
    /// Center id.
    pub id: i64,
    /// New position (the mean of assigned points).
    pub coords: Vec<f64>,
    /// Number of points that contributed.
    pub count: u64,
}

impl CenterUpdate {
    /// The update of center `id` from its folded point sums: the mean,
    /// each coordinate sum times `1 / count` — the one place a reducer
    /// turns sums into a center.
    pub fn from_sums(id: i64, (mut coords, count): PointSum) -> Self {
        let inv = 1.0 / count as f64;
        coords.iter_mut().for_each(|c| *c *= inv);
        Self { id, coords, count }
    }
}

/// Applies reducer updates to a center set: updated ids move to their
/// new position; ids without an update keep their old position with a
/// count of zero (the empty-cluster convention). Returns the new set and
/// the per-center counts, aligned with the set's order.
pub fn apply_updates(current: &CenterSet, updates: &[CenterUpdate]) -> (CenterSet, Vec<u64>) {
    // Slot each update through the set's existing id→index map instead of
    // rebuilding a HashMap over the update list on every iteration.
    let mut slots: Vec<Option<&CenterUpdate>> = vec![None; current.len()];
    for u in updates {
        if let Some(idx) = current.index_of(u.id) {
            slots[idx] = Some(u);
        }
    }
    let mut next = CenterSet::new(current.dim());
    let mut counts = Vec::with_capacity(current.len());
    for (slot, (id, coords)) in slots.iter().zip(current.iter()) {
        match slot {
            Some(u) => {
                next.push(id, &u.coords);
                counts.push(u.count);
            }
            None => {
                next.push(id, coords);
                counts.push(0);
            }
        }
    }
    (next, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_mapreduce::writable::{from_bytes, to_bytes};

    #[test]
    fn push_and_lookup() {
        let mut s = CenterSet::new(2);
        s.push(10, &[1.0, 2.0]);
        s.push(20, &[3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.id(1), 20);
        assert_eq!(s.coords(0), &[1.0, 2.0]);
        assert_eq!(s.index_of(20), Some(1));
        assert_eq!(s.index_of(99), None);
        let pairs: Vec<(i64, Vec<f64>)> = s.iter().map(|(i, c)| (i, c.to_vec())).collect();
        assert_eq!(pairs, vec![(10, vec![1.0, 2.0]), (20, vec![3.0, 4.0])]);
    }

    #[test]
    fn nearest_uses_all_centers() {
        let mut s = CenterSet::new(1);
        s.push(5, &[0.0]);
        s.push(6, &[10.0]);
        let (idx, id, d2) = s.nearest(&[9.0]).unwrap();
        assert_eq!((idx, id), (1, 6));
        assert!((d2 - 1.0).abs() < 1e-12);
        assert_eq!(CenterSet::new(3).nearest(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    #[should_panic(expected = "duplicate center id")]
    fn duplicate_id_panics() {
        let mut s = CenterSet::new(1);
        s.push(1, &[0.0]);
        s.push(1, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "outside [0, OFFSET)")]
    fn reserved_id_panics() {
        let mut s = CenterSet::new(1);
        s.push(OFFSET, &[0.0]);
    }

    #[test]
    fn center_set_round_trips_on_the_wire() {
        let mut set = CenterSet::new(2);
        set.push(3, &[1.0, 2.0]);
        set.push(9, &[4.0, 5.0]);
        let back: CenterSet = from_bytes(&to_bytes(&set)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.id(0), 3);
        assert_eq!(back.coords(1), &[4.0, 5.0]);
        let empty = (0u32, (Vec::<i64>::new(), Vec::<f64>::new()));
        assert!(from_bytes::<CenterSet>(&to_bytes(&empty)).is_err());
    }

    /// Every set `push` would panic on decodes to a typed error instead.
    #[test]
    fn decoding_rejects_what_push_panics_on() {
        let wire = |dim: u32, ids: &[i64], coords: usize| {
            to_bytes(&(dim, (ids.to_vec(), vec![0.5f64; coords])))
        };
        assert!(from_bytes::<CenterSet>(&wire(2, &[0, 1], 4)).is_ok());
        for (case, bytes) in [
            ("ragged coordinates", wire(2, &[0, 1], 3)),
            ("duplicate id", wire(2, &[0, 0], 4)),
            ("id at OFFSET", wire(2, &[0, OFFSET], 4)),
            ("negative id", wire(2, &[-1], 2)),
            ("zero dimension", wire(0, &[0], 0)),
            ("no coordinates", wire(u32::MAX, &[0, 1], 0)),
        ] {
            match from_bytes::<CenterSet>(&bytes) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("{case}: {other:?}"),
            }
        }
    }

    #[test]
    fn offset_matches_paper() {
        // 2⁶², "approximatively 4E18".
        assert_eq!(OFFSET, 4_611_686_018_427_387_904);
    }

    #[test]
    fn apply_updates_moves_and_preserves() {
        let mut s = CenterSet::new(1);
        s.push(0, &[0.0]);
        s.push(1, &[10.0]);
        let updates = vec![CenterUpdate {
            id: 1,
            coords: vec![11.0],
            count: 7,
        }];
        let (next, counts) = apply_updates(&s, &updates);
        assert_eq!(next.coords(0), &[0.0]); // kept, empty
        assert_eq!(next.coords(1), &[11.0]); // moved
        assert_eq!(counts, vec![0, 7]);
    }

    #[test]
    fn apply_updates_ignores_unknown_ids() {
        let mut s = CenterSet::new(1);
        s.push(0, &[0.0]);
        let updates = vec![CenterUpdate {
            id: 99,
            coords: vec![5.0],
            count: 3,
        }];
        let (next, counts) = apply_updates(&s, &updates);
        assert_eq!(next.len(), 1);
        assert_eq!(next.coords(0), &[0.0]);
        assert_eq!(counts, vec![0]);
    }

    #[test]
    fn nearest_block_matches_per_point_lookup() {
        let mut s = CenterSet::new(2);
        s.push(0, &[0.0, 0.0]);
        s.push(1, &[10.0, 0.0]);
        s.push(2, &[5.0, 5.0]);
        let points = [1.0, 0.5, 9.0, -0.5, 5.0, 4.0, 5.0, 2.5];
        let norms = gmr_linalg::squared_norms(&points, 2);
        for set in [s.clone(), s.clone().with_kd_index()] {
            let block = set.nearest_block(&points, &norms);
            assert_eq!(block.len(), 4);
            for (p, got) in points.chunks_exact(2).zip(&block) {
                let (idx, id, d2, _) = set.nearest_with_cost(p).unwrap();
                assert_eq!((got.0, got.1), (idx, id));
                assert_eq!(got.2.to_bits(), d2.to_bits());
            }
        }
    }

    /// The counted (`with_kd_index`) and cost-neutral (`KernelBackend::Kd`)
    /// kd paths run the same tree query: both answer with the scan's
    /// bits, and they differ only in what they charge.
    #[test]
    fn kd_paths_match_the_scan_and_differ_only_in_cost() {
        let mut finite = CenterSet::new(2);
        for i in 0..8 {
            finite.push(i, &[i as f64 * 0.1, 0.0]);
        }
        for i in 8..40 {
            finite.push(i, &[500.0 + i as f64 * 0.1, (i % 5) as f64]);
        }
        let mut non_finite = finite.clone();
        non_finite.push(40, &[f64::NAN, 1.0]);
        non_finite.push(41, &[2.0, f64::INFINITY]);
        let points: Vec<f64> = (0..64).map(|i| ((i * 37) % 101) as f64 * 5.3).collect();
        let norms = gmr_linalg::squared_norms(&points, 2);
        let bits = |r: (usize, i64, f64, u64)| (r.0, r.1, r.2.to_bits(), r.3);
        for plain in [finite, non_finite] {
            let k = plain.len() as u64;
            let tree = KdTree::build(&plain.flat, 2);
            let counted = plain.clone().with_kd_index();
            let neutral = plain.clone().with_backend(KernelBackend::Kd);
            let mut charged = 0;
            for (set, is_counted) in [(&counted, true), (&neutral, false)] {
                let block = set.nearest_block(&points, &norms);
                assert_eq!(block.len(), points.len() / 2);
                for (p, &got) in points.chunks_exact(2).zip(&block) {
                    let one = set.nearest_with_cost(p).unwrap();
                    assert_eq!(bits(one), bits(got), "block and point paths agree");
                    let (idx, id, d2, _) = plain.nearest_with_cost(p).unwrap();
                    assert_eq!((got.0, got.1, got.2.to_bits()), (idx, id, d2.to_bits()));
                    if !is_counted {
                        assert_eq!(got.3, k, "cost-neutral: charges k");
                    } else if tree.is_poisoned() {
                        assert_eq!(got.3, k, "the poisoned tree scans");
                    } else {
                        assert_eq!(got.3, tree.nearest(p).evaluations as u64);
                        assert!(got.3 <= k);
                        charged += got.3;
                    }
                }
            }
            if !tree.is_poisoned() {
                assert!(charged < k * 32, "the tree evaluated every center");
            }
            for mut set in [counted, neutral] {
                assert!(set.kernel().is_some());
                set.push(99, &[3.0, 4.0]);
                assert_eq!(set.kernel(), None, "push must drop the kernel");
            }
        }
        let mut s = CenterSet::new(2);
        s.push(0, &[3.0, 4.0]);
        let mut indexed = s.with_kd_index();
        indexed.push(1, &[1.0, 2.0]);
        assert_eq!(indexed.norms(), &[25.0, 5.0]);
    }

    #[test]
    fn speed_backends_are_bit_identical_and_charge_full_scans() {
        let mut s = CenterSet::new(2);
        for i in 0..40 {
            s.push(i, &[(i % 8) as f64 * 3.0, (i / 8) as f64 * 3.0]);
        }
        let points: Vec<f64> = (0..64).map(|i| ((i * 7) % 23) as f64).collect();
        let norms = gmr_linalg::squared_norms(&points, 2);
        let want = s.nearest_block(&points, &norms);
        for backend in [
            KernelBackend::Auto,
            KernelBackend::Blocked,
            KernelBackend::Kd,
        ] {
            let fast = s.clone().with_backend(backend);
            assert!(fast.kernel().is_some());
            let got = fast.nearest_block(&points, &norms);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0, g.1), (w.0, w.1), "{backend:?}");
                assert_eq!(g.2.to_bits(), w.2.to_bits(), "{backend:?}");
                assert_eq!(g.3, 40, "{backend:?} must charge k evals");
            }
            // Single-point dispatch agrees too.
            for p in points.chunks_exact(2) {
                let a = fast.nearest_with_cost(p).unwrap();
                let b = s.nearest_with_cost(p).unwrap();
                assert_eq!(
                    (a.0, a.1, a.2.to_bits(), a.3),
                    (b.0, b.1, b.2.to_bits(), b.3)
                );
            }
        }
    }

    #[test]
    fn auto_backend_resolution_follows_shape() {
        assert_eq!(
            KernelBackend::Auto.resolve(2, 128),
            KernelBackend::Kd,
            "low d, many centers: kd"
        );
        assert_eq!(
            KernelBackend::Auto.resolve(32, 4096),
            KernelBackend::Blocked,
            "high d: blocked"
        );
        assert_eq!(
            KernelBackend::Auto.resolve(2, 4),
            KernelBackend::Blocked,
            "too few centers to amortize a tree"
        );
        assert_eq!(
            KernelBackend::Auto.resolve(8, 128),
            KernelBackend::Blocked,
            "d=8 below the conservative k threshold: blocked"
        );
        assert_eq!(
            KernelBackend::Auto.resolve(8, 512),
            KernelBackend::Kd,
            "d=8 above the conservative k threshold: kd"
        );
        assert_eq!(KernelBackend::Kd.resolve(128, 2), KernelBackend::Kd);
    }

    #[test]
    fn non_finite_centers_force_the_blocked_speed_backend() {
        let mut s = CenterSet::new(2);
        for i in 0..40 {
            s.push(i, &[i as f64, 1.0]);
        }
        s.push(40, &[f64::NAN, f64::INFINITY]);
        let fast = s.clone().with_backend(KernelBackend::Auto);
        assert_eq!(fast.kernel(), Some("blocked"));
        // The blocked path's scan fallback keeps bit-identity even here.
        let points = [3.5, 0.5, 100.0, -2.0];
        let norms = gmr_linalg::squared_norms(&points, 2);
        let got = fast.nearest_block(&points, &norms);
        for (p, g) in points.chunks_exact(2).zip(&got) {
            let (idx, d2) = gmr_linalg::nearest_center_flat(p, &s.flat, 2).unwrap();
            assert_eq!(g.0, idx);
            assert_eq!(g.2.to_bits(), d2.to_bits());
        }
    }

    #[test]
    fn push_invalidates_the_speed_backend() {
        let mut s = CenterSet::new(1);
        for i in 0..40 {
            s.push(i, &[i as f64]);
        }
        let mut fast = s.with_backend(KernelBackend::Auto);
        assert!(fast.kernel().is_some());
        fast.push(99, &[0.5]);
        assert_eq!(fast.kernel(), None, "push must drop the backend");
    }

    /// The full-size kernel differential: gmeans-text's four datasets
    /// (100k points in R¹⁰ around 100 clusters each), in map-task blocks,
    /// through the blocked kernel against center sets as G-means draws
    /// them — the first k true centers, and two points of each of the
    /// first ⌈k/2⌉ clusters, the child pairs find-new-centers picks — for
    /// k from 1 to 200, bit-compared with the per-point scan. Run with
    /// `cargo test --release -p gmeans -- --ignored`.
    #[test]
    #[ignore = "0.7G distance evaluations: run in release"]
    fn gmeans_text_datasets_assign_bit_identical_to_the_scan() {
        use gmr_datagen::GaussianMixture;
        use gmr_linalg::squared_norms;
        use gmr_mapreduce::runtime::MAP_BLOCK_POINTS;
        const KS: [usize; 19] = [
            1, 2, 3, 4, 7, 8, 16, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 199, 200,
        ];
        for seed in 4..8 {
            let data = GaussianMixture::paper_r10(100_000, 100, seed)
                .generate()
                .expect("a valid mixture");
            let dim = data.points.dim();
            let (points, norms) = (data.points.flat(), squared_norms(data.points.flat(), dim));
            let mut members = vec![Vec::new(); data.true_centers.len()];
            for (i, &label) in data.labels.iter().enumerate() {
                if members[label as usize].len() < 2 {
                    members[label as usize].push(i);
                }
            }
            for k in KS {
                let children: Vec<f64> = (0..k)
                    .flat_map(|c| data.points.row(members[c / 2][c % 2]).to_vec())
                    .collect();
                let mut sets = vec![children];
                if k <= data.true_centers.len() {
                    sets.push(data.true_centers.flat()[..k * dim].to_vec());
                }
                for centers in sets {
                    let center_norms = squared_norms(&centers, dim);
                    let blocks = points.chunks(MAP_BLOCK_POINTS * dim);
                    for (b, block) in blocks.enumerate() {
                        let at = b * MAP_BLOCK_POINTS;
                        let block_norms = &norms[at..at + block.len() / dim];
                        let got =
                            nearest_centers_batch(block, block_norms, &centers, &center_norms, dim);
                        for (i, (p, g)) in block.chunks_exact(dim).zip(got).enumerate() {
                            let want = nearest_center_flat(p, &centers, dim).expect("centers");
                            assert_eq!(
                                (g.0, g.1.to_bits()),
                                (want.0, want.1.to_bits()),
                                "seed {seed}, k {k}, point {}",
                                at + i
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_dataset_assigns_sequential_ids() {
        let ds = Dataset::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = CenterSet::from_dataset(&ds);
        assert_eq!(s.id(0), 0);
        assert_eq!(s.id(1), 1);
        assert_eq!(s.to_dataset(), ds);
    }
}
