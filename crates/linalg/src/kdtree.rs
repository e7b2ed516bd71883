//! A static k-d tree for exact nearest-center search.
//!
//! The paper's related work (§2) singles out tree-based nearest-neighbor
//! acceleration — "the mrkd-tree algorithm proposed by Pelleg et al." —
//! as an optimization that "can perfectly be added to our
//! implementation". This is that addition: centers are indexed once per
//! job (they change between jobs), and every point lookup descends the
//! tree with standard hypersphere/hyperplane pruning instead of scanning
//! all k centers.
//!
//! The search is exact: it returns the same center a linear scan would
//! (ties broken by the lower index). Queries report how many distance
//! evaluations they performed, so the §4 cost accounting stays truthful
//! when the index is enabled.
//!
//! Non-finite coordinates break both the spatial splits (NaN has no
//! order) and the hypersphere pruning test, and the naive scan's
//! comparison semantics around NaN are what the mapper bit-identity
//! contract pins. A buffer containing any non-finite coordinate
//! therefore *poisons* the tree at build time, and a poisoned tree — or
//! any query with a non-finite coordinate — answers with the reference
//! linear scan itself (charging all `n` evaluations), so the result is
//! the scan's by construction.

use crate::distance::{nearest_center_flat, squared_euclidean};

/// Leaf capacity: below this many points a subtree is scanned linearly.
const LEAF_SIZE: usize = 8;

#[derive(Clone, Debug)]
enum Node {
    /// `start..end` range into the permuted index array.
    Leaf { start: u32, end: u32 },
    /// Split along `dim` at `value`; left child is `self + 1`, right
    /// child is `right`.
    Internal { dim: u32, value: f64, right: u32 },
}

/// An immutable k-d tree over a flat row-major point buffer.
#[derive(Clone, Debug)]
pub struct KdTree {
    dim: usize,
    flat: Vec<f64>,
    order: Vec<u32>,
    /// The points permuted into tree order (`arranged[i] = flat[order[i]]`
    /// row-wise), so leaf scans read contiguous memory instead of
    /// gathering through `order`. `flat` stays in original order for the
    /// poisoned/non-finite linear-scan fallback, whose semantics depend
    /// on scan order.
    arranged: Vec<f64>,
    nodes: Vec<Node>,
    /// Set when the build saw a non-finite coordinate; queries then run
    /// the reference linear scan instead of descending.
    poisoned: bool,
}

/// Result of one nearest-neighbor query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KdQuery {
    /// Index of the nearest point in the original buffer.
    pub index: usize,
    /// Squared distance to it.
    pub dist2: f64,
    /// Distance evaluations performed (≤ the number of indexed points;
    /// the honest unit for the paper's cost accounting).
    pub evaluations: u32,
}

impl KdTree {
    /// Builds a tree over `n = flat.len() / dim` points.
    ///
    /// # Panics
    /// Panics if `dim == 0`, the buffer is ragged, or there are no
    /// points.
    pub fn build(flat: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(flat.len() % dim, 0, "ragged point buffer");
        let n = flat.len() / dim;
        assert!(n > 0, "cannot index zero points");
        let poisoned = flat.iter().any(|x| !x.is_finite());
        let mut tree = Self {
            dim,
            flat: flat.to_vec(),
            order: (0..n as u32).collect(),
            arranged: Vec::new(),
            nodes: Vec::with_capacity(2 * n / LEAF_SIZE + 2),
            poisoned,
        };
        if poisoned {
            // One all-covering leaf; `nearest` never descends anyway.
            tree.nodes.push(Node::Leaf {
                start: 0,
                end: n as u32,
            });
        } else {
            tree.build_node(0, n);
        }
        tree.arranged = tree
            .order
            .iter()
            .flat_map(|&p| {
                tree.flat[p as usize * dim..(p as usize + 1) * dim]
                    .iter()
                    .copied()
            })
            .collect();
        tree
    }

    /// True when the indexed buffer contained a non-finite coordinate
    /// and every query answers via the linear-scan fallback.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn coord(&self, point_idx: u32, d: usize) -> f64 {
        self.flat[point_idx as usize * self.dim + d]
    }

    /// Recursively builds the subtree over `order[start..end]`, pushing
    /// nodes in pre-order (left child directly follows its parent).
    fn build_node(&mut self, start: usize, end: usize) -> u32 {
        let id = self.nodes.len() as u32;
        if end - start <= LEAF_SIZE {
            self.nodes.push(Node::Leaf {
                start: start as u32,
                end: end as u32,
            });
            return id;
        }
        // Split along the dimension with the widest spread.
        let mut split_dim = 0;
        let mut best_spread = f64::NEG_INFINITY;
        for d in 0..self.dim {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &p in &self.order[start..end] {
                let v = self.coord(p, d);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let spread = hi - lo;
            if spread > best_spread {
                best_spread = spread;
                split_dim = d;
            }
        }
        if best_spread <= 0.0 {
            // All points coincide: no split possible.
            self.nodes.push(Node::Leaf {
                start: start as u32,
                end: end as u32,
            });
            return id;
        }
        let mid = start + (end - start) / 2;
        let (before, _, _) =
            self.order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                self.flat[a as usize * self.dim + split_dim]
                    .partial_cmp(&self.flat[b as usize * self.dim + split_dim])
                    .expect("finite coordinates")
            });
        debug_assert_eq!(before.len(), mid - start);
        let split_value = self.coord(self.order[mid], split_dim);

        self.nodes.push(Node::Internal {
            dim: split_dim as u32,
            value: split_value,
            right: 0, // patched below
        });
        let left = self.build_node(start, mid);
        debug_assert_eq!(left, id + 1);
        let right = self.build_node(mid, end);
        if let Node::Internal { right: r, .. } = &mut self.nodes[id as usize] {
            *r = right;
        }
        id
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the tree indexes no points (never constructed; `build`
    /// rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Exact nearest neighbor of `point`.
    ///
    /// # Panics
    /// Panics if `point.len() != dim`.
    pub fn nearest(&self, point: &[f64]) -> KdQuery {
        assert_eq!(point.len(), self.dim, "dimension mismatch");
        if self.poisoned || point.iter().any(|x| !x.is_finite()) {
            // Non-finite geometry: answer with the reference scan so the
            // result (NaN comparison semantics included) is the scan's.
            let (index, dist2) =
                nearest_center_flat(point, &self.flat, self.dim).expect("non-empty tree");
            return KdQuery {
                index,
                dist2,
                evaluations: self.order.len() as u32,
            };
        }
        let mut best = KdQuery {
            index: usize::MAX,
            dist2: f64::INFINITY,
            evaluations: 0,
        };
        // Iterative descent replicating the recursive traversal exactly:
        // descend the near side, deferring each far child (with its
        // plane distance) on a stack; popping revisits the deferred
        // fars in the same order — and against the same running best —
        // as the recursion's post-near checks, so evaluation counts are
        // identical too. Midpoint splits keep the tree balanced, so
        // depth (= stack use) is at most ⌈log2(u32::MAX / LEAF_SIZE)⌉ =
        // 29 deferred entries.
        let mut stack = [(0u32, 0.0f64); 32];
        let mut sp = 0usize;
        let mut node = 0u32;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { start, end } => {
                    let (s, e) = (*start as usize, *end as usize);
                    let rows = &self.arranged[s * self.dim..e * self.dim];
                    for (off, row) in rows.chunks_exact(self.dim).enumerate() {
                        let d2 = leaf_dist2(point, row);
                        best.evaluations += 1;
                        let p = self.order[s + off] as usize;
                        // Strict less-than plus index tie-break keeps
                        // results identical to a first-wins linear scan.
                        if d2 < best.dist2 || (d2 == best.dist2 && p < best.index) {
                            best.dist2 = d2;
                            best.index = p;
                        }
                    }
                    loop {
                        if sp == 0 {
                            return best;
                        }
                        sp -= 1;
                        let (far, delta2) = stack[sp];
                        if delta2 <= best.dist2 {
                            node = far;
                            break;
                        }
                    }
                }
                Node::Internal { dim, value, right } => {
                    let delta = point[*dim as usize] - value;
                    let (near, far) = if delta < 0.0 {
                        (node + 1, *right)
                    } else {
                        (*right, node + 1)
                    };
                    stack[sp] = (far, delta * delta);
                    sp += 1;
                    node = near;
                }
            }
        }
    }
}

/// Leaf-scan distance: low dimensions get an unrolled form whose
/// operation order — and therefore every result bit — matches
/// [`squared_euclidean`]'s left-to-right accumulation (`0.0 + d²` is
/// bit-identical to `d²` because a square is never `-0.0`).
#[inline(always)]
fn leaf_dist2(a: &[f64], b: &[f64]) -> f64 {
    match (a.len(), b.len()) {
        (1, 1) => {
            let d = a[0] - b[0];
            d * d
        }
        (2, 2) => {
            let dx = a[0] - b[0];
            let dy = a[1] - b[1];
            dx * dx + dy * dy
        }
        (3, 3) => {
            let dx = a[0] - b[0];
            let dy = a[1] - b[1];
            let dz = a[2] - b[2];
            (dx * dx + dy * dy) + dz * dz
        }
        _ => squared_euclidean(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::nearest_center_flat;
    use proptest::prelude::*;

    fn grid_points(n: usize, dim: usize) -> Vec<f64> {
        // Deterministic uniform-ish scatter via xorshift.
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n * dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 10_000) as f64 / 100.0 - 50.0
            })
            .collect()
    }

    #[test]
    fn matches_linear_scan_on_grid() {
        for dim in [1usize, 2, 5, 10] {
            let flat = grid_points(100, dim);
            let tree = KdTree::build(&flat, dim);
            assert_eq!(tree.len(), 100);
            for q in 0..50 {
                let query: Vec<f64> = (0..dim)
                    .map(|d| (q * dim + d) as f64 * 0.7 - 20.0)
                    .collect();
                let kd = tree.nearest(&query);
                let (li, ld2) = nearest_center_flat(&query, &flat, dim).unwrap();
                assert_eq!(kd.index, li, "dim {dim} query {q}");
                assert!((kd.dist2 - ld2).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn prunes_most_evaluations_on_separated_data() {
        // 1000 well-spread points in R3: queries should touch far fewer
        // than all of them.
        let flat = grid_points(1000, 3);
        let tree = KdTree::build(&flat, 3);
        let mut total_evals = 0u32;
        for q in 0..100 {
            let query = [q as f64 - 50.0, (q * 3) as f64 % 70.0 - 35.0, 0.0];
            total_evals += tree.nearest(&query).evaluations;
        }
        let avg = total_evals as f64 / 100.0;
        assert!(avg < 400.0, "avg {avg} evaluations out of 1000 points");
    }

    #[test]
    fn single_point_tree() {
        let tree = KdTree::build(&[3.0, 4.0], 2);
        let q = tree.nearest(&[0.0, 0.0]);
        assert_eq!(q.index, 0);
        assert!((q.dist2 - 25.0).abs() < 1e-12);
        assert_eq!(q.evaluations, 1);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let flat = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0];
        let tree = KdTree::build(&flat, 2);
        let q = tree.nearest(&[1.0, 1.0]);
        assert_eq!(q.dist2, 0.0);
        assert!(q.index < 3);
    }

    #[test]
    fn all_identical_points_collapse_to_leaf() {
        let flat = vec![5.0; 3 * 40]; // 40 identical R3 points
        let tree = KdTree::build(&flat, 3);
        let q = tree.nearest(&[5.0, 5.0, 5.0]);
        assert_eq!(q.dist2, 0.0);
        assert_eq!(q.index, 0, "tie-break must pick the first index");
    }

    #[test]
    #[should_panic(expected = "zero points")]
    fn empty_build_panics() {
        KdTree::build(&[], 2);
    }

    #[test]
    fn non_finite_points_poison_the_tree_into_scan_fallback() {
        // NaN and ±∞ in the indexed buffer: the tree must answer with
        // the exact linear-scan result (its NaN semantics included).
        let mut flat: Vec<f64> = (0..20).map(|i| (i % 7) as f64).collect();
        flat[3] = f64::NAN;
        flat[10] = f64::INFINITY;
        let tree = KdTree::build(&flat, 2);
        assert!(tree.is_poisoned());
        for q in 0..15 {
            let query = [q as f64 * 0.4, (q * 2) as f64 * 0.3];
            let kd = tree.nearest(&query);
            let (li, ld2) = nearest_center_flat(&query, &flat, 2).unwrap();
            assert_eq!(kd.index, li);
            assert_eq!(kd.dist2.to_bits(), ld2.to_bits());
            assert_eq!(kd.evaluations, 10, "fallback charges a full scan");
        }
    }

    #[test]
    fn non_finite_query_falls_back_to_scan() {
        let flat: Vec<f64> = (0..30).map(|i| (i % 11) as f64).collect();
        let tree = KdTree::build(&flat, 2);
        assert!(!tree.is_poisoned());
        for query in [
            [f64::NAN, 1.0],
            [1.0, f64::NAN],
            [f64::INFINITY, 0.0],
            [f64::NEG_INFINITY, f64::NAN],
        ] {
            let kd = tree.nearest(&query);
            let (li, ld2) = nearest_center_flat(&query, &flat, 2).unwrap();
            assert_eq!(kd.index, li);
            assert_eq!(kd.dist2.to_bits(), ld2.to_bits());
        }
    }

    proptest! {
        /// The tree is exact: any query returns the linear-scan result.
        #[test]
        fn prop_matches_linear_scan(
            pts in proptest::collection::vec(-100.0..100.0f64, 2..400),
            qx in -150.0..150.0f64,
            qy in -150.0..150.0f64,
        ) {
            prop_assume!(pts.len() % 2 == 0);
            let tree = KdTree::build(&pts, 2);
            let kd = tree.nearest(&[qx, qy]);
            let (li, ld2) = nearest_center_flat(&[qx, qy], &pts, 2).unwrap();
            prop_assert_eq!(kd.index, li);
            prop_assert!((kd.dist2 - ld2).abs() < 1e-9);
            prop_assert!(kd.evaluations as usize <= pts.len() / 2);
        }

        /// The mapper-backend contract: coarse integer grids with
        /// duplicated points and midpoint queries generate dense exact
        /// ties, and the tree must resolve every one of them exactly
        /// like the first-wins linear scan — index and distance bits.
        #[test]
        fn prop_exact_tie_grids_are_bit_identical_to_scan(
            dim in 1usize..5,
            k in 1usize..60,
            grid in 1usize..5,
            n in 1usize..40,
            seed: u64,
        ) {
            let mut state = seed | 1;
            let mut next_u = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 33
            };
            let pts: Vec<f64> = (0..k * dim)
                .map(|_| (next_u() % grid as u64) as f64)
                .collect();
            let tree = KdTree::build(&pts, dim);
            for _ in 0..n {
                let q: Vec<f64> = (0..dim)
                    .map(|_| (next_u() % grid as u64) as f64 + 0.5)
                    .collect();
                let kd = tree.nearest(&q);
                let (li, ld2) = nearest_center_flat(&q, &pts, dim).unwrap();
                prop_assert_eq!(kd.index, li);
                prop_assert_eq!(kd.dist2.to_bits(), ld2.to_bits());
            }
        }
    }
}
