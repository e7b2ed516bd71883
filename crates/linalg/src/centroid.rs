//! Centroid accumulators: the associative value of the k-means shuffle.
//!
//! The classical MapReduce k-means job emits `(center_id, (coords, 1))`
//! per point; combiners pre-aggregate partial `(sum, count)` pairs and
//! the reducer finalizes `sum / count` as the new center position (paper
//! §3, "classical MapReduce implementation of k-means with combiners").
//! The accumulator must be associative and commutative for combining to
//! be sound; the property tests below pin that down.

use crate::point::Point;

/// A partial sum of points assigned to one cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct CentroidAccumulator {
    sum: Vec<f64>,
    count: u64,
}

impl CentroidAccumulator {
    /// An empty accumulator for points in `R^dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            sum: vec![0.0; dim],
            count: 0,
        }
    }

    /// An accumulator holding a single point.
    pub fn from_point(coords: &[f64]) -> Self {
        Self {
            sum: coords.to_vec(),
            count: 1,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.sum.len()
    }

    /// Number of points folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Coordinate sums.
    pub fn sum(&self) -> &[f64] {
        &self.sum
    }

    /// Folds one point in.
    ///
    /// # Panics
    /// Panics if the point has the wrong dimension.
    pub fn push(&mut self, coords: &[f64]) {
        assert_eq!(coords.len(), self.sum.len(), "dimension mismatch");
        for (s, c) in self.sum.iter_mut().zip(coords) {
            *s += c;
        }
        self.count += 1;
    }

    /// Merges another accumulator (combiner/reducer fold).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn merge(&mut self, other: &CentroidAccumulator) {
        assert_eq!(other.sum.len(), self.sum.len(), "dimension mismatch");
        for (s, o) in self.sum.iter_mut().zip(&other.sum) {
            *s += o;
        }
        self.count += other.count;
    }

    /// Finalizes the mean position, or `None` when no point was folded
    /// in (an empty cluster keeps its previous center upstream).
    pub fn mean(&self) -> Option<Point> {
        if self.count == 0 {
            return None;
        }
        let inv = 1.0 / self.count as f64;
        Some(Point::new(self.sum.iter().map(|s| s * inv).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_two_points() {
        let mut acc = CentroidAccumulator::new(2);
        acc.push(&[0.0, 0.0]);
        acc.push(&[2.0, 4.0]);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.mean().unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn empty_mean_is_none() {
        assert_eq!(CentroidAccumulator::new(3).mean(), None);
    }

    #[test]
    fn from_point_equals_push() {
        let a = CentroidAccumulator::from_point(&[1.0, 2.0]);
        let mut b = CentroidAccumulator::new(2);
        b.push(&[1.0, 2.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = CentroidAccumulator::from_point(&[1.0]);
        let b = CentroidAccumulator::from_point(&[3.0]);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut a = CentroidAccumulator::new(2);
        a.push(&[1.0]);
    }

    fn acc_of(points: &[Vec<f64>]) -> CentroidAccumulator {
        let mut acc = CentroidAccumulator::new(points.first().map_or(1, |p| p.len()));
        for p in points {
            acc.push(p);
        }
        acc
    }

    proptest! {
        /// Combining partial accumulators must equal accumulating the
        /// concatenated stream — the soundness condition for map-side
        /// combining.
        #[test]
        fn merge_is_associative_and_matches_sequential(
            a in proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, 3), 1..20),
            b in proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, 3), 1..20),
            c in proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, 3), 1..20),
        ) {
            // ((a ∪ b) ∪ c)
            let mut left = acc_of(&a);
            left.merge(&acc_of(&b));
            left.merge(&acc_of(&c));
            // (a ∪ (b ∪ c))
            let mut right_tail = acc_of(&b);
            right_tail.merge(&acc_of(&c));
            let mut right = acc_of(&a);
            right.merge(&right_tail);
            // sequential
            let all: Vec<Vec<f64>> =
                a.iter().chain(&b).chain(&c).cloned().collect();
            let seq = acc_of(&all);

            prop_assert_eq!(left.count(), seq.count());
            prop_assert_eq!(right.count(), seq.count());
            for i in 0..3 {
                prop_assert!((left.sum()[i] - seq.sum()[i]).abs() < 1e-6);
                prop_assert!((right.sum()[i] - seq.sum()[i]).abs() < 1e-6);
            }
        }

        #[test]
        fn mean_is_within_bounding_box(
            pts in proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, 2), 1..50),
        ) {
            let acc = acc_of(&pts);
            let mean = acc.mean().unwrap();
            for d in 0..2 {
                let lo = pts.iter().map(|p| p[d]).fold(f64::INFINITY, f64::min);
                let hi = pts.iter().map(|p| p[d]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(mean[d] >= lo - 1e-9 && mean[d] <= hi + 1e-9);
            }
        }
    }
}
