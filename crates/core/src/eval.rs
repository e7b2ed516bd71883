//! Clustering evaluation: assignments, WCSS and the paper's quality
//! metric.
//!
//! Table 3 compares G-means and multi-k-means by "the average distance
//! between points and their centers" (the square root companion of the
//! within-cluster sum of squares the k-means objective minimizes); these
//! helpers compute both, plus the per-cluster assignment and size
//! breakdowns the other experiments need.

use gmr_linalg::{nearest_center_flat, Dataset};
use rayon::prelude::*;

/// Result of assigning every point to its nearest center.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Index (into the center set) each point is assigned to.
    pub labels: Vec<u32>,
    /// Within-cluster sum of squares: `Σᵢ ‖xᵢ − c_{labels[i]}‖²`.
    pub wcss: f64,
    /// Sum of plain Euclidean distances to assigned centers.
    pub total_distance: f64,
    /// Points per center.
    pub cluster_sizes: Vec<u64>,
}

impl Assignment {
    /// Number of points assigned.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no point was assigned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The paper's Table 3 metric: mean distance of a point to its
    /// assigned center.
    pub fn average_distance(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.total_distance / self.labels.len() as f64
        }
    }
}

/// Assigns every point of `data` to its nearest center in `centers`.
///
/// Runs in parallel over points with rayon (the serial baselines use
/// this for Table 3 over tens of thousands of points × hundreds of
/// centers).
///
/// # Panics
/// Panics if `centers` is empty or dimensions differ.
pub fn assign(data: &Dataset, centers: &Dataset) -> Assignment {
    assert!(!centers.is_empty(), "need at least one center");
    assert_eq!(data.dim(), centers.dim(), "dimension mismatch");
    let dim = data.dim();
    let flat = centers.flat();

    let per_point: Vec<(u32, f64)> = data
        .rows()
        .collect::<Vec<_>>()
        .par_iter()
        .map(|row| {
            let (idx, d2) = nearest_center_flat(row, flat, dim).expect("nonempty centers");
            (idx as u32, d2)
        })
        .collect();

    let mut cluster_sizes = vec![0u64; centers.len()];
    let mut wcss = 0.0;
    let mut total_distance = 0.0;
    let mut labels = Vec::with_capacity(per_point.len());
    for (idx, d2) in per_point {
        cluster_sizes[idx as usize] += 1;
        wcss += d2;
        total_distance += d2.sqrt();
        labels.push(idx);
    }
    Assignment {
        labels,
        wcss,
        total_distance,
        cluster_sizes,
    }
}

/// Within-cluster sum of squares of `centers` on `data`.
pub fn wcss(data: &Dataset, centers: &Dataset) -> f64 {
    assign(data, centers).wcss
}

/// The paper's Table 3 metric in one call.
pub fn average_distance(data: &Dataset, centers: &Dataset) -> f64 {
    assign(data, centers).average_distance()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_dataset() -> Dataset {
        // Four points at the corners of a unit square.
        Dataset::from_flat(2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    }

    #[test]
    fn assignment_to_own_positions_is_exact() {
        let data = square_dataset();
        let a = assign(&data, &data);
        assert_eq!(a.labels, vec![0, 1, 2, 3]);
        assert_eq!(a.wcss, 0.0);
        assert_eq!(a.average_distance(), 0.0);
        assert_eq!(a.cluster_sizes, vec![1, 1, 1, 1]);
    }

    #[test]
    fn single_center_collects_everything() {
        let data = square_dataset();
        let center = Dataset::from_flat(2, vec![0.5, 0.5]);
        let a = assign(&data, &center);
        assert_eq!(a.labels, vec![0; 4]);
        assert_eq!(a.cluster_sizes, vec![4]);
        // Each corner is at distance √0.5.
        assert!((a.wcss - 4.0 * 0.5).abs() < 1e-12);
        assert!((a.average_distance() - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn two_centers_split_the_square() {
        let data = square_dataset();
        let centers = Dataset::from_flat(2, vec![0.0, 0.5, 1.0, 0.5]);
        let a = assign(&data, &centers);
        assert_eq!(a.labels, vec![0, 0, 1, 1]);
        assert_eq!(a.cluster_sizes, vec![2, 2]);
        assert!((a.wcss - 4.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn helpers_agree_with_assignment() {
        let data = square_dataset();
        let centers = Dataset::from_flat(2, vec![0.25, 0.25]);
        let a = assign(&data, &centers);
        assert!((wcss(&data, &centers) - a.wcss).abs() < 1e-12);
        assert!((average_distance(&data, &centers) - a.average_distance()).abs() < 1e-12);
    }

    #[test]
    fn more_centers_never_raise_wcss() {
        let data = square_dataset();
        let one = Dataset::from_flat(2, vec![0.5, 0.5]);
        let mut two = one.clone();
        two.push(&[0.0, 0.0]);
        assert!(wcss(&data, &two) <= wcss(&data, &one) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn empty_centers_panic() {
        let data = square_dataset();
        let centers = Dataset::new(2);
        let _ = assign(&data, &centers);
    }
}
