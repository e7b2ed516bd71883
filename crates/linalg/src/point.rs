//! Owned point and flat dataset representations.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense point in `R^d`.
///
/// `Point` is the ergonomic unit the public APIs exchange (cluster
/// centers, generated samples). Inner loops that sweep millions of points
/// use [`Dataset`] and raw `&[f64]` rows instead, so `Point` does not try
/// to be clever about storage: it owns a `Vec<f64>`.
#[derive(Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Self { coords }
    }

    /// Dimensionality of the point.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.coords
    }

    /// Consumes the point, returning its coordinate vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.coords
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

impl Index<usize> for Point {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl IndexMut<usize> for Point {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

/// A row-major, flat collection of points sharing one dimensionality.
///
/// All serial algorithms operate on a `Dataset` because iterating a flat
/// `Vec<f64>` in row order is measurably faster than chasing one heap
/// allocation per point. Rows are exposed as `&[f64]` slices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset of points in `R^dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty dataset with storage reserved for `n` points.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a dataset from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f64>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer length not a multiple of dim"
        );
        Self { dim, data }
    }

    /// Dimensionality of every point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one point given as a coordinate slice.
    ///
    /// # Panics
    /// Panics if `coords.len() != dim`.
    pub fn push(&mut self, coords: &[f64]) {
        assert_eq!(coords.len(), self.dim, "dimension mismatch");
        self.data.extend_from_slice(coords);
    }

    /// Row `i` as a coordinate slice.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Iterator over all rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + Clone {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat buffer.
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// Copies row `i` into an owned [`Point`].
    pub fn point(&self, i: usize) -> Point {
        Point::from(self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_push_and_row() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0]);
        ds.push(&[3.0, 4.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.row(0), &[1.0, 2.0]);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
        assert_eq!(ds.rows().count(), 2);
    }

    #[test]
    fn dataset_from_flat_round_trip() {
        let ds = Dataset::from_flat(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1).as_slice(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dataset_push_wrong_dim_panics() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn dataset_from_flat_ragged_panics() {
        let _ = Dataset::from_flat(2, vec![1.0, 2.0, 3.0]);
    }
}
