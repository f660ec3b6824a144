//! Coordinate-format (triplet) matrix builder.
//!
//! Stamping codes — the MNA stamper and the via-array electrical model —
//! produce entries in arbitrary order with duplicates; [`TripletMatrix`]
//! collects them and converts to compressed sparse row storage, summing
//! duplicates, which is exactly the assembly semantics they need. (The
//! finite-element engine builds its CSR directly; see
//! [`CsrMatrix::from_parts`].)

use crate::csr::CsrMatrix;

/// A growable coordinate-format sparse matrix.
///
/// Duplicate `(row, col)` entries are allowed and are **summed** when the
/// matrix is converted with [`TripletMatrix::to_csr`].
///
/// # Example
///
/// ```
/// use emgrid_sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicates are summed
/// t.push(1, 1, 5.0);
/// let m = t.to_csr();
/// assert_eq!(m.get(0, 0), 3.0);
/// assert_eq!(m.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows x cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with capacity for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry; duplicates are summed at conversion time.
    ///
    /// Entries that are exactly zero are kept (they may still shape the
    /// sparsity pattern, which symbolic factorization relies on).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Appends a symmetric pair `(row, col, v)` and `(col, row, v)`; when
    /// `row == col` the entry is pushed once.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Converts to compressed sparse row format, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(self.rows, self.cols, &self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(1, 2, 1.5);
        t.push(1, 2, 2.5);
        t.push(0, 0, 1.0);
        let m = t.to_csr();
        assert_eq!(m.get(1, 2), 4.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn push_sym_mirrors_off_diagonals_only() {
        let mut t = TripletMatrix::new(2, 2);
        t.push_sym(0, 1, 3.0);
        t.push_sym(1, 1, 7.0);
        let m = t.to_csr();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "row 5 out of bounds")]
    fn out_of_bounds_row_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(5, 0, 1.0);
    }

    #[test]
    fn empty_builder_yields_empty_matrix() {
        let t = TripletMatrix::new(4, 4);
        assert!(t.is_empty());
        let m = t.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 4);
    }
}
