//! Compressed sparse row matrices.

use crate::dense::DenseMatrix;
use crate::ordering::Permutation;

/// An immutable sparse matrix in compressed sparse row (CSR) format.
///
/// Column indices within each row are strictly increasing and duplicate
/// entries have been summed. For symmetric matrices, CSR of the full matrix
/// doubles as compressed sparse column storage of the transpose, which the
/// factorization code exploits.
///
/// # Example
///
/// ```
/// use emgrid_sparse::{TripletMatrix, CsrMatrix};
///
/// let mut t = TripletMatrix::new(2, 3);
/// t.push(0, 2, 1.0);
/// t.push(1, 0, -4.0);
/// let m: CsrMatrix = t.to_csr();
/// assert_eq!(m.matvec(&[1.0, 0.0, 2.0]), vec![2.0, -4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets, summing
    /// duplicates in the order they appear.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        // Count entries per row (including duplicates for now).
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows && (c as usize) < cols);
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        // Scatter into row buckets, keeping each row's arrival order.
        let mut col_idx = vec![0u32; triplets.len()];
        let mut values = vec![0.0f64; triplets.len()];
        let mut next = row_ptr[..rows].to_vec();
        for &(r, c, v) in triplets {
            let slot = next[r as usize];
            col_idx[slot] = c;
            values[slot] = v;
            next[r as usize] += 1;
        }
        Self::from_unsorted_rows(rows, cols, row_ptr, col_idx, values)
    }

    /// Builds a CSR matrix from entries already grouped by row: row `r`
    /// holds `col_idx[row_ptr[r]..row_ptr[r + 1]]` and the matching
    /// `values`, in any column order and possibly repeated. Each row is
    /// sorted by column (stably) and each entry sums its repeats in their
    /// order within the row, compacting the arrays in place. An assembler
    /// that counts its rows first stamps straight into these arrays, with
    /// no triplet list in between.
    ///
    /// # Panics
    ///
    /// Panics unless `row_ptr` has `rows + 1` non-decreasing entries from 0
    /// to `col_idx.len() == values.len()` and every column index is below
    /// `cols`.
    pub fn from_unsorted_rows(
        rows: usize,
        cols: usize,
        mut row_ptr: Vec<usize>,
        mut col_idx: Vec<u32>,
        mut values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(row_ptr[rows], col_idx.len(), "row_ptr must end at nnz");
        assert_eq!(col_idx.len(), values.len(), "col_idx/values length");
        let mut row: Vec<(u32, f64)> = Vec::new();
        let mut write = 0usize;
        for r in 0..rows {
            let (start, end) = (row_ptr[r], row_ptr[r + 1]);
            row.clear();
            row.extend(
                col_idx[start..end]
                    .iter()
                    .copied()
                    .zip(values[start..end].iter().copied()),
            );
            row.sort_by_key(|&(c, _)| c);
            // Rows only shrink, so row `r` is written at or before where
            // it was read from.
            row_ptr[r] = write;
            for &(c, v) in &row {
                assert!((c as usize) < cols, "column {c} out of bounds");
                if write > row_ptr[r] && col_idx[write - 1] == c {
                    values[write - 1] += v;
                } else {
                    col_idx[write] = c;
                    values[write] = v;
                    write += 1;
                }
            }
        }
        row_ptr[rows] = write;
        col_idx.truncate(write);
        values.truncate(write);
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Wraps CSR arrays built directly by an assembler.
    ///
    /// # Panics
    ///
    /// Panics unless `row_ptr` has `rows + 1` non-decreasing entries from 0
    /// to `col_idx.len() == values.len()` and every row's column indices
    /// are strictly increasing and below `cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(row_ptr[rows], col_idx.len(), "row_ptr must end at nnz");
        assert_eq!(col_idx.len(), values.len(), "col_idx/values length");
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr must be non-decreasing");
            let row = &col_idx[w[0]..w[1]];
            assert!(
                row.windows(2).all(|c| c[0] < c[1])
                    && row.last().is_none_or(|&c| (c as usize) < cols),
                "row columns must be strictly increasing and in bounds"
            );
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, row by row.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Stored values, row by row.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Returns the stored entry at `(row, col)`, or `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols);
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&(col as u32)) {
            Ok(k) => self.values[start + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the `(col, value)` pairs of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        self.col_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix-vector product into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        for r in 0..self.rows {
            let start = self.row_ptr[r];
            let end = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for k in start..end {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[r] = acc;
        }
    }

    /// `y = A x` across `threads` worker threads, parallelized over fixed
    /// [`crate::kernels::ROW_CHUNK`]-row blocks.
    ///
    /// Each output entry is one row's serial inner product regardless of
    /// scheduling, so the result is **bit-identical** to [`matvec_into`]
    /// (and to itself at any other thread count).
    ///
    /// [`matvec_into`]: CsrMatrix::matvec_into
    pub fn par_matvec_into(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        emgrid_runtime::parallel_fill(y, crate::kernels::ROW_CHUNK, threads, |r, yr| {
            let start = self.row_ptr[r];
            let end = self.row_ptr[r + 1];
            let mut acc = 0.0;
            for k in start..end {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *yr = acc;
        });
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let slot = next[c];
                col_idx[slot] = r as u32;
                values[slot] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Whether the matrix equals its transpose up to `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Patterns differ; fall back to value comparison through `get`.
            for r in 0..self.rows {
                for (c, v) in self.row(r) {
                    if (v - self.get(c, r)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Symmetric permutation `P A Pᵀ` for a square matrix.
    ///
    /// Entry `(i, j)` of the result equals entry `(perm[i], perm[j])` of
    /// `self`, i.e. `perm` maps *new* indices to *old* indices.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the permutation length differs.
    pub fn permute_symmetric(&self, perm: &Permutation) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "permute_symmetric needs square");
        assert_eq!(perm.len(), self.rows);
        let inv = perm.inverse();
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let new_r = inv.map(r);
            for (c, v) in self.row(r) {
                triplets.push((new_r as u32, inv.map(c) as u32, v));
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &triplets)
    }

    /// Converts to a dense matrix (test/debug helper; O(rows*cols) memory).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                d[(r, c)] += v;
            }
        }
        d
    }

    /// Euclidean norm of the residual `b - A x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        assert_eq!(b.len(), self.rows);
        let ax = self.matvec(x);
        ax.iter()
            .zip(b)
            .map(|(a, bi)| (bi - a) * (bi - a))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 1.0);
        t.push(2, 2, 4.0);
        t.to_csr()
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_wraps_valid_arrays_and_rejects_unsorted_rows() {
        let m = sample();
        let (row_ptr, col_idx) = (m.row_ptr().to_vec(), m.col_idx().to_vec());
        let rebuilt = CsrMatrix::from_parts(3, 3, row_ptr, col_idx, m.values().to_vec());
        assert_eq!(rebuilt, m);
        CsrMatrix::from_parts(3, 3, vec![0, 2, 3, 5], vec![2, 0, 1, 0, 2], vec![1.0; 5]);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(m.matvec(&x), m.to_dense().matvec(&x));
    }

    #[test]
    fn par_matvec_is_bitwise_equal_to_serial() {
        // Big enough to span several ROW_CHUNK blocks.
        let n = 3000;
        let mut t = crate::coo::TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + (i % 5) as f64 * 0.3);
            if i + 1 < n {
                t.push(i, i + 1, -0.7);
                t.push(i + 1, i, -0.7);
            }
        }
        let m = t.to_csr();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 13) % 101) as f64 * 0.01 - 0.5)
            .collect();
        let mut serial = vec![0.0; n];
        m.matvec_into(&x, &mut serial);
        for threads in [1, 2, 8] {
            let mut par = vec![0.0; n];
            m.par_matvec_into(&x, &mut par, threads);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 1.0);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetric_detection() {
        let m = sample();
        assert!(m.is_symmetric(1e-15)); // sample is symmetric
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        assert!(!t.to_csr().is_symmetric(1e-15));
    }

    #[test]
    fn identity_matvec_is_noop() {
        let m = CsrMatrix::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn permute_symmetric_reverses() {
        let m = sample();
        let perm = Permutation::new(vec![2, 1, 0]).unwrap();
        let p = m.permute_symmetric(&perm);
        // New (0,0) should be old (2,2) = 4.0
        assert_eq!(p.get(0, 0), 4.0);
        assert_eq!(p.get(2, 2), 2.0);
        assert_eq!(p.get(0, 2), 1.0);
        // Permuting back recovers the original.
        assert_eq!(p.permute_symmetric(&perm.inverse()), m);
    }

    #[test]
    fn repeats_sum_in_arrival_order_on_long_rows() {
        // 40 entries on one row, 8 columns repeated 5 times each and
        // interleaved: past 20 entries a sort that reorders equal columns
        // would change which order each sum sees, and its bits with it.
        let entries: Vec<(u32, f64)> = (0..40u32)
            .map(|k| (k * 3 % 8, 1.0 / (f64::from(k) + 1.7)))
            .collect();
        let triplets: Vec<(u32, u32, f64)> = entries.iter().map(|&(c, v)| (0, c, v)).collect();
        let m = CsrMatrix::from_triplets(1, 8, &triplets);
        assert_eq!(m.nnz(), 8);
        for c in 0..8 {
            let in_arrival_order = entries
                .iter()
                .filter(|e| e.0 == c)
                .map(|e| e.1)
                .reduce(|a, b| a + b)
                .unwrap();
            assert_eq!(m.get(0, c as usize).to_bits(), in_arrival_order.to_bits());
        }
    }

    #[test]
    fn row_iteration_is_sorted() {
        let mut t = TripletMatrix::new(1, 5);
        t.push(0, 4, 1.0);
        t.push(0, 1, 2.0);
        t.push(0, 3, 3.0);
        let m = t.to_csr();
        let cols: Vec<usize> = m.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3, 4]);
    }

    prop_compose! {
        fn triplet_list(n: usize, max_len: usize)
            (entries in proptest::collection::vec(
                (0..n as u32, 0..n as u32, -10.0f64..10.0), 0..max_len))
            -> Vec<(u32, u32, f64)> { entries }
    }

    proptest! {
        #[test]
        fn csr_matvec_matches_dense_reference(
            entries in triplet_list(8, 40),
            x in proptest::collection::vec(-5.0f64..5.0, 8),
        ) {
            let m = CsrMatrix::from_triplets(8, 8, &entries);
            let dense = m.to_dense();
            let ys = m.matvec(&x);
            let yd = dense.matvec(&x);
            for (a, b) in ys.iter().zip(&yd) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_matvec_identity(
            entries in triplet_list(6, 30),
            x in proptest::collection::vec(-5.0f64..5.0, 6),
            y in proptest::collection::vec(-5.0f64..5.0, 6),
        ) {
            // y' (A x) == x' (A' y)
            let m = CsrMatrix::from_triplets(6, 6, &entries);
            let t = m.transpose();
            let ax = m.matvec(&x);
            let aty = t.matvec(&y);
            let lhs: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
            let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
            prop_assert!((lhs - rhs).abs() < 1e-8);
        }

        #[test]
        fn nnz_never_exceeds_input_len(entries in triplet_list(8, 60)) {
            let m = CsrMatrix::from_triplets(8, 8, &entries);
            prop_assert!(m.nnz() <= entries.len());
        }
    }
}
