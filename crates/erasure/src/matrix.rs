//! Dense matrices over GF(2⁸) with Gaussian-elimination inversion.
//!
//! Just enough linear algebra for a systematic Reed-Solomon codec: build a
//! Vandermonde matrix, multiply, select rows, and invert. Row-major storage.

use std::fmt;

use crate::gf;

/// A dense row-major matrix over GF(2⁸).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `size × size` identity matrix.
    pub fn identity(size: usize) -> Self {
        let mut m = Matrix::zero(size, size);
        for i in 0..size {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[u8]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut m = Matrix::zero(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            m.data[r * cols..(r + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Creates the `rows × cols` Vandermonde matrix whose entry `(r, c)` is
    /// `r^c`. Any `cols` rows of it are linearly independent as long as
    /// `rows <= 256` (the evaluation points `0..rows` are distinct).
    ///
    /// # Panics
    ///
    /// Panics if `rows > 256` (GF(2⁸) only has 256 distinct points).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "at most 256 distinct evaluation points");
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf::pow(r as u8, c));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u8 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u8) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `row` as a slice.
    pub fn row(&self, row: usize) -> &[u8] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// All entries, row-major: row `r` is `as_slice()[r * cols..(r + 1) * cols]`.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for i in 0..self.cols {
                let a = self.get(r, i);
                if a == 0 {
                    continue;
                }
                let dst_range = r * out.cols..(r + 1) * out.cols;
                gf::mul_acc(&mut out.data[dst_range], rhs.row(i), a);
            }
        }
        out
    }

    /// Builds a new matrix from the given row indices of `self`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "need at least one row");
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (r, &idx) in indices.iter().enumerate() {
            let row = self.row(idx);
            out.data[r * self.cols..(r + 1) * self.cols].copy_from_slice(row);
        }
        out
    }

    /// Returns the top-left `rows × cols` submatrix.
    pub fn submatrix(&self, rows: usize, cols: usize) -> Matrix {
        assert!(rows <= self.rows && cols <= self.cols);
        let mut out = Matrix::zero(rows, cols);
        for r in 0..rows {
            out.data[r * cols..(r + 1) * cols].copy_from_slice(&self.row(r)[..cols]);
        }
        out
    }

    /// Inverts a square matrix by Gauss-Jordan elimination over GF(2⁸).
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut work = self.clone();
        let mut out = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot at or below the diagonal.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                out.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = work.get(col, col);
            if p != 1 {
                let pinv = gf::inv(p);
                work.scale_row(col, pinv);
                out.scale_row(col, pinv);
            }
            // Eliminate every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor != 0 {
                    work.add_scaled_row(r, col, factor);
                    out.add_scaled_row(r, col, factor);
                }
            }
        }
        Some(out)
    }

    /// Returns `true` if this is the identity matrix.
    pub fn is_identity(&self) -> bool {
        self.rows == self.cols
            && (0..self.rows).all(|r| (0..self.cols).all(|c| self.get(r, c) == u8::from(r == c)))
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (top, bottom) = self.data.split_at_mut(b * self.cols);
        top[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut bottom[..self.cols]);
    }

    fn scale_row(&mut self, row: usize, scalar: u8) {
        for v in &mut self.data[row * self.cols..(row + 1) * self.cols] {
            *v = gf::mul(*v, scalar);
        }
    }

    /// `row[dst] ^= scalar * row[src]` for `dst != src`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, scalar: u8) {
        assert_ne!(dst, src);
        let (a, b) = (dst.min(src), dst.max(src));
        let (top, bottom) = self.data.split_at_mut(b * self.cols);
        let row_a = &mut top[a * self.cols..(a + 1) * self.cols];
        let row_b = &mut bottom[..self.cols];
        if dst < src {
            gf::mul_acc(row_a, row_b, scalar);
        } else {
            gf::mul_acc(row_b, row_a, scalar);
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:3?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        assert!(Matrix::identity(5).is_identity());
        assert!(!Matrix::zero(3, 3).is_identity());
        assert!(!Matrix::zero(2, 3).is_identity());
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = Matrix::vandermonde(4, 4);
        assert_eq!(m.mul(&Matrix::identity(4)), m);
        assert_eq!(Matrix::identity(4).mul(&m), m);
    }

    #[test]
    fn vandermonde_entries() {
        let v = Matrix::vandermonde(4, 3);
        // Row r is [1, r, r^2].
        for r in 0..4usize {
            assert_eq!(v.get(r, 0), 1);
            assert_eq!(v.get(r, 1), r as u8);
            assert_eq!(v.get(r, 2), gf::mul(r as u8, r as u8));
        }
    }

    #[test]
    fn inverse_times_self_is_identity() {
        for n in 1..=8 {
            // Shift evaluation points by selecting rows 1..=n so the matrix
            // is invertible (rows 0..n also works; test both).
            let v = Matrix::vandermonde(n + 1, n);
            let sq = v.select_rows(&(1..=n).collect::<Vec<_>>());
            let inv = sq.inverse().expect("vandermonde rows invertible");
            assert!(sq.mul(&inv).is_identity(), "n={n}");
            assert!(inv.mul(&sq).is_identity(), "n={n}");
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Matrix::from_rows(&[&[1, 2], &[1, 2]]);
        assert!(m.inverse().is_none());
        assert!(Matrix::zero(3, 3).inverse().is_none());
    }

    #[test]
    fn select_rows_picks_in_order() {
        let v = Matrix::vandermonde(5, 2);
        let s = v.select_rows(&[4, 0, 2]);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(0));
        assert_eq!(s.row(2), v.row(2));
    }

    #[test]
    fn submatrix_is_top_left_block() {
        let v = Matrix::vandermonde(5, 4);
        let s = v.submatrix(2, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(s.get(r, c), v.get(r, c));
            }
        }
    }

    #[test]
    fn multiplication_is_associative_on_samples() {
        let a = Matrix::vandermonde(4, 4);
        let b = Matrix::vandermonde(5, 4).select_rows(&[1, 2, 3, 4]);
        let c = Matrix::vandermonde(6, 4).select_rows(&[2, 3, 4, 5]);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn swap_rows_via_inverse_of_permuted() {
        // A permutation of identity rows must invert to its transpose.
        let mut m = Matrix::identity(3);
        m.swap_rows(0, 2);
        let inv = m.inverse().unwrap();
        assert_eq!(inv, m, "row-swap permutation is its own inverse");
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_multiplication_panics() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    #[should_panic(expected = "only square")]
    fn non_square_inverse_panics() {
        let _ = Matrix::zero(2, 3).inverse();
    }
}
