//! Dense row-major matrices with cache-aware kernels.
//!
//! Deliberately simple: the Figure 6 experiments need an *honest* dense
//! baseline (O(n³) multiplication with reasonable constants), not peak
//! BLAS — the asymptotic crossovers the paper reports are what we
//! reproduce.

use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a generator function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from a nested array (tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        assert!(rows.iter().all(|x| x.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flat_map(|x| x.iter().copied()).collect(),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw data (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self · other` (i-k-j loop: row-major streaming on
    /// both operands, no transpose needed).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let orow = &mut out.data[i * n..(i + 1) * n];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * n..(k + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            *slot = acc;
        }
        out
    }

    /// Vector–matrix product `vᵀ · self` (returns a row vector).
    pub fn tvecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, &a) in out.iter_mut().zip(row) {
                *o += vi * a;
            }
        }
        out
    }

    /// Rank-1 update `self += u · vᵀ`.
    pub fn add_outer(&mut self, u: &[f64], v: &[f64]) {
        assert_eq!(self.rows, u.len());
        assert_eq!(self.cols, v.len());
        for (i, &ui) in u.iter().enumerate() {
            if ui == 0.0 {
                continue;
            }
            let row = self.row_mut(i);
            for (r, &vj) in row.iter_mut().zip(v) {
                *r += ui * vj;
            }
        }
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Maximum absolute element difference (for approximate comparisons).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|a| a.abs()).fold(0.0, f64::max)
    }

    /// True iff all elements differ by at most `eps`.
    pub fn approx_eq(&self, other: &Matrix, eps: f64) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_abs_diff(other) <= eps
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(i)[..self.cols.min(8)])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[5.0], &[2.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 5.0);
        assert_eq!((c.rows(), c.cols()), (1, 1));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert!(a.matmul(&Matrix::identity(4)).approx_eq(&a, 0.0));
        assert!(Matrix::identity(4).matmul(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn matvec_and_tvecmat() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.tvecmat(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn outer_update_equals_explicit_product() {
        let mut a = Matrix::zeros(3, 2);
        a.add_outer(&[1.0, 2.0, 0.0], &[3.0, 4.0]);
        assert_eq!(
            a,
            Matrix::from_rows(&[&[3.0, 4.0], &[6.0, 8.0], &[0.0, 0.0]])
        );
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn associativity_of_matmul() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + j) as f64 * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i as f64 - j as f64) * 0.25);
        let c = Matrix::from_fn(2, 5, |i, j| ((i * j) as f64 + 1.0) * 0.1);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn rank1_update_changes_product_by_factored_delta() {
        // (A + u vᵀ) B == A B + u (vᵀ B): the LINVIEW identity.
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 3, |i, j| (j as f64 - i as f64) * 0.5);
        let u = [1.0, 0.5, -1.0];
        let v = [2.0, 0.0, 1.0];
        let mut a2 = a.clone();
        a2.add_outer(&u, &v);
        let direct = a2.matmul(&b);
        let mut inc = a.matmul(&b);
        let vb = b.tvecmat(&v);
        inc.add_outer(&u, &vb);
        assert!(direct.approx_eq(&inc, 1e-12));
    }
}
