//! Dense matrices with partial-pivot LU factorization, and the compressed
//! form of the factors that the Schwarz blocks keep.

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl DenseMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows[0].len();
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c);
            m.data[i * c..(i + 1) * c].copy_from_slice(row);
        }
        m
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = crate::vector::dot(row, x);
        }
    }

    /// `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (yj, aij) in y.iter_mut().zip(row) {
                *yj += aij * xi;
            }
        }
    }

    /// Max column-absolute-sum norm (‖A‖₁).
    pub fn norm1(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.cols {
            let mut s = 0.0;
            for i in 0..self.rows {
                s += self[(i, j)].abs();
            }
            best = best.max(s);
        }
        best
    }

    /// LU factorization with partial pivoting. Errors on (numerical)
    /// singularity.
    pub fn lu(&self) -> Result<LuFactors, &'static str> {
        assert_eq!(self.rows, self.cols, "LU needs a square matrix");
        let n = self.rows;
        let mut lu = self.data.clone();
        let piv = factor_in_place(&mut lu, n)?;
        Ok(LuFactors { n, lu, piv })
    }
}

/// Partial-pivot LU of the row-major `n × n` array `a`, in place: unit-lower
/// multipliers below the diagonal, `U` on and above it. Returns the row
/// permutation. A multiplier that is exactly zero skips its row update:
/// subtracting `0.0 * a[k][j]` from a finite entry changes no bit, and the
/// matrices the ASM blocks cut out of a stiffness matrix are mostly such
/// rows.
fn factor_in_place(a: &mut [f64], n: usize) -> Result<Vec<usize>, &'static str> {
    assert_eq!(a.len(), n * n);
    let mut piv: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot search.
        let mut p = k;
        let mut best = a[k * n + k].abs();
        for i in k + 1..n {
            let v = a[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < 1e-300 {
            return Err("singular matrix in LU");
        }
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            piv.swap(k, p);
        }
        let (head, tail) = a.split_at_mut((k + 1) * n);
        let pivot_row = &head[k * n..];
        let pivot = pivot_row[k];
        for row in tail.chunks_exact_mut(n) {
            let l = row[k] / pivot;
            row[k] = l;
            if l == 0.0 {
                continue;
            }
            for (aij, akj) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *aij -= l * akj;
            }
        }
    }
    Ok(piv)
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// LU factors with the pivot permutation.
#[derive(Clone, Debug)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl LuFactors {
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed factors and the permutation.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> (&[f64], &[usize]) {
        (&self.lu, &self.piv)
    }

    /// Solves `A x = b` in place.
    pub fn solve(&self, b: &mut [f64]) {
        self.solve_with(b, &mut vec![0.0; self.n]);
    }

    /// [`LuFactors::solve`] with the caller's length-`n` work array, for
    /// loops that solve many times.
    pub fn solve_with(&self, b: &mut [f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        let n = self.n;
        // Apply the permutation.
        for (xi, &p) in x.iter_mut().zip(&self.piv) {
            *xi = b[p];
        }
        // Forward substitution (unit lower).
        for i in 1..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[i * n + j] * xj;
            }
            x[i] = s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.lu[i * n + j] * xj;
            }
            x[i] = s / self.lu[i * n + i];
        }
        b.copy_from_slice(x);
    }

    /// Solves `Aᵀ x = b` in place (needed by the 1-norm condition
    /// estimator).
    pub fn solve_t(&self, b: &mut [f64]) {
        self.solve_t_with(b, &mut vec![0.0; self.n]);
    }

    /// [`LuFactors::solve_t`] with the caller's length-`n` work array.
    pub fn solve_t_with(&self, b: &mut [f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        let n = self.n;
        x.copy_from_slice(b);
        // Aᵀ = (P⁻¹ L U)ᵀ = Uᵀ Lᵀ P⁻ᵀ; solve Uᵀ y = b, then Lᵀ z = y,
        // then un-permute.
        for i in 0..n {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                s -= self.lu[j * n + i] * xj;
            }
            x[i] = s / self.lu[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                s -= self.lu[j * n + i] * xj;
            }
            x[i] = s;
        }
        // b[piv[i]] = x[i]
        for (i, &p) in self.piv.iter().enumerate() {
            b[p] = x[i];
        }
    }
}

/// The factors of one partial-pivot LU with only their non-zero entries
/// stored: strictly-lower `L` rows and strictly-upper `U` rows in CSR form
/// (columns ascending), the diagonal of `U`, and the row permutation. The
/// blocks an additive-Schwarz preconditioner cuts out of a stiffness matrix
/// fill in to about a tenth of `n²`; substitution walks that tenth.
///
/// [`SparseLu::solve_into`] subtracts the stored terms in the column order
/// of [`LuFactors::solve`] and divides by the same diagonal, so for finite
/// data it returns the same bits: the terms it leaves out are `0.0 * x`.
pub(crate) struct SparseLu {
    piv: Vec<usize>,
    diag: Vec<f64>,
    lower: SparseRows,
    upper: SparseRows,
}

struct SparseRows {
    /// Row `i` holds entries `ptr[i]..ptr[i + 1]`.
    ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseRows {
    fn new() -> Self {
        Self {
            ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Appends the non-zeros of `row`, whose first entry is column `col0`,
    /// as the next stored row.
    fn push_row(&mut self, col0: usize, row: &[f64]) {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                self.cols.push((col0 + j) as u32);
                self.vals.push(v);
            }
        }
        self.ptr.push(self.vals.len());
    }

    /// `s − Σ row[j]·x[j]` over the stored entries of row `i`, subtracted
    /// one at a time in column order.
    #[inline]
    fn subtract_row(&self, i: usize, mut s: f64, x: &[f64]) -> f64 {
        let span = self.ptr[i]..self.ptr[i + 1];
        for (&j, &v) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
            s -= v * x[j as usize];
        }
        s
    }
}

impl SparseLu {
    /// Factors `a` in place (it is left holding the dense factors) and keeps
    /// the non-zeros.
    pub(crate) fn factor(a: &mut DenseMatrix) -> Result<Self, &'static str> {
        assert_eq!(a.rows, a.cols, "LU needs a square matrix");
        let n = a.rows;
        assert!(u32::try_from(n).is_ok(), "block too large for u32 columns");
        let piv = factor_in_place(&mut a.data, n)?;
        let mut diag = Vec::with_capacity(n);
        let mut lower = SparseRows::new();
        let mut upper = SparseRows::new();
        for i in 0..n {
            let row = &a.data[i * n..(i + 1) * n];
            lower.push_row(0, &row[..i]);
            diag.push(row[i]);
            upper.push_row(i + 1, &row[i + 1..]);
        }
        Ok(Self {
            piv,
            diag,
            lower,
            upper,
        })
    }

    pub(crate) fn n(&self) -> usize {
        self.diag.len()
    }

    /// Entries kept: `L`, `U` and the diagonal.
    pub(crate) fn stored_entries(&self) -> usize {
        self.lower.vals.len() + self.upper.vals.len() + self.diag.len()
    }

    /// `x = A⁻¹ b`.
    pub(crate) fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n();
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        for (xi, &p) in x.iter_mut().zip(&self.piv) {
            *xi = b[p];
        }
        for i in 1..n {
            x[i] = self.lower.subtract_row(i, x[i], x);
        }
        for i in (0..n).rev() {
            x[i] = self.upper.subtract_row(i, x[i], x) / self.diag[i];
        }
    }
}

/// The factorization loop without the zero-multiplier skip of
/// [`factor_in_place`]: the reference the skip is compared against, bit for
/// bit. Returns the packed factors and the permutation.
#[cfg(test)]
pub(crate) fn lu_unskipped(m: &DenseMatrix) -> Result<(Vec<f64>, Vec<usize>), &'static str> {
    let n = m.rows;
    let mut a = m.data.clone();
    let mut piv: Vec<usize> = (0..n).collect();
    for k in 0..n {
        let mut p = k;
        let mut best = a[k * n + k].abs();
        for i in k + 1..n {
            let v = a[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < 1e-300 {
            return Err("singular matrix in LU");
        }
        if p != k {
            for j in 0..n {
                a.swap(k * n + j, p * n + j);
            }
            piv.swap(k, p);
        }
        let pivot = a[k * n + k];
        for i in k + 1..n {
            let l = a[i * n + k] / pivot;
            a[i * n + k] = l;
            for j in k + 1..n {
                a[i * n + j] -= l * a[k * n + j];
            }
        }
    }
    Ok((a, piv))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu().unwrap();
        let mut b = vec![5.0, 10.0];
        lu.solve(&mut b);
        // x = [1, 3]
        assert!((b[0] - 1.0).abs() < 1e-14);
        assert!((b[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn lu_random_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for n in [1usize, 2, 5, 20, 50] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.gen_range(-1.0..1.0);
                }
                a[(i, i)] += 4.0; // diagonally dominant: nonsingular
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let mut b = vec![0.0; n];
            a.matvec(&x_true, &mut b);
            let lu = a.lu().unwrap();
            lu.solve(&mut b);
            for (xi, ti) in b.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-10);
            }
            // Transpose solve.
            let mut bt = vec![0.0; n];
            a.matvec_t(&x_true, &mut bt);
            lu.solve_t(&mut bt);
            for (xi, ti) in bt.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-10, "transpose solve n={n}");
            }
        }
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.lu().is_err());
    }

    #[test]
    fn norm1_is_max_column_sum() {
        let a = DenseMatrix::from_rows(&[&[1.0, -7.0], &[-2.0, 3.0]]);
        assert_eq!(a.norm1(), 10.0);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = a.lu().unwrap();
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![3.0, 2.0]);
    }
}
