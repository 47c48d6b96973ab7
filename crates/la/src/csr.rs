//! Compressed sparse row matrices assembled from (row, col, value) triplets.

use crate::dense::DenseMatrix;
use crate::krylov::LinOp;
use std::ops::Range;

/// Triplet accumulator: entries with identical `(row, col)` are **added**,
/// matching PETSc's `ADD_VALUES` mode that the traversal-based assembly of
/// §3.6 depends on ("PETSc handles the merging of multi-instanced entries").
#[derive(Clone, Debug, Default)]
pub struct CooBuilder {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: Vec::new(),
        }
    }

    /// Builder with room for `cap` triplets up front — callers that know the
    /// emission count (assembly: `leaves × npe²`) avoid incremental regrowth.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        Self {
            n,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Reserves room for at least `additional` more triplets.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Retargets the builder at a (possibly different-sized) system while
    /// keeping the triplet allocation: a serving loop that assembles one
    /// scenario after another reuses the grown capacity instead of paying a
    /// fresh reallocation ramp per request.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.entries.clear();
    }

    #[inline]
    pub fn add(&mut self, row: usize, col: usize, val: f64) {
        debug_assert!(row < self.n && col < self.n);
        if val != 0.0 {
            self.entries.push((row as u32, col as u32, val));
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the CSR matrix, merging duplicates by addition.
    pub fn build(mut self) -> CsrMatrix {
        self.build_and_clear()
    }

    /// Like [`CooBuilder::build`], but leaves the builder alive with its
    /// triplet capacity intact, ready for the next assembly. Time-stepping
    /// loops (e.g. the Picard iteration in `carve-ns`) reassemble a
    /// same-sparsity system every step; recycling the builder avoids
    /// re-growing a `leaves × npe²` triplet buffer each time.
    pub fn build_and_clear(&mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|e| (e.0, e.1));
        let n = self.n;
        let mut row_counts = vec![0usize; n + 1];
        let mut cols: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, v) in &self.entries {
            if last == Some((r, c)) {
                *vals.last_mut().expect("entry exists") += v;
            } else {
                cols.push(c);
                vals.push(v);
                row_counts[r as usize + 1] += 1;
                last = Some((r, c));
            }
        }
        self.entries.clear();
        for i in 0..n {
            row_counts[i + 1] += row_counts[i];
        }
        CsrMatrix {
            n,
            row_ptr: row_counts,
            cols,
            vals,
        }
    }
}

/// A square CSR sparse matrix.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub cols: Vec<u32>,
    pub vals: Vec<f64>,
}

impl CsrMatrix {
    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.vals[k] * x[self.cols[k] as usize];
            }
            *yi = s;
        }
    }

    /// `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                y[self.cols[k] as usize] += self.vals[k] * xi;
            }
        }
    }

    /// The diagonal (zeros where no entry is stored).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.cols[k] as usize == i {
                    *di += self.vals[k];
                }
            }
        }
        d
    }

    /// Entry lookup (O(row nnz)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let mut s = 0.0;
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            if self.cols[k] as usize == j {
                s += self.vals[k];
            }
        }
        s
    }

    /// Extracts the dense submatrix on `rows × rows` (the local problem of
    /// one Additive Schwarz block).
    pub fn dense_block(&self, rows: Range<usize>) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(0, 0);
        self.dense_block_into(rows, &mut out);
        out
    }

    /// [`CsrMatrix::dense_block`] into `out`, which is reshaped and keeps its
    /// allocation. The cost is the stored entries of `rows` plus the block
    /// itself, whatever the size of the matrix.
    pub fn dense_block_into(&self, rows: Range<usize>, out: &mut DenseMatrix) {
        assert!(rows.end <= self.n);
        let (lo, m) = (rows.start, rows.len());
        out.rows = m;
        out.cols = m;
        out.data.clear();
        out.data.resize(m * m, 0.0);
        for g in rows.clone() {
            let local = &mut out.data[(g - lo) * m..(g - lo + 1) * m];
            for k in self.row_ptr[g]..self.row_ptr[g + 1] {
                let c = self.cols[k] as usize;
                if rows.contains(&c) {
                    local[c - lo] += self.vals[k];
                }
            }
        }
    }

    /// Dense conversion (tests and small condition-number studies only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[(i, self.cols[k] as usize)] += self.vals[k];
            }
        }
        out
    }
}

impl LinOp for CsrMatrix {
    fn size(&self) -> usize {
        self.n
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_adds_duplicates() {
        let mut b = CooBuilder::new(3);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.0); // duplicate: add
        b.add(1, 2, 5.0);
        b.add(2, 1, -1.0);
        b.add(1, 2, 1.0); // duplicate (non-adjacent insertion order)
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(m.get(2, 2), 0.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn build_and_clear_recycles_builder_capacity() {
        let mut b = CooBuilder::with_capacity(3, 8);
        b.add(0, 0, 1.0);
        b.add(1, 1, 2.0);
        let cap = b.entries.capacity();
        let m1 = b.build_and_clear();
        assert_eq!(m1.get(0, 0), 1.0);
        assert!(b.is_empty());
        assert_eq!(b.entries.capacity(), cap, "capacity must survive the build");
        b.add(0, 1, 4.0);
        let m2 = b.build_and_clear();
        assert_eq!(m2.get(0, 1), 4.0);
        assert_eq!(m2.get(0, 0), 0.0, "stale triplets must not leak through");
    }

    #[test]
    fn empty_rows_are_fine() {
        let mut b = CooBuilder::new(4);
        b.add(3, 0, 2.0);
        let m = b.build();
        let mut y = vec![0.0; 4];
        m.matvec(&[1.0, 0.0, 0.0, 0.0], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let n = 30;
        let mut b = CooBuilder::new(n);
        for _ in 0..200 {
            b.add(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            );
        }
        let m = b.build();
        let d = m.to_dense();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        m.matvec(&x, &mut y1);
        d.matvec(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
        // Transpose.
        m.matvec_t(&x, &mut y1);
        d.matvec_t(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_block_extraction() {
        let mut b = CooBuilder::new(4);
        for i in 0..4 {
            b.add(i, i, (i + 1) as f64);
        }
        b.add(1, 2, 7.0);
        b.add(2, 3, 9.0); // column outside the block
        b.add(0, 1, 5.0); // row outside the block
        let m = b.build();
        let blk = m.dense_block(1..3);
        assert_eq!(blk, DenseMatrix::from_rows(&[&[2.0, 7.0], &[0.0, 3.0]]));
        // A larger scratch is reshaped, stale contents cleared.
        let mut scratch = DenseMatrix::identity(3);
        m.dense_block_into(1..3, &mut scratch);
        assert_eq!(scratch, blk);
    }

    #[test]
    fn diagonal() {
        let mut b = CooBuilder::new(2);
        b.add(0, 0, 2.0);
        b.add(1, 0, 3.0);
        let m = b.build();
        assert_eq!(m.diagonal(), vec![2.0, 0.0]);
    }
}
