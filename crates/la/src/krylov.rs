//! Krylov solvers (CG, BiCGStab) over abstract operators, with Jacobi and
//! overlapping Additive-Schwarz preconditioners — the `-ksp_type bcgs
//! -pc_type asm` configuration of the paper's Appendix B.2.

use crate::csr::CsrMatrix;
use crate::dense::{DenseMatrix, SparseLu};
use crate::vector::{axpy, dot};
use std::ops::Range;

/// An abstract linear operator `y = A x` — implemented both by assembled
/// [`CsrMatrix`] and by the matrix-free traversal MATVEC of `carve-core`.
pub trait LinOp {
    fn size(&self) -> usize;
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Batched inner products for the Krylov solvers: `out[k] = pairs[k].0 ·
/// pairs[k].1`. The solvers group the reductions of one iteration into the
/// fewest possible batches (CG: 2, BiCGStab: 4) so a distributed
/// implementation can ride each batch on a *single* fused all-reduce
/// message instead of one per dot/norm; `carve-core`'s `DistReduce` does
/// exactly that, masking non-owned entries before the global sum.
pub trait Reduce {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]);
}

/// Sequential reduction: plain local dot products, the default of
/// [`SolveOpts::reduce`].
pub struct LocalReduce;

impl Reduce for LocalReduce {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        for (o, (u, v)) in out.iter_mut().zip(pairs) {
            *o = dot(u, v);
        }
    }
}

/// Single inner product through a [`Reduce`] (still one message, just not
/// fused with anything).
fn rdot(rd: &dyn Reduce, u: &[f64], v: &[f64]) -> f64 {
    let mut out = [0.0];
    rd.dots(&[(u, v)], &mut out);
    out[0]
}

impl<A: LinOp + ?Sized> LinOp for &A {
    fn size(&self) -> usize {
        (**self).size()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }
}

impl<F: Fn(&[f64], &mut [f64])> LinOp for (usize, F) {
    fn size(&self) -> usize {
        self.0
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.1)(x, y)
    }
}

/// A preconditioner: `z = M⁻¹ r`.
pub trait Precond {
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

impl<P: Precond + ?Sized> Precond for &P {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z)
    }
}

/// No preconditioning.
pub struct IdentityPrecond;

impl Precond for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner.
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    pub fn new(diag: &[f64]) -> Self {
        Self {
            inv_diag: diag
                .iter()
                .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
                .collect(),
        }
    }

    pub fn from_matrix(a: &CsrMatrix) -> Self {
        Self::new(&a.diagonal())
    }
}

impl Precond for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Restricted overlapping Additive Schwarz: the index range is split into
/// blocks with `overlap` shared indices; each block is solved exactly with a
/// partial-pivot LU whose factors are stored sparse, and only the *owned*
/// (non-overlap) part of each local solution is written back
/// (restricted-ASM avoids double counting).
pub struct AsmPrecond {
    blocks: Vec<AsmBlock>,
    n: usize,
}

/// One block: global rows `lo..lo + factors.n()`, of which the local range
/// `own_start..own_end` is written back.
struct AsmBlock {
    lo: usize,
    own_start: usize,
    own_end: usize,
    factors: SparseLu,
}

impl AsmPrecond {
    /// Builds from an assembled matrix, with `nblocks` contiguous index
    /// blocks and the given overlap width.
    pub fn new(a: &CsrMatrix, nblocks: usize, overlap: usize) -> Self {
        let n = a.n;
        let nblocks = nblocks.clamp(1, n.max(1));
        let mut blocks = Vec::with_capacity(nblocks);
        // Every block is extracted and factored in this one dense array.
        let mut scratch = DenseMatrix::zeros(0, 0);
        for b in 0..nblocks {
            let own_lo = b * n / nblocks;
            let own_hi = (b + 1) * n / nblocks;
            if own_lo >= own_hi {
                continue;
            }
            let lo = own_lo.saturating_sub(overlap);
            let hi = (own_hi + overlap).min(n);
            blocks.push(AsmBlock {
                lo,
                own_start: own_lo - lo,
                own_end: own_hi - lo,
                factors: factor_block(a, lo..hi, &mut scratch),
            });
        }
        Self { blocks, n }
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Factor entries stored over all blocks (`L`, `U` and diagonals).
    pub fn stored_entries(&self) -> usize {
        self.blocks.iter().map(|b| b.factors.stored_entries()).sum()
    }

    /// What dense factors of the same blocks would hold: `Σ m²`.
    pub fn dense_entries(&self) -> usize {
        self.blocks.iter().map(|b| b.factors.n().pow(2)).sum()
    }
}

/// Factors the block of `a` on `rows`, using `scratch` for the dense work.
fn factor_block(a: &CsrMatrix, rows: Range<usize>, scratch: &mut DenseMatrix) -> SparseLu {
    a.dense_block_into(rows.clone(), scratch);
    if let Ok(factors) = SparseLu::factor(scratch) {
        return factors;
    }
    // Fall back to A + eps I if a block is singular (can happen with
    // constrained rows); preconditioners only need to be invertible. The
    // failed attempt overwrote the scratch, so extract again.
    a.dense_block_into(rows, scratch);
    let scale = scratch.norm1().max(1.0);
    for i in 0..scratch.rows {
        scratch[(i, i)] += 1e-10 * scale;
    }
    SparseLu::factor(scratch).expect("regularized block is nonsingular")
}

impl Precond for AsmPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n);
        assert_eq!(z.len(), self.n);
        // The owned ranges tile `0..n`, so every entry of `z` is written.
        // One work array, sized to the largest block, serves them all.
        let largest = self.blocks.iter().map(|b| b.factors.n()).max();
        let mut local = vec![0.0; largest.unwrap_or(0)];
        for blk in &self.blocks {
            let local = &mut local[..blk.factors.n()];
            blk.factors
                .solve_into(&r[blk.lo..blk.lo + local.len()], local);
            z[blk.lo + blk.own_start..blk.lo + blk.own_end]
                .copy_from_slice(&local[blk.own_start..blk.own_end]);
        }
    }
}

/// Iteration report for the Krylov solvers.
#[derive(Clone, Copy, Debug)]
pub struct KrylovResult {
    pub converged: bool,
    /// Iterations performed up to the stop — including a divergence stop, so
    /// an escalation policy knows *where* the iteration went bad.
    pub iterations: usize,
    /// Final absolute residual 2-norm.
    pub residual: f64,
    /// The iteration produced a non-finite residual (NaN/Inf): the operator,
    /// right-hand side, or preconditioner injected garbage. Distinct from the
    /// benign "ran out of iterations / breakdown" non-convergence — a
    /// diverged solve must not be retried with more iterations.
    pub diverged: bool,
    /// The last *finite* residual norm observed before the stop. Equal to
    /// `residual` for converged/stalled results; for a diverged result it is
    /// the residual of the final healthy iteration (None when the very first
    /// residual was already non-finite), so error reports and escalation
    /// decisions keep a meaningful magnitude.
    pub last_finite_residual: Option<f64>,
}

impl KrylovResult {
    /// Converged stop.
    pub fn success(iterations: usize, residual: f64) -> Self {
        KrylovResult {
            converged: true,
            iterations,
            residual,
            diverged: false,
            last_finite_residual: residual.is_finite().then_some(residual),
        }
    }

    /// Benign non-convergence (breakdown or iteration cap) — unless the
    /// residual itself is non-finite, which upgrades it to divergence.
    pub fn stalled(iterations: usize, residual: f64) -> Self {
        KrylovResult {
            converged: false,
            iterations,
            residual,
            diverged: !residual.is_finite(),
            last_finite_residual: residual.is_finite().then_some(residual),
        }
    }

    /// Definite divergence: NaN/Inf contaminated the iteration.
    pub fn divergence(iterations: usize, residual: f64) -> Self {
        KrylovResult {
            converged: false,
            iterations,
            residual,
            diverged: true,
            last_finite_residual: residual.is_finite().then_some(residual),
        }
    }

    /// Attaches the last healthy residual norm to a (typically diverged)
    /// result, keeping any finite value already recorded.
    pub fn with_last_finite(mut self, rn: f64) -> Self {
        if self.last_finite_residual.is_none() && rn.is_finite() {
            self.last_finite_residual = Some(rn);
        }
        self
    }

    /// Iteration cap: converged only if the final residual `rn` meets `tol`;
    /// `last_finite` stands in when `rn` itself is not finite.
    pub(crate) fn at_cap(max_iter: usize, rn: f64, tol: f64, last_finite: f64) -> Self {
        KrylovResult {
            converged: rn <= tol,
            ..Self::stalled(max_iter, rn)
        }
        .with_last_finite(last_finite)
    }
}

/// Reusable pool of solver scratch vectors. The Krylov drivers allocate a
/// handful of length-`n` work buffers per solve (CG: `r`, `z`, `p`, `Ap` per
/// right-hand side; BiCGStab: seven); a serving loop that solves the same
/// cached system over and over pays that allocation on every request.
/// Handing the same `KrylovScratch` to every solve through
/// [`SolveOpts::scratch`] recycles the buffers instead — the pool is LIFO,
/// so back-to-back same-shape solves reuse the exact allocations
/// (pointer-stable, asserted by the warm-path tests).
///
/// Buffers are zero-filled on loan, so a scratch-backed solve is bitwise
/// identical to the allocating one.
#[derive(Default)]
pub struct KrylovScratch {
    pool: Vec<Vec<f64>>,
}

impl KrylovScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently parked in the pool (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Loans the most recently parked buffer (or a fresh one), zero-filled
    /// to length `n` — so a pooled loan is bitwise indistinguishable from a
    /// fresh `vec![0.0; n]`.
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.resize(n, 0.0);
        v
    }

    /// Parks a buffer for the next loan (LIFO).
    pub fn put(&mut self, v: Vec<f64>) {
        self.pool.push(v);
    }
}

/// A zeroed length-`n` work vector, loaned from `pool` or freshly allocated.
pub(crate) fn loan(pool: &mut Option<&mut KrylovScratch>, n: usize) -> Vec<f64> {
    match pool {
        Some(s) => s.take(n),
        None => vec![0.0; n],
    }
}

/// Returns loaned work vectors to `pool` (or drops them). Pass them in
/// reverse loan order: the next same-shape solve then gets the same
/// buffers back in the same roles.
pub(crate) fn park(pool: Option<&mut KrylovScratch>, bufs: impl IntoIterator<Item = Vec<f64>>) {
    if let Some(s) = pool {
        bufs.into_iter().for_each(|v| s.put(v));
    }
}

/// Restartable snapshot of a Krylov iteration: enough state to resume the
/// solve (or hand it to a different method) after a rank kill or divergence,
/// plus a residual-history tail for diagnostics. Serializable via
/// `carve-io::json` for cross-process restart.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveCheckpoint {
    /// Solver that produced the snapshot (`"cg"` / `"bicgstab"`).
    pub method: String,
    /// Global iteration index at the snapshot (includes the resume offset,
    /// so a restarted solve keeps counting where the dead one stopped).
    pub iteration: usize,
    /// Residual 2-norm at the snapshot.
    pub residual: f64,
    /// Current iterate.
    pub x: Vec<f64>,
    /// Current residual vector `b - A x`.
    pub r: Vec<f64>,
    /// Up to the last 8 residual norms (oldest first, ending at `residual`).
    pub residual_tail: Vec<f64>,
}

/// Checkpoint cadence driver, handed to a single-lane solve through
/// [`SolveOpts::checkpoint`].
///
/// Observes every iteration's residual (cheap: a bounded tail push),
/// snapshots `x`/`r` every `every` iterations, and optionally streams each
/// snapshot into a caller-supplied sink (e.g. a cross-attempt store that
/// survives a killed SPMD cluster). Checkpointing never adds reductions or
/// changes the iteration arithmetic — the bitwise history is identical to
/// the un-checkpointed solver.
pub struct Checkpointer<'a> {
    every: usize,
    offset: usize,
    tail: Vec<f64>,
    latest: Option<SolveCheckpoint>,
    #[allow(clippy::type_complexity)]
    sink: Option<Box<dyn FnMut(&SolveCheckpoint) + 'a>>,
}

const CKPT_TAIL: usize = 8;

impl<'a> Checkpointer<'a> {
    /// Snapshot every `every` iterations (clamped to ≥ 1).
    pub fn new(every: usize) -> Self {
        Checkpointer {
            every: every.max(1),
            offset: 0,
            tail: Vec::with_capacity(CKPT_TAIL),
            latest: None,
            sink: None,
        }
    }

    /// Streams every snapshot into `sink` as it is taken (in addition to
    /// keeping [`Checkpointer::latest`]).
    pub fn with_sink(mut self, sink: impl FnMut(&SolveCheckpoint) + 'a) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Seeds the iteration offset and residual tail from a prior snapshot,
    /// so a restarted solve keeps a monotonic global iteration count. The
    /// caller is responsible for starting the solve from `from.x`.
    pub fn resume_from(mut self, from: &SolveCheckpoint) -> Self {
        self.offset = from.iteration;
        self.tail = from.residual_tail.clone();
        self
    }

    /// Iterations already performed by prior attempts (the resume offset).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The most recent snapshot, if any iteration reached the cadence.
    pub fn latest(&self) -> Option<&SolveCheckpoint> {
        self.latest.as_ref()
    }

    /// Consumes the checkpointer, yielding the most recent snapshot.
    pub fn into_latest(self) -> Option<SolveCheckpoint> {
        self.latest
    }

    /// Records one iteration: pushes the residual onto the bounded tail and,
    /// at the cadence, snapshots the full solver state. Non-finite residuals
    /// are never snapshotted (a checkpoint must always be a healthy restart
    /// point).
    pub(crate) fn observe(&mut self, method: &str, it: usize, rn: f64, x: &[f64], r: &[f64]) {
        if !rn.is_finite() {
            return;
        }
        if self.tail.len() == CKPT_TAIL {
            self.tail.remove(0);
        }
        self.tail.push(rn);
        if it.is_multiple_of(self.every) {
            let ckpt = SolveCheckpoint {
                method: method.to_string(),
                iteration: self.offset + it,
                residual: rn,
                x: x.to_vec(),
                r: r.to_vec(),
                residual_tail: self.tail.clone(),
            };
            if let Some(sink) = &mut self.sink {
                sink(&ckpt);
            }
            self.latest = Some(ckpt);
        }
    }
}

/// How one Krylov solve runs: the stopping rule `‖r‖ ≤ rtol ‖b‖ + atol`
/// within `max_iter` iterations, and the services the iteration uses. None
/// of the services changes the arithmetic: a solve is bitwise the same with
/// any pool or checkpointer, and with any [`Reduce`] that sums the same
/// local products.
pub struct SolveOpts<'a, 'c> {
    pub rtol: f64,
    pub atol: f64,
    pub max_iter: usize,
    /// Inner-product backend. Each method groups its reductions into the
    /// fewest batches (CG: 2 per iteration, BiCGStab: 4), so a distributed
    /// backend pays one message per batch.
    pub reduce: &'a dyn Reduce,
    /// Pool the work vectors are loaned from; fresh allocations when `None`.
    pub scratch: Option<&'a mut KrylovScratch>,
    /// Periodic [`SolveCheckpoint`] snapshots for restart after a fault.
    /// Observes a single lane, so [`crate::block_cg`] takes one only for
    /// k ≤ 1.
    pub checkpoint: Option<&'a mut Checkpointer<'c>>,
}

impl SolveOpts<'_, '_> {
    /// The stopping rule with [`LocalReduce`], fresh buffers and no
    /// checkpoint.
    pub fn new(rtol: f64, atol: f64, max_iter: usize) -> Self {
        SolveOpts {
            rtol,
            atol,
            max_iter,
            reduce: &LocalReduce,
            scratch: None,
            checkpoint: None,
        }
    }
}

/// Panics unless `b` and `x` both have the operator's length `n`: a short
/// vector would otherwise be read as if padded with zeros.
pub(crate) fn check_sizes(method: &str, n: usize, b: &[f64], x: &[f64]) {
    assert!(
        b.len() == n && x.len() == n,
        "{method}: the operator has {n} unknowns, but b has {} and x has {}",
        b.len(),
        x.len()
    );
}

/// Preconditioned conjugate gradients for SPD operators: one lane of
/// [`crate::block_cg`]. Per iteration the reductions form two batches,
/// `(p·Ap)` and the paired `(r·z, r·r)` after the preconditioner; the
/// convergence norm reuses that `r·r`.
pub fn cg<A: LinOp, M: Precond>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: SolveOpts,
) -> KrylovResult {
    check_sizes("cg", a.size(), b, x);
    crate::block_cg(a, &[b], &mut [x], m, opts)[0]
}

/// [`cg`] with positional arguments, kept for one caller:
/// `benchmark/src/api.rs` calls it by position and is edited on its own
/// (ROADMAP item 1(b)), which deletes this wrapper.
#[allow(clippy::too_many_arguments)]
pub fn cg_with<A: LinOp, M: Precond, R: Reduce>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
) -> KrylovResult {
    let opts = SolveOpts {
        reduce: rd,
        ..SolveOpts::new(rtol, atol, max_iter)
    };
    cg(a, b, x, m, opts)
}

/// Preconditioned BiCGStab for general (nonsymmetric) operators — the
/// paper's `-ksp_type bcgs`. Per iteration the six reductions of the
/// textbook loop form four batches: the paired `(r·r, r0·r)` at the top,
/// `r0·v`, the intermediate `s`-norm, and the paired `(t·t, t·r)` for the
/// stabilizer.
pub fn bicgstab<A: LinOp, M: Precond>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    opts: SolveOpts,
) -> KrylovResult {
    let n = a.size();
    check_sizes("bicgstab", n, b, x);
    let SolveOpts {
        rtol,
        atol,
        max_iter,
        reduce: rd,
        mut scratch,
        checkpoint: mut ck,
    } = opts;
    let mut bufs: [Vec<f64>; 7] = std::array::from_fn(|_| loan(&mut scratch, n));
    let [r, r0, v, p, phat, shat, t] = &mut bufs;
    a.apply(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let bnorm = rdot(rd, b, b).sqrt().max(1e-300);
    let tol = rtol * bnorm + atol;
    r0.copy_from_slice(r);
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut pair = [0.0; 2];
    let mut last_finite_rn = f64::NAN;
    let res = 'solve: {
        for it in 0..max_iter {
            rd.dots(&[(r, r), (r0, r)], &mut pair);
            let rn = pair[0].sqrt();
            let rho_new = pair[1];
            if !rn.is_finite() {
                break 'solve KrylovResult::divergence(it, rn).with_last_finite(last_finite_rn);
            }
            last_finite_rn = rn;
            if let Some(ck) = ck.as_deref_mut() {
                ck.observe("bicgstab", it, rn, x, r);
            }
            if rn <= tol {
                break 'solve KrylovResult::success(it, rn);
            }
            if rho_new.abs() < 1e-300 || !rho_new.is_finite() {
                break 'solve KrylovResult::stalled(it, rn);
            }
            if it == 0 {
                p.copy_from_slice(r);
            } else {
                let beta = (rho_new / rho) * (alpha / omega);
                for k in 0..n {
                    p[k] = r[k] + beta * (p[k] - omega * v[k]);
                }
            }
            rho = rho_new;
            m.apply(p, phat);
            a.apply(phat, v);
            let r0v = rdot(rd, r0, v);
            if r0v.abs() < 1e-300 || !r0v.is_finite() {
                break 'solve KrylovResult::stalled(it, rn);
            }
            alpha = rho / r0v;
            // s = r - alpha v  (reuse r)
            axpy(-alpha, v, r);
            let sn = rdot(rd, r, r).sqrt();
            if !sn.is_finite() {
                break 'solve KrylovResult::divergence(it + 1, sn).with_last_finite(last_finite_rn);
            }
            last_finite_rn = sn;
            if sn <= tol {
                axpy(alpha, phat, x);
                break 'solve KrylovResult::success(it + 1, sn);
            }
            m.apply(r, shat);
            a.apply(shat, t);
            rd.dots(&[(t, t), (t, r)], &mut pair);
            let tt = pair[0];
            if tt.abs() < 1e-300 || !tt.is_finite() {
                break 'solve KrylovResult::stalled(it, sn);
            }
            omega = pair[1] / tt;
            axpy(alpha, phat, x);
            axpy(omega, shat, x);
            axpy(-omega, t, r);
            if omega.abs() < 1e-300 {
                break 'solve KrylovResult::stalled(it + 1, rdot(rd, r, r).sqrt());
            }
        }
        KrylovResult::at_cap(max_iter, rdot(rd, r, r).sqrt(), tol, last_finite_rn)
    };
    park(scratch, bufs.into_iter().rev());
    res
}

/// Shared test fixtures, and the solo CG recurrence that [`cg`] replaced
/// with one lane of [`crate::block_cg`], kept as the independent oracle the
/// lane-identity tests compare against.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use crate::vector::norm2;
    use std::cell::RefCell;

    /// Solo preconditioned CG, as it was before the lane loop took over.
    /// Allocates its own buffers (`opts.scratch` is ignored).
    pub(crate) fn cg_body<A: LinOp, M: Precond>(
        a: &A,
        b: &[f64],
        x: &mut [f64],
        m: &M,
        opts: SolveOpts,
    ) -> KrylovResult {
        let SolveOpts {
            rtol,
            atol,
            max_iter,
            reduce: rd,
            checkpoint: mut ck,
            ..
        } = opts;
        let n = a.size();
        check_sizes("cg", n, b, x);
        let (mut r, mut z, mut p, mut ap) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        a.apply(x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let bnorm = rdot(rd, b, b).sqrt().max(1e-300);
        let tol = rtol * bnorm + atol;
        m.apply(&r, &mut z);
        p.copy_from_slice(&z);
        let mut pair = [0.0; 2];
        rd.dots(&[(&r, &z), (&r, &r)], &mut pair);
        let (mut rz, mut rn2) = (pair[0], pair[1]);
        let mut last_finite_rn = f64::NAN;
        for it in 0..max_iter {
            let rn = rn2.sqrt();
            if !rn.is_finite() {
                return KrylovResult::divergence(it, rn).with_last_finite(last_finite_rn);
            }
            last_finite_rn = rn;
            if let Some(ck) = ck.as_deref_mut() {
                ck.observe("cg", it, rn, x, &r);
            }
            if rn <= tol {
                return KrylovResult::success(it, rn);
            }
            a.apply(&p, &mut ap);
            let pap = rdot(rd, &p, &ap);
            if pap.abs() < 1e-300 || !pap.is_finite() {
                return KrylovResult::stalled(it, rn);
            }
            let alpha = rz / pap;
            axpy(alpha, &p, x);
            axpy(-alpha, &ap, &mut r);
            m.apply(&r, &mut z);
            rd.dots(&[(&r, &z), (&r, &r)], &mut pair);
            let beta = pair[0] / rz;
            rz = pair[0];
            rn2 = pair[1];
            for (pi, zi) in p.iter_mut().zip(z.iter()) {
                *pi = zi + beta * *pi;
            }
        }
        KrylovResult::at_cap(max_iter, rn2.sqrt(), tol, last_finite_rn)
    }

    /// Delegates to [`LocalReduce`] while recording every batch size, so
    /// tests can assert both bitwise equivalence and message fusion.
    pub(crate) struct CountingReduce {
        batches: RefCell<Vec<usize>>,
    }

    impl CountingReduce {
        pub(crate) fn new() -> Self {
            CountingReduce {
                batches: RefCell::new(Vec::new()),
            }
        }

        /// `dots` calls so far.
        pub(crate) fn rounds(&self) -> usize {
            self.batches.borrow().len()
        }

        /// Pairs reduced so far, over all rounds.
        pub(crate) fn pairs(&self) -> usize {
            self.batches.borrow().iter().sum()
        }
    }

    impl Reduce for CountingReduce {
        fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
            self.batches.borrow_mut().push(pairs.len());
            LocalReduce.dots(pairs, out);
        }
    }

    /// 1-D Laplacian plus a diagonal shift (tridiagonal SPD).
    pub(crate) fn laplacian(n: usize, shift: f64) -> CsrMatrix {
        let mut b = CooBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 2.0 + shift);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    /// Nonsymmetric advection-diffusion-like matrix.
    fn advdiff_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 3.0);
            if i > 0 {
                b.add(i, i - 1, -2.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -0.5);
            }
        }
        b.build()
    }

    fn check_solution(a: &CsrMatrix, x: &[f64], b: &[f64], tol: f64) {
        let mut r = vec![0.0; a.n];
        a.matvec(x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        assert!(norm2(&r) < tol, "residual {}", norm2(&r));
    }

    #[test]
    fn cg_solves_laplace() {
        let a = laplacian(100, 0.0);
        let b: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.1).sin()).collect();
        let mut x = vec![0.0; 100];
        let res = cg(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-10, 0.0, 1000),
        );
        assert!(res.converged, "{res:?}");
        check_solution(&a, &x, &b, 1e-7);
    }

    #[test]
    fn jacobi_precond_reduces_iterations_on_scaled_system() {
        // Badly diagonally scaled SPD system.
        let n = 80;
        let mut bld = CooBuilder::new(n);
        for i in 0..n {
            let s = 10.0f64.powi((i % 5) as i32);
            bld.add(i, i, 2.0 * s);
            if i > 0 {
                bld.add(i, i - 1, -0.5);
            }
            if i + 1 < n {
                bld.add(i, i + 1, -0.5);
            }
        }
        let a = bld.build();
        let b = vec![1.0; n];
        let mut x1 = vec![0.0; n];
        let r1 = cg(
            &a,
            &b,
            &mut x1,
            &IdentityPrecond,
            SolveOpts::new(1e-10, 0.0, 10_000),
        );
        let mut x2 = vec![0.0; n];
        let jac = JacobiPrecond::from_matrix(&a);
        let r2 = cg(&a, &b, &mut x2, &jac, SolveOpts::new(1e-10, 0.0, 10_000));
        assert!(r2.converged);
        assert!(
            r2.iterations < r1.iterations,
            "jacobi {} vs none {}",
            r2.iterations,
            r1.iterations
        );
        check_solution(&a, &x2, &b, 1e-6);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        let a = advdiff_1d(120);
        let b: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = vec![0.0; 120];
        let res = bicgstab(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-10, 0.0, 2000),
        );
        assert!(res.converged, "{res:?}");
        check_solution(&a, &x, &b, 1e-6);
    }

    #[test]
    fn asm_precond_accelerates_bicgstab() {
        let a = laplacian(200, 0.0);
        let b = vec![1.0; 200];
        let opts = || SolveOpts::new(1e-10, 0.0, 5000);
        let mut x_plain = vec![0.0; 200];
        let r_plain = bicgstab(&a, &b, &mut x_plain, &IdentityPrecond, opts());
        let asm = AsmPrecond::new(&a, 8, 4);
        let mut x_asm = vec![0.0; 200];
        let r_asm = bicgstab(&a, &b, &mut x_asm, &asm, opts());
        assert!(r_asm.converged);
        assert!(
            r_asm.iterations < r_plain.iterations,
            "asm {} vs plain {}",
            r_asm.iterations,
            r_plain.iterations
        );
        check_solution(&a, &x_asm, &b, 1e-6);
    }

    #[test]
    fn asm_single_block_is_direct_solve() {
        let a = laplacian(30, 0.0);
        let asm = AsmPrecond::new(&a, 1, 0);
        let b = vec![1.0; 30];
        let mut z = vec![0.0; 30];
        asm.apply(&b, &mut z);
        check_solution(&a, &z, &b, 1e-9);
    }

    /// Random sparse nonsymmetric matrix of the kinds an ASM block meets:
    /// a band plus far couplings, identity (Dirichlet) rows, and columns
    /// whose largest entry sits below the diagonal, so the factorization
    /// swaps rows. With `singular`, one row and column are empty: every
    /// block that contains that index takes the regularized path.
    fn asm_test_matrix(n: usize, singular: bool, seed: u64) -> CsrMatrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dead = n / 2 + 3;
        let mut b = CooBuilder::new(n);
        for i in 0..n {
            if i % 11 == 5 {
                b.add(i, i, 1.0);
                continue;
            }
            b.add(i, i, rng.gen_range(0.5..1.5));
            for _ in 0..5 {
                let j = if rng.gen_bool(0.8) {
                    (i + rng.gen_range(0..25usize))
                        .saturating_sub(12)
                        .min(n - 1)
                } else {
                    rng.gen_range(0..n)
                };
                b.add(i, j, rng.gen_range(-1.0..1.0));
            }
            if i % 7 == 3 && i >= 2 {
                b.add(i, i - 2, 5.0);
            }
        }
        let mut a = b.build();
        if singular {
            for i in 0..n {
                for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                    if i == dead || a.cols[k] as usize == dead {
                        a.vals[k] = 0.0;
                    }
                }
            }
        }
        a
    }

    /// The block solve `AsmPrecond` replaced: dense extraction, dense
    /// factors, `LuFactors::solve`, restricted write-back. Also returns how
    /// many blocks were singular.
    fn asm_reference(
        a: &CsrMatrix,
        nblocks: usize,
        overlap: usize,
        r: &[f64],
    ) -> (Vec<f64>, usize) {
        let n = a.n;
        let mut z = vec![0.0; n];
        let mut regularized = 0;
        for b in 0..nblocks {
            let (own_lo, own_hi) = (b * n / nblocks, (b + 1) * n / nblocks);
            let lo = own_lo.saturating_sub(overlap);
            let hi = (own_hi + overlap).min(n);
            let dense = a.dense_block(lo..hi);
            let lu = dense.lu().unwrap_or_else(|_| {
                regularized += 1;
                let mut m = dense.clone();
                let scale = dense.norm1().max(1.0);
                for i in 0..m.rows {
                    m[(i, i)] += 1e-10 * scale;
                }
                m.lu().expect("regularized block is nonsingular")
            });
            let mut local = r[lo..hi].to_vec();
            lu.solve(&mut local);
            z[own_lo..own_hi].copy_from_slice(&local[own_lo - lo..own_hi - lo]);
        }
        (z, regularized)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn asm_apply_is_bitwise_the_dense_block_solve() {
        use rand::{Rng, SeedableRng};
        let n = 120;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let mut r: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for i in (0..n).step_by(9) {
            r[i] = 0.0; // homogeneous Dirichlet rows
        }
        for singular in [false, true] {
            let a = asm_test_matrix(n, singular, 5);
            for nblocks in [1, 3, 8] {
                for overlap in [0, 4, 8] {
                    let (want, regularized) = asm_reference(&a, nblocks, overlap, &r);
                    assert_eq!(regularized > 0, singular);
                    assert!(regularized < nblocks || nblocks == 1);
                    let asm = AsmPrecond::new(&a, nblocks, overlap);
                    let mut z = vec![f64::NAN; n];
                    asm.apply(&r, &mut z);
                    assert_eq!(
                        bits(&z),
                        bits(&want),
                        "singular={singular} nblocks={nblocks} overlap={overlap}"
                    );
                    assert_eq!(asm.num_blocks(), nblocks);
                    assert!(asm.stored_entries() < asm.dense_entries());
                }
            }
        }
    }

    #[test]
    fn lu_zero_multiplier_skip_is_bitwise_the_full_loop() {
        let n = 120;
        let mut swapped = false;
        for singular in [false, true] {
            let a = asm_test_matrix(n, singular, 5);
            for (lo, hi) in [(0, n), (0, 48), (36, 88), (97, n)] {
                let dense = a.dense_block(lo..hi);
                match (dense.lu(), crate::dense::lu_unskipped(&dense)) {
                    (Ok(lu), Ok((want_lu, want_piv))) => {
                        let (got_lu, got_piv) = lu.parts();
                        assert_eq!(got_piv, want_piv);
                        assert_eq!(bits(got_lu), bits(&want_lu), "block {lo}..{hi}");
                        swapped |= got_piv.iter().enumerate().any(|(i, &p)| i != p);
                    }
                    (Err(_), Err(_)) => assert!(singular),
                    _ => panic!("skip changed the singularity verdict on {lo}..{hi}"),
                }
            }
        }
        assert!(swapped, "the test matrices must force row swaps");
    }

    #[test]
    fn asm_with_non_finite_entries_does_not_panic() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut a = asm_test_matrix(60, true, 9);
            a.vals[a.row_ptr[20]] = bad;
            let asm = AsmPrecond::new(&a, 3, 4);
            let mut z = vec![0.0; 60];
            asm.apply(&vec![1.0; 60], &mut z);
        }
    }

    #[test]
    fn cg_and_bicgstab_flag_divergence_on_nan() {
        let a = laplacian(30, 0.0);
        let mut b = vec![1.0; 30];
        b[7] = f64::NAN;
        let mut x = vec![0.0; 30];
        let res = cg(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-10, 0.0, 100),
        );
        assert!(res.diverged && !res.converged, "{res:?}");
        let mut x = vec![0.0; 30];
        let res = bicgstab(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-10, 0.0, 100),
        );
        assert!(res.diverged && !res.converged, "{res:?}");
    }

    #[test]
    fn stall_is_not_divergence() {
        // Iteration cap with a finite residual: non-converged but not diverged.
        let a = laplacian(200, 0.0);
        let b = vec![1.0; 200];
        let mut x = vec![0.0; 200];
        let res = cg(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-14, 0.0, 3),
        );
        assert!(!res.converged && !res.diverged, "{res:?}");
        assert!(res.residual.is_finite());
    }

    /// The services a solve can be given besides the reducer.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Service {
        Plain,
        Scratch,
        Checkpoint,
    }

    /// Every method over {local, counting reducer} × {plain, scratch,
    /// checkpoint}: the same bits as the plain local solve (CG: as the solo
    /// oracle), the fused batch counts (CG 2 per iteration, BiCGStab 4),
    /// and what the service itself is for.
    #[test]
    fn options_change_no_bits_and_no_batches() {
        let spd = laplacian(100, 0.0);
        let b_spd: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.1).sin()).collect();
        let nonsym = advdiff_1d(120);
        let b_ns: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64).collect();
        type Method =
            fn(&CsrMatrix, &[f64], &mut [f64], &IdentityPrecond, SolveOpts) -> KrylovResult;
        let methods: [(&str, Method, &CsrMatrix, &[f64], usize); 3] = [
            ("oracle", cg_body, &spd, &b_spd, 4),
            ("cg", cg, &spd, &b_spd, 4),
            ("bicgstab", bicgstab, &nonsym, &b_ns, 7),
        ];
        let mut want: Option<(Vec<u64>, usize, u64)> = None;
        for (name, solve, a, b, loans) in methods {
            if name != "cg" {
                want = None; // cg is held to the oracle's bits
            }
            for counting in [false, true] {
                for service in [Service::Plain, Service::Scratch, Service::Checkpoint] {
                    let rd = CountingReduce::new();
                    let mut pool = KrylovScratch::new();
                    let mut ck = Checkpointer::new(10);
                    let opts = SolveOpts {
                        reduce: if counting { &rd } else { &LocalReduce },
                        scratch: (service == Service::Scratch).then_some(&mut pool),
                        checkpoint: (service == Service::Checkpoint).then_some(&mut ck),
                        ..SolveOpts::new(1e-10, 0.0, 2000)
                    };
                    let mut x = vec![0.0; a.n];
                    let res = solve(a, b, &mut x, &IdentityPrecond, opts);
                    let at = format!("{name} counting={counting} {service:?}");
                    assert!(res.converged, "{at}: {res:?}");
                    let got = (bits(&x), res.iterations, res.residual.to_bits());
                    assert_eq!(&got, want.get_or_insert_with(|| got.clone()), "{at}");
                    let it = res.iterations;
                    if counting && name == "bicgstab" {
                        // Setup: bnorm. Each full iteration: fused (r·r,
                        // r0·r), r0·v, s-norm, fused (t·t, t·r). The last
                        // partial iteration stops at the top-of-loop check
                        // (1 more batch) or at the s-norm check (3 more).
                        assert!(it > 1, "{at}: needs a multi-iteration solve");
                        let rounds = rd.rounds();
                        assert!(rounds == 2 + 4 * it || rounds == 4 * it, "{at}: {rounds}");
                    } else if counting {
                        // Setup: bnorm + initial (r·z, r·r). Each iteration:
                        // p·Ap plus one fused pair.
                        assert_eq!(rd.rounds(), 2 + 2 * it, "{at}");
                    }
                    if service == Service::Scratch && name != "oracle" {
                        assert_eq!(pool.pooled(), loans, "{at}");
                    }
                    if service == Service::Checkpoint {
                        let snap = ck.latest().expect("solve ran past the cadence");
                        assert_eq!(
                            snap.method,
                            if name == "bicgstab" { "bicgstab" } else { "cg" }
                        );
                        assert!(snap.iteration >= 10 && snap.iteration <= it, "{at}");
                        assert_eq!(snap.iteration % 10, 0);
                        assert_eq!((snap.x.len(), snap.r.len()), (a.n, a.n));
                        assert!((1..=8).contains(&snap.residual_tail.len()));
                        assert_eq!(*snap.residual_tail.last().unwrap(), snap.residual);
                    }
                }
            }
        }
    }

    /// Runs `method` ("cg", "bicgstab" or "block_cg") on every lane of `bs`.
    fn solve_lanes(
        method: &str,
        a: &CsrMatrix,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
        scratch: Option<&mut KrylovScratch>,
    ) {
        let opts = SolveOpts {
            scratch,
            ..SolveOpts::new(1e-11, 0.0, 300)
        };
        match method {
            "cg" => {
                cg(a, bs[0], xs[0], &IdentityPrecond, opts);
            }
            "bicgstab" => {
                bicgstab(a, bs[0], xs[0], &IdentityPrecond, opts);
            }
            _ => {
                crate::block_cg(a, bs, xs, &IdentityPrecond, opts);
            }
        }
    }

    /// Drains and restores the pool to read the buffer addresses in LIFO
    /// order (take/put round-trips preserve both addresses and order).
    fn scratch_ptrs(s: &mut KrylovScratch, count: usize, n: usize) -> Vec<usize> {
        let bufs: Vec<Vec<f64>> = (0..count).map(|_| s.take(n)).collect();
        let ptrs: Vec<usize> = bufs.iter().map(|b| b.as_ptr() as usize).collect();
        for b in bufs.into_iter().rev() {
            s.put(b);
        }
        ptrs
    }

    /// Repeat solves through one pool are bitwise the allocating solve and
    /// reuse the exact buffers (pointer-stable), for every method.
    #[test]
    fn scratch_solves_reuse_the_same_buffers() {
        let n = 56;
        let a = laplacian(n, 0.3);
        let bs: Vec<Vec<f64>> = (1..4)
            .map(|s| (0..n).map(|i| ((i * s) as f64 * 0.37).sin()).collect())
            .collect();
        let b_refs: Vec<&[f64]> = bs.iter().map(|b| b.as_slice()).collect();
        for (method, lanes, loans) in [("cg", 1, 4), ("bicgstab", 1, 7), ("block_cg", 3, 12)] {
            let solve = |scratch: Option<&mut KrylovScratch>| {
                let mut xs = vec![vec![0.0; n]; lanes];
                let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(|x| x.as_mut_slice()).collect();
                solve_lanes(method, &a, &b_refs[..lanes], &mut x_refs, scratch);
                xs.iter().map(|x| bits(x)).collect::<Vec<_>>()
            };
            let fresh = solve(None);
            let mut scratch = KrylovScratch::new();
            let mut first = None;
            for round in 0..3 {
                assert_eq!(solve(Some(&mut scratch)), fresh, "{method} round {round}");
                assert_eq!(scratch.pooled(), loans, "{method}");
                let ptrs = scratch_ptrs(&mut scratch, loans, n);
                assert_eq!(
                    &ptrs,
                    first.get_or_insert_with(|| ptrs.clone()),
                    "{method} round {round}"
                );
            }
        }
    }

    /// A right-hand side two entries short would be read as if padded with
    /// zeros; every method refuses it, naming itself and both lengths.
    #[test]
    fn every_method_checks_vector_lengths() {
        let a = laplacian(6, 0.0);
        let b = [1.0; 4];
        for method in ["cg", "bicgstab", "block_cg"] {
            let mut x = [0.0; 6];
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                solve_lanes(method, &a, &[&b], &mut [&mut x], None)
            }))
            .expect_err(method);
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(
                msg,
                &format!("{method}: the operator has 6 unknowns, but b has 4 and x has 6")
            );
        }
    }

    #[test]
    fn diverged_result_keeps_iteration_and_last_finite_residual() {
        // Mid-flight divergence: the point of failure and the last healthy
        // residual magnitude both survive into the report.
        let res = KrylovResult::divergence(17, f64::NAN).with_last_finite(0.125);
        assert!(res.diverged);
        assert_eq!(res.iterations, 17);
        assert_eq!(res.last_finite_residual, Some(0.125));
        // A non-finite "last finite" candidate is rejected.
        let res = KrylovResult::divergence(3, f64::NAN).with_last_finite(f64::INFINITY);
        assert_eq!(res.last_finite_residual, None);
        // End-to-end: NaN contaminates the very first residual — there was
        // never a healthy iteration to report.
        let a = laplacian(30, 0.0);
        let mut b = vec![1.0; 30];
        b[7] = f64::NAN;
        let mut x = vec![0.0; 30];
        let res = cg(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-10, 0.0, 100),
        );
        assert!(res.diverged, "{res:?}");
        assert_eq!(res.iterations, 0);
        assert_eq!(res.last_finite_residual, None);
        // Healthy non-convergence carries its own (finite) residual.
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let res = cg(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-14, 0.0, 2),
        );
        assert!(!res.converged && !res.diverged);
        assert_eq!(res.last_finite_residual, Some(res.residual));
    }

    #[test]
    fn cg_restarted_from_checkpoint_matches_uninterrupted_answer() {
        // "Kill" a solve mid-flight, restart from its last checkpoint, and
        // converge to the same answer as the uninterrupted run.
        let a = laplacian(120, 0.0);
        let b: Vec<f64> = (0..120).map(|i| 1.0 + ((i as f64) * 0.3).cos()).collect();
        let mut x_full = vec![0.0; 120];
        let res_full = cg(
            &a,
            &b,
            &mut x_full,
            &IdentityPrecond,
            SolveOpts::new(1e-11, 0.0, 2000),
        );
        assert!(res_full.converged);

        // First attempt dies after a bounded number of iterations (cap as a
        // stand-in for a rank kill); its checkpoints survive.
        let mut ck = Checkpointer::new(5);
        let mut x1 = vec![0.0; 120];
        let opts = SolveOpts {
            checkpoint: Some(&mut ck),
            ..SolveOpts::new(1e-11, 0.0, 23)
        };
        let res1 = cg(&a, &b, &mut x1, &IdentityPrecond, opts);
        assert!(!res1.converged);
        let ckpt = ck.into_latest().expect("first attempt checkpointed");

        // Restart from the snapshot: seed x and the iteration offset.
        let mut ck2 = Checkpointer::new(5).resume_from(&ckpt);
        assert_eq!(ck2.offset(), ckpt.iteration);
        let mut x2 = ckpt.x.clone();
        let opts = SolveOpts {
            checkpoint: Some(&mut ck2),
            ..SolveOpts::new(1e-11, 0.0, 2000)
        };
        let res2 = cg(&a, &b, &mut x2, &IdentityPrecond, opts);
        assert!(res2.converged, "{res2:?}");
        // Same answer as the uninterrupted solve, to solver tolerance.
        let scale = x_full.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for (u, v) in x_full.iter().zip(&x2) {
            assert!((u - v).abs() <= 1e-8 * scale.max(1.0), "{u} vs {v}");
        }
        // Restart checkpoints carry the global iteration count forward.
        if let Some(c2) = ck2.latest() {
            assert!(c2.iteration >= ckpt.iteration);
        }
    }

    #[test]
    fn checkpointer_streams_snapshots_into_sink() {
        let a = laplacian(60, 0.0);
        let b = vec![1.0; 60];
        let seen = RefCell::new(Vec::new());
        let mut ck = Checkpointer::new(4).with_sink(|c: &SolveCheckpoint| {
            seen.borrow_mut().push(c.iteration);
        });
        let mut x = vec![0.0; 60];
        let opts = SolveOpts {
            checkpoint: Some(&mut ck),
            ..SolveOpts::new(1e-10, 0.0, 1000)
        };
        let res = cg(&a, &b, &mut x, &IdentityPrecond, opts);
        assert!(res.converged);
        let seen = seen.borrow();
        assert!(seen.len() >= 2, "snapshots: {seen:?}");
        assert!(seen.iter().all(|i| i % 4 == 0));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "monotonic: {seen:?}");
    }

    #[test]
    fn matrix_free_closure_operator() {
        // LinOp via (n, closure): y = 2x.
        let op = (4usize, |x: &[f64], y: &mut [f64]| {
            for (yi, xi) in y.iter_mut().zip(x) {
                *yi = 2.0 * xi;
            }
        });
        let b = vec![2.0, 4.0, 6.0, 8.0];
        let mut x = vec![0.0; 4];
        let res = cg(
            &op,
            &b,
            &mut x,
            &IdentityPrecond,
            SolveOpts::new(1e-12, 0.0, 10),
        );
        assert!(res.converged);
        for (xi, want) in x.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((xi - want).abs() < 1e-10);
        }
    }
}
