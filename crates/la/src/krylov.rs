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

/// Sequential reduction: plain local dot products. With this reducer,
/// [`cg_with`] / [`bicgstab_with`] are bitwise identical to [`cg`] /
/// [`bicgstab`] (which are thin wrappers over it).
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
fn rdot<R: Reduce + ?Sized>(rd: &R, u: &[f64], v: &[f64]) -> f64 {
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
}

/// Reusable pool of solver scratch vectors. The Krylov drivers allocate a
/// handful of length-`n` work buffers per solve (`r`, `z`, `p`, `Ap`, and
/// the per-RHS panels of the block driver); a serving loop that solves the
/// same cached system over and over pays that allocation on every request.
/// Handing the same `KrylovScratch` to [`cg_with_scratch`] /
/// [`crate::block::block_cg_scratch`] recycles the buffers instead — the
/// pool is LIFO, so back-to-back same-size solves reuse the exact
/// allocations (pointer-stable, asserted by the warm-path tests).
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

/// Internal loan source: a caller-held pool, or fresh allocations for the
/// scratch-less entry points (which must stay allocation-compatible with
/// their historical behavior).
pub(crate) enum Lease<'s> {
    Pool(&'s mut KrylovScratch),
    Fresh,
}

impl Lease<'_> {
    pub(crate) fn take(&mut self, n: usize) -> Vec<f64> {
        match self {
            Lease::Pool(s) => s.take(n),
            Lease::Fresh => vec![0.0; n],
        }
    }

    pub(crate) fn put(&mut self, v: Vec<f64>) {
        if let Lease::Pool(s) = self {
            s.put(v);
        }
    }
}

/// Environment override for the checkpoint cadence of the checkpointed
/// Krylov drivers (iterations between snapshots; default 25).
pub const CKPT_EVERY_ENV: &str = "CARVE_CKPT_EVERY";

const DEFAULT_CKPT_EVERY: usize = 25;

/// Checkpoint cadence: `CARVE_CKPT_EVERY` when set to a positive integer,
/// 25 otherwise.
pub fn default_ckpt_every() -> usize {
    std::env::var(CKPT_EVERY_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CKPT_EVERY)
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

/// Checkpoint cadence driver for [`cg_checkpointed`] / [`bicgstab_checkpointed`].
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

    /// Cadence from `CARVE_CKPT_EVERY` (default 25).
    pub fn from_env() -> Self {
        Checkpointer::new(default_ckpt_every())
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
    fn observe(&mut self, method: &str, it: usize, rn: f64, x: &[f64], r: &[f64]) {
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

/// Preconditioned conjugate gradients for SPD operators. Stops when
/// `‖r‖ <= rtol * ‖b‖ + atol`.
pub fn cg<A: LinOp, M: Precond>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
) -> KrylovResult {
    cg_with(a, b, x, m, rtol, atol, max_iter, &LocalReduce)
}

/// CG with an explicit [`Reduce`] backend. The per-iteration reductions are
/// fused into two batches: `(p·Ap)` and the paired `(r·z, r·r)` after the
/// preconditioner — the convergence norm reuses the `r·r` from the previous
/// batch rather than issuing its own reduction, so a distributed run pays 2
/// messages per iteration instead of 3. With [`LocalReduce`] the arithmetic
/// is bitwise identical to the unfused history of [`cg`].
#[allow(clippy::too_many_arguments)]
pub fn cg_with<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
) -> KrylovResult {
    cg_impl(a, b, x, m, rtol, atol, max_iter, rd, None, Lease::Fresh)
}

/// CG with periodic [`SolveCheckpoint`] snapshots: bitwise identical to
/// [`cg_with`] (checkpointing adds no reductions and touches no iteration
/// arithmetic), but every `ck.every` iterations the current `(x, r)` state
/// is snapshotted for restart after a fault.
#[allow(clippy::too_many_arguments)]
pub fn cg_checkpointed<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
    ck: &mut Checkpointer<'_>,
) -> KrylovResult {
    cg_impl(a, b, x, m, rtol, atol, max_iter, rd, Some(ck), Lease::Fresh)
}

/// [`cg_with`] drawing its work vectors from a caller-held
/// [`KrylovScratch`] pool instead of allocating: the serving path's warm
/// solves run allocation-free for the length-`n` buffers. Bitwise identical
/// to [`cg_with`].
#[allow(clippy::too_many_arguments)]
pub fn cg_with_scratch<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
    scratch: &mut KrylovScratch,
) -> KrylovResult {
    cg_impl(
        a,
        b,
        x,
        m,
        rtol,
        atol,
        max_iter,
        rd,
        None,
        Lease::Pool(scratch),
    )
}

#[allow(clippy::too_many_arguments)]
fn cg_impl<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
    ck: Option<&mut Checkpointer<'_>>,
    mut lease: Lease<'_>,
) -> KrylovResult {
    let n = a.size();
    let mut r = lease.take(n);
    let mut z = lease.take(n);
    let mut p = lease.take(n);
    let mut ap = lease.take(n);
    let res = cg_body(
        a,
        b,
        x,
        m,
        rtol,
        atol,
        max_iter,
        rd,
        ck,
        (&mut r, &mut z, &mut p, &mut ap),
    );
    // LIFO restore in reverse loan order: the next same-size solve gets the
    // same buffers back in the same roles (pointer stability).
    lease.put(ap);
    lease.put(p);
    lease.put(z);
    lease.put(r);
    res
}

#[allow(clippy::too_many_arguments)]
fn cg_body<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
    mut ck: Option<&mut Checkpointer<'_>>,
    bufs: (&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>),
) -> KrylovResult {
    let n = a.size();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let (r, z, p, ap) = bufs;
    a.apply(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let bnorm = rdot(rd, b, b).sqrt().max(1e-300);
    let tol = rtol * bnorm + atol;
    m.apply(r, z);
    p.copy_from_slice(z);
    let mut pair = [0.0; 2];
    rd.dots(&[(r, z), (r, r)], &mut pair);
    let (mut rz, mut rn2) = (pair[0], pair[1]);
    let mut last_finite_rn = f64::NAN;
    for it in 0..max_iter {
        let rn = rn2.sqrt();
        if !rn.is_finite() {
            return KrylovResult::divergence(it, rn).with_last_finite(last_finite_rn);
        }
        last_finite_rn = rn;
        if let Some(ck) = ck.as_deref_mut() {
            ck.observe("cg", it, rn, x, r);
        }
        if rn <= tol {
            return KrylovResult::success(it, rn);
        }
        a.apply(p, ap);
        let pap = rdot(rd, p, ap);
        if pap.abs() < 1e-300 || !pap.is_finite() {
            return KrylovResult::stalled(it, rn);
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        m.apply(r, z);
        rd.dots(&[(r, z), (r, r)], &mut pair);
        let beta = pair[0] / rz;
        rz = pair[0];
        rn2 = pair[1];
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }
    let rn = rn2.sqrt();
    KrylovResult {
        converged: rn <= tol,
        iterations: max_iter,
        residual: rn,
        diverged: !rn.is_finite(),
        last_finite_residual: if rn.is_finite() {
            Some(rn)
        } else {
            last_finite_rn.is_finite().then_some(last_finite_rn)
        },
    }
}

/// Preconditioned BiCGStab for general (nonsymmetric) operators — the
/// paper's `-ksp_type bcgs`.
pub fn bicgstab<A: LinOp, M: Precond>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
) -> KrylovResult {
    bicgstab_with(a, b, x, m, rtol, atol, max_iter, &LocalReduce)
}

/// BiCGStab with an explicit [`Reduce`] backend. Per iteration the six
/// reductions of the textbook loop are fused into four batches: the paired
/// `(r·r, r0·r)` at the top, `r0·v`, the intermediate `s`-norm, and the
/// paired `(t·t, t·r)` for the stabilizer — 4 messages instead of 6 on a
/// distributed run. With [`LocalReduce`] the arithmetic is bitwise
/// identical to the unfused history of [`bicgstab`].
#[allow(clippy::too_many_arguments)]
pub fn bicgstab_with<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
) -> KrylovResult {
    bicgstab_impl(a, b, x, m, rtol, atol, max_iter, rd, None)
}

/// BiCGStab with periodic [`SolveCheckpoint`] snapshots; see
/// [`cg_checkpointed`] for the contract.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab_checkpointed<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
    ck: &mut Checkpointer<'_>,
) -> KrylovResult {
    bicgstab_impl(a, b, x, m, rtol, atol, max_iter, rd, Some(ck))
}

#[allow(clippy::too_many_arguments)]
fn bicgstab_impl<A: LinOp, M: Precond, R: Reduce + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    m: &M,
    rtol: f64,
    atol: f64,
    max_iter: usize,
    rd: &R,
    mut ck: Option<&mut Checkpointer<'_>>,
) -> KrylovResult {
    let n = a.size();
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let bnorm = rdot(rd, b, b).sqrt().max(1e-300);
    let tol = rtol * bnorm + atol;
    let r0 = r.clone();
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];
    let mut pair = [0.0; 2];
    let mut last_finite_rn = f64::NAN;
    for it in 0..max_iter {
        rd.dots(&[(&r, &r), (&r0, &r)], &mut pair);
        let rn = pair[0].sqrt();
        let rho_new = pair[1];
        if !rn.is_finite() {
            return KrylovResult::divergence(it, rn).with_last_finite(last_finite_rn);
        }
        last_finite_rn = rn;
        if let Some(ck) = ck.as_deref_mut() {
            ck.observe("bicgstab", it, rn, x, &r);
        }
        if rn <= tol {
            return KrylovResult::success(it, rn);
        }
        if rho_new.abs() < 1e-300 || !rho_new.is_finite() {
            return KrylovResult::stalled(it, rn);
        }
        if it == 0 {
            p.copy_from_slice(&r);
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            for k in 0..n {
                p[k] = r[k] + beta * (p[k] - omega * v[k]);
            }
        }
        rho = rho_new;
        m.apply(&p, &mut phat);
        a.apply(&phat, &mut v);
        let r0v = rdot(rd, &r0, &v);
        if r0v.abs() < 1e-300 || !r0v.is_finite() {
            return KrylovResult::stalled(it, rn);
        }
        alpha = rho / r0v;
        // s = r - alpha v  (reuse r)
        axpy(-alpha, &v, &mut r);
        let sn = rdot(rd, &r, &r).sqrt();
        if !sn.is_finite() {
            return KrylovResult::divergence(it + 1, sn).with_last_finite(last_finite_rn);
        }
        last_finite_rn = sn;
        if sn <= tol {
            axpy(alpha, &phat, x);
            return KrylovResult::success(it + 1, sn);
        }
        m.apply(&r, &mut shat);
        a.apply(&shat, &mut t);
        rd.dots(&[(&t, &t), (&t, &r)], &mut pair);
        let tt = pair[0];
        if tt.abs() < 1e-300 || !tt.is_finite() {
            return KrylovResult::stalled(it, sn);
        }
        omega = pair[1] / tt;
        axpy(alpha, &phat, x);
        axpy(omega, &shat, x);
        axpy(-omega, &t, &mut r);
        if omega.abs() < 1e-300 {
            return KrylovResult::stalled(it + 1, rdot(rd, &r, &r).sqrt());
        }
    }
    let rn = rdot(rd, &r, &r).sqrt();
    KrylovResult {
        converged: rn <= tol,
        iterations: max_iter,
        residual: rn,
        diverged: !rn.is_finite(),
        last_finite_residual: if rn.is_finite() {
            Some(rn)
        } else {
            last_finite_rn.is_finite().then_some(last_finite_rn)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CooBuilder;
    use crate::vector::norm2;

    /// 1D Laplacian (tridiagonal SPD).
    fn laplace_1d(n: usize) -> CsrMatrix {
        let mut b = CooBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 2.0);
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
        let a = laplace_1d(100);
        let b: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.1).sin()).collect();
        let mut x = vec![0.0; 100];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, 1e-10, 0.0, 1000);
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
        let r1 = cg(&a, &b, &mut x1, &IdentityPrecond, 1e-10, 0.0, 10_000);
        let mut x2 = vec![0.0; n];
        let jac = JacobiPrecond::from_matrix(&a);
        let r2 = cg(&a, &b, &mut x2, &jac, 1e-10, 0.0, 10_000);
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
        let res = bicgstab(&a, &b, &mut x, &IdentityPrecond, 1e-10, 0.0, 2000);
        assert!(res.converged, "{res:?}");
        check_solution(&a, &x, &b, 1e-6);
    }

    #[test]
    fn asm_precond_accelerates_bicgstab() {
        let a = laplace_1d(200);
        let b = vec![1.0; 200];
        let mut x_plain = vec![0.0; 200];
        let r_plain = bicgstab(&a, &b, &mut x_plain, &IdentityPrecond, 1e-10, 0.0, 5000);
        let asm = AsmPrecond::new(&a, 8, 4);
        let mut x_asm = vec![0.0; 200];
        let r_asm = bicgstab(&a, &b, &mut x_asm, &asm, 1e-10, 0.0, 5000);
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
        let a = laplace_1d(30);
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
        let a = laplace_1d(30);
        let mut b = vec![1.0; 30];
        b[7] = f64::NAN;
        let mut x = vec![0.0; 30];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, 1e-10, 0.0, 100);
        assert!(res.diverged && !res.converged, "{res:?}");
        let mut x = vec![0.0; 30];
        let res = bicgstab(&a, &b, &mut x, &IdentityPrecond, 1e-10, 0.0, 100);
        assert!(res.diverged && !res.converged, "{res:?}");
    }

    #[test]
    fn stall_is_not_divergence() {
        // Iteration cap with a finite residual: non-converged but not diverged.
        let a = laplace_1d(200);
        let b = vec![1.0; 200];
        let mut x = vec![0.0; 200];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, 1e-14, 0.0, 3);
        assert!(!res.converged && !res.diverged, "{res:?}");
        assert!(res.residual.is_finite());
    }

    /// Delegates to [`LocalReduce`] while recording every batch size, so
    /// tests can assert both bitwise equivalence and message fusion.
    struct CountingReduce {
        batches: std::cell::RefCell<Vec<usize>>,
    }

    impl CountingReduce {
        fn new() -> Self {
            CountingReduce {
                batches: std::cell::RefCell::new(Vec::new()),
            }
        }
    }

    impl Reduce for CountingReduce {
        fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
            self.batches.borrow_mut().push(pairs.len());
            LocalReduce.dots(pairs, out);
        }
    }

    #[test]
    fn cg_with_fuses_reductions_and_stays_bitwise_identical() {
        let a = laplace_1d(100);
        let b: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.1).sin()).collect();
        let mut x_plain = vec![0.0; 100];
        let res_plain = cg(&a, &b, &mut x_plain, &IdentityPrecond, 1e-10, 0.0, 1000);
        let rd = CountingReduce::new();
        let mut x_fused = vec![0.0; 100];
        let res_fused = cg_with(
            &a,
            &b,
            &mut x_fused,
            &IdentityPrecond,
            1e-10,
            0.0,
            1000,
            &rd,
        );
        assert_eq!(res_plain.iterations, res_fused.iterations);
        assert_eq!(res_plain.residual.to_bits(), res_fused.residual.to_bits());
        for (p, f) in x_plain.iter().zip(&x_fused) {
            assert_eq!(p.to_bits(), f.to_bits());
        }
        let batches = rd.batches.borrow();
        assert!(batches.contains(&2), "no fused batch in {batches:?}");
        // Setup: bnorm + initial (r·z, r·r). Each full iteration: p·Ap plus
        // one fused pair — 2 messages, not the 3 of the unfused loop.
        assert_eq!(batches.len(), 2 + 2 * res_fused.iterations);
    }

    #[test]
    fn bicgstab_with_fuses_reductions_and_stays_bitwise_identical() {
        let a = advdiff_1d(120);
        let b: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x_plain = vec![0.0; 120];
        let res_plain = bicgstab(&a, &b, &mut x_plain, &IdentityPrecond, 1e-10, 0.0, 2000);
        let rd = CountingReduce::new();
        let mut x_fused = vec![0.0; 120];
        let res_fused = bicgstab_with(
            &a,
            &b,
            &mut x_fused,
            &IdentityPrecond,
            1e-10,
            0.0,
            2000,
            &rd,
        );
        assert_eq!(res_plain.iterations, res_fused.iterations);
        assert_eq!(res_plain.residual.to_bits(), res_fused.residual.to_bits());
        for (p, f) in x_plain.iter().zip(&x_fused) {
            assert_eq!(p.to_bits(), f.to_bits());
        }
        // Setup: bnorm. Each full iteration: fused (r·r, r0·r), r0·v, s-norm,
        // fused (t·t, t·r) — 4 messages, not the 6 of the unfused loop.
        // Depending on whether the run converges at the top-of-loop check or
        // the s-norm check, the final partial iteration adds 1 or 3 batches.
        let batches = rd.batches.borrow();
        let it = res_fused.iterations;
        assert!(it > 1, "test needs a multi-iteration solve, got {it}");
        let top_exit = 2 + 4 * it;
        let snorm_exit = 4 * it;
        assert!(
            batches.len() == top_exit || batches.len() == snorm_exit,
            "batches {} vs expected {top_exit} or {snorm_exit}",
            batches.len()
        );
        assert!(batches.iter().filter(|&&n| n == 2).count() >= it);
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
        let a = laplace_1d(30);
        let mut b = vec![1.0; 30];
        b[7] = f64::NAN;
        let mut x = vec![0.0; 30];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, 1e-10, 0.0, 100);
        assert!(res.diverged, "{res:?}");
        assert_eq!(res.iterations, 0);
        assert_eq!(res.last_finite_residual, None);
        // Healthy non-convergence carries its own (finite) residual.
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let res = cg(&a, &b, &mut x, &IdentityPrecond, 1e-14, 0.0, 2);
        assert!(!res.converged && !res.diverged);
        assert_eq!(res.last_finite_residual, Some(res.residual));
    }

    #[test]
    fn checkpointed_cg_is_bitwise_identical_and_snapshots() {
        let a = laplace_1d(100);
        let b: Vec<f64> = (0..100).map(|i| ((i as f64) * 0.1).sin()).collect();
        let mut x_plain = vec![0.0; 100];
        let res_plain = cg(&a, &b, &mut x_plain, &IdentityPrecond, 1e-10, 0.0, 1000);
        let rd = CountingReduce::new();
        let mut ck = Checkpointer::new(10);
        let mut x_ck = vec![0.0; 100];
        let res_ck = cg_checkpointed(
            &a,
            &b,
            &mut x_ck,
            &IdentityPrecond,
            1e-10,
            0.0,
            1000,
            &rd,
            &mut ck,
        );
        assert_eq!(res_plain.iterations, res_ck.iterations);
        assert_eq!(res_plain.residual.to_bits(), res_ck.residual.to_bits());
        for (p, f) in x_plain.iter().zip(&x_ck) {
            assert_eq!(p.to_bits(), f.to_bits());
        }
        // Checkpointing adds no reductions: exact fused-batch count as cg_with.
        assert_eq!(rd.batches.borrow().len(), 2 + 2 * res_ck.iterations);
        let ckpt = ck.latest().expect("solve ran past the cadence");
        assert_eq!(ckpt.method, "cg");
        assert!(ckpt.iteration >= 10 && ckpt.iteration <= res_ck.iterations);
        assert_eq!(ckpt.iteration % 10, 0);
        assert_eq!(ckpt.x.len(), 100);
        assert_eq!(ckpt.r.len(), 100);
        assert!(!ckpt.residual_tail.is_empty() && ckpt.residual_tail.len() <= 8);
        assert_eq!(*ckpt.residual_tail.last().unwrap(), ckpt.residual);
    }

    #[test]
    fn cg_restarted_from_checkpoint_matches_uninterrupted_answer() {
        // "Kill" a solve mid-flight, restart from its last checkpoint, and
        // converge to the same answer as the uninterrupted run.
        let a = laplace_1d(120);
        let b: Vec<f64> = (0..120).map(|i| 1.0 + ((i as f64) * 0.3).cos()).collect();
        let mut x_full = vec![0.0; 120];
        let res_full = cg(&a, &b, &mut x_full, &IdentityPrecond, 1e-11, 0.0, 2000);
        assert!(res_full.converged);

        // First attempt dies after a bounded number of iterations (cap as a
        // stand-in for a rank kill); its checkpoints survive.
        let mut ck = Checkpointer::new(5);
        let mut x1 = vec![0.0; 120];
        let res1 = cg_checkpointed(
            &a,
            &b,
            &mut x1,
            &IdentityPrecond,
            1e-11,
            0.0,
            23,
            &LocalReduce,
            &mut ck,
        );
        assert!(!res1.converged);
        let ckpt = ck.into_latest().expect("first attempt checkpointed");

        // Restart from the snapshot: seed x and the iteration offset.
        let mut ck2 = Checkpointer::new(5).resume_from(&ckpt);
        assert_eq!(ck2.offset(), ckpt.iteration);
        let mut x2 = ckpt.x.clone();
        let res2 = cg_checkpointed(
            &a,
            &b,
            &mut x2,
            &IdentityPrecond,
            1e-11,
            0.0,
            2000,
            &LocalReduce,
            &mut ck2,
        );
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
        let a = laplace_1d(60);
        let b = vec![1.0; 60];
        let seen = std::cell::RefCell::new(Vec::new());
        let mut ck = Checkpointer::new(4).with_sink(|c: &SolveCheckpoint| {
            seen.borrow_mut().push(c.iteration);
        });
        let mut x = vec![0.0; 60];
        let res = cg_checkpointed(
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            1e-10,
            0.0,
            1000,
            &LocalReduce,
            &mut ck,
        );
        assert!(res.converged);
        let seen = seen.borrow();
        assert!(seen.len() >= 2, "snapshots: {seen:?}");
        assert!(seen.iter().all(|i| i % 4 == 0));
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "monotonic: {seen:?}");
    }

    #[test]
    fn checkpointed_bicgstab_is_bitwise_identical() {
        let a = advdiff_1d(120);
        let b: Vec<f64> = (0..120).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x_plain = vec![0.0; 120];
        let res_plain = bicgstab(&a, &b, &mut x_plain, &IdentityPrecond, 1e-10, 0.0, 2000);
        let mut ck = Checkpointer::new(5);
        let mut x_ck = vec![0.0; 120];
        let res_ck = bicgstab_checkpointed(
            &a,
            &b,
            &mut x_ck,
            &IdentityPrecond,
            1e-10,
            0.0,
            2000,
            &LocalReduce,
            &mut ck,
        );
        assert_eq!(res_plain.iterations, res_ck.iterations);
        assert_eq!(res_plain.residual.to_bits(), res_ck.residual.to_bits());
        for (p, f) in x_plain.iter().zip(&x_ck) {
            assert_eq!(p.to_bits(), f.to_bits());
        }
        let ckpt = ck.latest().expect("bicgstab checkpointed");
        assert_eq!(ckpt.method, "bicgstab");
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
        let res = cg(&op, &b, &mut x, &IdentityPrecond, 1e-12, 0.0, 10);
        assert!(res.converged);
        for (xi, want) in x.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((xi - want).abs() < 1e-10);
        }
    }
}
