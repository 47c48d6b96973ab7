//! Linear-algebra substrate: the role PETSc plays in the paper.
//!
//! The paper solves its systems with PETSc (`-ksp_type bcgs`,
//! `-pc_type asm`) and estimates Table 1's condition numbers with Matlab's
//! `condest`. This crate provides the same capabilities natively:
//!
//! * [`DenseMatrix`] with partial-pivot LU — elemental matrices and exact
//!   small-system work (Table 1's 1089-DOF systems). The additive-Schwarz
//!   blocks run the same factorization and keep only the non-zeros of the
//!   factors, as PETSc's sparse sub-solves do.
//! * [`CsrMatrix`] built from `(row, col, val)` triplets with duplicate
//!   *addition* — exactly the PETSc `ADD_VALUES` contract the traversal
//!   assembly of §3.6 relies on.
//! * Krylov solvers over an abstract [`LinOp`], one entry per method, each
//!   configured by one [`SolveOpts`] (tolerances, iteration cap, reduction
//!   backend, scratch pool, checkpointer): [`cg`], [`block_cg`] (k
//!   right-hand sides with fused reductions; `cg` is its one-lane case) and
//!   [`bicgstab`] (the paper's `bcgs`), with Jacobi and overlapping
//!   Additive-Schwarz preconditioners.
//! * [`condest()`](condest::condest): the Hager–Higham 1-norm condition
//!   estimator (what Matlab's `condest` computes).

pub mod block;
pub mod condest;
pub mod csr;
pub mod dense;
pub mod krylov;
pub mod vector;

pub use block::block_cg;
pub use condest::condest;
pub use csr::{CooBuilder, CsrMatrix};
pub use dense::{DenseMatrix, LuFactors};
pub use krylov::{
    bicgstab, cg, cg_with, AsmPrecond, Checkpointer, IdentityPrecond, JacobiPrecond, KrylovResult,
    KrylovScratch, LinOp, LocalReduce, Precond, Reduce, SolveCheckpoint, SolveOpts,
};
