//! Linear-algebra substrate: the role PETSc plays in the paper.
//!
//! The paper solves its systems with PETSc (`-ksp_type bcgs`,
//! `-pc_type asm`, `NEWTONLS`, and Matlab's `condest` for Table 1). This
//! crate provides the same capabilities natively:
//!
//! * [`DenseMatrix`] with partial-pivot LU — elemental matrices and exact
//!   small-system work (Table 1's 1089-DOF systems). The additive-Schwarz
//!   blocks run the same factorization and keep only the non-zeros of the
//!   factors, as PETSc's sparse sub-solves do.
//! * [`CsrMatrix`] built from `(row, col, val)` triplets with duplicate
//!   *addition* — exactly the PETSc `ADD_VALUES` contract the traversal
//!   assembly of §3.6 relies on.
//! * Krylov solvers over an abstract [`LinOp`]: [`cg`] and [`bicgstab`]
//!   (the paper's `bcgs`), with Jacobi and overlapping Additive-Schwarz
//!   preconditioners.
//! * [`condest()`](condest::condest): the Hager–Higham 1-norm condition estimator (what Matlab's
//!   `condest` computes).
//! * [`newton()`](newton::newton): Newton with backtracking line search (PETSc `NEWTONLS`).

pub mod block;
pub mod condest;
pub mod csr;
pub mod dense;
pub mod gmres;
pub mod krylov;
pub mod newton;
pub mod vector;

pub use block::{block_cg_scratch, block_cg_with};
pub use condest::condest;
pub use csr::{CooBuilder, CsrMatrix};
pub use dense::{DenseMatrix, LuFactors};
pub use gmres::{chebyshev, gmres, lambda_max_estimate};
pub use krylov::{
    bicgstab, bicgstab_checkpointed, bicgstab_with, cg, cg_checkpointed, cg_with, cg_with_scratch,
    default_ckpt_every, AsmPrecond, Checkpointer, IdentityPrecond, JacobiPrecond, KrylovResult,
    KrylovScratch, LinOp, LocalReduce, Precond, Reduce, SolveCheckpoint, CKPT_EVERY_ENV,
};
pub use newton::{newton, NewtonOptions, NewtonResult};
