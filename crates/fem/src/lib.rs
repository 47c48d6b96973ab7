//! Finite-element layer: Lagrange bases, Gauss quadrature, elemental
//! operators for the Poisson/mass/advection–diffusion problems, the Shifted
//! Boundary Method (SBM) of §4.3, Dirichlet handling, error norms, and FLOP
//! accounting for the roofline study (Fig. 12).
//!
//! Elements are axis-aligned cubes (the whole point of carving instead of
//! stretching), so the reference-to-physical map is a uniform scaling by the
//! element side `h`: stiffness scales as `h^{d-2}`, mass as `h^d`, and one
//! reference matrix per (dimension, order) serves every element of a given
//! level — the per-level elemental cache the scaling benchmarks rely on.

pub mod basis;
pub mod error;
pub mod estimator;
pub mod fieldeval;
pub mod flops;
pub mod multigrid;
pub mod poisson;
pub mod sbm;
pub mod serve;
pub mod solver;
pub mod transient;

pub use basis::{gauss_rule, lagrange_deriv_unit, lagrange_eval_unit, Quadrature};
pub use error::{l2_linf_error, ErrorNorms};
pub use estimator::{elem_values_dist, energy_error_indicators, mark_max_strategy};
pub use fieldeval::{candidate_bins, eval_field_lattice, FieldView, NudgePolicy};
pub use flops::FlopCount;
pub use multigrid::{build_transfer, mg_pcg, Multigrid, Transfer};
pub use poisson::{
    load_vector, mass_matrix, stiffness_matrix, ElementCache, HeatKernel, LevelScales, MassKernel,
    StiffnessKernel, StiffnessMatrixKernel,
};
pub use sbm::{sbm_face_terms, surrogate_faces, SbmParams, SurrogateFace};
pub use serve::{
    coord_field, geometry_hash, CacheStats, ScenarioCache, ScenarioEntry, ScenarioSpec, ServedField,
};
pub use solver::{
    solve_poisson, solve_poisson_supervised, AttemptReport, BcMode, EscalatedSolver,
    PoissonProblem, PoissonSolution, RankDiagnostic, SolveFailed, SupervisedSolve, Supervisor,
};
pub use transient::{run_transient, AdaptiveTimeStepper, TransientConfig, TransientResult};
