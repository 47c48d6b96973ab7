//! Poisson solve driver on carved meshes: traversal assembly, boundary
//! treatment (naive nodal Dirichlet vs SBM), Krylov solve, error norms —
//! plus the solve [`Supervisor`], the escalation policy that turns a
//! non-converging Krylov iteration into a recovered solve (restart from
//! checkpoint → BiCGStab → tightened multigrid) or a structured
//! [`SolveFailed`] report.

use crate::poisson::{load_vector, StiffnessMatrixKernel};
use crate::sbm::{sbm_face_terms, surrogate_faces, SbmParams};
use carve_core::{
    resolve_slot, traversal_assemble_par, AssemblyKernel, Mesh, SlotRef, TraversalWorkspace,
};
use carve_geom::Subdomain;
use carve_la::{
    bicgstab, cg, AsmPrecond, Checkpointer, CooBuilder, CsrMatrix, DenseMatrix, JacobiPrecond,
    KrylovResult, LinOp, Precond, SolveCheckpoint, SolveOpts,
};
use carve_sfc::Octant;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Per-element SBM face contributions, keyed by the octant itself so the
/// assembly kernel looks them up by value — no per-leaf `binary_search_by`
/// over the element array.
type FaceMats<const DIM: usize> = HashMap<Octant<DIM>, (DenseMatrix, Vec<f64>)>;

/// Assembly kernel for the Poisson system: the per-level stiffness matrix
/// (shared across same-level leaves via [`StiffnessMatrixKernel`]) plus the
/// element's precomputed SBM face matrix when it has one. `matrix` lends
/// the traversal a borrow — of the level matrix directly, or of a scratch
/// sum for the few boundary elements with face terms — so no path clones.
struct PoissonAssemblyKernel<'a, const DIM: usize> {
    levels: StiffnessMatrixKernel<DIM>,
    faces: &'a FaceMats<DIM>,
    combined: DenseMatrix,
}

impl<'a, const DIM: usize> PoissonAssemblyKernel<'a, DIM> {
    fn new(p: usize, scale: f64, faces: &'a FaceMats<DIM>) -> Self {
        let npe = crate::poisson::npe::<DIM>(p);
        Self {
            levels: StiffnessMatrixKernel::new(p, scale),
            faces,
            combined: DenseMatrix::zeros(npe, npe),
        }
    }
}

impl<const DIM: usize> AssemblyKernel<DIM> for PoissonAssemblyKernel<'_, DIM> {
    fn matrix(&mut self, e: &Octant<DIM>) -> Cow<'_, DenseMatrix> {
        let Some((fa, _)) = self.faces.get(e) else {
            return self.levels.matrix(e);
        };
        self.combined.clone_from(self.levels.level_matrix(e.level));
        for (x, y) in self.combined.data.iter_mut().zip(&fa.data) {
            *x += y;
        }
        Cow::Borrowed(&self.combined)
    }
}

/// How Dirichlet data is imposed on the carved (voxelated) boundary.
#[derive(Clone, Copy, Debug)]
pub enum BcMode {
    /// Impose `u = u_D` strongly at the voxel-boundary nodes: the right
    /// condition at the wrong place, first-order accurate (Fig. 6, "naive").
    Naive,
    /// Shifted Boundary Method: weak conditions on Γ̃ shifted to Γ —
    /// recovers second order for linear elements.
    Sbm(SbmParams),
}

/// Closest-point map onto the true boundary Γ (physical coordinates).
pub type ClosestBoundaryMap<'a, const DIM: usize> = &'a dyn Fn(&[f64; DIM]) -> [f64; DIM];

/// Problem data; positions are unit-cube coordinates × `scale`.
pub struct PoissonProblem<'a, const DIM: usize> {
    /// Physical size of the root cube.
    pub scale: f64,
    /// Source term.
    pub f: &'a dyn Fn(&[f64; DIM]) -> f64,
    /// Dirichlet data (extended off Γ for the naive mode; evaluated on Γ
    /// through the closest-point map for SBM).
    pub dirichlet: &'a dyn Fn(&[f64; DIM]) -> f64,
    /// Closest point on the true boundary Γ (physical coordinates); only
    /// required for SBM.
    pub closest_boundary: Option<ClosestBoundaryMap<'a, DIM>>,
    /// Impose `dirichlet` strongly at root-cube boundary nodes.
    pub strong_cube_bc: bool,
    pub bc: BcMode,
}

/// Solution + solver report.
pub struct PoissonSolution {
    pub u: Vec<f64>,
    pub krylov: KrylovResult,
    pub nnz: usize,
}

/// Assembles the constrained linear system for `−Δu = f` on the carved
/// mesh: traversal-assembled stiffness (+ SBM face terms), volume + face
/// loads, strong Dirichlet rows. Shared by [`solve_poisson`] and
/// [`solve_poisson_supervised`].
fn assemble_poisson_system<const DIM: usize>(
    mesh: &Mesh<DIM>,
    prob: &PoissonProblem<DIM>,
) -> (CsrMatrix, Vec<f64>) {
    let n = mesh.num_dofs();
    let p = mesh.order as usize;
    let scale = prob.scale;

    // Precompute SBM face contributions per element, keyed by octant.
    let mut face_mats: FaceMats<DIM> = HashMap::new();
    if let BcMode::Sbm(params) = prob.bc {
        let map = prob
            .closest_boundary
            .expect("SBM requires the closest-boundary map");
        for f in surrogate_faces(mesh, !prob.strong_cube_bc) {
            let e = &mesh.elems[f.elem];
            let (emin_u, h_u) = e.bounds_unit();
            let mut emin = [0.0; DIM];
            for k in 0..DIM {
                emin[k] = emin_u[k] * scale;
            }
            let h = h_u * scale;
            let (a, b) = sbm_face_terms::<DIM>(
                p,
                &emin,
                h,
                (f.axis, f.positive),
                &params,
                map,
                prob.dirichlet,
            );
            match face_mats.entry(*e) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let (am, bm) = o.get_mut();
                    for (x, y) in am.data.iter_mut().zip(&a.data) {
                        *x += y;
                    }
                    for (x, y) in bm.iter_mut().zip(&b) {
                        *x += y;
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((a, b));
                }
            }
        }
    }

    // Assemble the matrix via traversal (§3.6), fork-joined across the
    // intra-rank thread budget; the triplet buffer is pre-sized to the
    // exact `leaves × npe²` emission count.
    let npe_a = carve_core::nodes::nodes_per_elem::<DIM>(mesh.order);
    let mut coo = CooBuilder::with_capacity(n, mesh.elems.len() * npe_a * npe_a);
    let ids: Vec<u32> = (0..n as u32).collect();
    let face_ref = &face_mats;
    let make_kernel = || PoissonAssemblyKernel::<DIM>::new(p, scale, face_ref);
    let mut ws = TraversalWorkspace::new();
    traversal_assemble_par(
        &mesh.elems,
        0..mesh.elems.len(),
        mesh.curve,
        &mesh.nodes,
        &ids,
        &mut coo,
        &mut ws,
        &make_kernel,
    );

    // Right-hand side: volume load + SBM face loads, scattered through
    // hanging stencils.
    let mut rhs = vec![0.0; n];
    let npe = carve_core::nodes::nodes_per_elem::<DIM>(mesh.order);
    for e in mesh.elems.iter() {
        let (emin_u, h_u) = e.bounds_unit();
        let mut emin = [0.0; DIM];
        for k in 0..DIM {
            emin[k] = emin_u[k] * scale;
        }
        let h = h_u * scale;
        let mut local = load_vector::<DIM>(p, &emin, h, prob.f, p + 2);
        if let Some((_, fb)) = face_mats.get(e) {
            for (x, y) in local.iter_mut().zip(fb) {
                *x += y;
            }
        }
        for (lin, &lv) in local.iter().enumerate().take(npe) {
            let idx = carve_core::nodes::lattice_index::<DIM>(lin, mesh.order);
            let c = carve_core::nodes::elem_node_coord(e, mesh.order, &idx);
            match resolve_slot(&mesh.nodes, e, &c) {
                SlotRef::Direct(i) => rhs[i] += lv,
                SlotRef::Hanging(st) => {
                    for (i, w) in st {
                        rhs[i] += w * lv;
                    }
                }
            }
        }
    }

    let mut a = coo.build();

    // Strong Dirichlet rows.
    let mut constrained = vec![false; n];
    for (i, ci) in constrained.iter_mut().enumerate() {
        let fl = mesh.nodes.flags[i];
        let naive = matches!(prob.bc, BcMode::Naive);
        if (naive && fl.is_carved_boundary()) || (prob.strong_cube_bc && fl.is_cube_boundary()) {
            *ci = true;
        }
    }
    for i in 0..n {
        if constrained[i] {
            // Zero the row, unit diagonal.
            let (lo, hi) = (a.row_ptr[i], a.row_ptr[i + 1]);
            let mut has_diag = false;
            for k in lo..hi {
                if a.cols[k] as usize == i {
                    a.vals[k] = 1.0;
                    has_diag = true;
                } else {
                    a.vals[k] = 0.0;
                }
            }
            assert!(has_diag, "constrained node {i} missing diagonal");
            let xu = mesh.nodes.unit_coords(i);
            let mut xp = [0.0; DIM];
            for k in 0..DIM {
                xp[k] = xu[k] * scale;
            }
            rhs[i] = (prob.dirichlet)(&xp);
        }
    }

    (a, rhs)
}

/// The default preconditioner ladder rung: additive Schwarz past ~2k DOFs,
/// Jacobi below (block setup costs more than it saves on small systems).
///
/// Call it inside the `krylov` scope: the Schwarz set-up then reports as
/// `krylov/asm_setup`, with the entries its block factors store
/// (`asm_nnz`) next to what dense factors would (`asm_dense_entries`).
fn default_precond(a: &CsrMatrix) -> Box<dyn Precond> {
    let n = a.n;
    if n > 2000 {
        let _obs = carve_obs::scope("asm_setup");
        let asm = AsmPrecond::new(a, (n / 400).max(2), 8);
        carve_obs::counter("asm_blocks", asm.num_blocks() as u64);
        carve_obs::counter("asm_nnz", asm.stored_entries() as u64);
        carve_obs::counter("asm_dense_entries", asm.dense_entries() as u64);
        Box::new(asm)
    } else {
        Box::new(JacobiPrecond::from_matrix(a))
    }
}

/// The assembled system contains a NaN/Inf (bad boundary data, degenerate
/// SBM map): every Krylov iterate would be poisoned.
fn system_is_poisoned(a: &CsrMatrix, rhs: &[f64]) -> bool {
    !rhs.iter().all(|v| v.is_finite()) || !a.vals.iter().all(|v| v.is_finite())
}

/// Assembles and solves `−Δu = f` on the carved mesh.
pub fn solve_poisson<const DIM: usize>(
    mesh: &Mesh<DIM>,
    domain: &dyn Subdomain<DIM>,
    prob: &PoissonProblem<DIM>,
) -> PoissonSolution {
    let n = mesh.num_dofs();
    let (a, rhs) = assemble_poisson_system(mesh, prob);

    // Divergence guard: bail out with a structured `diverged` report
    // instead of burning 50k iterations on NaN.
    if system_is_poisoned(&a, &rhs) {
        return PoissonSolution {
            u: vec![0.0; n],
            krylov: KrylovResult::divergence(0, f64::NAN),
            nnz: a.nnz(),
        };
    }

    // The paper's solver configuration: BiCGStab with additive Schwarz.
    let mut u = vec![0.0; n];
    let obs_krylov = carve_obs::scope("krylov");
    let pre = default_precond(&a);
    let opts = SolveOpts::new(1e-12, 1e-14, 50_000);
    let krylov = bicgstab(&a, &rhs, &mut u, &pre.as_ref(), opts);
    carve_obs::counter("iterations", krylov.iterations as u64);
    drop(obs_krylov);
    let _ = domain;
    PoissonSolution {
        u,
        krylov,
        nnz: a.nnz(),
    }
}

/// A stronger solver the [`Supervisor`] can escalate to after the Krylov
/// ladder (CG → checkpoint-restarted CG → BiCGStab) has failed.
/// [`crate::multigrid::Multigrid`] implements it by doubling its smoothing
/// sweeps and re-solving with V-cycle-preconditioned CG.
pub trait EscalatedSolver {
    /// Strengthen the solver before the escalated attempt (e.g. tighten
    /// multigrid smoothing). Called exactly once, before `solve_escalated`.
    fn tighten(&mut self);
    /// Solve `A x = b` starting from the supplied iterate.
    fn solve_escalated(&self, b: &[f64], x: &mut [f64], rtol: f64, max_iter: usize)
        -> KrylovResult;
}

/// One rung of the supervisor's ladder, as attempted.
#[derive(Clone, Copy, Debug)]
pub struct AttemptReport {
    /// `"cg"`, `"cg_restart"`, `"bicgstab"`, or `"mg_tightened"`.
    pub stage: &'static str,
    pub iterations: usize,
    pub residual: f64,
    pub last_finite_residual: Option<f64>,
    pub converged: bool,
    pub diverged: bool,
}

impl AttemptReport {
    fn from_result(stage: &'static str, k: &KrylovResult) -> Self {
        AttemptReport {
            stage,
            iterations: k.iterations,
            residual: k.residual,
            last_finite_residual: k.last_finite_residual,
            converged: k.converged,
            diverged: k.diverged,
        }
    }
}

/// Per-rank state at the point the supervisor gave up. A sequential solve
/// reports a single rank 0; distributed callers push one entry per rank.
#[derive(Clone, Debug)]
pub struct RankDiagnostic {
    pub rank: usize,
    /// Final residual norm on this rank (may be non-finite for a diverged
    /// iteration — `last_finite_residual` keeps the usable magnitude).
    pub residual: f64,
    pub last_finite_residual: Option<f64>,
    /// Iteration of the newest checkpoint this rank holds, if any.
    pub checkpoint_iteration: Option<usize>,
}

/// Structured failure report: every rung of the escalation ladder that was
/// attempted, plus per-rank diagnostics for postmortems.
#[derive(Clone, Debug)]
pub struct SolveFailed {
    pub attempts: Vec<AttemptReport>,
    pub ranks: Vec<RankDiagnostic>,
}

impl fmt::Display for SolveFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "solve failed after {} attempt(s):", self.attempts.len())?;
        for a in &self.attempts {
            writeln!(
                f,
                "  {:>12}: {} iteration(s), residual {:e}{}",
                a.stage,
                a.iterations,
                a.residual,
                if a.diverged { " (diverged)" } else { "" }
            )?;
        }
        for r in &self.ranks {
            writeln!(
                f,
                "  rank {}: residual {:e}, last finite {:?}, checkpoint at {:?}",
                r.rank, r.residual, r.last_finite_residual, r.checkpoint_iteration
            )?;
        }
        Ok(())
    }
}

/// A recovered (or first-try) solve, with the trail of attempts.
#[derive(Debug)]
pub struct SupervisedSolve {
    pub krylov: KrylovResult,
    pub attempts: Vec<AttemptReport>,
    /// `true` when any rung past the first was needed.
    pub recovered: bool,
}

/// The solve supervisor: wraps a Krylov solve in a checkpointed escalation
/// policy. The ladder, climbed only as far as needed:
///
/// 1. **`cg`** — preconditioned CG with periodic [`SolveCheckpoint`]
///    snapshots (every [`Supervisor::ckpt_every`] iterations, 25 by
///    default).
/// 2. **`cg_restart`** — restore the iterate from the newest checkpoint and
///    restart CG with a fresh Krylov space (recovers from stalls and from
///    divergence whose damage postdates the snapshot).
/// 3. **`bicgstab`** — switch methods from the restored iterate: handles
///    the mildly-nonsymmetric systems (SBM face terms) CG cannot.
/// 4. **`mg_tightened`** — if an [`EscalatedSolver`] is supplied, tighten
///    its smoothing and re-solve from the restored iterate.
///
/// Every recovery action is scoped under the `recovery/{retry, escalate,
/// restore}` observability phases. A ladder that runs out of rungs returns
/// a [`SolveFailed`] report rather than a panic.
#[derive(Clone, Debug)]
pub struct Supervisor {
    pub rtol: f64,
    pub atol: f64,
    /// Per-rung iteration budget.
    pub max_iter: usize,
    /// Checkpoint cadence in iterations.
    pub ckpt_every: usize,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            rtol: 1e-12,
            atol: 1e-14,
            max_iter: 50_000,
            ckpt_every: 25,
        }
    }
}

/// Restores `x` from the newest checkpoint (or to zero when no snapshot was
/// taken yet — a diverged iterate must not leak into the next rung).
fn restore_iterate(x: &mut [f64], latest: Option<&SolveCheckpoint>) -> Option<usize> {
    let _restore = carve_obs::scope("restore");
    match latest {
        Some(snap) => {
            carve_obs::counter("checkpoint_restores", 1);
            x.copy_from_slice(&snap.x);
            Some(snap.iteration)
        }
        None => {
            x.iter_mut().for_each(|v| *v = 0.0);
            None
        }
    }
}

impl Supervisor {
    /// One Krylov rung: the supervisor's stopping rule, snapshots into `ck`.
    fn rung<'a, 'c>(&self, ck: &'a mut Checkpointer<'c>) -> SolveOpts<'a, 'c> {
        SolveOpts {
            checkpoint: Some(ck),
            ..SolveOpts::new(self.rtol, self.atol, self.max_iter)
        }
    }

    /// Restores `x` from the newest snapshot in `ck` and restarts `ck` at
    /// that snapshot's iteration count.
    fn resume(&self, x: &mut [f64], ck: &mut Checkpointer<'_>) {
        restore_iterate(x, ck.latest());
        if let Some(snap) = ck.latest().cloned() {
            *ck = Checkpointer::new(self.ckpt_every).resume_from(&snap);
        }
    }

    /// Climbs the escalation ladder for `A x = b`. On success returns the
    /// final Krylov report plus the attempt trail; when every rung fails,
    /// returns the structured [`SolveFailed`] report (boxed: it carries the
    /// full trail).
    pub fn solve(
        &self,
        op: &dyn LinOp,
        b: &[f64],
        x: &mut [f64],
        pre: &dyn Precond,
        mut escalate: Option<&mut dyn EscalatedSolver>,
    ) -> Result<SupervisedSolve, Box<SolveFailed>> {
        let mut attempts = Vec::new();

        // Rung 1: checkpointed CG.
        let mut ck = Checkpointer::new(self.ckpt_every);
        let k = cg(&op, b, x, &pre, self.rung(&mut ck));
        attempts.push(AttemptReport::from_result("cg", &k));
        if k.converged {
            return Ok(SupervisedSolve {
                krylov: k,
                attempts,
                recovered: false,
            });
        }

        let _recovery = carve_obs::scope("recovery");

        // Rung 2: restart CG from the newest checkpoint.
        let k = {
            self.resume(x, &mut ck);
            let _retry = carve_obs::scope("retry");
            carve_obs::counter("solve_restarts", 1);
            cg(&op, b, x, &pre, self.rung(&mut ck))
        };
        attempts.push(AttemptReport::from_result("cg_restart", &k));
        if k.converged {
            return Ok(SupervisedSolve {
                krylov: k,
                attempts,
                recovered: true,
            });
        }

        // Rung 3: change methods — BiCGStab from the restored iterate.
        let k = {
            self.resume(x, &mut ck);
            let _esc = carve_obs::scope("escalate");
            carve_obs::counter("solve_escalations", 1);
            bicgstab(&op, b, x, &pre, self.rung(&mut ck))
        };
        attempts.push(AttemptReport::from_result("bicgstab", &k));
        if k.converged {
            return Ok(SupervisedSolve {
                krylov: k,
                attempts,
                recovered: true,
            });
        }

        // Rung 4: tightened multigrid, when the caller supplied one.
        if let Some(mg) = escalate.take() {
            let k = {
                restore_iterate(x, ck.latest());
                let _esc = carve_obs::scope("escalate");
                carve_obs::counter("solve_escalations", 1);
                mg.tighten();
                mg.solve_escalated(b, x, self.rtol, self.max_iter)
            };
            attempts.push(AttemptReport::from_result("mg_tightened", &k));
            if k.converged {
                return Ok(SupervisedSolve {
                    krylov: k,
                    attempts,
                    recovered: true,
                });
            }
        }

        let last = attempts.last().expect("at least one attempt");
        Err(Box::new(SolveFailed {
            ranks: vec![RankDiagnostic {
                rank: 0,
                residual: last.residual,
                last_finite_residual: last.last_finite_residual,
                checkpoint_iteration: ck.latest().map(|s| s.iteration),
            }],
            attempts,
        }))
    }
}

/// A [`solve_poisson`] that climbs the supervisor's escalation ladder
/// instead of trusting a single Krylov configuration.
pub fn solve_poisson_supervised<const DIM: usize>(
    mesh: &Mesh<DIM>,
    domain: &dyn Subdomain<DIM>,
    prob: &PoissonProblem<DIM>,
    sup: &Supervisor,
) -> Result<(PoissonSolution, SupervisedSolve), Box<SolveFailed>> {
    let n = mesh.num_dofs();
    let (a, rhs) = assemble_poisson_system(mesh, prob);
    if system_is_poisoned(&a, &rhs) {
        let k = KrylovResult::divergence(0, f64::NAN);
        return Err(Box::new(SolveFailed {
            attempts: vec![AttemptReport::from_result("assembly", &k)],
            ranks: vec![RankDiagnostic {
                rank: 0,
                residual: f64::NAN,
                last_finite_residual: None,
                checkpoint_iteration: None,
            }],
        }));
    }
    let mut u = vec![0.0; n];
    let obs_krylov = carve_obs::scope("krylov");
    let pre = default_precond(&a);
    let out = sup.solve(&a, &rhs, &mut u, pre.as_ref(), None)?;
    carve_obs::counter("iterations", out.krylov.iterations as u64);
    drop(obs_krylov);
    let _ = domain;
    Ok((
        PoissonSolution {
            u,
            krylov: out.krylov,
            nnz: a.nnz(),
        },
        out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::l2_linf_error;
    use carve_geom::{FullDomain, RetainSolid, Solid, Sphere};
    use carve_sfc::Curve;
    use std::f64::consts::PI;

    #[test]
    fn manufactured_solution_unit_square_converges_second_order() {
        let exact = |x: &[f64; 2]| (PI * x[0]).sin() * (PI * x[1]).sin();
        let f = move |x: &[f64; 2]| 2.0 * PI * PI * (PI * x[0]).sin() * (PI * x[1]).sin();
        let zero = |_: &[f64; 2]| 0.0;
        let mut errs = Vec::new();
        for l in [3u8, 4, 5] {
            let mesh = Mesh::<2>::build(&FullDomain, Curve::Morton, l, l, 1);
            let prob = PoissonProblem {
                scale: 1.0,
                f: &f,
                dirichlet: &zero,
                closest_boundary: None,
                strong_cube_bc: true,
                bc: BcMode::Naive,
            };
            let sol = solve_poisson(&mesh, &FullDomain, &prob);
            assert!(sol.krylov.converged, "{:?}", sol.krylov);
            let norms = l2_linf_error(&mesh, &FullDomain, &sol.u, &exact, 1.0);
            errs.push(norms.l2);
        }
        let rate = (errs[1] / errs[2]).log2();
        assert!(rate > 1.8 && rate < 2.3, "rate {rate}, errs {errs:?}");
    }

    #[test]
    fn quadratic_elements_converge_third_order_l2() {
        let exact = |x: &[f64; 2]| (PI * x[0]).sin() * (PI * x[1]).sin();
        let f = move |x: &[f64; 2]| 2.0 * PI * PI * (PI * x[0]).sin() * (PI * x[1]).sin();
        let zero = |_: &[f64; 2]| 0.0;
        let mut errs = Vec::new();
        for l in [2u8, 3, 4] {
            let mesh = Mesh::<2>::build(&FullDomain, Curve::Morton, l, l, 2);
            let prob = PoissonProblem {
                scale: 1.0,
                f: &f,
                dirichlet: &zero,
                closest_boundary: None,
                strong_cube_bc: true,
                bc: BcMode::Naive,
            };
            let sol = solve_poisson(&mesh, &FullDomain, &prob);
            let norms = l2_linf_error(&mesh, &FullDomain, &sol.u, &exact, 1.0);
            errs.push(norms.l2);
        }
        let rate = (errs[1] / errs[2]).log2();
        assert!(rate > 2.7 && rate < 3.4, "rate {rate}, errs {errs:?}");
    }

    /// The Fig. 6 disk problem: −Δu = 1 on the disk R=0.5 at (0.5,0.5),
    /// u=0 on the circle; exact u = (R² − r²)/4.
    fn disk_errors(bc: BcMode, levels: &[u8]) -> Vec<f64> {
        let disk = Sphere::<2>::new([0.5, 0.5], 0.5);
        let domain = RetainSolid::new(disk);
        let one = |_: &[f64; 2]| 1.0;
        let zero = |_: &[f64; 2]| 0.0;
        let closest = move |x: &[f64; 2]| disk.closest_boundary_point(x);
        let exact = |x: &[f64; 2]| {
            let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
            0.25 * (0.25 - r2)
        };
        let mut out = Vec::new();
        for &l in levels {
            let mesh = Mesh::build(&domain, Curve::Morton, l, l, 1);
            let prob = PoissonProblem {
                scale: 1.0,
                f: &one,
                dirichlet: &zero,
                closest_boundary: Some(&closest),
                strong_cube_bc: false,
                bc,
            };
            let sol = solve_poisson(&mesh, &domain, &prob);
            assert!(sol.krylov.converged, "{:?}", sol.krylov);
            let norms = l2_linf_error(&mesh, &domain, &sol.u, &exact, 1.0);
            out.push(norms.l2);
        }
        out
    }

    #[test]
    fn nan_boundary_data_reports_divergence_not_hang() {
        // NaN Dirichlet data poisons the right-hand side; the solver must
        // return a structured diverged report instead of iterating on NaN.
        let f = |_: &[f64; 2]| 1.0;
        let bad = |_: &[f64; 2]| f64::NAN;
        let mesh = Mesh::<2>::build(&FullDomain, Curve::Morton, 3, 3, 1);
        let prob = PoissonProblem {
            scale: 1.0,
            f: &f,
            dirichlet: &bad,
            closest_boundary: None,
            strong_cube_bc: true,
            bc: BcMode::Naive,
        };
        let sol = solve_poisson(&mesh, &FullDomain, &prob);
        assert!(sol.krylov.diverged, "{:?}", sol.krylov);
        assert!(!sol.krylov.converged);
        assert_eq!(sol.krylov.iterations, 0, "guard must fire before iterating");
    }

    /// 1-D Laplacian as an assembled SPD test matrix.
    fn laplace_1d(n: usize) -> CsrMatrix {
        let mut coo = CooBuilder::with_capacity(n, 3 * n);
        for i in 0..n {
            coo.add(i, i, 2.0);
            if i > 0 {
                coo.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.add(i, i + 1, -1.0);
            }
        }
        coo.build()
    }

    #[test]
    fn supervisor_converges_first_try_on_easy_system() {
        let a = laplace_1d(40);
        let b = vec![1.0; 40];
        let mut x = vec![0.0; 40];
        let sup = Supervisor::default();
        let out = sup
            .solve(&a, &b, &mut x, &carve_la::IdentityPrecond, None)
            .expect("easy SPD system");
        assert!(out.krylov.converged);
        assert!(!out.recovered);
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.attempts[0].stage, "cg");
    }

    #[test]
    fn supervisor_ladder_reaches_escalated_solver_and_recovers() {
        // An iteration budget far too small for unpreconditioned CG on a
        // stiff system forces the whole Krylov ladder to fail; the supplied
        // escalated solver (a stand-in for tightened multigrid that solves
        // directly) then recovers the solve.
        struct DirectSolve {
            a: CsrMatrix,
            tightened: bool,
        }
        impl EscalatedSolver for DirectSolve {
            fn tighten(&mut self) {
                self.tightened = true;
            }
            fn solve_escalated(
                &self,
                b: &[f64],
                x: &mut [f64],
                rtol: f64,
                max_iter: usize,
            ) -> KrylovResult {
                assert!(self.tightened, "tighten() must precede the attempt");
                // A strong inner solver: plenty of CG iterations.
                let opts = SolveOpts::new(rtol, 1e-14, max_iter * 1000);
                cg(&self.a, b, x, &JacobiPrecond::from_matrix(&self.a), opts)
            }
        }

        let n = 120;
        let a = laplace_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut x = vec![0.0; n];
        let sup = Supervisor {
            rtol: 1e-12,
            atol: 1e-14,
            max_iter: 4,
            ckpt_every: 2,
        };
        let mut mg = DirectSolve {
            a: laplace_1d(n),
            tightened: false,
        };
        let out = sup
            .solve(&a, &b, &mut x, &carve_la::IdentityPrecond, Some(&mut mg))
            .expect("escalated solver must recover");
        assert!(out.recovered);
        assert!(out.krylov.converged);
        let stages: Vec<_> = out.attempts.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["cg", "cg_restart", "bicgstab", "mg_tightened"]);
        // Every Krylov rung genuinely failed before escalation.
        for a in &out.attempts[..3] {
            assert!(!a.converged, "{a:?}");
        }
        // The answer is right: residual check against the operator.
        let mut ax = vec![0.0; n];
        a.apply(&x, &mut ax);
        let res: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum();
        assert!(res.sqrt() < 1e-8, "residual {}", res.sqrt());
    }

    #[test]
    fn supervisor_reports_structured_failure_with_rank_diagnostics() {
        let n = 120;
        let a = laplace_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let sup = Supervisor {
            rtol: 1e-12,
            atol: 1e-14,
            max_iter: 4,
            ckpt_every: 2,
        };
        let err = sup
            .solve(&a, &b, &mut x, &carve_la::IdentityPrecond, None)
            .expect_err("budget too small — must fail");
        let stages: Vec<_> = err.attempts.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["cg", "cg_restart", "bicgstab"]);
        assert_eq!(err.ranks.len(), 1);
        let diag = &err.ranks[0];
        assert_eq!(diag.rank, 0);
        assert!(diag.residual.is_finite());
        assert_eq!(diag.last_finite_residual, Some(diag.residual));
        // Checkpoints were taken (cadence 2 < budget 4) and reported.
        let ckpt = diag.checkpoint_iteration.expect("checkpoint taken");
        assert!(
            ckpt > 0 && ckpt.is_multiple_of(2),
            "cadence-aligned, got {ckpt}"
        );
        // The Display form is a usable postmortem.
        let text = err.to_string();
        assert!(
            text.contains("cg_restart") && text.contains("rank 0"),
            "{text}"
        );
    }

    #[test]
    fn supervisor_escalates_to_real_tightened_multigrid() {
        // Unpreconditioned CG with a starved iteration budget cannot solve
        // the level-5 Poisson system; tightened MG-PCG (h-independent)
        // converges well inside the same budget.
        use crate::multigrid::Multigrid;
        use carve_geom::FullDomain;

        let constrain = |fl: carve_core::NodeFlags| fl.is_any_boundary();
        let mg = Multigrid::<2>::new(&FullDomain, 5, 5, 2, 1, 1.0, &constrain);
        let (nu_pre0, nu_post0) = (mg.nu_pre, mg.nu_post);
        let n = mg.finest().num_dofs();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                if mg.finest().nodes.flags[i].is_any_boundary() {
                    0.0
                } else {
                    (i as f64 * 0.23).sin()
                }
            })
            .collect();
        let op = {
            struct FinestOp<'a>(&'a Multigrid<2>, usize);
            impl carve_la::LinOp for FinestOp<'_> {
                fn size(&self) -> usize {
                    self.1
                }
                fn apply(&self, x: &[f64], y: &mut [f64]) {
                    self.0.apply_finest(x, y);
                }
            }
            FinestOp(&mg, n)
        };
        let sup = Supervisor {
            rtol: 1e-10,
            atol: 1e-14,
            max_iter: 30,
            ckpt_every: 10,
        };
        let mut x = vec![0.0; n];
        // Safety: `op` borrows `mg` immutably while the ladder also needs
        // `&mut mg` — clone the operator's data path instead: multigrid's
        // finest apply is reentrant, but the borrow checker can't see that.
        // So run the ladder against a second, identical hierarchy.
        let mut mg2 = Multigrid::<2>::new(&FullDomain, 5, 5, 2, 1, 1.0, &constrain);
        let out = sup
            .solve(&op, &b, &mut x, &carve_la::IdentityPrecond, Some(&mut mg2))
            .expect("tightened multigrid must recover");
        assert!(out.recovered);
        assert_eq!(out.attempts.last().unwrap().stage, "mg_tightened");
        assert!(out.krylov.converged, "{:?}", out.krylov);
        // Smoothing was actually tightened.
        assert_eq!(mg2.nu_pre, 2 * nu_pre0);
        assert_eq!(mg2.nu_post, 2 * nu_post0);
        // And the recovered answer satisfies the finest-level system.
        let mut ax = vec![0.0; n];
        mg.apply_finest(&x, &mut ax);
        let rn: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rn <= 1e-8 * bn, "residual {rn} vs rhs {bn}");
    }

    #[test]
    fn supervised_poisson_matches_plain_solver() {
        let f = |x: &[f64; 2]| 2.0 * PI * PI * (PI * x[0]).sin() * (PI * x[1]).sin();
        let zero = |_: &[f64; 2]| 0.0;
        let mesh = Mesh::<2>::build(&FullDomain, Curve::Morton, 4, 4, 1);
        let prob = PoissonProblem {
            scale: 1.0,
            f: &f,
            dirichlet: &zero,
            closest_boundary: None,
            strong_cube_bc: true,
            bc: BcMode::Naive,
        };
        let plain = solve_poisson(&mesh, &FullDomain, &prob);
        let (sup_sol, trail) =
            solve_poisson_supervised(&mesh, &FullDomain, &prob, &Supervisor::default())
                .expect("supervised solve");
        assert!(sup_sol.krylov.converged);
        assert!(!trail.recovered, "SPD system must not need the ladder");
        assert_eq!(sup_sol.nnz, plain.nnz);
        let scale = plain.u.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        for (a, b) in sup_sol.u.iter().zip(&plain.u) {
            assert!((a - b).abs() < 1e-9 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn disk_naive_bc_is_first_order() {
        let errs = disk_errors(BcMode::Naive, &[4, 5, 6]);
        let rate = (errs[1] / errs[2]).log2();
        assert!(
            rate < 1.6,
            "naive should be ~1st order, got {rate} ({errs:?})"
        );
    }

    #[test]
    fn disk_sbm_recovers_second_order() {
        let errs = disk_errors(BcMode::Sbm(SbmParams::default()), &[4, 5, 6]);
        let rate = (errs[1] / errs[2]).log2();
        assert!(
            rate > 1.6,
            "SBM should be ~2nd order, got {rate} ({errs:?})"
        );
        // And SBM beats naive in absolute error at the finest level.
        let naive = disk_errors(BcMode::Naive, &[6]);
        assert!(errs[2] < naive[0], "sbm {} vs naive {}", errs[2], naive[0]);
    }
}
