//! The adaptive time stepper: backward-Euler heat (mass + dt·stiffness) on
//! a dynamically adapting distributed mesh.
//!
//! Each step solves `(M + dt·K) uⁿ⁺¹ = M uⁿ` with homogeneous Dirichlet
//! conditions on the carved and cube boundaries, via distributed CG over
//! the overlapped traversal MATVEC. Every `adapt_every` steps the
//! energy-seminorm estimator marks elements, [`DistMesh::adapt`] carries
//! the mesh through refine → rebalance → repartition → finish, and the
//! field is transferred onto the new mesh by FE interpolation from the old
//! one (prolongation onto refined children, restriction-by-interpolation
//! onto merged parents).
//!
//! **Field transfer across ranks.** Each new node is first evaluated
//! against the *old* mesh's locally-owned leaves (the interpolation recipe
//! of `build_transfer`, which handles hanging slots). Nodes whose old
//! covering leaf lives on another rank — migration and refinement move the
//! partition surface — ride one `all_to_allv` round to the candidate
//! owners (the splitter bins of the node's up-to-`2^DIM` adjacent cells
//! under the *old* splitters); the lowest-ranked rank that can evaluate
//! wins, deterministically. A node not evaluable anywhere lies in region
//! the old mesh did not cover (coarsening near the carved boundary can
//! recover area the finer staircase had pruned) and starts at zero.
//!
//! Every operation is either rank-sequential arithmetic or a deterministic
//! collective, so the recorded [`AdaptTrace`] — element counts, DOF
//! counts, and order-fixed FNV hashes of the global leaf set and solution
//! bits — is bitwise identical across `CARVE_PAR_THREADS` settings and
//! chaos schedules. The CI adapt-determinism stage diffs exactly this
//! serialized trace.

use crate::estimator::{energy_error_indicators, mark_max_strategy};
use crate::fieldeval::{candidate_bins, eval_field_lattice, FieldView, NudgePolicy};
use crate::poisson::{ElementCache, HeatKernel, MassKernel};
use carve_comm::{Comm, ReduceOp};
use carve_core::{AdaptParams, DistMesh, GhostState, NodeSet, TraversalWorkspace};
use carve_geom::Subdomain;
use carve_io::{AdaptCycleRecord, AdaptTrace};
use carve_la::{cg, IdentityPrecond, SolveOpts};
use carve_sfc::{Curve, Octant};
use std::cell::RefCell;
use std::ops::Range;

/// Configuration of an adaptive transient run.
#[derive(Clone, Copy, Debug)]
pub struct TransientConfig {
    pub curve: Curve,
    /// Polynomial order (1 or 2, like the rest of the stack).
    pub order: u64,
    /// Initial mesh: uniform base + boundary refinement.
    pub base_level: u8,
    pub boundary_level: u8,
    /// Backward-Euler step size.
    pub dt: f64,
    /// Number of time steps.
    pub steps: u64,
    /// Adapt every this many steps (0 disables adaptation).
    pub adapt_every: u64,
    /// Maximum-strategy thresholds (fractions of the global max indicator).
    pub theta_refine: f64,
    pub theta_coarsen: f64,
    /// Level corridor for the adapt cycle.
    pub max_level: u8,
    pub min_level: u8,
    /// Repartition when `load_imbalance` exceeds this.
    pub repart_tol: f64,
    /// Physical side length of the unit cube.
    pub scale: f64,
    pub cg_rtol: f64,
    pub cg_maxit: usize,
    /// Traversal threads; 0 reads `CARVE_PAR_THREADS` from the environment.
    pub threads: usize,
}

impl Default for TransientConfig {
    fn default() -> Self {
        TransientConfig {
            curve: Curve::Hilbert,
            order: 1,
            base_level: 3,
            boundary_level: 5,
            dt: 1e-3,
            steps: 6,
            adapt_every: 2,
            theta_refine: 0.3,
            theta_coarsen: 0.05,
            max_level: 7,
            min_level: 2,
            repart_tol: 1.25,
            scale: 1.0,
            cg_rtol: 1e-10,
            cg_maxit: 2000,
            threads: 0,
        }
    }
}

/// What a transient run produced on this rank.
pub struct TransientResult {
    /// The per-cycle adapt record (identical on every rank).
    pub trace: AdaptTrace,
    pub steps_done: u64,
    /// Global DOF count of the final mesh.
    pub dofs_final: u64,
    /// Final nodal field on this rank's mesh (ghost-consistent).
    pub u: Vec<f64>,
}

/// The adaptive time stepper of the dynamic-AMR loop: a configured
/// transient driver. Thin, reusable handle over [`run_transient`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveTimeStepper {
    pub cfg: TransientConfig,
}

impl AdaptiveTimeStepper {
    pub fn new(cfg: TransientConfig) -> Self {
        AdaptiveTimeStepper { cfg }
    }

    /// Runs the configured transient problem on `domain` from the initial
    /// condition `init` (unit-cube coordinates).
    pub fn run<const DIM: usize>(
        &self,
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        init: &dyn Fn(&[f64; DIM]) -> f64,
    ) -> TransientResult {
        run_transient(comm, domain, &self.cfg, init)
    }
}

/// Snapshot of the mesh a field lived on, kept alive across an adapt step
/// so the field can be interpolated onto the successor mesh.
struct OldMesh<const DIM: usize> {
    curve: Curve,
    elems: Vec<Octant<DIM>>,
    owned: Range<usize>,
    nodes: NodeSet<DIM>,
    splitters: Vec<Option<Octant<DIM>>>,
    u: Vec<f64>,
}

impl<const DIM: usize> OldMesh<DIM> {
    fn view(&self) -> FieldView<'_, DIM> {
        FieldView {
            curve: self.curve,
            elems: &self.elems,
            owned: self.owned.clone(),
            nodes: &self.nodes,
            u: &self.u,
        }
    }
}

/// Evaluates the old FE field at nodal-lattice coordinate `coord`, using
/// only this rank's *owned* old leaves (their stencil closures are fully
/// resolvable in the local node set). `None`: the covering leaf is remote
/// or the point was not covered at all. Nodal lattice coordinates are exact
/// in `f64`, so routing through [`eval_field_lattice`] is bitwise identical
/// to the historical integer path (the adapt-determinism stage pins this).
fn eval_old<const DIM: usize>(old: &OldMesh<DIM>, coord: &[u64; DIM]) -> Option<f64> {
    let mut latt = [0.0f64; DIM];
    for k in 0..DIM {
        latt[k] = coord[k] as f64;
    }
    eval_field_lattice(&old.view(), &latt, NudgePolicy::AnyAxis)
}

/// Interpolates the old field onto the new mesh's nodes: local evaluation
/// where the old covering leaf is owned here, one collective fallback round
/// for partition-surface nodes. Deterministic: candidate ranks are probed
/// in ascending order and the lowest rank that evaluates wins.
fn transfer_field<const DIM: usize>(
    comm: &Comm,
    old: &OldMesh<DIM>,
    dm: &DistMesh<DIM>,
) -> Vec<f64> {
    let pnum = comm.size();
    let my = comm.rank();
    let p = dm.order;
    let mut u = vec![0.0; dm.nodes.len()];
    let mut unresolved: Vec<usize> = Vec::new();
    for (i, coord) in dm.nodes.coords.iter().enumerate() {
        match eval_old(old, coord) {
            Some(v) => u[i] = v,
            None => unresolved.push(i),
        }
    }
    // Fallback round: ask the ranks whose old splitter intervals contain
    // any cell adjacent to the node. The owner of the old covering leaf is
    // always among them (a leaf's descendant keys bin to its owner).
    let mut requests: Vec<Vec<[u64; DIM]>> = (0..pnum).map(|_| Vec::new()).collect();
    let mut node_bins: Vec<Vec<usize>> = Vec::with_capacity(unresolved.len());
    for &i in &unresolved {
        let coord = dm.nodes.coords[i];
        let mut latt = [0.0f64; DIM];
        for k in 0..DIM {
            latt[k] = coord[k] as f64;
        }
        let bins = candidate_bins(&old.splitters, old.curve, p, &latt, NudgePolicy::AnyAxis);
        for &b in &bins {
            if b != my {
                requests[b].push(coord);
            }
        }
        node_bins.push(bins);
    }
    let incoming = comm.all_to_allv(requests);
    let replies: Vec<Vec<(bool, f64)>> = incoming
        .iter()
        .map(|cs| {
            cs.iter()
                .map(|c| match eval_old(old, c) {
                    Some(v) => (true, v),
                    None => (false, 0.0),
                })
                .collect()
        })
        .collect();
    let reply_in = comm.all_to_allv(replies);
    let mut cursors = vec![0usize; pnum];
    for (&i, bins) in unresolved.iter().zip(&node_bins) {
        let mut val: Option<f64> = None;
        for &b in bins {
            if b == my {
                continue; // local evaluation already failed
            }
            let (found, v) = reply_in[b][cursors[b]];
            cursors[b] += 1;
            if val.is_none() && found {
                val = Some(v);
            }
        }
        // No rank covers the point: it lies in area the old mesh had
        // pruned (coarsening recovered it). Start from zero there.
        u[i] = val.unwrap_or(0.0);
    }
    u
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Folds per-rank hashes in rank order into one global hash (collective).
fn fold_ranks(comm: &Comm, local: u64) -> u64 {
    comm.all_gather(local).into_iter().fold(FNV_OFFSET, fnv)
}

/// Order-fixed hash of the global leaf set (owned anchors + levels, folded
/// in rank order).
fn global_leaf_hash<const DIM: usize>(comm: &Comm, dm: &DistMesh<DIM>) -> u64 {
    let mut h = FNV_OFFSET;
    for e in &dm.elems[dm.owned.clone()] {
        for a in e.anchor {
            h = fnv(h, a as u64);
        }
        h = fnv(h, e.level as u64);
    }
    fold_ranks(comm, h)
}

/// Order-fixed hash of the solution: every owned node's coordinate and the
/// exact bit pattern of its value, folded in rank order.
fn global_field_hash<const DIM: usize>(comm: &Comm, dm: &DistMesh<DIM>, u: &[f64]) -> u64 {
    let my = comm.rank() as u32;
    let mut h = FNV_OFFSET;
    for (i, c) in dm.nodes.coords.iter().enumerate() {
        if dm.owner[i] != my {
            continue;
        }
        for &x in c {
            h = fnv(h, x);
        }
        h = fnv(h, u[i].to_bits());
    }
    fold_ranks(comm, h)
}

/// Runs the adaptive transient heat problem. `init` is the initial
/// condition in unit-cube coordinates; homogeneous Dirichlet values are
/// enforced on all carved/cube boundary nodes.
pub fn run_transient<const DIM: usize>(
    comm: &Comm,
    domain: &dyn Subdomain<DIM>,
    cfg: &TransientConfig,
    init: &dyn Fn(&[f64; DIM]) -> f64,
) -> TransientResult {
    let p = cfg.order as usize;
    let mut dm = DistMesh::<DIM>::build(
        comm,
        domain,
        cfg.curve,
        cfg.base_level,
        cfg.boundary_level,
        cfg.order,
    );
    let ws = RefCell::new(if cfg.threads == 0 {
        TraversalWorkspace::new()
    } else {
        TraversalWorkspace::with_threads(cfg.threads)
    });
    let mut cache = ElementCache::<DIM>::new(p);
    let params = AdaptParams {
        max_level: cfg.max_level,
        min_level: cfg.min_level,
        repart_tol: cfg.repart_tol,
    };

    // Backward-Euler operator (M + dt·K) and mass-RHS kernels, built per
    // worker thread by the parallel traversal. The panel-capable kernel
    // structs reproduce the old inline closures bit for bit (the fused
    // row-dot op order and per-level scales are identical) while letting
    // same-level leaf runs flow through the batched SoA path.
    let dt = cfg.dt;
    let scale = cfg.scale;
    let heat_factory = move || HeatKernel::<DIM>::new(p, scale, dt);
    let mass_factory = move || MassKernel::<DIM>::new(p, scale);

    let constrained_of = |dm: &DistMesh<DIM>| -> Vec<bool> {
        dm.nodes.flags.iter().map(|f| f.is_any_boundary()).collect()
    };
    let mut constrained = constrained_of(&dm);
    let mut u: Vec<f64> = (0..dm.nodes.len())
        .map(|i| {
            if constrained[i] {
                0.0
            } else {
                init(&dm.nodes.unit_coords(i))
            }
        })
        .collect();

    let mut trace = AdaptTrace {
        ranks: comm.size() as u64,
        cycles: Vec::new(),
    };
    for step in 1..=cfg.steps {
        // --- One backward-Euler step: (M + dt·K) u_new = M u_old ---------
        let n = dm.nodes.len();
        let mut b = vec![0.0; n];
        dm.matvec_par(
            comm,
            &u,
            &mut b,
            &mut ws.borrow_mut(),
            GhostState::OwnedOnly,
            &mass_factory,
        );
        for (bi, &c) in b.iter_mut().zip(&constrained) {
            if c {
                *bi = 0.0; // homogeneous Dirichlet rows: identity, rhs 0
            }
        }
        let scratch = RefCell::new(vec![0.0; n]);
        let op = (n, |x: &[f64], y: &mut [f64]| {
            let mut xm = scratch.borrow_mut();
            xm.copy_from_slice(x);
            for (v, &c) in xm.iter_mut().zip(&constrained) {
                if c {
                    *v = 0.0;
                }
            }
            dm.matvec_par(
                comm,
                &xm,
                y,
                &mut ws.borrow_mut(),
                GhostState::OwnedOnly,
                &heat_factory,
            );
            for ((yi, &xi), &c) in y.iter_mut().zip(x).zip(&constrained) {
                if c {
                    *yi = xi;
                }
            }
        });
        let opts = SolveOpts {
            reduce: &dm.reducer(comm),
            ..SolveOpts::new(cfg.cg_rtol, 0.0, cfg.cg_maxit)
        };
        let res = cg(&op, &b, &mut u, &IdentityPrecond, opts);
        carve_obs::counter("iterations", res.iterations as u64);
        assert!(
            res.converged,
            "transient CG stalled at step {step}: {res:?}"
        );
        dm.ghost_read(comm, &mut u);

        // --- Adapt cycle -------------------------------------------------
        if cfg.adapt_every > 0 && step % cfg.adapt_every == 0 {
            let _adapt = carve_obs::scope("adapt");
            let decisions = {
                let _mark = carve_obs::scope("mark");
                let eta = energy_error_indicators(&dm, &mut cache, &u, cfg.scale);
                mark_max_strategy(comm, &dm, &eta, cfg.theta_refine, cfg.theta_coarsen)
            };
            let old = OldMesh {
                curve: dm.curve,
                elems: dm.elems.clone(),
                owned: dm.owned.clone(),
                nodes: dm.nodes.clone(),
                splitters: comm.all_gather(dm.elems[dm.owned.clone()].first().copied()),
                u: std::mem::take(&mut u),
            };
            let outcome = dm.adapt(comm, domain, &decisions, &params);
            u = transfer_field(comm, &old, &dm);
            constrained = constrained_of(&dm);
            for (v, &c) in u.iter_mut().zip(&constrained) {
                if c {
                    *v = 0.0;
                }
            }
            dm.ghost_read(comm, &mut u);
            let elems_before = comm.all_reduce_u64(outcome.elems_before as u64, ReduceOp::Sum);
            let elems_after = comm.all_reduce_u64(outcome.elems_after as u64, ReduceOp::Sum);
            trace.cycles.push(AdaptCycleRecord {
                step,
                elems_before,
                elems_after,
                refined: outcome.refined,
                coarsened: outcome.coarsened,
                migrated: outcome.migrated,
                dofs: dm.n_global_dofs as u64,
                leaf_hash: global_leaf_hash(comm, &dm),
                field_hash: global_field_hash(comm, &dm, &u),
            });
        }
    }
    TransientResult {
        trace,
        steps_done: cfg.steps,
        dofs_final: dm.n_global_dofs as u64,
        u,
    }
}
