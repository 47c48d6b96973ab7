//! The incompressible-flow driver: BDF1 + Picard over the VMS elemental
//! operators, assembled with hanging-node stencils and solved with
//! BiCGStab + additive Schwarz.

use crate::vms::{element_ns_system, VmsParams};
use carve_core::nodes::NodeFlags;
use carve_core::{resolve_slot, Mesh, SlotRef};
use carve_la::{bicgstab, AsmPrecond, CooBuilder, KrylovResult, SolveOpts};

/// Strong boundary condition at one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeBc<const DIM: usize> {
    /// Prescribed velocity, free pressure (walls, inlets, object no-slip).
    Velocity([f64; DIM]),
    /// Prescribed pressure, free velocity (outlets).
    Pressure(f64),
    /// Prescribed velocity and pressure.
    VelocityAndPressure([f64; DIM], f64),
    /// Interior node.
    Free,
}

/// Node-wise boundary-condition oracle: unit-cube position × node flags →
/// condition. This is where applications encode inlets/outlets/no-slip.
pub type FlowBc<const DIM: usize> = dyn Fn(&[f64; DIM], NodeFlags) -> NodeBc<DIM>;

/// One time step's report.
#[derive(Clone, Copy, Debug)]
pub struct StepReport {
    pub picard_iters: usize,
    pub linear: KrylovResult,
    /// Velocity change ‖u^{n+1} − u^n‖∞ over the step.
    pub delta_u: f64,
}

/// Incompressible VMS Navier–Stokes solver on a carved mesh.
pub struct FlowSolver<'a, const DIM: usize> {
    pub mesh: &'a Mesh<DIM>,
    pub params: VmsParams,
    /// Physical size of the root cube.
    pub scale: f64,
    /// State: `(DIM+1)` unknowns per node, node-major (u₀…u_{d−1}, p).
    pub state: Vec<f64>,
    bc: Vec<NodeBc<DIM>>,
    /// Element-to-slot map (resolved once; hanging stencils included).
    slots: Vec<Vec<SlotRef>>,
    /// Picard tolerance on ‖Δu‖∞.
    pub picard_tol: f64,
    pub max_picard: usize,
    /// Cap on inner BiCGStab iterations per Picard solve.
    pub lin_max_iter: usize,
}

impl<'a, const DIM: usize> FlowSolver<'a, DIM> {
    pub fn new(
        mesh: &'a Mesh<DIM>,
        params: VmsParams,
        scale: f64,
        bc: &(dyn Fn(&[f64; DIM], NodeFlags) -> NodeBc<DIM> + '_),
    ) -> Self {
        let n = mesh.num_dofs();
        let p = mesh.order;
        assert_eq!(p, 1, "NS solver uses equal-order linear elements");
        let npe = carve_core::nodes::nodes_per_elem::<DIM>(p);
        let slots = mesh
            .elems
            .iter()
            .map(|e| {
                (0..npe)
                    .map(|lin| {
                        let idx = carve_core::nodes::lattice_index::<DIM>(lin, p);
                        let c = carve_core::nodes::elem_node_coord(e, p, &idx);
                        resolve_slot(&mesh.nodes, e, &c)
                    })
                    .collect()
            })
            .collect();
        let bcs: Vec<NodeBc<DIM>> = (0..n)
            .map(|i| bc(&mesh.nodes.unit_coords(i), mesh.nodes.flags[i]))
            .collect();
        let mut state = vec![0.0; n * (DIM + 1)];
        // Start from the boundary data for a reasonable initial advection
        // field.
        for (i, b) in bcs.iter().enumerate() {
            if let NodeBc::Velocity(v) | NodeBc::VelocityAndPressure(v, _) = b {
                for k in 0..DIM {
                    state[i * (DIM + 1) + k] = v[k];
                }
            }
        }
        FlowSolver {
            mesh,
            params,
            scale,
            state,
            bc: bcs,
            slots,
            picard_tol: 1e-6,
            max_picard: 12,
            lin_max_iter: 20_000,
        }
    }

    /// Velocity of node `i`.
    pub fn velocity(&self, i: usize) -> [f64; DIM] {
        let mut v = [0.0; DIM];
        for (k, vk) in v.iter_mut().enumerate() {
            *vk = self.state[i * (DIM + 1) + k];
        }
        v
    }

    /// Pressure of node `i`.
    pub fn pressure(&self, i: usize) -> f64 {
        self.state[i * (DIM + 1) + DIM]
    }

    /// Node-major velocity-only view (used by transport and drag).
    pub fn velocity_field(&self) -> Vec<f64> {
        let n = self.mesh.num_dofs();
        let mut out = vec![0.0; n * DIM];
        for i in 0..n {
            for k in 0..DIM {
                out[i * DIM + k] = self.state[i * (DIM + 1) + k];
            }
        }
        out
    }

    /// Gathers element-local velocities (node-major, `npe × DIM`) from a
    /// state vector.
    fn gather_elem_velocity(&self, ei: usize, state: &[f64]) -> Vec<f64> {
        let npe = self.slots[ei].len();
        let mut out = vec![0.0; npe * DIM];
        for (lin, slot) in self.slots[ei].iter().enumerate() {
            for k in 0..DIM {
                out[lin * DIM + k] = match slot {
                    SlotRef::Direct(i) => state[i * (DIM + 1) + k],
                    SlotRef::Hanging(st) => {
                        st.iter().map(|(i, w)| state[i * (DIM + 1) + k] * w).sum()
                    }
                };
            }
        }
        out
    }

    /// Performs one BDF1 step (dt from `params`; ∞ = steady iteration).
    pub fn step(&mut self, f: &dyn Fn(&[f64; DIM]) -> [f64; DIM]) -> StepReport {
        let n = self.mesh.num_dofs();
        let ndof = n * (DIM + 1);
        let u_old_state = self.state.clone();
        let mut linear = KrylovResult::stalled(0, 0.0);
        let mut picard_iters = 0;
        let npe_full = carve_core::nodes::nodes_per_elem::<DIM>(self.mesh.order);
        let blk_dofs = npe_full * (DIM + 1);
        // Each element emits at most (npe·(DIM+1))² block entries; sizing the
        // triplet buffer once outside the Picard loop and rebuilding with
        // `build_and_clear` means every nonlinear iteration reuses the same
        // triplet and rhs allocations instead of regrowing them.
        let mut coo = CooBuilder::with_capacity(ndof, self.mesh.elems.len() * blk_dofs * blk_dofs);
        let mut rhs = vec![0.0; ndof];
        for _picard in 0..self.max_picard {
            picard_iters += 1;
            rhs.fill(0.0);
            for (ei, e) in self.mesh.elems.iter().enumerate() {
                let (emin_u, h_u) = e.bounds_unit();
                let mut emin = [0.0; DIM];
                for k in 0..DIM {
                    emin[k] = emin_u[k] * self.scale;
                }
                let h = h_u * self.scale;
                let a_nodes = self.gather_elem_velocity(ei, &self.state);
                let uo_nodes = self.gather_elem_velocity(ei, &u_old_state);
                let (ke, re) =
                    element_ns_system::<DIM>(&self.params, &emin, h, &a_nodes, &uo_nodes, f);
                // Scatter W^T K W over block dofs.
                let npe = self.slots[ei].len();
                let blk = DIM + 1;
                // Expand slot stencils per node once.
                let stencils: Vec<Vec<(usize, f64)>> = self.slots[ei]
                    .iter()
                    .map(|s| match s {
                        SlotRef::Direct(i) => vec![(*i, 1.0)],
                        SlotRef::Hanging(st) => st.clone(),
                    })
                    .collect();
                for li in 0..npe {
                    for ci in 0..blk {
                        let row_local = li * blk + ci;
                        for (gi, wi) in &stencils[li] {
                            let grow = gi * blk + ci;
                            rhs[grow] += wi * re[row_local];
                            for lj in 0..npe {
                                for cj in 0..blk {
                                    let v = ke[(row_local, lj * blk + cj)];
                                    if v == 0.0 {
                                        continue;
                                    }
                                    for (gj, wj) in &stencils[lj] {
                                        coo.add(grow, gj * blk + cj, wi * wj * v);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let mut a = coo.build_and_clear();
            // Strong boundary conditions.
            for i in 0..n {
                let constrain =
                    |a: &mut carve_la::CsrMatrix, rhs: &mut [f64], dof: usize, val: f64| {
                        for k in a.row_ptr[dof]..a.row_ptr[dof + 1] {
                            a.vals[k] = if a.cols[k] as usize == dof { 1.0 } else { 0.0 };
                        }
                        rhs[dof] = val;
                    };
                match self.bc[i] {
                    NodeBc::Velocity(v) => {
                        for (k, &vk) in v.iter().enumerate() {
                            constrain(&mut a, &mut rhs, i * (DIM + 1) + k, vk);
                        }
                    }
                    NodeBc::Pressure(p) => {
                        constrain(&mut a, &mut rhs, i * (DIM + 1) + DIM, p);
                    }
                    NodeBc::VelocityAndPressure(v, p) => {
                        for (k, &vk) in v.iter().enumerate() {
                            constrain(&mut a, &mut rhs, i * (DIM + 1) + k, vk);
                        }
                        constrain(&mut a, &mut rhs, i * (DIM + 1) + DIM, p);
                    }
                    NodeBc::Free => {}
                }
            }
            // Bound the *block size* (dense LU is cubic in it), not the count.
            let nblocks = (ndof / 500).max(1);
            let pre = AsmPrecond::new(&a, nblocks, 2 * (DIM + 1));
            let mut x = self.state.clone();
            let opts = SolveOpts::new(1e-8, 1e-12, self.lin_max_iter);
            linear = bicgstab(&a, &rhs, &mut x, &pre, opts);
            let delta: f64 = x
                .iter()
                .zip(&self.state)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            self.state = x;
            if delta < self.picard_tol {
                break;
            }
        }
        let delta_u: f64 = self
            .state
            .iter()
            .zip(&u_old_state)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        StepReport {
            picard_iters,
            linear,
            delta_u,
        }
    }

    /// Marches to a statistically steady state: steps until ‖Δu‖∞ < `tol`
    /// or `max_steps`. Returns the last report.
    pub fn run_to_steady(
        &mut self,
        f: &dyn Fn(&[f64; DIM]) -> [f64; DIM],
        max_steps: usize,
        tol: f64,
    ) -> StepReport {
        let mut last = self.step(f);
        for _ in 1..max_steps {
            if last.delta_u < tol {
                break;
            }
            last = self.step(f);
        }
        last
    }

    /// L2 norm of the velocity divergence (mesh-quality/solution check).
    pub fn divergence_l2(&self) -> f64 {
        let quad = carve_fem::gauss_rule(2);
        let nq1 = quad.points.len();
        let nqs = nq1.pow(DIM as u32);
        let mut total = 0.0;
        for (ei, e) in self.mesh.elems.iter().enumerate() {
            let (_, h_u) = e.bounds_unit();
            let h = h_u * self.scale;
            let vel = self.gather_elem_velocity(ei, &self.state);
            let npe = self.slots[ei].len();
            for qlin in 0..nqs {
                let mut rem = qlin;
                let mut tref = [0.0; DIM];
                let mut w = 1.0;
                for tk in tref.iter_mut().take(DIM) {
                    let qi = rem % nq1;
                    rem /= nq1;
                    *tk = quad.points[qi];
                    w *= quad.weights[qi];
                }
                let mut div = 0.0;
                for i in 0..npe {
                    let mut r = i;
                    let mut li = [0usize; DIM];
                    for slot in li.iter_mut() {
                        *slot = r % 2;
                        r /= 2;
                    }
                    for k in 0..DIM {
                        let mut g = 1.0;
                        for m in 0..DIM {
                            if m == k {
                                g *= carve_fem::lagrange_deriv_unit(1, li[m], tref[m]);
                            } else {
                                g *= carve_fem::lagrange_eval_unit(1, li[m], tref[m]);
                            }
                        }
                        div += vel[i * DIM + k] * g / h;
                    }
                }
                total += w * h.powi(DIM as i32) * div * div;
            }
        }
        total.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_geom::RetainBox;
    use carve_sfc::Curve;

    /// Poiseuille flow in a 2D channel \[0,1\]×[0,H]: prescribed parabolic
    /// inlet, no-slip walls, pressure outlet. Steady solution is the same
    /// parabola everywhere.
    #[test]
    fn poiseuille_profile_recovered() {
        const H: f64 = 0.25;
        let umax = 1.0;
        let domain = RetainBox::<2>::channel([1.0, H]);
        let mesh = Mesh::build(&domain, Curve::Morton, 4, 4, 1);
        let profile = move |y: f64| 4.0 * umax * y * (H - y) / (H * H);
        let bc = move |x: &[f64; 2], _fl: NodeFlags| -> NodeBc<2> {
            let eps = 1e-9;
            if x[1] <= eps || x[1] >= H - eps {
                NodeBc::Velocity([0.0, 0.0]) // walls
            } else if x[0] <= eps {
                NodeBc::Velocity([profile(x[1]), 0.0]) // inlet
            } else if x[0] >= 1.0 - eps {
                NodeBc::Pressure(0.0) // outlet
            } else {
                NodeBc::Free
            }
        };
        let params = VmsParams::new(0.05, 0.5);
        let mut solver = FlowSolver::new(&mesh, params, 1.0, &bc);
        let zero = |_: &[f64; 2]| [0.0, 0.0];
        let rep = solver.run_to_steady(&zero, 40, 1e-5);
        assert!(rep.linear.converged, "{rep:?}");
        // Check the profile at an interior column x = 0.5.
        let mut checked = 0;
        for i in 0..mesh.num_dofs() {
            let x = mesh.nodes.unit_coords(i);
            if (x[0] - 0.5).abs() < 1e-9 && x[1] > 1e-9 && x[1] < H - 1e-9 {
                let v = solver.velocity(i);
                let want = profile(x[1]);
                assert!(
                    (v[0] - want).abs() < 0.05 * umax,
                    "u({:?}) = {} want {}",
                    x,
                    v[0],
                    want
                );
                assert!(v[1].abs() < 0.02 * umax);
                checked += 1;
            }
        }
        assert!(checked >= 3);
        // Divergence must be small relative to the velocity scale.
        assert!(
            solver.divergence_l2() < 0.05,
            "div {}",
            solver.divergence_l2()
        );
    }

    #[test]
    fn lid_driven_cavity_recirculates() {
        let domain = RetainBox::<2>::new([0.0, 0.0], [0.5, 0.5]);
        let mesh = Mesh::build(&domain, Curve::Morton, 4, 4, 1);
        let bc = |x: &[f64; 2], _fl: NodeFlags| -> NodeBc<2> {
            let eps = 1e-9;
            if x[1] >= 0.5 - eps && x[0] > eps && x[0] < 0.5 - eps {
                NodeBc::Velocity([1.0, 0.0]) // moving lid
            } else if x[0] <= eps || x[0] >= 0.5 - eps || x[1] <= eps {
                if (x[0] - 0.25).abs() < 1e-9 && x[1] <= eps {
                    // pin pressure at one bottom node
                    return NodeBc::VelocityAndPressure([0.0, 0.0], 0.0);
                }
                NodeBc::Velocity([0.0, 0.0])
            } else if x[1] >= 0.5 - eps {
                NodeBc::Velocity([0.0, 0.0]) // lid corners
            } else {
                NodeBc::Free
            }
        };
        let params = VmsParams::new(0.01, 0.25);
        let mut solver = FlowSolver::new(&mesh, params, 1.0, &bc);
        let zero = |_: &[f64; 2]| [0.0, 0.0];
        let rep = solver.run_to_steady(&zero, 30, 1e-4);
        assert!(rep.linear.converged);
        // Recirculation: u must be negative somewhere in the lower half
        // (return flow), positive near the lid.
        let mut min_u = f64::INFINITY;
        for i in 0..mesh.num_dofs() {
            let x = mesh.nodes.unit_coords(i);
            if x[1] < 0.3 && x[0] > 0.1 && x[0] < 0.4 {
                min_u = min_u.min(solver.velocity(i)[0]);
            }
        }
        assert!(min_u < -0.01, "no return flow: min_u = {min_u}");
    }
}
