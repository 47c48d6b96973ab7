//! SUPG-stabilized scalar advection–diffusion transport: the viral-load
//! model of §5 (a scalar advected by a statistically steady flow field with
//! a localized source at the infected individual).

use carve_core::{resolve_slot, Mesh, NodeFlags, SlotRef};
use carve_fem::basis::{gauss_rule, lagrange_deriv_unit, lagrange_eval_unit};
use carve_la::{bicgstab, AsmPrecond, CooBuilder, KrylovResult, SolveOpts};

/// Scalar transport solver (BDF1 + SUPG) over a frozen velocity field.
pub struct TransportSolver<'a, const DIM: usize> {
    pub mesh: &'a Mesh<DIM>,
    /// Diffusivity κ.
    pub kappa: f64,
    pub dt: f64,
    pub scale: f64,
    /// Frozen velocity, node-major `DIM` components per node.
    velocity: &'a [f64],
    /// Scalar concentration per node.
    pub c: Vec<f64>,
    /// Dirichlet mask: `Some(value)` per constrained node.
    dirichlet: Vec<Option<f64>>,
    slots: Vec<Vec<SlotRef>>,
}

impl<'a, const DIM: usize> TransportSolver<'a, DIM> {
    /// `bc` returns `Some(value)` at nodes with prescribed concentration
    /// (e.g. 0 at fresh-air inlets).
    pub fn new(
        mesh: &'a Mesh<DIM>,
        velocity: &'a [f64],
        kappa: f64,
        dt: f64,
        scale: f64,
        bc: &dyn Fn(&[f64; DIM], NodeFlags) -> Option<f64>,
    ) -> Self {
        let n = mesh.num_dofs();
        assert_eq!(velocity.len(), n * DIM);
        assert_eq!(mesh.order, 1, "transport uses linear elements");
        let npe = carve_core::nodes::nodes_per_elem::<DIM>(1);
        let slots = mesh
            .elems
            .iter()
            .map(|e| {
                (0..npe)
                    .map(|lin| {
                        let idx = carve_core::nodes::lattice_index::<DIM>(lin, 1);
                        let coord = carve_core::nodes::elem_node_coord(e, 1, &idx);
                        resolve_slot(&mesh.nodes, e, &coord)
                    })
                    .collect()
            })
            .collect();
        let dirichlet = (0..n)
            .map(|i| bc(&mesh.nodes.unit_coords(i), mesh.nodes.flags[i]))
            .collect();
        TransportSolver {
            mesh,
            kappa,
            dt,
            scale,
            velocity,
            c: vec![0.0; n],
            dirichlet,
            slots,
        }
    }

    fn gather<const COMP: usize>(&self, ei: usize, data: &[f64]) -> Vec<f64> {
        let npe = self.slots[ei].len();
        let mut out = vec![0.0; npe * COMP];
        for (lin, slot) in self.slots[ei].iter().enumerate() {
            for k in 0..COMP {
                out[lin * COMP + k] = match slot {
                    SlotRef::Direct(i) => data[i * COMP + k],
                    SlotRef::Hanging(st) => st.iter().map(|(i, w)| data[i * COMP + k] * w).sum(),
                };
            }
        }
        out
    }

    /// Advances one BDF1 step with source `s(x)` (physical coordinates).
    pub fn step(&mut self, source: &dyn Fn(&[f64; DIM]) -> f64) -> KrylovResult {
        let n = self.mesh.num_dofs();
        let mut coo = CooBuilder::new(n);
        let mut rhs = vec![0.0; n];
        let quad = gauss_rule(2);
        let nq1 = quad.points.len();
        let nqs = nq1.pow(DIM as u32);
        let nb = 2usize;
        let npe = nb.pow(DIM as u32);
        let inv_dt = 1.0 / self.dt;
        for (ei, e) in self.mesh.elems.iter().enumerate() {
            let (emin_u, h_u) = e.bounds_unit();
            let h = h_u * self.scale;
            let vol = h.powi(DIM as i32);
            let a_nodes = self.gather::<DIM>(ei, self.velocity);
            let c_old = self.gather::<1>(ei, &self.c);
            let mut ke = vec![0.0; npe * npe];
            let mut re = vec![0.0; npe];
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
                let jw = w * vol;
                let mut phi = [0.0; 8];
                let mut grad = [[0.0; DIM]; 8];
                for i in 0..npe {
                    let mut r = i;
                    let mut li = [0usize; DIM];
                    for slot in li.iter_mut() {
                        *slot = r % nb;
                        r /= nb;
                    }
                    let mut v = 1.0;
                    for k in 0..DIM {
                        v *= lagrange_eval_unit(1, li[k], tref[k]);
                    }
                    phi[i] = v;
                    for (k, gk) in grad[i].iter_mut().enumerate() {
                        let mut g = 1.0;
                        for m in 0..DIM {
                            if m == k {
                                g *= lagrange_deriv_unit(1, li[m], tref[m]);
                            } else {
                                g *= lagrange_eval_unit(1, li[m], tref[m]);
                            }
                        }
                        *gk = g / h;
                    }
                }
                let mut a = [0.0; DIM];
                let mut co = 0.0;
                for i in 0..npe {
                    co += phi[i] * c_old[i];
                    for k in 0..DIM {
                        a[k] += phi[i] * a_nodes[i * DIM + k];
                    }
                }
                let a_norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
                // SUPG τ for transient advection–diffusion.
                let tau = 1.0
                    / ((2.0 * inv_dt).powi(2)
                        + (2.0 * a_norm / h).powi(2)
                        + (12.0 * self.kappa / (h * h)).powi(2))
                    .sqrt();
                let mut x = [0.0; DIM];
                for k in 0..DIM {
                    x[k] = emin_u[k] * self.scale + h * tref[k];
                }
                let s = source(&x);
                for i in 0..npe {
                    let adv_i: f64 = (0..DIM).map(|k| a[k] * grad[i][k]).sum();
                    let wi = phi[i] + tau * adv_i;
                    for j in 0..npe {
                        let adv_j: f64 = (0..DIM).map(|k| a[k] * grad[j][k]).sum();
                        let diff: f64 = (0..DIM).map(|k| grad[i][k] * grad[j][k]).sum::<f64>();
                        ke[i * npe + j] +=
                            jw * (wi * (inv_dt * phi[j] + adv_j) + self.kappa * diff);
                    }
                    re[i] += jw * wi * (inv_dt * co + s);
                }
            }
            // Scatter.
            let stencils: Vec<Vec<(usize, f64)>> = self.slots[ei]
                .iter()
                .map(|s| match s {
                    SlotRef::Direct(i) => vec![(*i, 1.0)],
                    SlotRef::Hanging(st) => st.clone(),
                })
                .collect();
            for i in 0..npe {
                for (gi, wi) in &stencils[i] {
                    rhs[*gi] += wi * re[i];
                    for j in 0..npe {
                        let v = ke[i * npe + j];
                        if v == 0.0 {
                            continue;
                        }
                        for (gj, wj) in &stencils[j] {
                            coo.add(*gi, *gj, wi * wj * v);
                        }
                    }
                }
            }
        }
        let mut a = coo.build();
        for (i, d) in self.dirichlet.iter().enumerate().take(n) {
            if let Some(v) = *d {
                for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                    a.vals[k] = if a.cols[k] as usize == i { 1.0 } else { 0.0 };
                }
                rhs[i] = v;
            }
        }
        let pre = AsmPrecond::new(&a, (n / 600).max(1), 3);
        let mut c_new = self.c.clone();
        let opts = SolveOpts::new(1e-9, 1e-12, 10_000);
        let res = bicgstab(&a, &rhs, &mut c_new, &pre, opts);
        self.c = c_new;
        res
    }

    /// Total scalar mass ∫ c dx (lumped).
    pub fn total_mass(&self) -> f64 {
        // Lumped: sum over elements of mean nodal value × volume.
        let npe = self.slots.first().map(|s| s.len()).unwrap_or(0);
        let mut total = 0.0;
        for (ei, e) in self.mesh.elems.iter().enumerate() {
            let vol = (e.bounds_unit().1 * self.scale).powi(DIM as i32);
            let vals = self.gather::<1>(ei, &self.c);
            total += vol * vals.iter().sum::<f64>() / npe as f64;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_geom::RetainBox;
    use carve_sfc::Curve;

    #[test]
    fn pure_diffusion_conserves_and_spreads() {
        let domain = RetainBox::<2>::new([0.0, 0.0], [0.5, 0.5]);
        let mesh = Mesh::build(&domain, Curve::Morton, 4, 4, 1);
        let n = mesh.num_dofs();
        let vel = vec![0.0; n * 2];
        let bc = |_: &[f64; 2], _: NodeFlags| None;
        let mut t = TransportSolver::new(&mesh, &vel, 1e-3, 0.05, 1.0, &bc);
        // Source for a few steps, then free decay; with natural BCs mass is
        // conserved after the source stops.
        let src = |x: &[f64; 2]| {
            let d2 = (x[0] - 0.25f64).powi(2) + (x[1] - 0.25f64).powi(2);
            if d2 < 0.03 * 0.03 {
                10.0
            } else {
                0.0
            }
        };
        for _ in 0..3 {
            let r = t.step(&src);
            assert!(r.converged);
        }
        let m_source = t.total_mass();
        assert!(m_source > 0.0);
        let zero = |_: &[f64; 2]| 0.0;
        for _ in 0..3 {
            t.step(&zero);
        }
        let m_after = t.total_mass();
        assert!(
            (m_after - m_source).abs() < 0.02 * m_source,
            "mass {m_source} -> {m_after}"
        );
        // Peak must move down (diffusion spreads).
        let peak = t.c.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 0.0);
    }

    #[test]
    fn advection_moves_plume_downstream() {
        const H: f64 = 0.25;
        let domain = RetainBox::<2>::channel([1.0, H]);
        let mesh = Mesh::build(&domain, Curve::Morton, 4, 4, 1);
        let n = mesh.num_dofs();
        // Uniform rightward velocity.
        let mut vel = vec![0.0; n * 2];
        for i in 0..n {
            vel[i * 2] = 1.0;
        }
        let bc = |x: &[f64; 2], _: NodeFlags| {
            if x[0] <= 1e-9 {
                Some(0.0) // clean inflow
            } else {
                None
            }
        };
        let mut t = TransportSolver::new(&mesh, &vel, 1e-4, 0.02, 1.0, &bc);
        let src = |x: &[f64; 2]| {
            let d2 = (x[0] - 0.2f64).powi(2) + (x[1] - 0.12f64).powi(2);
            if d2 < 0.002 {
                5.0
            } else {
                0.0
            }
        };
        for _ in 0..10 {
            let r = t.step(&src);
            assert!(r.converged);
        }
        // Centroid of c must sit downstream of the source.
        let mut cx = 0.0;
        let mut cm = 0.0;
        for i in 0..n {
            let x = mesh.nodes.unit_coords(i);
            cx += t.c[i].max(0.0) * x[0];
            cm += t.c[i].max(0.0);
        }
        let centroid = cx / cm;
        assert!(centroid > 0.25, "plume centroid {centroid} not downstream");
        // Nothing dramatic upstream of the source.
        for i in 0..n {
            let x = mesh.nodes.unit_coords(i);
            if x[0] < 0.1 {
                assert!(t.c[i].abs() < 0.2 * t.c.iter().cloned().fold(0.0, f64::max));
            }
        }
    }
}
