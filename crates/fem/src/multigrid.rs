//! Matrix-free geometric multigrid on incomplete-octree hierarchies.
//!
//! The framework descends from Dendro ("parallel algorithms for multigrid
//! and AMR methods on 2:1 balanced octrees", Sampath et al. \[51\]); this
//! module supplies the corresponding solver layer for carved domains:
//!
//! * a **grid hierarchy** built by repeatedly coarsening the finest carved
//!   mesh (clamping the boundary level, re-carving, re-balancing — every
//!   level is itself a valid incomplete octree);
//! * **prolongation** by FE interpolation: evaluate the coarse-grid
//!   function at every fine node (point location via [`find_leaf`] + local
//!   tensor-Lagrange evaluation + the same hanging-stencil resolution used
//!   everywhere else);
//! * **restriction** as the exact transpose;
//! * a **V-cycle** with damped-Jacobi smoothing over the matrix-free
//!   traversal MATVEC, and a coarse-grid dense LU;
//! * [`mg_pcg`]: conjugate gradients preconditioned with one V-cycle. The
//!   payoff is h-independent iteration counts — the conditioning story of
//!   Table 1 taken to its conclusion.

use crate::poisson::{StiffnessKernel, StiffnessMatrixKernel};
use carve_core::{
    find_leaf, resolve_slot, traversal_assemble_ws, traversal_matvec_ws, Mesh, SlotRef,
    TraversalWorkspace,
};
use carve_geom::Subdomain;
use carve_la::{CooBuilder, KrylovResult, LuFactors};
use carve_sfc::morton::finest_cell_of_point;
use std::mem::size_of;
use std::sync::Mutex;

/// Sparse interpolation operator stored row-wise (rows = fine nodes,
/// entries = coarse nodes × weights).
pub struct Transfer {
    pub rows: Vec<Vec<(u32, f64)>>,
    pub n_coarse: usize,
}

impl Transfer {
    /// `fine += P * coarse`.
    pub fn prolong(&self, coarse: &[f64], fine: &mut [f64]) {
        assert_eq!(coarse.len(), self.n_coarse);
        for (row, out) in self.rows.iter().zip(fine.iter_mut()) {
            let mut s = 0.0;
            for &(j, w) in row {
                s += w * coarse[j as usize];
            }
            *out += s;
        }
    }

    /// `coarse += Pᵀ * fine`.
    pub fn restrict(&self, fine: &[f64], coarse: &mut [f64]) {
        assert_eq!(coarse.len(), self.n_coarse);
        for (row, &f) in self.rows.iter().zip(fine.iter()) {
            for &(j, w) in row {
                coarse[j as usize] += w * f;
            }
        }
    }
}

/// Builds the FE interpolation from `coarse` onto the nodes of `fine`.
///
/// Every fine node lies inside (or on the boundary of) some coarse leaf;
/// its value is the coarse FE function there: tensor-Lagrange in the leaf's
/// reference coordinates, with the leaf's hanging lattice slots expanded
/// through their stencils.
pub fn build_transfer<const DIM: usize>(coarse: &Mesh<DIM>, fine: &Mesh<DIM>) -> Transfer {
    let p = coarse.order;
    assert_eq!(p, fine.order, "same order across the hierarchy");
    let npe = carve_core::nodes::nodes_per_elem::<DIM>(p);
    let mut rows = Vec::with_capacity(fine.num_dofs());
    for i in 0..fine.num_dofs() {
        let coord = fine.nodes.coords[i];
        // Containing coarse leaf: clamp the (scaled) point to a cell key.
        let mut pt = [0u64; DIM];
        for k in 0..DIM {
            pt[k] = coord[k] / p;
        }
        // A node on an element's upper face maps to the cell on its ++ side,
        // which can be carved; try every combination of nudging axes down by
        // one cell (the node borders up to 2^DIM cells).
        let li = (0..(1usize << DIM))
            .find_map(|combo| {
                let mut pt2 = pt;
                for (k, p2) in pt2.iter_mut().enumerate() {
                    if (combo >> k) & 1 == 1 {
                        if *p2 == 0 {
                            return None;
                        }
                        *p2 -= 1;
                    }
                }
                find_leaf(&coarse.elems, coarse.curve, &finest_cell_of_point(&pt2))
            })
            .unwrap_or_else(|| panic!("fine node {coord:?} not covered by coarse mesh"));
        let leaf = &coarse.elems[li];
        // Reference coordinates of the fine node inside the coarse leaf.
        let side = leaf.side() as u64;
        let mut tref = [0.0f64; DIM];
        for k in 0..DIM {
            let off = coord[k] as i64 - (leaf.anchor[k] as u64 * p) as i64;
            tref[k] = off as f64 / (side * p) as f64 * p as f64; // in [0, p]
        }
        // Tensor-Lagrange weights over the leaf's lattice, expanded through
        // hanging stencils.
        let mut row: Vec<(u32, f64)> = Vec::new();
        for lin in 0..npe {
            let idx = carve_core::nodes::lattice_index::<DIM>(lin, p);
            let mut w = 1.0;
            for k in 0..DIM {
                w *= carve_core::nodes::lagrange_1d(p, idx[k], tref[k]);
            }
            if w.abs() < 1e-14 {
                continue;
            }
            let c = carve_core::nodes::elem_node_coord(leaf, p, &idx);
            match resolve_slot(&coarse.nodes, leaf, &c) {
                SlotRef::Direct(j) => row.push((j as u32, w)),
                SlotRef::Hanging(st) => {
                    for (j, wj) in st {
                        row.push((j as u32, w * wj));
                    }
                }
            }
        }
        // Merge duplicates.
        row.sort_unstable_by_key(|e| e.0);
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(row.len());
        for (j, w) in row {
            if let Some(last) = merged.last_mut() {
                if last.0 == j {
                    last.1 += w;
                    continue;
                }
            }
            merged.push((j, w));
        }
        rows.push(merged);
    }
    Transfer {
        rows,
        n_coarse: coarse.num_dofs(),
    }
}

/// One multigrid level: mesh, Dirichlet mask, diagonal (for Jacobi), and
/// the transfer from the next-coarser level.
struct Level<const DIM: usize> {
    mesh: Mesh<DIM>,
    constrained: Vec<bool>,
    inv_diag: Vec<f64>,
    /// Transfer from level `l+1` (coarser) onto this level; `None` on the
    /// coarsest.
    from_coarser: Option<Transfer>,
}

/// Mutable solver state shared by the `&self` operator applications: the
/// panel-capable stiffness kernel (tensor-apply scratch is `&mut`) and one
/// traversal workspace per level, each holding its level's recorded
/// traversal plan. One lock per V-cycle smoother apply is noise next to the
/// traversal itself, and it spares every apply a cache rebuild and a
/// re-recording.
struct MgWork<const DIM: usize> {
    kernel: StiffnessKernel<DIM>,
    ws: Vec<TraversalWorkspace<DIM>>,
    /// Constrained-input scratch: `apply` masks Dirichlet entries of `x`
    /// before the traversal, and recycling this buffer keeps the smoother's
    /// inner loop free of per-apply allocation.
    xf: Vec<f64>,
}

/// Matrix-free geometric-multigrid Poisson solver on a carved mesh
/// hierarchy (strong Dirichlet at carved and/or cube boundary nodes).
pub struct Multigrid<const DIM: usize> {
    levels: Vec<Level<DIM>>, // [0] = finest
    coarse_lu: LuFactors,
    coarse_constrained: Vec<bool>,
    pub nu_pre: usize,
    pub nu_post: usize,
    pub omega: f64,
    work: Mutex<MgWork<DIM>>,
}

impl<const DIM: usize> Multigrid<DIM> {
    /// Builds a hierarchy by lowering the boundary-refinement level one step
    /// per grid until `min_level`, re-carving each coarse grid from the
    /// domain. `constrain` marks strong-Dirichlet nodes (by flags).
    pub fn new(
        domain: &dyn Subdomain<DIM>,
        finest_base: u8,
        finest_boundary: u8,
        min_level: u8,
        order: u64,
        scale: f64,
        constrain: &dyn Fn(carve_core::NodeFlags) -> bool,
    ) -> Self {
        assert!(min_level >= 1 && min_level <= finest_base);
        let mut meshes = Vec::new();
        let mut boundary = finest_boundary;
        let mut base = finest_base;
        loop {
            meshes.push(Mesh::build(
                domain,
                carve_sfc::Curve::Hilbert,
                base,
                boundary,
                order,
            ));
            if base == min_level && boundary == min_level {
                break;
            }
            boundary = boundary.saturating_sub(1).max(min_level);
            base = base.min(boundary).max(min_level);
            if meshes.len() > 12 {
                break;
            }
        }
        // Per-level stiffness matrices (h is a function of level only) shared
        // by the diagonal pass and the coarse assembly below.
        let mut mat_kernel = StiffnessMatrixKernel::<DIM>::new(order as usize, scale);
        let mut levels: Vec<Level<DIM>> = Vec::with_capacity(meshes.len());
        for (li, mesh) in meshes.into_iter().enumerate() {
            let constrained: Vec<bool> = mesh.nodes.flags.iter().map(|f| constrain(*f)).collect();
            // Diagonal of the constrained operator via assembly of the
            // diagonal only (cheap: per-element diagonal entries).
            let mut diag = vec![0.0; mesh.num_dofs()];
            let npe = carve_core::nodes::nodes_per_elem::<DIM>(order);
            for e in &mesh.elems {
                let ke = mat_kernel.level_matrix(e.level);
                for lin in 0..npe {
                    let idx = carve_core::nodes::lattice_index::<DIM>(lin, order);
                    let c = carve_core::nodes::elem_node_coord(e, order, &idx);
                    match resolve_slot(&mesh.nodes, e, &c) {
                        SlotRef::Direct(i) => diag[i] += ke[(lin, lin)],
                        SlotRef::Hanging(st) => {
                            for (i, w) in st {
                                diag[i] += w * w * ke[(lin, lin)];
                            }
                        }
                    }
                }
            }
            let inv_diag = diag
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    if constrained[i] || d.abs() < 1e-300 {
                        1.0
                    } else {
                        1.0 / d
                    }
                })
                .collect();
            let from_coarser = None;
            levels.push(Level {
                mesh,
                constrained,
                inv_diag,
                from_coarser,
            });
            let _ = li;
        }
        // Transfers: level l gets the interpolation from level l+1.
        for l in 0..levels.len() - 1 {
            let t = build_transfer(&levels[l + 1].mesh, &levels[l].mesh);
            levels[l].from_coarser = Some(t);
        }
        // Coarse operator: assembled + LU.
        let coarse = levels.last().expect("nonempty hierarchy");
        let n = coarse.mesh.num_dofs();
        let npe = carve_core::nodes::nodes_per_elem::<DIM>(order);
        let mut coo = CooBuilder::with_capacity(n, coarse.mesh.elems.len() * npe * npe);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut ws = TraversalWorkspace::with_threads(1);
        traversal_assemble_ws(
            &coarse.mesh.elems,
            0..coarse.mesh.elems.len(),
            coarse.mesh.curve,
            &coarse.mesh.nodes,
            &ids,
            &mut coo,
            &mut ws,
            &mut mat_kernel,
        );
        let mut a = coo.build().to_dense();
        for i in 0..n {
            if coarse.constrained[i] {
                // Rows only (columns keep their entries, SPD-ish).
                for j in 0..n {
                    a[(i, j)] = if i == j { 1.0 } else { 0.0 };
                }
            }
        }
        let coarse_lu = a.lu().expect("coarse operator invertible");
        let coarse_constrained = coarse.constrained.clone();
        let n_levels = levels.len();
        Multigrid {
            levels,
            coarse_lu,
            coarse_constrained,
            nu_pre: 2,
            nu_post: 2,
            omega: 0.7,
            work: Mutex::new(MgWork {
                kernel: StiffnessKernel::new(order as usize, scale),
                ws: (0..n_levels)
                    .map(|_| TraversalWorkspace::with_threads(1))
                    .collect(),
                xf: Vec::new(),
            }),
        }
    }

    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Applies the finest-level constrained operator `y = A x` (the same
    /// operator [`Multigrid::solve`] iterates on) — public so escalation
    /// policies and diagnostics can measure residuals without a solve.
    pub fn apply_finest(&self, x: &[f64], y: &mut [f64]) {
        self.apply(0, x, y);
    }

    /// One V-cycle as a preconditioner application: `z ≈ A⁻¹ r` on the
    /// finest level, starting from zero.
    pub fn precondition(&self, r: &[f64], z: &mut [f64]) {
        z.iter_mut().for_each(|v| *v = 0.0);
        self.vcycle(0, z, r);
    }

    /// Doubles the pre/post smoothing sweeps: the escalation knob the solve
    /// supervisor turns when the Krylov ladder has failed — more smoothing
    /// buys a stronger (slower) V-cycle without rebuilding the hierarchy.
    pub fn tighten_smoothing(&mut self) {
        self.nu_pre *= 2;
        self.nu_post *= 2;
    }

    pub fn finest(&self) -> &Mesh<DIM> {
        &self.levels[0].mesh
    }

    /// Bytes the hierarchy keeps resident: every level's mesh, mask,
    /// diagonal and transfer, plus the dense coarse LU (`n²` factors).
    /// Smoother scratch is not counted.
    pub fn resident_bytes(&self) -> usize {
        let levels: usize = self
            .levels
            .iter()
            .map(|l| {
                let m = &l.mesh;
                let transfer = l.from_coarser.as_ref().map_or(0, |t| {
                    t.rows.len() * size_of::<Vec<(u32, f64)>>()
                        + t.rows.iter().map(Vec::len).sum::<usize>() * size_of::<(u32, f64)>()
                });
                m.elems.len() * size_of::<carve_sfc::Octant<DIM>>()
                    + m.labels.len() * size_of::<carve_geom::RegionLabel>()
                    + m.nodes.coords.len()
                        * (size_of::<[u64; DIM]>() + size_of::<carve_core::NodeFlags>())
                    + l.constrained.len()
                    + l.inv_diag.len() * size_of::<f64>()
                    + transfer
            })
            .sum();
        let n = self.coarse_lu.n();
        levels + n * n * size_of::<f64>() + n * size_of::<usize>() + self.coarse_constrained.len()
    }

    /// Applies the constrained operator at level `l` (matrix-free traversal;
    /// constrained rows act as identity).
    fn apply(&self, l: usize, x: &[f64], y: &mut [f64]) {
        let lev = &self.levels[l];
        y.iter_mut().for_each(|v| *v = 0.0);
        let mut guard = self.work.lock().unwrap_or_else(|e| e.into_inner());
        let MgWork { kernel, ws, xf } = &mut *guard;
        // Zero constrained inputs so they don't pollute interior rows, then
        // emit identity on constrained rows.
        xf.clear();
        xf.extend_from_slice(x);
        for (i, &c) in lev.constrained.iter().enumerate() {
            if c {
                xf[i] = 0.0;
            }
        }
        traversal_matvec_ws(
            &lev.mesh.elems,
            0..lev.mesh.elems.len(),
            lev.mesh.curve,
            &lev.mesh.nodes,
            xf,
            y,
            &mut ws[l],
            kernel,
        );
        drop(guard);
        for (i, &c) in lev.constrained.iter().enumerate() {
            if c {
                y[i] = x[i];
            }
        }
    }

    /// Damped-Jacobi smoothing sweeps: `x += ω D⁻¹ (b − A x)`.
    fn smooth(&self, l: usize, x: &mut [f64], b: &[f64], sweeps: usize) {
        let n = x.len();
        let mut ax = vec![0.0; n];
        for _ in 0..sweeps {
            self.apply(l, x, &mut ax);
            for i in 0..n {
                x[i] += self.omega * self.levels[l].inv_diag[i] * (b[i] - ax[i]);
            }
        }
    }

    /// One V-cycle at level `l` for `A x = b`.
    fn vcycle(&self, l: usize, x: &mut [f64], b: &[f64]) {
        if l == self.levels.len() - 1 {
            let mut sol = b.to_vec();
            for (i, &c) in self.coarse_constrained.iter().enumerate() {
                if c {
                    sol[i] = b[i];
                }
            }
            self.coarse_lu.solve(&mut sol);
            x.copy_from_slice(&sol);
            return;
        }
        self.smooth(l, x, b, self.nu_pre);
        // Residual, restricted to the coarser level.
        let n = x.len();
        let mut r = vec![0.0; n];
        self.apply(l, x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        // Constrained rows carry no residual.
        for (i, &c) in self.levels[l].constrained.iter().enumerate() {
            if c {
                r[i] = 0.0;
            }
        }
        let transfer = self.levels[l].from_coarser.as_ref().expect("transfer");
        let nc = transfer.n_coarse;
        let mut rc = vec![0.0; nc];
        transfer.restrict(&r, &mut rc);
        for (i, &c) in self.levels[l + 1].constrained.iter().enumerate() {
            if c {
                rc[i] = 0.0;
            }
        }
        let mut ec = vec![0.0; nc];
        self.vcycle(l + 1, &mut ec, &rc);
        for (i, &c) in self.levels[l + 1].constrained.iter().enumerate() {
            if c {
                ec[i] = 0.0;
            }
        }
        transfer.prolong(&ec, x);
        self.smooth(l, x, b, self.nu_post);
    }

    /// Solves `A x = b` on the finest level with V-cycle-preconditioned CG.
    /// Dirichlet values must already sit in `b` at constrained nodes.
    pub fn solve(&self, b: &[f64], x: &mut [f64], rtol: f64, max_iter: usize) -> KrylovResult {
        self.solve_with(b, x, rtol, max_iter, &carve_la::LocalReduce)
    }

    /// [`Multigrid::solve`] with an explicit [`carve_la::Reduce`] backend:
    /// the outer CG's per-iteration inner products ride the backend's fused
    /// batches (`(p·Ap)` and the paired `(r·z, r·r)` — 2 rounds per
    /// iteration instead of 3 unfused), so a distributed or counting
    /// reducer sees the preconditioned cycle's reduction discipline
    /// directly. With [`carve_la::LocalReduce`] this is bitwise identical
    /// to [`Multigrid::solve`].
    pub fn solve_with(
        &self,
        b: &[f64],
        x: &mut [f64],
        rtol: f64,
        max_iter: usize,
        rd: &dyn carve_la::Reduce,
    ) -> KrylovResult {
        struct MgOp<'a, const DIM: usize>(&'a Multigrid<DIM>);
        impl<'a, const DIM: usize> carve_la::LinOp for MgOp<'a, DIM> {
            fn size(&self) -> usize {
                self.0.levels[0].mesh.num_dofs()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.0.apply(0, x, y);
            }
        }
        struct MgPre<'a, const DIM: usize>(&'a Multigrid<DIM>);
        impl<'a, const DIM: usize> carve_la::Precond for MgPre<'a, DIM> {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                z.iter_mut().for_each(|v| *v = 0.0);
                self.0.vcycle(0, z, r);
            }
        }
        let opts = carve_la::SolveOpts {
            reduce: rd,
            ..carve_la::SolveOpts::new(rtol, 1e-14, max_iter)
        };
        carve_la::cg(&MgOp(self), b, x, &MgPre(self), opts)
    }
}

impl<const DIM: usize> crate::solver::EscalatedSolver for Multigrid<DIM> {
    fn tighten(&mut self) {
        self.tighten_smoothing();
    }

    fn solve_escalated(
        &self,
        b: &[f64],
        x: &mut [f64],
        rtol: f64,
        max_iter: usize,
    ) -> KrylovResult {
        self.solve(b, x, rtol, max_iter)
    }
}

/// Convenience: multigrid-preconditioned CG for `−Δu = f` with zero
/// Dirichlet data on the selected boundary. Returns (solution, report,
/// levels).
#[allow(clippy::too_many_arguments)]
pub fn mg_pcg<const DIM: usize>(
    domain: &dyn Subdomain<DIM>,
    base: u8,
    boundary: u8,
    min_level: u8,
    order: u64,
    scale: f64,
    f: &dyn Fn(&[f64; DIM]) -> f64,
    rtol: f64,
) -> (Multigrid<DIM>, Vec<f64>, KrylovResult) {
    let constrain = |fl: carve_core::NodeFlags| fl.is_any_boundary();
    let mg = Multigrid::new(domain, base, boundary, min_level, order, scale, &constrain);
    let mesh = mg.finest();
    let n = mesh.num_dofs();
    let mut rhs = vec![0.0; n];
    let p = order as usize;
    let npe = carve_core::nodes::nodes_per_elem::<DIM>(order);
    for e in &mesh.elems {
        let (emin_u, h_u) = e.bounds_unit();
        let mut emin = [0.0; DIM];
        for k in 0..DIM {
            emin[k] = emin_u[k] * scale;
        }
        let local = crate::poisson::load_vector::<DIM>(p, &emin, h_u * scale, f, p + 2);
        for (lin, &lv) in local.iter().enumerate().take(npe) {
            let idx = carve_core::nodes::lattice_index::<DIM>(lin, order);
            let c = carve_core::nodes::elem_node_coord(e, order, &idx);
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
    for (i, r) in rhs.iter_mut().enumerate() {
        if mesh.nodes.flags[i].is_any_boundary() {
            *r = 0.0;
        }
    }
    let mut x = vec![0.0; n];
    let rep = mg.solve(&rhs, &mut x, rtol, 200);
    (mg, x, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_geom::{FullDomain, RetainSolid, Sphere};
    use std::f64::consts::PI;

    #[test]
    fn transfer_reproduces_linears() {
        // Interpolating a linear function from coarse to fine is exact.
        let domain = FullDomain;
        let coarse = Mesh::<2>::build(&domain, carve_sfc::Curve::Hilbert, 3, 3, 1);
        let fine = Mesh::<2>::build(&domain, carve_sfc::Curve::Hilbert, 4, 4, 1);
        let t = build_transfer(&coarse, &fine);
        let lin = |x: &[f64; 2]| 1.5 * x[0] - 0.7 * x[1] + 0.3;
        let uc: Vec<f64> = (0..coarse.num_dofs())
            .map(|i| lin(&coarse.nodes.unit_coords(i)))
            .collect();
        let mut uf = vec![0.0; fine.num_dofs()];
        t.prolong(&uc, &mut uf);
        for (i, &ufi) in uf.iter().enumerate() {
            let want = lin(&fine.nodes.unit_coords(i));
            assert!((ufi - want).abs() < 1e-12, "node {i}: {ufi} vs {want}");
        }
    }

    #[test]
    fn transfer_partition_of_unity() {
        // Rows sum to 1 (interpolation of constants).
        let disk = RetainSolid::new(Sphere::<2>::new([0.5, 0.5], 0.4));
        let coarse = Mesh::build(&disk, carve_sfc::Curve::Morton, 4, 4, 1);
        let fine = Mesh::build(&disk, carve_sfc::Curve::Morton, 4, 5, 1);
        let t = build_transfer(&coarse, &fine);
        for (i, row) in t.rows.iter().enumerate() {
            let s: f64 = row.iter().map(|e| e.1).sum();
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
    }

    #[test]
    fn vcycle_reduces_residual_monotonically() {
        let domain = FullDomain;
        let constrain = |fl: carve_core::NodeFlags| fl.is_any_boundary();
        let mg = Multigrid::<2>::new(&domain, 4, 4, 2, 1, 1.0, &constrain);
        assert!(mg.num_levels() >= 2);
        let n = mg.finest().num_dofs();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                if mg.finest().nodes.flags[i].is_any_boundary() {
                    0.0
                } else {
                    (i as f64 * 0.31).sin()
                }
            })
            .collect();
        let mut x = vec![0.0; n];
        let mut res_prev = f64::INFINITY;
        for _ in 0..4 {
            mg.vcycle(0, &mut x, &b);
            let mut ax = vec![0.0; n];
            mg.apply(0, &x, &mut ax);
            let res: f64 = ax
                .iter()
                .zip(&b)
                .map(|(a, bb)| (a - bb) * (a - bb))
                .sum::<f64>()
                .sqrt();
            assert!(res < 0.6 * res_prev, "V-cycle stalled: {res} vs {res_prev}");
            res_prev = res;
        }
    }

    /// Dots-round wrapper for asserting the outer CG's fusion discipline.
    struct CountingReduce {
        calls: std::cell::RefCell<usize>,
        pairs: std::cell::RefCell<usize>,
    }

    impl carve_la::Reduce for CountingReduce {
        fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
            *self.calls.borrow_mut() += 1;
            *self.pairs.borrow_mut() += pairs.len();
            carve_la::LocalReduce.dots(pairs, out);
        }
    }

    fn smoke_mg_problem() -> (Multigrid<2>, Vec<f64>) {
        let domain = FullDomain;
        let constrain = |fl: carve_core::NodeFlags| fl.is_any_boundary();
        let mg = Multigrid::<2>::new(&domain, 4, 4, 2, 1, 1.0, &constrain);
        let n = mg.finest().num_dofs();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                if mg.finest().nodes.flags[i].is_any_boundary() {
                    0.0
                } else {
                    (i as f64 * 0.31).sin()
                }
            })
            .collect();
        (mg, b)
    }

    #[test]
    fn solve_with_issues_two_fused_batches_per_iteration() {
        // The MG-preconditioned outer CG must pay exactly 2 reduction
        // rounds per iteration (p·Ap, then the fused (r·z, r·r) pair) plus
        // 2 setup rounds — the ROADMAP item-2 fusion contract — and stay
        // bitwise identical to the LocalReduce path of `solve`.
        let (mg, b) = smoke_mg_problem();
        let n = b.len();
        let iters = 5;

        let mut x_plain = vec![0.0; n];
        mg.solve(&b, &mut x_plain, 0.0, iters);

        let rd = CountingReduce {
            calls: std::cell::RefCell::new(0),
            pairs: std::cell::RefCell::new(0),
        };
        let mut x = vec![0.0; n];
        let res = mg.solve_with(&b, &mut x, 0.0, iters, &rd);
        assert_eq!(res.iterations, iters);
        assert_eq!(*rd.calls.borrow(), 2 + 2 * iters);
        // bnorm (1 pair) + init (2) + per iteration pap (1) + rz/rr (2).
        assert_eq!(*rd.pairs.borrow(), 3 + 3 * iters);
        for (a, bb) in x.iter().zip(&x_plain) {
            assert_eq!(a.to_bits(), bb.to_bits());
        }
    }

    #[test]
    fn solve_with_fused_reduce_records_saved_rounds() {
        // Through `carve_core::FusedReduce` the same solve records the
        // rounds fusion saved: one per 2-pair batch = max_iter + 1.
        let (mg, b) = smoke_mg_problem();
        let iters = 5;
        let snap = std::thread::spawn(move || {
            let _on = carve_obs::force_enabled();
            let mut x = vec![0.0; b.len()];
            mg.solve_with(
                &b,
                &mut x,
                0.0,
                iters,
                &carve_core::FusedReduce(&carve_la::LocalReduce),
            );
            carve_obs::thread_snapshot()
        })
        .join()
        .unwrap();
        let fused: u64 = snap
            .phases
            .values()
            .filter_map(|st| st.counters.get("reductions_fused"))
            .sum();
        assert_eq!(fused as usize, iters + 1);
    }

    #[test]
    fn mg_pcg_iterations_are_h_independent() {
        // The multigrid payoff: iteration counts stay ~constant as the mesh
        // refines (plain CG grows like 1/h).
        let f = |x: &[f64; 2]| (PI * x[0]).sin() * (PI * x[1]).sin();
        let mut iters = Vec::new();
        for lvl in [4u8, 5, 6] {
            let domain = FullDomain;
            let (_, _, rep) = mg_pcg(&domain, lvl, lvl, 2, 1, 1.0, &f, 1e-8);
            assert!(rep.converged, "{rep:?}");
            iters.push(rep.iterations);
        }
        assert!(
            iters[2] <= iters[0] + 4,
            "iterations must not grow with refinement: {iters:?}"
        );
        assert!(iters[2] < 25, "MG-PCG should converge fast: {iters:?}");
    }

    #[test]
    fn mg_pcg_on_carved_disk() {
        // Multigrid on an *incomplete* hierarchy: the disk domain.
        let disk = RetainSolid::new(Sphere::<2>::new([0.5, 0.5], 0.45));
        let one = |_: &[f64; 2]| 1.0;
        let (mg, x, rep) = mg_pcg(&disk, 5, 5, 3, 1, 1.0, &one, 1e-8);
        assert!(rep.converged, "{rep:?}");
        assert!(rep.iterations < 40, "iters {}", rep.iterations);
        // Solution is positive inside, zero-ish at the boundary nodes.
        let mesh = mg.finest();
        let mut interior_max = 0.0f64;
        for (i, &xi) in x.iter().enumerate() {
            if !mesh.nodes.flags[i].is_any_boundary() {
                interior_max = interior_max.max(xi);
            } else {
                assert!(xi.abs() < 1e-9);
            }
        }
        assert!(interior_max > 0.0);
    }
}
