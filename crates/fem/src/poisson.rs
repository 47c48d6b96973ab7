//! Elemental operators for the Poisson problem on axis-aligned cube
//! elements: reference stiffness/mass matrices, per-order caches, load
//! vectors, and the sum-factorized (tensor) stiffness application whose
//! `O(d(p+1)^{d+1})` complexity the paper quotes for its MATVEC.

use crate::basis::Tabulated;
use carve_core::{AssemblyKernel, LeafKernel};
use carve_la::DenseMatrix;
use carve_sfc::{Octant, MAX_LEVEL};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Process-wide memo of reference stiffness/mass pairs keyed `(DIM, p)`.
/// Building them is `O(npe² · nq^DIM)` quadrature work — far more than the
/// `O(npe²)` clone a cache hit costs — and solver loops construct
/// [`ElementCache`]s freely (multigrid levels, per-thread kernel factories),
/// so the first construction pays and every later one copies.
type RefOpsMemo = Mutex<HashMap<(usize, usize), (DenseMatrix, DenseMatrix)>>;

fn ref_ops_memo() -> &'static RefOpsMemo {
    static MEMO: OnceLock<RefOpsMemo> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Memoized [`Tabulated::new`] (keyed `(p, nq)`): quadrature abscissae and
/// basis tabulations are tiny but rebuilt per element by [`load_vector`],
/// which is quadratic-cost noise once meshes reach bench sizes.
pub(crate) fn tabulated_memo(p: usize, nq: usize) -> Tabulated {
    static MEMO: OnceLock<Mutex<HashMap<(usize, usize), Tabulated>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let mut m = memo.lock().unwrap_or_else(|e| e.into_inner());
    m.entry((p, nq))
        .or_insert_with(|| Tabulated::new(p, nq))
        .clone()
}

/// Number of element nodes for order `p` in `DIM` dimensions.
#[inline]
pub fn npe<const DIM: usize>(p: usize) -> usize {
    (p + 1).pow(DIM as u32)
}

fn lattice<const DIM: usize>(linear: usize, base: usize) -> [usize; DIM] {
    let mut rem = linear;
    let mut idx = [0usize; DIM];
    for slot in idx.iter_mut() {
        *slot = rem % base;
        rem /= base;
    }
    idx
}

/// Reference stiffness matrix on `\[0,1\]^DIM`:
/// `K[i][j] = ∫ ∇φ_i · ∇φ_j`. Physical stiffness is `h^{DIM-2} · K`.
pub fn reference_stiffness<const DIM: usize>(p: usize) -> DenseMatrix {
    let tab = tabulated_memo(p, p + 1);
    let n = npe::<DIM>(p);
    let nq1 = tab.nq;
    let nqs = nq1.pow(DIM as u32);
    let mut k = DenseMatrix::zeros(n, n);
    for qlin in 0..nqs {
        let q = lattice::<DIM>(qlin, nq1);
        let mut w = 1.0;
        for &qk in &q {
            w *= tab.quad.weights[qk];
        }
        for i in 0..n {
            let li = lattice::<DIM>(i, p + 1);
            for j in 0..n {
                let lj = lattice::<DIM>(j, p + 1);
                let mut dot = 0.0;
                for axis in 0..DIM {
                    let mut gi = 1.0;
                    let mut gj = 1.0;
                    for m in 0..DIM {
                        if m == axis {
                            gi *= tab.deriv(q[m], li[m]);
                            gj *= tab.deriv(q[m], lj[m]);
                        } else {
                            gi *= tab.basis(q[m], li[m]);
                            gj *= tab.basis(q[m], lj[m]);
                        }
                    }
                    dot += gi * gj;
                }
                k[(i, j)] += w * dot;
            }
        }
    }
    k
}

/// Reference mass matrix on `\[0,1\]^DIM` (physical: `h^DIM · M`).
pub fn reference_mass<const DIM: usize>(p: usize) -> DenseMatrix {
    let tab = tabulated_memo(p, p + 1);
    let n = npe::<DIM>(p);
    let nq1 = tab.nq;
    let nqs = nq1.pow(DIM as u32);
    let mut mm = DenseMatrix::zeros(n, n);
    for qlin in 0..nqs {
        let q = lattice::<DIM>(qlin, nq1);
        let mut w = 1.0;
        for &qk in &q {
            w *= tab.quad.weights[qk];
        }
        for i in 0..n {
            let li = lattice::<DIM>(i, p + 1);
            let mut bi = 1.0;
            for m in 0..DIM {
                bi *= tab.basis(q[m], li[m]);
            }
            for j in 0..n {
                let lj = lattice::<DIM>(j, p + 1);
                let mut bj = 1.0;
                for m in 0..DIM {
                    bj *= tab.basis(q[m], lj[m]);
                }
                mm[(i, j)] += w * bi * bj;
            }
        }
    }
    mm
}

/// Cache of reference operators for one (dimension, order): every element of
/// side `h` shares them up to a power of `h`. Construction hits the
/// process-wide reference-operator memo, so `new` is cheap after the first
/// call per `(DIM, p)` — worker-thread kernel factories and multigrid
/// levels can build their own without re-running quadrature.
#[derive(Clone)]
pub struct ElementCache<const DIM: usize> {
    pub p: usize,
    pub kref: DenseMatrix,
    pub mref: DenseMatrix,
    tab: Tabulated,
    /// SoA panel scratch for the panel applies (`npe × batch`), grown on
    /// demand and reused across panels.
    panel_a: Vec<f64>,
    panel_b: Vec<f64>,
    panel_g: Vec<f64>,
}

impl<const DIM: usize> ElementCache<DIM> {
    pub fn new(p: usize) -> Self {
        let (kref, mref) = {
            let mut memo = ref_ops_memo().lock().unwrap_or_else(|e| e.into_inner());
            memo.entry((DIM, p))
                .or_insert_with(|| (reference_stiffness::<DIM>(p), reference_mass::<DIM>(p)))
                .clone()
        };
        Self {
            p,
            kref,
            mref,
            tab: tabulated_memo(p, p + 1),
            panel_a: Vec::new(),
            panel_b: Vec::new(),
            panel_g: Vec::new(),
        }
    }

    fn ensure_panel_scratch(&mut self, n: usize) {
        if self.panel_a.len() < n {
            self.panel_a.resize(n, 0.0);
            self.panel_b.resize(n, 0.0);
            self.panel_g.resize(n, 0.0);
        }
    }

    /// Physical stiffness matrix for an element of side `h`.
    pub fn stiffness(&self, h: f64) -> DenseMatrix {
        let scale = h.powi(DIM as i32 - 2);
        let mut k = self.kref.clone();
        for v in k.data.iter_mut() {
            *v *= scale;
        }
        k
    }

    /// Physical mass matrix for an element of side `h`.
    pub fn mass(&self, h: f64) -> DenseMatrix {
        let scale = h.powi(DIM as i32);
        let mut m = self.mref.clone();
        for v in m.data.iter_mut() {
            *v *= scale;
        }
        m
    }

    /// Dense stiffness apply `v += h^{d-2} K_ref u` (2·npe² flops).
    pub fn apply_stiffness_dense(&self, h: f64, u: &[f64], v: &mut [f64]) {
        let scale = h.powi(DIM as i32 - 2);
        let n = u.len();
        for (i, vi) in v.iter_mut().enumerate().take(n) {
            let row = &self.kref.data[i * n..(i + 1) * n];
            let mut s = 0.0;
            for (a, b) in row.iter().zip(u) {
                s += a * b;
            }
            *vi += scale * s;
        }
    }

    /// Sum-factorized stiffness apply on one element:
    /// `v += h^{d-2} Σ_k C_kᵀ (W ∘ C_k u)` where `C_k` differentiates along
    /// axis `k` at the tensor quadrature points — `O(d²(p+1)^{d+1})` work
    /// instead of `O((p+1)^{2d})`. A width-1
    /// [`Self::apply_stiffness_tensor_batched`].
    pub fn apply_stiffness_tensor(&mut self, h: f64, u: &[f64], v: &mut [f64]) {
        self.apply_stiffness_tensor_batched(h.powi(DIM as i32 - 2), 1, u, v)
    }

    /// Sum-factorized stiffness apply `v += scale · Σ_k C_kᵀ (W ∘ C_k u)`
    /// over an SoA panel of `batch` same-scale elements: node `lin` of
    /// element `b` lives at `[lin * batch + b]`. The contractions run with
    /// the element lane as the contiguous inner dimension
    /// (`contract_axis_batch`), so the inner loops auto-vectorize on stable
    /// Rust while each element's floating-point operation sequence does not
    /// depend on `batch` — every panel width agrees bitwise.
    pub fn apply_stiffness_tensor_batched(
        &mut self,
        scale: f64,
        batch: usize,
        u: &[f64],
        v: &mut [f64],
    ) {
        let p = self.p;
        let nb = p + 1;
        let n = nb.pow(DIM as u32);
        let nt = n * batch;
        debug_assert_eq!(u.len(), nt);
        debug_assert_eq!(v.len(), nt);
        self.ensure_panel_scratch(nt);
        for axis in 0..DIM {
            self.panel_a[..nt].copy_from_slice(u);
            for m in 0..DIM {
                contract_axis_batch::<DIM>(
                    &self.panel_a,
                    &mut self.panel_b,
                    if m == axis { &self.tab.g } else { &self.tab.b },
                    nb,
                    m,
                    false,
                    batch,
                );
                std::mem::swap(&mut self.panel_a, &mut self.panel_b);
            }
            // Quadrature weights at tensor points, one weight per point
            // broadcast across the element lanes.
            for ql in 0..n {
                let q = lattice::<DIM>(ql, nb);
                let mut w = 1.0;
                for &qk in &q {
                    w *= self.tab.quad.weights[qk];
                }
                for b in 0..batch {
                    self.panel_g[ql * batch + b] = w * self.panel_a[ql * batch + b];
                }
            }
            self.panel_a[..nt].copy_from_slice(&self.panel_g[..nt]);
            for m in 0..DIM {
                contract_axis_batch::<DIM>(
                    &self.panel_a,
                    &mut self.panel_b,
                    if m == axis { &self.tab.g } else { &self.tab.b },
                    nb,
                    m,
                    true,
                    batch,
                );
                std::mem::swap(&mut self.panel_a, &mut self.panel_b);
            }
            for (vi, &si) in v.iter_mut().zip(&self.panel_a[..nt]) {
                *vi += scale * si;
            }
        }
    }

    /// Dense mass apply `v += scale · M_ref u` (row dots) over an SoA panel
    /// (the dense fallback for operators without a tensor form). Bitwise
    /// equal per element for every panel width.
    pub fn apply_mass_batched(&mut self, scale: f64, batch: usize, u: &[f64], v: &mut [f64]) {
        let n = u.len() / batch.max(1);
        self.ensure_panel_scratch(batch);
        for i in 0..n {
            let row = &self.mref.data[i * n..(i + 1) * n];
            let acc = &mut self.panel_g[..batch];
            acc.iter_mut().for_each(|a| *a = 0.0);
            for (j, m) in row.iter().enumerate() {
                let uj = &u[j * batch..(j + 1) * batch];
                for (a, x) in acc.iter_mut().zip(uj) {
                    *a += m * x;
                }
            }
            for (b, &a) in acc.iter().enumerate() {
                v[i * batch + b] += scale * a;
            }
        }
    }

    /// Fused backward-Euler heat apply `v += hm·M_ref u + hk·K_ref u` (row
    /// dots, one pass) over an SoA panel. Bitwise equal per element for
    /// every panel width (independent accumulators added in row order).
    pub fn apply_heat_batched(&mut self, hm: f64, hk: f64, batch: usize, u: &[f64], v: &mut [f64]) {
        let n = u.len() / batch.max(1);
        self.ensure_panel_scratch(2 * batch);
        let (accm, rest) = self.panel_g.split_at_mut(batch);
        let acck = &mut rest[..batch];
        for i in 0..n {
            let mrow = &self.mref.data[i * n..(i + 1) * n];
            let krow = &self.kref.data[i * n..(i + 1) * n];
            accm.iter_mut().for_each(|a| *a = 0.0);
            acck.iter_mut().for_each(|a| *a = 0.0);
            for (j, (m, k)) in mrow.iter().zip(krow).enumerate() {
                let uj = &u[j * batch..(j + 1) * batch];
                for (a, x) in accm.iter_mut().zip(uj) {
                    *a += m * x;
                }
                for (a, x) in acck.iter_mut().zip(uj) {
                    *a += k * x;
                }
            }
            for b in 0..batch {
                v[i * batch + b] += hm * accm[b] + hk * acck[b];
            }
        }
    }
}

/// Contracts axis `m` of a `DIM`-dimensional tensor (extent `nb` per axis,
/// x-fastest layout) with the `nb × nb` matrix `mat[q*nb + j]`
/// (`transpose = true` applies `matᵀ`). The tensor carries a trailing
/// contiguous element lane of width `batch` (`position = tensor_index *
/// batch + b`), so the effective stride of axis `m` is `nb^m · batch` and
/// the innermost loop runs over `stride` contiguous positions — a
/// multiply-add the compiler auto-vectorizes. Each output position
/// accumulates its `in_d` products in `in_d` order whatever `batch` is.
fn contract_axis_batch<const DIM: usize>(
    input: &[f64],
    output: &mut [f64],
    mat: &[f64],
    nb: usize,
    m: usize,
    transpose: bool,
    batch: usize,
) {
    let n = nb.pow(DIM as u32) * batch;
    let stride = nb.pow(m as u32) * batch;
    output[..n].iter_mut().for_each(|x| *x = 0.0);
    let block = stride * nb;
    let mut base = 0;
    while base < n {
        for out_d in 0..nb {
            let orow = base + out_d * stride;
            for in_d in 0..nb {
                let m_entry = if transpose {
                    mat[in_d * nb + out_d]
                } else {
                    mat[out_d * nb + in_d]
                };
                let irow = base + in_d * stride;
                let (iseg, oseg) = (
                    &input[irow..irow + stride],
                    &mut output[orow..orow + stride],
                );
                for (o, x) in oseg.iter_mut().zip(iseg) {
                    *o += m_entry * x;
                }
            }
        }
        base += block;
    }
}

/// Elemental load vector `∫ φ_i f dx` for an element with physical minimum
/// corner `min` and side `h`, using an `nq`-point tensor Gauss rule.
pub fn load_vector<const DIM: usize>(
    p: usize,
    min: &[f64; DIM],
    h: f64,
    f: &dyn Fn(&[f64; DIM]) -> f64,
    nq: usize,
) -> Vec<f64> {
    let tab = tabulated_memo(p, nq.max(p + 1));
    let quad = &tab.quad;
    let n = npe::<DIM>(p);
    let nq1 = quad.points.len();
    let nqs = nq1.pow(DIM as u32);
    let mut out = vec![0.0; n];
    let vol = h.powi(DIM as i32);
    for qlin in 0..nqs {
        let q = lattice::<DIM>(qlin, nq1);
        let mut w = 1.0;
        let mut x = [0.0; DIM];
        for k in 0..DIM {
            w *= quad.weights[q[k]];
            x[k] = min[k] + h * quad.points[q[k]];
        }
        let fx = f(&x);
        for (i, oi) in out.iter_mut().enumerate().take(n) {
            let li = lattice::<DIM>(i, p + 1);
            let mut bi = 1.0;
            for k in 0..DIM {
                bi *= tab.basis(q[k], li[k]);
            }
            *oi += vol * w * fx * bi;
        }
    }
    out
}

/// Stiffness matrix of a *stretched* (anisotropic) brick element with side
/// `h[k]` along axis `k` — what complete-octree codes must use when a
/// coordinate transform squeezes the cube onto an elongated channel, and
/// the cause of the condition-number blowup in Table 1.
pub fn stiffness_matrix_anisotropic<const DIM: usize>(p: usize, h: &[f64; DIM]) -> DenseMatrix {
    let tab = tabulated_memo(p, p + 1);
    let n = npe::<DIM>(p);
    let nq1 = tab.nq;
    let nqs = nq1.pow(DIM as u32);
    let vol: f64 = h.iter().product();
    let mut k = DenseMatrix::zeros(n, n);
    for qlin in 0..nqs {
        let q = lattice::<DIM>(qlin, nq1);
        let mut w = 1.0;
        for &qk in &q {
            w *= tab.quad.weights[qk];
        }
        for i in 0..n {
            let li = lattice::<DIM>(i, p + 1);
            for j in 0..n {
                let lj = lattice::<DIM>(j, p + 1);
                let mut dot = 0.0;
                for (axis, &ha) in h.iter().enumerate().take(DIM) {
                    let mut gi = 1.0;
                    let mut gj = 1.0;
                    for m in 0..DIM {
                        if m == axis {
                            gi *= tab.deriv(q[m], li[m]);
                            gj *= tab.deriv(q[m], lj[m]);
                        } else {
                            gi *= tab.basis(q[m], li[m]);
                            gj *= tab.basis(q[m], lj[m]);
                        }
                    }
                    // Physical gradients pick up 1/h_axis each.
                    dot += gi * gj / (ha * ha);
                }
                k[(i, j)] += w * vol * dot;
            }
        }
    }
    k
}

/// Convenience free functions mirroring the cache methods.
pub fn stiffness_matrix<const DIM: usize>(p: usize, h: f64) -> DenseMatrix {
    ElementCache::<DIM>::new(p).stiffness(h)
}

pub fn mass_matrix<const DIM: usize>(p: usize, h: f64) -> DenseMatrix {
    ElementCache::<DIM>::new(p).mass(h)
}

// --- Per-level geometric factors -------------------------------------------
//
// Octants are axis-aligned cubes, so the element size `h` — and with it every
// geometric factor the Poisson operators need — is a pure function of the
// octant's refinement level: `h(l) = scale / 2^l` exactly in f64 (power-of-two
// division is exact). Precomputing the `h^{DIM-2}` stiffness and `h^DIM` mass
// scales once per table therefore yields values bitwise identical to calling
// `bounds_unit().1 * scale` and `powi` per leaf, while removing that work from
// the innermost traversal loop.

/// Table of per-level geometric scale factors for a `DIM`-dimensional mesh
/// with domain scale `scale` (physical root side length).
#[derive(Debug, Clone)]
pub struct LevelScales {
    h: [f64; MAX_LEVEL as usize + 1],
    stiff: [f64; MAX_LEVEL as usize + 1],
    mass: [f64; MAX_LEVEL as usize + 1],
}

impl LevelScales {
    /// Build the table. Each entry is computed exactly as the per-leaf code
    /// did (`bounds_unit().1 * scale`, then `powi`), so substituting a table
    /// lookup for the inline computation preserves every bit.
    pub fn new<const DIM: usize>(scale: f64) -> Self {
        let mut h = [0.0; MAX_LEVEL as usize + 1];
        let mut stiff = [0.0; MAX_LEVEL as usize + 1];
        let mut mass = [0.0; MAX_LEVEL as usize + 1];
        for l in 0..=MAX_LEVEL as usize {
            let side = Octant::<DIM>::new([0; DIM], l as u8).bounds_unit().1;
            let hl = side * scale;
            h[l] = hl;
            stiff[l] = hl.powi(DIM as i32 - 2);
            mass[l] = hl.powi(DIM as i32);
        }
        Self { h, stiff, mass }
    }

    /// Physical element size at `level`.
    #[inline]
    pub fn h(&self, level: u8) -> f64 {
        self.h[level as usize]
    }

    /// Stiffness scale `h^{DIM-2}` at `level`.
    #[inline]
    pub fn stiffness(&self, level: u8) -> f64 {
        self.stiff[level as usize]
    }

    /// Mass scale `h^DIM` at `level`.
    #[inline]
    pub fn mass(&self, level: u8) -> f64 {
        self.mass[level as usize]
    }
}

// --- Batched leaf kernels ---------------------------------------------------
//
// Kernel structs implementing the traversal engine's `LeafKernel` /
// `AssemblyKernel` traits: runs of same-level SFC-contiguous leaves arrive
// as SoA panels (DESIGN.md §6h) and go to the panel tensor/mass/heat
// applies, whose per-element op sequence does not depend on the width.

/// Stiffness (Poisson) leaf kernel: `v += h^{DIM-2} · K_ref · u`.
pub struct StiffnessKernel<const DIM: usize> {
    cache: ElementCache<DIM>,
    scales: LevelScales,
}

impl<const DIM: usize> StiffnessKernel<DIM> {
    pub fn new(p: usize, scale: f64) -> Self {
        Self {
            cache: ElementCache::new(p),
            scales: LevelScales::new::<DIM>(scale),
        }
    }
}

impl<const DIM: usize> LeafKernel<DIM> for StiffnessKernel<DIM> {
    fn apply(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
        debug_assert!(elems.iter().all(|e| e.level == elems[0].level));
        self.cache.apply_stiffness_tensor_batched(
            self.scales.stiffness(elems[0].level),
            elems.len(),
            u,
            v,
        );
    }
}

/// Mass leaf kernel: `v += h^DIM · M_ref · u`.
pub struct MassKernel<const DIM: usize> {
    cache: ElementCache<DIM>,
    scales: LevelScales,
}

impl<const DIM: usize> MassKernel<DIM> {
    pub fn new(p: usize, scale: f64) -> Self {
        Self {
            cache: ElementCache::new(p),
            scales: LevelScales::new::<DIM>(scale),
        }
    }
}

impl<const DIM: usize> LeafKernel<DIM> for MassKernel<DIM> {
    fn apply(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
        debug_assert!(elems.iter().all(|e| e.level == elems[0].level));
        self.cache
            .apply_mass_batched(self.scales.mass(elems[0].level), elems.len(), u, v);
    }
}

/// Backward-Euler heat leaf kernel: `v += (h^DIM · M + dt · h^{DIM-2} · K) u`,
/// fused so each input value is loaded once per row pair.
pub struct HeatKernel<const DIM: usize> {
    cache: ElementCache<DIM>,
    scales: LevelScales,
    dt: f64,
}

impl<const DIM: usize> HeatKernel<DIM> {
    pub fn new(p: usize, scale: f64, dt: f64) -> Self {
        Self {
            cache: ElementCache::new(p),
            scales: LevelScales::new::<DIM>(scale),
            dt,
        }
    }
}

impl<const DIM: usize> LeafKernel<DIM> for HeatKernel<DIM> {
    fn apply(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
        debug_assert!(elems.iter().all(|e| e.level == elems[0].level));
        let hm = self.scales.mass(elems[0].level);
        let hk = self.dt * self.scales.stiffness(elems[0].level);
        self.cache.apply_heat_batched(hm, hk, elems.len(), u, v);
    }
}

/// Assembly kernel producing the physical stiffness matrix per leaf, with a
/// lazily-built per-level matrix cache: since `h` depends only on `level`,
/// two leaves at the same level share one `DenseMatrix` and
/// [`AssemblyKernel::matrix`] hands the traversal a borrow of it.
pub struct StiffnessMatrixKernel<const DIM: usize> {
    cache: ElementCache<DIM>,
    scales: LevelScales,
    levels: Vec<Option<DenseMatrix>>,
}

impl<const DIM: usize> StiffnessMatrixKernel<DIM> {
    pub fn new(p: usize, scale: f64) -> Self {
        Self {
            cache: ElementCache::new(p),
            scales: LevelScales::new::<DIM>(scale),
            levels: vec![None; MAX_LEVEL as usize + 1],
        }
    }

    /// The shared physical stiffness matrix for `level`, built on first use.
    pub fn level_matrix(&mut self, level: u8) -> &DenseMatrix {
        let slot = &mut self.levels[level as usize];
        if slot.is_none() {
            *slot = Some(self.cache.stiffness(self.scales.h(level)));
        }
        slot.as_ref().unwrap()
    }
}

impl<const DIM: usize> AssemblyKernel<DIM> for StiffnessMatrixKernel<DIM> {
    fn matrix(&mut self, elem: &Octant<DIM>) -> Cow<'_, DenseMatrix> {
        Cow::Borrowed(self.level_matrix(elem.level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stiffness_1d_linear_is_classic() {
        // [1 -1; -1 1] / h in 1D... our DIM >= 2 cases: check 2D p=1 known
        // matrix: K = 1/6 * [[4,-1,-1,-2],[-1,4,-2,-1],[-1,-2,4,-1],[-2,-1,-1,4]].
        let k = reference_stiffness::<2>(1);
        let expect = [
            [4.0, -1.0, -1.0, -2.0],
            [-1.0, 4.0, -2.0, -1.0],
            [-1.0, -2.0, 4.0, -1.0],
            [-2.0, -1.0, -1.0, 4.0],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (k[(i, j)] - expect[i][j] / 6.0).abs() < 1e-13,
                    "K[{i}][{j}] = {}",
                    k[(i, j)]
                );
            }
        }
    }

    #[test]
    fn stiffness_rows_sum_to_zero() {
        // ∇(constant) = 0 ⇒ K·1 = 0.
        for p in [1usize, 2] {
            let k2 = reference_stiffness::<2>(p);
            let k3 = reference_stiffness::<3>(p);
            for (k, n) in [(&k2, npe::<2>(p)), (&k3, npe::<3>(p))] {
                for i in 0..n {
                    let row: f64 = (0..n).map(|j| k[(i, j)]).sum();
                    assert!(row.abs() < 1e-12, "p={p} row {i}: {row}");
                }
            }
        }
    }

    #[test]
    fn mass_total_is_volume() {
        for p in [1usize, 2] {
            let m = reference_mass::<3>(p);
            let n = npe::<3>(p);
            let total: f64 = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| m[(i, j)])
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "p={p}: {total}");
        }
    }

    #[test]
    fn tensor_apply_matches_dense() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        for p in [1usize, 2] {
            let mut cache2 = ElementCache::<2>::new(p);
            let mut cache3 = ElementCache::<3>::new(p);
            for h in [1.0, 0.125] {
                let n2 = npe::<2>(p);
                let u2: Vec<f64> = (0..n2).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut vd = vec![0.0; n2];
                let mut vt = vec![0.0; n2];
                cache2.apply_stiffness_dense(h, &u2, &mut vd);
                cache2.apply_stiffness_tensor(h, &u2, &mut vt);
                for (a, b) in vd.iter().zip(&vt) {
                    assert!((a - b).abs() < 1e-11, "2D p={p}: {a} vs {b}");
                }
                let n3 = npe::<3>(p);
                let u3: Vec<f64> = (0..n3).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut vd = vec![0.0; n3];
                let mut vt = vec![0.0; n3];
                cache3.apply_stiffness_dense(h, &u3, &mut vd);
                cache3.apply_stiffness_tensor(h, &u3, &mut vt);
                for (a, b) in vd.iter().zip(&vt) {
                    assert!((a - b).abs() < 1e-11, "3D p={p}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn load_vector_constant_source_sums_to_volume() {
        let load = load_vector::<3>(2, &[0.0; 3], 0.5, &|_| 1.0, 3);
        let total: f64 = load.iter().sum();
        assert!((total - 0.125).abs() < 1e-13);
        // Linear f integrates exactly too: f = x -> ∫ x over [0,0.5]^3 =
        // 0.5^3 * 0.25 = 0.03125.
        let loadx = load_vector::<3>(2, &[0.0; 3], 0.5, &|x| x[0], 3);
        let total: f64 = loadx.iter().sum();
        assert!((total - 0.03125).abs() < 1e-13);
    }

    #[test]
    fn physical_scaling_powers() {
        // 2D stiffness is h-independent; 3D scales like h.
        let k2a = stiffness_matrix::<2>(1, 1.0);
        let k2b = stiffness_matrix::<2>(1, 0.25);
        assert!((k2a[(0, 0)] - k2b[(0, 0)]).abs() < 1e-14);
        let k3a = stiffness_matrix::<3>(1, 1.0);
        let k3b = stiffness_matrix::<3>(1, 0.5);
        assert!((k3a[(0, 0)] * 0.5 - k3b[(0, 0)]).abs() < 1e-14);
    }

    #[test]
    fn level_scales_match_per_leaf_computation() {
        for scale in [1.0, 2.5, 0.37] {
            let s2 = LevelScales::new::<2>(scale);
            let s3 = LevelScales::new::<3>(scale);
            for l in 0..=MAX_LEVEL {
                let h2 = Octant::<2>::new([0; 2], l).bounds_unit().1 * scale;
                let h3 = Octant::<3>::new([0; 3], l).bounds_unit().1 * scale;
                assert_eq!(s2.h(l).to_bits(), h2.to_bits());
                assert_eq!(s2.stiffness(l).to_bits(), h2.powi(0).to_bits());
                assert_eq!(s2.mass(l).to_bits(), h2.powi(2).to_bits());
                assert_eq!(s3.h(l).to_bits(), h3.to_bits());
                assert_eq!(s3.stiffness(l).to_bits(), h3.powi(1).to_bits());
                assert_eq!(s3.mass(l).to_bits(), h3.powi(3).to_bits());
            }
        }
    }

    /// Runs one width-`batch` panel apply of each operator against `batch`
    /// width-1 panels holding the same per-element data and demands
    /// bitwise equality: results never depend on the panel width.
    fn check_batched_bitwise<const DIM: usize>(p: usize, batch: usize) {
        use rand::{Rng, SeedableRng};
        let mut rng =
            rand_chacha::ChaCha8Rng::seed_from_u64(90 + (DIM * 10 + p) as u64 + batch as u64);
        let n = npe::<DIM>(p);
        let mut cache = ElementCache::<DIM>::new(p);
        // SoA panel: node lin of element b at [lin * batch + b].
        let panel_u: Vec<f64> = (0..n * batch).map(|_| rng.gen_range(-1.0..1.0)).collect();
        type Apply<const D: usize> = dyn Fn(&mut ElementCache<D>, usize, &[f64], &mut [f64]);
        for (scale, hm, hk) in [(1.0, 0.125, 0.03), (0.4782, 2.0, 0.9)] {
            let ops: [(&str, Box<Apply<DIM>>); 3] = [
                (
                    "stiffness",
                    Box::new(move |c, w, u, v| c.apply_stiffness_tensor_batched(scale, w, u, v)),
                ),
                (
                    "mass",
                    Box::new(move |c, w, u, v| c.apply_mass_batched(scale, w, u, v)),
                ),
                (
                    "heat",
                    Box::new(move |c, w, u, v| c.apply_heat_batched(hm, hk, w, u, v)),
                ),
            ];
            for (name, op) in &ops {
                let mut panel_v = vec![0.0; n * batch];
                op(&mut cache, batch, &panel_u, &mut panel_v);
                for b in 0..batch {
                    let u: Vec<f64> = (0..n).map(|lin| panel_u[lin * batch + b]).collect();
                    let mut v = vec![0.0; n];
                    op(&mut cache, 1, &u, &mut v);
                    for (lin, x) in v.iter().enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            panel_v[lin * batch + b].to_bits(),
                            "{name} DIM={DIM} p={p} batch={batch} b={b} lin={lin}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_applies_bitwise_match_scalar() {
        for p in [1usize, 2, 3] {
            for batch in [1usize, 3, 4, 8] {
                check_batched_bitwise::<2>(p, batch);
                check_batched_bitwise::<3>(p, batch);
            }
        }
    }

    #[test]
    fn stiffness_kernel_matches_closure() {
        use carve_core::LeafKernel as _;
        let scale = 1.75;
        let p = 2;
        let mut kern = StiffnessKernel::<3>::new(p, scale);
        let mut cache = ElementCache::<3>::new(p);
        let n = npe::<3>(p);
        let u: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        for level in [0u8, 3, 11] {
            let e = Octant::<3>::new([0; 3], level);
            let mut va = vec![0.0; n];
            let mut vb = vec![0.0; n];
            kern.apply(&[e], &u, &mut va);
            let h = e.bounds_unit().1 * scale;
            cache.apply_stiffness_tensor(h, &u, &mut vb);
            for (a, b) in va.iter().zip(&vb) {
                assert_eq!(a.to_bits(), b.to_bits(), "level {level}");
            }
        }
    }

    #[test]
    fn matrix_kernel_levels_share_storage() {
        use carve_core::AssemblyKernel as _;
        let mut kern = StiffnessMatrixKernel::<3>::new(1, 1.0);
        let e = Octant::<3>::new([0; 3], 4);
        let owned = kern.matrix(&e).into_owned();
        let cache = ElementCache::<3>::new(1);
        let expect = cache.stiffness(LevelScales::new::<3>(1.0).h(4));
        for i in 0..owned.rows {
            for j in 0..owned.rows {
                assert_eq!(owned[(i, j)].to_bits(), expect[(i, j)].to_bits());
            }
        }
        let Cow::Borrowed(r) = kern.matrix(&e) else {
            panic!("level matrix not lent from the cache");
        };
        assert_eq!(r[(0, 0)].to_bits(), owned[(0, 0)].to_bits());
    }
}
