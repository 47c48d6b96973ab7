//! The seam between the benchmark and the program under test.
//!
//! This is the only file that names items of the `carve-*` crates. Workload
//! and metric definitions call the functions below, so when the traversal
//! or Krylov entry points are collapsed (ROADMAP item 2) the follow-up
//! benchmark change edits this file and nothing else moves.
//!
//! Every function here is a direct call into one public function of the
//! workspace with the benchmark's pinned configuration (one traversal
//! thread unless stated, leaf panels of width [`BATCH_WIDTH`], owned-only
//! operator output, identity preconditioner): no logic of the program is
//! re-implemented on this side.

use std::ops::Range;

pub use carve_comm::{Comm, CommStats};
pub use carve_core::{DistMesh, Mesh, NodeSet, TraversalWorkspace};
pub use carve_fem::serve::{ScenarioCache, ScenarioEntry, ScenarioSpec};
pub use carve_geom::Subdomain;
pub use carve_io::Json;
pub use carve_la::{AsmPrecond, CsrMatrix, KrylovResult, Reduce};
pub use carve_obs::{Report as ObsReport, Snapshot as ObsSnapshot};
pub use carve_sfc::{Curve, Octant};

use carve_comm::ReduceOp;
use carve_core::GhostState;
use carve_fem::{BcMode, PoissonProblem, SbmParams, StiffnessKernel, StiffnessMatrixKernel};
use carve_geom::{CarvedSolids, RetainBox, RetainSolid, Solid, Sphere};
use carve_la::{CooBuilder, IdentityPrecond, LinOp, Precond, SolveCheckpoint};

/// Leaf-panel width pinned for every traversal the benchmark drives itself.
pub const BATCH_WIDTH: usize = 8;

// --- Geometry ---------------------------------------------------------------

/// Unit cube with one sphere carved out.
pub fn carved_sphere(center: [f64; 3], radius: f64) -> Box<dyn Subdomain<3>> {
    Box::new(CarvedSolids::new(vec![Box::new(Sphere::new(
        center, radius,
    ))]))
}

/// The retained box `[0, extents]` of the unit cube (§4.5.1 channel).
pub fn channel(extents: [f64; 3]) -> Box<dyn Subdomain<3>> {
    Box::new(RetainBox::channel(extents))
}

/// The Fig. 6 disk: the inside of a circle is retained.
pub struct Disk {
    circle: Sphere<2>,
    pub domain: RetainSolid<2, Sphere<2>>,
}

impl Disk {
    pub fn new(center: [f64; 2], radius: f64) -> Self {
        let circle = Sphere::new(center, radius);
        Self {
            circle,
            domain: RetainSolid::new(circle),
        }
    }
}

/// Region label of one octant against the domain, as a small integer.
pub fn classify<const D: usize>(domain: &dyn Subdomain<D>, oct: &Octant<D>) -> u8 {
    carve_core::classify_octant(domain, oct) as u8
}

// --- Runtime ------------------------------------------------------------------

/// Runs `f` on `ranks` simulated ranks (one OS thread each).
pub fn spmd<R: Send, F: Fn(&Comm) -> R + Send + Sync>(ranks: usize, f: F) -> Vec<R> {
    carve_comm::run_spmd(ranks, f)
}

/// One fused all-reduce of `vals` (the Krylov reduction primitive).
pub fn allreduce_sum(c: &Comm, vals: &[f64]) -> Vec<f64> {
    c.all_reduce_f64_many(vals, ReduceOp::Sum)
}

pub fn barrier(c: &Comm) {
    c.barrier();
}

pub fn rank(c: &Comm) -> usize {
    c.rank()
}

/// Messages, bytes and collective calls of this rank so far.
pub fn comm_stats(c: &Comm) -> CommStats {
    c.stats()
}

// --- Sorting and mesh construction -------------------------------------------

pub fn treesort<const D: usize>(octs: &mut [Octant<D>], curve: Curve) {
    carve_sfc::treesort(octs, curve);
}

pub fn dist_treesort<const D: usize>(
    c: &Comm,
    local: Vec<Octant<D>>,
    curve: Curve,
) -> Vec<Octant<D>> {
    carve_comm::dist_tree_sort(c, local, curve)
}

pub fn construct_constrained<const D: usize>(
    domain: &dyn Subdomain<D>,
    curve: Curve,
    seeds: &[Octant<D>],
) -> Vec<Octant<D>> {
    carve_core::construct_constrained(domain, curve, seeds)
}

pub fn construct_balanced<const D: usize>(
    domain: &dyn Subdomain<D>,
    curve: Curve,
    seeds: &[Octant<D>],
) -> Vec<Octant<D>> {
    carve_core::construct_balanced(domain, curve, seeds)
}

pub fn enumerate_nodes<const D: usize>(
    domain: &dyn Subdomain<D>,
    elems: &[Octant<D>],
    order: u64,
) -> NodeSet<D> {
    carve_core::enumerate_nodes(domain, elems, order)
}

/// Levels and order of one mesh.
#[derive(Clone, Copy, Debug)]
pub struct MeshSpec {
    pub curve: Curve,
    pub base: u8,
    pub boundary: u8,
    pub order: u64,
    /// Physical side of the root cube.
    pub scale: f64,
}

pub fn mesh_build<const D: usize>(domain: &dyn Subdomain<D>, s: &MeshSpec) -> Mesh<D> {
    Mesh::build(domain, s.curve, s.base, s.boundary, s.order)
}

pub fn dist_build<const D: usize>(
    c: &Comm,
    domain: &dyn Subdomain<D>,
    s: &MeshSpec,
) -> DistMesh<D> {
    DistMesh::build(c, domain, s.curve, s.base, s.boundary, s.order)
}

/// Ghost layer, nodes, ownership and exchange plan for leaves that are
/// already balanced and partitioned.
pub fn dist_finish<const D: usize>(
    c: &Comm,
    domain: &dyn Subdomain<D>,
    s: &MeshSpec,
    owned: Vec<Octant<D>>,
) -> DistMesh<D> {
    DistMesh::finish(c, domain, s.curve, owned, s.order)
}

/// Per local node: is it owned by this rank?
pub fn owned_nodes<const D: usize>(dm: &DistMesh<D>, c: &Comm) -> Vec<bool> {
    let me = c.rank() as u32;
    dm.owner.iter().map(|&o| o == me).collect()
}

/// Per node: does it lie on the carved or the cube boundary (Dirichlet)?
pub fn boundary_nodes<const D: usize>(nodes: &NodeSet<D>) -> Vec<bool> {
    nodes.flags.iter().map(|f| f.is_any_boundary()).collect()
}

/// `f` at the unit-cube coordinates of every node.
pub fn field_at_nodes<const D: usize>(
    nodes: &NodeSet<D>,
    f: &dyn Fn(&[f64; D]) -> f64,
) -> Vec<f64> {
    (0..nodes.len()).map(|i| f(&nodes.unit_coords(i))).collect()
}

/// `(owned elements of this rank, global dofs)`.
pub fn dist_counts<const D: usize>(dm: &DistMesh<D>) -> (usize, usize) {
    (dm.num_owned_elems(), dm.n_global_dofs)
}

pub fn dist_nodes<const D: usize>(dm: &DistMesh<D>) -> &NodeSet<D> {
    &dm.nodes
}

pub fn mesh_elems<const D: usize>(mesh: &Mesh<D>) -> &[Octant<D>] {
    &mesh.elems
}

pub fn mesh_nodes<const D: usize>(mesh: &Mesh<D>) -> &NodeSet<D> {
    &mesh.nodes
}

pub fn nnz(a: &CsrMatrix) -> usize {
    a.nnz()
}

/// `(elements, dofs)` of a sequential mesh.
pub fn mesh_counts<const D: usize>(mesh: &Mesh<D>) -> (usize, usize) {
    (mesh.num_elems(), mesh.num_dofs())
}

/// The owned leaves of this rank, in SFC order.
pub fn owned_elems<const D: usize>(dm: &DistMesh<D>) -> Vec<Octant<D>> {
    dm.elems[dm.owned.clone()].to_vec()
}

/// `(ghost nodes, owned nodes, neighbour ranks)` of this rank.
pub fn ghost_counts<const D: usize>(dm: &DistMesh<D>) -> (usize, usize, usize) {
    let g = dm.ghost_stats();
    (g.ghost_nodes, g.owned_nodes, g.neighbors)
}

// --- Operator applies -----------------------------------------------------------

pub fn workspace<const D: usize>(threads: usize) -> TraversalWorkspace<D> {
    TraversalWorkspace::with_threads(threads).with_batch_width(BATCH_WIDTH)
}

/// Distributed stiffness apply `y = A x`, owned entries authoritative.
pub fn dist_apply<const D: usize>(
    dm: &DistMesh<D>,
    c: &Comm,
    x: &[f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<D>,
    scale: f64,
) {
    let p = dm.order as usize;
    let make_kernel = || StiffnessKernel::<D>::new(p, scale);
    dm.matvec_par(c, x, y, ws, GhostState::OwnedOnly, &make_kernel);
}

/// Sequential stiffness apply on a whole mesh (1 rank, 1 thread).
pub fn serial_apply<const D: usize>(
    mesh: &Mesh<D>,
    x: &[f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<D>,
    scale: f64,
) {
    let mut kernel = StiffnessKernel::<D>::new(mesh.order as usize, scale);
    carve_core::traversal_matvec_ws(
        &mesh.elems,
        0..mesh.elems.len(),
        mesh.curve,
        &mesh.nodes,
        x,
        y,
        ws,
        &mut kernel,
    );
}

/// Fork-join stiffness apply on a whole mesh (1 rank, `ws.threads()`).
pub fn forkjoin_apply<const D: usize>(
    mesh: &Mesh<D>,
    x: &[f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<D>,
    scale: f64,
) {
    let p = mesh.order as usize;
    let make_kernel = || StiffnessKernel::<D>::new(p, scale);
    carve_core::traversal_matvec_par(
        &mesh.elems,
        0..mesh.elems.len(),
        mesh.curve,
        &mesh.nodes,
        x,
        y,
        ws,
        &make_kernel,
    );
}

pub fn ghost_read<const D: usize>(dm: &DistMesh<D>, c: &Comm, v: &mut [f64]) -> u64 {
    dm.ghost_read(c, v)
}

pub fn ghost_accumulate<const D: usize>(dm: &DistMesh<D>, c: &Comm, v: &mut [f64]) -> u64 {
    dm.ghost_accumulate(c, v)
}

// --- Krylov ---------------------------------------------------------------------

/// The distributed reduction backend of `dm` (owned-masked dots, one fused
/// all-reduce per batch).
pub fn dist_reducer<'a, const D: usize>(dm: &'a DistMesh<D>, c: &'a Comm) -> impl Reduce + 'a {
    dm.reducer(c)
}

/// Unpreconditioned CG on `apply`, stopping at `‖r‖ ≤ rtol ‖b‖`.
pub fn cg<F: Fn(&[f64], &mut [f64]), R: Reduce>(
    apply: F,
    b: &[f64],
    x: &mut [f64],
    rtol: f64,
    max_iter: usize,
    reduce: &R,
) -> KrylovResult {
    carve_la::cg_with(
        &(b.len(), apply),
        b,
        x,
        &IdentityPrecond,
        rtol,
        0.0,
        max_iter,
        reduce,
    )
}

// --- Assembly and the `la` layer ---------------------------------------------

/// Traversal assembly of the stiffness matrix of `elems` into triplets and
/// then CSR. Returns the matrix and the number of triplets written.
pub fn assemble_stiffness<const D: usize>(
    mesh: &Mesh<D>,
    elems: Range<usize>,
    scale: f64,
) -> (CsrMatrix, usize) {
    let n = mesh.nodes.len();
    let ids: Vec<u32> = (0..n as u32).collect();
    let mut coo = CooBuilder::new(n);
    let mut ws = workspace::<D>(1);
    let mut kernel = StiffnessMatrixKernel::<D>::new(mesh.order as usize, scale);
    carve_core::traversal_assemble_ws(
        &mesh.elems,
        elems,
        mesh.curve,
        &mesh.nodes,
        &ids,
        &mut coo,
        &mut ws,
        &mut kernel,
    );
    let triplets = coo.len();
    (coo.build(), triplets)
}

/// Additive Schwarz with the block count and overlap `solve_poisson` uses.
pub fn asm_precond(a: &CsrMatrix) -> AsmPrecond {
    AsmPrecond::new(a, (a.n / 400).max(2), 8)
}

pub fn precond_apply(m: &AsmPrecond, r: &[f64], z: &mut [f64]) {
    m.apply(r, z);
}

pub fn spmv(a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    LinOp::apply(a, x, y);
}

// --- The leaf kernel ------------------------------------------------------------

/// The batched sum-factorised stiffness kernel on SoA panels.
pub struct LeafPanel<const D: usize> {
    cache: carve_fem::ElementCache<D>,
    order: usize,
}

impl<const D: usize> LeafPanel<D> {
    pub fn new(order: usize) -> Self {
        Self {
            cache: carve_fem::ElementCache::new(order),
            order,
        }
    }

    /// `v += scale · K_ref u` on a panel of `batch` elements.
    pub fn apply(&mut self, scale: f64, batch: usize, u: &[f64], v: &mut [f64]) {
        self.cache
            .apply_stiffness_tensor_batched(scale, batch, u, v);
    }

    pub fn nodes_per_elem(&self) -> usize {
        (self.order + 1).pow(D as u32)
    }

    /// Computed FLOPs of one elemental apply.
    pub fn flops_per_elem(&self) -> u64 {
        carve_fem::flops::tensor_apply_flops(D, self.order)
    }

    /// Computed bytes moved by one elemental apply.
    pub fn bytes_per_elem(&self) -> u64 {
        carve_fem::flops::elemental_bytes(D, self.order)
    }
}

// --- Poisson with the Shifted Boundary Method ----------------------------------

/// Result of the Fig. 6 solve: `−Δu = 1` on the disk, `u = 0` on the circle.
pub struct DiskSolution {
    pub u: Vec<f64>,
    pub krylov: KrylovResult,
    pub nnz: usize,
}

fn disk_exact(disk: &Disk) -> impl Fn(&[f64; 2]) -> f64 {
    let (c, r) = (disk.circle.center, disk.circle.radius);
    move |x: &[f64; 2]| {
        let r2 = (x[0] - c[0]).powi(2) + (x[1] - c[1]).powi(2);
        0.25 * (r * r - r2)
    }
}

pub fn solve_disk_sbm(mesh: &Mesh<2>, disk: &Disk) -> DiskSolution {
    let one = |_: &[f64; 2]| 1.0;
    let zero = |_: &[f64; 2]| 0.0;
    let circle = disk.circle;
    let closest = move |x: &[f64; 2]| circle.closest_boundary_point(x);
    let prob = PoissonProblem {
        scale: 1.0,
        f: &one,
        dirichlet: &zero,
        closest_boundary: Some(&closest),
        strong_cube_bc: false,
        bc: BcMode::Sbm(SbmParams::default()),
    };
    let sol = carve_fem::solve_poisson(mesh, &disk.domain, &prob);
    DiskSolution {
        u: sol.u,
        krylov: sol.krylov,
        nnz: sol.nnz,
    }
}

/// `(L2 error, L2 norm of the exact solution)` of `u` against
/// `u = (R² − r²)/4`.
pub fn disk_l2_error(mesh: &Mesh<2>, disk: &Disk, u: &[f64]) -> (f64, f64) {
    let exact = disk_exact(disk);
    let err = carve_fem::l2_linf_error(mesh, &disk.domain, u, &exact, 1.0);
    let zero = vec![0.0; u.len()];
    let norm = carve_fem::l2_linf_error(mesh, &disk.domain, &zero, &exact, 1.0);
    (err.l2, norm.l2)
}

/// Detects the surrogate boundary and evaluates every face term; returns the
/// number of faces.
pub fn sbm_faces(mesh: &Mesh<2>, disk: &Disk) -> usize {
    let zero = |_: &[f64; 2]| 0.0;
    let circle = disk.circle;
    let closest = move |x: &[f64; 2]| circle.closest_boundary_point(x);
    let params = SbmParams::default();
    let faces = carve_fem::surrogate_faces(mesh, true);
    for f in &faces {
        let (emin, h) = mesh.elems[f.elem].bounds_unit();
        let terms = carve_fem::sbm_face_terms::<2>(
            mesh.order as usize,
            &emin,
            h,
            (f.axis, f.positive),
            &params,
            &closest,
            &zero,
        );
        std::hint::black_box(&terms);
    }
    faces.len()
}

// --- Serving --------------------------------------------------------------------

pub fn scenario_spec(name: &str, s: &MeshSpec) -> ScenarioSpec {
    ScenarioSpec {
        geometry: carve_fem::geometry_hash(name),
        curve: s.curve,
        base_level: s.base,
        boundary_level: s.boundary,
        order: s.order,
        scale: s.scale,
        mg_min_level: None,
    }
}

pub fn scenario_cache(cap_bytes: usize) -> ScenarioCache<3> {
    ScenarioCache::with_cap_bytes(cap_bytes)
}

/// The serving entry point: the resident entry, built first on a miss.
pub fn serve_lookup<'a>(
    cache: &'a mut ScenarioCache<3>,
    c: &Comm,
    domain: &dyn Subdomain<3>,
    spec: ScenarioSpec,
) -> &'a ScenarioEntry<3> {
    cache.get_or_build(c, domain, spec)
}

pub fn cache_contains(cache: &ScenarioCache<3>, spec: &ScenarioSpec) -> bool {
    cache.contains(spec)
}

pub fn cache_set_cap(cache: &mut ScenarioCache<3>, cap_bytes: usize) {
    cache.set_cap_bytes(cap_bytes);
}

/// Cumulative `(hits, misses, evictions)` of the cache.
pub fn cache_counts(cache: &ScenarioCache<3>) -> (u64, u64, u64) {
    let s = cache.stats();
    (s.hits, s.misses, s.evictions)
}

pub fn cache_resident_bytes(cache: &ScenarioCache<3>) -> usize {
    cache.resident_bytes()
}

/// `(resident bytes, global dofs)` of one cached scenario.
pub fn entry_size(entry: &ScenarioEntry<3>) -> (usize, usize) {
    (entry.bytes, entry.dm.n_global_dofs)
}

/// Warm Jacobi-CG of exactly `iters` iterations on a cached scenario.
pub fn serve_solve(
    entry: &ScenarioEntry<3>,
    c: &Comm,
    b: &[f64],
    x: &mut [f64],
    iters: usize,
) -> KrylovResult {
    entry.solve(c, b, x, 0.0, iters)
}

/// Lockstep block-CG of exactly `iters` iterations over `bs.len()` lanes.
pub fn serve_block_solve(
    entry: &ScenarioEntry<3>,
    c: &Comm,
    bs: &[&[f64]],
    xs: &mut [&mut [f64]],
    iters: usize,
) -> Vec<KrylovResult> {
    entry.block_solve(c, bs, xs, 0.0, iters)
}

/// `f` at every local node of the scenario's mesh (ghost-consistent).
pub fn node_field(entry: &ScenarioEntry<3>, f: &dyn Fn(&[f64; 3]) -> f64) -> Vec<f64> {
    carve_fem::coord_field(&entry.dm, f)
}

/// Point reads of the ghost-consistent field `u`; collective.
pub fn eval_points(entry: &ScenarioEntry<3>, c: &Comm, u: &[f64], pts: &[[f64; 3]]) -> Vec<f64> {
    carve_fem::ServedField { entry, u }.eval_points(c, pts)
}

// --- Checkpoint I/O ---------------------------------------------------------------

/// Writes `x` as the text of a solve checkpoint.
pub fn checkpoint_write(x: &[f64]) -> String {
    let ckpt = SolveCheckpoint {
        method: "cg".into(),
        iteration: 0,
        residual: 0.0,
        x: x.to_vec(),
        r: vec![0.0; x.len()],
        residual_tail: Vec::new(),
    };
    carve_io::checkpoint_to_json(&ckpt).to_string_pretty()
}

/// Reads the iterate back from the text of a solve checkpoint.
pub fn checkpoint_read(text: &str) -> Result<Vec<f64>, String> {
    let parsed = Json::parse(text).map_err(|e| format!("{e:?}"))?;
    Ok(carve_io::checkpoint_from_json(&parsed)?.x)
}

// --- The program's own phase recorder (`carve-obs`) -------------------------------

/// Recording stays on while the returned guard lives.
pub fn obs_force() -> impl Drop {
    carve_obs::force_enabled()
}

/// Opens a named phase of the program's recorder on this thread; the phase
/// closes when the returned value is dropped.
pub fn obs_scope(name: &str) -> Option<carve_obs::PhaseGuard> {
    carve_obs::scope(name)
}

/// Everything this thread's recorder holds, as a one-rank snapshot.
pub fn obs_thread_snapshot() -> ObsSnapshot {
    carve_obs::thread_snapshot()
}

pub fn obs_aggregate(snaps: &[ObsSnapshot]) -> ObsReport {
    carve_obs::aggregate(snaps)
}

/// Inclusive seconds of the phase at `path`, mean over the ranks that ran it.
pub fn obs_phase_secs(report: &ObsReport, path: &str) -> f64 {
    report.phases.get(path).map_or(0.0, |p| p.secs.mean)
}

/// A counter summed over every phase and rank.
pub fn obs_counter_total(report: &ObsReport, counter: &str) -> u64 {
    report
        .phases
        .values()
        .filter_map(|p| p.counters.get(counter))
        .sum()
}
