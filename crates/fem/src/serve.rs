//! Many-query serving engine (ROADMAP item 5: the "millions of users"
//! path).
//!
//! The octree+SBM pipeline amortizes expensive setup — carving, 2:1
//! balance, node ownership, assembly — over a single solve. A resident
//! service answering many requests against a handful of *scenarios*
//! (geometry × refinement × order) should pay that setup once per scenario
//! and keep it warm:
//!
//! * [`ScenarioCache`] — built [`DistMesh`] + assembled CSR + consistent
//!   Jacobi diagonal + optional multigrid hierarchy + warm
//!   [`TraversalWorkspace`] and Krylov scratch, keyed by [`ScenarioSpec`]
//!   (geometry hash, refinement spec, order), LRU-evicted by resident
//!   bytes (`CARVE_CACHE_BYTES`, default 256 MiB). Counters: `cache_hits`,
//!   `cache_misses`, `cache_evictions`, `cache_bytes` (cumulative admitted
//!   bytes).
//! * [`ScenarioEntry::solve`] / [`ScenarioEntry::block_solve`] — warm
//!   Jacobi-CG over the traversal MATVEC; the block variant runs k RHS in
//!   lockstep through [`carve_la::block_cg`]'s fused reduction rounds
//!   (2 collective rounds per iteration regardless of k).
//! * [`ServedField::eval_points`] — point reads on a solved field: SFC
//!   owner lookup + tensor-Lagrange evaluation through the hanging-stencil
//!   lattice (the field-transfer eval path), with one `all_to_allv` round
//!   trip for points whose covering leaf is remote. Thousands of reads,
//!   zero re-solves.
//!
//! **Determinism.** Cache-hit and cache-miss solves run the identical code
//! path over identical cached state, so their results are bitwise equal.
//! Point evaluation uses [`NudgePolicy::FaceOnly`]: the evaluating leaf
//! always contains the point, so values are independent of the rank
//! layout for interior points, and the lowest-ranked owner wins the remote
//! round deterministically.

use crate::fieldeval::{candidate_bins, eval_field_lattice, FieldView, NudgePolicy};
use crate::multigrid::Multigrid;
use crate::poisson::{StiffnessKernel, StiffnessMatrixKernel};
use carve_comm::Comm;
use carve_core::{traversal_assemble_par, DistMesh, FusedReduce, GhostState, TraversalWorkspace};
use carve_geom::Subdomain;
use carve_la::{
    block_cg, cg, CooBuilder, CsrMatrix, JacobiPrecond, KrylovResult, KrylovScratch, LocalReduce,
    SolveOpts,
};
use carve_sfc::{Curve, Octant, MAX_LEVEL};
use std::cell::RefCell;
use std::mem::size_of;

/// Environment override for the scenario cache's resident-byte budget.
pub const CACHE_BYTES_ENV: &str = "CARVE_CACHE_BYTES";

const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// FNV-1a over a canonical geometry description — the `geometry` component
/// of a [`ScenarioSpec`]. Callers hash whatever uniquely names their
/// domain (shape kind, centers, radii, extents).
pub fn geometry_hash(desc: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in desc.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cache key + build recipe for one scenario: which geometry (by hash),
/// how it is refined, and the discretization order. Two requests with
/// equal specs share one cached [`ScenarioEntry`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Canonical geometry hash ([`geometry_hash`]); the cache trusts it to
    /// name the `&dyn Subdomain` passed alongside.
    pub geometry: u64,
    pub curve: Curve,
    pub base_level: u8,
    pub boundary_level: u8,
    /// Polynomial order `p`.
    pub order: u64,
    /// Physical size of the root cube.
    pub scale: f64,
    /// `Some(min_level)`: also build (and cache) the sequential multigrid
    /// hierarchy down to `min_level` for [`ScenarioEntry::mg_solve`].
    pub mg_min_level: Option<u8>,
}

/// Cumulative cache statistics (process-local, mirrored into obs
/// counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Total bytes ever admitted (monotone, like the `cache_bytes`
    /// counter — resident bytes are [`ScenarioCache::resident_bytes`]).
    pub admitted_bytes: u64,
}

/// Everything a scenario needs to answer requests without re-running
/// setup: the distributed mesh, the assembled stiffness CSR, the
/// globally-consistent Jacobi preconditioner, optionally the multigrid
/// hierarchy, and the warm per-request state (traversal workspace with its
/// ghosted-input scratch and exchange lanes, Krylov buffer pool).
pub struct ScenarioEntry<const DIM: usize> {
    pub spec: ScenarioSpec,
    pub dm: DistMesh<DIM>,
    /// Locally-assembled stiffness rows (owned-element contributions over
    /// local node indices; accumulate across ranks for global rows).
    pub csr: CsrMatrix,
    /// Jacobi preconditioner over the ghost-accumulated (globally
    /// consistent) diagonal.
    jacobi: JacobiPrecond,
    /// Sequential V-cycle hierarchy, when the spec asked for one.
    mg: Option<Multigrid<DIM>>,
    /// Warm traversal workspace: bucket arena, ghosted-input scratch, SoA
    /// leaf panels. Reused by every solve on this entry.
    ws: RefCell<TraversalWorkspace<DIM>>,
    /// Pooled Krylov work vectors, reused across solves (LIFO, so repeat
    /// same-size solves are pointer-stable).
    scratch: RefCell<KrylovScratch>,
    /// Resident-byte estimate used for LRU accounting.
    pub bytes: usize,
}

fn estimate_bytes<const DIM: usize>(dm: &DistMesh<DIM>, csr: &CsrMatrix) -> usize {
    dm.elems.len() * size_of::<Octant<DIM>>()
        + dm.nodes.coords.len() * (DIM * 8 + 2)
        + dm.owner.len() * 4
        + dm.global_id.len() * 4
        + csr.vals.len() * (8 + 4)
        + csr.row_ptr.len() * 8
        + csr.n * 8 // jacobi inverse diagonal
}

impl<const DIM: usize> ScenarioEntry<DIM> {
    /// Cache-miss path: build the mesh, assemble the CSR through the
    /// (shared, capacity-reusing) triplet builder, derive the consistent
    /// Jacobi diagonal, optionally build the multigrid hierarchy.
    fn build(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        spec: ScenarioSpec,
        coo: &mut CooBuilder,
    ) -> Self {
        let dm = DistMesh::<DIM>::build(
            comm,
            domain,
            spec.curve,
            spec.base_level,
            spec.boundary_level,
            spec.order,
        );
        let n = dm.nodes.len();
        let p = dm.order as usize;
        let npe = carve_core::nodes::nodes_per_elem::<DIM>(dm.order);
        coo.reset(n);
        coo.reserve(dm.owned.len() * npe * npe);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut ws = TraversalWorkspace::new();
        let make_kernel = || StiffnessMatrixKernel::<DIM>::new(p, spec.scale);
        traversal_assemble_par(
            &dm.elems,
            dm.owned.clone(),
            dm.curve,
            &dm.nodes,
            &ids,
            coo,
            &mut ws,
            &make_kernel,
        );
        let csr = coo.build_and_clear();
        // Globally consistent diagonal: partition-surface rows get their
        // remote contributions, ghost entries mirror their owners.
        let mut diag = csr.diagonal();
        dm.ghost_accumulate(comm, &mut diag);
        dm.ghost_read(comm, &mut diag);
        let jacobi = JacobiPrecond::new(&diag);
        let mg = spec.mg_min_level.map(|ml| {
            let constrain = |fl: carve_core::NodeFlags| fl.is_any_boundary();
            Multigrid::new(
                domain,
                spec.base_level,
                spec.boundary_level,
                ml,
                spec.order,
                spec.scale,
                &constrain,
            )
        });
        let bytes = estimate_bytes(&dm, &csr);
        ScenarioEntry {
            spec,
            dm,
            csr,
            jacobi,
            mg,
            ws: RefCell::new(ws),
            scratch: RefCell::new(KrylovScratch::new()),
            bytes,
        }
    }

    /// Warm Jacobi-CG solve of the scenario operator through the traversal
    /// MATVEC. The trailing ghost read leaves `x` consistent at ghost
    /// nodes, so the result can go straight to [`ServedField`] reads.
    /// Cache-hit and cache-miss solves run this identical path — bitwise
    /// identical results.
    pub fn solve(
        &self,
        comm: &Comm,
        b: &[f64],
        x: &mut [f64],
        rtol: f64,
        max_iter: usize,
    ) -> KrylovResult {
        carve_obs::counter("serve_solves", 1);
        let opts = SolveOpts {
            reduce: &self.dm.reducer(comm),
            scratch: Some(&mut self.scratch.borrow_mut()),
            ..SolveOpts::new(rtol, 0.0, max_iter)
        };
        let res = cg(&self.op(comm), b, x, &self.jacobi, opts);
        self.dm.ghost_read(comm, x);
        res
    }

    /// Multi-RHS batch: k lockstep CG recurrences sharing every reduction
    /// round ([`carve_la::block_cg`] — 2 collective rounds per
    /// iteration regardless of k). Per-lane results are bitwise identical
    /// to k sequential [`ScenarioEntry::solve`] calls.
    pub fn block_solve(
        &self,
        comm: &Comm,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
        rtol: f64,
        max_iter: usize,
    ) -> Vec<KrylovResult> {
        carve_obs::counter("block_solves", 1);
        carve_obs::counter("block_rhs", bs.len() as u64);
        let opts = SolveOpts {
            reduce: &self.dm.reducer(comm),
            scratch: Some(&mut self.scratch.borrow_mut()),
            ..SolveOpts::new(rtol, 0.0, max_iter)
        };
        let res = block_cg(&self.op(comm), bs, xs, &self.jacobi, opts);
        for x in xs.iter_mut() {
            self.dm.ghost_read(comm, x);
        }
        res
    }

    /// The cached sequential multigrid hierarchy, when the spec built one.
    pub fn mg(&self) -> Option<&Multigrid<DIM>> {
        self.mg.as_ref()
    }

    /// V-cycle-preconditioned CG on the cached hierarchy's finest mesh
    /// (its own sequential DOF numbering — a per-rank replica service, not
    /// the distributed operator). Rides [`FusedReduce`] so the fusion
    /// discipline lands in the `reductions_fused` counter.
    pub fn mg_solve(&self, b: &[f64], x: &mut [f64], rtol: f64, max_iter: usize) -> KrylovResult {
        let mg = self.mg.as_ref().expect("spec.mg_min_level was None");
        mg.solve_with(b, x, rtol, max_iter, &FusedReduce(&LocalReduce))
    }

    /// The serving operator: traversal MATVEC over the warm workspace,
    /// owned-only output (the Krylov contract; reductions mask to owned).
    fn op<'a>(&'a self, comm: &'a Comm) -> (usize, impl Fn(&[f64], &mut [f64]) + 'a) {
        let p = self.dm.order as usize;
        let scale = self.spec.scale;
        (self.dm.nodes.len(), move |xv: &[f64], yv: &mut [f64]| {
            let make_kernel = || StiffnessKernel::<DIM>::new(p, scale);
            self.dm.matvec_par(
                comm,
                xv,
                yv,
                &mut self.ws.borrow_mut(),
                GhostState::OwnedOnly,
                &make_kernel,
            );
        })
    }

    fn field_view<'a>(&'a self, u: &'a [f64]) -> FieldView<'a, DIM> {
        FieldView {
            curve: self.dm.curve,
            elems: &self.dm.elems,
            owned: self.dm.owned.clone(),
            nodes: &self.dm.nodes,
            u,
        }
    }
}

/// LRU scenario cache (recency-ordered, most recent last), byte-bounded by
/// `CARVE_CACHE_BYTES`. The triplet builder is shared across builds so
/// repeated cache misses reuse its grown capacity.
pub struct ScenarioCache<const DIM: usize> {
    entries: Vec<ScenarioEntry<DIM>>,
    cap_bytes: usize,
    coo: CooBuilder,
    stats: CacheStats,
}

impl<const DIM: usize> Default for ScenarioCache<DIM> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const DIM: usize> ScenarioCache<DIM> {
    /// Cache with the environment's byte budget (`CARVE_CACHE_BYTES`,
    /// default 256 MiB).
    pub fn new() -> Self {
        let cap = std::env::var(CACHE_BYTES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_CACHE_BYTES);
        Self::with_cap_bytes(cap)
    }

    pub fn with_cap_bytes(cap_bytes: usize) -> Self {
        ScenarioCache {
            entries: Vec::new(),
            cap_bytes,
            coo: CooBuilder::new(0),
            stats: CacheStats::default(),
        }
    }

    /// Shrinks (or grows) the byte budget; evicts LRU entries immediately
    /// if the resident set no longer fits.
    pub fn set_cap_bytes(&mut self, cap_bytes: usize) {
        self.cap_bytes = cap_bytes;
        self.evict_to_fit(0);
    }

    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    pub fn resident_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    pub fn contains(&self, spec: &ScenarioSpec) -> bool {
        self.entries.iter().any(|e| e.spec == *spec)
    }

    /// The serving entry point: returns the cached entry for `spec`,
    /// building (and admitting) it on a miss. A hit refreshes the entry's
    /// recency; an admission evicts least-recently-used entries until the
    /// budget fits (the newest entry itself is always admitted, even
    /// over-budget — a cache that cannot hold one scenario still serves,
    /// it just stops retaining).
    pub fn get_or_build(
        &mut self,
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        spec: ScenarioSpec,
    ) -> &ScenarioEntry<DIM> {
        if let Some(pos) = self.entries.iter().position(|e| e.spec == spec) {
            self.stats.hits += 1;
            carve_obs::counter("cache_hits", 1);
            let e = self.entries.remove(pos);
            self.entries.push(e);
        } else {
            self.stats.misses += 1;
            carve_obs::counter("cache_misses", 1);
            let e = ScenarioEntry::build(comm, domain, spec, &mut self.coo);
            self.evict_to_fit(e.bytes);
            self.stats.admitted_bytes += e.bytes as u64;
            carve_obs::counter("cache_bytes", e.bytes as u64);
            self.entries.push(e);
        }
        self.entries.last().expect("just ensured")
    }

    fn evict_to_fit(&mut self, incoming: usize) {
        while !self.entries.is_empty() && self.resident_bytes() + incoming > self.cap_bytes {
            self.entries.remove(0);
            self.stats.evictions += 1;
            carve_obs::counter("cache_evictions", 1);
        }
    }
}

/// A solved field on a cached scenario, ready for point reads. `u` must be
/// ghost-consistent — [`ScenarioEntry::solve`]'s output is.
pub struct ServedField<'a, const DIM: usize> {
    pub entry: &'a ScenarioEntry<DIM>,
    pub u: &'a [f64],
}

impl<const DIM: usize> ServedField<'_, DIM> {
    /// Evaluates the field at unit-cube points. Local points resolve with
    /// zero communication; points whose covering leaf is remote ride one
    /// `all_to_allv` request/reply round to their candidate owners (the
    /// lowest-ranked rank that evaluates wins, deterministically). Points
    /// outside the carved mesh — including points outside the unit cube and
    /// points with a non-finite coordinate — evaluate to `0.0` and count
    /// into the `eval_misses` counter.
    ///
    /// Collective: every rank must call this, with its own point set.
    pub fn eval_points(&self, comm: &Comm, pts: &[[f64; DIM]]) -> Vec<f64> {
        carve_obs::counter("eval_points", pts.len() as u64);
        let dm = &self.entry.dm;
        let p = dm.order;
        let lat_scale = ((1u64 << MAX_LEVEL) * p) as f64;
        // Nodal-lattice coordinates, snapped onto exact integers when the
        // round trip through f64 lands within 1e-6 lattice units — nodal
        // reads then evaluate on the exact lattice (bitwise `u[node]`).
        let latts: Vec<[f64; DIM]> = pts
            .iter()
            .map(|x| {
                let mut latt = [0.0f64; DIM];
                for k in 0..DIM {
                    let l = x[k] * lat_scale;
                    let r = l.round();
                    latt[k] = if (l - r).abs() < 1e-6 { r } else { l };
                }
                latt
            })
            .collect();
        let fv = self.entry.field_view(self.u);
        let mut out = vec![0.0f64; pts.len()];
        let mut unresolved: Vec<usize> = Vec::new();
        // Off-cube and NaN points never reach the lattice lookup, whose
        // cell cast would clamp them onto a boundary leaf and extrapolate.
        let mut misses = 0u64;
        for (i, latt) in latts.iter().enumerate() {
            if !pts[i].iter().all(|c| (0.0..=1.0).contains(c)) {
                misses += 1;
                continue;
            }
            match eval_field_lattice(&fv, latt, NudgePolicy::FaceOnly) {
                Some(v) => out[i] = v,
                None => unresolved.push(i),
            }
        }
        if comm.size() == 1 {
            misses += unresolved.len() as u64;
            if misses > 0 {
                carve_obs::counter("eval_misses", misses);
            }
            return out;
        }
        // Remote round: probe the splitter bins of every cell the nudge
        // policy may touch (the covering leaf's owner is among them).
        let pnum = comm.size();
        let my = comm.rank();
        let splitters: Vec<Option<Octant<DIM>>> =
            comm.all_gather(dm.elems[dm.owned.clone()].first().copied());
        let mut requests: Vec<Vec<[f64; DIM]>> = (0..pnum).map(|_| Vec::new()).collect();
        let mut point_bins: Vec<Vec<usize>> = Vec::with_capacity(unresolved.len());
        for &i in &unresolved {
            let bins = candidate_bins(&splitters, dm.curve, p, &latts[i], NudgePolicy::FaceOnly);
            for &b in &bins {
                if b != my {
                    requests[b].push(latts[i]);
                }
            }
            point_bins.push(bins);
        }
        let incoming = comm.all_to_allv(requests);
        let replies: Vec<Vec<(bool, f64)>> = incoming
            .iter()
            .map(|cs| {
                cs.iter()
                    .map(
                        |latt| match eval_field_lattice(&fv, latt, NudgePolicy::FaceOnly) {
                            Some(v) => (true, v),
                            None => (false, 0.0),
                        },
                    )
                    .collect()
            })
            .collect();
        let reply_in = comm.all_to_allv(replies);
        let mut cursors = vec![0usize; pnum];
        for (&i, bins) in unresolved.iter().zip(&point_bins) {
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
            if val.is_none() {
                misses += 1;
            }
            out[i] = val.unwrap_or(0.0);
        }
        if misses > 0 {
            carve_obs::counter("eval_misses", misses);
        }
        out
    }
}

/// Owned-element range view used by tests and the bench to build
/// rank-independent fields: `f(unit coords)` at every local node.
pub fn coord_field<const DIM: usize>(
    dm: &DistMesh<DIM>,
    f: &dyn Fn(&[f64; DIM]) -> f64,
) -> Vec<f64> {
    (0..dm.nodes.len())
        .map(|i| f(&dm.nodes.unit_coords(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_comm::run_spmd;
    use carve_geom::{CarvedSolids, Sphere};

    fn sphere_spec(mg: Option<u8>) -> (CarvedSolids<2>, ScenarioSpec) {
        let domain = CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.2))]);
        let spec = ScenarioSpec {
            geometry: geometry_hash("carved-sphere2d:0.5,0.5,r0.2"),
            curve: Curve::Hilbert,
            base_level: 3,
            boundary_level: 4,
            order: 1,
            scale: 1.0,
            mg_min_level: mg,
        };
        (domain, spec)
    }

    fn smooth(x: &[f64; 2]) -> f64 {
        (3.1 * x[0]).sin() * (2.3 * x[1]).cos() + 0.25 * x[0]
    }

    /// RHS keyed by node coordinates: identical across rank layouts and
    /// ghost-consistent by construction.
    fn rhs_field(dm: &DistMesh<2>) -> Vec<f64> {
        coord_field(dm, &|x| smooth(x) + 1.0)
    }

    const ITERS: usize = 8;

    #[test]
    fn cache_hit_solve_is_bitwise_identical_to_miss() {
        run_spmd(2, |c| {
            let (domain, spec) = sphere_spec(None);
            let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);

            let miss_u = {
                let e = cache.get_or_build(c, &domain, spec);
                let b = rhs_field(&e.dm);
                let mut x = vec![0.0; b.len()];
                e.solve(c, &b, &mut x, 0.0, ITERS);
                x
            };
            assert_eq!(cache.stats().misses, 1);

            let hit_u = {
                let e = cache.get_or_build(c, &domain, spec);
                let b = rhs_field(&e.dm);
                let mut x = vec![0.0; b.len()];
                e.solve(c, &b, &mut x, 0.0, ITERS);
                x
            };
            assert_eq!(cache.stats().hits, 1);
            assert_eq!(cache.stats().evictions, 0);
            for (a, b) in hit_u.iter().zip(&miss_u) {
                assert_eq!(a.to_bits(), b.to_bits(), "hit vs miss solve drifted");
            }
        });
    }

    #[test]
    fn cache_evicts_lru_by_bytes() {
        run_spmd(1, |c| {
            let (domain, spec_a) = sphere_spec(None);
            let spec_b = ScenarioSpec {
                boundary_level: 5,
                ..spec_a
            };
            let mut cache = ScenarioCache::<2>::with_cap_bytes(usize::MAX);
            cache.get_or_build(c, &domain, spec_a);
            let a_bytes = cache.resident_bytes();
            cache.get_or_build(c, &domain, spec_b);
            assert_eq!(cache.len(), 2);
            // Budget for exactly the resident set: nothing evicts.
            cache.set_cap_bytes(cache.resident_bytes());
            assert_eq!(cache.len(), 2);
            // Re-touch A (now most recent), then shrink below both: B (now
            // LRU) must go first.
            cache.get_or_build(c, &domain, spec_a);
            cache.set_cap_bytes(a_bytes);
            assert_eq!(cache.len(), 1);
            assert!(cache.contains(&spec_a) && !cache.contains(&spec_b));
            assert_eq!(cache.stats().evictions, 1);
            // Zero budget: everything out, but a build still serves.
            cache.set_cap_bytes(0);
            assert!(cache.is_empty());
            let e = cache.get_or_build(c, &domain, spec_b);
            assert!(e.bytes > 0);
            assert_eq!(cache.stats().misses, 3, "B rebuilt after eviction");
        });
    }

    #[test]
    fn block_solve_matches_sequential_bitwise_and_fuses_rounds() {
        run_spmd(2, |c| {
            let (domain, spec) = sphere_spec(None);
            let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
            let e = cache.get_or_build(c, &domain, spec);
            let n = e.dm.nodes.len();
            let base = rhs_field(&e.dm);
            let k = 4;
            let bs: Vec<Vec<f64>> = (0..k)
                .map(|j| base.iter().map(|v| v * (1.0 + j as f64 * 0.5)).collect())
                .collect();

            // Sequential baseline + its collective-round cost.
            let seq_calls0 = c.stats().collective_calls;
            let mut seq_x: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
            for j in 0..k {
                e.solve(c, &bs[j], &mut seq_x[j], 0.0, ITERS);
            }
            let seq_rounds = c.stats().collective_calls - seq_calls0;

            // Lockstep batch.
            let blk_calls0 = c.stats().collective_calls;
            let mut blk_x: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
            {
                let b_refs: Vec<&[f64]> = bs.iter().map(|b| b.as_slice()).collect();
                let mut x_refs: Vec<&mut [f64]> =
                    blk_x.iter_mut().map(|x| x.as_mut_slice()).collect();
                e.block_solve(c, &b_refs, &mut x_refs, 0.0, ITERS);
            }
            let blk_rounds = c.stats().collective_calls - blk_calls0;

            for j in 0..k {
                for i in 0..n {
                    assert_eq!(
                        blk_x[j][i].to_bits(),
                        seq_x[j][i].to_bits(),
                        "lane {j} node {i}"
                    );
                }
            }
            // Acceptance bar: k=4 must cost ≤ 1/3 the all-reduce rounds.
            assert!(
                3 * blk_rounds <= seq_rounds,
                "block {blk_rounds} vs sequential {seq_rounds} rounds"
            );
        });
    }

    #[test]
    fn eval_points_reproduces_nodal_values_bitwise() {
        run_spmd(2, |c| {
            let (domain, spec) = sphere_spec(None);
            let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
            let e = cache.get_or_build(c, &domain, spec);
            // A ghost-consistent coordinate-keyed "solution".
            let u = coord_field(&e.dm, &smooth);
            let sf = ServedField { entry: e, u: &u };
            // Every local node — owned and ghost, including nodes whose
            // elements carry hanging stencils.
            let pts: Vec<[f64; 2]> = (0..e.dm.nodes.len())
                .map(|i| e.dm.nodes.unit_coords(i))
                .collect();
            let vals = sf.eval_points(c, &pts);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    u[i].to_bits(),
                    "node {i} at {:?}",
                    e.dm.nodes.unit_coords(i)
                );
            }
        });
    }

    #[test]
    fn eval_points_misses_off_cube_and_non_finite_points() {
        // `u = 1 + x` is exact on the p = 1 mesh, so the in-cube read
        // returns it. Points off the unit cube or with a non-finite
        // coordinate must miss (zero plus `eval_misses`), not extrapolate
        // from the boundary leaf their cell index would clamp to.
        let pts = [
            [0.3, 0.05],
            [-0.5, 0.05],
            [-3.0, 0.05],
            [1.5, 0.05],
            [f64::NAN, 0.05],
            [0.3, f64::INFINITY],
        ];
        for ranks in [1, 2] {
            let per_rank = run_spmd(ranks, move |c| {
                let _on = carve_obs::force_enabled();
                let (domain, spec) = sphere_spec(None);
                let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
                let e = cache.get_or_build(c, &domain, spec);
                let u = coord_field(&e.dm, &|x| 1.0 + x[0]);
                let vals = ServedField { entry: e, u: &u }.eval_points(c, &pts);
                let misses: u64 = carve_obs::thread_snapshot()
                    .phases
                    .values()
                    .filter_map(|st| st.counters.get("eval_misses"))
                    .sum();
                (vals, misses)
            });
            for (vals, misses) in per_rank {
                assert!((vals[0] - 1.3).abs() < 1e-12, "{ranks} ranks: {vals:?}");
                for (v, p) in vals[1..].iter().zip(&pts[1..]) {
                    assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{ranks} ranks at {p:?}");
                }
                assert_eq!(misses, 5, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn eval_points_is_rank_layout_independent_on_interior_points() {
        // Strictly-interior points (never exactly on a cell face) have a
        // unique covering leaf under FaceOnly nudging, so the evaluated
        // bits cannot depend on how the mesh is partitioned.
        let probe: Vec<[f64; 2]> = (0..40)
            .map(|i| {
                let t = i as f64 / 40.0;
                [
                    0.5 + 0.23 * (6.3 * t).cos() * t,
                    0.5 + 0.21 * (5.1 * t).sin() * t,
                ]
            })
            .collect();
        let eval_on = |ranks: usize| {
            let probe = probe.clone();
            run_spmd(ranks, move |c| {
                let (domain, spec) = sphere_spec(None);
                let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
                let e = cache.get_or_build(c, &domain, spec);
                let u = coord_field(&e.dm, &smooth);
                let sf = ServedField { entry: e, u: &u };
                sf.eval_points(c, &probe)
            })
        };
        let one = eval_on(1);
        let two = eval_on(2);
        for r in &two {
            for (i, v) in r.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    one[0][i].to_bits(),
                    "point {i} {:?} differs across rank layouts",
                    probe[i]
                );
            }
        }
    }

    #[test]
    fn served_solves_reuse_workspace_and_scratch_pointers() {
        run_spmd(2, |c| {
            let (domain, spec) = sphere_spec(None);
            let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
            let e = cache.get_or_build(c, &domain, spec);
            let b = rhs_field(&e.dm);
            let n = b.len();

            let mut x = vec![0.0; n];
            e.solve(c, &b, &mut x, 0.0, ITERS);
            let ghost_ptr = {
                let mut ws = e.ws.borrow_mut();
                let s = ws.take_ghost_scratch();
                let p = s.as_ptr() as usize;
                ws.restore_ghost_scratch(s);
                p
            };
            let krylov_ptrs: Vec<usize> = {
                let mut sc = e.scratch.borrow_mut();
                assert_eq!(sc.pooled(), 4);
                let bufs: Vec<Vec<f64>> = (0..4).map(|_| sc.take(n)).collect();
                let ptrs = bufs.iter().map(|v| v.as_ptr() as usize).collect();
                for v in bufs.into_iter().rev() {
                    sc.put(v);
                }
                ptrs
            };

            let mut x2 = vec![0.0; n];
            e.solve(c, &b, &mut x2, 0.0, ITERS);
            {
                let mut ws = e.ws.borrow_mut();
                let s = ws.take_ghost_scratch();
                assert_eq!(
                    s.as_ptr() as usize,
                    ghost_ptr,
                    "warm solve reallocated the ghosted input"
                );
                ws.restore_ghost_scratch(s);
            }
            {
                let mut sc = e.scratch.borrow_mut();
                let bufs: Vec<Vec<f64>> = (0..4).map(|_| sc.take(n)).collect();
                let ptrs: Vec<usize> = bufs.iter().map(|v| v.as_ptr() as usize).collect();
                for v in bufs.into_iter().rev() {
                    sc.put(v);
                }
                assert_eq!(ptrs, krylov_ptrs, "warm solve reallocated Krylov buffers");
            }
            for (a, bb) in x.iter().zip(&x2) {
                assert_eq!(a.to_bits(), bb.to_bits());
            }
        });
    }

    #[test]
    fn cached_multigrid_solves_with_fused_reductions() {
        run_spmd(1, |c| {
            let (domain, spec) = sphere_spec(Some(2));
            let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
            let e = cache.get_or_build(c, &domain, spec);
            let mg = e.mg().expect("spec requested a hierarchy");
            let n = mg.finest().num_dofs();
            let b: Vec<f64> = (0..n)
                .map(|i| {
                    if mg.finest().nodes.flags[i].is_any_boundary() {
                        0.0
                    } else {
                        smooth(&mg.finest().nodes.unit_coords(i))
                    }
                })
                .collect();
            let mut x = vec![0.0; n];
            let res = e.mg_solve(&b, &mut x, 1e-10, 50);
            assert!(res.converged, "{res:?}");
            // Bitwise identical to the plain LocalReduce path.
            let mut x2 = vec![0.0; n];
            mg.solve(&b, &mut x2, 1e-10, 50);
            for (a, bb) in x.iter().zip(&x2) {
                assert_eq!(a.to_bits(), bb.to_bits());
            }
        });
    }
}
