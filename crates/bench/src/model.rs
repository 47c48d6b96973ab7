//! Partition-replay performance model.
//!
//! The paper's scaling figures ran on up to 28K Frontera cores. On one box
//! we reproduce them by splitting the model into (a) *exact structure* —
//! per-rank element counts, node ownership, ghost sets, and traversal copy
//! counts computed by the real partitioning and node-resolution algorithms —
//! and (b) *calibrated unit costs* — seconds per leaf kernel and per bucket
//! copy measured from the real traversal MATVEC on this machine, plus an
//! α–β communication model applied to the exact ghost byte counts.

use carve_core::nodes::{elem_node_coord, lattice_index, nodes_per_elem};
use carve_core::{resolve_slot, traversal_matvec_ws, Mesh, SlotRef, TraversalWorkspace};
use carve_fem::ElementCache;
use carve_sfc::{sfc_cmp, Octant};
use std::cmp::Ordering;

/// Calibrated machine constants (the α-β-γ model of DESIGN.md §2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Seconds per leaf elemental apply.
    pub t_leaf: f64,
    /// Seconds per (node × level) bucket copy merged bottom-up.
    pub t_copy: f64,
    /// Network latency per collective round (α): collectives cost
    /// α·ceil(log2 P), matching the tree-structured implementations in
    /// `carve-comm`.
    pub alpha: f64,
    /// Seconds per byte of ghost exchange (β = 1/bandwidth).
    pub beta: f64,
    /// Per-neighbor message overhead (γ): each ghost-exchange lane costs a
    /// fixed software/injection overhead on top of its β·bytes volume.
    pub gamma: f64,
}

impl Default for MachineModel {
    fn default() -> Self {
        // Representative HPC interconnect: 1 µs latency, 10 GB/s per rank,
        // 0.5 µs per-message injection overhead.
        Self {
            t_leaf: 1e-6,
            t_copy: 5e-9,
            alpha: 1e-6,
            beta: 1e-10,
            gamma: 5e-7,
        }
    }
}

impl MachineModel {
    /// The pinned reference model used for the committed scaling artifact
    /// (`SCALING_PR<k>.json`): machine-independent, so the CI gate can
    /// compare efficiencies exactly across boxes. The calibrated model is
    /// recorded alongside for information only.
    pub fn reference() -> Self {
        Self::default()
    }
}

/// Analytic copy-count estimator used consistently by calibration and
/// replay: every leaf's `npe` nodes are bucketed once per tree level on the
/// path from the root.
pub fn copy_estimate<const DIM: usize>(elems: &[Octant<DIM>], order: u64) -> usize {
    let npe = nodes_per_elem::<DIM>(order);
    elems.iter().map(|e| npe * (e.level as usize + 1)).sum()
}

/// Measures `t_leaf` and `t_copy` by running the real traversal MATVEC with
/// the sum-factorized Poisson kernel on the given mesh (α and β keep their
/// modeled defaults). Returns the model and the measured per-MATVEC time.
///
/// One unmeasured apply records the traversal plan first; the `reps`
/// measured ones replay it. A replay spends its time in two phases:
/// `matvec/leaf` (gathers, kernels, scatters and the task-local merges),
/// charged per leaf, and `matvec/bottom_up` (the ordered join up the
/// spine), charged per bucket copy.
pub fn calibrate<const DIM: usize>(mesh: &Mesh<DIM>, reps: usize) -> (MachineModel, f64) {
    let n = mesh.num_dofs();
    let p = mesh.order as usize;
    let mut cache = ElementCache::<DIM>::new(p);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let mut ws = TraversalWorkspace::with_threads(1);
    let mut apply = |y: &mut [f64]| {
        y.iter_mut().for_each(|v| *v = 0.0);
        traversal_matvec_ws(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &x,
            y,
            &mut ws,
            &mut |e: &Octant<DIM>, u: &[f64], v: &mut [f64]| {
                let h = e.bounds_unit().1;
                cache.apply_stiffness_tensor(h, u, v);
            },
        );
    };
    apply(&mut y);
    // Phase timings come from the observability layer; the thread-local
    // snapshot diff is immune to concurrent activity on other threads.
    let _e = carve_obs::force_enabled();
    let before = carve_obs::thread_snapshot();
    for _ in 0..reps.max(1) {
        apply(&mut y);
    }
    let d = carve_obs::thread_snapshot().diff(&before);
    let phase = |name: &str| d.phases.get(name).cloned().unwrap_or_default();
    let (leaf, bottom_up) = (phase("matvec/leaf"), phase("matvec/bottom_up"));
    let leaves = leaf.counters.get("leaves").copied().unwrap_or(0);
    let wall = phase("matvec").secs / reps.max(1) as f64;
    let copies = copy_estimate(&mesh.elems, mesh.order) * reps.max(1);
    let model = MachineModel {
        t_leaf: leaf.secs / leaves.max(1) as f64,
        t_copy: bottom_up.secs / copies.max(1) as f64,
        ..MachineModel::default()
    };
    (model, wall)
}

/// Exact per-rank structure of one partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankLoad {
    pub elems: usize,
    pub owned_nodes: usize,
    pub ghost_nodes: usize,
    /// Traversal copy-count estimate for this rank's slice.
    pub copies: usize,
    /// Bytes received per scalar ghost-read.
    pub ghost_bytes: u64,
    /// Bytes sent per scalar ghost-read (owned values that other ranks
    /// ghost).
    pub ghost_send_bytes: u64,
    /// Ranks this rank exchanges ghost data with (send or receive).
    pub neighbors: usize,
}

/// Full analysis of an equal-count SFC partition into `nparts` ranks.
#[derive(Clone, Debug)]
pub struct PartitionAnalysis {
    pub loads: Vec<RankLoad>,
    pub total_dofs: usize,
}

impl PartitionAnalysis {
    /// η = N_G/N_L statistics over ranks: (mean ghost, std ghost, mean η).
    pub fn ghost_stats(&self) -> (f64, f64, f64) {
        let n = self.loads.len() as f64;
        let mean_g = self.loads.iter().map(|l| l.ghost_nodes as f64).sum::<f64>() / n;
        let var = self
            .loads
            .iter()
            .map(|l| (l.ghost_nodes as f64 - mean_g).powi(2))
            .sum::<f64>()
            / n;
        let mean_eta = self
            .loads
            .iter()
            .map(|l| {
                if l.owned_nodes == 0 {
                    0.0
                } else {
                    l.ghost_nodes as f64 / l.owned_nodes as f64
                }
            })
            .sum::<f64>()
            / n;
        (mean_g, var.sqrt(), mean_eta)
    }

    /// Modeled MATVEC wall time and its breakdown
    /// `(total, leaf, traversal, comm)` under the α-β-γ machine model.
    pub fn modeled_time(&self, m: &MachineModel) -> (f64, f64, f64, f64) {
        let p = self.loads.len();
        let leaf = self
            .loads
            .iter()
            .map(|l| l.elems as f64 * m.t_leaf)
            .fold(0.0, f64::max);
        let trav = self
            .loads
            .iter()
            .map(|l| l.copies as f64 * m.t_copy)
            .fold(0.0, f64::max);
        let max_bytes = self
            .loads
            .iter()
            .map(|l| l.ghost_bytes.max(l.ghost_send_bytes) as f64)
            .fold(0.0, f64::max);
        let max_neighbors = self
            .loads
            .iter()
            .map(|l| l.neighbors as f64)
            .fold(0.0, f64::max);
        // ceil(log2 P) collective rounds, matching the tree collectives.
        let hops = if p > 1 {
            (usize::BITS - (p - 1).leading_zeros()) as f64
        } else {
            0.0
        };
        // Two ghost exchanges per MATVEC (read x, accumulate y): each pays
        // the collective latency, a per-neighbor-lane overhead, and the
        // widest rank's wire volume.
        let comm = 2.0 * (m.alpha * hops + m.gamma * max_neighbors + m.beta * max_bytes);
        (leaf + trav + comm, leaf, trav, comm)
    }
}

/// Replays the equal-count SFC partition of a mesh over `nparts` ranks and
/// computes each rank's exact element/node/ghost structure, using the same
/// node-ownership rule as the distributed implementation (natural SFC bin
/// when the bin rank is a user, else minimum user).
pub fn analyze_partition<const DIM: usize>(mesh: &Mesh<DIM>, nparts: usize) -> PartitionAnalysis {
    let ne = mesh.num_elems();
    let nn = mesh.num_dofs();
    let p = mesh.order;
    let npe = nodes_per_elem::<DIM>(p);
    let bounds: Vec<usize> = (0..=nparts).map(|r| r * ne / nparts).collect();
    // Users per node: (node, rank) pairs.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(ne * npe);
    for r in 0..nparts {
        for e in &mesh.elems[bounds[r]..bounds[r + 1]] {
            for lin in 0..npe {
                let idx = lattice_index::<DIM>(lin, p);
                let c = elem_node_coord(e, p, &idx);
                match resolve_slot(&mesh.nodes, e, &c) {
                    SlotRef::Direct(i) => pairs.push((i as u32, r as u32)),
                    SlotRef::Hanging(st) => {
                        for (i, _) in st {
                            pairs.push((i as u32, r as u32));
                        }
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    // Natural bin per node: rank whose element range contains the node's
    // containing finest cell. The splitters are SFC-sorted (they are the
    // first elements of consecutive ranges of the sorted element array), so
    // the bin is a binary search — O(N log P) overall, which is what makes
    // the 16K/28K-rank replays tractable.
    let splitters: Vec<Octant<DIM>> = (0..nparts)
        .map(|r| mesh.elems[bounds[r].min(ne - 1)])
        .collect();
    let natural_bin = |node: usize| -> usize {
        let c = &mesh.nodes.coords[node];
        let mut pt = [0u64; DIM];
        for k in 0..DIM {
            pt[k] = c[k] / p;
        }
        let cell = carve_sfc::morton::finest_cell_of_point(&pt);
        // First splitter strictly greater than the cell; the bin is the
        // rank before it (rank 0 when every splitter compares greater).
        let idx = splitters.partition_point(|s| sfc_cmp(mesh.curve, s, &cell) != Ordering::Greater);
        idx.saturating_sub(1)
    };
    let mut loads = vec![RankLoad::default(); nparts];
    for r in 0..nparts {
        loads[r].elems = bounds[r + 1] - bounds[r];
        loads[r].copies = copy_estimate(&mesh.elems[bounds[r]..bounds[r + 1]], p);
    }
    // Walk user groups per node; collect owner<->ghost-user adjacency for
    // the per-rank neighbor counts.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let node = pairs[i].0 as usize;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 as usize == node {
            j += 1;
        }
        let users = &pairs[i..j];
        let bin = natural_bin(node) as u32;
        let owner = if users.iter().any(|&(_, r)| r == bin) {
            bin
        } else {
            users.iter().map(|&(_, r)| r).min().expect("nonempty")
        };
        for &(_, r) in users {
            if r == owner {
                loads[r as usize].owned_nodes += 1;
            } else {
                loads[r as usize].ghost_nodes += 1;
                loads[r as usize].ghost_bytes += 8;
                loads[owner as usize].ghost_send_bytes += 8;
                edges.push((owner, r));
                edges.push((r, owner));
            }
        }
        i = j;
    }
    edges.sort_unstable();
    edges.dedup();
    for chunk in edges.chunk_by(|a, b| a.0 == b.0) {
        loads[chunk[0].0 as usize].neighbors = chunk.len();
    }
    PartitionAnalysis {
        loads,
        total_dofs: nn,
    }
}

/// Measures α (per collective hop) and γ (per neighbor message) from the
/// threaded-mode runtime itself: the tree-structured collectives give
/// ceil(log2 P) rounds per barrier, and sparse `all_to_allv` lanes give a
/// per-message cost, so the replay model's log/lane terms can be calibrated
/// against real (if intra-box) transport overheads. β keeps its modeled
/// default — channel throughput on one box says nothing about a network.
pub fn calibrate_collectives() -> (f64, f64) {
    const REPS: u32 = 64;
    let mut alpha_samples = Vec::new();
    let mut gamma_samples = Vec::new();
    for parts in [2usize, 4, 8] {
        let hops = (usize::BITS - (parts - 1).leading_zeros()) as f64;
        let timings = carve_comm::run_spmd(parts, |c| {
            c.barrier();
            let t0 = std::time::Instant::now();
            for _ in 0..REPS {
                c.barrier();
            }
            let barrier = t0.elapsed().as_secs_f64() / f64::from(REPS);
            // Ring exchange: ceil(log2 P) bitmap messages + 2 data lanes.
            let t0 = std::time::Instant::now();
            for _ in 0..REPS {
                let mut sends: Vec<Vec<f64>> = vec![Vec::new(); c.size()];
                sends[(c.rank() + 1) % c.size()] = vec![1.0];
                sends[(c.rank() + c.size() - 1) % c.size()] = vec![2.0];
                let _ = c.all_to_allv(sends);
            }
            let ring = t0.elapsed().as_secs_f64() / f64::from(REPS);
            (barrier, ring)
        });
        let barrier = timings.iter().map(|t| t.0).fold(0.0, f64::max);
        let ring = timings.iter().map(|t| t.1).fold(0.0, f64::max);
        alpha_samples.push(barrier / hops);
        // The ring round repeats the barrier's log-structure for its bitmap
        // phase; the two extra neighbor lanes carry the γ signal.
        gamma_samples.push((ring - barrier).max(0.0) / 2.0);
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    (mean(&alpha_samples), mean(&gamma_samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_comm::run_spmd;
    use carve_core::DistMesh;
    use carve_geom::{CarvedSolids, Sphere};
    use carve_sfc::Curve;

    fn disk_domain() -> CarvedSolids<2> {
        CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))])
    }

    #[test]
    fn replay_conserves_ownership() {
        let domain = disk_domain();
        let mesh = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
        for parts in [1usize, 2, 4, 7] {
            let a = analyze_partition(&mesh, parts);
            let owned: usize = a.loads.iter().map(|l| l.owned_nodes).sum();
            assert_eq!(owned, mesh.num_dofs(), "parts={parts}");
            let elems: usize = a.loads.iter().map(|l| l.elems).sum();
            assert_eq!(elems, mesh.num_elems());
        }
    }

    #[test]
    fn replay_matches_threaded_distmesh() {
        // The replay analysis must reproduce the ghost structure of the
        // real threaded DistMesh (same partition rule, same ownership
        // election).
        let p = 3usize;
        let stats: Vec<(usize, usize)> = run_spmd(p, |c| {
            let domain = disk_domain();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
            let s = m.ghost_stats();
            (s.owned_nodes, s.ghost_nodes)
        });
        let domain = disk_domain();
        let mesh = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
        let a = analyze_partition(&mesh, p);
        for (r, s) in stats.iter().enumerate().take(p) {
            assert_eq!(
                (a.loads[r].owned_nodes, a.loads[r].ghost_nodes),
                *s,
                "rank {r}"
            );
        }
    }

    #[test]
    fn replay_counts_match_runtime_comm_stats() {
        // The scaling artifact stands on analyze_partition's per-rank
        // element/node/ghost-byte counts being *exact*, not modeled: at
        // small P they must equal what the threaded runtime actually
        // observes — element and node counts from DistMesh, wire bytes from
        // CommStats around a real ghost-read, neighbor counts from the
        // exchange lanes.
        for p in [2usize, 4, 8] {
            let observed = run_spmd(p, |c| {
                let domain = disk_domain();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let s = m.ghost_stats();
                let mut vals = vec![c.rank() as f64; s.owned_nodes + s.ghost_nodes];
                let before = c.stats();
                m.ghost_read(c, &mut vals);
                let after = c.stats();
                (
                    m.num_owned_elems(),
                    s.owned_nodes,
                    s.ghost_nodes,
                    s.neighbors,
                    after.bytes_sent - before.bytes_sent,
                    after.bytes_received - before.bytes_received,
                )
            });
            let domain = disk_domain();
            let mesh = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
            let a = analyze_partition(&mesh, p);
            for (r, &(elems, owned, ghost, neighbors, sent, received)) in
                observed.iter().enumerate()
            {
                let l = &a.loads[r];
                assert_eq!(l.elems, elems, "p={p} rank {r} elems");
                assert_eq!(l.owned_nodes, owned, "p={p} rank {r} owned nodes");
                assert_eq!(l.ghost_nodes, ghost, "p={p} rank {r} ghost nodes");
                assert_eq!(l.neighbors, neighbors, "p={p} rank {r} neighbors");
                assert_eq!(l.ghost_send_bytes, sent, "p={p} rank {r} sent bytes");
                assert_eq!(l.ghost_bytes, received, "p={p} rank {r} received bytes");
            }
        }
    }

    #[test]
    fn collective_calibration_produces_positive_costs() {
        let (alpha, gamma) = calibrate_collectives();
        assert!(alpha > 0.0 && alpha < 1.0, "alpha {alpha}");
        assert!((0.0..1.0).contains(&gamma), "gamma {gamma}");
    }

    #[test]
    fn eta_decreases_with_order() {
        // Fig. 11's law: η ∝ 1/(p+1).
        let domain = disk_domain();
        let m1 = Mesh::build(&domain, Curve::Hilbert, 4, 5, 1);
        let m2 = Mesh::build(&domain, Curve::Hilbert, 4, 5, 2);
        let a1 = analyze_partition(&m1, 8);
        let a2 = analyze_partition(&m2, 8);
        let (_, _, eta1) = a1.ghost_stats();
        let (_, _, eta2) = a2.ghost_stats();
        assert!(eta2 < eta1, "eta1={eta1} eta2={eta2}");
        // Ratio should be near (p1+1)/(p2+1) = 2/3; allow wide band.
        let ratio = eta2 / eta1;
        assert!(ratio > 0.4 && ratio < 0.95, "ratio {ratio}");
    }

    #[test]
    fn calibration_produces_positive_costs() {
        let domain = disk_domain();
        let mesh = Mesh::build(&domain, Curve::Hilbert, 4, 5, 1);
        let (m, wall) = calibrate(&mesh, 2);
        assert!(m.t_leaf > 0.0 && m.t_leaf < 1e-2);
        assert!(m.t_copy > 0.0);
        assert!(wall > 0.0);
    }

    #[test]
    fn modeled_time_decreases_then_flattens_with_ranks() {
        let domain = disk_domain();
        let mesh = Mesh::build(&domain, Curve::Hilbert, 4, 6, 1);
        let model = MachineModel::default();
        let t1 = analyze_partition(&mesh, 1).modeled_time(&model).0;
        let t8 = analyze_partition(&mesh, 8).modeled_time(&model).0;
        let t64 = analyze_partition(&mesh, 64).modeled_time(&model).0;
        assert!(t8 < t1, "speedup to 8 ranks: {t1} -> {t8}");
        assert!(t64 <= t8 * 1.05, "no catastrophic slowdown: {t8} -> {t64}");
        // Parallel cost (t * P) grows once comm dominates.
        assert!(t64 * 64.0 > t1 * 0.9);
    }
}
