//! Distributed incomplete-octree meshes: Algorithm 3
//! (`DistributedConstructConstrained`) plus ghost elements, node ownership,
//! ghost exchange, and the distributed traversal MATVEC.
//!
//! Partitioning only ever sees the *active* (retained) octants — the paper's
//! central load-balancing argument versus complete-tree frameworks — because
//! carved subtrees were pruned during construction and `DistTreeSort`
//! operates on whatever it is given.
//!
//! Node ownership uses a two-round broker protocol: every rank routes each
//! needed nodal coordinate to a deterministic *broker* rank (by SFC bin of
//! the coordinate's finest containing cell); brokers elect the minimum
//! requesting rank as owner and reply; a final round with the owners
//! assigns global DOF ids and builds the ghost send/recv plans. Ownership is
//! therefore derived from actual users, so every ghost node is guaranteed
//! to exist on its owner.

use crate::balance::bottom_up_constrain_neighbors;
use crate::construct::{construct_constrained, construct_uniform};
use crate::matvec::{matvec_driver, Input, Kernels, LeafKernel, TraversalWorkspace, Tree};
use crate::nodes::{
    accumulate_hanging, elem_node_coord, enumerate_nodes_and_slots, lattice_index, nodes_per_elem,
    NodeSet, HANGING,
};
use carve_comm::{
    dist_tree_sort, run_spmd_with, Comm, ExchangeHandle, ReduceOp, SpmdError, SpmdOptions,
};
use carve_geom::{RegionLabel, Subdomain};
use carve_la::{Reduce, SolveCheckpoint};
use carve_sfc::morton::{finest_cell_of_point, point_cmp_morton};
use carve_sfc::{sfc_cmp, Curve, Octant, SfcState, MAX_LEVEL};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

/// Requested consistency of a distributed operation's output vector.
///
/// `Ghosted` finishes with the trailing owner→user ghost read, so every
/// rank ends up holding correct values for every node it can address.
/// `OwnedOnly` skips that round: owned entries are authoritative, ghost
/// entries are left zeroed by the accumulate. Krylov iterations want
/// `OwnedOnly` — their inner products mask to owned entries anyway (see
/// [`DistReduce`]), so each matvec saves a full exchange round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhostState {
    OwnedOnly,
    Ghosted,
}

/// Per-rank ghost statistics (Fig. 11's raw data).
#[derive(Clone, Copy, Debug, Default)]
pub struct GhostStats {
    pub owned_nodes: usize,
    pub ghost_nodes: usize,
    pub owned_elems: usize,
    pub ghost_elems: usize,
    /// Bytes exchanged per ghost-read of one scalar field.
    pub ghost_read_bytes: u64,
    /// Ranks this rank exchanges ghost data with (send or receive lanes).
    pub neighbors: usize,
}

impl GhostStats {
    /// η = N_G / N_L (the ratio the paper shows behaves like 1/(p+1)).
    pub fn eta(&self) -> f64 {
        if self.owned_nodes == 0 {
            0.0
        } else {
            self.ghost_nodes as f64 / self.owned_nodes as f64
        }
    }
}

/// A distributed, 2:1-balanced incomplete-octree mesh on one rank.
pub struct DistMesh<const DIM: usize> {
    pub curve: Curve,
    pub order: u64,
    /// Owned + ghost elements, SFC-sorted; owned are the contiguous `owned`
    /// range (ghosts sort strictly before/after by the splitter property).
    pub elems: Vec<Octant<DIM>>,
    pub owned: Range<usize>,
    /// Per-element subdomain labels (aligned with `elems`).
    pub labels: Vec<RegionLabel>,
    /// Needed nodes (owned + ghost), point-Morton sorted.
    pub nodes: NodeSet<DIM>,
    /// Owning rank per node.
    pub owner: Vec<u32>,
    /// Global DOF id per node.
    pub global_id: Vec<u32>,
    pub n_owned_nodes: usize,
    pub n_global_dofs: usize,
    /// Persistent neighbor-sparse exchange built once from the send/recv
    /// plans (`send_plan[q]` = local indices of owned nodes rank `q` reads;
    /// `recv_plan[q]` = local indices of ghost nodes owned by `q`, ordered
    /// to match `q`'s send plan). `RefCell` because the exchange mutates
    /// its lane buffers while the mesh stays logically immutable; the
    /// communicator is per-rank single-threaded by design, so no exchange
    /// ever runs concurrently with another on the same mesh.
    exchange: RefCell<ExchangeHandle>,
    /// Per-element flag aligned with `elems`: `true` iff the element is
    /// owned and its stencil closure (direct or hanging) reads at least one
    /// ghost-owned node — i.e. it must wait for the ghost exchange in the
    /// overlapped matvec. Ghost elements are always `false`.
    pub boundary_elem: Vec<bool>,
}

/// Bin of an octant key among rank splitters: the largest rank whose
/// splitter is `<=` the key. Ranks without elements never win a bin, except
/// that a key before every splitter bins to rank 0.
///
/// The non-empty splitters ascend with the rank, so this is a binary search
/// over them; a probe that lands on an empty rank walks down to the nearest
/// non-empty one.
pub fn splitter_bin<const DIM: usize>(
    splitters: &[Option<Octant<DIM>>],
    curve: Curve,
    key: &Octant<DIM>,
) -> usize {
    let mut bin = 0usize;
    let (mut lo, mut hi) = (0usize, splitters.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let Some((r, s)) = (lo..=mid).rev().find_map(|r| splitters[r].map(|s| (r, s))) else {
            lo = mid + 1;
            continue;
        };
        if sfc_cmp(curve, &s, key) != Ordering::Greater {
            bin = r;
            lo = mid + 1;
        } else {
            hi = r;
        }
    }
    bin
}

/// SFC range of leaf-level keys covered by subtree `n`:
/// `[first_descendant, last_descendant]`.
pub fn descendant_key_range<const DIM: usize>(n: &Octant<DIM>) -> (Octant<DIM>, Octant<DIM>) {
    let first = Octant {
        anchor: n.anchor,
        level: carve_sfc::MAX_LEVEL,
    };
    let mut last_anchor = n.anchor;
    let side = n.side();
    for a in last_anchor.iter_mut() {
        *a += side - 1;
    }
    let last = Octant {
        anchor: last_anchor,
        level: carve_sfc::MAX_LEVEL,
    };
    (first, last)
}

impl<const DIM: usize> DistMesh<DIM> {
    /// Distributed mesh construction: Algorithm 4 over Algorithm 3, then
    /// ghost elements, nodal enumeration, ownership, and exchange plans.
    pub fn build(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        curve: Curve,
        base_level: u8,
        boundary_level: u8,
        order: u64,
    ) -> Self {
        // --- Local adaptive seed generation -----------------------------
        // Deterministic global adaptive refinement, sliced by rank: every
        // rank refines its slice of the base tree near the boundary.
        let base = construct_uniform(domain, curve, base_level);
        let p = comm.size();
        let r = comm.rank();
        let lo = r * base.len() / p;
        let hi = (r + 1) * base.len() / p;
        let mut local: Vec<Octant<DIM>> = base[lo..hi].to_vec();
        // Refine intercepted leaves to the boundary level (children pruned
        // when carved).
        let _obs = carve_obs::scope("refine");
        loop {
            let mut next = Vec::with_capacity(local.len());
            let mut changed = false;
            for oct in &local {
                if oct.level < boundary_level
                    && crate::construct::classify_octant(domain, oct) == RegionLabel::RetainBoundary
                {
                    changed = true;
                    for c in 0..(1usize << DIM) {
                        let ch = oct.child(c);
                        if crate::construct::classify_octant(domain, &ch) != RegionLabel::Carved {
                            next.push(ch);
                        }
                    }
                } else {
                    next.push(*oct);
                }
            }
            local = next;
            if !changed {
                break;
            }
        }
        drop(_obs);
        // --- Algorithm 4 over the distributed seeds ---------------------
        // T1 = DistributedConstructConstrained(seeds)
        let t1 = dist_construct_constrained(comm, domain, curve, local);
        // T2 = BottomUpConstrainNeighbors(T1)   (F not applied)
        let t2 = bottom_up_constrain_neighbors(&t1);
        // T3 = DistributedConstructConstrained(T2)
        let owned_elems = dist_construct_constrained(comm, domain, curve, t2);
        Self::finish(comm, domain, curve, owned_elems, order)
    }

    /// Ghost elements + nodes + ownership for an already-partitioned,
    /// balanced owned-element list.
    pub fn finish(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        curve: Curve,
        owned_elems: Vec<Octant<DIM>>,
        order: u64,
    ) -> Self {
        let splitters: Vec<Option<Octant<DIM>>> = comm.all_gather(owned_elems.first().copied());
        let ghosted = exchange_ghost_layer(comm, curve, &owned_elems, &splitters);
        Self::finish_exchanged(comm, domain, curve, &splitters, ghosted, order)
    }

    /// [`Self::finish`] past the ghost element exchange, for a caller that
    /// already holds the owned leaves' `splitters` and their
    /// [`exchange_ghost_layer`] result `(elems, owned)`.
    pub(crate) fn finish_exchanged(
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        curve: Curve,
        splitters: &[Option<Octant<DIM>>],
        (elems, owned): (Vec<Octant<DIM>>, Range<usize>),
        order: u64,
    ) -> Self {
        let my = comm.rank();

        // --- Nodes --------------------------------------------------------
        let (nodes, slots) = needed_node_set(domain, &elems, owned.clone(), order);

        // --- Ownership, global ids, exchange plans -------------------------
        let own = node_ownership_plans(comm, curve, splitters, &nodes);

        // --- Interior/boundary element split ------------------------------
        let boundary_elem = boundary_elem_flags(elems.len(), owned.clone(), &slots, &own.owner, my);

        let labels = elems
            .iter()
            .map(|e| crate::construct::classify_octant(domain, e))
            .collect();
        DistMesh {
            curve,
            order,
            elems,
            owned,
            labels,
            nodes,
            owner: own.owner,
            global_id: own.global_id,
            n_owned_nodes: own.n_owned_nodes,
            n_global_dofs: own.n_global_dofs,
            exchange: RefCell::new(ExchangeHandle::new(&own.send_plan, &own.recv_plan)),
            boundary_elem,
        }
    }

    pub fn num_owned_elems(&self) -> usize {
        self.owned.len()
    }

    /// Refreshes ghost node entries of `values` from their owners through
    /// the persistent neighbor-sparse exchange (recycled lane buffers, only
    /// actual neighbors). Returns bytes sent by this rank. A 1-rank mesh is
    /// a zero-comm fast path: no tag tick, no messages, no obs phase.
    pub fn ghost_read(&self, comm: &Comm, values: &mut [f64]) -> u64 {
        if comm.size() == 1 {
            return 0;
        }
        let _obs = carve_obs::scope("ghost_read");
        self.exchange.borrow_mut().read(comm, values)
    }

    /// Sends ghost partial sums to their owners and adds them there; ghost
    /// entries are zeroed locally (their authoritative value now lives at
    /// the owner). Same neighbor-sparse path and 1-rank fast path as
    /// [`Self::ghost_read`].
    pub fn ghost_accumulate(&self, comm: &Comm, values: &mut [f64]) -> u64 {
        if comm.size() == 1 {
            return 0;
        }
        let _obs = carve_obs::scope("ghost_accumulate");
        self.exchange.borrow_mut().accumulate(comm, values)
    }

    /// Distributed MATVEC `y = A x` on local vectors (indexed like
    /// `self.nodes`), sequentially, with the caller's `kernel`: post the
    /// ghost-read of `x`, traverse interior elements while it is in flight,
    /// wait (`matvec/ghost_wait`), traverse boundary elements,
    /// ghost-accumulate `y`. The ghosted input lives in the caller-held
    /// [`TraversalWorkspace`], so warm applies allocate nothing.
    /// [`GhostState::Ghosted`] finishes with a ghost-read of `y` so every
    /// rank holds consistent values; `OwnedOnly` skips that round — the
    /// right choice inside Krylov loops. Phase timings report through
    /// `carve-obs`.
    pub fn matvec_ws<K>(
        &self,
        comm: &Comm,
        x: &[f64],
        y: &mut [f64],
        ws: &mut TraversalWorkspace<DIM>,
        ghost: GhostState,
        kernel: &mut K,
    ) where
        K: LeafKernel<DIM>,
    {
        self.apply(comm, x, y, ws, ghost, Kernels::<K, fn() -> K>::Held(kernel));
    }

    /// Fork-join [`Self::matvec_ws`]: interior subtree tasks run on up to
    /// `ws.threads()` workers, each building its kernel from `make_kernel`,
    /// *while this thread waits on the ghost exchange*; boundary tasks fork
    /// after the payloads land. Output is bitwise identical for any thread
    /// count and to [`Self::matvec_ws`].
    pub fn matvec_par<K, F>(
        &self,
        comm: &Comm,
        x: &[f64],
        y: &mut [f64],
        ws: &mut TraversalWorkspace<DIM>,
        ghost: GhostState,
        make_kernel: &F,
    ) where
        K: LeafKernel<DIM>,
        F: Fn() -> K + Sync,
    {
        self.apply(comm, x, y, ws, ghost, Kernels::Make(make_kernel));
    }

    /// The one distributed matvec body behind [`Self::matvec_ws`] and
    /// [`Self::matvec_par`], which differ only in the kernel source.
    fn apply<K, F>(
        &self,
        comm: &Comm,
        x: &[f64],
        y: &mut [f64],
        ws: &mut TraversalWorkspace<DIM>,
        ghost: GhostState,
        kernels: Kernels<'_, K, F>,
    ) where
        K: LeafKernel<DIM>,
        F: Fn() -> K + Sync,
    {
        y.iter_mut().for_each(|v| *v = 0.0);
        let tree = Tree {
            elems: &self.elems,
            owned: self.owned.clone(),
            curve: self.curve,
            nodes: &self.nodes,
        };
        if comm.size() == 1 {
            // Zero-comm fast path: no exchange posted, no tag ticked (the
            // ghost rounds below are no-ops on one rank too).
            matvec_driver(tree, Input::<fn(&mut [f64])>::Complete(x), y, ws, kernels);
        } else {
            let mut xg = ws.take_ghost_scratch();
            xg.clear();
            xg.extend_from_slice(x);
            let mut ex = self.exchange.borrow_mut();
            let pending = {
                let _obs = carve_obs::scope("ghost_read");
                ex.post_read(comm, &xg)
            };
            let input = Input::InFlight {
                x,
                xg: &mut xg,
                boundary_elem: &self.boundary_elem,
                wait: move |v: &mut [f64]| {
                    ex.wait_read(comm, pending, v);
                },
            };
            matvec_driver(tree, input, y, ws, kernels);
            ws.restore_ghost_scratch(xg);
        }
        self.ghost_accumulate(comm, y);
        if matches!(ghost, GhostState::Ghosted) {
            self.ghost_read(comm, y);
        }
    }

    /// A [`Reduce`] backend over this mesh's node ownership: hand it to a
    /// Krylov solve as `SolveOpts::reduce` so each batch of inner products
    /// rides one fused all-reduce.
    pub fn reducer<'a>(&'a self, comm: &'a Comm) -> DistReduce<'a> {
        DistReduce {
            comm,
            owner: &self.owner,
        }
    }

    /// The exchange plan as `[send, recv]` lists of `(peer rank, local node
    /// indices)`, non-empty lanes only, in rank order.
    pub fn exchange_lanes(&self) -> [Vec<(usize, Vec<u32>)>; 2] {
        let ex = self.exchange.borrow();
        let own = |(q, idx): (usize, &[u32])| (q, idx.to_vec());
        [
            ex.send_lanes().map(own).collect(),
            ex.recv_lanes().map(own).collect(),
        ]
    }

    /// Ghost statistics for Fig. 11.
    pub fn ghost_stats(&self) -> GhostStats {
        let ghost_nodes = self.nodes.len() - self.n_owned_nodes;
        GhostStats {
            owned_nodes: self.n_owned_nodes,
            ghost_nodes,
            owned_elems: self.owned.len(),
            ghost_elems: self.elems.len() - self.owned.len(),
            ghost_read_bytes: self.exchange.borrow().read_bytes(),
            neighbors: self.exchange.borrow().neighbor_count(),
        }
    }
}

/// Distributed [`Reduce`] backend: each batch of inner products is computed
/// as owned-masked partial sums and globally summed with **one** fused
/// all-reduce message per batch (`all_reduce_f64_many`), instead of one
/// blocking reduction per dot/norm. Batches of more than one pair bump the
/// `reductions_fused` obs counter by the number of messages saved.
pub struct DistReduce<'a> {
    comm: &'a Comm,
    /// Owning rank per local node (ghost entries are skipped in the partial
    /// sums so every value is counted exactly once cluster-wide).
    owner: &'a [u32],
}

impl Reduce for DistReduce<'_> {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        let my = self.comm.rank() as u32;
        for (o, (u, v)) in out.iter_mut().zip(pairs) {
            debug_assert_eq!(u.len(), self.owner.len());
            debug_assert_eq!(v.len(), self.owner.len());
            *o = u
                .iter()
                .zip(v.iter())
                .zip(self.owner)
                .filter(|&(_, &ow)| ow == my)
                .map(|((a, b), _)| a * b)
                .sum();
        }
        let global = self.comm.all_reduce_f64_many(out, ReduceOp::Sum);
        out.copy_from_slice(&global);
        if pairs.len() > 1 {
            carve_obs::counter("reductions_fused", (pairs.len() - 1) as u64);
        }
    }
}

/// Adds `reductions_fused` accounting to any [`Reduce`] backend that lacks
/// it: every multi-pair batch bumps the counter by the rounds it saved over
/// issuing one reduction per pair, exactly like [`DistReduce`] does
/// natively. The serving engine's single-rank multigrid path wraps
/// [`carve_la::LocalReduce`] with this so the fusion discipline of the
/// preconditioned cycle shows up in the obs report (and in the
/// seed-determinism gate) even when no communicator is involved.
///
/// Do **not** wrap [`DistReduce`] — it already counts, and the wrapper
/// would double-bump.
pub struct FusedReduce<'a, R: Reduce + ?Sized>(pub &'a R);

impl<R: Reduce + ?Sized> Reduce for FusedReduce<'_, R> {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        self.0.dots(pairs, out);
        if pairs.len() > 1 {
            carve_obs::counter("reductions_fused", (pairs.len() - 1) as u64);
        }
    }
}

// --- Solve supervision: cross-attempt checkpoints + retrying SPMD driver ---

/// Per-rank [`SolveCheckpoint`] slots that outlive SPMD attempts: the rank
/// threads of a killed cluster die, but snapshots flushed here (via
/// `Checkpointer::with_sink`) survive for the supervisor's next attempt.
///
/// Restart consistency: each rank restores its *own* latest snapshot. Under
/// an asynchronous abort, ranks can be one iteration apart in what they
/// managed to flush; a Krylov restart from mixed-iteration owned values is
/// still just a fresh solve from a valid initial guess (ghost values are
/// re-read from owners on the first matvec), so correctness never depends
/// on snapshot alignment. Callers that also need a *deterministic* retry
/// trajectory (the bench recovery stage) arrange the kill away from a
/// checkpoint-cadence boundary, which pins every rank's latest flushed
/// snapshot to the same iteration.
pub struct CheckpointStore {
    slots: Mutex<Vec<Option<SolveCheckpoint>>>,
}

impl CheckpointStore {
    pub fn new(nranks: usize) -> Self {
        CheckpointStore {
            slots: Mutex::new(vec![None; nranks]),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Option<SolveCheckpoint>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Saves `rank`'s latest snapshot (overwrites the previous one).
    pub fn save(&self, rank: usize, ckpt: &SolveCheckpoint) {
        self.lock()[rank] = Some(ckpt.clone());
    }

    /// This rank's latest surviving snapshot, if any attempt got far enough
    /// to flush one.
    pub fn load(&self, rank: usize) -> Option<SolveCheckpoint> {
        self.lock()[rank].clone()
    }

    /// Number of ranks holding a snapshot.
    pub fn saved_count(&self) -> usize {
        self.lock().iter().filter(|s| s.is_some()).count()
    }

    /// Drops all snapshots (e.g. between independent solves).
    pub fn clear(&self) {
        for slot in self.lock().iter_mut() {
            *slot = None;
        }
    }
}

/// Runs an SPMD solve under a retry policy: on [`SpmdError`] (rank kill,
/// watchdog timeout, contained panic) the cluster is relaunched up to
/// `max_retries` times, with the rank closure told which attempt it is on
/// so it can restore from a [`CheckpointStore`]. A deterministic fault-plan
/// kill is stripped before the first retry — the killed node has been
/// "replaced" — while ambient delay/loss probabilities stay in force, so
/// retries are exercised under the same chaos that killed the first run.
///
/// Each retry is recorded on the supervising thread under the
/// `recovery/retry` obs phase (counter `solve_retries`); rank closures are
/// expected to record their restores under `recovery/restore`.
pub fn supervise_spmd<R, F>(
    nranks: usize,
    mut opts: SpmdOptions,
    max_retries: usize,
    f: F,
) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&Comm, usize) -> R + Send + Sync,
{
    let mut attempt = 0usize;
    loop {
        let fref = &f;
        match run_spmd_with(nranks, opts.clone(), move |c| fref(c, attempt)) {
            Ok(v) => return Ok(v),
            Err(err) => {
                if attempt >= max_retries {
                    return Err(err);
                }
                let _recovery = carve_obs::scope("recovery");
                let _retry = carve_obs::scope("retry");
                carve_obs::counter("solve_retries", 1);
                if let Some(fault) = &mut opts.fault {
                    fault.kill = None;
                }
                attempt += 1;
            }
        }
    }
}

/// Position of `o`'s first cell along the curve: one `DIM`-bit digit (the
/// SFC rank of the child) per level, most significant first, zero-padded to
/// `MAX_LEVEL`. Integer order on the keys is [`sfc_cmp`] order, except that
/// an octant shares its key with its first-child chain; the cells of `o` are
/// exactly the keys in `[key, key + key_span(o.level))`.
fn curve_key<const DIM: usize>(curve: Curve, o: &Octant<DIM>) -> u128 {
    let mut st = SfcState::ROOT;
    let mut key = 0u128;
    for l in 1..=o.level {
        let r = st.morton_to_sfc(curve, DIM, o.child_bits_at(l));
        key = key << DIM | r as u128;
        st = st.child(curve, DIM, r);
    }
    key << (DIM * usize::from(MAX_LEVEL - o.level))
}

/// Number of finest-level cells under an octant at `level`.
fn key_span<const DIM: usize>(level: u8) -> u128 {
    1u128 << (DIM * usize::from(MAX_LEVEL - level))
}

/// The non-empty rank splitters as curve keys: [`splitter_bin`] of a
/// finest-level cell is one integer binary search.
struct SplitterKeys {
    /// Ascending keys of the non-empty splitters, and their ranks.
    keys: Vec<u128>,
    ranks: Vec<usize>,
}

impl SplitterKeys {
    fn new<const DIM: usize>(curve: Curve, splitters: &[Option<Octant<DIM>>]) -> Self {
        let (ranks, keys) = splitters
            .iter()
            .enumerate()
            .filter_map(|(r, s)| s.map(|s| (r, curve_key(curve, &s))))
            .unzip();
        Self { keys, ranks }
    }

    /// [`splitter_bin`] of the finest-level cell with curve key `cell`: a
    /// splitter is `<=` a finest cell exactly when its key is.
    fn bin(&self, cell: u128) -> usize {
        match self.keys.partition_point(|&s| s <= cell) {
            0 => 0,
            n => self.ranks[n - 1],
        }
    }

    /// End of the key interval that starts at the splitter with key `lo`.
    fn interval_end<const DIM: usize>(&self, lo: u128) -> u128 {
        let next = self.keys.partition_point(|&s| s <= lo);
        self.keys.get(next).copied().unwrap_or(key_span::<DIM>(0))
    }

    /// The ranks `b0..=b1` region `n` is requested from: the bins of the two
    /// corner cells of its [`descendant_key_range`]. On the Hilbert curve
    /// those cells are not the ends of `n`'s key range, and `b0 > b1` (no
    /// lane at all) happens. Kept as it is: this is the routing
    /// `results/dist_mesh_digest.txt` pins, and the overlapping rings of four
    /// levels have so far covered for it (the distributed MATVEC equals the
    /// sequential one on either curve).
    fn lanes<const DIM: usize>(&self, curve: Curve, n: &Octant<DIM>) -> (usize, usize) {
        let (first, last) = descendant_key_range(n);
        (
            self.bin(curve_key(curve, &first)),
            self.bin(curve_key(curve, &last)),
        )
    }
}

/// One level of the ancestor path [`ghost_requests`] walks.
#[derive(Clone, Copy)]
struct Ring<const DIM: usize> {
    /// The ancestor at this level whose leaves are being visited.
    center: Octant<DIM>,
    /// Its ring, or the ring of one of its ancestors, lies inside this
    /// rank's key interval.
    settled: bool,
    /// Its ring has been looked at for requests.
    emitted: bool,
}

/// Request regions of the ghost-layer protocol, per destination rank: the
/// same-level 1-ring (itself and its neighbors) of every owned leaf and of
/// its ancestors up to three levels, SFC-sorted and unique, each sent to the
/// lanes [`SplitterKeys::lanes`] names, this rank excepted.
///
/// `owned_elems` is SFC-sorted, so the leaves under an ancestor are
/// consecutive: `path` keeps the current ancestor per level, each ring is
/// looked at once, and an ancestor whose whole ring lies inside this rank's
/// key interval `[lo, hi)` settles every ring beneath it — all of their
/// cells bin here, so none of their regions has a lane. What is left is the
/// partition surface.
fn ghost_requests<const DIM: usize>(
    curve: Curve,
    owned_elems: &[Octant<DIM>],
    bins: &SplitterKeys,
    my: usize,
    nranks: usize,
) -> Vec<Vec<Octant<DIM>>> {
    let mut requests: Vec<Vec<Octant<DIM>>> = (0..nranks).map(|_| Vec::new()).collect();
    let Some(first) = owned_elems.first() else {
        return requests;
    };
    let lo = curve_key(curve, first);
    let hi = bins.interval_end::<DIM>(lo);
    let is_local = |n: &Octant<DIM>| {
        let k = curve_key(curve, n);
        lo <= k && k + key_span::<DIM>(n.level) <= hi
    };
    // No octant has this level, so every slot misses on first use.
    let unvisited = Ring {
        center: Octant {
            anchor: [0; DIM],
            level: u8::MAX,
        },
        settled: false,
        emitted: false,
    };
    let mut path = [unvisited; MAX_LEVEL as usize + 1];
    // (region, first lane, last lane)
    let mut regions: Vec<(Octant<DIM>, usize, usize)> = Vec::new();
    for e in owned_elems {
        let mut settled = false;
        for l in 0..=e.level {
            let a = e.ancestor_at(l);
            let ring = &mut path[usize::from(l)];
            if ring.center != a {
                *ring = Ring {
                    center: a,
                    settled: settled || (is_local(&a) && a.neighbors().iter().all(is_local)),
                    emitted: false,
                };
            }
            settled = ring.settled;
            if l + 3 < e.level || ring.emitted {
                continue;
            }
            ring.emitted = true;
            if settled {
                continue;
            }
            for n in std::iter::once(a).chain(a.neighbors()) {
                if is_local(&n) {
                    continue;
                }
                let (b0, b1) = bins.lanes(curve, &n);
                if (b0..=b1).any(|b| b != my) {
                    regions.push((n, b0, b1));
                }
            }
        }
    }
    carve_sfc::treesort_by_key(&mut regions, curve, |r| r.0);
    regions.dedup();
    for (n, b0, b1) in regions {
        for (b, lane) in requests.iter_mut().enumerate().take(b1 + 1).skip(b0) {
            if b != my {
                lane.push(n);
            }
        }
    }
    requests
}

/// Marks the owned leaves whose closed region meets the closed region of
/// `n`: the leaves overlapping one of the 3^DIM level-`n` cells around it,
/// found by key range in the sorted list (`owned_keys[i]` is the curve key
/// of leaf `i`), less those in a neighbor cell that stay clear of `n`.
/// Relies on the leaves not overlapping each other.
fn mark_touching<const DIM: usize>(
    curve: Curve,
    owned_elems: &[Octant<DIM>],
    owned_keys: &[u128],
    n: &Octant<DIM>,
    marks: &mut [bool],
) {
    for m in std::iter::once(*n).chain(n.neighbors()) {
        let k = curve_key(curve, &m);
        let lo = owned_keys.partition_point(|&x| x < k);
        let hi = lo + owned_keys[lo..].partition_point(|&x| x < k + key_span::<DIM>(m.level));
        if m == *n {
            marks[lo..hi].fill(true);
        } else {
            for i in lo..hi {
                marks[i] |= owned_elems[i].closed_regions_touch(n);
            }
        }
        // A coarser leaf over `m` sorts right before `m`'s first cell.
        if lo > 0 && owned_elems[lo - 1].is_ancestor_of(&m) {
            marks[lo - 1] = true;
        }
    }
}

/// The owned leaves whose closed region meets that of one of `regions`, in
/// owned order.
fn ghost_reply<const DIM: usize>(
    curve: Curve,
    owned_elems: &[Octant<DIM>],
    owned_keys: &[u128],
    regions: &[Octant<DIM>],
) -> Vec<Octant<DIM>> {
    if regions.is_empty() {
        return Vec::new();
    }
    let mut marks = vec![false; owned_elems.len()];
    for n in regions {
        mark_touching(curve, owned_elems, owned_keys, n, &mut marks);
    }
    let touched = owned_elems.iter().zip(&marks);
    touched.filter(|(_, &m)| m).map(|(e, _)| *e).collect()
}

/// Ghost-element exchange: the region-request protocol shared by
/// [`DistMesh::finish`] and the distributed balance fixpoint of
/// [`DistMesh::adapt`]. Request regions are the same-level neighbors of
/// each owned element and of its ancestors up to three levels (covers
/// hanging-source chains); owners reply with every owned element overlapping
/// or touching a requested region. Returns the merged, SFC-sorted
/// `(elems, owned)` pair with the owned elements occupying the contiguous
/// `owned` range.
///
/// Cost is proportional to the owned leaves plus the partition surface:
/// requests are filtered before they are sorted ([`ghost_requests`]),
/// replies are found by search ([`mark_touching`]), and the merged list is
/// the replies in rank order around the owned leaves — the partition is
/// SFC-contiguous per rank, so nothing is sorted again.
pub(crate) fn exchange_ghost_layer<const DIM: usize>(
    comm: &Comm,
    curve: Curve,
    owned_elems: &[Octant<DIM>],
    splitters: &[Option<Octant<DIM>>],
) -> (Vec<Octant<DIM>>, Range<usize>) {
    let my = comm.rank();
    let _obs = carve_obs::scope("ghost_elems");
    let bins = SplitterKeys::new(curve, splitters);
    let owned_keys: Vec<u128> = owned_elems.iter().map(|e| curve_key(curve, e)).collect();
    // What the searches below take for granted and a sort used to paper over.
    if !bins.keys.windows(2).all(|w| w[0] < w[1]) {
        comm.protocol_error(format!("rank {my}: splitters do not ascend with the rank"));
    }
    if !owned_keys.windows(2).all(|w| w[0] < w[1]) {
        comm.protocol_error(format!(
            "rank {my}: owned leaves are not SFC-sorted or overlap each other"
        ));
    }
    let requests = ghost_requests(curve, owned_elems, &bins, my, comm.size());
    carve_obs::counter(
        "ghost_regions_routed",
        requests.iter().map(|lane| lane.len() as u64).sum(),
    );
    let incoming = comm.all_to_allv(requests);
    let replies: Vec<Vec<Octant<DIM>>> = incoming
        .iter()
        .map(|regions| ghost_reply(curve, owned_elems, &owned_keys, regions))
        .collect();
    carve_obs::counter(
        "ghost_reply_elems",
        replies.iter().map(|lane| lane.len() as u64).sum(),
    );
    let ghost_in = comm.all_to_allv(replies);
    // Every rank owns one SFC interval, in rank order, and a reply lists its
    // sender's leaves in order: lower ranks' replies, the owned leaves, then
    // higher ranks' replies is the sorted union.
    let below: usize = ghost_in[..my].iter().map(Vec::len).sum();
    let owned = below..below + owned_elems.len();
    let n_ghosts: usize = ghost_in.iter().map(Vec::len).sum();
    let mut elems: Vec<Octant<DIM>> = Vec::with_capacity(n_ghosts + owned_elems.len());
    for (q, reply) in ghost_in.iter().enumerate() {
        let part = if q == my { owned_elems } else { reply };
        if let (Some(last), Some(first)) = (elems.last(), part.first()) {
            if sfc_cmp(curve, last, first) != Ordering::Less {
                comm.protocol_error(format!(
                    "rank {my}: ghost leaves {last:?} and {first:?} arrived out of SFC order \
                     (owned leaves are not partitioned in rank order)"
                ));
            }
        }
        elems.extend_from_slice(part);
    }
    (elems, owned)
}

/// The lattice slots of the owned elements, resolved: owned element `i`
/// reads the nodes `nodes[offsets[i]..offsets[i + 1]]` — its direct slots and
/// the sources of its hanging ones, repeats included.
struct OwnedSlots {
    offsets: Vec<u32>,
    nodes: Vec<u32>,
}

/// Enumerates nodes over `elems` and filters down to the *needed* set:
/// coords referenced by owned elements directly or via hanging stencils.
/// Every owned slot is resolved once — by the enumeration's own sort where it
/// is a node, by the hanging rule where it is not — and the indices come
/// back re-numbered to the needed set for [`boundary_elem_flags`].
fn needed_node_set<const DIM: usize>(
    domain: &dyn Subdomain<DIM>,
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    order: u64,
) -> (NodeSet<DIM>, OwnedSlots) {
    let (full_nodes, slot_node) = enumerate_nodes_and_slots(domain, elems, owned.clone(), order);
    let _obs = carve_obs::scope("nodes");
    let npe = nodes_per_elem::<DIM>(order);
    let mut slots = OwnedSlots {
        offsets: Vec::with_capacity(owned.len() + 1),
        nodes: Vec::with_capacity(slot_node.len()),
    };
    slots.offsets.push(0);
    let mut srcs = Vec::new();
    for (e, elem_slots) in elems[owned].iter().zip(slot_node.chunks(npe)) {
        for (lin, &node) in elem_slots.iter().enumerate() {
            if node != HANGING {
                slots.nodes.push(node);
                continue;
            }
            let c = elem_node_coord(e, order, &lattice_index::<DIM>(lin, order));
            accumulate_hanging(&full_nodes, e, &c, 1.0, &mut srcs, &mut |i, _| {
                slots.nodes.push(i as u32)
            });
        }
        slots.offsets.push(slots.nodes.len() as u32);
    }
    // 0 marks a needed node until the pass after numbers them in order.
    let mut renumber = vec![u32::MAX; full_nodes.len()];
    for &i in &slots.nodes {
        renumber[i as usize] = 0;
    }
    let mut coords = Vec::new();
    let mut flags = Vec::new();
    for (i, new) in renumber.iter_mut().enumerate() {
        if *new == 0 {
            *new = coords.len() as u32;
            coords.push(full_nodes.coords[i]);
            flags.push(full_nodes.flags[i]);
        }
    }
    for i in slots.nodes.iter_mut() {
        *i = renumber[*i as usize];
    }
    let nodes = NodeSet {
        order,
        coords,
        flags,
    };
    (nodes, slots)
}

/// Everything the broker protocol decides for a node set.
struct OwnershipPlans {
    owner: Vec<u32>,
    global_id: Vec<u32>,
    n_owned_nodes: usize,
    n_global_dofs: usize,
    send_plan: Vec<Vec<u32>>,
    recv_plan: Vec<Vec<u32>>,
}

/// Node ownership election + global DOF ids + ghost exchange plans.
///
/// A node's *broker* is the [`splitter_bin`] of its finest containing cell.
/// One rule elects every owner:
/// - a node this rank brokers is owned here, with no round trip;
/// - every other node goes to its broker;
/// - the broker elects itself for any requested coordinate it holds, and
///   otherwise the minimum requesting rank.
///
/// A broker is a user of a node exactly when the coordinate is in its needed
/// node set, so the owner is the natural SFC owner when that rank uses the
/// node, else the minimum user. Every holder hears the same verdict, and
/// every ghost node exists on its owner.
fn node_ownership_plans<const DIM: usize>(
    comm: &Comm,
    curve: Curve,
    splitters: &[Option<Octant<DIM>>],
    nodes: &NodeSet<DIM>,
) -> OwnershipPlans {
    let p = comm.size();
    let my = comm.rank();
    let order = nodes.order;
    let _obs = carve_obs::scope("ownership");
    let broker_of = |c: &[u64; DIM]| {
        let cell = finest_cell_of_point(&c.map(|x| x / order));
        splitter_bin(splitters, curve, &cell)
    };
    let brokers: Vec<usize> = nodes.coords.iter().map(broker_of).collect();
    let mut to_broker: Vec<Vec<[u64; DIM]>> = (0..p).map(|_| Vec::new()).collect();
    for (c, &b) in nodes.coords.iter().zip(&brokers) {
        if b != my {
            to_broker[b].push(*c);
        }
    }
    carve_obs::counter(
        "nodes_brokered",
        to_broker.iter().map(|lane| lane.len() as u64).sum(),
    );
    let broker_in = comm.all_to_allv(to_broker);
    // Lanes arrive in rank order, so a coordinate's first requester is its
    // minimum one. Replies go back in request order.
    let mut first_requester: HashMap<[u64; DIM], u32> = HashMap::new();
    let replies: Vec<Vec<u32>> = (broker_in.iter().enumerate())
        .map(|(q, cs)| {
            (cs.iter())
                .map(|c| match nodes.find(c) {
                    Some(_) => my as u32,
                    None => *first_requester.entry(*c).or_insert(q as u32),
                })
                .collect()
        })
        .collect();
    let owner_replies = comm.all_to_allv(replies);
    let mut cursors = vec![0usize; p];
    let owner: Vec<u32> = (brokers.iter())
        .map(|&b| {
            if b == my {
                return my as u32;
            }
            cursors[b] += 1;
            owner_replies[b][cursors[b] - 1]
        })
        .collect();

    // --- Global ids ----------------------------------------------------
    let n_owned_nodes = owner.iter().filter(|&&o| o == my as u32).count();
    let offset = comm.exscan_u64(n_owned_nodes as u64) as u32;
    let n_global_dofs =
        comm.all_reduce_u64(n_owned_nodes as u64, carve_comm::ReduceOp::Sum) as usize;
    let mut global_id = vec![u32::MAX; nodes.len()];
    {
        let mut next = offset;
        for i in 0..nodes.len() {
            if owner[i] == my as u32 {
                global_id[i] = next;
                next += 1;
            }
        }
    }
    // Ghosts: request ids from owners.
    let mut ghost_req: Vec<Vec<[u64; DIM]>> = (0..p).map(|_| Vec::new()).collect();
    let mut ghost_req_idx: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    for (i, &ow) in owner.iter().enumerate() {
        let o = ow as usize;
        if o != my {
            ghost_req[o].push(nodes.coords[i]);
            ghost_req_idx[o].push(i as u32);
        }
    }
    let req_in = comm.all_to_allv(ghost_req);
    // Owners answer with global ids and record send plans.
    let mut send_plan: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    let mut id_replies: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
    for (q, cs) in req_in.iter().enumerate() {
        for c in cs {
            let li = nodes
                .coords
                .binary_search_by(|x| point_cmp_morton(x, c))
                // A structured protocol error aborts the whole cluster;
                // a bare panic here used to deadlock the other ranks
                // inside the next all_to_allv.
                .unwrap_or_else(|_| {
                    comm.protocol_error(format!(
                        "owner rank {my} missing requested node {c:?} (broker routed a node to a non-user)"
                    ))
                });
            debug_assert_eq!(owner[li], my as u32, "request routed to non-owner");
            send_plan[q].push(li as u32);
            id_replies[q].push(global_id[li]);
        }
    }
    let id_in = comm.all_to_allv(id_replies);
    for q in 0..p {
        for (slot, &gid) in ghost_req_idx[q].iter().zip(&id_in[q]) {
            global_id[*slot as usize] = gid;
        }
    }
    let recv_plan = ghost_req_idx;
    debug_assert!(global_id.iter().all(|&g| g != u32::MAX));
    OwnershipPlans {
        owner,
        global_id,
        n_owned_nodes,
        n_global_dofs,
        send_plan,
        recv_plan,
    }
}

/// Flags owned elements whose stencil closure (direct or hanging) reads at
/// least one ghost-owned node — they must wait for the ghost exchange in
/// the overlapped matvec. Ghost elements are always `false`.
fn boundary_elem_flags(
    n_elems: usize,
    owned: Range<usize>,
    slots: &OwnedSlots,
    owner: &[u32],
    my: usize,
) -> Vec<bool> {
    let _obs = carve_obs::scope("ownership");
    let mut boundary_elem = vec![false; n_elems];
    for (flag, span) in boundary_elem[owned]
        .iter_mut()
        .zip(slots.offsets.windows(2))
    {
        let reads = &slots.nodes[span[0] as usize..span[1] as usize];
        *flag = reads.iter().any(|&i| owner[i as usize] != my as u32);
    }
    boundary_elem
}

/// Algorithm 3 — `DistributedConstructConstrained`: sorts/partitions the
/// seeds, constructs each rank's constrained tree, then globally sorts,
/// dedups, and resolves overlaps keeping finer octants.
pub fn dist_construct_constrained<const DIM: usize>(
    comm: &Comm,
    domain: &dyn Subdomain<DIM>,
    curve: Curve,
    local_seeds: Vec<Octant<DIM>>,
) -> Vec<Octant<DIM>> {
    let seeds = dist_tree_sort(comm, local_seeds, curve);
    // Graceful incompleteness (§3.5): a rank left without seeds (more ranks
    // than octants) must still join every collective, but running Algorithm 2
    // with zero constraints would emit the root octant and shadow-cover the
    // whole domain; it contributes nothing instead.
    let t_tmp = if seeds.is_empty() {
        Vec::new()
    } else {
        construct_constrained(domain, curve, &seeds)
    };
    dist_tree_sort(comm, t_tmp, curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matvec::traversal_matvec_ws;
    use crate::mesh::Mesh;
    use carve_comm::run_spmd;
    use carve_geom::{CarvedSolids, FullDomain, RetainBox, Sphere};
    use rand::{Rng, SeedableRng};

    fn sphere_domain_2d() -> CarvedSolids<2> {
        CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))])
    }

    #[test]
    fn dist_construction_matches_sequential_union() {
        for p in [1usize, 2, 4] {
            let union: Vec<Octant<2>> = run_spmd(p, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                m.elems[m.owned.clone()].to_vec()
            })
            .into_iter()
            .flatten()
            .collect();
            let domain = sphere_domain_2d();
            let seq = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
            assert_eq!(union, seq.elems, "p={p}");
        }
    }

    #[test]
    fn dist_global_dof_count_matches_sequential() {
        for p in [1usize, 3] {
            let counts: Vec<usize> = run_spmd(p, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 5, 2);
                m.n_global_dofs
            });
            let domain = sphere_domain_2d();
            let seq = Mesh::build(&domain, Curve::Morton, 3, 5, 2);
            for n in counts {
                assert_eq!(n, seq.num_dofs(), "p={p}");
            }
        }
    }

    /// One rank's `n_global_dofs` and `(coord, owner, global id)` per node.
    type Held = (usize, Vec<([u64; 2], u32, u32)>);

    /// The ownership invariant of a finished mesh, checked from every rank's
    /// `(coord, owner, global id)` triples: each coordinate any rank holds
    /// has one owner and one global id that all its holders agree on, the
    /// owner is one of the holders, and the global ids number the distinct
    /// coordinates `0..n_global_dofs`.
    fn check_one_owner_per_coord(at: &str, held: Vec<Held>) {
        let mut agreed: HashMap<[u64; 2], (u32, u32, Vec<u32>)> = HashMap::new();
        let mut n_global = None;
        for (rank, (n_dofs, rows)) in held.iter().enumerate() {
            assert_eq!(
                *n_global.get_or_insert(*n_dofs),
                *n_dofs,
                "{at}: n_global_dofs"
            );
            for &(c, owner, gid) in rows {
                let e = agreed.entry(c).or_insert((owner, gid, Vec::new()));
                assert_eq!(
                    (e.0, e.1),
                    (owner, gid),
                    "{at}: rank {rank} disagrees on {c:?}"
                );
                e.2.push(rank as u32);
            }
        }
        for (c, (owner, _, holders)) in &agreed {
            assert!(
                holders.contains(owner),
                "{at}: owner {owner} of {c:?} does not hold it"
            );
        }
        assert_eq!(
            n_global,
            Some(agreed.len()),
            "{at}: global DOFs vs distinct coords"
        );
        let mut ids: Vec<u32> = agreed.values().map(|v| v.1).collect();
        ids.sort_unstable();
        assert!(
            ids.iter().enumerate().all(|(i, &g)| g == i as u32),
            "{at}: ids"
        );
    }

    #[test]
    fn finish_elects_one_owner_per_coord() {
        let disk = sphere_domain_2d();
        for curve in [Curve::Morton, Curve::Hilbert] {
            // Boundary-refined and not 2:1-balanced: hanging sources that hang.
            let chain = crate::construct::construct_boundary_refined(&disk, curve, 2, 5);
            for p in [1u64, 2] {
                for ranks in [1usize, 2, 3, 4, 5, 7] {
                    let triples = |m: &DistMesh<2>| {
                        let rows = (m.nodes.coords.iter().zip(&m.owner).zip(&m.global_id))
                            .map(|((c, &o), &g)| (*c, o, g))
                            .collect();
                        (m.n_global_dofs, rows)
                    };
                    let built = run_spmd(ranks, |c| {
                        triples(&DistMesh::<2>::build(c, &disk, curve, 4, 8, p))
                    });
                    check_one_owner_per_coord(
                        &format!("disk {curve:?} p={p} ranks={ranks}"),
                        built,
                    );
                    let sliced = run_spmd(ranks, |c| {
                        let (r, n) = (c.rank(), c.size());
                        let owned = chain[r * chain.len() / n..(r + 1) * chain.len() / n].to_vec();
                        triples(&DistMesh::finish(c, &disk, curve, owned, p))
                    });
                    check_one_owner_per_coord(
                        &format!("chain {curve:?} p={p} ranks={ranks}"),
                        sliced,
                    );
                }
            }
        }
    }

    fn toy_kernel<const DIM: usize>() -> impl FnMut(&Octant<DIM>, &[f64], &mut [f64]) {
        |e: &Octant<DIM>, u: &[f64], v: &mut [f64]| {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = u.len();
            let sum: f64 = u.iter().sum();
            for i in 0..npe {
                v[i] = scale * (2.0 * u[i] + sum / npe as f64);
            }
        }
    }

    fn check_dist_matvec(p: usize, order: u64, curve: Curve) {
        // Sequential reference.
        let domain = sphere_domain_2d();
        let seq = Mesh::build(&domain, curve, 3, 5, order);
        let n = seq.num_dofs();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let x_global: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; n];
        let mut ws = TraversalWorkspace::with_threads(1);
        traversal_matvec_ws(
            &seq.elems,
            0..seq.elems.len(),
            curve,
            &seq.nodes,
            &x_global,
            &mut y_ref,
            &mut ws,
            &mut toy_kernel::<2>(),
        );
        // Distributed: global ids on the distributed side must map onto the
        // sequential node order for comparison; both sides sort nodes by
        // point-Morton, and owned ranges follow rank order, so the global id
        // ordering is a permutation we can recover via coordinates.
        let results: Vec<Vec<([u64; 2], f64)>> = run_spmd(p, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, curve, 3, 5, order);
            // Fill x from the same global field by coordinate lookup.
            let seq_nodes = &m.nodes;
            let x_local: Vec<f64> = (0..seq_nodes.len())
                .map(|i| {
                    // deterministic pseudo-random keyed by coordinate
                    let c = seq_nodes.coords[i];
                    let h = c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]);
                    ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
                })
                .collect();
            let mut y = vec![0.0; x_local.len()];
            m.matvec_ws(
                c,
                &x_local,
                &mut y,
                &mut TraversalWorkspace::with_threads(1),
                GhostState::Ghosted,
                &mut toy_kernel::<2>(),
            );
            // Report owned node results keyed by coordinate.
            (0..m.nodes.len())
                .filter(|&i| m.owner[i] as usize == c.rank())
                .map(|i| (m.nodes.coords[i], y[i]))
                .collect()
        });
        // Rebuild the same coordinate-keyed input on the sequential mesh.
        let x_keyed: Vec<f64> = (0..n)
            .map(|i| {
                let c = seq.nodes.coords[i];
                let h = c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]);
                ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        let mut y_keyed = vec![0.0; n];
        traversal_matvec_ws(
            &seq.elems,
            0..seq.elems.len(),
            curve,
            &seq.nodes,
            &x_keyed,
            &mut y_keyed,
            &mut ws,
            &mut toy_kernel::<2>(),
        );
        let mut seen = 0;
        for per_rank in &results {
            for (coord, val) in per_rank {
                let i = seq.nodes.find(coord).expect("dist node exists in seq");
                assert!(
                    (val - y_keyed[i]).abs() < 1e-11 * (1.0 + y_keyed[i].abs()),
                    "p={p} order={order} coord {coord:?}: {val} vs {}",
                    y_keyed[i]
                );
                seen += 1;
            }
        }
        assert_eq!(seen, n, "every global DOF owned exactly once");
    }

    #[test]
    fn dist_matvec_matches_sequential_linear() {
        for p in [2usize, 3] {
            check_dist_matvec(p, 1, Curve::Hilbert);
        }
    }

    #[test]
    fn dist_matvec_matches_sequential_quadratic() {
        check_dist_matvec(2, 2, Curve::Morton);
        check_dist_matvec(4, 2, Curve::Hilbert);
    }

    #[test]
    fn ghost_read_then_accumulate_roundtrip() {
        let p = 3;
        let sums: Vec<f64> = run_spmd(p, |c| {
            let domain = RetainBox::<2>::channel([1.0, 0.5]);
            let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 3, 1);
            // Set every owned node to 1, ghosts to 0; read makes ghosts 1;
            // accumulate-of-ones then gives each owned node (1 + #users).
            let mut v: Vec<f64> = (0..m.nodes.len())
                .map(|i| {
                    if m.owner[i] as usize == c.rank() {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            m.ghost_read(c, &mut v);
            assert!(v.iter().all(|&x| (x - 1.0).abs() < 1e-15));
            m.ghost_accumulate(c, &mut v);
            // Sum over owned nodes of v  = n_owned + total ghost instances.
            (0..m.nodes.len())
                .filter(|&i| m.owner[i] as usize == c.rank())
                .map(|i| v[i])
                .sum()
        });
        let total: f64 = sums.iter().sum();
        assert!(total > 0.0);
    }

    #[test]
    fn zero_octant_rank_participates_gracefully() {
        // Graceful incompleteness (§3.5): more ranks than elements. A level-1
        // uniform 2D mesh has 4 elements; over 5 ranks at least one rank owns
        // nothing, yet construction and both ghost exchanges must complete
        // without deadlock and the global mesh must stay intact.
        let p = 5;
        let results: Vec<(usize, usize, f64)> = run_spmd(p, |c| {
            let domain = FullDomain;
            let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 1, 1, 1);
            let mut v: Vec<f64> = (0..m.nodes.len())
                .map(|i| {
                    if m.owner[i] as usize == c.rank() {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            m.ghost_read(c, &mut v);
            m.ghost_accumulate(c, &mut v);
            let owned_sum: f64 = (0..m.nodes.len())
                .filter(|&i| m.owner[i] as usize == c.rank())
                .map(|i| v[i])
                .sum();
            (m.num_owned_elems(), m.n_global_dofs, owned_sum)
        });
        let total_elems: usize = results.iter().map(|r| r.0).sum();
        assert_eq!(total_elems, 4, "{results:?}");
        assert!(
            results.iter().any(|r| r.0 == 0),
            "at least one rank must own zero octants: {results:?}"
        );
        // Level-1 uniform 2D grid has 3x3 nodes, and every rank agrees.
        for (_, ndofs, owned_sum) in &results {
            assert_eq!(*ndofs, 9, "{results:?}");
            assert!(owned_sum.is_finite());
        }
    }

    #[test]
    fn chaos_schedule_leaves_dist_construction_and_ghosts_exact() {
        // Hostile delivery schedules (delays, reorders, duplicated collective
        // payloads) must not change a single bit of the distributed build or
        // the ghost exchanges.
        use carve_comm::{run_spmd_with, FaultPlan, SpmdOptions};
        let p = 4;
        let run = |fault: Option<FaultPlan>| -> Vec<(Vec<Octant<2>>, usize, Vec<f64>)> {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            opts.fault = fault;
            run_spmd_with(p, opts, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let mut v: Vec<f64> = (0..m.nodes.len())
                    .map(|i| {
                        if m.owner[i] as usize == c.rank() {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                m.ghost_read(c, &mut v);
                m.ghost_accumulate(c, &mut v);
                let owned: Vec<f64> = (0..m.nodes.len())
                    .filter(|&i| m.owner[i] as usize == c.rank())
                    .map(|i| v[i])
                    .collect();
                (m.elems[m.owned.clone()].to_vec(), m.n_global_dofs, owned)
            })
            .expect("chaos schedule must not break the run")
        };
        let clean = run(None);
        for seed in [3u64, 271] {
            assert_eq!(run(Some(FaultPlan::chaos(seed))), clean, "seed {seed}");
        }
    }

    #[test]
    fn killed_rank_during_dist_build_is_reported_not_deadlocked() {
        // A rank dying inside dist_construct_constrained's collectives must
        // surface as a structured error naming it — the survivors unwind on
        // the abort flag instead of waiting on a dead peer.
        use carve_comm::{run_spmd_with, FaultPlan, SpmdOptions};
        let opts = SpmdOptions::with_fault(FaultPlan::kill_rank(1, 2))
            .timeout(std::time::Duration::from_secs(20));
        let err = run_spmd_with(3, opts, |c| {
            let domain = sphere_domain_2d();
            DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 5, 1).n_global_dofs
        })
        .expect_err("killed rank must fail the build");
        assert_eq!(err.failed_ranks(), vec![1], "{err}");
    }

    /// `splitter_bin` as the linear scan it was before it searched.
    fn splitter_bin_reference<const DIM: usize>(
        splitters: &[Option<Octant<DIM>>],
        curve: Curve,
        key: &Octant<DIM>,
    ) -> usize {
        let mut bin = 0usize;
        for (r, s) in splitters.iter().enumerate() {
            if let Some(s) = s {
                if sfc_cmp(curve, s, key) != Ordering::Greater {
                    bin = r;
                } else {
                    break;
                }
            }
        }
        bin
    }

    /// The request lists as first written: every ring of every leaf and of
    /// its three ancestors, sorted and deduplicated, then routed.
    fn ghost_requests_reference<const DIM: usize>(
        curve: Curve,
        owned_elems: &[Octant<DIM>],
        splitters: &[Option<Octant<DIM>>],
        my: usize,
    ) -> Vec<Vec<Octant<DIM>>> {
        let mut regions: Vec<Octant<DIM>> = Vec::new();
        for e in owned_elems {
            let mut a = *e;
            for _ in 0..4 {
                regions.push(a);
                regions.extend(a.neighbors());
                if a.level == 0 {
                    break;
                }
                a = a.parent();
            }
        }
        carve_sfc::treesort(&mut regions, curve);
        regions.dedup();
        let mut requests: Vec<Vec<Octant<DIM>>> = vec![Vec::new(); splitters.len()];
        for n in &regions {
            let (first, last) = descendant_key_range(n);
            let b0 = splitter_bin_reference(splitters, curve, &first);
            let b1 = splitter_bin_reference(splitters, curve, &last);
            for (b, lane) in requests.iter_mut().enumerate().take(b1 + 1).skip(b0) {
                if b != my {
                    lane.push(*n);
                }
            }
        }
        requests
    }

    /// The reply predicate as first written: one scan of the owned leaves
    /// against every requested region.
    fn ghost_reply_reference<const DIM: usize>(
        owned_elems: &[Octant<DIM>],
        regions: &[Octant<DIM>],
    ) -> Vec<Octant<DIM>> {
        let meets = |e: &Octant<DIM>| {
            regions.iter().any(|n| {
                n.is_ancestor_or_self(e) || e.is_ancestor_or_self(n) || e.closed_regions_touch(n)
            })
        };
        owned_elems.iter().filter(|e| meets(e)).copied().collect()
    }

    /// Cuts `leaves` into rank slices at `cuts` and checks, for every rank,
    /// the filtered request lists and the searched replies against the
    /// references. Returns (regions routed, leaves replied).
    fn check_ghost_search<const DIM: usize>(
        curve: Curve,
        leaves: &[Octant<DIM>],
        cuts: &[usize],
        tag: &str,
    ) -> (usize, usize) {
        let nranks = cuts.len() - 1;
        let owned = |r: usize| &leaves[cuts[r]..cuts[r + 1]];
        let splitters: Vec<Option<Octant<DIM>>> =
            (0..nranks).map(|r| owned(r).first().copied()).collect();
        let bins = SplitterKeys::new(curve, &splitters);
        let keys: Vec<Vec<u128>> = (0..nranks)
            .map(|r| owned(r).iter().map(|e| curve_key(curve, e)).collect())
            .collect();
        let (mut routed, mut replied) = (0, 0);
        for my in 0..nranks {
            let requests = ghost_requests(curve, owned(my), &bins, my, nranks);
            let want = ghost_requests_reference(curve, owned(my), &splitters, my);
            assert_eq!(requests, want, "{tag}: requests of rank {my}");
            for (q, regions) in requests.iter().enumerate() {
                let reply = ghost_reply(curve, owned(q), &keys[q], regions);
                let want = ghost_reply_reference(owned(q), regions);
                assert_eq!(reply, want, "{tag}: reply of rank {q} to rank {my}");
                // Region by region too: in the union one region covers for
                // what another misses.
                for n in regions {
                    let reply = ghost_reply(curve, owned(q), &keys[q], &[*n]);
                    let want = ghost_reply_reference(owned(q), &[*n]);
                    assert_eq!(reply, want, "{tag}: reply of rank {q} to {n:?}");
                }
                routed += regions.len();
                replied += reply.len();
            }
        }
        (routed, replied)
    }

    #[test]
    fn ghost_layer_search_equals_the_scanned_protocol() {
        use crate::balance::construct_balanced;
        use crate::construct::construct_boundary_refined;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        let (mut routed, mut replied) = (0, 0);
        let mut check = |(a, b): (usize, usize)| {
            routed += a;
            replied += b;
        };
        for round in 0..6 {
            for curve in [Curve::Morton, Curve::Hilbert] {
                let nranks = rng.gen_range(2..=5usize);
                // Random cut points: uneven slices, now and then an empty one.
                let cuts_of = |n: usize, rng: &mut rand_chacha::ChaCha8Rng| {
                    let mut cuts: Vec<usize> = (1..nranks).map(|_| rng.gen_range(0..=n)).collect();
                    cuts.extend([0, n]);
                    cuts.sort_unstable();
                    cuts
                };
                let c2 = [rng.gen_range(0.3..0.7), rng.gen_range(0.3..0.7)];
                let d2 = CarvedSolids::<2>::new(vec![Box::new(Sphere::new(
                    c2,
                    rng.gen_range(0.1..0.3),
                ))]);
                let raw = construct_boundary_refined(&d2, curve, 3, rng.gen_range(5..=7));
                let t2 = construct_balanced(&d2, curve, &raw);
                let tag = format!("2d {curve:?} round {round}");
                check(check_ghost_search(
                    curve,
                    &t2,
                    &cuts_of(t2.len(), &mut rng),
                    &tag,
                ));
                // Not 2:1-balanced: the protocol is geometry, not grading.
                check(check_ghost_search(
                    curve,
                    &raw,
                    &cuts_of(raw.len(), &mut rng),
                    &tag,
                ));
                let c3 = [rng.gen_range(0.4..0.6), rng.gen_range(0.4..0.6), 0.5];
                let d3 = CarvedSolids::<3>::new(vec![Box::new(Sphere::new(
                    c3,
                    rng.gen_range(0.15..0.3),
                ))]);
                let raw = construct_boundary_refined(&d3, curve, 2, 4);
                let t3 = construct_balanced(&d3, curve, &raw);
                let tag = format!("3d {curve:?} round {round}");
                check(check_ghost_search(
                    curve,
                    &t3,
                    &cuts_of(t3.len(), &mut rng),
                    &tag,
                ));
            }
        }
        assert!(routed > 2_000, "only {routed} regions routed");
        assert!(replied > 20_000, "only {replied} leaves replied");
    }

    #[test]
    fn splitter_bin_search_equals_the_scan() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for curve in [Curve::Morton, Curve::Hilbert] {
            let leaves = crate::construct::construct_uniform::<2>(&FullDomain, curve, 3);
            for _ in 0..200 {
                // Ascending splitters with empty ranks sprinkled in, at the
                // ends too.
                let nranks = rng.gen_range(1..=9usize);
                let mut picks: Vec<usize> = (0..nranks)
                    .map(|_| rng.gen_range(0..leaves.len()))
                    .collect();
                picks.sort_unstable();
                picks.dedup();
                let mut splitters: Vec<Option<Octant<2>>> =
                    picks.iter().map(|&i| Some(leaves[i])).collect();
                for _ in 0..rng.gen_range(0..4) {
                    splitters.insert(rng.gen_range(0..=splitters.len()), None);
                }
                let bins = SplitterKeys::new(curve, &splitters);
                for leaf in &leaves {
                    let cell = descendant_key_range(leaf).1;
                    let want = splitter_bin_reference(&splitters, curve, &cell);
                    assert_eq!(splitter_bin(&splitters, curve, &cell), want);
                    assert_eq!(bins.bin(curve_key(curve, &cell)), want);
                    // Coarser keys take the search only.
                    let want = splitter_bin_reference(&splitters, curve, leaf);
                    assert_eq!(splitter_bin(&splitters, curve, leaf), want);
                }
            }
        }
    }

    #[test]
    fn finish_rejects_leaves_not_partitioned_in_rank_order() {
        // The ghost layer is found by search and merged by concatenation,
        // which holds only for sorted leaves on SFC intervals in rank order.
        // Anything else used to come back as a mesh with `owned` starting at
        // 0; now it is a structured error on every rank that can see it.
        use carve_comm::{run_spmd_with, SpmdOptions};
        let finish = |deal: fn(usize, &[Octant<2>]) -> Vec<Octant<2>>| {
            let opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            run_spmd_with(2, opts, move |c| {
                let domain = sphere_domain_2d();
                let all = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1).elems;
                let owned = deal(c.rank(), &all);
                DistMesh::finish(c, &domain, Curve::Hilbert, owned, 1).n_global_dofs
            })
            .expect_err("a broken partition must fail the finish")
        };
        let says = |err: &SpmdError, what: &str| {
            let roots = err.primary();
            assert!(roots.iter().all(|f| f.to_string().contains(what)), "{err}");
        };
        // Halves swapped between the ranks.
        let err = finish(|rank, all| {
            let half = all.len() / 2;
            if rank == 0 {
                all[half..].to_vec()
            } else {
                all[..half].to_vec()
            }
        });
        says(&err, "splitters do not ascend");
        // Rank 0 also holds a leaf from the middle of rank 1's interval.
        let err = finish(|rank, all| {
            let half = all.len() / 2;
            if rank == 0 {
                let mut owned = all[..half].to_vec();
                owned.push(all[half + 7]);
                owned
            } else {
                all[half..].to_vec()
            }
        });
        says(&err, "out of SFC order");
        // Unsorted leaves.
        let err = finish(|rank, all| {
            let half = all.len() / 2;
            let mut owned = if rank == 0 {
                all[..half].to_vec()
            } else {
                all[half..].to_vec()
            };
            owned.swap(3, 4);
            owned
        });
        says(&err, "not SFC-sorted");
    }

    #[test]
    fn ghost_stats_reasonable() {
        let p = 4;
        let stats: Vec<GhostStats> = run_spmd(p, |c| {
            let domain = FullDomain;
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 4, 4, 1);
            m.ghost_stats()
        });
        let owned_total: usize = stats.iter().map(|s| s.owned_nodes).sum();
        assert_eq!(owned_total, 17 * 17); // level-4 uniform 2D grid
                                          // Under SFC ownership the rank at the domain's max corner may own
                                          // every node it touches; but most ranks must carry ghosts.
        let with_ghosts = stats.iter().filter(|s| s.ghost_nodes > 0).count();
        assert!(with_ghosts >= p - 1, "stats {stats:?}");
        for s in &stats {
            assert!(s.eta() < 1.0, "eta should be far from the 1-elem limit");
        }
    }

    /// Coordinate-keyed pseudo-random field, identical across ranks for any
    /// node the ranks share (same recipe as `check_dist_matvec`).
    fn keyed_field<const DIM: usize>(m: &DistMesh<DIM>) -> Vec<f64> {
        (0..m.nodes.len())
            .map(|i| {
                let c = m.nodes.coords[i];
                let h = c.iter().fold(0u64, |acc, &v| {
                    acc.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(v)
                });
                ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn overlapped_matvec_bitwise_identical_across_threads() {
        // The interior/boundary overlap split (sequential and fork-join, any
        // worker count, any spine split depth, cold and warm workspaces)
        // must reproduce the plain distributed MATVEC bit for bit.
        let p = 3;
        let splits: Vec<(usize, usize)> = run_spmd(p, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 2);
            let x = keyed_field(&m);
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect() };
            let mut ws = TraversalWorkspace::with_threads(1);
            let mut y_ref = vec![0.0; x.len()];
            m.matvec_ws(
                c,
                &x,
                &mut y_ref,
                &mut ws,
                GhostState::OwnedOnly,
                &mut toy_kernel::<2>(),
            );
            let mut y_warm = vec![0.0; x.len()];
            m.matvec_ws(
                c,
                &x,
                &mut y_warm,
                &mut ws,
                GhostState::OwnedOnly,
                &mut toy_kernel::<2>(),
            );
            assert_eq!(bits(&y_ref), bits(&y_warm), "warm matvec_ws drifted");
            let mk = || toy_kernel::<2>();
            for (t, depth) in [
                (1usize, 1u8),
                (2, 1),
                (8, 1),
                (1, 2),
                (8, 2),
                (2, 3),
                (8, 3),
            ] {
                let mut wst = TraversalWorkspace::with_threads(t).with_split_depth(depth);
                for pass in 0..2 {
                    let mut y = vec![0.0; x.len()];
                    m.matvec_par(c, &x, &mut y, &mut wst, GhostState::OwnedOnly, &mk);
                    assert_eq!(
                        bits(&y_ref),
                        bits(&y),
                        "threads={t} depth={depth} pass={pass} rank={}",
                        c.rank()
                    );
                }
                let mut y = vec![0.0; x.len()];
                m.matvec_ws(
                    c,
                    &x,
                    &mut y,
                    &mut wst,
                    GhostState::OwnedOnly,
                    &mut toy_kernel::<2>(),
                );
                assert_eq!(bits(&y_ref), bits(&y), "matvec_ws depth={depth}");
            }
            let nb = m.owned.clone().filter(|&ei| m.boundary_elem[ei]).count();
            (m.num_owned_elems() - nb, nb)
        });
        // The split must be non-trivial somewhere: interior work is what the
        // overlap hides latency behind, boundary work is what exercises the
        // deferred ghost path.
        assert!(splits.iter().any(|&(int, _)| int > 0), "{splits:?}");
        assert!(splits.iter().any(|&(_, bnd)| bnd > 0), "{splits:?}");
    }

    /// Panel twin of [`toy_kernel`]: each element's additions in the same
    /// order over the SoA layout.
    struct ToyPanel;

    impl LeafKernel<2> for ToyPanel {
        fn apply(&mut self, elems: &[Octant<2>], u: &[f64], v: &mut [f64]) {
            let w = elems.len();
            let npe = u.len() / w;
            for (b, e) in elems.iter().enumerate() {
                let scale = e.bounds_unit().1.powi(2);
                let sum: f64 = (0..npe).map(|lin| u[lin * w + b]).sum();
                for lin in 0..npe {
                    v[lin * w + b] = scale * (2.0 * u[lin * w + b] + sum / npe as f64);
                }
            }
        }
    }

    #[test]
    fn replayed_dist_matvec_equals_fresh_in_both_ghost_states() {
        // Cold (record + replay) and warm (replay only) overlapped applies
        // through one workspace, over threads × panel widths × split
        // depths, must each equal a fresh sequential workspace's apply bit
        // for bit — on 2 and 3 ranks, in either ghost state.
        for ranks in [2usize, 3] {
            run_spmd(ranks, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 2);
                // The reference reads a consistent vector; the replays get
                // stale ghost entries, as inside a Krylov loop, which the
                // exchange overwrites with the same values — unless a task
                // replays before the exchange lands and reads one.
                let x_ref = keyed_field(&m);
                let mut x = x_ref.clone();
                for (xi, &o) in x.iter_mut().zip(&m.owner) {
                    if o as usize != c.rank() {
                        *xi = -7.0e3;
                    }
                }
                let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|f| f.to_bits()).collect() };
                for ghost in [GhostState::OwnedOnly, GhostState::Ghosted] {
                    let mut y_ref = vec![0.0; x.len()];
                    m.matvec_ws(
                        c,
                        &x_ref,
                        &mut y_ref,
                        &mut TraversalWorkspace::with_threads(1),
                        ghost,
                        &mut toy_kernel::<2>(),
                    );
                    for (t, width, depth) in [1usize, 2, 8]
                        .into_iter()
                        .flat_map(|t| [1usize, 8].map(|w| (t, w)))
                        .flat_map(|(t, w)| [1u8, 2, 3].map(|d| (t, w, d)))
                    {
                        let mut ws = TraversalWorkspace::with_threads(t)
                            .with_batch_width(width)
                            .with_split_depth(depth);
                        for round in ["cold", "warm"] {
                            let mut y = vec![0.0; x.len()];
                            m.matvec_par(c, &x, &mut y, &mut ws, ghost, &|| ToyPanel);
                            assert_eq!(
                                bits(&y_ref),
                                bits(&y),
                                "ranks={ranks} rank={} {ghost:?} threads={t} width={width} \
                                 depth={depth} {round}",
                                c.rank()
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn overlapped_matvec_unchanged_under_chaos_delay_and_reorder() {
        // Seeded delay/reorder/duplication in the transport must not move a
        // bit of the overlapped fork-join MATVEC: the interior phase never
        // touches in-flight data and the wait point is a hard barrier.
        use carve_comm::{run_spmd_with, FaultPlan, SpmdOptions};
        let p = 4;
        let run = |fault: Option<FaultPlan>| -> Vec<Vec<([u64; 2], u64)>> {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            opts.fault = fault;
            run_spmd_with(p, opts, |c| {
                let domain = sphere_domain_2d();
                let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let x = keyed_field(&m);
                let mut ws = TraversalWorkspace::with_threads(4);
                let mut y = vec![0.0; x.len()];
                let mk = || toy_kernel::<2>();
                m.matvec_par(c, &x, &mut y, &mut ws, GhostState::Ghosted, &mk);
                (0..m.nodes.len())
                    .filter(|&i| m.owner[i] as usize == c.rank())
                    .map(|i| (m.nodes.coords[i], y[i].to_bits()))
                    .collect()
            })
            .expect("chaos schedule must not break the overlapped matvec")
        };
        let clean = run(None);
        for seed in [11u64, 97] {
            assert_eq!(run(Some(FaultPlan::chaos(seed))), clean, "seed {seed}");
        }
    }

    #[test]
    fn single_rank_matvec_and_ghost_ops_are_zero_comm() {
        // On one rank every ghost path must collapse to a no-op: no message,
        // no tag tick, no exchange round — the traversal runs directly on the
        // caller's vector copied into the workspace scratch.
        run_spmd(1, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Morton, 3, 5, 2);
            let before = c.stats().messages;
            let x = keyed_field(&m);
            let mut y = vec![0.0; x.len()];
            let mut ws = TraversalWorkspace::with_threads(2);
            m.matvec_ws(
                c,
                &x,
                &mut y,
                &mut ws,
                GhostState::Ghosted,
                &mut toy_kernel::<2>(),
            );
            assert!(y.iter().all(|v| v.is_finite()));
            let mk = || toy_kernel::<2>();
            m.matvec_par(c, &x, &mut y, &mut ws, GhostState::Ghosted, &mk);
            let mut v = x.clone();
            assert_eq!(m.ghost_read(c, &mut v), 0);
            assert_eq!(m.ghost_accumulate(c, &mut v), 0);
            assert_eq!(
                c.stats().messages,
                before,
                "1-rank fast path must send nothing"
            );
        });
    }

    #[test]
    fn dist_cg_with_fused_reducer_converges() {
        // End-to-end Krylov stack: `cg` over the overlapped OwnedOnly
        // MATVEC and the mesh's `DistReduce` (owned-masked partials, one
        // fused all-reduce per batch). Every rank must agree on the iteration
        // trajectory and the distributed residual must actually be small.
        use carve_la::{cg, IdentityPrecond, SolveOpts};
        let p = 3;
        let results: Vec<(bool, usize, f64, f64)> = run_spmd(p, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let n = m.nodes.len();
            let b = keyed_field(&m);
            let ws = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
            let op = (n, |xv: &[f64], yv: &mut [f64]| {
                m.matvec_ws(
                    c,
                    xv,
                    yv,
                    &mut ws.borrow_mut(),
                    GhostState::OwnedOnly,
                    &mut toy_kernel::<2>(),
                );
            });
            let mut x = vec![0.0; n];
            let rd = m.reducer(c);
            let opts = SolveOpts {
                reduce: &rd,
                ..SolveOpts::new(1e-10, 0.0, 500)
            };
            let res = cg(&op, &b, &mut x, &IdentityPrecond, opts);
            // Independent residual check through the distributed operator.
            let mut ax = vec![0.0; n];
            m.matvec_ws(
                c,
                &x,
                &mut ax,
                &mut ws.borrow_mut(),
                GhostState::OwnedOnly,
                &mut toy_kernel::<2>(),
            );
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
            let mut out = [0.0; 2];
            rd.dots(&[(&r, &r), (&b, &b)], &mut out);
            (res.converged, res.iterations, out[0].sqrt(), out[1].sqrt())
        });
        let it0 = results[0].1;
        for (converged, iters, rn, bn) in &results {
            assert!(*converged, "{results:?}");
            assert_eq!(*iters, it0, "ranks disagreed on the CG trajectory");
            assert!(*bn > 0.0);
            assert!(rn <= &(1e-8 * bn), "residual {rn} vs rhs norm {bn}");
        }
    }

    #[test]
    fn supervised_solve_with_rank_kill_recovers_from_checkpoint() {
        // The acceptance property of the recovery stack: a distributed CG
        // whose cluster loses one rank mid-solve is relaunched by the
        // supervisor, restores from the surviving checkpoints, and converges
        // to the same answer as the uninterrupted solve — doing *fewer*
        // iterations on the retry than a from-scratch solve would.
        use carve_la::{cg, Checkpointer, IdentityPrecond, SolveOpts};
        use std::sync::Arc;

        let p = 3;
        // Rank closure: distributed CG over the traversal matvec, snapshot
        // every 5 iterations into the cross-attempt store, restore on retry.
        let solve = |c: &Comm, attempt: usize, store: &CheckpointStore| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let n = m.nodes.len();
            let b = keyed_field(&m);
            let ws = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
            let op = (n, |xv: &[f64], yv: &mut [f64]| {
                m.matvec_ws(
                    c,
                    xv,
                    yv,
                    &mut ws.borrow_mut(),
                    GhostState::OwnedOnly,
                    &mut toy_kernel::<2>(),
                );
            });
            let rank = c.rank();
            let mut x = vec![0.0; n];
            let mut ck = Checkpointer::new(5)
                .with_sink(|snap: &carve_la::SolveCheckpoint| store.save(rank, snap));
            if attempt > 0 {
                if let Some(snap) = store.load(rank) {
                    let _restore = carve_obs::scope("recovery");
                    let _r2 = carve_obs::scope("restore");
                    carve_obs::counter("ranks_restored", 1);
                    x.copy_from_slice(&snap.x);
                    ck = Checkpointer::new(5)
                        .with_sink(|snap: &carve_la::SolveCheckpoint| store.save(rank, snap))
                        .resume_from(&snap);
                }
            }
            let opts = SolveOpts {
                reduce: &m.reducer(c),
                checkpoint: Some(&mut ck),
                ..SolveOpts::new(1e-10, 0.0, 500)
            };
            let res = cg(&op, &b, &mut x, &IdentityPrecond, opts);
            let owned: Vec<f64> = x
                .iter()
                .zip(&m.owner)
                .filter(|&(_, &ow)| ow == c.rank() as u32)
                .map(|(v, _)| *v)
                .collect();
            (res.converged, res.iterations, owned)
        };

        // Uninterrupted reference (also measures ops to place the kill).
        let probe_store = CheckpointStore::new(p);
        let probe = run_spmd(p, |c| {
            let ops_before = c.op_count();
            let out = solve(c, 0, &probe_store);
            (ops_before, c.op_count(), out)
        });
        let full_iters = probe[0].2 .1;
        let x_full: Vec<Vec<f64>> = probe.iter().map(|(_, _, o)| o.2.clone()).collect();
        assert!(probe[0].2 .0, "reference solve converged");
        assert!(full_iters > 12, "need room for a mid-solve kill");

        // Kill rank 1 roughly 60% through its solve ops: past checkpoint
        // iteration 10, before the end.
        let (ops_lo, ops_hi) = (probe[1].0, probe[1].1);
        let kill_at = ops_lo + (ops_hi - ops_lo) * 6 / 10;

        let store = Arc::new(CheckpointStore::new(p));
        let opts = SpmdOptions {
            fault: Some(carve_comm::FaultPlan::kill_rank(1, kill_at)),
            ..SpmdOptions::default()
        };
        let results = {
            let store = Arc::clone(&store);
            supervise_spmd(p, opts, 2, move |c, attempt| solve(c, attempt, &store))
        }
        .expect("supervisor must recover the solve");

        for (r, (converged, iters, owned)) in results.iter().enumerate() {
            assert!(*converged, "rank {r} converged after recovery");
            // The retry restored mid-solve state: it must finish in fewer
            // iterations than the full solve took.
            assert!(
                *iters < full_iters,
                "rank {r}: retry took {iters} vs full {full_iters} — checkpoint not used"
            );
            assert_eq!(owned.len(), x_full[r].len(), "rank {r} owned layout");
            let scale = x_full[r].iter().map(|v| v.abs()).fold(1.0f64, f64::max);
            for (a, b) in owned.iter().zip(&x_full[r]) {
                assert!(
                    (a - b).abs() <= 1e-7 * scale,
                    "rank {r}: {a} vs {b} after recovery"
                );
            }
        }
        assert_eq!(store.saved_count(), p, "every rank checkpointed");
    }

    #[test]
    fn warm_dist_matvec_reuses_ghost_scratch_allocation() {
        // The ghosted input buffer lives in the workspace; a warm second
        // apply must reuse the exact allocation (no per-apply `to_vec`).
        run_spmd(2, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let x = keyed_field(&m);
            let mut y = vec![0.0; x.len()];
            let mut ws = TraversalWorkspace::with_threads(1);
            m.matvec_ws(
                c,
                &x,
                &mut y,
                &mut ws,
                GhostState::OwnedOnly,
                &mut toy_kernel::<2>(),
            );
            let s = ws.take_ghost_scratch();
            let (ptr, cap) = (s.as_ptr() as usize, s.capacity());
            assert!(cap >= x.len());
            ws.restore_ghost_scratch(s);
            m.matvec_ws(
                c,
                &x,
                &mut y,
                &mut ws,
                GhostState::OwnedOnly,
                &mut toy_kernel::<2>(),
            );
            let s = ws.take_ghost_scratch();
            assert_eq!(
                s.as_ptr() as usize,
                ptr,
                "warm apply must not reallocate the ghosted input"
            );
            assert_eq!(s.capacity(), cap);
            ws.restore_ghost_scratch(s);
        });
    }

    /// Back-to-back served solves: the same warm workspace *and* the same
    /// [`carve_la::KrylovScratch`] pool must hand back the identical buffer
    /// allocations on the second solve (the serving path's repeat-request
    /// contract), and the scratch-backed solve must be bitwise identical to
    /// the allocating one.
    #[test]
    fn warm_back_to_back_solves_reuse_krylov_scratch() {
        run_spmd(2, |c| {
            let domain = sphere_domain_2d();
            let m = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let b = keyed_field(&m);
            let n = m.nodes.len();
            let ws_cell = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
            let op = (n, |xv: &[f64], yv: &mut [f64]| {
                m.matvec_ws(
                    c,
                    xv,
                    yv,
                    &mut ws_cell.borrow_mut(),
                    GhostState::OwnedOnly,
                    &mut toy_kernel::<2>(),
                );
            });
            let rd = m.reducer(c);

            let opts = || carve_la::SolveOpts {
                reduce: &rd,
                ..carve_la::SolveOpts::new(0.0, 0.0, 6)
            };
            let mut x_fresh = vec![0.0; n];
            carve_la::cg(&op, &b, &mut x_fresh, &carve_la::IdentityPrecond, opts());

            let mut scratch = carve_la::KrylovScratch::new();
            let mut first: Option<Vec<usize>> = None;
            for round in 0..2 {
                let mut x = vec![0.0; n];
                let opts = carve_la::SolveOpts {
                    scratch: Some(&mut scratch),
                    ..opts()
                };
                carve_la::cg(&op, &b, &mut x, &carve_la::IdentityPrecond, opts);
                for (a, bb) in x.iter().zip(&x_fresh) {
                    assert_eq!(a.to_bits(), bb.to_bits(), "scratch solve drifted");
                }
                assert_eq!(scratch.pooled(), 4, "r/z/p/Ap parked between solves");
                // Drain/restore to read the pooled addresses in LIFO order.
                let bufs: Vec<Vec<f64>> = (0..4).map(|_| scratch.take(n)).collect();
                let ptrs: Vec<usize> = bufs.iter().map(|v| v.as_ptr() as usize).collect();
                for v in bufs.into_iter().rev() {
                    scratch.put(v);
                }
                match &first {
                    None => first = Some(ptrs),
                    Some(p0) => assert_eq!(
                        &ptrs, p0,
                        "round {round}: warm solve must reuse the exact Krylov buffers"
                    ),
                }
            }
        });
    }
}
