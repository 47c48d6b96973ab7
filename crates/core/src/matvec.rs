//! Traversal-based matrix-free MATVEC (§3.5) and matrix assembly (§3.6).
//!
//! Top-down traversal of the (incomplete) octree buckets nodes into child
//! subtrees — a node incident on several children is *duplicated* — down to
//! the parents of the leaves; each leaf reads its elemental nodes out of its
//! parent's bucket, the elemental operator is applied, and the results go
//! back into that bucket; the bottom-up phase accumulates duplicated
//! contributions back to single values. Hanging lattice slots are
//! interpolated from the parent bucket on the way in and transposed
//! (scattered with the same weights) on the way out, so the operator equals
//! the assembled constrained matrix to machine precision.
//!
//! The traversal only descends into subtrees containing *owned* elements, so
//! incomplete trees and distributed ownership need no special treatment —
//! the property the paper calls "gracefully handles incomplete octrees".
//!
//! # Record once, replay every apply (DESIGN.md §6d)
//!
//! Which bucket entry a leaf slot reads, where its result lands, and which
//! parent entry each child entry merges into depend on the tree alone, not
//! on the vector. So the MATVEC is two passes:
//!
//! * the **structure pass** walks the tree once per mesh (`grow` / `rec`,
//!   `fill_child_bucket`, `sweep_half_lattice`) on node *indices* only and
//!   records a plan (`Plan`) in sequential DFS order;
//! * the **value pass** replays the plan on every apply: it reads `x`
//!   directly through the plan, runs the kernel on the same SoA panels, and
//!   performs the scatters and child-into-parent merges into an arena of
//!   per-bucket accumulators, in exactly the order the walk would. An
//!   accumulator is zeroed as it is merged, so the arena is zero between
//!   applies.
//!
//! The plan stores, per task, one `(root node index, arena index)` pair per
//! leaf lattice slot and per one-level interpolation source of a hanging
//! slot (the weights come from the `Prolongation` table at replay time),
//! one parent arena index per merged child-bucket entry, and the nested
//! weights of hanging-source chains. On the benchmark's 2-rank meshes that
//! is 9.4 MB per rank on `sphere_p1` (533K leaf slots, 286K hanging
//! sources, 641K merge entries) and 9.0 MB on `channel_p2` (433K, 154K,
//! 1.07M), plus 3.6 MB for the copy of the elements and node coordinates
//! that keys it. The structure pass's buckets live only inside `record`.
//!
//! *Why no bit can move:* every accumulator receives the same additions, in
//! the same order, as the walk's bucket `vout` did — the recorded order *is*
//! the walk's — and each interpolated value is summed in the table's
//! order. Top-down only ever copied values, so reading `x` at the recorded
//! root index is the value the bucket would have held.
//!
//! The plan lives in the caller's [`TraversalWorkspace`] (the per-operator
//! state held across Krylov applies) and is keyed by value — elements,
//! owned range, curve, order, node coordinates, panel width and split
//! depth — so a mesh freed and re-allocated at the same address re-records.
//!
//! # The walk only records; the matvec and assembly both replay
//!
//! The walk (`build_spine` / `run_task` / `rec`) runs only inside `record`.
//! Everything public replays its plan:
//!
//! * [`traversal_matvec_ws`] / [`traversal_matvec_par`] — `y += A x`;
//! * [`traversal_assemble_ws`] / [`traversal_assemble_par`] — §3.6's "same
//!   traversal carrying ids": every leaf's recorded slots and hanging
//!   sources become `(global id, weight)` stencils, its `W^T K_e W`
//!   triplets go to one log per worker share, and the logs drain in share
//!   (SFC task) order — the walk's own triplet sequence;
//! * [`crate::DistMesh::matvec_ws`] / [`crate::DistMesh::matvec_par`] — the
//!   replay split in two around the ghost exchange: interior tasks, with
//!   the wait for the ghost payloads running meanwhile on the calling
//!   thread, then the boundary tasks (DESIGN.md §6e).
//!
//! Whichever use meets a tree first records its plan into the workspace,
//! and the other replays it: an assembly followed by solves records once.
//!
//! `_ws` and `_par` differ only in where the elemental kernel comes from:
//! the caller's own `&mut K` (one worker, inline) or a `Fn() -> K + Sync`
//! factory (up to [`TraversalWorkspace::threads`] workers, one kernel each).
//!
//! # Execution model
//!
//! The walk splits the tree at a fixed *spine* depth into SFC-contiguous
//! subtree **tasks**. The spine buckets are built serially; tasks run either
//! inline or fork-joined across scoped worker threads (`CARVE_PAR_THREADS` /
//! `available_parallelism` via [`crate::par::thread_budget`]), both when
//! recording and when replaying. A task owns its subtree's accumulators;
//! additions that land in a shared spine bucket (a spine-level leaf's
//! results, hanging-node scatters, the task's own bucket merging upward)
//! are appended to a per-task **spine log** and applied on the calling
//! thread at join, in SFC task order, interleaved with the spine's own
//! merges exactly where the sequential walk performs them. Results are
//! therefore bitwise identical for any thread count and split depth.
//!
//! # The leaf stage (DESIGN.md §6d, §6h)
//!
//! Leaves get no bucket of their own. The first leaf child met under a
//! parent sweeps the parent's (Morton-sorted) bucket **once** onto the
//! parent's half-spacing lattice — `(2p+1)^DIM` slots holding every child's
//! `p`-lattice — after which each leaf's `npe` slots are table look-ups
//! into the parent bucket. A slot with no node behind it hangs: its value
//! is interpolated from the parent's own lattice points (the even slots)
//! with weights tabulated once per order (`nodes::Prolongation`); only a
//! source that is itself hanging one level up is resolved by coordinate
//! (`record_chain`), and its nested weights are recorded.
//!
//! Runs of SFC-consecutive sibling leaves are processed as one
//! structure-of-arrays panel (`npe × width`, element lane innermost), up to
//! the workspace's batch width (8) and the kernel's
//! [`LeafKernel::panel_width`] wide (1 for a closure kernel): gathers first,
//! one kernel call, then per leaf in SFC order its hanging contributions in
//! lattice order followed by its direct slots. That is the order in which a
//! per-leaf bucket would have been scattered into and then merged upward,
//! so the result is bitwise identical for any width, thread count and chaos
//! schedule.
//!
//! # Observability
//!
//! The first use of a tree records under `matvec/record` or
//! `assemble/record` (`top_down` with `node_copies`, `leaf` with
//! `slot_sweep_hits`, `arena_alloc` / `arena_reuse`). Every apply replays
//! under `matvec/leaf` (one scope per worker share) and `matvec/bottom_up`
//! (the join), and every assembly under `assemble/leaf`; each flushes the
//! leaf counters once per share: `leaves` = `batched_leaves` +
//! `scalar_leaves`, `batch_count`, `hanging_slots`, `hanging_chain`. An
//! assembly counts a recorded run as one panel; an apply cuts it to the
//! kernel's [`LeafKernel::panel_width`].

use crate::nodes::{
    half_lattice_coord, half_lattice_linear, hanging_sources, nodes_per_elem, NodeSet, Prolongation,
};
use crate::par;
use carve_la::CooBuilder;
use carve_la::DenseMatrix;
use carve_sfc::morton::point_cmp_morton;
use carve_sfc::{Curve, Octant, SfcState};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Triplet log `(row, col, val)` of one worker share of an assembly,
/// drained in share (SFC task) order.
type OutLog = Vec<(u32, u32, f64)>;

/// Deferred additions `(spine arena index, value)` of one replayed task,
/// applied at join in SFC task order.
type SpineLog = Vec<(u32, f64)>;

/// Sentinel for "no node at this lattice slot" (a hanging slot).
const NO_SLOT: u32 = u32::MAX;

/// Source of a recorded hanging interpolation source that is itself
/// hanging: its arena field then indexes the task's chain nodes.
const CHAIN: u32 = u32::MAX;

/// Flag of an arena index that lies in the shared spine (logged at replay)
/// rather than in the task's own accumulators.
const SPINE: u32 = 1 << 31;

/// One level's worth of bucketed nodes along the current walk path, as
/// indices into the root node set (in its Morton order).
#[derive(Default)]
struct Bucket {
    root: Vec<u32>,
    /// `parent_slot[i]` is the index of entry `i` in the parent bucket.
    parent_slot: Vec<u32>,
    /// Arena index of entry 0 in the value pass: in the spine for spine
    /// buckets, task-local otherwise.
    off: u32,
}

impl Bucket {
    fn len(&self) -> usize {
        self.root.len()
    }

    /// Empties contents, keeping capacity (arena reuse).
    fn clear(&mut self) {
        self.root.clear();
        self.parent_slot.clear();
        self.off = 0;
    }
}

// --- Workspace ------------------------------------------------------------

/// Per-worker scratch of the walk (local to `record`): a bucket free-list
/// for the task-local recursion, the depth stack container itself, the
/// leaf stage's buffers, and the free-list's alloc/reuse tallies.
#[derive(Default)]
struct WorkerScratch<const DIM: usize> {
    buckets: Vec<Bucket>,
    own_stack: Vec<Bucket>,
    leaf: LeafScratch<DIM>,
    alloc: u64,
    reuse: u64,
}

/// Buffers of the walk's leaf stage.
#[derive(Default)]
struct LeafScratch<const DIM: usize> {
    /// Half-lattice maps (half-lattice slot → parent-bucket index), one
    /// `(2p+1)^DIM` frame per sibling group open along the recursion path.
    lattice: Vec<u32>,
    chain: ChainBufs<DIM>,
}

/// The hanging-chain resolver's source stack, and the chain it resolves.
#[derive(Default)]
struct ChainBufs<const DIM: usize> {
    srcs: Vec<([u64; DIM], f64)>,
    nodes: Vec<ChainNode>,
}

/// Per-worker scratch of the value pass: the task-local accumulators and
/// one SoA panel.
#[derive(Default)]
struct ReplayScratch {
    arena: Vec<f64>,
    vin: Vec<f64>,
    vout: Vec<f64>,
}

/// Per-worker output of an assembly replay: the share's triplet log, and
/// the `(global id, weight)` stencil of each lattice slot of one leaf.
#[derive(Default)]
struct TripletShare {
    log: OutLog,
    stencils: Vec<Vec<(u32, f64)>>,
}

/// Default panel width: one full sibling group in 3D (`2^3`), the longest
/// run of sibling leaves a 3-D traversal forms.
const DEFAULT_BATCH_WIDTH: usize = 8;

/// Per-operator traversal state, held across calls (Krylov iterations): the
/// recorded plan of the last tree applied or assembled, which the matvec
/// and assembly both replay, the replay's accumulators and spine logs, and
/// the ghosted-input scratch. It keeps no walk state: the walk's buckets
/// live only inside the recording. Also carries the intra-rank thread
/// budget (`CARVE_PAR_THREADS` env or `available_parallelism`), the spine
/// split depth and the panel width. Results never depend on any of them —
/// see the module docs — only wall-clock does.
pub struct TraversalWorkspace<const DIM: usize> {
    threads: usize,
    /// 1: every depth-1 subtree is a task; tests sweep deeper splits.
    split_depth: u8,
    /// Maximum leaf-panel width (default 8; 1 makes every panel one
    /// leaf). Results never depend on it.
    batch_width: usize,
    plan: Option<Plan<DIM>>,
    replay: Vec<ReplayScratch>,
    /// One spine log per task of the plan.
    logs: Vec<SpineLog>,
    /// The spine's accumulators: the root bucket (`0..n`, the output) and
    /// every interior spine bucket.
    spine: Vec<f64>,
    /// False while an apply is in flight: an apply that unwound (a panic
    /// in a kernel or in the ghost wait) leaves accumulators to re-zero.
    clean: bool,
    /// Persistent ghosted copy of the matvec input vector, so repeated
    /// applies (Krylov iterations) never re-allocate the `x.to_vec()` they
    /// used to. Borrowed via [`Self::take_ghost_scratch`].
    ghost_scratch: Vec<f64>,
    /// Pooled per-task interior/boundary flags for the overlapped matvec.
    task_flags: Vec<bool>,
    /// Hanging-node prolongation table of the order last traversed.
    prolongation: Option<Arc<Prolongation>>,
}

impl<const DIM: usize> TraversalWorkspace<DIM> {
    /// Workspace with the environment-resolved thread budget.
    pub fn new() -> Self {
        Self::with_threads(par::thread_budget())
    }

    /// Workspace with an explicit thread count (tests; avoids racy env
    /// mutation under a parallel test harness).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            split_depth: 1,
            batch_width: DEFAULT_BATCH_WIDTH,
            plan: None,
            replay: Vec::new(),
            logs: Vec::new(),
            spine: Vec::new(),
            clean: true,
            ghost_scratch: Vec::new(),
            task_flags: Vec::new(),
            prolongation: None,
        }
    }

    /// Sets the maximum leaf-panel width (builder style; tests and
    /// benchmarks). `1` makes every panel a single leaf.
    pub fn with_batch_width(mut self, width: usize) -> Self {
        self.batch_width = width.max(1);
        self
    }

    /// The maximum leaf-panel width kernels will see.
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Sets the spine split depth (tests only: the determinism tests sweep
    /// it to cover multi-level spines and their ordered join).
    #[cfg(test)]
    pub(crate) fn with_split_depth(mut self, depth: u8) -> Self {
        self.split_depth = depth.max(1);
        self
    }

    /// Takes the persistent ghosted-input scratch vector (empty the first
    /// time, with its grown capacity afterwards). Callers fill it with the
    /// ghosted input, run the traversal, and hand it back via
    /// [`Self::restore_ghost_scratch`] so the next apply is allocation-free.
    pub fn take_ghost_scratch(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.ghost_scratch)
    }

    /// Returns the ghosted-input scratch for reuse by the next apply.
    pub fn restore_ghost_scratch(&mut self, v: Vec<f64>) {
        self.ghost_scratch = v;
    }

    /// The intra-rank thread budget this workspace will fork up to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The order-`p` prolongation table, built on first use and kept for
    /// the following applies.
    fn prolongation(&mut self, p: u64) -> Arc<Prolongation> {
        match &self.prolongation {
            Some(t) if t.order() == p => Arc::clone(t),
            _ => {
                let t = Arc::new(Prolongation::new::<DIM>(p));
                self.prolongation = Some(Arc::clone(&t));
                t
            }
        }
    }

    /// The plan of `tree`: the cached one if its key matches, else a fresh
    /// recording (the stale plan is dropped first).
    fn plan_for(&mut self, tree: &Tree<'_, DIM>, budget: usize) -> Plan<DIM> {
        match self.plan.take() {
            Some(plan) if plan.key.matches(tree, self.batch_width, self.split_depth) => plan,
            _ => record(tree, self, budget),
        }
    }
}

impl<const DIM: usize> Default for TraversalWorkspace<DIM> {
    fn default() -> Self {
        Self::new()
    }
}

// --- The plan ---------------------------------------------------------------

/// Everything a recorded plan depends on, by value.
struct PlanKey<const DIM: usize> {
    elems: Vec<Octant<DIM>>,
    owned: Range<usize>,
    curve: Curve,
    order: u64,
    coords: Vec<[u64; DIM]>,
    batch: usize,
    split_depth: u8,
}

impl<const DIM: usize> PlanKey<DIM> {
    fn new(tree: &Tree<'_, DIM>, batch: usize, split_depth: u8) -> Self {
        Self {
            elems: tree.elems.to_vec(),
            owned: tree.owned.clone(),
            curve: tree.curve,
            order: tree.nodes.order,
            coords: tree.nodes.coords.clone(),
            batch,
            split_depth,
        }
    }

    fn matches(&self, tree: &Tree<'_, DIM>, batch: usize, split_depth: u8) -> bool {
        self.owned == tree.owned
            && self.curve == tree.curve
            && self.order == tree.nodes.order
            && self.batch == batch
            && self.split_depth == split_depth
            && self.elems[..] == tree.elems[..]
            && self.coords[..] == tree.nodes.coords[..]
    }
}

/// One node of a hanging-source chain, in preorder: a node that resolves
/// (`kids == 0`, read from `src`, scattered into `dst`) or a coordinate that
/// hangs again and is interpolated from the `kids` subtrees that follow.
#[derive(Clone, Copy)]
struct ChainNode {
    /// Weight on this node's value in its parent's interpolation (the
    /// table's weight, for a chain's root).
    w: f64,
    src: u32,
    dst: u32,
    kids: u32,
}

/// One step of a task's recorded value program.
#[derive(Clone, Copy)]
enum Op {
    /// `width` SFC-consecutive sibling leaves from element `first`; their
    /// `npe` slots each are the next entries of [`Segment::slots`].
    Run { first: u32, width: u32 },
    /// Adds the `len` task-local accumulators from arena index `child` into
    /// the next `len` targets of [`Segment::merge_dst`], zeroing them.
    Merge { child: u32, len: u32 },
}

/// One step of the spine's join program.
#[derive(Clone, Copy)]
enum JoinOp {
    /// Applies task `t`'s spine log.
    Task(u32),
    /// Adds the `len` spine accumulators from `child` into the next `len`
    /// entries of [`Plan::join_dst`], zeroing them.
    Merge { child: u32, len: u32 },
}

/// The recorded value program of one task.
#[derive(Default)]
struct Segment {
    /// The task's element range (its ghost-exchange flag is derived from
    /// it per apply).
    range: Range<usize>,
    ops: Vec<Op>,
    /// `(root node index, arena index)` of every leaf lattice slot, or
    /// `(NO_SLOT, NO_SLOT)` for a hanging one.
    slots: Vec<(u32, u32)>,
    /// `(root node index, arena index)` of every one-level source of every
    /// hanging slot, in table order; `(CHAIN, i)` for a source resolved by
    /// the chain rooted at `chain[i]`.
    hang: Vec<(u32, u32)>,
    merge_dst: Vec<u32>,
    chain: Vec<ChainNode>,
    /// Extent of the task-local accumulators.
    arena_len: usize,
    /// Hanging slots, and hanging sources resolved by a chain: the
    /// task's share of every apply's `hanging_slots` / `hanging_chain`.
    hanging: u64,
    chained: u64,
}

impl Segment {
    fn shrink(&mut self) {
        self.ops.shrink_to_fit();
        self.slots.shrink_to_fit();
        self.hang.shrink_to_fit();
        self.merge_dst.shrink_to_fit();
        self.chain.shrink_to_fit();
    }
}

/// The recorded MATVEC of one tree: per-task value programs in SFC task
/// order and the spine's join program.
struct Plan<const DIM: usize> {
    key: PlanKey<DIM>,
    tasks: Vec<Segment>,
    join: Vec<JoinOp>,
    join_dst: Vec<u32>,
    spine_len: usize,
}

/// The leaf-stage counters of an apply or of an assembly run, kept in
/// plain fields and flushed once.
#[derive(Default)]
struct LeafCounts {
    leaves: u64,
    batched_leaves: u64,
    batch_count: u64,
    scalar_leaves: u64,
    hanging_slots: u64,
    hanging_chain: u64,
}

impl LeafCounts {
    fn panel(&mut self, width: usize) {
        let w = width as u64;
        self.leaves += w;
        if w > 1 {
            self.batched_leaves += w;
            self.batch_count += 1;
        } else {
            self.scalar_leaves += 1;
        }
    }

    /// Emits the non-zero counters under the open obs scope.
    fn flush(&self) {
        for (name, v) in [
            ("leaves", self.leaves),
            ("batched_leaves", self.batched_leaves),
            ("batch_count", self.batch_count),
            ("scalar_leaves", self.scalar_leaves),
            ("hanging_slots", self.hanging_slots),
            ("hanging_chain", self.hanging_chain),
        ] {
            if v > 0 {
                carve_obs::counter(name, v);
            }
        }
    }
}

// --- Task-local bucket stack view -----------------------------------------

/// A task's view of the bucket stack during the walk: shared read-only
/// ancestor prefix (spine buckets), the task's own base bucket, and the
/// task-local stack of deeper buckets.
struct Ctx<'a, const DIM: usize> {
    coords: &'a [[u64; DIM]],
    prefix: &'a [&'a Bucket],
    base: &'a Bucket,
    own: Vec<Bucket>,
    free: &'a mut Vec<Bucket>,
    alloc: &'a mut u64,
    reuse: &'a mut u64,
}

impl<const DIM: usize> Ctx<'_, DIM> {
    #[inline]
    fn top_depth(&self) -> usize {
        self.prefix.len() + self.own.len()
    }

    #[inline]
    fn bucket(&self, depth: usize) -> &Bucket {
        let pl = self.prefix.len();
        if depth < pl {
            self.prefix[depth]
        } else if depth == pl {
            self.base
        } else {
            &self.own[depth - pl - 1]
        }
    }

    #[inline]
    fn top_bucket(&self) -> &Bucket {
        self.bucket(self.top_depth())
    }

    /// The arena index of entry `slot` of the depth-`depth` bucket: flagged
    /// [`SPINE`] when the bucket is a shared spine ancestor.
    #[inline]
    fn target(&self, depth: usize, slot: usize) -> u32 {
        let i = self.bucket(depth).off + slot as u32;
        if depth < self.prefix.len() {
            SPINE | i
        } else {
            i
        }
    }

    fn find(&self, depth: usize, coord: &[u64; DIM]) -> Option<usize> {
        self.bucket(depth)
            .root
            .binary_search_by(|&r| point_cmp_morton(&self.coords[r as usize], coord))
            .ok()
    }

    fn acquire(&mut self) -> Bucket {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                *self.reuse += 1;
                b
            }
            None => {
                *self.alloc += 1;
                Bucket::default()
            }
        }
    }
}

// --- Hanging chains ---------------------------------------------------------
//
// The leaf stage resolves a hanging slot from the prolongation table. A
// tabulated source that is itself hanging at the parent's level (possible
// on unbalanced or incomplete trees; absent from balanced meshes) is
// resolved by coordinate up the bucket stack instead, into a chain.

/// Resolves `coord` (on the `p`-lattice of the level-`depth` ancestor of
/// `leaf`) into a preorder chain pushed onto `bufs.nodes`, `w` being its
/// weight in the caller's interpolation.
fn record_chain<const DIM: usize>(
    ctx: &Ctx<'_, DIM>,
    leaf: &Octant<DIM>,
    depth: usize,
    coord: &[u64; DIM],
    w: f64,
    p: u64,
    bufs: &mut ChainBufs<DIM>,
) {
    if let Some(i) = ctx.find(depth, coord) {
        bufs.nodes.push(ChainNode {
            w,
            src: ctx.bucket(depth).root[i],
            dst: ctx.target(depth, i),
            kids: 0,
        });
        return;
    }
    let oct = leaf.ancestor_at(depth as u8);
    let base = bufs.srcs.len();
    hanging_sources(&oct, coord, p, &mut bufs.srcs);
    let end = bufs.srcs.len();
    bufs.nodes.push(ChainNode {
        w,
        src: NO_SLOT,
        dst: NO_SLOT,
        kids: (end - base) as u32,
    });
    for k in base..end {
        let (src, w) = bufs.srcs[k];
        record_chain(ctx, leaf, depth - 1, &src, w, p, bufs);
    }
    bufs.srcs.truncate(base);
}

/// The value of the chain rooted at `chain[i]`, and the index past it.
fn chain_value(chain: &[ChainNode], i: usize, x: &[f64]) -> (f64, usize) {
    let node = chain[i];
    if node.kids == 0 {
        return (x[node.src as usize], i + 1);
    }
    let mut v = 0.0;
    let mut j = i + 1;
    for _ in 0..node.kids {
        let (kid, next) = chain_value(chain, j, x);
        v += chain[j].w * kid;
        j = next;
    }
    (v, j)
}

/// Transpose of [`chain_value`]: scatters `val` down the chain.
fn chain_scatter(chain: &[ChainNode], i: usize, val: f64, sink: &mut Sink<'_>) -> usize {
    let node = chain[i];
    if node.kids == 0 {
        sink.add(node.dst, val);
        return i + 1;
    }
    let mut j = i + 1;
    for _ in 0..node.kids {
        j = chain_scatter(chain, j, chain[j].w * val, sink);
    }
    j
}

/// The chain as a `(global id, weight)` stencil (assembly path).
fn chain_stencil(
    chain: &[ChainNode],
    i: usize,
    weight: f64,
    ids: &[u32],
    out: &mut Vec<(u32, f64)>,
) -> usize {
    let node = chain[i];
    if node.kids == 0 {
        out.push((ids[node.src as usize], weight));
        return i + 1;
    }
    let mut j = i + 1;
    for _ in 0..node.kids {
        j = chain_stencil(chain, j, weight * chain[j].w, ids, out);
    }
    j
}

// --- Spine / task decomposition -------------------------------------------

/// Immutable per-call walk parameters.
struct Env<'a, const DIM: usize> {
    elems: &'a [Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    coords: &'a [[u64; DIM]],
    p: u64,
    /// Maximum leaf-run width (workspace `batch_width`); the replay cuts a
    /// run further to the kernel's [`LeafKernel::panel_width`].
    batch: usize,
    table: &'a Prolongation,
}

/// A spine node: a bucket on the serial prefix of the tree, shared
/// read-only by the tasks below it.
struct SpineNode {
    bucket: Bucket,
    kids: Vec<SpineChild>,
}

#[derive(Clone, Copy)]
enum SpineChild {
    Interior(u32),
    Task(u32),
}

/// An independent SFC-contiguous subtree of work.
struct Task<const DIM: usize> {
    oct: Octant<DIM>,
    st: SfcState,
    range: Range<usize>,
    /// Spine indices of the ancestor buckets, root first; the last entry is
    /// this task's parent. `len()` equals the task bucket's depth.
    ancestors: Vec<u32>,
    /// The task is itself a leaf element (no further descent).
    is_leaf: bool,
    bucket: Bucket,
}

struct Spine<const DIM: usize> {
    interior: Vec<SpineNode>,
    tasks: Vec<Task<DIM>>,
    /// Extent of the spine's accumulators.
    len: usize,
}

/// Builds the spine buckets serially down to `split_depth` and carves the
/// remaining subtrees into tasks (SFC order).
fn build_spine<const DIM: usize>(env: &Env<'_, DIM>, split_depth: u8, root: Bucket) -> Spine<DIM> {
    let mut spine = Spine {
        len: root.len(),
        interior: vec![SpineNode {
            bucket: root,
            kids: Vec::new(),
        }],
        tasks: Vec::new(),
    };
    let all = 0..env.elems.len();
    if all.len() == 1 && env.elems[0] == Octant::ROOT {
        // Single-element tree: its one leaf is its own parent and reads
        // the root bucket.
        spine.tasks.push(Task {
            oct: Octant::ROOT,
            st: SfcState::ROOT,
            range: all,
            ancestors: vec![0],
            is_leaf: true,
            bucket: Bucket::default(),
        });
        spine.interior[0].kids.push(SpineChild::Task(0));
        return spine;
    }
    let mut path = vec![0u32];
    grow(
        env,
        split_depth,
        0,
        Octant::ROOT,
        SfcState::ROOT,
        all,
        &mut path,
        &mut spine,
    );
    spine
}

#[allow(clippy::too_many_arguments)]
fn grow<const DIM: usize>(
    env: &Env<'_, DIM>,
    split_depth: u8,
    node: u32,
    subtree: Octant<DIM>,
    st: SfcState,
    range: Range<usize>,
    path: &mut Vec<u32>,
    spine: &mut Spine<DIM>,
) {
    let child_level = subtree.level + 1;
    let mut lo = range.start;
    for r in 0..(1usize << DIM) {
        let mut hi = lo;
        while hi < range.end
            && st.morton_to_sfc(env.curve, DIM, env.elems[hi].child_bits_at(child_level)) == r
        {
            hi += 1;
        }
        if hi == lo {
            continue;
        }
        // Skip subtrees with no owned elements (distributed restriction).
        if lo >= env.owned.end || hi <= env.owned.start {
            lo = hi;
            continue;
        }
        let m = st.sfc_to_morton(env.curve, DIM, r);
        let child_oct = subtree.child(m);
        let child_st = st.child(env.curve, DIM, r);
        let single_leaf = hi - lo == 1 && env.elems[lo] == child_oct;
        let mut b = Bucket::default();
        // A leaf reads its parent's bucket and gets none of its own.
        if !single_leaf {
            let _obs_td = carve_obs::scope("top_down");
            fill_child_bucket(
                &spine.interior[node as usize].bucket,
                env.coords,
                &child_oct,
                env.p,
                &mut b,
            );
            carve_obs::counter("node_copies", b.len() as u64);
        }
        if single_leaf || child_level >= split_depth {
            let ti = spine.tasks.len() as u32;
            spine.tasks.push(Task {
                oct: child_oct,
                st: child_st,
                range: lo..hi,
                ancestors: path.clone(),
                is_leaf: single_leaf,
                bucket: b,
            });
            spine.interior[node as usize]
                .kids
                .push(SpineChild::Task(ti));
        } else {
            let ci = spine.interior.len() as u32;
            b.off = spine.len as u32;
            spine.len += b.len();
            spine.interior.push(SpineNode {
                bucket: b,
                kids: Vec::new(),
            });
            spine.interior[node as usize]
                .kids
                .push(SpineChild::Interior(ci));
            path.push(ci);
            grow(
                env,
                split_depth,
                ci,
                child_oct,
                child_st,
                lo..hi,
                path,
                spine,
            );
            path.pop();
        }
        lo = hi;
    }
    debug_assert_eq!(lo, range.end, "elements not fully bucketed");
}

/// Buckets the parent's nodes incident on `child_oct`'s closed region into
/// `out` (which the arena has already cleared).
fn fill_child_bucket<const DIM: usize>(
    parent: &Bucket,
    coords: &[[u64; DIM]],
    child_oct: &Octant<DIM>,
    p: u64,
    out: &mut Bucket,
) {
    let side = child_oct.side() as u64;
    for (i, &r) in parent.root.iter().enumerate() {
        let c = &coords[r as usize];
        let mut incident = true;
        for (&ck, &ak) in c.iter().zip(&child_oct.anchor) {
            let a = ak as u64 * p;
            if ck < a || ck > a + side * p {
                incident = false;
                break;
            }
        }
        if incident {
            out.root.push(r);
            out.parent_slot.push(i as u32);
        }
    }
}

// --- Elemental kernel traits ----------------------------------------------

/// Elemental operator for the matvec traversal, applied to panels of
/// SFC-consecutive same-level sibling leaves in structure-of-arrays
/// layout: node `lin` of element `b` of a width-`w` panel lives at
/// `[lin * w + b]`.
///
/// Implemented for every `FnMut(&Octant<DIM>, &[f64], &mut [f64])` closure
/// as a kernel of panel width 1, so plain-closure call sites need no
/// changes.
pub trait LeafKernel<const DIM: usize> {
    /// The widest panel the kernel takes; the workspace's
    /// [`TraversalWorkspace::batch_width`] caps it further.
    fn panel_width(&self) -> usize {
        usize::MAX
    }

    /// `v_e += K_e u_e` for every element of the panel `elems` (`v`
    /// arrives zeroed). Each element's result must not depend on the panel
    /// width, so traversals agree bitwise for every width.
    fn apply(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]);
}

impl<const DIM: usize, F> LeafKernel<DIM> for F
where
    F: FnMut(&Octant<DIM>, &[f64], &mut [f64]),
{
    fn panel_width(&self) -> usize {
        1
    }

    fn apply(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
        debug_assert_eq!(elems.len(), 1, "a closure kernel takes one element");
        self(&elems[0], u, v)
    }
}

/// Elemental matrix source for the assembly traversal. Caching kernels
/// (e.g. per-level matrices on axis-aligned octrees) lend a borrow so the
/// traversal skips the per-leaf build; the emitted triplet stream is the
/// same either way.
///
/// Implemented for every `FnMut(&Octant<DIM>) -> DenseMatrix` closure.
pub trait AssemblyKernel<const DIM: usize> {
    /// The elemental matrix `K_e`.
    fn matrix(&mut self, e: &Octant<DIM>) -> Cow<'_, DenseMatrix>;
}

impl<const DIM: usize, F> AssemblyKernel<DIM> for F
where
    F: FnMut(&Octant<DIM>) -> DenseMatrix,
{
    fn matrix(&mut self, e: &Octant<DIM>) -> Cow<'_, DenseMatrix> {
        Cow::Owned(self(e))
    }
}

// --- The walk ---------------------------------------------------------------

/// Which block of the prolongation table `leaf` reads: its Morton corner in
/// its parent, or `1 << DIM` for a root-only tree's leaf, which is its own
/// parent.
fn corner<const DIM: usize>(leaf: &Octant<DIM>) -> usize {
    if leaf.level == 0 {
        1 << DIM
    } else {
        leaf.child_number()
    }
}

/// A sibling group: the parent octant whose bucket its leaf children read,
/// where that bucket sits in the stack, and where the group's half-lattice
/// map starts in [`LeafScratch::lattice`] once its first run has `swept`
/// the bucket onto it.
struct Group<const DIM: usize> {
    parent: Octant<DIM>,
    depth: usize,
    lattice_at: usize,
    swept: bool,
}

/// Maps `bucket` onto the half-spacing lattice of `parent`, pushing one
/// frame onto `lattice`; returns the number of nodes that landed on it.
fn sweep_half_lattice<const DIM: usize>(
    parent: &Octant<DIM>,
    p: u64,
    bucket: &Bucket,
    coords: &[[u64; DIM]],
    lattice: &mut Vec<u32>,
) -> u64 {
    let base = lattice.len();
    lattice.resize(base + ((2 * p + 1) as usize).pow(DIM as u32), NO_SLOT);
    let mut hits = 0;
    for (i, &r) in bucket.root.iter().enumerate() {
        if let Some(h) = half_lattice_linear(parent, p, &coords[r as usize]) {
            lattice[base + h] = i as u32;
            hits += 1;
        }
    }
    hits
}

/// The leaf stage: records the sibling leaves `env.elems[run]` of `group`
/// into `seg`, sweeping the parent bucket onto the half lattice first if no
/// earlier run of the group has. Per leaf, in lattice order, a direct slot
/// records its `(root, arena)` pair; a hanging one records `(NO_SLOT,
/// NO_SLOT)` and then each one-level source in table order — a node of the
/// parent bucket, or a chain for a source that hangs again.
fn leaf_run<const DIM: usize>(
    env: &Env<'_, DIM>,
    group: &mut Group<DIM>,
    run: Range<usize>,
    ctx: &Ctx<'_, DIM>,
    scr: &mut LeafScratch<DIM>,
    seg: &mut Segment,
) {
    let _obs = carve_obs::scope("leaf");
    let (depth, p) = (group.depth, env.p);
    let parent = ctx.bucket(depth);
    if !group.swept {
        let hits = sweep_half_lattice(&group.parent, p, parent, env.coords, &mut scr.lattice);
        carve_obs::counter("slot_sweep_hits", hits);
        group.swept = true;
    }
    seg.ops.push(Op::Run {
        first: run.start as u32,
        width: run.len() as u32,
    });
    let lattice = &scr.lattice[group.lattice_at..];
    let node = |s: u32| (parent.root[s as usize], ctx.target(depth, s as usize));
    for leaf in &env.elems[run] {
        let c = corner(leaf);
        for (lin, &h) in env.table.half_slots(c).iter().enumerate() {
            let s = lattice[h as usize];
            if s != NO_SLOT {
                seg.slots.push(node(s));
                continue;
            }
            seg.hanging += 1;
            seg.slots.push((NO_SLOT, NO_SLOT));
            let srcs = env.table.sources(c, lin);
            assert!(!srcs.is_empty(), "hanging slot off the parent's boundary");
            for &(h, w) in srcs {
                let s = lattice[h as usize];
                if s != NO_SLOT {
                    seg.hang.push(node(s));
                    continue;
                }
                seg.chained += 1;
                seg.hang.push((CHAIN, seg.chain.len() as u32));
                let coord = half_lattice_coord(&group.parent, p, h as usize);
                scr.chain.nodes.clear();
                record_chain(ctx, leaf, depth, &coord, w, p, &mut scr.chain);
                seg.chain.extend_from_slice(&scr.chain.nodes);
            }
        }
    }
}

/// Records the bottom-up merge of `child`, whose parent is at `depth`: each
/// entry's accumulator adds into its parent entry's.
fn record_merge<const DIM: usize>(
    seg: &mut Segment,
    ctx: &Ctx<'_, DIM>,
    child: &Bucket,
    depth: usize,
) {
    if child.len() == 0 {
        return;
    }
    seg.ops.push(Op::Merge {
        child: child.off,
        len: child.len() as u32,
    });
    seg.merge_dst.extend(
        child
            .parent_slot
            .iter()
            .map(|&ps| ctx.target(depth, ps as usize)),
    );
    seg.arena_len = seg.arena_len.max(child.off as usize + child.len());
    assert!(seg.arena_len < SPINE as usize, "task accumulators overflow");
}

/// Walks one task against its ancestor prefix, recording it into `seg`.
fn run_task<const DIM: usize>(
    env: &Env<'_, DIM>,
    task: &Task<DIM>,
    interior: &[SpineNode],
    scr: &mut WorkerScratch<DIM>,
    seg: &mut Segment,
) {
    let prefix: Vec<&Bucket> = task
        .ancestors
        .iter()
        .map(|&i| &interior[i as usize].bucket)
        .collect();
    let WorkerScratch {
        buckets,
        own_stack,
        leaf,
        alloc,
        reuse,
    } = scr;
    let mut ctx = Ctx {
        coords: env.coords,
        prefix: &prefix,
        base: &task.bucket,
        own: std::mem::take(own_stack),
        free: buckets,
        alloc,
        reuse,
    };
    let parent_depth = prefix.len() - 1;
    if task.is_leaf {
        if env.owned.contains(&task.range.start) {
            // A spine-level leaf reads the last spine bucket; a root-only
            // tree's single leaf is its own parent and reads the root's.
            let mut group = Group {
                parent: task.oct.ancestor_at(task.oct.level.saturating_sub(1)),
                depth: parent_depth,
                lattice_at: leaf.lattice.len(),
                swept: false,
            };
            leaf_run(env, &mut group, task.range.clone(), &ctx, leaf, seg);
            leaf.lattice.truncate(group.lattice_at);
        }
    } else {
        rec(
            env,
            task.oct,
            task.st,
            task.range.clone(),
            &mut ctx,
            leaf,
            seg,
        );
        record_merge(seg, &ctx, &task.bucket, parent_depth);
    }
    debug_assert!(ctx.own.is_empty());
    *own_stack = ctx.own;
}

/// The recursive top-down / bottom-up walk inside one task; `subtree` is
/// never a leaf itself.
fn rec<const DIM: usize>(
    env: &Env<'_, DIM>,
    subtree: Octant<DIM>,
    st: SfcState,
    range: Range<usize>,
    ctx: &mut Ctx<'_, DIM>,
    scr: &mut LeafScratch<DIM>,
    seg: &mut Segment,
) {
    debug_assert!(!range.is_empty());
    // Partition the (SFC-sorted) element range by SFC child rank; the
    // runs are contiguous and in rank order.
    let child_level = subtree.level + 1;
    let mut group = Group {
        parent: subtree,
        depth: ctx.top_depth(),
        lattice_at: scr.lattice.len(),
        swept: false,
    };
    let mut lo = range.start;
    for r in 0..(1usize << DIM) {
        let mut hi = lo;
        while hi < range.end
            && st.morton_to_sfc(env.curve, DIM, env.elems[hi].child_bits_at(child_level)) == r
        {
            hi += 1;
        }
        if hi == lo {
            continue;
        }
        if lo >= env.owned.end || hi <= env.owned.start {
            lo = hi;
            continue;
        }
        // An element at exactly `child_level` IS one whole child of this
        // subtree: a leaf. Take it with the owned sibling leaves that
        // follow it (distinct, ascending SFC ranks) as one run of up to
        // `env.batch`; the for-loop then naturally skips the ranks the run
        // covered, because runs are re-scanned from the advanced `lo`.
        if env.elems[lo].level == child_level {
            let mut q = lo + 1;
            while q - lo < env.batch
                && q < range.end
                && q < env.owned.end
                && env.elems[q].level == child_level
            {
                q += 1;
            }
            leaf_run(env, &mut group, lo..q, ctx, scr, seg);
            lo = q;
            continue;
        }
        let m = st.sfc_to_morton(env.curve, DIM, r);
        let child_oct = subtree.child(m);
        let child_st = st.child(env.curve, DIM, r);
        // Top-down: bucket nodes incident on the child's closed region.
        let obs_td = carve_obs::scope("top_down");
        let mut child = ctx.acquire();
        let top = ctx.top_bucket();
        child.off = top.off + top.len() as u32;
        fill_child_bucket(top, env.coords, &child_oct, env.p, &mut child);
        carve_obs::counter("node_copies", child.len() as u64);
        drop(obs_td);
        ctx.own.push(child);
        rec(env, child_oct, child_st, lo..hi, ctx, scr, seg);
        // Bottom-up: duplicated entries merge back into the parent.
        let child = ctx.own.pop().expect("child bucket");
        record_merge(seg, ctx, &child, ctx.top_depth());
        ctx.free.push(child);
        lo = hi;
    }
    debug_assert_eq!(lo, range.end, "elements not fully bucketed");
    scr.lattice.truncate(group.lattice_at);
}

// --- Drivers ------------------------------------------------------------------

/// The tree one traversal walks: SFC-sorted leaf elements (owned + ghost in
/// the distributed case), the `owned` sub-range whose leaves apply their
/// elemental kernel, and the node set bucketed down it.
pub(crate) struct Tree<'a, const DIM: usize> {
    pub(crate) elems: &'a [Octant<DIM>],
    pub(crate) owned: Range<usize>,
    pub(crate) curve: Curve,
    pub(crate) nodes: &'a NodeSet<DIM>,
}

/// Where a sweep's elemental kernels come from: the caller's own kernel
/// (one worker, inline — the `_ws` entry points) or a factory building one
/// kernel per worker (up to `ws.threads()` workers — the `_par` entry
/// points). Nothing else distinguishes sequential from fork-join execution.
pub(crate) enum Kernels<'a, K, F> {
    Held(&'a mut K),
    Make(&'a F),
}

impl<K, F> Kernels<'_, K, F> {
    /// How many workers this kernel source may use under `threads`.
    fn budget(&self, threads: usize) -> usize {
        match self {
            Kernels::Held(_) => 1,
            Kernels::Make(_) => threads,
        }
    }
}

/// The matvec input vector: complete up front, or — the overlapped exchange
/// of §3.5 — with its ghost entries still in flight.
pub(crate) enum Input<'a, W> {
    Complete(&'a [f64]),
    /// The caller has already *posted* the nonblocking ghost read of `xg`'s
    /// owned entries; `x` is the input as it was before (equal to `xg` on
    /// every rank-owned node). Tasks none of whose owned elements is a
    /// `boundary_elem` (stencil closure rank-local) replay against `x`
    /// while `wait` completes the exchange into `xg`; the rest replay
    /// against `xg` afterwards. `wait` is invoked exactly once on every
    /// path, including empty-owned ranks — it carries the exchange's
    /// collective tag discipline.
    InFlight {
        x: &'a [f64],
        xg: &'a mut [f64],
        boundary_elem: &'a [bool],
        wait: W,
    },
}

impl<W> Input<'_, W> {
    fn values(&self) -> &[f64] {
        match self {
            Input::Complete(x) => x,
            Input::InFlight { xg, .. } => xg,
        }
    }
}

/// Contiguous chunk size and worker count for `n_tasks` under `budget`.
fn chunking(n_tasks: usize, budget: usize) -> (usize, usize) {
    let workers = par::worker_count(n_tasks, budget);
    let chunk = n_tasks.div_ceil(workers).max(1);
    (chunk, n_tasks.div_ceil(chunk).max(1))
}

fn join_worker<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match h.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Runs the `items` selected by `pick` (index → run it?) on up to `budget`
/// workers and returns the worker count used. `run(kernel, share, scratch)`
/// processes one worker's SFC-contiguous share with its kernel. A held
/// kernel runs the share inline; a factory forks scoped workers, each
/// building its own kernel and recording obs detached (re-absorbed under
/// the caller's open scope). Either way `meanwhile` runs exactly once on
/// the calling thread — while the workers are busy, when there are any.
fn sweep<T, S, K, F, R>(
    items: &mut [T],
    pick: impl Fn(usize) -> bool,
    budget: usize,
    scratch: &mut Vec<S>,
    kernels: &mut Kernels<'_, K, F>,
    run: &R,
    meanwhile: impl FnOnce(),
) -> usize
where
    T: Send,
    S: Send + Default,
    F: Fn() -> K + Sync,
    R: Fn(&mut K, &mut [&mut T], &mut S) + Sync,
{
    let mut picked: Vec<&mut T> = items
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| pick(*i))
        .map(|(_, t)| t)
        .collect();
    let (chunk, workers) = chunking(picked.len(), budget);
    scratch.resize_with(scratch.len().max(workers), S::default);
    match kernels {
        Kernels::Make(make) if workers > 1 => {
            let make: &F = make;
            let snaps: Vec<carve_obs::Snapshot> = std::thread::scope(|s| {
                let handles: Vec<_> = picked
                    .chunks_mut(chunk)
                    .zip(scratch.iter_mut())
                    .map(|(share, scr)| {
                        s.spawn(move || {
                            carve_obs::detach_thread();
                            run(&mut make(), share, scr);
                            carve_obs::thread_snapshot()
                        })
                    })
                    .collect();
                // The communicator is single-threaded by design, so a ghost
                // wait stays on the spawning thread while the workers chew
                // on their subtrees: this is the overlap window.
                meanwhile();
                handles.into_iter().map(join_worker).collect()
            });
            for snap in &snaps {
                carve_obs::absorb_rebased(snap);
            }
        }
        _ => {
            if !picked.is_empty() {
                let scr = &mut scratch[0];
                match kernels {
                    Kernels::Held(kernel) => run(kernel, &mut picked, scr),
                    Kernels::Make(make) => run(&mut make(), &mut picked, scr),
                }
            }
            meanwhile();
        }
    }
    workers
}

// --- Recording --------------------------------------------------------------

/// The structure pass: walks `tree` once on up to `budget` workers and
/// records its plan. The walk's buckets and per-worker scratch are local:
/// nothing of the walk outlives the recording.
fn record<const DIM: usize>(
    tree: &Tree<'_, DIM>,
    ws: &mut TraversalWorkspace<DIM>,
    budget: usize,
) -> Plan<DIM> {
    let _obs = carve_obs::scope("record");
    let nodes = tree.nodes;
    let table = ws.prolongation(nodes.order);
    let env = Env {
        elems: tree.elems,
        owned: tree.owned.clone(),
        curve: tree.curve,
        coords: &nodes.coords,
        p: nodes.order,
        batch: ws.batch_width,
        table: &table,
    };
    let mut root = Bucket::default();
    root.root.extend(0..nodes.len() as u32);
    let spine = build_spine(&env, ws.split_depth, root);
    assert!(spine.len < SPINE as usize, "spine accumulators overflow");
    let mut segs: Vec<Segment> = spine
        .tasks
        .iter()
        .map(|t| Segment {
            range: t.range.clone(),
            ..Segment::default()
        })
        .collect();
    let mut items: Vec<(&Task<DIM>, &mut Segment)> = spine.tasks.iter().zip(&mut segs).collect();
    let run = |_: &mut (), share: &mut [&mut (&Task<DIM>, &mut Segment)], scr: &mut _| {
        for (task, seg) in share.iter_mut() {
            run_task(&env, task, &spine.interior, scr, seg);
            seg.shrink();
        }
    };
    let mut walk: Vec<WorkerScratch<DIM>> = Vec::new();
    sweep(
        &mut items,
        |_| true,
        budget,
        &mut walk,
        &mut Kernels::Make(&|| ()),
        &run,
        || (),
    );
    // Every spine bucket is a fresh allocation; the workers' free-lists
    // tally their own.
    let mut alloc = (spine.interior.len() + spine.tasks.len()) as u64;
    let mut reuse = 0;
    for s in &walk {
        alloc += s.alloc;
        reuse += s.reuse;
    }
    carve_obs::counter("arena_alloc", alloc);
    if reuse > 0 {
        carve_obs::counter("arena_reuse", reuse);
    }
    let mut plan = Plan {
        key: PlanKey::new(tree, ws.batch_width, ws.split_depth),
        tasks: segs,
        join: Vec::new(),
        join_dst: Vec::new(),
        spine_len: spine.len,
    };
    record_join(&spine.interior, 0, &mut plan);
    plan.join.shrink_to_fit();
    plan.join_dst.shrink_to_fit();
    plan
}

/// Records the spine's join in DFS order: each task's log where the task
/// finishes, each interior bucket's merge into its parent after its own
/// subtree — exactly where the sequential walk performs them.
fn record_join<const DIM: usize>(interior: &[SpineNode], node: usize, plan: &mut Plan<DIM>) {
    for kid in &interior[node].kids {
        match *kid {
            SpineChild::Task(t) => plan.join.push(JoinOp::Task(t)),
            SpineChild::Interior(ci) => {
                record_join(interior, ci as usize, plan);
                let b = &interior[ci as usize].bucket;
                let parent = interior[node].bucket.off;
                plan.join.push(JoinOp::Merge {
                    child: b.off,
                    len: b.len() as u32,
                });
                plan.join_dst
                    .extend(b.parent_slot.iter().map(|&ps| parent + ps));
            }
        }
    }
}

// --- Replay -------------------------------------------------------------------

/// Where a replayed task's additions go: its own accumulators, or — for a
/// [`SPINE`] target — its spine log.
struct Sink<'a> {
    arena: &'a mut [f64],
    log: &'a mut SpineLog,
}

impl Sink<'_> {
    #[inline]
    fn add(&mut self, dst: u32, v: f64) {
        if dst & SPINE != 0 {
            self.log.push((dst & !SPINE, v));
        } else {
            self.arena[dst as usize] += v;
        }
    }
}

/// Immutable per-apply replay parameters.
struct Replay<'a, const DIM: usize> {
    elems: &'a [Octant<DIM>],
    table: &'a Prolongation,
    npe: usize,
}

impl<const DIM: usize> Replay<'_, DIM> {
    /// Replays one task's program against `x`.
    fn task<K: LeafKernel<DIM>>(
        &self,
        seg: &Segment,
        x: &[f64],
        kernel: &mut K,
        scr: &mut ReplayScratch,
        log: &mut SpineLog,
        counts: &mut LeafCounts,
    ) {
        let kw = kernel.panel_width().max(1);
        let ReplayScratch { arena, vin, vout } = scr;
        if arena.len() < seg.arena_len {
            arena.resize(seg.arena_len, 0.0);
        }
        let mut sink = Sink { arena, log };
        counts.hanging_slots += seg.hanging;
        counts.hanging_chain += seg.chained;
        let (mut slot_at, mut hang_at, mut merge_at) = (0, 0, 0);
        for op in &seg.ops {
            match *op {
                Op::Run { first, width } => {
                    let (first, width) = (first as usize, width as usize);
                    let mut b0 = 0;
                    while b0 < width {
                        let w = kw.min(width - b0);
                        let leaves = &self.elems[first + b0..first + b0 + w];
                        let slots = &seg.slots[slot_at..slot_at + w * self.npe];
                        hang_at = self
                            .panel(leaves, slots, seg, hang_at, x, kernel, vin, vout, &mut sink);
                        counts.panel(w);
                        slot_at += w * self.npe;
                        b0 += w;
                    }
                }
                Op::Merge { child, len } => {
                    let (child, len) = (child as usize, len as usize);
                    for (i, &dst) in seg.merge_dst[merge_at..merge_at + len].iter().enumerate() {
                        let v = std::mem::take(&mut sink.arena[child + i]);
                        sink.add(dst, v);
                    }
                    merge_at += len;
                }
            }
        }
        debug_assert!(sink.arena[..seg.arena_len].iter().all(|&v| v == 0.0));
    }

    /// One SoA panel: gather from `x`, apply, scatter; returns the hanging
    /// cursor past the panel's sources.
    #[allow(clippy::too_many_arguments)]
    fn panel<K: LeafKernel<DIM>>(
        &self,
        leaves: &[Octant<DIM>],
        slots: &[(u32, u32)],
        seg: &Segment,
        hang_at: usize,
        x: &[f64],
        kernel: &mut K,
        vin: &mut Vec<f64>,
        vout: &mut Vec<f64>,
        sink: &mut Sink<'_>,
    ) -> usize {
        let (width, npe) = (leaves.len(), self.npe);
        vin.clear();
        vin.resize(npe * width, 0.0);
        vout.clear();
        vout.resize(npe * width, 0.0);
        let mut hanging = 0;
        // Gather — SoA: node `lin` of leaf `b` at `lin * width + b`.
        let mut h = hang_at;
        for (b, leaf) in leaves.iter().enumerate() {
            for (lin, &(src, _)) in slots[b * npe..(b + 1) * npe].iter().enumerate() {
                vin[lin * width + b] = if src != NO_SLOT {
                    x[src as usize]
                } else {
                    hanging += 1;
                    let mut v = 0.0;
                    for &(_, w) in self.table.sources(corner(leaf), lin) {
                        let (s, i) = seg.hang[h];
                        h += 1;
                        v += w * if s != CHAIN {
                            x[s as usize]
                        } else {
                            chain_value(&seg.chain, i as usize, x).0
                        };
                    }
                    v
                };
            }
        }
        kernel.apply(leaves, vin, vout);
        // Scatter per leaf in SFC order, hanging slots before direct ones:
        // the order of "scatter into a leaf bucket (hanging slots bypass
        // it), then merge that bucket upward".
        let mut h = hang_at;
        for (b, leaf) in leaves.iter().enumerate() {
            let row = &slots[b * npe..(b + 1) * npe];
            if hanging > 0 {
                for (lin, _) in row.iter().enumerate().filter(|(_, s)| s.0 == NO_SLOT) {
                    let val = vout[lin * width + b];
                    for &(_, w) in self.table.sources(corner(leaf), lin) {
                        let (s, i) = seg.hang[h];
                        h += 1;
                        if s != CHAIN {
                            sink.add(i, w * val);
                        } else {
                            chain_scatter(&seg.chain, i as usize, w * val, sink);
                        }
                    }
                }
            }
            for (lin, &(src, dst)) in row.iter().enumerate() {
                if src != NO_SLOT {
                    sink.add(dst, vout[lin * width + b]);
                }
            }
        }
        h
    }
}

/// True iff any *owned* element in `range` touches a ghost node (per the
/// caller's element classification): such a task must not replay until the
/// ghost exchange has landed.
fn touches_ghosts(range: &Range<usize>, owned: &Range<usize>, boundary_elem: &[bool]) -> bool {
    let lo = range.start.max(owned.start);
    let hi = range.end.min(owned.end);
    lo < hi && boundary_elem[lo..hi].iter().any(|&b| b)
}

fn ghost_wait<W: FnOnce(&mut [f64])>(wait: W, xg: &mut [f64]) {
    let _obs = carve_obs::scope("ghost_wait");
    wait(xg);
}

/// Applies every task's spine log and the spine's merges in recorded
/// order, then adds the root accumulators into `y`, zeroing the spine.
fn join<const DIM: usize>(
    plan: &Plan<DIM>,
    logs: &mut [SpineLog],
    spine: &mut [f64],
    y: &mut [f64],
) {
    let _obs = carve_obs::scope("bottom_up");
    let mut at = 0;
    for op in &plan.join {
        match *op {
            JoinOp::Task(t) => {
                let log = &mut logs[t as usize];
                for &(i, v) in log.iter() {
                    spine[i as usize] += v;
                }
                log.clear();
            }
            JoinOp::Merge { child, len } => {
                let (child, len) = (child as usize, len as usize);
                for (i, &dst) in plan.join_dst[at..at + len].iter().enumerate() {
                    let v = std::mem::take(&mut spine[child + i]);
                    spine[dst as usize] += v;
                }
                at += len;
            }
        }
    }
    for (yi, s) in y.iter_mut().zip(spine.iter_mut()) {
        *yi += std::mem::take(s);
    }
}

/// `y += A x`: the tree's plan (recorded on its first apply) replayed task
/// by task, then joined in SFC order. With an [`Input::InFlight`] vector
/// the replay splits in two around the exchange — interior tasks against
/// the pre-exchange `x` while `wait` blocks under a `ghost_wait` sub-phase,
/// then the boundary tasks against the completed `xg`. The ordered join is
/// the same, so the result is bitwise identical to a plain replay over the
/// post-exchange vector, for either kernel source and any thread count.
pub(crate) fn matvec_driver<const DIM: usize, K, F, W>(
    tree: Tree<'_, DIM>,
    input: Input<'_, W>,
    y: &mut [f64],
    ws: &mut TraversalWorkspace<DIM>,
    mut kernels: Kernels<'_, K, F>,
) where
    K: LeafKernel<DIM>,
    F: Fn() -> K + Sync,
    W: FnOnce(&mut [f64]),
{
    let nodes = tree.nodes;
    assert_eq!(input.values().len(), nodes.len());
    assert_eq!(y.len(), nodes.len());
    if let Input::InFlight { boundary_elem, .. } = &input {
        assert_eq!(boundary_elem.len(), tree.elems.len());
    }
    if tree.elems.is_empty() || tree.owned.is_empty() {
        if let Input::InFlight { xg, wait, .. } = input {
            let _obs = carve_obs::scope("matvec");
            ghost_wait(wait, xg);
        }
        return;
    }
    let _obs = carve_obs::scope("matvec");
    let budget = kernels.budget(ws.threads);
    let plan = ws.plan_for(&tree, budget);
    if !ws.clean {
        // The previous apply unwound mid-way: start from zero.
        ws.replay.iter_mut().for_each(|s| s.arena.fill(0.0));
        ws.logs.iter_mut().for_each(Vec::clear);
        ws.spine.fill(0.0);
    }
    ws.clean = false;
    ws.spine.resize(plan.spine_len, 0.0);
    ws.logs.resize_with(plan.tasks.len(), Vec::new);
    let table = ws.prolongation(nodes.order);
    let replay = Replay {
        elems: tree.elems,
        table: &table,
        npe: nodes_per_elem::<DIM>(nodes.order),
    };
    let share = |x: &[f64],
                 kernel: &mut K,
                 items: &mut [&mut (&Segment, &mut SpineLog)],
                 scr: &mut ReplayScratch| {
        let _obs = carve_obs::scope("leaf");
        let mut counts = LeafCounts::default();
        for (seg, log) in items.iter_mut() {
            replay.task(seg, x, kernel, scr, log, &mut counts);
        }
        counts.flush();
    };
    let mut items: Vec<(&Segment, &mut SpineLog)> =
        plan.tasks.iter().zip(ws.logs.iter_mut()).collect();
    let workers = match input {
        Input::Complete(x) => sweep(
            &mut items,
            |_| true,
            budget,
            &mut ws.replay,
            &mut kernels,
            &|k: &mut K, it: &mut [_], s: &mut _| share(x, k, it, s),
            || (),
        ),
        Input::InFlight {
            x,
            xg,
            boundary_elem,
            wait,
        } => {
            let mut flags = std::mem::take(&mut ws.task_flags);
            flags.clear();
            flags.extend(
                plan.tasks
                    .iter()
                    .map(|t| touches_ghosts(&t.range, &tree.owned, boundary_elem)),
            );
            let interior = sweep(
                &mut items,
                |i| !flags[i],
                budget,
                &mut ws.replay,
                &mut kernels,
                &|k: &mut K, it: &mut [_], s: &mut _| share(x, k, it, s),
                || ghost_wait(wait, xg),
            );
            let xg: &[f64] = xg;
            let boundary = sweep(
                &mut items,
                |i| flags[i],
                budget,
                &mut ws.replay,
                &mut kernels,
                &|k: &mut K, it: &mut [_], s: &mut _| share(xg, k, it, s),
                || (),
            );
            ws.task_flags = flags;
            interior.max(boundary)
        }
    };
    drop(items);
    carve_obs::counter("par_workers", workers as u64);
    join(&plan, &mut ws.logs, &mut ws.spine, y);
    ws.plan = Some(plan);
    ws.clean = true;
}

/// Applies the global operator `y += A x` matrix-free via octree traversal,
/// sequentially, with the caller's `kernel`. Hold `ws` across Krylov
/// iterations: the first apply of a tree records its plan, the following
/// ones only replay it.
///
/// * `elems` — SFC-sorted leaf elements (owned + ghost in the distributed
///   case); `owned` restricts which leaves apply their elemental kernel.
/// * `kernel` — the elemental operator (`v_e = K_e u_e`).
///
/// Output is bitwise identical to [`traversal_matvec_par`] at any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn traversal_matvec_ws<const DIM: usize, K>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    x: &[f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<DIM>,
    kernel: &mut K,
) where
    K: LeafKernel<DIM>,
{
    matvec_driver(
        Tree {
            elems,
            owned,
            curve,
            nodes,
        },
        Input::<fn(&mut [f64])>::Complete(x),
        y,
        ws,
        Kernels::<K, fn() -> K>::Held(kernel),
    );
}

/// Fork-join matvec: subtree tasks are partitioned SFC-contiguously across
/// up to `ws.threads()` scoped workers, each building its kernel from
/// `make_kernel`. Deferred spine additions are applied in SFC order at
/// join, so the output is **bitwise identical for any thread count** (and
/// equal to [`traversal_matvec_ws`]).
#[allow(clippy::too_many_arguments)]
pub fn traversal_matvec_par<const DIM: usize, K, F>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    x: &[f64],
    y: &mut [f64],
    ws: &mut TraversalWorkspace<DIM>,
    make_kernel: &F,
) where
    K: LeafKernel<DIM>,
    F: Fn() -> K + Sync,
{
    matvec_driver(
        Tree {
            elems,
            owned,
            curve,
            nodes,
        },
        Input::<fn(&mut [f64])>::Complete(x),
        y,
        ws,
        Kernels::Make(make_kernel),
    );
}

// --- Assembly ---------------------------------------------------------------

/// Emits `W^T K_e W` into the triplet log: every (row stencil) × (col
/// stencil) product, skipping structural zeros.
fn emit_triplets(stencils: &[Vec<(u32, f64)>], ke: &DenseMatrix, log: &mut OutLog) {
    let npe = stencils.len();
    debug_assert_eq!(ke.rows, npe);
    debug_assert_eq!(ke.cols, npe);
    for i in 0..npe {
        for j in 0..npe {
            let v = ke[(i, j)];
            if v == 0.0 {
                continue;
            }
            for &(ri, rw) in &stencils[i] {
                for &(cj, cw) in &stencils[j] {
                    log.push((ri, cj, rw * cw * v));
                }
            }
        }
    }
}

impl<const DIM: usize> Replay<'_, DIM> {
    /// Replays one task's leaf runs with node ids: per leaf, a direct slot
    /// is the stencil `(ids[root], 1.0)`, a hanging slot the `(ids[root],
    /// w)` of its sources in table order (a chain flattened by
    /// [`chain_stencil`]); then the leaf's triplets. Merges carry no ids.
    fn triplets<K: AssemblyKernel<DIM>>(
        &self,
        seg: &Segment,
        ids: &[u32],
        kernel: &mut K,
        out: &mut TripletShare,
        counts: &mut LeafCounts,
    ) {
        let TripletShare { log, stencils } = out;
        stencils.resize_with(self.npe, Vec::new);
        counts.hanging_slots += seg.hanging;
        counts.hanging_chain += seg.chained;
        let (mut slot_at, mut hang_at) = (0, 0);
        for op in &seg.ops {
            let Op::Run { first, width } = *op else {
                continue;
            };
            let (first, width) = (first as usize, width as usize);
            counts.panel(width);
            for leaf in &self.elems[first..first + width] {
                for (lin, stencil) in stencils.iter_mut().enumerate() {
                    stencil.clear();
                    let (src, _) = seg.slots[slot_at];
                    slot_at += 1;
                    if src != NO_SLOT {
                        stencil.push((ids[src as usize], 1.0));
                        continue;
                    }
                    for &(_, w) in self.table.sources(corner(leaf), lin) {
                        let (s, i) = seg.hang[hang_at];
                        hang_at += 1;
                        if s != CHAIN {
                            stencil.push((ids[s as usize], w));
                        } else {
                            chain_stencil(&seg.chain, i as usize, w, ids, stencil);
                        }
                    }
                }
                emit_triplets(stencils, &kernel.matrix(leaf), log);
            }
        }
    }
}

/// Sparse assembly by replaying the tree's plan — the one the matvec
/// replays, recorded here if the workspace does not hold it yet. Each
/// worker share leaves its `(row, col, val)` triplets in its own log, and
/// the logs drain into `coo` in share order, which is SFC task order: the
/// emitted triplet sequence, and hence the built CSR, is the walk's, for
/// either kernel source and any thread count.
fn assemble_driver<const DIM: usize, K, F>(
    tree: Tree<'_, DIM>,
    global_ids: &[u32],
    coo: &mut CooBuilder,
    ws: &mut TraversalWorkspace<DIM>,
    mut kernels: Kernels<'_, K, F>,
) where
    K: AssemblyKernel<DIM>,
    F: Fn() -> K + Sync,
{
    let nodes = tree.nodes;
    assert_eq!(global_ids.len(), nodes.len());
    if tree.elems.is_empty() || tree.owned.is_empty() {
        return;
    }
    let _obs = carve_obs::scope("assemble");
    let budget = kernels.budget(ws.threads);
    let plan = ws.plan_for(&tree, budget);
    let table = ws.prolongation(nodes.order);
    let replay = Replay {
        elems: tree.elems,
        table: &table,
        npe: nodes_per_elem::<DIM>(nodes.order),
    };
    // Capacity hint for the triplet stream: `owned leaves × npe²`.
    let owned_leaves = tree
        .owned
        .end
        .min(tree.elems.len())
        .saturating_sub(tree.owned.start);
    coo.reserve(owned_leaves * replay.npe * replay.npe);
    let share = |kernel: &mut K, items: &mut [&mut &Segment], out: &mut TripletShare| {
        let _obs = carve_obs::scope("leaf");
        let mut counts = LeafCounts::default();
        for seg in items.iter() {
            replay.triplets(seg, global_ids, kernel, out, &mut counts);
        }
        counts.flush();
    };
    let mut items: Vec<&Segment> = plan.tasks.iter().collect();
    let mut shares: Vec<TripletShare> = Vec::new();
    let workers = sweep(
        &mut items,
        |_| true,
        budget,
        &mut shares,
        &mut kernels,
        &share,
        || (),
    );
    carve_obs::counter("par_workers", workers as u64);
    for out in &shares {
        for &(ri, cj, v) in &out.log {
            coo.add(ri as usize, cj as usize, v);
        }
    }
    ws.plan = Some(plan);
}

/// Assembles the global sparse matrix via octree traversal (§3.6),
/// sequentially, with the caller's `kernel`: node *ids* are bucketed
/// instead of values; at each leaf the elemental matrix entries are emitted
/// with global indices (duplicates merge by addition in the builder, the
/// PETSc `ADD_VALUES` contract).
#[allow(clippy::too_many_arguments)]
pub fn traversal_assemble_ws<const DIM: usize, K>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    global_ids: &[u32],
    coo: &mut CooBuilder,
    ws: &mut TraversalWorkspace<DIM>,
    kernel: &mut K,
) where
    K: AssemblyKernel<DIM>,
{
    assemble_driver(
        Tree {
            elems,
            owned,
            curve,
            nodes,
        },
        global_ids,
        coo,
        ws,
        Kernels::<K, fn() -> K>::Held(kernel),
    );
}

/// Fork-join assembly on up to `ws.threads()` workers, each building its
/// kernel from `make_kernel`; the built CSR is identical for any thread
/// count and to [`traversal_assemble_ws`].
#[allow(clippy::too_many_arguments)]
pub fn traversal_assemble_par<const DIM: usize, K, F>(
    elems: &[Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    nodes: &NodeSet<DIM>,
    global_ids: &[u32],
    coo: &mut CooBuilder,
    ws: &mut TraversalWorkspace<DIM>,
    make_kernel: &F,
) where
    K: AssemblyKernel<DIM>,
    F: Fn() -> K + Sync,
{
    assemble_driver(
        Tree {
            elems,
            owned,
            curve,
            nodes,
        },
        global_ids,
        coo,
        ws,
        Kernels::Make(make_kernel),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::construct_balanced;
    use crate::construct::{construct_boundary_refined, construct_uniform};
    use crate::nodes::enumerate_nodes;
    use carve_geom::{CarvedSolids, FullDomain, Sphere, Subdomain};
    use rand::{Rng, SeedableRng};

    /// A simple symmetric elemental "mass-like" kernel: K_e = h^DIM *
    /// (I + ones/npe), giving a well-defined global SPD operator.
    fn toy_kernel<const DIM: usize>(_p: u64) -> impl FnMut(&Octant<DIM>, &[f64], &mut [f64]) {
        move |e: &Octant<DIM>, u: &[f64], v: &mut [f64]| {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = u.len();
            let sum: f64 = u.iter().sum();
            for i in 0..npe {
                v[i] = scale * (u[i] + sum / npe as f64);
            }
        }
    }

    fn toy_matrix<const DIM: usize>(p: u64) -> impl FnMut(&Octant<DIM>) -> DenseMatrix {
        move |e: &Octant<DIM>| {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = nodes_per_elem::<DIM>(p);
            let mut m = DenseMatrix::zeros(npe, npe);
            for i in 0..npe {
                for j in 0..npe {
                    m[(i, j)] = scale * (if i == j { 1.0 } else { 0.0 } + 1.0 / npe as f64);
                }
            }
            m
        }
    }

    fn matvec_equals_assembled<const DIM: usize>(
        domain: &dyn Subdomain<DIM>,
        elems: &[Octant<DIM>],
        p: u64,
        curve: Curve,
        seed: u64,
    ) {
        let nodes = enumerate_nodes(domain, elems, p);
        let n = nodes.len();
        assert!(n > 0);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut coo = CooBuilder::new(n);
        let mut ws = TraversalWorkspace::with_threads(1);
        traversal_assemble_ws(
            elems,
            0..elems.len(),
            curve,
            &nodes,
            &ids,
            &mut coo,
            &mut ws,
            &mut toy_matrix::<DIM>(p),
        );
        let a = coo.build();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y_mf = vec![0.0; n];
            traversal_matvec_ws(
                elems,
                0..elems.len(),
                curve,
                &nodes,
                &x,
                &mut y_mf,
                &mut ws,
                &mut toy_kernel::<DIM>(p),
            );
            let mut y_as = vec![0.0; n];
            a.matvec(&x, &mut y_as);
            for (i, (a, b)) in y_mf.iter().zip(&y_as).enumerate() {
                assert!(
                    (a - b).abs() < 1e-11 * (1.0 + b.abs()),
                    "mismatch at node {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matvec_matches_assembly_uniform_2d() {
        for p in [1u64, 2] {
            for curve in [Curve::Morton, Curve::Hilbert] {
                let elems = construct_uniform::<2>(&FullDomain, curve, 3);
                matvec_equals_assembled(&FullDomain, &elems, p, curve, 1);
            }
        }
    }

    #[test]
    fn matvec_matches_assembly_adaptive_carved_2d() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        for p in [1u64, 2] {
            for curve in [Curve::Morton, Curve::Hilbert] {
                let t = construct_boundary_refined(&domain, curve, 2, 5);
                let elems = construct_balanced(&domain, curve, &t);
                matvec_equals_assembled(&domain, &elems, p, curve, 7);
            }
        }
    }

    #[test]
    fn matvec_matches_assembly_adaptive_3d() {
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        for p in [1u64, 2] {
            let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
            let elems = construct_balanced(&domain, Curve::Hilbert, &t);
            matvec_equals_assembled(&domain, &elems, p, Curve::Hilbert, 11);
        }
    }

    #[test]
    fn hanging_interpolation_preserves_constants() {
        // For a partition-of-unity kernel (mass-like), A·1 must equal the
        // row sums of the assembled matrix — and more fundamentally, the
        // hanging interpolation of a constant vector is the same constant.
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.3, 0.6], 0.2))]);
        let t = construct_boundary_refined(&domain, Curve::Morton, 2, 5);
        let elems = construct_balanced(&domain, Curve::Morton, &t);
        let nodes = enumerate_nodes(&domain, &elems, 1);
        let n = nodes.len();
        let ones = vec![1.0; n];
        let mut y = vec![0.0; n];
        // Kernel returning the input (identity on elemental nodes): the
        // output at each node is then Σ_elems (interp weights), and for a
        // constant input every elemental value must be exactly 1.
        let mut probe = |_e: &Octant<2>, u: &[f64], v: &mut [f64]| {
            for ui in u {
                assert!((ui - 1.0).abs() < 1e-13, "hanging interp broke constants");
            }
            v.copy_from_slice(u);
        };
        let mut ws = TraversalWorkspace::with_threads(1);
        traversal_matvec_ws(
            &elems,
            0..elems.len(),
            Curve::Morton,
            &nodes,
            &ones,
            &mut y,
            &mut ws,
            &mut probe,
        );
    }

    #[test]
    fn owned_subrange_sums_to_full() {
        // Splitting the element list into owned ranges and summing the
        // partial MATVECs must reproduce the full MATVEC (the distributed
        // decomposition property).
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.25))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let nodes = enumerate_nodes(&domain, &elems, 2);
        let n = nodes.len();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_full = vec![0.0; n];
        let mut ws = TraversalWorkspace::with_threads(1);
        traversal_matvec_ws(
            &elems,
            0..elems.len(),
            Curve::Hilbert,
            &nodes,
            &x,
            &mut y_full,
            &mut ws,
            &mut toy_kernel::<2>(2),
        );
        let mid = elems.len() / 3;
        let mut y_parts = vec![0.0; n];
        for range in [0..mid, mid..elems.len()] {
            traversal_matvec_ws(
                &elems,
                range,
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_parts,
                &mut ws,
                &mut toy_kernel::<2>(2),
            );
        }
        for (a, b) in y_full.iter().zip(&y_parts) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn obs_phases_are_populated() {
        let _e = carve_obs::force_enabled();
        let elems = construct_uniform::<2>(&FullDomain, Curve::Morton, 4);
        let nodes = enumerate_nodes(&FullDomain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        let mut ws = TraversalWorkspace::with_threads(1);
        let before = carve_obs::thread_snapshot();
        traversal_matvec_ws(
            &elems,
            0..elems.len(),
            Curve::Morton,
            &nodes,
            &x,
            &mut y,
            &mut ws,
            &mut toy_kernel::<2>(1),
        );
        let d = carve_obs::thread_snapshot().diff(&before);
        // The replay opens one `leaf` scope per worker share and flushes
        // its counters there once; a closure kernel takes panels of one
        // element.
        let leaf = &d.phases["matvec/leaf"];
        assert_eq!(leaf.calls, 1);
        assert_eq!(leaf.counters["leaves"], elems.len() as u64);
        assert_eq!(leaf.counters["scalar_leaves"], elems.len() as u64);
        // A uniform mesh has no hanging slot, let alone a chain.
        assert!(!leaf.counters.contains_key("hanging_slots"), "{leaf:?}");
        assert!(!leaf.counters.contains_key("hanging_chain"), "{leaf:?}");
        // The structure counters belong to the recording: one half-lattice
        // sweep per sibling group, 4^3 level-3 parents, each with the 3 × 3
        // nodes of its closed region in its bucket.
        let rec_leaf = &d.phases["matvec/record/leaf"];
        assert_eq!(rec_leaf.counters["slot_sweep_hits"], 64 * 9);
        assert!(!rec_leaf.counters.contains_key("leaves"), "{rec_leaf:?}");
        // `node_copies` counts interior buckets only (levels 1 to 3 here):
        // the leaves read their parent's bucket and copy nothing.
        let td = &d.phases["matvec/record/top_down"];
        assert_eq!(td.counters["node_copies"], 4 * 81 + 16 * 25 + 64 * 9);
        assert!(!d.phases.contains_key("matvec/top_down"));
        assert_eq!(d.phases["matvec"].calls, 1);
        assert_eq!(d.phases["matvec/record"].calls, 1);
        assert_eq!(d.phases["matvec"].counters["par_workers"], 1);
        assert!(d.phases["matvec/record"].counters["arena_alloc"] > 0);
        assert_eq!(d.phases["matvec/bottom_up"].calls, 1);
    }

    #[test]
    fn matvec_bitwise_identical_across_thread_counts() {
        // The determinism property: an adaptive carved 3D mesh, p ∈ {1, 2, 3},
        // threads ∈ {1, 2, 8}, spine split depth ∈ {1, 2, 3}, panel widths
        // {1, 3, 8} — outputs must agree bit for bit, with each other AND
        // with the sequential closure-kernel entry point at depth 1,
        // including on workspace reuse.
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        for p in [1u64, 2, 3] {
            let nodes = enumerate_nodes(&domain, &elems, p);
            let n = nodes.len();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17 + p);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y_ref = vec![0.0; n];
            traversal_matvec_ws(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_ref,
                &mut TraversalWorkspace::with_threads(1),
                &mut toy_kernel::<3>(p),
            );
            for (threads, depth, width) in [
                (1usize, 1u8, 1usize),
                (2, 1, 3),
                (8, 1, 8),
                (1, 2, 8),
                (8, 2, 1),
                (2, 3, 3),
                (8, 3, 8),
            ] {
                let mut ws = TraversalWorkspace::with_threads(threads)
                    .with_split_depth(depth)
                    .with_batch_width(width);
                for round in 0..2 {
                    let mut y = vec![0.0; n];
                    traversal_matvec_par(
                        &elems,
                        0..elems.len(),
                        Curve::Hilbert,
                        &nodes,
                        &x,
                        &mut y,
                        &mut ws,
                        &|| ToyBatchKernel::<3>,
                    );
                    for (i, (a, b)) in y_ref.iter().zip(&y).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "threads={threads} depth={depth} width={width} p={p} \
                             round={round} node {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn assembly_identical_across_thread_counts() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        for p in [2u64, 3] {
            let nodes = enumerate_nodes(&domain, &elems, p);
            let n = nodes.len();
            let ids: Vec<u32> = (0..n as u32).collect();
            let build = |threads: usize, depth: u8, width: usize| {
                let mut ws = TraversalWorkspace::with_threads(threads)
                    .with_split_depth(depth)
                    .with_batch_width(width);
                let mut coo = CooBuilder::new(n);
                traversal_assemble_par(
                    &elems,
                    0..elems.len(),
                    Curve::Hilbert,
                    &nodes,
                    &ids,
                    &mut coo,
                    &mut ws,
                    &|| ToyBatchMatrix::<2>::new(p),
                );
                coo.build()
            };
            let a1 = build(1, 1, 1);
            for (threads, depth, width) in [
                (2usize, 1u8, 3usize),
                (8, 1, 8),
                (1, 2, 8),
                (8, 2, 1),
                (2, 3, 3),
                (8, 3, 8),
            ] {
                let at = build(threads, depth, width);
                let tag = format!("p={p} threads={threads} depth={depth} width={width}");
                assert_csr_bits(&a1, &at, &tag);
            }
        }
    }

    /// Panel twin of the width-1 closure [`toy_kernel`]: it performs each
    /// element's additions in the same order over the SoA layout, so
    /// traversals at every width must agree with the closure bit for bit.
    struct ToyBatchKernel<const DIM: usize>;

    impl<const DIM: usize> LeafKernel<DIM> for ToyBatchKernel<DIM> {
        fn apply(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
            let batch = elems.len();
            let npe = u.len() / batch;
            let h = elems[0].bounds_unit().1;
            let scale = h.powi(DIM as i32);
            for b in 0..batch {
                let mut sum = 0.0;
                for lin in 0..npe {
                    sum += u[lin * batch + b];
                }
                for lin in 0..npe {
                    v[lin * batch + b] = scale * (u[lin * batch + b] + sum / npe as f64);
                }
            }
        }
    }

    /// Caching twin of [`toy_matrix`]: a per-level matrix cache (the toy
    /// matrix depends on the octant only through `h`, i.e. level).
    struct ToyBatchMatrix<const DIM: usize> {
        p: u64,
        levels: Vec<Option<DenseMatrix>>,
    }

    impl<const DIM: usize> ToyBatchMatrix<DIM> {
        fn new(p: u64) -> Self {
            Self {
                p,
                levels: vec![None; carve_sfc::MAX_LEVEL as usize + 1],
            }
        }
    }

    impl<const DIM: usize> AssemblyKernel<DIM> for ToyBatchMatrix<DIM> {
        fn matrix(&mut self, e: &Octant<DIM>) -> Cow<'_, DenseMatrix> {
            let p = self.p;
            let m = self.levels[e.level as usize].get_or_insert_with(|| toy_matrix::<DIM>(p)(e));
            Cow::Borrowed(m)
        }
    }

    fn check_batched_matvec_matrix<const DIM: usize>(domain: &dyn Subdomain<DIM>, seed: u64) {
        let t = construct_boundary_refined(domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(domain, Curve::Hilbert, &t);
        for p in [1u64, 2, 3] {
            let nodes = enumerate_nodes(domain, &elems, p);
            let n = nodes.len();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed + p);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y_ref = vec![0.0; n];
            traversal_matvec_ws(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y_ref,
                &mut TraversalWorkspace::with_threads(1),
                &mut toy_kernel::<DIM>(p),
            );
            for threads in [1usize, 2, 8] {
                for width in [1usize, 2, 3, 4, 8] {
                    let mut ws = TraversalWorkspace::with_threads(threads).with_batch_width(width);
                    for round in 0..2 {
                        let mut y = vec![0.0; n];
                        traversal_matvec_par(
                            &elems,
                            0..elems.len(),
                            Curve::Hilbert,
                            &nodes,
                            &x,
                            &mut y,
                            &mut ws,
                            &|| ToyBatchKernel::<DIM>,
                        );
                        for (i, (a, b)) in y_ref.iter().zip(&y).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "DIM={DIM} p={p} threads={threads} width={width} \
                                 round={round} node {i}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_matvec_bitwise_matches_scalar_2d() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        check_batched_matvec_matrix(&domain, 23);
    }

    #[test]
    fn batched_matvec_bitwise_matches_scalar_3d() {
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        check_batched_matvec_matrix(&domain, 31);
    }

    #[test]
    fn batched_assembly_bitwise_matches_scalar() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        for p in [1u64, 2, 3] {
            let nodes = enumerate_nodes(&domain, &elems, p);
            let n = nodes.len();
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut coo = CooBuilder::new(n);
            traversal_assemble_ws(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &ids,
                &mut coo,
                &mut TraversalWorkspace::with_threads(1),
                &mut toy_matrix::<2>(p),
            );
            let a_ref = coo.build();
            for threads in [1usize, 2, 8] {
                for width in [1usize, 3, 8] {
                    let mut ws = TraversalWorkspace::with_threads(threads).with_batch_width(width);
                    let mut coo = CooBuilder::new(n);
                    traversal_assemble_par(
                        &elems,
                        0..elems.len(),
                        Curve::Hilbert,
                        &nodes,
                        &ids,
                        &mut coo,
                        &mut ws,
                        &|| ToyBatchMatrix::<2>::new(p),
                    );
                    let tag = format!("p={p} threads={threads} width={width}");
                    assert_csr_bits(&a_ref, &coo.build(), &tag);
                }
            }
        }
    }

    #[test]
    fn batched_counters_reconcile_with_leaf_total() {
        // On a uniform mesh with panels enabled, most leaves batch; the
        // batched/scalar split must account for every leaf exactly, and
        // disabling panels (width 1) must route everything scalar.
        let _e = carve_obs::force_enabled();
        let elems = construct_uniform::<2>(&FullDomain, Curve::Hilbert, 4);
        let nodes = enumerate_nodes(&FullDomain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
        let run = |width: usize| {
            let mut ws = TraversalWorkspace::with_threads(1).with_batch_width(width);
            let before = carve_obs::thread_snapshot();
            let mut y = vec![0.0; n];
            traversal_matvec_par(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y,
                &mut ws,
                &|| ToyBatchKernel::<2>,
            );
            carve_obs::thread_snapshot().diff(&before)
        };
        let sweep_hits =
            |d: &carve_obs::Snapshot| d.phases["matvec/record/leaf"].counters["slot_sweep_hits"];
        let d = run(4);
        let leaf = &d.phases["matvec/leaf"].counters;
        assert!(leaf["batched_leaves"] > 0, "no panels fired: {leaf:?}");
        assert!(leaf["batch_count"] > 0);
        assert_eq!(
            leaf["batched_leaves"] + leaf.get("scalar_leaves").copied().unwrap_or(0),
            leaf["leaves"],
            "batched + scalar must cover every leaf: {leaf:?}"
        );
        let d1 = run(1);
        let leaf1 = &d1.phases["matvec/leaf"].counters;
        assert!(!leaf1.contains_key("batched_leaves"), "{leaf1:?}");
        assert_eq!(leaf1["scalar_leaves"], leaf1["leaves"]);
        assert_eq!(leaf1["leaves"], leaf["leaves"]);
        // The half-lattice sweep runs once per sibling group, however the
        // group's leaves are cut into runs.
        assert_eq!(sweep_hits(&d1), sweep_hits(&d));
    }

    /// Leaf-stage counters of one matvec and one assembly of `elems`.
    fn leaf_counters<const DIM: usize>(
        domain: &dyn Subdomain<DIM>,
        elems: &[Octant<DIM>],
        p: u64,
    ) -> [std::collections::BTreeMap<String, u64>; 2] {
        let _e = carve_obs::force_enabled();
        let nodes = enumerate_nodes(domain, elems, p);
        let n = nodes.len();
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut ws = TraversalWorkspace::with_threads(1);
        let before = carve_obs::thread_snapshot();
        traversal_matvec_ws(
            elems,
            0..elems.len(),
            Curve::Hilbert,
            &nodes,
            &vec![1.0; n],
            &mut vec![0.0; n],
            &mut ws,
            &mut ToyBatchKernel::<DIM>,
        );
        traversal_assemble_ws(
            elems,
            0..elems.len(),
            Curve::Hilbert,
            &nodes,
            &ids,
            &mut CooBuilder::new(n),
            &mut ws,
            &mut ToyBatchMatrix::<DIM>::new(p),
        );
        let d = carve_obs::thread_snapshot().diff(&before);
        ["matvec/leaf", "assemble/leaf"].map(|ph| d.phases[ph].counters.clone())
    }

    #[test]
    fn hanging_counters_tell_table_lookups_from_chains() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let raw = construct_boundary_refined(&domain, Curve::Hilbert, 2, 5);
        let balanced = construct_balanced(&domain, Curve::Hilbert, &raw);
        for p in [1u64, 2, 3] {
            // 2:1-balanced: hanging slots, every source a node of the
            // parent bucket.
            for c in leaf_counters(&domain, &balanced, p) {
                assert_eq!(c["leaves"], balanced.len() as u64);
                assert_eq!(c["batched_leaves"] + c["scalar_leaves"], c["leaves"]);
                assert!(c["hanging_slots"] > 0, "p={p} {c:?}");
                assert!(!c.contains_key("hanging_chain"), "p={p} {c:?}");
            }
            // Not balanced: some sources hang one level up themselves, and
            // both visitors count the same slots and chains.
            let [mv, asm] = leaf_counters(&domain, &raw, p);
            assert!(mv["hanging_chain"] > 0, "p={p} {mv:?}");
            assert_eq!(mv["hanging_chain"], asm["hanging_chain"]);
            assert_eq!(mv["hanging_slots"], asm["hanging_slots"]);
            // The chain fallback is the same operator: matvec ≡ assembly.
            matvec_equals_assembled(&domain, &raw, p, Curve::Hilbert, 5 + p);
        }
    }

    #[test]
    fn spine_level_leaves_and_root_only_tree_use_the_leaf_stage() {
        // Trees so small that leaves sit directly under the spine (or ARE
        // the tree): a root-only tree, four level-1 leaves, and the classic
        // 2:1 pattern whose level-2 leaves hang on level-1 spine leaves.
        let root = Octant::<2>::ROOT;
        let mut graded: Vec<Octant<2>> = (0..4).map(|m| root.child(0).child(m)).collect();
        graded.extend((1..4).map(|m| root.child(m)));
        carve_sfc::treesort(&mut graded, Curve::Morton);
        let four: Vec<Octant<2>> = (0..4).map(|m| root.child(m)).collect();
        for (elems, hangs) in [(vec![root], false), (four, false), (graded, true)] {
            for p in [1u64, 2, 3] {
                matvec_equals_assembled(&FullDomain, &elems, p, Curve::Morton, 3);
                let nodes = enumerate_nodes(&FullDomain, &elems, p);
                let n = nodes.len();
                let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
                let mut y_ref = vec![0.0; n];
                let mut outs = Vec::new();
                for (depth, width) in [(1u8, 1usize), (1, 8), (2, 8), (3, 3)] {
                    let _e = carve_obs::force_enabled();
                    let before = carve_obs::thread_snapshot();
                    let mut y = vec![0.0; n];
                    traversal_matvec_ws(
                        &elems,
                        0..elems.len(),
                        Curve::Morton,
                        &nodes,
                        &x,
                        &mut y,
                        &mut TraversalWorkspace::with_threads(1)
                            .with_split_depth(depth)
                            .with_batch_width(width),
                        &mut ToyBatchKernel::<2>,
                    );
                    let d = carve_obs::thread_snapshot().diff(&before);
                    let leaf = &d.phases["matvec/leaf"].counters;
                    assert_eq!(leaf["leaves"], elems.len() as u64, "depth={depth}");
                    assert_eq!(leaf.contains_key("hanging_slots"), hangs, "{leaf:?}");
                    // No leaf was given a bucket on the way: the only one
                    // ever filled is the graded tree's refined quadrant.
                    let fills = d
                        .phases
                        .get("matvec/record/top_down")
                        .map_or(0, |td| td.calls);
                    assert_eq!(fills, u64::from(hangs), "depth={depth}");
                    outs.push(y);
                }
                traversal_matvec_ws(
                    &elems,
                    0..elems.len(),
                    Curve::Morton,
                    &nodes,
                    &x,
                    &mut y_ref,
                    &mut TraversalWorkspace::with_threads(1),
                    &mut toy_kernel::<2>(p),
                );
                for y in &outs {
                    let same = y
                        .iter()
                        .zip(&y_ref)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "p={p} elems={}", elems.len());
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_allocates_no_new_buckets() {
        // Two consecutive matvecs through one workspace: the cold one
        // records (and allocates its buckets under `matvec/record`), the
        // warm one only replays — no recording, no bucket arena at all —
        // and its accumulators, panels and logs are the cold apply's
        // allocations, for both the sequential and fork-join paths.
        let _e = carve_obs::force_enabled();
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let nodes = enumerate_nodes(&domain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
        let buffers = |ws: &TraversalWorkspace<2>| -> Vec<(usize, usize)> {
            let scratch = ws.replay.iter().flat_map(|s| [&s.arena, &s.vin, &s.vout]);
            let logs = ws.logs.iter().map(|l| (l.as_ptr() as usize, l.capacity()));
            scratch
                .map(|v| (v.as_ptr() as usize, v.capacity()))
                .chain(logs)
                .chain([(ws.spine.as_ptr() as usize, ws.spine.capacity())])
                .collect()
        };
        for threads in [1usize, 4] {
            let mut ws = TraversalWorkspace::with_threads(threads);
            let run = |ws: &mut TraversalWorkspace<2>| {
                let before = carve_obs::thread_snapshot();
                let mut y = vec![0.0; n];
                traversal_matvec_par(
                    &elems,
                    0..elems.len(),
                    Curve::Hilbert,
                    &nodes,
                    &x,
                    &mut y,
                    ws,
                    &|| toy_kernel::<2>(1),
                );
                carve_obs::thread_snapshot().diff(&before)
            };
            let d1 = run(&mut ws);
            assert!(
                d1.phases["matvec/record"].counters["arena_alloc"] > 0,
                "cold workspace must allocate (threads={threads})"
            );
            // Nothing of the walk stays: the workspace holds the plan and
            // replay state sized by it — one scratch per worker, one spine
            // log per task, the spine's accumulators.
            let plan = ws.plan.as_ref().expect("cold apply keeps its plan");
            assert!(ws.replay.len() <= threads);
            assert_eq!(ws.logs.len(), plan.tasks.len());
            assert_eq!(ws.spine.len(), plan.spine_len);
            let cold = buffers(&ws);
            let d2 = run(&mut ws);
            assert!(
                !d2.phases.keys().any(|k| k.starts_with("matvec/record")),
                "warm workspace recorded again (threads={threads})"
            );
            assert!(
                !d2.phases["matvec"].counters.contains_key("arena_alloc"),
                "warm workspace allocated bucket vectors (threads={threads})"
            );
            assert_eq!(
                cold,
                buffers(&ws),
                "warm apply reallocated (threads={threads})"
            );
        }
    }

    /// Asserts `y` equals `y_ref` bit for bit.
    fn assert_bits(y_ref: &[f64], y: &[f64], tag: &str) {
        for (i, (a, b)) in y_ref.iter().zip(y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag} node {i}: {a} vs {b}");
        }
    }

    /// Asserts `a` equals `a_ref` bit for bit: structure and values.
    fn assert_csr_bits(a_ref: &carve_la::CsrMatrix, a: &carve_la::CsrMatrix, tag: &str) {
        assert_eq!(a_ref.row_ptr, a.row_ptr, "{tag}");
        assert_eq!(a_ref.cols, a.cols, "{tag}");
        assert_eq!(a_ref.vals.len(), a.vals.len(), "{tag}");
        for (i, (v1, v2)) in a_ref.vals.iter().zip(&a.vals).enumerate() {
            assert_eq!(v1.to_bits(), v2.to_bits(), "{tag} nz {i}");
        }
    }

    /// The toy CSR of `elems` assembled through `ws` by the factory path.
    fn assemble_toy<const DIM: usize>(
        elems: &[Octant<DIM>],
        curve: Curve,
        nodes: &NodeSet<DIM>,
        ws: &mut TraversalWorkspace<DIM>,
    ) -> carve_la::CsrMatrix {
        let n = nodes.len();
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut coo = CooBuilder::new(n);
        traversal_assemble_par(
            elems,
            0..elems.len(),
            curve,
            nodes,
            &ids,
            &mut coo,
            ws,
            &|| ToyBatchMatrix::<DIM>::new(nodes.order),
        );
        coo.build()
    }

    /// One apply of `elems` through a fresh sequential workspace with the
    /// width-1 closure kernel: the reference every replay must equal.
    fn fresh_apply<const DIM: usize>(
        elems: &[Octant<DIM>],
        curve: Curve,
        nodes: &NodeSet<DIM>,
        x: &[f64],
    ) -> Vec<f64> {
        let mut y = vec![0.0; nodes.len()];
        traversal_matvec_ws(
            elems,
            0..elems.len(),
            curve,
            nodes,
            x,
            &mut y,
            &mut TraversalWorkspace::with_threads(1),
            &mut toy_kernel::<DIM>(nodes.order),
        );
        y
    }

    /// Cold (record + replay) and warm (replay only) applies and
    /// assemblies through one workspace each, over threads × panel widths ×
    /// split depths, must each equal a fresh workspace's bit for bit — and
    /// so must an assembly replaying the plan the applies recorded.
    fn check_replay_matches_fresh<const DIM: usize>(
        elems: &[Octant<DIM>],
        nodes: &NodeSet<DIM>,
        seed: u64,
    ) {
        let n = nodes.len();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y_ref = fresh_apply(elems, Curve::Hilbert, nodes, &x);
        let a_ref = {
            let ids: Vec<u32> = (0..n as u32).collect();
            let mut coo = CooBuilder::new(n);
            traversal_assemble_ws(
                elems,
                0..elems.len(),
                Curve::Hilbert,
                nodes,
                &ids,
                &mut coo,
                &mut TraversalWorkspace::with_threads(1),
                &mut toy_matrix::<DIM>(nodes.order),
            );
            coo.build()
        };
        for threads in [1usize, 2, 8] {
            for width in [1usize, 8] {
                for depth in [1u8, 2, 3] {
                    let fresh = || {
                        TraversalWorkspace::with_threads(threads)
                            .with_batch_width(width)
                            .with_split_depth(depth)
                    };
                    let tag = |round: &str| {
                        format!(
                            "DIM={DIM} p={} threads={threads} width={width} depth={depth} {round}",
                            nodes.order
                        )
                    };
                    let mut ws_asm = fresh();
                    for round in ["cold assembly", "warm assembly"] {
                        let a = assemble_toy(elems, Curve::Hilbert, nodes, &mut ws_asm);
                        assert_csr_bits(&a_ref, &a, &tag(round));
                    }
                    let mut ws = fresh();
                    for round in ["cold", "warm"] {
                        let mut y = vec![0.0; n];
                        traversal_matvec_par(
                            elems,
                            0..elems.len(),
                            Curve::Hilbert,
                            nodes,
                            &x,
                            &mut y,
                            &mut ws,
                            &|| ToyBatchKernel::<DIM>,
                        );
                        assert_bits(&y_ref, &y, &tag(round));
                    }
                    let a = assemble_toy(elems, Curve::Hilbert, nodes, &mut ws);
                    assert_csr_bits(&a_ref, &a, &tag("assembly after the applies"));
                }
            }
        }
    }

    #[test]
    fn replay_equals_cold_and_fresh_on_carved_and_chain_meshes() {
        let d2 = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let d3 = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        let raw2 = construct_boundary_refined(&d2, Curve::Hilbert, 2, 5);
        let raw3 = construct_boundary_refined(&d3, Curve::Hilbert, 2, 4);
        let e2 = construct_balanced(&d2, Curve::Hilbert, &raw2);
        let e3 = construct_balanced(&d3, Curve::Hilbert, &raw3);
        for p in [1u64, 2] {
            check_replay_matches_fresh(&e2, &enumerate_nodes(&d2, &e2, p), 41 + p);
            check_replay_matches_fresh(&e3, &enumerate_nodes(&d3, &e3, p), 43 + p);
        }
        // Not 2:1-balanced: hanging sources that hang again replay from
        // their recorded chains.
        check_replay_matches_fresh(&raw2, &enumerate_nodes(&d2, &raw2, 2), 47);
    }

    #[test]
    fn a_plan_never_serves_another_tree() {
        // The same carved sphere under Morton and under Hilbert: equal
        // element and node counts and equal node coordinates, different
        // element order. Alternating one workspace between them records
        // on every switch, and every apply equals a fresh workspace's.
        let _e = carve_obs::force_enabled();
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let trees: Vec<(Curve, Vec<Octant<2>>)> = [Curve::Morton, Curve::Hilbert]
            .into_iter()
            .map(|c| {
                let t = construct_boundary_refined(&domain, c, 2, 5);
                (c, construct_balanced(&domain, c, &t))
            })
            .collect();
        let (nodes_m, nodes_h) = (
            enumerate_nodes(&domain, &trees[0].1, 2),
            enumerate_nodes(&domain, &trees[1].1, 2),
        );
        assert_eq!(trees[0].1.len(), trees[1].1.len());
        assert_eq!(nodes_m.coords, nodes_h.coords);
        assert_ne!(trees[0].1, trees[1].1);
        let n = nodes_m.len();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos()).collect();
        let refs: Vec<Vec<f64>> = trees
            .iter()
            .map(|(c, e)| fresh_apply(e, *c, &nodes_m, &x))
            .collect();
        let mut ws = TraversalWorkspace::with_threads(2);
        for round in 0..6 {
            let k = round % 2;
            let (curve, elems) = &trees[k];
            let before = carve_obs::thread_snapshot();
            let mut y = vec![0.0; n];
            traversal_matvec_par(
                elems,
                0..elems.len(),
                *curve,
                &nodes_m,
                &x,
                &mut y,
                &mut ws,
                &|| ToyBatchKernel::<2>,
            );
            let d = carve_obs::thread_snapshot().diff(&before);
            assert_eq!(d.phases["matvec/record"].calls, 1, "round {round}");
            assert_bits(&refs[k], &y, &format!("{curve:?} round {round}"));
        }
        // Assemblies alternate the same way: each records, and each CSR
        // equals a fresh workspace's.
        let csr_refs: Vec<carve_la::CsrMatrix> = trees
            .iter()
            .map(|(c, e)| assemble_toy(e, *c, &nodes_m, &mut TraversalWorkspace::with_threads(1)))
            .collect();
        for round in 0..6 {
            let k = round % 2;
            let (curve, elems) = &trees[k];
            let before = carve_obs::thread_snapshot();
            let a = assemble_toy(elems, *curve, &nodes_m, &mut ws);
            let d = carve_obs::thread_snapshot().diff(&before);
            assert_eq!(d.phases["assemble/record"].calls, 1, "round {round}");
            assert_csr_bits(
                &csr_refs[k],
                &a,
                &format!("{curve:?} assembly round {round}"),
            );
        }
        // A different owned range of the same tree is another plan too.
        let (curve, elems) = &trees[1];
        let mid = elems.len() / 2;
        let mut y = vec![0.0; n];
        for range in [0..mid, mid..elems.len()] {
            traversal_matvec_par(elems, range, *curve, &nodes_m, &x, &mut y, &mut ws, &|| {
                ToyBatchKernel::<2>
            });
        }
        for (a, b) in refs[1].iter().zip(&y) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn assembly_and_matvec_share_one_plan() {
        // One workspace records a tree once, whichever use comes first:
        // assemble then apply (the apply records nothing), and apply then
        // assemble (the assembly records nothing). Every result equals a
        // fresh workspace's.
        let _e = carve_obs::force_enabled();
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let raw = construct_boundary_refined(&domain, Curve::Hilbert, 2, 5);
        let elems = construct_balanced(&domain, Curve::Hilbert, &raw);
        let nodes = enumerate_nodes(&domain, &elems, 2);
        let n = nodes.len();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
        let y_ref = fresh_apply(&elems, Curve::Hilbert, &nodes, &x);
        let a_ref = assemble_toy(
            &elems,
            Curve::Hilbert,
            &nodes,
            &mut TraversalWorkspace::with_threads(1),
        );
        let apply = |ws: &mut TraversalWorkspace<2>| {
            let mut y = vec![0.0; n];
            traversal_matvec_par(
                &elems,
                0..elems.len(),
                Curve::Hilbert,
                &nodes,
                &x,
                &mut y,
                ws,
                &|| ToyBatchKernel::<2>,
            );
            y
        };
        let records = |d: &carve_obs::Snapshot, use_: &str| {
            d.phases
                .get(&format!("{use_}/record"))
                .map_or(0, |ph| ph.calls)
        };
        for threads in [1usize, 2] {
            let mut ws = TraversalWorkspace::with_threads(threads);
            let before = carve_obs::thread_snapshot();
            let a = assemble_toy(&elems, Curve::Hilbert, &nodes, &mut ws);
            let y = apply(&mut ws);
            let d = carve_obs::thread_snapshot().diff(&before);
            assert_eq!(records(&d, "assemble"), 1, "threads={threads}");
            assert_eq!(
                records(&d, "matvec"),
                0,
                "apply re-recorded (threads={threads})"
            );
            assert_csr_bits(&a_ref, &a, "assemble first");
            assert_bits(&y_ref, &y, "apply second");

            let mut ws = TraversalWorkspace::with_threads(threads);
            let before = carve_obs::thread_snapshot();
            let y = apply(&mut ws);
            let a = assemble_toy(&elems, Curve::Hilbert, &nodes, &mut ws);
            let d = carve_obs::thread_snapshot().diff(&before);
            assert_eq!(records(&d, "matvec"), 1, "threads={threads}");
            assert_eq!(
                records(&d, "assemble"),
                0,
                "assembly re-recorded (threads={threads})"
            );
            assert_bits(&y_ref, &y, "apply first");
            assert_csr_bits(&a_ref, &a, "assemble second");
        }
    }
}
