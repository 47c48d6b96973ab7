//! Traversal-based matrix-free MATVEC (§3.5) and matrix assembly (§3.6).
//!
//! No element-to-node map exists anywhere. Instead, top-down traversal of
//! the (incomplete) octree buckets nodal data into child subtrees — a node
//! incident on several children is *duplicated* — down to the parents of
//! the leaves; each leaf reads its elemental nodes out of its parent's
//! bucket, the elemental operator is applied, and the results go straight
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
//! # One driver, six entry points (DESIGN.md §6d)
//!
//! The paper has one traversal, and so does this module: a private `sweep`
//! that runs a selected set of subtree tasks. Everything public is a use of
//! it —
//!
//! * [`traversal_matvec_ws`] / [`traversal_matvec_par`] — `y += A x`;
//! * [`traversal_assemble_ws`] / [`traversal_assemble_par`] — the same
//!   sweep carrying node ids instead of values, draining per-task triplet
//!   logs in SFC order;
//! * [`crate::DistMesh::matvec_ws`] / [`crate::DistMesh::matvec_par`] — the
//!   matvec split in two sweeps around the ghost exchange: interior tasks,
//!   with the wait for the ghost payloads running meanwhile on the calling
//!   thread, then — input values refreshed — the boundary tasks
//!   (DESIGN.md §6e).
//!
//! `_ws` and `_par` differ only in where the elemental kernel comes from:
//! the caller's own `&mut K` (one worker, inline) or a `Fn() -> K + Sync`
//! factory (up to [`TraversalWorkspace::threads`] workers, one kernel each).
//!
//! # Execution model
//!
//! The engine splits the tree at a fixed *spine* depth into SFC-contiguous
//! subtree **tasks**. The spine buckets are built serially; the sweep then
//! runs tasks either inline or fork-joined across scoped worker threads
//! (`CARVE_PAR_THREADS` / `available_parallelism` via
//! [`crate::par::thread_budget`]). A task owns its subtree's bucket stack;
//! writes that would land in a shared ancestor bucket (a spine-level leaf's
//! results, hanging-node scatters) are appended to a per-task **scatter
//! log** and replayed on the main thread at join time, in SFC task order,
//! interleaved with the bottom-up bucket merges exactly where the
//! sequential traversal would have performed them. Every floating-point
//! accumulation therefore happens in the *same order for any thread count*
//! (and any split depth): results are bitwise identical across all six
//! entry points by construction.
//!
//! All bucket vectors come from a [`TraversalWorkspace`] arena that pools
//! them across recursion levels *and* across repeated calls (Krylov
//! iterations). Observability: `par_workers`, `arena_alloc`, `arena_reuse`
//! join `node_copies` (interior buckets only) and the leaf-stage counters
//! below.
//!
//! # The leaf stage (DESIGN.md §6d, §6h)
//!
//! Leaves get no bucket of their own. The first leaf child met under a
//! parent sweeps the parent's (Morton-sorted) bucket **once** onto the
//! parent's half-spacing lattice — `(2p+1)^DIM` slots holding every child's
//! `p`-lattice — after which each leaf's `npe` slots are table look-ups
//! into the parent bucket. A slot with no node behind it hangs: its value
//! is interpolated from the parent's own lattice points (the even slots)
//! with weights tabulated once per order (`nodes::Prolongation`);
//! only a source that is itself hanging one level up takes the recursive
//! coordinate path (`eval_coord` / `scatter_coord` / `stencil_coord`).
//!
//! Runs of SFC-consecutive sibling leaves are processed as one
//! structure-of-arrays panel (`npe × width`, element lane innermost), up to
//! `CARVE_BATCH_WIDTH` wide when the kernel opts in via
//! [`LeafKernel::supports_panels`] and of width 1 otherwise: gathers first
//! (they only read `vin`, which the traversal never writes), one kernel
//! call, then per leaf in SFC order its hanging contributions in lattice
//! order followed by its direct slots, all added straight into the parent
//! bucket. That is the order in which a per-leaf bucket would have been
//! scattered into and then merged upward, so the result is bitwise
//! identical for any width, thread count and chaos schedule. Counters:
//! `leaves` = `batched_leaves` + `scalar_leaves`, `batch_count`,
//! `slot_sweep_hits` (per sibling group), `hanging_slots`, `hanging_chain`.

use crate::nodes::{
    half_lattice_coord, half_lattice_linear, hanging_sources, nodes_per_elem, NodeSet, Prolongation,
};
use crate::par;
use carve_la::CooBuilder;
use carve_la::DenseMatrix;
use carve_sfc::morton::point_cmp_morton;
use carve_sfc::{Curve, Octant, SfcState};
use std::ops::Range;
use std::sync::Arc;

// Phase taxonomy (see DESIGN.md §"Observability"): the traversal engine
// reports through `carve-obs` under its caller's root scope — `"matvec"`
// for the operator apply, `"assemble"` for sparse assembly — with nested
// `top_down` / `leaf` / `bottom_up` phases (the Figs. 7–10 breakdown).
// Worker threads record detached and are re-absorbed into the calling
// rank's recorder (`carve_obs::absorb_rebased`), so per-rank snapshots
// stay complete under fork-join execution.

/// Scatter-log entry `(ancestor depth | row, bucket slot | col, value)`:
/// the matvec path logs deferred ancestor-bucket accumulations, the
/// assembly path reuses the same buffer for global `(row, col, val)`
/// triplets. Either way the log is replayed in SFC task order.
type OutLog = Vec<(u32, u32, f64)>;

/// One level's worth of bucketed nodal data along the current traversal
/// path. `parent_slot[i]` is the index of entry `i` in the parent bucket.
#[derive(Default)]
struct Bucket<const DIM: usize> {
    coords: Vec<[u64; DIM]>,
    parent_slot: Vec<u32>,
    ids: Vec<u32>,
    vin: Vec<f64>,
    vout: Vec<f64>,
}

impl<const DIM: usize> Bucket<DIM> {
    fn find(&self, coord: &[u64; DIM]) -> Option<usize> {
        self.coords
            .binary_search_by(|c| point_cmp_morton(c, coord))
            .ok()
    }

    /// Empties contents, keeping capacity (arena reuse).
    fn clear(&mut self) {
        self.coords.clear();
        self.parent_slot.clear();
        self.ids.clear();
        self.vin.clear();
        self.vout.clear();
    }
}

// --- Workspace arena ------------------------------------------------------

/// Per-worker scratch: a bucket free-list for the task-local recursion, the
/// depth stack container itself, and the leaf stage's buffers. Lives in the
/// workspace so repeated matvecs (Krylov iterations) allocate nothing after
/// warm-up.
#[derive(Default)]
struct WorkerScratch<const DIM: usize> {
    buckets: Vec<Bucket<DIM>>,
    own_stack: Vec<Bucket<DIM>>,
    leaf: LeafScratch<DIM>,
    alloc: u64,
    reuse: u64,
}

/// Buffers of the leaf stage.
#[derive(Default)]
struct LeafScratch<const DIM: usize> {
    /// Half-lattice maps (half-lattice slot → parent-bucket index), one
    /// `(2p+1)^DIM` frame per sibling group open along the recursion path.
    lattice: Vec<u32>,
    /// Parent-bucket index of every lattice slot of the current run
    /// (`npe` per leaf).
    slots: Vec<u32>,
    bufs: PanelBufs<DIM>,
}

/// What a visitor may write while it walks a run: the SoA panel values
/// (`npe × width`, element lane innermost) and the source stack of the
/// hanging-chain fallback.
#[derive(Default)]
struct PanelBufs<const DIM: usize> {
    vin: Vec<f64>,
    vout: Vec<f64>,
    srcs: Vec<([u64; DIM], f64)>,
}

/// Default panel width: one full sibling group in 3D (`2^3`), the natural
/// maximum run length the traversal produces.
const DEFAULT_BATCH_WIDTH: usize = 8;

/// Reusable arena for the traversal engine: bucket vectors, scatter logs,
/// and per-worker scratch pooled across recursion levels and across calls.
/// Also carries the intra-rank thread budget (`CARVE_PAR_THREADS` env or
/// `available_parallelism`) and the spine split depth. Results never depend
/// on either — see the module docs — only wall-clock does.
pub struct TraversalWorkspace<const DIM: usize> {
    threads: usize,
    /// 1: every depth-1 subtree is a task; tests sweep deeper splits.
    split_depth: u8,
    /// Maximum leaf-panel width (`CARVE_BATCH_WIDTH` env, default 8;
    /// 1 disables batching). Results never depend on it.
    batch_width: usize,
    bucket_pool: Vec<Bucket<DIM>>,
    log_pool: Vec<OutLog>,
    scratch: Vec<WorkerScratch<DIM>>,
    /// Persistent ghosted copy of the matvec input vector, so repeated
    /// applies (Krylov iterations) never re-allocate the `x.to_vec()` they
    /// used to. Borrowed via [`Self::take_ghost_scratch`].
    ghost_scratch: Vec<f64>,
    /// Pooled per-task interior/boundary flags for the overlapped matvec.
    task_flags: Vec<bool>,
    /// Hanging-node prolongation table of the order last traversed.
    prolongation: Option<Arc<Prolongation>>,
    alloc: u64,
    reuse: u64,
}

impl<const DIM: usize> TraversalWorkspace<DIM> {
    /// Workspace with the environment-resolved thread budget.
    pub fn new() -> Self {
        let batch = std::env::var("CARVE_BATCH_WIDTH")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or(DEFAULT_BATCH_WIDTH)
            .min(64);
        Self::build(par::thread_budget(), batch)
    }

    /// Workspace with an explicit thread count (tests; avoids racy env
    /// mutation under a parallel test harness).
    pub fn with_threads(threads: usize) -> Self {
        Self::build(threads, DEFAULT_BATCH_WIDTH)
    }

    /// Sets the maximum leaf-panel width (builder style; tests). `1`
    /// disables batching entirely.
    pub fn with_batch_width(mut self, width: usize) -> Self {
        self.batch_width = width.max(1);
        self
    }

    /// The maximum leaf-panel width batch-capable kernels will see.
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Sets the spine split depth (tests only: the determinism tests sweep
    /// it to cover the multi-level `refresh_vin` / `join_rec` paths).
    #[cfg(test)]
    pub(crate) fn with_split_depth(mut self, depth: u8) -> Self {
        self.split_depth = depth.max(1);
        self
    }

    fn build(threads: usize, batch_width: usize) -> Self {
        Self {
            threads: threads.max(1),
            split_depth: 1,
            batch_width: batch_width.max(1),
            bucket_pool: Vec::new(),
            log_pool: Vec::new(),
            scratch: Vec::new(),
            ghost_scratch: Vec::new(),
            task_flags: Vec::new(),
            prolongation: None,
            alloc: 0,
            reuse: 0,
        }
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

    fn acquire_bucket(&mut self) -> Bucket<DIM> {
        match self.bucket_pool.pop() {
            Some(mut b) => {
                b.clear();
                self.reuse += 1;
                b
            }
            None => {
                self.alloc += 1;
                Bucket::default()
            }
        }
    }

    fn acquire_log(&mut self) -> OutLog {
        let mut l = self.log_pool.pop().unwrap_or_default();
        l.clear();
        l
    }

    fn ensure_scratch(&mut self, n: usize) {
        while self.scratch.len() < n {
            self.scratch.push(WorkerScratch::default());
        }
    }

    fn release_plan(&mut self, plan: SpinePlan<DIM>) {
        for t in plan.tasks {
            self.bucket_pool.push(t.bucket);
            let mut log = t.out_log;
            log.clear();
            self.log_pool.push(log);
        }
        for n in plan.interior {
            self.bucket_pool.push(n.bucket);
        }
    }

    /// Emits and resets the arena's alloc/reuse tallies (engine + workers)
    /// under the currently open obs scope.
    fn emit_arena_counters(&mut self) {
        let mut a = std::mem::take(&mut self.alloc);
        let mut r = std::mem::take(&mut self.reuse);
        for s in &mut self.scratch {
            a += std::mem::take(&mut s.alloc);
            r += std::mem::take(&mut s.reuse);
        }
        if a > 0 {
            carve_obs::counter("arena_alloc", a);
        }
        if r > 0 {
            carve_obs::counter("arena_reuse", r);
        }
    }
}

impl<const DIM: usize> Default for TraversalWorkspace<DIM> {
    fn default() -> Self {
        Self::new()
    }
}

// --- Task-local bucket stack view -----------------------------------------

/// A task's view of the bucket stack: shared read-only ancestor prefix
/// (spine buckets), the task's own base bucket, and the task-local stack of
/// deeper buckets. Writes below the prefix boundary are deferred to the
/// scatter log; everything else accumulates in place.
struct Ctx<'a, const DIM: usize> {
    prefix: &'a [&'a Bucket<DIM>],
    base: &'a mut Bucket<DIM>,
    own: Vec<Bucket<DIM>>,
    log: &'a mut OutLog,
    free: &'a mut Vec<Bucket<DIM>>,
    alloc: &'a mut u64,
    reuse: &'a mut u64,
}

impl<const DIM: usize> Ctx<'_, DIM> {
    #[inline]
    fn top_depth(&self) -> usize {
        self.prefix.len() + self.own.len()
    }

    #[inline]
    fn bucket(&self, depth: usize) -> &Bucket<DIM> {
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
    fn top_bucket(&self) -> &Bucket<DIM> {
        self.bucket(self.top_depth())
    }

    /// Adds `val` into `vout[slot]` of the depth-`depth` bucket — directly
    /// when the bucket is task-owned, via the scatter log when it is a
    /// shared spine ancestor (replayed in order at join).
    #[inline]
    fn vout_add(&mut self, depth: usize, slot: usize, val: f64) {
        let pl = self.prefix.len();
        if depth < pl {
            self.log.push((depth as u32, slot as u32, val));
        } else if depth == pl {
            self.base.vout[slot] += val;
        } else {
            self.own[depth - pl - 1].vout[slot] += val;
        }
    }

    fn acquire(&mut self) -> Bucket<DIM> {
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

// --- Hanging-chain fallback -------------------------------------------------
//
// The leaf stage resolves a hanging slot from the prolongation table. These
// three walk the bucket stack by coordinate instead, and are reached only
// when a tabulated source is itself hanging at the parent's level (possible
// on unbalanced or incomplete trees; absent from balanced meshes).

/// Evaluates the FE value at `coord` (p-lattice of the level-`depth`
/// ancestor of `leaf`) from the bucket stack, resolving hanging chains.
fn eval_coord<const DIM: usize>(
    ctx: &Ctx<'_, DIM>,
    leaf: &Octant<DIM>,
    depth: usize,
    coord: &[u64; DIM],
    p: u64,
    srcs: &mut Vec<([u64; DIM], f64)>,
) -> f64 {
    let b = ctx.bucket(depth);
    if let Some(i) = b.find(coord) {
        return b.vin[i];
    }
    let oct = leaf.ancestor_at(depth as u8);
    let base = srcs.len();
    hanging_sources(&oct, coord, p, srcs);
    let end = srcs.len();
    let mut v = 0.0;
    for k in base..end {
        let (src, w) = srcs[k];
        v += w * eval_coord(ctx, leaf, depth - 1, &src, p, srcs);
    }
    srcs.truncate(base);
    v
}

/// Transpose of [`eval_coord`]: scatters `val` into the bucket stack.
fn scatter_coord<const DIM: usize>(
    ctx: &mut Ctx<'_, DIM>,
    leaf: &Octant<DIM>,
    depth: usize,
    coord: &[u64; DIM],
    val: f64,
    p: u64,
    srcs: &mut Vec<([u64; DIM], f64)>,
) {
    if let Some(i) = ctx.bucket(depth).find(coord) {
        ctx.vout_add(depth, i, val);
        return;
    }
    let oct = leaf.ancestor_at(depth as u8);
    let base = srcs.len();
    hanging_sources(&oct, coord, p, srcs);
    let end = srcs.len();
    for k in base..end {
        let (src, w) = srcs[k];
        scatter_coord(ctx, leaf, depth - 1, &src, w * val, p, srcs);
    }
    srcs.truncate(base);
}

/// Resolves `coord` into a `(global id, weight)` stencil (assembly path).
#[allow(clippy::too_many_arguments)]
fn stencil_coord<const DIM: usize>(
    ctx: &Ctx<'_, DIM>,
    leaf: &Octant<DIM>,
    depth: usize,
    coord: &[u64; DIM],
    weight: f64,
    p: u64,
    srcs: &mut Vec<([u64; DIM], f64)>,
    out: &mut Vec<(u32, f64)>,
) {
    let b = ctx.bucket(depth);
    if let Some(i) = b.find(coord) {
        out.push((b.ids[i], weight));
        return;
    }
    let oct = leaf.ancestor_at(depth as u8);
    let base = srcs.len();
    hanging_sources(&oct, coord, p, srcs);
    let end = srcs.len();
    for k in base..end {
        let (src, w) = srcs[k];
        stencil_coord(ctx, leaf, depth - 1, &src, weight * w, p, srcs, out);
    }
    srcs.truncate(base);
}

// --- Spine / task decomposition -------------------------------------------

/// Immutable per-call traversal parameters.
struct Env<'a, const DIM: usize> {
    elems: &'a [Octant<DIM>],
    owned: Range<usize>,
    curve: Curve,
    p: u64,
    carry_values: bool,
    carry_ids: bool,
    /// Maximum leaf-panel width (workspace `batch_width`); the effective
    /// width is additionally capped by the visitor's [`LeafVisitor::
    /// panel_width`] and the natural sibling-run length.
    batch: usize,
    table: &'a Prolongation,
}

/// A spine node: a bucket on the serial prefix of the tree, shared
/// read-only by the tasks below it.
struct SpineNode<const DIM: usize> {
    bucket: Bucket<DIM>,
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
    bucket: Bucket<DIM>,
    out_log: OutLog,
}

struct SpinePlan<const DIM: usize> {
    interior: Vec<SpineNode<DIM>>,
    tasks: Vec<Task<DIM>>,
}

/// Builds the spine buckets serially down to `split_depth` and carves the
/// remaining subtrees into tasks (SFC order).
fn build_spine<const DIM: usize>(
    env: &Env<'_, DIM>,
    split_depth: u8,
    root_bucket: Bucket<DIM>,
    ws: &mut TraversalWorkspace<DIM>,
) -> SpinePlan<DIM> {
    let mut plan = SpinePlan {
        interior: Vec::new(),
        tasks: Vec::new(),
    };
    let all = 0..env.elems.len();
    if all.len() == 1 && env.elems[0] == Octant::ROOT {
        // Degenerate single-element tree: the root bucket is the task.
        plan.tasks.push(Task {
            oct: Octant::ROOT,
            st: SfcState::ROOT,
            range: all,
            ancestors: Vec::new(),
            is_leaf: true,
            bucket: root_bucket,
            out_log: ws.acquire_log(),
        });
        return plan;
    }
    plan.interior.push(SpineNode {
        bucket: root_bucket,
        kids: Vec::new(),
    });
    let mut path = vec![0u32];
    grow(
        env,
        split_depth,
        0,
        Octant::ROOT,
        SfcState::ROOT,
        all,
        &mut path,
        &mut plan,
        ws,
    );
    plan
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
    plan: &mut SpinePlan<DIM>,
    ws: &mut TraversalWorkspace<DIM>,
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
        let mut b = ws.acquire_bucket();
        // A leaf reads its parent's bucket and gets none of its own.
        if !single_leaf {
            let _obs_td = carve_obs::scope("top_down");
            fill_child_bucket(
                &plan.interior[node as usize].bucket,
                &child_oct,
                env.p,
                env.carry_values,
                env.carry_ids,
                &mut b,
            );
            carve_obs::counter("node_copies", b.coords.len() as u64);
        }
        if single_leaf || child_level >= split_depth {
            let ti = plan.tasks.len() as u32;
            plan.tasks.push(Task {
                oct: child_oct,
                st: child_st,
                range: lo..hi,
                ancestors: path.clone(),
                is_leaf: single_leaf,
                bucket: b,
                out_log: ws.acquire_log(),
            });
            plan.interior[node as usize].kids.push(SpineChild::Task(ti));
        } else {
            let ci = plan.interior.len() as u32;
            plan.interior.push(SpineNode {
                bucket: b,
                kids: Vec::new(),
            });
            plan.interior[node as usize]
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
                plan,
                ws,
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
    parent: &Bucket<DIM>,
    child_oct: &Octant<DIM>,
    p: u64,
    carry_values: bool,
    carry_ids: bool,
    out: &mut Bucket<DIM>,
) {
    let side = child_oct.side() as u64;
    for (i, c) in parent.coords.iter().enumerate() {
        let mut incident = true;
        for (&ck, &ak) in c.iter().zip(&child_oct.anchor) {
            let a = ak as u64 * p;
            if ck < a || ck > a + side * p {
                incident = false;
                break;
            }
        }
        if incident {
            out.coords.push(*c);
            out.parent_slot.push(i as u32);
            if carry_ids {
                out.ids.push(parent.ids[i]);
            }
            if carry_values {
                out.vin.push(parent.vin[i]);
            }
        }
    }
    if carry_values {
        out.vout.resize(out.coords.len(), 0.0);
    }
}

// --- Elemental kernel traits ----------------------------------------------

/// Elemental operator for the matvec traversal. `apply` is the scalar
/// per-element kernel; kernels that can consume structure-of-arrays panels
/// of SFC-consecutive same-level siblings opt in via
/// [`Self::supports_panels`] + [`Self::apply_panel`].
///
/// Implemented for every `FnMut(&Octant<DIM>, &[f64], &mut [f64])` closure
/// (scalar-only), so plain-closure call sites need no changes.
pub trait LeafKernel<const DIM: usize> {
    /// `v_e += K_e u_e` on one element (`v_e` arrives zeroed).
    fn apply(&mut self, e: &Octant<DIM>, u: &[f64], v: &mut [f64]);

    /// Whether [`Self::apply_panel`] is implemented; when `false` the
    /// traversal stays on the scalar per-leaf path.
    fn supports_panels(&self) -> bool {
        false
    }

    /// Applies the operator to a panel of `elems.len()` same-level elements
    /// in SoA layout: node `lin` of element `b` lives at
    /// `[lin * batch + b]` (`v` arrives zeroed). Implementations must
    /// perform each element's floating-point operations in exactly the
    /// order of [`Self::apply`] so batched and scalar traversals agree
    /// bitwise.
    fn apply_panel(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
        let _ = (elems, u, v);
        unreachable!("apply_panel called on a kernel without panel support")
    }
}

impl<const DIM: usize, F> LeafKernel<DIM> for F
where
    F: FnMut(&Octant<DIM>, &[f64], &mut [f64]),
{
    fn apply(&mut self, e: &Octant<DIM>, u: &[f64], v: &mut [f64]) {
        self(e, u, v)
    }
}

/// Elemental matrix source for the assembly traversal. Caching kernels
/// (e.g. per-level matrices on axis-aligned octrees) return a borrow via
/// [`Self::matrix_ref`] so the traversal skips the per-leaf build + clone;
/// the emitted triplet stream is identical either way.
///
/// Implemented for every `FnMut(&Octant<DIM>) -> DenseMatrix` closure.
pub trait AssemblyKernel<const DIM: usize> {
    /// The elemental matrix `K_e` (owned).
    fn matrix(&mut self, e: &Octant<DIM>) -> DenseMatrix;

    /// Borrowing variant for caching kernels; `None` means "use
    /// [`Self::matrix`]". Must hold the same values as `matrix`.
    fn matrix_ref(&mut self, e: &Octant<DIM>) -> Option<&DenseMatrix> {
        let _ = e;
        None
    }

    /// Whether same-level sibling runs should be processed as panels (the
    /// stencil sweeps batch and the obs counters record it; the triplet
    /// stream is unchanged either way).
    fn supports_panels(&self) -> bool {
        false
    }
}

impl<const DIM: usize, F> AssemblyKernel<DIM> for F
where
    F: FnMut(&Octant<DIM>) -> DenseMatrix,
{
    fn matrix(&mut self, e: &Octant<DIM>) -> DenseMatrix {
        self(e)
    }
}

// --- Task execution -------------------------------------------------------

/// Sentinel for "no node at this lattice slot" (a hanging slot).
const NO_SLOT: u32 = u32::MAX;

/// A sibling group: the parent octant whose bucket its leaf children read,
/// where that bucket sits in the stack, and where the group's half-lattice
/// map starts in [`LeafScratch::lattice`] once its first run has `swept`
/// the bucket onto it.
#[derive(Clone, Copy)]
struct Group<const DIM: usize> {
    parent: Octant<DIM>,
    depth: usize,
    lattice_at: usize,
    swept: bool,
}

impl<const DIM: usize> Group<DIM> {
    /// Which block of the prolongation table `leaf` reads: its Morton
    /// corner in the parent, or `1 << DIM` for a root-only tree's leaf,
    /// which is its own parent.
    fn corner(&self, leaf: &Octant<DIM>) -> usize {
        if *leaf == self.parent {
            1 << DIM
        } else {
            leaf.child_number()
        }
    }
}

/// One run of SFC-consecutive sibling leaves as a visitor sees it: every
/// lattice slot already resolved to a parent-bucket index or [`NO_SLOT`].
struct LeafRun<'a, const DIM: usize> {
    group: Group<DIM>,
    leaves: &'a [Octant<DIM>],
    /// The group's half-lattice map (slot → parent-bucket index).
    lattice: &'a [u32],
    /// `npe` parent-bucket indices per leaf.
    slots: &'a [u32],
    /// Number of [`NO_SLOT`] entries in `slots`.
    hanging: usize,
    table: &'a Prolongation,
}

impl<const DIM: usize> LeafRun<'_, DIM> {
    /// One-level sources of hanging slot `lin` of `leaf`, each as (parent
    /// bucket index or [`NO_SLOT`], half-lattice slot, weight).
    fn sources<'s>(
        &'s self,
        leaf: &Octant<DIM>,
        lin: usize,
    ) -> impl Iterator<Item = (u32, u32, f64)> + 's {
        let srcs = self.table.sources(self.group.corner(leaf), lin);
        assert!(!srcs.is_empty(), "hanging slot off the parent's boundary");
        srcs.iter().map(|&(h, w)| (self.lattice[h as usize], h, w))
    }

    /// Coordinate of half-lattice slot `h` (the chain fallback works by
    /// coordinate).
    fn coord(&self, h: u32) -> [u64; DIM] {
        half_lattice_coord(&self.group.parent, self.table.order(), h as usize)
    }
}

/// What to do with a run of sibling leaves: read what the kernel needs out
/// of the parent bucket, apply it, and write the results back (matvec) or
/// log them (assembly).
trait LeafVisitor<const DIM: usize> {
    /// Maximum run width this visitor takes as one panel (1 = a kernel
    /// without panel support).
    fn panel_width(&self) -> usize;

    /// Returns how many hanging sources took the chain fallback.
    fn run(
        &mut self,
        run: &LeafRun<'_, DIM>,
        ctx: &mut Ctx<'_, DIM>,
        bufs: &mut PanelBufs<DIM>,
    ) -> u64;
}

/// Maps `bucket` onto the half-spacing lattice of `parent`, pushing one
/// frame onto `lattice`; returns the number of nodes that landed on it.
fn sweep_half_lattice<const DIM: usize>(
    parent: &Octant<DIM>,
    p: u64,
    bucket: &Bucket<DIM>,
    lattice: &mut Vec<u32>,
) -> u64 {
    let base = lattice.len();
    lattice.resize(base + ((2 * p + 1) as usize).pow(DIM as u32), NO_SLOT);
    let mut hits = 0;
    for (i, c) in bucket.coords.iter().enumerate() {
        if let Some(h) = half_lattice_linear(parent, p, c) {
            lattice[base + h] = i as u32;
            hits += 1;
        }
    }
    hits
}

/// The leaf stage: runs the sibling leaves `env.elems[run]` of `group`
/// against the parent bucket, sweeping it onto the half lattice first if
/// no earlier run of the group has.
fn leaf_run<const DIM: usize, V: LeafVisitor<DIM>>(
    env: &Env<'_, DIM>,
    group: &mut Group<DIM>,
    run: Range<usize>,
    ctx: &mut Ctx<'_, DIM>,
    scr: &mut LeafScratch<DIM>,
    visitor: &mut V,
) {
    let _obs = carve_obs::scope("leaf");
    if !group.swept {
        let bucket = ctx.bucket(group.depth);
        let hits = sweep_half_lattice(&group.parent, env.p, bucket, &mut scr.lattice);
        carve_obs::counter("slot_sweep_hits", hits);
        group.swept = true;
    }
    let leaves = &env.elems[run];
    let width = leaves.len() as u64;
    carve_obs::counter("leaves", width);
    if width > 1 {
        carve_obs::counter("batched_leaves", width);
        carve_obs::counter("batch_count", 1);
    } else {
        carve_obs::counter("scalar_leaves", 1);
    }
    let lattice = &scr.lattice[group.lattice_at..];
    scr.slots.clear();
    for leaf in leaves {
        let half_slots = env.table.half_slots(group.corner(leaf));
        scr.slots
            .extend(half_slots.iter().map(|&h| lattice[h as usize]));
    }
    let view = LeafRun {
        group: *group,
        leaves,
        lattice,
        slots: &scr.slots,
        hanging: scr.slots.iter().filter(|&&s| s == NO_SLOT).count(),
        table: env.table,
    };
    let chained = visitor.run(&view, ctx, &mut scr.bufs);
    if view.hanging > 0 {
        carve_obs::counter("hanging_slots", view.hanging as u64);
    }
    if chained > 0 {
        carve_obs::counter("hanging_chain", chained);
    }
}

/// Runs one task to completion against its ancestor prefix.
fn run_task<const DIM: usize, V: LeafVisitor<DIM>>(
    env: &Env<'_, DIM>,
    task: &mut Task<DIM>,
    interior: &[SpineNode<DIM>],
    scr: &mut WorkerScratch<DIM>,
    visitor: &mut V,
) {
    let prefix: Vec<&Bucket<DIM>> = task
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
        prefix: &prefix,
        base: &mut task.bucket,
        own: std::mem::take(own_stack),
        log: &mut task.out_log,
        free: buckets,
        alloc,
        reuse,
    };
    if task.is_leaf {
        if env.owned.contains(&task.range.start) {
            // A spine-level leaf reads the last spine bucket; a root-only
            // tree's single leaf is its own parent and reads the root's.
            let mut group = Group {
                parent: task.oct.ancestor_at(task.oct.level.saturating_sub(1)),
                depth: prefix.len().saturating_sub(1),
                lattice_at: leaf.lattice.len(),
                swept: false,
            };
            let run = task.range.clone();
            leaf_run(env, &mut group, run, &mut ctx, leaf, visitor);
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
            visitor,
        );
    }
    debug_assert!(ctx.own.is_empty());
    *own_stack = ctx.own;
}

/// The recursive top-down / bottom-up sweep inside one task; `subtree` is
/// never a leaf itself.
fn rec<const DIM: usize, V: LeafVisitor<DIM>>(
    env: &Env<'_, DIM>,
    subtree: Octant<DIM>,
    st: SfcState,
    range: Range<usize>,
    ctx: &mut Ctx<'_, DIM>,
    scr: &mut LeafScratch<DIM>,
    visitor: &mut V,
) {
    debug_assert!(!range.is_empty());
    // Partition the (SFC-sorted) element range by SFC child rank; the
    // runs are contiguous and in rank order.
    let child_level = subtree.level + 1;
    let bw = env.batch.min(visitor.panel_width());
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
        // `bw`; the for-loop then naturally skips the ranks the run
        // covered, because runs are re-scanned from the advanced `lo`.
        if env.elems[lo].level == child_level {
            let mut q = lo + 1;
            while q - lo < bw
                && q < range.end
                && q < env.owned.end
                && env.elems[q].level == child_level
            {
                q += 1;
            }
            leaf_run(env, &mut group, lo..q, ctx, scr, visitor);
            lo = q;
            continue;
        }
        let m = st.sfc_to_morton(env.curve, DIM, r);
        let child_oct = subtree.child(m);
        let child_st = st.child(env.curve, DIM, r);
        // Top-down: bucket nodes incident on the child's closed region.
        let obs_td = carve_obs::scope("top_down");
        let mut child = ctx.acquire();
        fill_child_bucket(
            ctx.top_bucket(),
            &child_oct,
            env.p,
            env.carry_values,
            env.carry_ids,
            &mut child,
        );
        carve_obs::counter("node_copies", child.coords.len() as u64);
        drop(obs_td);
        ctx.own.push(child);
        rec(env, child_oct, child_st, lo..hi, ctx, scr, visitor);
        // Bottom-up: accumulate duplicated node contributions.
        let _obs_bu = carve_obs::scope("bottom_up");
        let child = ctx.own.pop().expect("child bucket");
        if env.carry_values {
            let pd = ctx.top_depth();
            for (i, &ps) in child.parent_slot.iter().enumerate() {
                ctx.vout_add(pd, ps as usize, child.vout[i]);
            }
        }
        ctx.free.push(child);
        lo = hi;
    }
    debug_assert_eq!(lo, range.end, "elements not fully bucketed");
    scr.lattice.truncate(group.lattice_at);
}

// --- Join (ordered merge) -------------------------------------------------

/// Replays each task's deferred ancestor writes and merges bucket `vout`s
/// up the spine, walking the spine tree in DFS (SFC) order so every
/// accumulation happens exactly where the sequential traversal would have
/// performed it. Only meaningful for the matvec path (`carry_values`).
fn join_spine<const DIM: usize>(plan: &mut SpinePlan<DIM>) {
    if !plan.interior.is_empty() {
        join_rec(plan, 0);
    }
}

fn join_rec<const DIM: usize>(plan: &mut SpinePlan<DIM>, node: u32) {
    let kids = std::mem::take(&mut plan.interior[node as usize].kids);
    for k in &kids {
        match *k {
            SpineChild::Task(ti) => {
                let _obs = carve_obs::scope("bottom_up");
                let SpinePlan { interior, tasks } = plan;
                let t = &mut tasks[ti as usize];
                for &(d, slot, val) in t.out_log.iter() {
                    let anc = t.ancestors[d as usize] as usize;
                    interior[anc].bucket.vout[slot as usize] += val;
                }
                t.out_log.clear();
                let pb = &mut interior[node as usize].bucket;
                for (i, &ps) in t.bucket.parent_slot.iter().enumerate() {
                    pb.vout[ps as usize] += t.bucket.vout[i];
                }
            }
            SpineChild::Interior(ci) => {
                join_rec(plan, ci);
                let _obs = carve_obs::scope("bottom_up");
                let b = std::mem::take(&mut plan.interior[ci as usize].bucket);
                let pb = &mut plan.interior[node as usize].bucket;
                for (i, &ps) in b.parent_slot.iter().enumerate() {
                    pb.vout[ps as usize] += b.vout[i];
                }
                plan.interior[ci as usize].bucket = b;
            }
        }
    }
    plan.interior[node as usize].kids = kids;
}

// --- Leaf visitors --------------------------------------------------------

struct MatvecVisitor<'k, K> {
    kernel: &'k mut K,
}

impl<const DIM: usize, K> LeafVisitor<DIM> for MatvecVisitor<'_, K>
where
    K: LeafKernel<DIM>,
{
    fn panel_width(&self) -> usize {
        if self.kernel.supports_panels() {
            usize::MAX
        } else {
            1
        }
    }

    fn run(
        &mut self,
        run: &LeafRun<'_, DIM>,
        ctx: &mut Ctx<'_, DIM>,
        bufs: &mut PanelBufs<DIM>,
    ) -> u64 {
        let PanelBufs { vin, vout, srcs } = bufs;
        let (depth, p, width) = (run.group.depth, run.table.order(), run.leaves.len());
        let npe = run.slots.len() / width;
        vin.clear();
        vin.resize(npe * width, 0.0);
        vout.clear();
        vout.resize(npe * width, 0.0);
        let mut chained = 0;
        // Gather — SoA: node `lin` of leaf `b` at `lin * width + b`.
        let parent = ctx.bucket(depth);
        for (b, leaf) in run.leaves.iter().enumerate() {
            for (lin, &s) in run.slots[b * npe..(b + 1) * npe].iter().enumerate() {
                vin[lin * width + b] = if s != NO_SLOT {
                    parent.vin[s as usize]
                } else {
                    let mut v = 0.0;
                    for (s, h, w) in run.sources(leaf, lin) {
                        v += w * if s != NO_SLOT {
                            parent.vin[s as usize]
                        } else {
                            chained += 1;
                            eval_coord(ctx, leaf, depth, &run.coord(h), p, srcs)
                        };
                    }
                    v
                };
            }
        }
        match run.leaves {
            [leaf] => self.kernel.apply(leaf, vin, vout),
            leaves => self.kernel.apply_panel(leaves, vin, vout),
        }
        // Scatter per leaf in SFC order, hanging slots before direct ones:
        // the order of "scatter into a leaf bucket (hanging slots bypass
        // it), then merge that bucket upward".
        for (b, leaf) in run.leaves.iter().enumerate() {
            let slots = &run.slots[b * npe..(b + 1) * npe];
            if run.hanging > 0 {
                for (lin, _) in slots.iter().enumerate().filter(|(_, &s)| s == NO_SLOT) {
                    let val = vout[lin * width + b];
                    for (s, h, w) in run.sources(leaf, lin) {
                        if s != NO_SLOT {
                            ctx.vout_add(depth, s as usize, w * val);
                        } else {
                            scatter_coord(ctx, leaf, depth, &run.coord(h), w * val, p, srcs);
                        }
                    }
                }
            }
            for (lin, &s) in slots.iter().enumerate() {
                if s != NO_SLOT {
                    ctx.vout_add(depth, s as usize, vout[lin * width + b]);
                }
            }
        }
        chained
    }
}

struct AssemblyVisitor<'k, K> {
    kernel: &'k mut K,
    /// `(global id, weight)` stencil of each lattice slot of one leaf.
    stencils: Vec<Vec<(u32, f64)>>,
}

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

impl<const DIM: usize, K> LeafVisitor<DIM> for AssemblyVisitor<'_, K>
where
    K: AssemblyKernel<DIM>,
{
    fn panel_width(&self) -> usize {
        if self.kernel.supports_panels() {
            usize::MAX
        } else {
            1
        }
    }

    fn run(
        &mut self,
        run: &LeafRun<'_, DIM>,
        ctx: &mut Ctx<'_, DIM>,
        bufs: &mut PanelBufs<DIM>,
    ) -> u64 {
        let (depth, p) = (run.group.depth, run.table.order());
        let npe = self.stencils.len();
        let mut chained = 0;
        for (b, leaf) in run.leaves.iter().enumerate() {
            let parent = ctx.bucket(depth);
            for (lin, &s) in run.slots[b * npe..(b + 1) * npe].iter().enumerate() {
                let stencil = &mut self.stencils[lin];
                stencil.clear();
                if s != NO_SLOT {
                    stencil.push((parent.ids[s as usize], 1.0));
                    continue;
                }
                for (s, h, w) in run.sources(leaf, lin) {
                    if s != NO_SLOT {
                        stencil.push((parent.ids[s as usize], w));
                    } else {
                        chained += 1;
                        let c = run.coord(h);
                        stencil_coord(ctx, leaf, depth, &c, w, p, &mut bufs.srcs, stencil);
                    }
                }
            }
            // `K_e` is borrowed from caching kernels, built otherwise.
            if let Some(ke) = self.kernel.matrix_ref(leaf) {
                emit_triplets(&self.stencils, ke, ctx.log);
            } else {
                emit_triplets(&self.stencils, &self.kernel.matrix(leaf), ctx.log);
            }
        }
        chained
    }
}

// --- The traversal driver ---------------------------------------------------

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

/// The matvec input vector: complete up front, or — the overlapped exchange
/// of §3.5 — with its ghost entries still in flight.
pub(crate) enum Input<'a, W> {
    Complete(&'a [f64]),
    /// The caller has already *posted* the nonblocking ghost read of `xg`'s
    /// owned entries. Tasks none of whose owned elements is a
    /// `boundary_elem` (stencil closure rank-local) sweep against the stale
    /// vector while `wait` completes the exchange into `xg`; the rest sweep
    /// afterwards. `wait` is invoked exactly once on every path, including
    /// empty-owned ranks — it carries the exchange's collective tag
    /// discipline.
    InFlight {
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

/// Runs the tasks of `plan` selected by `pick` (task index → run it?) and
/// returns the worker count used. `run(kernel, spine, tasks, scratch)` walks
/// one worker's SFC-contiguous share with its kernel. A held kernel runs the
/// share inline; a factory forks up to `ws.threads()` scoped workers, each
/// building its own kernel and recording obs detached (re-absorbed under
/// the caller's open scope). Either way `meanwhile` runs exactly once on
/// the calling thread — while the workers are busy, when there are any.
fn sweep<const DIM: usize, K, F, R>(
    plan: &mut SpinePlan<DIM>,
    pick: impl Fn(usize) -> bool,
    ws: &mut TraversalWorkspace<DIM>,
    kernels: &mut Kernels<'_, K, F>,
    run: &R,
    meanwhile: impl FnOnce(),
) -> usize
where
    F: Fn() -> K + Sync,
    R: Fn(&mut K, &[SpineNode<DIM>], &mut [&mut Task<DIM>], &mut WorkerScratch<DIM>) + Sync,
{
    let SpinePlan { interior, tasks } = plan;
    let interior: &[SpineNode<DIM>] = interior;
    let mut picked: Vec<&mut Task<DIM>> = tasks
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| pick(*i))
        .map(|(_, t)| t)
        .collect();
    let budget = match kernels {
        Kernels::Held(_) => 1,
        Kernels::Make(_) => ws.threads,
    };
    let (chunk, workers) = chunking(picked.len(), budget);
    ws.ensure_scratch(workers);
    match kernels {
        Kernels::Make(make) if workers > 1 => {
            let make: &F = make;
            let snaps: Vec<carve_obs::Snapshot> = std::thread::scope(|s| {
                let handles: Vec<_> = picked
                    .chunks_mut(chunk)
                    .zip(ws.scratch.iter_mut())
                    .map(|(share, scr)| {
                        s.spawn(move || {
                            carve_obs::detach_thread();
                            run(&mut make(), interior, share, scr);
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
                let scr = &mut ws.scratch[0];
                match kernels {
                    Kernels::Held(kernel) => run(kernel, interior, &mut picked, scr),
                    Kernels::Make(make) => run(&mut make(), interior, &mut picked, scr),
                }
            }
            meanwhile();
        }
    }
    workers
}

// --- MATVEC -----------------------------------------------------------------

/// True iff any *owned* element in the task's range touches a ghost node
/// (per the caller's element classification): such a task must not run
/// until the ghost exchange has landed.
fn task_touches_ghosts<const DIM: usize>(
    t: &Task<DIM>,
    owned: &Range<usize>,
    boundary_elem: &[bool],
) -> bool {
    let lo = t.range.start.max(owned.start);
    let hi = t.range.end.min(owned.end);
    lo < hi && boundary_elem[lo..hi].iter().any(|&b| b)
}

/// Re-seeds the input values (`vin`) of the spine buckets and the flagged
/// boundary-task base buckets from the now-complete ghosted vector `xg`,
/// walking the spine in pre-order (parents precede children by
/// construction). Only `vin` is touched: interior tasks have already run
/// and their pending output lives in `vout`s and scatter logs, which this
/// pass never reads or writes — so the subsequent boundary sweep + ordered
/// join reproduce the sequential result bit for bit.
fn refresh_vin<const DIM: usize>(plan: &mut SpinePlan<DIM>, xg: &[f64], flags: &[bool]) {
    if plan.interior.is_empty() {
        // Degenerate single-root-element plan: the lone task IS the root
        // bucket, seeded directly from the input vector.
        if flags[0] {
            plan.tasks[0].bucket.vin.copy_from_slice(xg);
        }
        return;
    }
    plan.interior[0].bucket.vin.copy_from_slice(xg);
    for node in 0..plan.interior.len() {
        let kids = std::mem::take(&mut plan.interior[node].kids);
        for k in &kids {
            match *k {
                SpineChild::Interior(ci) => {
                    let mut b = std::mem::take(&mut plan.interior[ci as usize].bucket);
                    let pb = &plan.interior[node].bucket;
                    for (i, &ps) in b.parent_slot.iter().enumerate() {
                        b.vin[i] = pb.vin[ps as usize];
                    }
                    plan.interior[ci as usize].bucket = b;
                }
                SpineChild::Task(ti) => {
                    if !flags[ti as usize] {
                        continue;
                    }
                    let SpinePlan { interior, tasks } = plan;
                    let t = &mut tasks[ti as usize];
                    let pb = &interior[node].bucket;
                    for (i, &ps) in t.bucket.parent_slot.iter().enumerate() {
                        t.bucket.vin[i] = pb.vin[ps as usize];
                    }
                }
            }
        }
        plan.interior[node].kids = kids;
    }
}

fn ghost_wait<W: FnOnce(&mut [f64])>(wait: W, xg: &mut [f64]) {
    let _obs = carve_obs::scope("ghost_wait");
    wait(xg);
}

fn finish_matvec<const DIM: usize>(plan: &mut SpinePlan<DIM>, y: &mut [f64]) {
    join_spine(plan);
    let root_vout = if plan.interior.is_empty() {
        &plan.tasks[0].bucket.vout
    } else {
        &plan.interior[0].bucket.vout
    };
    for (yi, vo) in y.iter_mut().zip(root_vout) {
        *yi += vo;
    }
}

/// `y += A x` by one traversal: bucket the input down the spine, sweep the
/// tasks, join in SFC order. With an [`Input::InFlight`] vector the sweep
/// splits in two around the exchange — interior tasks against the stale
/// vector while `wait` blocks under a `ghost_wait` sub-phase, then
/// [`refresh_vin`], then the boundary tasks. The ordered join is the same,
/// so the result is bitwise identical to a plain sweep over the
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
    let Tree {
        elems,
        owned,
        curve,
        nodes,
    } = tree;
    assert_eq!(input.values().len(), nodes.len());
    assert_eq!(y.len(), nodes.len());
    if let Input::InFlight { boundary_elem, .. } = &input {
        assert_eq!(boundary_elem.len(), elems.len());
    }
    if elems.is_empty() || owned.is_empty() {
        if let Input::InFlight { xg, wait, .. } = input {
            let _obs = carve_obs::scope("matvec");
            ghost_wait(wait, xg);
        }
        return;
    }
    let _obs = carve_obs::scope("matvec");
    let table = ws.prolongation(nodes.order);
    let env = Env {
        elems,
        owned,
        curve,
        p: nodes.order,
        carry_values: true,
        carry_ids: false,
        batch: ws.batch_width,
        table: &table,
    };
    let mut root = ws.acquire_bucket();
    root.coords.extend_from_slice(&nodes.coords);
    root.vin.extend_from_slice(input.values());
    root.vout.resize(nodes.len(), 0.0);
    let mut plan = build_spine(&env, ws.split_depth, root, ws);
    let run = |kernel: &mut K,
               interior: &[SpineNode<DIM>],
               tasks: &mut [&mut Task<DIM>],
               scr: &mut WorkerScratch<DIM>| {
        let mut vis = MatvecVisitor { kernel };
        for t in tasks.iter_mut() {
            run_task(&env, t, interior, scr, &mut vis);
        }
    };
    let workers = match input {
        Input::Complete(_) => sweep(&mut plan, |_| true, ws, &mut kernels, &run, || ()),
        Input::InFlight {
            xg,
            boundary_elem,
            wait,
        } => {
            let mut flags = std::mem::take(&mut ws.task_flags);
            flags.clear();
            flags.extend(
                plan.tasks
                    .iter()
                    .map(|t| task_touches_ghosts(t, &env.owned, boundary_elem)),
            );
            let interior = sweep(
                &mut plan,
                |i| !flags[i],
                ws,
                &mut kernels,
                &run,
                || ghost_wait(wait, xg),
            );
            refresh_vin(&mut plan, xg, &flags);
            let boundary = sweep(&mut plan, |i| flags[i], ws, &mut kernels, &run, || ());
            ws.task_flags = flags;
            interior.max(boundary)
        }
    };
    carve_obs::counter("par_workers", workers as u64);
    finish_matvec(&mut plan, y);
    ws.release_plan(plan);
    ws.emit_arena_counters();
}

/// Applies the global operator `y += A x` matrix-free via octree traversal,
/// sequentially, with the caller's `kernel` and `ws`'s bucket arena (hold
/// the workspace across Krylov iterations: warm applies allocate nothing).
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
/// `make_kernel`. Deferred ancestor writes replay in SFC order at join, so
/// the output is **bitwise identical for any thread count** (and equal to
/// [`traversal_matvec_ws`]).
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

/// Moves one task's triplet buffer into the builder.
fn drain_log(log: &mut OutLog, coo: &mut CooBuilder) {
    for &(ri, cj, v) in log.iter() {
        coo.add(ri as usize, cj as usize, v);
    }
    log.clear();
}

/// Sparse assembly by the same traversal carrying node *ids* instead of
/// values: the sweep leaves each task's `(row, col, val)` triplets in its
/// log, and the logs drain into `coo` in SFC task order — so the emitted
/// triplet sequence, and hence the built CSR, is identical for either
/// kernel source and any thread count. No bottom-up phase.
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
    let Tree {
        elems,
        owned,
        curve,
        nodes,
    } = tree;
    assert_eq!(global_ids.len(), nodes.len());
    if elems.is_empty() || owned.is_empty() {
        return;
    }
    let _obs = carve_obs::scope("assemble");
    let table = ws.prolongation(nodes.order);
    let env = Env {
        elems,
        owned,
        curve,
        p: nodes.order,
        carry_values: false,
        carry_ids: true,
        batch: ws.batch_width,
        table: &table,
    };
    let npe = nodes_per_elem::<DIM>(env.p);
    let mut root = ws.acquire_bucket();
    root.coords.extend_from_slice(&nodes.coords);
    root.ids.extend_from_slice(global_ids);
    let mut plan = build_spine(&env, ws.split_depth, root, ws);
    // Capacity hint for the triplet stream: `owned leaves × npe²`.
    let owned_leaves = (env.owned.end.min(elems.len())).saturating_sub(env.owned.start);
    coo.reserve(owned_leaves * npe * npe);
    let run = |kernel: &mut K,
               interior: &[SpineNode<DIM>],
               tasks: &mut [&mut Task<DIM>],
               scr: &mut WorkerScratch<DIM>| {
        let mut vis = AssemblyVisitor {
            kernel,
            stencils: vec![Vec::new(); npe],
        };
        for t in tasks.iter_mut() {
            run_task(&env, t, interior, scr, &mut vis);
        }
    };
    let workers = sweep(&mut plan, |_| true, ws, &mut kernels, &run, || ());
    carve_obs::counter("par_workers", workers as u64);
    for t in plan.tasks.iter_mut() {
        drain_log(&mut t.out_log, coo);
    }
    ws.release_plan(plan);
    ws.emit_arena_counters();
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
        // A closure kernel takes no panels: one `leaf` call per element.
        let leaf = &d.phases["matvec/leaf"];
        assert_eq!(leaf.calls, elems.len() as u64);
        assert_eq!(leaf.counters["leaves"], elems.len() as u64);
        assert_eq!(leaf.counters["scalar_leaves"], elems.len() as u64);
        // One half-lattice sweep per sibling group: 4^3 level-3 parents,
        // each with the 3 × 3 nodes of its closed region in its bucket.
        assert_eq!(leaf.counters["slot_sweep_hits"], 64 * 9);
        // A uniform mesh has no hanging slot, let alone a chain.
        assert!(!leaf.counters.contains_key("hanging_slots"), "{leaf:?}");
        assert!(!leaf.counters.contains_key("hanging_chain"), "{leaf:?}");
        // `node_copies` counts interior buckets only (levels 1 to 3 here):
        // the leaves read their parent's bucket and copy nothing.
        let td = &d.phases["matvec/top_down"];
        assert_eq!(td.counters["node_copies"], 4 * 81 + 16 * 25 + 64 * 9);
        assert_eq!(d.phases["matvec"].calls, 1);
        assert_eq!(d.phases["matvec"].counters["par_workers"], 1);
        assert!(d.phases["matvec"].counters["arena_alloc"] > 0);
        assert!(d.phases.contains_key("matvec/bottom_up"));
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
                assert_eq!(a1.row_ptr, at.row_ptr, "{tag}");
                assert_eq!(a1.cols, at.cols, "{tag}");
                assert_eq!(a1.vals.len(), at.vals.len());
                for (i, (v1, vt)) in a1.vals.iter().zip(&at.vals).enumerate() {
                    assert_eq!(v1.to_bits(), vt.to_bits(), "{tag} nz {i}");
                }
            }
        }
    }

    /// Panel-capable twin of [`toy_kernel`]: the scalar apply is the same
    /// code, and the panel apply performs each element's additions in the
    /// same order over the SoA layout — so batched and scalar traversals
    /// must agree bit for bit.
    struct ToyBatchKernel<const DIM: usize>;

    impl<const DIM: usize> LeafKernel<DIM> for ToyBatchKernel<DIM> {
        fn apply(&mut self, e: &Octant<DIM>, u: &[f64], v: &mut [f64]) {
            let h = e.bounds_unit().1;
            let scale = h.powi(DIM as i32);
            let npe = u.len();
            let sum: f64 = u.iter().sum();
            for i in 0..npe {
                v[i] = scale * (u[i] + sum / npe as f64);
            }
        }

        fn supports_panels(&self) -> bool {
            true
        }

        fn apply_panel(&mut self, elems: &[Octant<DIM>], u: &[f64], v: &mut [f64]) {
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

    /// Panel-capable twin of [`toy_matrix`] with a per-level matrix cache
    /// (the toy matrix depends on the octant only through `h`, i.e. level).
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
        fn matrix(&mut self, e: &Octant<DIM>) -> DenseMatrix {
            toy_matrix::<DIM>(self.p)(e)
        }

        fn matrix_ref(&mut self, e: &Octant<DIM>) -> Option<&DenseMatrix> {
            let slot = &mut self.levels[e.level as usize];
            if slot.is_none() {
                *slot = Some(toy_matrix::<DIM>(self.p)(e));
            }
            slot.as_ref()
        }

        fn supports_panels(&self) -> bool {
            true
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
                    let a = coo.build();
                    assert_eq!(a_ref.row_ptr, a.row_ptr, "p={p} threads={threads}");
                    assert_eq!(a_ref.cols, a.cols, "p={p} threads={threads}");
                    for (i, (v1, v2)) in a_ref.vals.iter().zip(&a.vals).enumerate() {
                        assert_eq!(
                            v1.to_bits(),
                            v2.to_bits(),
                            "p={p} threads={threads} width={width} nz {i}"
                        );
                    }
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
        assert_eq!(leaf1["slot_sweep_hits"], leaf["slot_sweep_hits"]);
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
                    let fills = d.phases.get("matvec/top_down").map_or(0, |td| td.calls);
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
        // Two consecutive matvecs through one workspace: the second must be
        // served entirely from the arena (`arena_alloc` absent, only
        // `arena_reuse`), for both the sequential and fork-join paths.
        let _e = carve_obs::force_enabled();
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let t = construct_boundary_refined(&domain, Curve::Hilbert, 2, 4);
        let elems = construct_balanced(&domain, Curve::Hilbert, &t);
        let nodes = enumerate_nodes(&domain, &elems, 1);
        let n = nodes.len();
        let x = vec![1.0; n];
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
                d1.phases["matvec"].counters["arena_alloc"] > 0,
                "cold workspace must allocate (threads={threads})"
            );
            let d2 = run(&mut ws);
            let c2 = &d2.phases["matvec"].counters;
            assert!(
                !c2.contains_key("arena_alloc"),
                "warm workspace allocated bucket vectors (threads={threads}): {c2:?}"
            );
            assert!(
                c2["arena_reuse"] > 0,
                "warm workspace must reuse the arena (threads={threads})"
            );
        }
    }
}
