//! Nodal enumeration on incomplete trees (§3.4).
//!
//! Every leaf element carries a `(p+1)^DIM` Lagrange node lattice. Shared
//! nodes are deduplicated by sorting nodal coordinates (TreeSort-style order:
//! point Morton); *hanging* nodes are detected with the paper's cancellation
//! trick: each element also emits temporary *cancellation nodes* at the
//! half-lattice positions on its boundary (where hypothetical finer
//! neighbors would put nodes). After sorting, any coordinate carrying a
//! cancellation instance is incident on a coarser face/edge and therefore
//! hanging — it is discarded. The survivors are exactly the independent
//! DOFs of the continuous-Galerkin grid.
//!
//! Nodal coordinates live on the integer lattice `[0, p·2^MAX_LEVEL]^DIM`
//! (element anchor × p + offset × side), which is exact for `p ≤ 3` and
//! `level ≤ MAX_LEVEL - 1`.

use carve_geom::Subdomain;
use carve_sfc::morton::point_cmp_morton;
use carve_sfc::{Octant, MAX_LEVEL};
use std::ops::Range;

/// Per-node classification flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NodeFlags(u8);

impl NodeFlags {
    /// Node lies in the closed carved set `C` (on or inside the immersed
    /// object / outside the retained region) — a subdomain-boundary node
    /// where Dirichlet data is imposed (directly or via SBM).
    pub const CARVED_BOUNDARY: u8 = 1;
    /// Node lies on the boundary of the root cube.
    pub const CUBE_BOUNDARY: u8 = 2;

    pub fn is_carved_boundary(self) -> bool {
        self.0 & Self::CARVED_BOUNDARY != 0
    }
    pub fn is_cube_boundary(self) -> bool {
        self.0 & Self::CUBE_BOUNDARY != 0
    }
    pub fn is_any_boundary(self) -> bool {
        self.0 != 0
    }
}

/// The unique, non-hanging nodes of a (local or global) element list.
#[derive(Clone, Debug)]
pub struct NodeSet<const DIM: usize> {
    /// Element order `p` (1 = linear, 2 = quadratic, 3 = cubic).
    pub order: u64,
    /// Node lattice coordinates, sorted by point-Morton order.
    pub coords: Vec<[u64; DIM]>,
    pub flags: Vec<NodeFlags>,
}

/// Iterates the multi-indices of a `(q+1)^DIM` lattice, x-fastest.
#[inline]
pub fn lattice_index<const DIM: usize>(linear: usize, q: u64) -> [u64; DIM] {
    let base = q + 1;
    let mut rem = linear as u64;
    let mut idx = [0u64; DIM];
    for slot in idx.iter_mut() {
        *slot = rem % base;
        rem /= base;
    }
    idx
}

/// Number of nodes per element for order `p`.
#[inline]
pub fn nodes_per_elem<const DIM: usize>(p: u64) -> usize {
    ((p + 1) as usize).pow(DIM as u32)
}

/// Linear slot of `coord` on the half-spacing `(2p+1)^DIM` lattice of
/// `parent` (x-fastest, origin at the parent's anchor), or `None` when the
/// coordinate is not on it. That lattice holds the `p`-lattice of every
/// child of `parent` and, at its even positions, the parent's own; the
/// traversal's leaf stage maps a whole parent bucket onto it in one sweep.
#[inline]
pub(crate) fn half_lattice_linear<const DIM: usize>(
    parent: &Octant<DIM>,
    p: u64,
    coord: &[u64; DIM],
) -> Option<usize> {
    // Spacing `side / 2` is a power of two: divide by shifting.
    let shift = u32::from(MAX_LEVEL - parent.level - 1);
    let n1d = 2 * p + 1;
    let mut lin = 0usize;
    let mut stride = 1usize;
    for (&ck, &ak) in coord.iter().zip(&parent.anchor) {
        let off = ck.checked_sub(ak as u64 * p)?;
        let j = off >> shift;
        if j << shift != off || j >= n1d {
            return None;
        }
        lin += j as usize * stride;
        stride *= n1d as usize;
    }
    Some(lin)
}

/// Inverse of [`half_lattice_linear`]: the coordinate of half-lattice slot
/// `h` of `parent`.
pub(crate) fn half_lattice_coord<const DIM: usize>(
    parent: &Octant<DIM>,
    p: u64,
    h: usize,
) -> [u64; DIM] {
    let half = (parent.side() / 2) as u64;
    let idx = lattice_index::<DIM>(h, 2 * p);
    std::array::from_fn(|k| parent.anchor[k] as u64 * p + idx[k] * half)
}

/// Coordinate of lattice point `idx` (each component `0..=p`) of element `e`.
#[inline]
pub fn elem_node_coord<const DIM: usize>(e: &Octant<DIM>, p: u64, idx: &[u64; DIM]) -> [u64; DIM] {
    let side = e.side() as u64;
    let mut c = [0u64; DIM];
    for k in 0..DIM {
        c[k] = e.anchor[k] as u64 * p + idx[k] * side;
    }
    c
}

/// Converts a nodal lattice coordinate to unit-cube coordinates.
#[inline]
pub fn node_unit_coords<const DIM: usize>(coord: &[u64; DIM], p: u64) -> [f64; DIM] {
    let scale = 1.0 / (p as f64 * (1u64 << MAX_LEVEL) as f64);
    let mut out = [0.0; DIM];
    for k in 0..DIM {
        out[k] = coord[k] as f64 * scale;
    }
    out
}

/// Morton keys of lattice points: bit `b` of axis `k` lands on bit
/// `DIM·b + k`, so integer order on the keys is [`point_cmp_morton`] order on
/// the points. Spreads one byte per table look-up.
struct MortonKeys<const DIM: usize> {
    /// `spread[v]`: the bits of byte `v`, `DIM` apart.
    spread: [u128; 256],
}

impl<const DIM: usize> MortonKeys<DIM> {
    fn new() -> Self {
        let spread = std::array::from_fn(|v| {
            (0..8).fold(0u128, |acc, b| acc | ((v as u128 >> b) & 1) << (DIM * b))
        });
        Self { spread }
    }

    /// Key contribution of coordinate `v` on axis `axis`.
    #[inline]
    fn axis(&self, v: u64, axis: usize) -> u128 {
        let mut key = 0u128;
        let (mut rest, mut shift) = (v, axis);
        while rest != 0 {
            key |= self.spread[(rest & 0xff) as usize] << shift;
            rest >>= 8;
            shift += 8 * DIM;
        }
        key
    }

    /// The point whose key is `key`, coordinates below `2^bits`.
    fn point(key: u128, bits: u32) -> [u64; DIM] {
        let mut c = [0u64; DIM];
        for b in 0..bits as usize {
            let digit = key >> (DIM * b);
            for (k, ck) in c.iter_mut().enumerate() {
                *ck |= ((digit >> k) as u64 & 1) << b;
            }
        }
        c
    }
}

/// Enumerates unique non-hanging nodes for a 2:1-balanced element list
/// (Algorithm of §3.4: generate + cancellation + sort + filter + tag).
pub fn enumerate_nodes<const DIM: usize>(
    domain: &dyn Subdomain<DIM>,
    elems: &[Octant<DIM>],
    p: u64,
) -> NodeSet<DIM> {
    enumerate_nodes_and_slots(domain, elems, 0..0, p).0
}

/// Marks a lattice slot that is not a node (it hangs).
pub(crate) const HANGING: u32 = u32::MAX;

/// [`enumerate_nodes`] and, out of the same sort, the node of every lattice
/// slot of the elements `elems[slotted]`: entry `i * npe + lin` is the node
/// index of slot `lin` of element `slotted.start + i`, or [`HANGING`].
///
/// Every generated point is one integer — its Morton key, then the
/// cancellation flag, then (for a slot of a `slotted` element) the entry it
/// fills — so one integer sort groups the instances of a coordinate,
/// ordinary ones first, and a surviving group names its slots.
pub(crate) fn enumerate_nodes_and_slots<const DIM: usize>(
    domain: &dyn Subdomain<DIM>,
    elems: &[Octant<DIM>],
    slotted: Range<usize>,
    p: u64,
) -> (NodeSet<DIM>, Vec<u32>) {
    assert!((1..=3).contains(&p), "orders 1 to 3 supported");
    let _obs = carve_obs::scope("nodes");
    let npe = nodes_per_elem::<DIM>(p);
    let mut slot_node = vec![HANGING; slotted.len() * npe];
    let cube_max = p * (1u64 << MAX_LEVEL);
    let coord_bits = u64::BITS - cube_max.leading_zeros();
    // Low bits: entry of `slot_node` plus one (zero: none), then the flag.
    let tag_bits = usize::BITS - slot_node.len().leading_zeros();
    let flag = 1u128 << tag_bits;
    assert!(
        (DIM as u32) * coord_bits + tag_bits < u128::BITS,
        "Morton key of a {DIM}-dimensional lattice point does not fit 128 bits"
    );
    // Half-lattice multi-indices (each component `0..=2p`) of the ordinary
    // nodes — all even — and of the cancellation nodes: the points on ∂e
    // that are not p-lattice points (a component on a face, a component
    // odd).
    let q = 2 * p;
    let ordinary: Vec<[u64; DIM]> = (0..npe)
        .map(|lin| lattice_index::<DIM>(lin, p).map(|i| 2 * i))
        .collect();
    let cancellation: Vec<[u64; DIM]> = (0..nodes_per_elem::<DIM>(q))
        .map(|lin| lattice_index::<DIM>(lin, q))
        .filter(|idx| idx.iter().any(|&i| i == 0 || i == q) && idx.iter().any(|&i| i % 2 == 1))
        .collect();
    // A cancellation point of `e` sits at an odd multiple of `side(e) / 2`
    // on some axis, every ordinary node of an element at `e`'s level or
    // coarser at a multiple of `side(e)`: the finest leaves cancel nothing.
    let finest = elems.iter().map(|e| e.level).max().unwrap_or(0);
    let n_coarser = elems.iter().filter(|e| e.level < finest).count();
    let mut keys: Vec<u128> =
        Vec::with_capacity(elems.len() * npe + n_coarser * cancellation.len());
    let morton = MortonKeys::<DIM>::new();
    for (ei, e) in elems.iter().enumerate() {
        assert!(
            e.level < MAX_LEVEL,
            "elements at MAX_LEVEL cannot host cancellation lattices"
        );
        let half = (e.side() / 2) as u64;
        // Key contributions of the `2p + 1` half-lattice positions per axis.
        let axis: [[u128; 7]; DIM] = std::array::from_fn(|k| {
            std::array::from_fn(|j| morton.axis(e.anchor[k] as u64 * p + j as u64 * half, k))
        });
        let key = |idx: &[u64; DIM]| {
            let point = idx.iter().zip(&axis);
            point.fold(0u128, |acc, (&j, ax)| acc | ax[j as usize]) << (tag_bits + 1)
        };
        if slotted.contains(&ei) {
            let first_tag = (ei - slotted.start) * npe + 1;
            let tagged = ordinary.iter().zip(first_tag..);
            keys.extend(tagged.map(|(idx, tag)| key(idx) | tag as u128));
        } else {
            keys.extend(ordinary.iter().map(key));
        }
        if e.level < finest {
            keys.extend(cancellation.iter().map(|idx| key(idx) | flag));
        }
    }
    keys.sort_unstable();
    let mut coords = Vec::new();
    let mut group_start = 0;
    for i in 0..keys.len() {
        let coord_key = keys[i] >> (tag_bits + 1);
        if keys
            .get(i + 1)
            .is_some_and(|&next| next >> (tag_bits + 1) == coord_key)
        {
            continue;
        }
        // `keys[group_start..=i]` are the instances of one coordinate. It
        // survives when none is a cancellation: the last has the flag clear.
        if keys[i] & flag == 0 {
            for k in &keys[group_start..=i] {
                if let Some(slot) = ((k & (flag - 1)) as usize).checked_sub(1) {
                    slot_node[slot] = coords.len() as u32;
                }
            }
            coords.push(MortonKeys::<DIM>::point(coord_key, coord_bits));
        }
        group_start = i + 1;
    }
    // Tag nodes.
    let flags = coords
        .iter()
        .map(|c| {
            let mut f = 0u8;
            let unit = node_unit_coords(c, p);
            if domain.point_in_carved(&unit) {
                f |= NodeFlags::CARVED_BOUNDARY;
            }
            if c.iter().any(|&x| x == 0 || x == cube_max) {
                f |= NodeFlags::CUBE_BOUNDARY;
            }
            NodeFlags(f)
        })
        .collect();
    let nodes = NodeSet {
        order: p,
        coords,
        flags,
    };
    (nodes, slot_node)
}

impl<const DIM: usize> NodeSet<DIM> {
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Binary search for a coordinate; `None` means hanging (or absent).
    pub fn find(&self, coord: &[u64; DIM]) -> Option<usize> {
        self.coords
            .binary_search_by(|c| point_cmp_morton(c, coord))
            .ok()
    }

    /// Unit-cube position of node `i`.
    pub fn unit_coords(&self, i: usize) -> [f64; DIM] {
        node_unit_coords(&self.coords[i], self.order)
    }

    /// Indices of nodes carrying any boundary flag.
    pub fn boundary_nodes(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.flags[i].is_any_boundary())
            .collect()
    }
}

/// Resolution of one element lattice slot against the global node set:
/// either a real DOF or a hanging point with its (recursively resolved)
/// interpolation stencil.
#[derive(Clone, Debug)]
pub enum SlotRef {
    Direct(usize),
    /// `(node index, weight)` pairs; weights sum to 1.
    Hanging(Vec<(usize, f64)>),
}

/// Resolves the hanging-node constraint for lattice coordinate `coord` of an
/// octant at `level` (i.e. `coord` belongs to the p-lattice of an ancestor
/// path octant at that level). Standard conforming constraint: interpolate
/// on the minimal containing face of the *parent* octant, recursing when a
/// source is itself hanging.
pub fn resolve_slot<const DIM: usize>(
    nodes: &NodeSet<DIM>,
    elem: &Octant<DIM>,
    coord: &[u64; DIM],
) -> SlotRef {
    if let Some(i) = nodes.find(coord) {
        return SlotRef::Direct(i);
    }
    let mut acc: Vec<(usize, f64)> = Vec::new();
    accumulate_hanging(nodes, elem, coord, 1.0, &mut Vec::new(), &mut |i, w| {
        acc.push((i, w))
    });
    // Merge duplicate node indices.
    acc.sort_unstable_by_key(|e| e.0);
    let mut merged: Vec<(usize, f64)> = Vec::with_capacity(acc.len());
    for (i, w) in acc {
        if let Some(last) = merged.last_mut() {
            if last.0 == i {
                last.1 += w;
                continue;
            }
        }
        merged.push((i, w));
    }
    SlotRef::Hanging(merged)
}

/// The recursion under [`resolve_slot`], without its `Vec`: hands `sink`
/// every `(node index, weight)` term of lattice coordinate `coord` of `oct`
/// scaled by `weight` — the node itself, or the recursively resolved sources
/// of a hanging point, repeats unmerged. `srcs` is scratch shared across
/// calls.
pub(crate) fn accumulate_hanging<const DIM: usize>(
    nodes: &NodeSet<DIM>,
    oct: &Octant<DIM>,
    coord: &[u64; DIM],
    weight: f64,
    srcs: &mut Vec<([u64; DIM], f64)>,
    sink: &mut impl FnMut(usize, f64),
) {
    if let Some(i) = nodes.find(coord) {
        sink(i, weight);
        return;
    }
    let base = srcs.len();
    hanging_sources(oct, coord, nodes.order, srcs);
    let parent = oct.parent();
    for k in base..srcs.len() {
        let (src, w) = srcs[k];
        accumulate_hanging(nodes, &parent, &src, weight * w, srcs, sink);
    }
    srcs.truncate(base);
}

/// The hanging-face rule, one level up: `coord` is on the `p`-lattice of
/// `oct` but is not a node, so its value is interpolated on the minimal
/// face of `parent(oct)` containing it. Pushes that face's lattice points
/// with their tensor-Lagrange weights onto `srcs` (zero weights skipped,
/// first free axis fastest). An axis is fixed where the coordinate lies on
/// the parent's boundary and free otherwise. Callers note `srcs.len()`
/// before the call and truncate back after using their segment, so chains
/// of hanging sources share one allocation.
///
/// This is the only copy of the rule: [`resolve_slot`] recurses over it,
/// [`Prolongation`] tabulates it, and the traversal falls back to it for a
/// source that is itself hanging.
pub(crate) fn hanging_sources<const DIM: usize>(
    oct: &Octant<DIM>,
    coord: &[u64; DIM],
    p: u64,
    srcs: &mut Vec<([u64; DIM], f64)>,
) {
    assert!(
        oct.level > 0,
        "hanging coordinate {coord:?} unresolved at the root"
    );
    let parent = oct.parent();
    let pside = parent.side() as u64;
    // Parametric position t_k in [0, p] on the parent lattice.
    let mut t = [0.0f64; DIM];
    let mut free_axes = [0usize; DIM];
    let mut n_free = 0;
    for k in 0..DIM {
        let off = coord[k] - parent.anchor[k] as u64 * p;
        debug_assert!(off <= p * pside);
        if off != 0 && off != p * pside {
            free_axes[n_free] = k;
            n_free += 1;
        }
        t[k] = off as f64 / pside as f64;
    }
    debug_assert!(
        n_free < DIM,
        "hanging coordinate must lie on the parent boundary"
    );
    for combo in 0..(p + 1).pow(n_free as u32) {
        let mut rem = combo;
        let mut w = 1.0;
        let mut src = *coord;
        for &k in &free_axes[..n_free] {
            let j = rem % (p + 1);
            rem /= p + 1;
            w *= lagrange_1d(p, j, t[k]);
            src[k] = parent.anchor[k] as u64 * p + j * pside;
        }
        if w != 0.0 {
            srcs.push((src, w));
        }
    }
}

/// The hanging-face rule tabulated for one order `p`: it depends on nothing
/// but `(p, child corner, lattice slot)`, so the traversal's leaf stage
/// looks hanging slots up instead of re-deriving them per element. All
/// slots are linear indices on a parent's half-spacing lattice
/// ([`half_lattice_linear`]).
///
/// Built by running [`hanging_sources`] on the children of the root. The
/// weights are products of `lagrange_1d` at half-integer `t`, which do not
/// depend on the level, so they equal the on-the-fly ones bit for bit.
pub(crate) struct Prolongation {
    order: u64,
    npe: usize,
    /// `corner * npe + lin` → half-lattice slot of lattice point `lin` of
    /// the child at Morton corner `corner`; block `1 << DIM` is the
    /// parent's own lattice.
    half_slot: Vec<u32>,
    /// CSR over `corner * npe + lin` into `sources`.
    offsets: Vec<u32>,
    /// `(half-lattice slot of a parent lattice point, weight)`, in rule
    /// order. Empty for slots interior to the parent, which never hang.
    sources: Vec<(u32, f64)>,
}

impl Prolongation {
    pub(crate) fn new<const DIM: usize>(p: u64) -> Self {
        let root = Octant::<DIM>::ROOT;
        let npe = nodes_per_elem::<DIM>(p);
        let corners = 1usize << DIM;
        let slot = |c: &[u64; DIM]| {
            half_lattice_linear(&root, p, c).expect("child lattices lie on the half lattice") as u32
        };
        let mut table = Self {
            order: p,
            npe,
            half_slot: Vec::with_capacity((corners + 1) * npe),
            offsets: vec![0],
            sources: Vec::new(),
        };
        let far = p * root.side() as u64;
        let mut srcs = Vec::new();
        for corner in 0..corners {
            let child = root.child(corner);
            for lin in 0..npe {
                let coord = elem_node_coord(&child, p, &lattice_index::<DIM>(lin, p));
                table.half_slot.push(slot(&coord));
                if coord.iter().any(|&c| c == 0 || c == far) {
                    srcs.clear();
                    hanging_sources(&child, &coord, p, &mut srcs);
                    table
                        .sources
                        .extend(srcs.iter().map(|(c, w)| (slot(c), *w)));
                }
                table.offsets.push(table.sources.len() as u32);
            }
        }
        // The parent's own lattice (a root-only tree's single leaf): the
        // even half-lattice positions, none of which can hang.
        for lin in 0..npe {
            let coord = elem_node_coord(&root, p, &lattice_index::<DIM>(lin, p));
            table.half_slot.push(slot(&coord));
            table.offsets.push(table.sources.len() as u32);
        }
        table
    }

    pub(crate) fn order(&self) -> u64 {
        self.order
    }

    /// Half-lattice slots of the `npe` lattice points of the child at
    /// `corner` (`1 << DIM`: of the parent itself).
    #[inline]
    pub(crate) fn half_slots(&self, corner: usize) -> &[u32] {
        &self.half_slot[corner * self.npe..(corner + 1) * self.npe]
    }

    /// One-level interpolation sources of lattice point `lin` of the child
    /// at `corner`, should it hang.
    #[inline]
    pub(crate) fn sources(&self, corner: usize, lin: usize) -> &[(u32, f64)] {
        let i = corner * self.npe + lin;
        &self.sources[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// 1D Lagrange basis `L_j(t)` on the nodes `{0, 1, ..., p}` evaluated at `t`.
#[inline]
pub fn lagrange_1d(p: u64, j: u64, t: f64) -> f64 {
    let mut w = 1.0;
    for m in 0..=p {
        if m != j {
            w *= (t - m as f64) / (j as f64 - m as f64);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::construct_balanced;
    use crate::construct::{construct_boundary_refined, construct_uniform};
    use carve_geom::{CarvedSolids, FullDomain, RetainBox, Sphere};
    use carve_sfc::Curve;

    #[test]
    fn half_lattice_holds_every_child_lattice() {
        let parent = Octant::<3>::ROOT.child(5).child(2);
        let half = (parent.side() / 2) as u64;
        for p in [1u64, 2, 3] {
            // The parent's own lattice sits at the even positions ...
            for lin in 0..nodes_per_elem::<3>(p) {
                let idx = lattice_index::<3>(lin, p);
                let c = elem_node_coord(&parent, p, &idx);
                let h = half_lattice_linear(&parent, p, &c).expect("on the lattice");
                assert_eq!(lattice_index::<3>(h, 2 * p), idx.map(|i| 2 * i), "p={p}");
            }
            // ... and child `m`'s lattice is shifted by `p` along m's axes.
            for m in 0..8 {
                let child = parent.child(m);
                for lin in 0..nodes_per_elem::<3>(p) {
                    let idx = lattice_index::<3>(lin, p);
                    let c = elem_node_coord(&child, p, &idx);
                    let h = half_lattice_linear(&parent, p, &c).expect("on the lattice");
                    let want: [u64; 3] =
                        std::array::from_fn(|k| idx[k] + p * ((m >> k) & 1) as u64);
                    assert_eq!(lattice_index::<3>(h, 2 * p), want, "p={p} m={m} lin={lin}");
                }
            }
            // Quarter positions (a grandchild's nodes) and points outside
            // the closed region are off the lattice.
            let mut c = elem_node_coord(&parent, p, &[0; 3]);
            c[0] += half / 2;
            assert_eq!(half_lattice_linear(&parent, p, &c), None);
            let mut below = elem_node_coord(&parent, p, &[0; 3]);
            below[1] -= half;
            assert_eq!(half_lattice_linear(&parent, p, &below), None);
            let mut beyond = elem_node_coord(&parent, p, &[p; 3]);
            beyond[2] += half;
            assert_eq!(half_lattice_linear(&parent, p, &beyond), None);
        }
    }

    /// Every table entry against the rule run on a deep, off-origin parent:
    /// same sources in the same order, weights equal bit for bit.
    fn check_table_equals_rule<const DIM: usize>(parent: Octant<DIM>) {
        let half = (parent.side() / 2) as u64;
        for p in [1u64, 2, 3] {
            let table = Prolongation::new::<DIM>(p);
            let coord_of = |h: u32| half_lattice_coord(&parent, p, h as usize);
            let mut srcs = Vec::new();
            for corner in 0..(1usize << DIM) {
                let child = parent.child(corner);
                let half_slots = table.half_slots(corner);
                for (lin, &half_slot) in half_slots.iter().enumerate() {
                    let c = elem_node_coord(&child, p, &lattice_index::<DIM>(lin, p));
                    assert_eq!(coord_of(half_slot), c, "p={p} corner={corner} lin={lin}");
                    let on_boundary = (0..DIM).any(|k| {
                        let off = c[k] - parent.anchor[k] as u64 * p;
                        off == 0 || off == 2 * p * half
                    });
                    let got = table.sources(corner, lin);
                    if !on_boundary {
                        assert!(got.is_empty(), "interior slot has sources");
                        continue;
                    }
                    srcs.clear();
                    hanging_sources(&child, &c, p, &mut srcs);
                    assert_eq!(got.len(), srcs.len(), "p={p} corner={corner} lin={lin}");
                    for (&(h, w), &(sc, sw)) in got.iter().zip(&srcs) {
                        assert_eq!(coord_of(h), sc, "p={p} corner={corner} lin={lin}");
                        assert_eq!(w.to_bits(), sw.to_bits(), "p={p} corner={corner} lin={lin}");
                    }
                }
            }
            // The parent's own block: even slots, no sources.
            for (lin, &h) in table.half_slots(1 << DIM).iter().enumerate() {
                let c = elem_node_coord(&parent, p, &lattice_index::<DIM>(lin, p));
                assert_eq!(coord_of(h), c);
                assert!(table.sources(1 << DIM, lin).is_empty());
            }
        }
    }

    #[test]
    fn prolongation_table_equals_the_rule_bitwise() {
        check_table_equals_rule(Octant::<2>::ROOT.child(3).child(1).child(2));
        check_table_equals_rule(Octant::<3>::ROOT.child(6).child(0).child(5).child(3));
        check_table_equals_rule(Octant::<4>::ROOT.child(9).child(14));
    }

    /// The recursion `resolve_slot` used before it shared the rule with the
    /// traversal: own copy of the face stencil, cumulative weights, a
    /// `1e-300` cut-off. Kept as the oracle for the test below.
    fn reference_accumulate<const DIM: usize>(
        nodes: &NodeSet<DIM>,
        oct: &Octant<DIM>,
        coord: &[u64; DIM],
        weight: f64,
        acc: &mut Vec<(usize, f64)>,
    ) {
        if let Some(i) = nodes.find(coord) {
            acc.push((i, weight));
            return;
        }
        let p = nodes.order;
        let parent = oct.parent();
        let pside = parent.side() as u64;
        let mut t = [0.0f64; DIM];
        let mut free_axes = Vec::new();
        for k in 0..DIM {
            let off = coord[k] - parent.anchor[k] as u64 * p;
            if off != 0 && off != p * pside {
                free_axes.push(k);
            }
            t[k] = off as f64 / pside as f64;
        }
        for combo in 0..(p + 1).pow(free_axes.len() as u32) {
            let mut rem = combo;
            let mut w = weight;
            let mut src = *coord;
            for &k in &free_axes {
                let j = rem % (p + 1);
                rem /= p + 1;
                w *= lagrange_1d(p, j, t[k]);
                src[k] = parent.anchor[k] as u64 * p + j * pside;
            }
            if w.abs() < 1e-300 {
                continue;
            }
            reference_accumulate(nodes, &parent, &src, w, acc);
        }
    }

    fn check_resolve_slot_unchanged<const DIM: usize>(
        domain: &dyn carve_geom::Subdomain<DIM>,
        elems: &[Octant<DIM>],
        tag: &str,
    ) -> usize {
        let mut hanging = 0;
        for p in [1u64, 2, 3] {
            let nodes = enumerate_nodes(domain, elems, p);
            for e in elems {
                for lin in 0..nodes_per_elem::<DIM>(p) {
                    let c = elem_node_coord(e, p, &lattice_index::<DIM>(lin, p));
                    let SlotRef::Hanging(got) = resolve_slot(&nodes, e, &c) else {
                        continue;
                    };
                    hanging += 1;
                    let mut want = Vec::new();
                    reference_accumulate(&nodes, e, &c, 1.0, &mut want);
                    want.sort_unstable_by_key(|s| s.0);
                    want.dedup_by(|later, first| {
                        let same = later.0 == first.0;
                        if same {
                            first.1 += later.1;
                        }
                        same
                    });
                    assert_eq!(got.len(), want.len(), "{tag} p={p} {e:?} lin={lin}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.0, w.0, "{tag} p={p} {e:?} lin={lin}");
                        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{tag} p={p} {e:?} lin={lin}");
                    }
                }
            }
        }
        hanging
    }

    #[test]
    fn resolve_slot_is_bitwise_unchanged_by_the_shared_rule() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        let mut hanging = 0;
        for round in 0..4 {
            let c2 = [rng.gen_range(0.3..0.7), rng.gen_range(0.3..0.7)];
            let d2 =
                CarvedSolids::<2>::new(vec![Box::new(Sphere::new(c2, rng.gen_range(0.1..0.3)))]);
            let t = construct_boundary_refined(&d2, Curve::Hilbert, 2, 5);
            // Unbalanced first (hanging chains), then balanced.
            hanging += check_resolve_slot_unchanged(&d2, &t, &format!("2d raw {round}"));
            let b = construct_balanced(&d2, Curve::Hilbert, &t);
            hanging += check_resolve_slot_unchanged(&d2, &b, &format!("2d {round}"));
            let c3 = [rng.gen_range(0.4..0.6), rng.gen_range(0.4..0.6), 0.5];
            let d3 =
                CarvedSolids::<3>::new(vec![Box::new(Sphere::new(c3, rng.gen_range(0.15..0.3)))]);
            let t = construct_boundary_refined(&d3, Curve::Morton, 1, 3);
            hanging += check_resolve_slot_unchanged(&d3, &t, &format!("3d raw {round}"));
            let b = construct_balanced(&d3, Curve::Morton, &t);
            hanging += check_resolve_slot_unchanged(&d3, &b, &format!("3d {round}"));
        }
        assert!(hanging > 1000, "only {hanging} hanging slots compared");
    }

    /// `enumerate_nodes` as first written: `(coord, is_cancellation)` pairs
    /// from every element, sorted with `point_cmp_morton`. Coordinates only —
    /// tagging did not change.
    fn enumerate_coords_reference<const DIM: usize>(
        elems: &[Octant<DIM>],
        p: u64,
    ) -> Vec<[u64; DIM]> {
        use carve_sfc::morton::point_cmp_morton;
        let mut pts: Vec<([u64; DIM], bool)> = Vec::new();
        for e in elems {
            for lin in 0..nodes_per_elem::<DIM>(p) {
                pts.push((elem_node_coord(e, p, &lattice_index::<DIM>(lin, p)), false));
            }
            let half = (e.side() / 2) as u64;
            let q = 2 * p;
            for lin in 0..nodes_per_elem::<DIM>(q) {
                let idx = lattice_index::<DIM>(lin, q);
                let on_boundary = idx.iter().any(|&i| i == 0 || i == q);
                let any_odd = idx.iter().any(|&i| i % 2 == 1);
                if on_boundary && any_odd {
                    pts.push((
                        std::array::from_fn(|k| e.anchor[k] as u64 * p + idx[k] * half),
                        true,
                    ));
                }
            }
        }
        pts.sort_unstable_by(|a, b| point_cmp_morton(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let mut coords = Vec::new();
        let mut i = 0;
        while i < pts.len() {
            let c = pts[i].0;
            let group = pts[i..].iter().take_while(|q| q.0 == c);
            let (n, cancelled) = group.fold((0, false), |(n, x), q| (n + 1, x || q.1));
            if !cancelled {
                coords.push(c);
            }
            i += n;
        }
        coords
    }

    fn check_enumeration_unchanged<const DIM: usize>(
        domain: &dyn carve_geom::Subdomain<DIM>,
        elems: &[Octant<DIM>],
        tag: &str,
    ) {
        // Slots of the middle third: elements before and after stay untagged.
        let slotted = elems.len() / 3..2 * elems.len() / 3;
        for p in [1u64, 2, 3] {
            let (nodes, slot_node) = enumerate_nodes_and_slots(domain, elems, slotted.clone(), p);
            let want = enumerate_coords_reference(elems, p);
            assert_eq!(nodes.coords, want, "{tag} p={p}");
            assert_eq!(nodes.flags.len(), nodes.coords.len());
            assert_eq!(enumerate_nodes(domain, elems, p).coords, want);
            let npe = nodes_per_elem::<DIM>(p);
            assert_eq!(slot_node.len(), slotted.len() * npe);
            for (e, slots) in elems[slotted.clone()].iter().zip(slot_node.chunks(npe)) {
                for (lin, &slot) in slots.iter().enumerate() {
                    let c = elem_node_coord(e, p, &lattice_index::<DIM>(lin, p));
                    let want = nodes.find(&c).map_or(HANGING, |i| i as u32);
                    assert_eq!(slot, want, "{tag} p={p} {e:?} lin={lin}");
                }
            }
        }
    }

    #[test]
    fn integer_key_enumeration_equals_the_comparator_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        for round in 0..4 {
            let c2 = [rng.gen_range(0.3..0.7), rng.gen_range(0.3..0.7)];
            let d2 =
                CarvedSolids::<2>::new(vec![Box::new(Sphere::new(c2, rng.gen_range(0.1..0.3)))]);
            // Unbalanced (hanging chains), balanced, and one level only.
            let t = construct_boundary_refined(&d2, Curve::Hilbert, 2, 6);
            check_enumeration_unchanged(&d2, &t, &format!("2d raw {round}"));
            let b = construct_balanced(&d2, Curve::Hilbert, &t);
            check_enumeration_unchanged(&d2, &b, &format!("2d {round}"));
            let c3 = [rng.gen_range(0.4..0.6), rng.gen_range(0.4..0.6), 0.5];
            let d3 =
                CarvedSolids::<3>::new(vec![Box::new(Sphere::new(c3, rng.gen_range(0.15..0.3)))]);
            let t = construct_boundary_refined(&d3, Curve::Morton, 1, 4);
            check_enumeration_unchanged(&d3, &t, &format!("3d raw {round}"));
            let b = construct_balanced(&d3, Curve::Morton, &t);
            check_enumeration_unchanged(&d3, &b, &format!("3d {round}"));
        }
        let uniform = construct_uniform::<3>(&FullDomain, Curve::Morton, 2);
        check_enumeration_unchanged(&FullDomain, &uniform, "3d uniform");
        // Four dimensions at the far corner of the cube: the widest keys.
        let root = Octant::<4>::ROOT;
        let mut t4: Vec<Octant<4>> = (0..15).map(|c| root.child(c)).collect();
        t4.extend((0..16).map(|c| root.child(15).child(c)));
        check_enumeration_unchanged(&FullDomain, &t4, "4d");
        check_enumeration_unchanged::<2>(&FullDomain, &[], "empty");
    }

    #[test]
    fn uniform_grid_node_count_2d() {
        // Uniform level-L quadtree with order p: (p·2^L + 1)^2 nodes.
        for (l, p) in [(3u8, 1u64), (3, 2), (4, 1)] {
            let tree = construct_uniform::<2>(&FullDomain, Curve::Morton, l);
            let nodes = enumerate_nodes(&FullDomain, &tree, p);
            let n1d = p * (1 << l) + 1;
            assert_eq!(nodes.len() as u64, n1d * n1d, "l={l} p={p}");
        }
    }

    #[test]
    fn uniform_grid_node_count_3d() {
        let tree = construct_uniform::<3>(&FullDomain, Curve::Hilbert, 2);
        let nodes = enumerate_nodes(&FullDomain, &tree, 2);
        let n1d = 2u64 * 4 + 1;
        assert_eq!(nodes.len() as u64, n1d.pow(3));
    }

    #[test]
    fn hanging_nodes_are_dropped_2d() {
        // One refined quadrant next to coarse ones: the classic 2:1 pattern.
        let root = Octant::<2>::ROOT;
        let mut elems = vec![
            root.child(0).child(0),
            root.child(0).child(1),
            root.child(0).child(2),
            root.child(0).child(3),
            root.child(1),
            root.child(2),
            root.child(3),
        ];
        carve_sfc::treesort(&mut elems, Curve::Morton);
        let nodes = enumerate_nodes(&FullDomain, &elems, 1);
        // Full level-2 grid in quadrant 0: 3x3; level-1 grid: 3x3 over the
        // square = 9; shared/hanging accounting: total unique non-hanging:
        // quadrant0 contributes 9 nodes; other corners add (0.5,1),(1,0.5),
        // (1,1),(0.5,0.5) dups... Count explicitly: level-1 lattice nodes:
        // (0,0),(h,0),(1,0),(0,h),(h,h),(1,h),(0,1),(h,1),(1,1) = 9.
        // Level-2 lattice inside quadrant0: 3x3=9, overlapping 4 of the
        // level-1 nodes; of the remaining 5, the two at (0.25 on the
        // interface... coordinates (0.5,0.25),(0.25,0.5) are interface
        // midpoints: NOT hanging because both sides are level 2? The right
        // neighbor of quadrant0 at x=0.5 is child(1) at level 1 — coarser!
        // So (0.5,0.25) IS hanging. (0.25,0.5) likewise.
        // Unique non-hanging = 9 + (9 - 4 - 2) = 12.
        assert_eq!(nodes.len(), 12);
        // The hanging coordinates must be absent.
        let p = 1u64;
        let side2 = root.child(0).child(0).side() as u64;
        let hang1 = [2 * side2 * p, side2 * p]; // (0.5, 0.25) scaled
        assert!(nodes.find(&hang1).is_none());
    }

    #[test]
    fn hanging_resolution_weights_sum_to_one() {
        let root = Octant::<2>::ROOT;
        let mut elems = vec![
            root.child(0).child(0),
            root.child(0).child(1),
            root.child(0).child(2),
            root.child(0).child(3),
            root.child(1),
            root.child(2),
            root.child(3),
        ];
        carve_sfc::treesort(&mut elems, Curve::Morton);
        let nodes = enumerate_nodes(&FullDomain, &elems, 1);
        let e = root.child(0).child(1); // has hanging node on its right face
        let side = e.side() as u64;
        let hang = [2 * side, side]; // (0.5, 0.25)
        match resolve_slot(&nodes, &e, &hang) {
            SlotRef::Hanging(stencil) => {
                let total: f64 = stencil.iter().map(|s| s.1).sum();
                assert!((total - 1.0).abs() < 1e-14);
                assert_eq!(stencil.len(), 2, "midpoint of a linear edge");
                for (_, w) in &stencil {
                    assert!((w - 0.5).abs() < 1e-14);
                }
            }
            SlotRef::Direct(_) => panic!("expected hanging"),
        }
    }

    #[test]
    fn carved_boundary_nodes_are_tagged() {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.3))]);
        let tree = construct_boundary_refined(&domain, Curve::Morton, 3, 5);
        let tree = construct_balanced(&domain, Curve::Morton, &tree);
        let nodes = enumerate_nodes(&domain, &tree, 1);
        let n_carved = nodes
            .flags
            .iter()
            .filter(|f| f.is_carved_boundary())
            .count();
        assert!(n_carved > 0, "intercepted elements leave carved nodes");
        // Every carved-tagged node is inside/on the disk; every untagged
        // node is strictly outside.
        for i in 0..nodes.len() {
            let u = nodes.unit_coords(i);
            let r = ((u[0] - 0.5).powi(2) + (u[1] - 0.5).powi(2)).sqrt();
            if nodes.flags[i].is_carved_boundary() {
                assert!(r <= 0.3 + 1e-12);
            } else {
                assert!(r > 0.3 - 1e-12);
            }
        }
    }

    #[test]
    fn channel_wall_nodes_are_boundary() {
        let domain = RetainBox::<2>::channel([1.0, 0.25]);
        let tree = construct_uniform(&domain, Curve::Morton, 4);
        let nodes = enumerate_nodes(&domain, &tree, 1);
        // Channel: 16x4 elements → 17x5 nodes.
        assert_eq!(nodes.len(), 17 * 5);
        for i in 0..nodes.len() {
            let u = nodes.unit_coords(i);
            let on_wall = u[0] < 1e-12 || u[0] > 1.0 - 1e-12 || u[1] < 1e-12 || u[1] > 0.25 - 1e-12;
            assert_eq!(
                nodes.flags[i].is_carved_boundary() || nodes.flags[i].is_cube_boundary(),
                on_wall,
                "node {u:?}"
            );
        }
    }

    #[test]
    fn no_hanging_node_on_carved_boundary() {
        // §3.4: "ensuring the absence of hanging nodes at the carved
        // boundary is essential". Boundary refinement puts every intercepted
        // element at the finest level, so lattice points lying in the closed
        // carved set (the subdomain-boundary nodes) are shared between
        // same-level elements and must all be real (non-hanging) DOFs.
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.29))]);
        let tree = construct_boundary_refined(&domain, Curve::Morton, 3, 6);
        let tree = construct_balanced(&domain, Curve::Morton, &tree);
        let nodes = enumerate_nodes(&domain, &tree, 1);
        let mut checked = 0;
        for e in &tree {
            if crate::construct::classify_octant(&domain, e)
                == carve_geom::RegionLabel::RetainBoundary
            {
                for lin in 0..nodes_per_elem::<2>(1) {
                    let idx = lattice_index::<2>(lin, 1);
                    let c = elem_node_coord(e, 1, &idx);
                    let unit = node_unit_coords(&c, 1);
                    if domain.point_in_carved(&unit) {
                        assert!(
                            nodes.find(&c).is_some(),
                            "hanging node {c:?} on the carved boundary of {e:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "test must exercise carved-boundary nodes");
    }

    #[test]
    fn quadratic_lagrange_partition_of_unity() {
        for p in [1u64, 2] {
            for t in [0.0, 0.3, 1.0, 1.7, 2.0f64.min(p as f64)] {
                let s: f64 = (0..=p).map(|j| lagrange_1d(p, j, t)).sum();
                assert!((s - 1.0).abs() < 1e-13, "p={p} t={t}");
            }
            // Kronecker property.
            for j in 0..=p {
                for m in 0..=p {
                    let v = lagrange_1d(p, j, m as f64);
                    let want = if j == m { 1.0 } else { 0.0 };
                    assert!((v - want).abs() < 1e-13);
                }
            }
        }
    }
}
