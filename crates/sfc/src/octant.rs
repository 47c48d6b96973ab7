//! Octree keys: anchors on an integer lattice plus a refinement level.

/// Maximum refinement depth of the tree.
///
/// The root occupies the integer lattice `[0, 2^MAX_LEVEL)^DIM`; an octant at
/// level `l` has integer side `2^(MAX_LEVEL - l)`. The paper's experiments use
/// levels up to 14; 21 leaves headroom while `anchor * p` for order `p <= 3`
/// node lattices still fits comfortably in `u64`.
pub const MAX_LEVEL: u8 = 21;

/// Integer side length of the root octant.
pub const ROOT_SIDE: u32 = 1 << MAX_LEVEL;

/// A quadrant (2D) / octant (3D): the fundamental key of a linear octree.
///
/// `anchor` is the lexicographically smallest corner of the region, on the
/// integer lattice of the deepest level; `level` is the depth in the tree
/// (root = 0). The region covered is the half-open cube
/// `[anchor, anchor + side)` in integer coordinates; its closure `ē` (used by
/// the subdomain classification of §3.1) is the closed cube.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Octant<const DIM: usize> {
    /// Lattice coordinates of the minimum corner. Each must be a multiple of
    /// `self.side()`.
    pub anchor: [u32; DIM],
    /// Depth in the tree; `0 ..= MAX_LEVEL`.
    pub level: u8,
}

impl<const DIM: usize> Octant<DIM> {
    /// The root octant covering the whole unit cube.
    pub const ROOT: Self = Self {
        anchor: [0; DIM],
        level: 0,
    };

    /// Creates an octant, debug-asserting anchor alignment.
    pub fn new(anchor: [u32; DIM], level: u8) -> Self {
        debug_assert!(level <= MAX_LEVEL);
        let side = 1u32 << (MAX_LEVEL - level);
        for &a in &anchor {
            debug_assert_eq!(a % side, 0, "anchor not aligned to level {level}");
            debug_assert!(a < ROOT_SIDE);
        }
        Self { anchor, level }
    }

    /// Integer side length.
    #[inline]
    pub fn side(&self) -> u32 {
        1 << (MAX_LEVEL - self.level)
    }

    /// The `child_morton`-th child (Morton child number: bit `k` of
    /// `child_morton` is the offset along axis `k`).
    #[inline]
    pub fn child(&self, child_morton: usize) -> Self {
        debug_assert!(self.level < MAX_LEVEL);
        debug_assert!(child_morton < (1 << DIM));
        let half = self.side() >> 1;
        let mut anchor = self.anchor;
        for (k, a) in anchor.iter_mut().enumerate() {
            if (child_morton >> k) & 1 == 1 {
                *a += half;
            }
        }
        Self {
            anchor,
            level: self.level + 1,
        }
    }

    /// The parent octant (panics on the root).
    #[inline]
    pub fn parent(&self) -> Self {
        assert!(self.level > 0, "root has no parent");
        self.ancestor_at(self.level - 1)
    }

    /// The ancestor at the given (coarser or equal) level.
    #[inline]
    pub fn ancestor_at(&self, level: u8) -> Self {
        debug_assert!(level <= self.level);
        let side = 1u32 << (MAX_LEVEL - level);
        let mask = !(side - 1);
        let mut anchor = self.anchor;
        for a in anchor.iter_mut() {
            *a &= mask;
        }
        Self { anchor, level }
    }

    /// Morton child number of this octant within its parent.
    #[inline]
    pub fn child_number(&self) -> usize {
        debug_assert!(self.level > 0);
        self.child_bits_at(self.level)
    }

    /// Morton child number of the level-`l` ancestor of this octant within
    /// the level-`l-1` ancestor: for each axis, bit `MAX_LEVEL - l` of the
    /// anchor coordinate.
    #[inline]
    pub fn child_bits_at(&self, l: u8) -> usize {
        debug_assert!(l >= 1 && l <= self.level);
        let shift = MAX_LEVEL - l;
        let mut c = 0usize;
        for k in 0..DIM {
            c |= (((self.anchor[k] >> shift) & 1) as usize) << k;
        }
        c
    }

    /// True if `self` is a strict ancestor of `other`.
    #[inline]
    pub fn is_ancestor_of(&self, other: &Self) -> bool {
        other.level > self.level && other.ancestor_at(self.level) == *self
    }

    /// True if `self` is `other` or an ancestor of it.
    #[inline]
    pub fn is_ancestor_or_self(&self, other: &Self) -> bool {
        other.level >= self.level && other.ancestor_at(self.level) == *self
    }

    /// True if the *closed* regions of the two octants intersect (they share
    /// at least a face, edge, or corner, or one contains the other).
    pub fn closed_regions_touch(&self, other: &Self) -> bool {
        for k in 0..DIM {
            let a0 = self.anchor[k] as u64;
            let a1 = a0 + self.side() as u64;
            let b0 = other.anchor[k] as u64;
            let b1 = b0 + other.side() as u64;
            if a1 < b0 || b1 < a0 {
                return false;
            }
        }
        true
    }

    /// All existing same-level neighbors (face, edge, and corner): up to
    /// `3^DIM - 1` octants, fewer at the domain boundary. This is
    /// `MakeNeighbors` of Algorithm 5.
    pub fn neighbors(&self) -> Vec<Self> {
        let side = self.side() as i64;
        let mut out = Vec::with_capacity(crate::num_neighbors(DIM));
        let n_combos = 3usize.pow(DIM as u32);
        'combo: for combo in 0..n_combos {
            let mut c = combo;
            let mut anchor = [0u32; DIM];
            let mut is_self = true;
            for (a, &sa) in anchor.iter_mut().zip(&self.anchor) {
                let off = (c % 3) as i64 - 1; // -1, 0, +1
                c /= 3;
                if off != 0 {
                    is_self = false;
                }
                let coord = sa as i64 + off * side;
                if coord < 0 || coord >= ROOT_SIDE as i64 {
                    continue 'combo;
                }
                *a = coord as u32;
            }
            if !is_self {
                out.push(Self {
                    anchor,
                    level: self.level,
                });
            }
        }
        out
    }

    /// Geometric bounds in the unit cube `\[0,1\]^DIM`: `(min, side_length)`.
    pub fn bounds_unit(&self) -> ([f64; DIM], f64) {
        let scale = 1.0 / ROOT_SIDE as f64;
        let mut min = [0.0; DIM];
        for (m, &a) in min.iter_mut().zip(&self.anchor) {
            *m = a as f64 * scale;
        }
        (min, self.side() as f64 * scale)
    }

    /// Center of the octant in the unit cube.
    pub fn center_unit(&self) -> [f64; DIM] {
        let (min, h) = self.bounds_unit();
        let mut c = min;
        for x in c.iter_mut() {
            *x += 0.5 * h;
        }
        c
    }

    /// True if the closed region contains the integer lattice point `p`.
    pub fn closed_contains_point(&self, p: &[u64; DIM]) -> bool {
        for (&pk, &ak) in p.iter().zip(&self.anchor) {
            let a = ak as u64;
            if pk < a || pk > a + self.side() as u64 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Oct3 = Octant<3>;
    type Oct2 = Octant<2>;

    #[test]
    fn root_props() {
        let r = Oct3::ROOT;
        assert_eq!(r.side(), ROOT_SIDE);
        assert_eq!(r.level, 0);
        assert_eq!(r.bounds_unit().1, 1.0);
    }

    #[test]
    fn child_parent_roundtrip() {
        let r = Oct3::ROOT;
        for c in 0..8 {
            let ch = r.child(c);
            assert_eq!(ch.level, 1);
            assert_eq!(ch.parent(), r);
            assert_eq!(ch.child_number(), c);
            for c2 in 0..8 {
                let gch = ch.child(c2);
                assert_eq!(gch.parent(), ch);
                assert_eq!(gch.child_number(), c2);
                assert_eq!(gch.ancestor_at(0), r);
                assert!(r.is_ancestor_of(&gch));
                assert!(ch.is_ancestor_of(&gch));
                assert!(!gch.is_ancestor_of(&ch));
            }
        }
    }

    #[test]
    fn child_bits_match_child_number() {
        let o = Oct3::ROOT.child(5).child(3).child(6);
        assert_eq!(o.child_bits_at(1), 5);
        assert_eq!(o.child_bits_at(2), 3);
        assert_eq!(o.child_bits_at(3), 6);
    }

    #[test]
    fn neighbor_counts() {
        // An interior octant has 3^d - 1 neighbors; corners have fewer.
        let interior = Oct2::ROOT.child(0).child(3); // interior in the unit square
        assert_eq!(interior.neighbors().len(), 8);
        let corner = Oct2::ROOT.child(0).child(0);
        assert_eq!(corner.neighbors().len(), 3);
        let interior3 = Oct3::ROOT.child(0).child(7);
        assert_eq!(interior3.neighbors().len(), 26);
        let corner3 = Oct3::ROOT.child(0).child(0);
        assert_eq!(corner3.neighbors().len(), 7);
    }

    #[test]
    fn neighbors_touch_and_same_level() {
        let o = Oct3::ROOT.child(1).child(4).child(2);
        for n in o.neighbors() {
            assert_eq!(n.level, o.level);
            assert!(o.closed_regions_touch(&n));
            assert_ne!(n, o);
        }
    }

    #[test]
    fn closed_regions_touch_cases() {
        let a = Oct2::ROOT.child(0); // [0, .5)^2
        let b = Oct2::ROOT.child(3); // [.5, 1)^2 — touch at corner
        assert!(a.closed_regions_touch(&b));
        let c = Oct2::ROOT.child(3).child(3);
        assert!(!a.closed_regions_touch(&c));
        // parent/child overlap
        assert!(a.closed_regions_touch(&a.child(2)));
    }

    #[test]
    fn contains_point_closed() {
        let o = Oct2::ROOT.child(3); // [half, root]^2 closed
        let h = (ROOT_SIDE / 2) as u64;
        let r = ROOT_SIDE as u64;
        assert!(o.closed_contains_point(&[h, h]));
        assert!(o.closed_contains_point(&[r, r]));
        assert!(!o.closed_contains_point(&[h - 1, h]));
    }
}
