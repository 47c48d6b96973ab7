//! The comparison baseline: a **complete-octree immersed** pipeline in the
//! style of Dendro \[51, 56\] + the immersed octree framework of Xu et al.
//! \[66\] / Saurabh et al. \[52, 53\], which Tables 2, 4, and 5 of the paper
//! measure against.
//!
//! Differences from `carve-core`, faithfully reproduced:
//!
//! 1. **Complete tree**: the object is *immersed*, not carved — every
//!    subtree keeps all `2^d` children. Void (inside-object) octants are
//!    built, balanced, partitioned, and stored; they are skipped during the
//!    physics but still cost memory and traversal (the `f_elem`/`f_DOF`
//!    overheads of Table 2).
//! 2. **Build-then-filter construction** for carving comparisons: the
//!    complete tree is constructed first, then void octants are cancelled —
//!    the approach of \[66\] that Algorithm 1/2's proactive pruning replaces.
//! 3. **Element-to-node-map MATVEC**: a classic `e2n` gather/scatter with
//!    indirect addressing instead of the traversal-based bucketing of §3.5.
//! 4. **Partitioning over the complete tree**: equal element counts
//!    *including void elements*, which is precisely the load imbalance
//!    Table 4 attributes to Dendro.

use carve_core::nodes::{elem_node_coord, lattice_index, nodes_per_elem};
use carve_core::{resolve_slot, Mesh, SlotRef};
use carve_geom::{RegionLabel, Subdomain};
use carve_sfc::{Curve, Octant};

/// Wraps an object subdomain so that nothing is carved (the object is
/// immersed): carved regions are retained, boundary labels survive so
/// refinement still tracks the object surface, and point classification is
/// unchanged (interior nodes get Dirichlet-masked, as in the paper's Fig 1).
pub struct Immersed<'a, const DIM: usize> {
    pub object: &'a dyn Subdomain<DIM>,
}

impl<'a, const DIM: usize> Subdomain<DIM> for Immersed<'a, DIM> {
    fn classify_region(&self, min: &[f64; DIM], side: f64) -> RegionLabel {
        match self.object.classify_region(min, side) {
            RegionLabel::Carved => {
                // IMGA-style immersed meshing refines a band on *both*
                // sides of the surface: an inside-the-object region is
                // still flagged for refinement if its one-element-inflated
                // neighborhood touches ∂C. This is what produces the
                // interior fine band (and the Table 2 DOF excess) in the
                // immersed baselines [52, 53].
                let mut inflated_min = [0.0; DIM];
                for k in 0..DIM {
                    inflated_min[k] = min[k] - 0.5 * side;
                }
                match self.object.classify_region(&inflated_min, 2.0 * side) {
                    RegionLabel::RetainBoundary => RegionLabel::RetainBoundary,
                    _ => RegionLabel::RetainInternal,
                }
            }
            other => other,
        }
    }
    fn point_in_carved(&self, p: &[f64; DIM]) -> bool {
        self.object.point_in_carved(p)
    }
}

/// A complete-octree immersed mesh with a classic element-to-node map.
pub struct ImmersedMesh<const DIM: usize> {
    pub mesh: Mesh<DIM>,
    /// Per-element object label (against the *object*, so `Carved` marks
    /// void elements that a carved approach would have removed).
    pub object_labels: Vec<RegionLabel>,
    /// Element-to-node map with hanging stencils: `e2n[e][slot]`.
    pub e2n: Vec<Vec<SlotRef>>,
}

impl<const DIM: usize> ImmersedMesh<DIM> {
    /// Builds the complete immersed mesh: same two-level refinement spec as
    /// the carved pipeline, but keeping the full octree.
    pub fn build(
        object: &dyn Subdomain<DIM>,
        curve: Curve,
        base_level: u8,
        boundary_level: u8,
        order: u64,
    ) -> Self {
        let immersed = Immersed { object };
        let mesh = Mesh::build(&immersed, curve, base_level, boundary_level, order);
        Self::from_mesh(object, mesh)
    }

    /// Builds the e2n map for an existing complete mesh.
    pub fn from_mesh(object: &dyn Subdomain<DIM>, mesh: Mesh<DIM>) -> Self {
        let object_labels: Vec<RegionLabel> = mesh
            .elems
            .iter()
            .map(|e| {
                let (min, side) = e.bounds_unit();
                object.classify_region(&min, side)
            })
            .collect();
        let p = mesh.order;
        let npe = nodes_per_elem::<DIM>(p);
        let e2n = mesh
            .elems
            .iter()
            .map(|e| {
                (0..npe)
                    .map(|lin| {
                        let idx = lattice_index::<DIM>(lin, p);
                        let c = elem_node_coord(e, p, &idx);
                        resolve_slot(&mesh.nodes, e, &c)
                    })
                    .collect()
            })
            .collect();
        ImmersedMesh {
            mesh,
            object_labels,
            e2n,
        }
    }

    /// Number of *void* elements (inside the object — pure overhead).
    pub fn void_elems(&self) -> usize {
        self.object_labels
            .iter()
            .filter(|l| **l == RegionLabel::Carved)
            .count()
    }

    /// Classic e2n-map MATVEC with indirect gather/scatter:
    /// `v_glob[map[e*npe+i]] += v_loc[i]`. Void elements are *skipped* in
    /// the physics (they are Dirichlet-masked) but still traversed —
    /// exactly the cost structure the paper describes.
    pub fn matvec<K>(&self, x: &[f64], y: &mut [f64], kernel: &mut K) -> usize
    where
        K: FnMut(&Octant<DIM>, &[f64], &mut [f64]),
    {
        let npe = nodes_per_elem::<DIM>(self.mesh.order);
        let mut u_e = vec![0.0; npe];
        let mut v_e = vec![0.0; npe];
        let mut active = 0usize;
        for (ei, e) in self.mesh.elems.iter().enumerate() {
            if self.object_labels[ei] == RegionLabel::Carved {
                continue; // void element: traversed but not solved
            }
            active += 1;
            // Indirect gather.
            for (slot, uref) in self.e2n[ei].iter().zip(u_e.iter_mut()) {
                *uref = match slot {
                    SlotRef::Direct(i) => x[*i],
                    SlotRef::Hanging(st) => st.iter().map(|(i, w)| x[*i] * w).sum(),
                };
            }
            v_e.iter_mut().for_each(|v| *v = 0.0);
            kernel(e, &u_e, &mut v_e);
            // Indirect scatter.
            for (slot, v) in self.e2n[ei].iter().zip(&v_e) {
                match slot {
                    SlotRef::Direct(i) => y[*i] += v,
                    SlotRef::Hanging(st) => {
                        for (i, w) in st {
                            y[*i] += w * v;
                        }
                    }
                }
            }
        }
        active
    }
}

/// Build-complete-then-filter carving (the \[66\] approach that Table 4's
/// mesh-creation times expose): constructs the *complete* immersed tree
/// first, then removes carved octants. Returns (carved tree, complete-tree
/// size built along the way).
pub fn build_then_filter<const DIM: usize>(
    object: &dyn Subdomain<DIM>,
    curve: Curve,
    base_level: u8,
    boundary_level: u8,
) -> (Vec<Octant<DIM>>, usize) {
    let immersed = Immersed { object };
    let adaptive =
        carve_core::construct_boundary_refined(&immersed, curve, base_level, boundary_level);
    let complete = carve_core::construct_balanced(&immersed, curve, &adaptive);
    let complete_size = complete.len();
    let filtered: Vec<Octant<DIM>> = complete
        .iter()
        .filter(|e| {
            let (min, side) = e.bounds_unit();
            object.classify_region(&min, side) != RegionLabel::Carved
        })
        .copied()
        .collect();
    (filtered, complete_size)
}

/// Per-rank active-element counts when the *complete* tree is partitioned
/// equally (Dendro-style): the source of the FEM load imbalance in Table 4.
pub fn complete_tree_partition_active_counts(
    object_labels: &[RegionLabel],
    nparts: usize,
) -> Vec<usize> {
    let n = object_labels.len();
    (0..nparts)
        .map(|r| {
            let lo = r * n / nparts;
            let hi = (r + 1) * n / nparts;
            object_labels[lo..hi]
                .iter()
                .filter(|l| **l != RegionLabel::Carved)
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carve_core::{traversal_matvec_ws, TraversalWorkspace};
    use carve_geom::{CarvedSolids, Sphere};
    use rand::{Rng, SeedableRng};

    fn sphere_obj() -> CarvedSolids<2> {
        CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.3))])
    }

    #[test]
    fn immersed_mesh_is_complete() {
        let obj = sphere_obj();
        let imm = ImmersedMesh::build(&obj, Curve::Hilbert, 3, 5, 1);
        // Complete tree: leaf areas tile the unit square.
        let area: f64 = imm
            .mesh
            .elems
            .iter()
            .map(|e| {
                let s = e.bounds_unit().1;
                s * s
            })
            .sum();
        assert!((area - 1.0).abs() < 1e-12);
        assert!(imm.void_elems() > 0, "interior-of-disk elements retained");
    }

    #[test]
    fn immersed_has_more_elements_and_dofs_than_carved() {
        // The Table 2 effect.
        let obj = sphere_obj();
        let imm = ImmersedMesh::build(&obj, Curve::Hilbert, 3, 6, 1);
        let carved = Mesh::build(&obj, Curve::Hilbert, 3, 6, 1);
        let f_elem = imm.mesh.num_elems() as f64 / carved.num_elems() as f64;
        let f_dof = imm.mesh.num_dofs() as f64 / carved.num_dofs() as f64;
        assert!(f_elem > 1.05, "f_elem {f_elem}");
        assert!(f_dof > 1.02, "f_dof {f_dof}");
        assert!(
            f_elem > f_dof,
            "element excess exceeds DOF excess (CG sharing)"
        );
    }

    #[test]
    fn e2n_matvec_matches_traversal_on_carved_mesh() {
        // Both matvec implementations on the same carved mesh must agree:
        // the e2n map is an independent oracle for the traversal code.
        let obj = sphere_obj();
        let carved = Mesh::build(&obj, Curve::Morton, 3, 5, 2);
        let baseline = ImmersedMesh::from_mesh(&carve_geom::FullDomain, carved.clone());
        let n = carved.num_dofs();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut kernel = |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
            let h = e.bounds_unit().1;
            let sum: f64 = u.iter().sum();
            for (i, vi) in v.iter_mut().enumerate() {
                *vi = h * (u[i] * 3.0 + sum);
            }
        };
        let mut y1 = vec![0.0; n];
        baseline.matvec(&x, &mut y1, &mut kernel);
        let mut y2 = vec![0.0; n];
        traversal_matvec_ws(
            &carved.elems,
            0..carved.elems.len(),
            Curve::Morton,
            &carved.nodes,
            &x,
            &mut y2,
            &mut TraversalWorkspace::with_threads(1),
            &mut kernel,
        );
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn build_then_filter_matches_proactive_carving_up_to_balance() {
        // Filtering a complete tree leaves the same *active* elements near
        // the boundary; interiors differ only in carved cells. The filtered
        // complete tree must cover every carved-tree element's region.
        let obj = sphere_obj();
        let (filtered, complete_size) = build_then_filter(&obj, Curve::Morton, 3, 5);
        let carved = Mesh::build(&obj, Curve::Morton, 3, 5, 1);
        assert!(complete_size > filtered.len());
        // The filtered tree has at least as many elements as the carved one
        // (balance ripple inside the object creates extra boundary-adjacent
        // refinement that survives filtering).
        assert!(filtered.len() >= carved.num_elems());
    }

    #[test]
    fn partition_imbalance_from_void_elements() {
        let obj = sphere_obj();
        let imm = ImmersedMesh::build(&obj, Curve::Morton, 4, 6, 1);
        let counts = complete_tree_partition_active_counts(&imm.object_labels, 8);
        let total: usize = counts.iter().sum();
        let ideal = total as f64 / 8.0;
        let imbalance = counts.iter().copied().max().unwrap() as f64 / ideal;
        // Some rank must carry measurably more active work than ideal.
        assert!(imbalance > 1.05, "imbalance {imbalance} counts {counts:?}");
    }
}
