//! Property-based tests over randomized carved geometries, refinement
//! patterns, element orders, and space-filling curves — the invariants
//! DESIGN.md §6 promises.

use carve::baseline::ImmersedMesh;
use carve::core::{
    check_2to1, check_tree_invariants, construct_balanced, construct_boundary_refined,
    traversal_assemble_ws, traversal_matvec_ws, Mesh, TraversalWorkspace,
};
use carve::geom::{AxisBox, CarvedSolids, Solid, Sphere, Subdomain};
use carve::la::CooBuilder;
use carve::sfc::{sfc_cmp, treesort, Curve, Octant};
use proptest::prelude::*;

/// Debug-able spec for a random carved geometry (proptest needs `Debug`;
/// `dyn Solid` boxes don't have it).
#[derive(Clone, Debug)]
enum SolidSpec {
    Disk { x: f64, y: f64, r: f64 },
    Box { x: f64, y: f64, w: f64, h: f64 },
}

fn build_domain(specs: &[SolidSpec]) -> CarvedSolids<2> {
    CarvedSolids::new(
        specs
            .iter()
            .map(|s| -> Box<dyn Solid<2>> {
                match *s {
                    SolidSpec::Disk { x, y, r } => Box::new(Sphere::new([x, y], r)),
                    SolidSpec::Box { x, y, w, h } => {
                        Box::new(AxisBox::new([x, y], [(x + w).min(0.95), (y + h).min(0.95)]))
                    }
                }
            })
            .collect(),
    )
}

/// Strategy: a random union of carved disks and boxes in the unit square.
fn arb_domain() -> impl Strategy<Value = Vec<SolidSpec>> {
    let disk = (0.15f64..0.85, 0.15f64..0.85, 0.05f64..0.25)
        .prop_map(|(x, y, r)| SolidSpec::Disk { x, y, r });
    let bx = (0.1f64..0.6, 0.1f64..0.6, 0.05f64..0.3, 0.05f64..0.3)
        .prop_map(|(x, y, w, h)| SolidSpec::Box { x, y, w, h });
    prop::collection::vec(prop_oneof![disk, bx], 1..3)
}

fn arb_curve() -> impl Strategy<Value = Curve> {
    prop_oneof![Just(Curve::Morton), Just(Curve::Hilbert)]
}

fn random_octants(seeds: Vec<(u8, u64)>) -> Vec<Octant<2>> {
    seeds
        .into_iter()
        .map(|(level, path)| {
            let mut o = Octant::<2>::ROOT;
            let mut p = path;
            for _ in 0..level {
                o = o.child((p % 4) as usize);
                p /= 4;
            }
            o
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TreeSort equals comparison sort for any input and either curve.
    #[test]
    fn treesort_is_a_sort(
        seeds in prop::collection::vec((0u8..7, any::<u64>()), 1..200),
        curve in arb_curve(),
    ) {
        let mut a = random_octants(seeds);
        let mut b = a.clone();
        treesort(&mut a, curve);
        b.sort_by(|x, y| sfc_cmp(curve, x, y));
        prop_assert_eq!(a, b);
    }

    /// Construction + balancing invariants hold for random carved domains:
    /// sorted, unique, non-overlapping, no carved leaves, 2:1 balanced,
    /// and balancing is idempotent.
    #[test]
    fn balanced_construction_invariants(
        spec in arb_domain(),
        curve in arb_curve(),
        base in 2u8..4,
        extra in 1u8..3,
    ) {
        let domain = build_domain(&spec);
        let boundary = base + extra;
        let adaptive = construct_boundary_refined(&domain, curve, base, boundary);
        let tree = construct_balanced(&domain, curve, &adaptive);
        prop_assert!(check_tree_invariants(&domain, curve, &tree).is_ok());
        prop_assert!(check_2to1(&tree).is_ok());
        let again = construct_balanced(&domain, curve, &tree);
        prop_assert_eq!(tree, again);
    }

    /// The traversal MATVEC equals the assembled operator AND the
    /// element-to-node-map baseline, for random domains, curves, and both
    /// element orders — three independent implementations of A·x.
    #[test]
    fn three_matvec_implementations_agree(
        spec in arb_domain(),
        curve in arb_curve(),
        order in 1u64..3,
        seed in any::<u64>(),
    ) {
        let domain = build_domain(&spec);
        let mesh = Mesh::build(&domain, curve, 2, 4, order);
        prop_assume!(mesh.num_elems() > 0);
        let n = mesh.num_dofs();
        let kernel_fn = |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
            let h = e.bounds_unit().1;
            let sum: f64 = u.iter().sum();
            for (i, vi) in v.iter_mut().enumerate() {
                *vi = h * h * (2.0 * u[i] + 0.3 * sum);
            }
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // 1: traversal.
        let mut y1 = vec![0.0; n];
        let mut k1 = kernel_fn;
        let mut ws = TraversalWorkspace::with_threads(1);
        traversal_matvec_ws(&mesh.elems, 0..mesh.elems.len(), curve, &mesh.nodes, &x, &mut y1, &mut ws, &mut k1);
        // 2: assembled.
        let npe = carve::core::nodes::nodes_per_elem::<2>(order);
        let mut coo = CooBuilder::new(n);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut mk = |e: &Octant<2>| {
            let h = e.bounds_unit().1;
            let mut m = carve::la::DenseMatrix::zeros(npe, npe);
            for i in 0..npe {
                for j in 0..npe {
                    m[(i, j)] = h * h * (if i == j { 2.0 } else { 0.0 } + 0.3);
                }
            }
            m
        };
        traversal_assemble_ws(&mesh.elems, 0..mesh.elems.len(), curve, &mesh.nodes, &ids, &mut coo, &mut ws, &mut mk);
        let a = coo.build();
        let mut y2 = vec![0.0; n];
        a.matvec(&x, &mut y2);
        // 3: e2n baseline over the same carved mesh.
        let baseline = ImmersedMesh::from_mesh(&carve::geom::FullDomain, mesh.clone());
        let mut y3 = vec![0.0; n];
        let mut k3 = kernel_fn;
        baseline.matvec(&x, &mut y3, &mut k3);
        for i in 0..n {
            prop_assert!((y1[i] - y2[i]).abs() < 1e-10 * (1.0 + y2[i].abs()),
                "traversal vs assembled at {}: {} vs {}", i, y1[i], y2[i]);
            prop_assert!((y3[i] - y2[i]).abs() < 1e-10 * (1.0 + y2[i].abs()),
                "e2n vs assembled at {}: {} vs {}", i, y3[i], y2[i]);
        }
    }

    /// Hanging-node interpolation preserves linear fields exactly: the
    /// interpolant of a linear function evaluated at every element lattice
    /// point (through the hanging stencils) matches the function.
    #[test]
    fn hanging_stencils_reproduce_linears(
        spec in arb_domain(),
        curve in arb_curve(),
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -2.0f64..2.0,
    ) {
        let domain = build_domain(&spec);
        let mesh = Mesh::build(&domain, curve, 2, 4, 1);
        prop_assume!(mesh.num_elems() > 0);
        let lin = |x: &[f64; 2]| a * x[0] + b * x[1] + c;
        let u: Vec<f64> = (0..mesh.num_dofs())
            .map(|i| lin(&mesh.nodes.unit_coords(i)))
            .collect();
        for e in &mesh.elems {
            let vals = carve::fem::error::elem_values(&mesh, &u, e);
            let (emin, h) = e.bounds_unit();
            for (idx, v) in vals.iter().enumerate() {
                let x = [
                    emin[0] + h * (idx % 2) as f64,
                    emin[1] + h * (idx / 2) as f64,
                ];
                prop_assert!((v - lin(&x)).abs() < 1e-12,
                    "elem {:?} lattice {}: {} vs {}", e, idx, v, lin(&x));
            }
        }
    }

    /// Carving never loses retained volume: carved + retained element
    /// measures partition the unit square (checked against the domain's
    /// own classification on a fine probe grid).
    #[test]
    fn mesh_covers_exactly_the_retained_region(
        spec in arb_domain(),
        curve in arb_curve(),
    ) {
        let domain = build_domain(&spec);
        let mesh = Mesh::build(&domain, curve, 3, 4, 1);
        // Probe random points: a retained point must be covered by a leaf;
        // a deeply carved point must not.
        for gx in 0..20 {
            for gy in 0..20 {
                let p = [(gx as f64 + 0.5) / 20.0, (gy as f64 + 0.5) / 20.0];
                let scaled = [
                    (p[0] * carve::sfc::octant::ROOT_SIDE as f64) as u64,
                    (p[1] * carve::sfc::octant::ROOT_SIDE as f64) as u64,
                ];
                let cell = carve::sfc::morton::finest_cell_of_point(&scaled);
                let covered = carve::core::find_leaf(&mesh.elems, curve, &cell).is_some();
                let carved = domain.point_in_carved(&p);
                if covered {
                    // Covered points may be in the carved set only within an
                    // intercepted element (staircase band) — can't assert.
                } else {
                    prop_assert!(carved, "uncovered retained point {:?}", p);
                }
            }
        }
    }
}
