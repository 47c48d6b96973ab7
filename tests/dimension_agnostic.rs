//! The paper stresses that its algorithms are dimension agnostic ("The
//! algorithms presented here are dimension agnostic"); Ishii et al. \[30\]
//! run them in 4D space-time. These tests instantiate the whole core stack
//! at `DIM = 4` (and cross-check `DIM = 2/3` against closed forms).

use carve::core::{
    check_2to1, construct_balanced, construct_boundary_refined, enumerate_nodes,
    traversal_assemble_ws, traversal_matvec_ws, TraversalWorkspace,
};
use carve::geom::{CarvedSolids, FullDomain, Sphere};
use carve::la::{CooBuilder, DenseMatrix};
use carve::sfc::{treesort, Curve, Octant};

#[test]
fn uniform_construction_counts_in_2_3_4_dims() {
    let l = 2u8;
    let t2 = carve::core::construct_uniform::<2>(&FullDomain, Curve::Hilbert, l);
    let t3 = carve::core::construct_uniform::<3>(&FullDomain, Curve::Hilbert, l);
    let t4 = carve::core::construct_uniform::<4>(&FullDomain, Curve::Hilbert, l);
    assert_eq!(t2.len(), 16);
    assert_eq!(t3.len(), 64);
    assert_eq!(t4.len(), 256);
}

#[test]
fn hilbert_4d_treesort_matches_comparison_sort() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let mut octs: Vec<Octant<4>> = (0..600)
        .map(|_| {
            let mut o = Octant::<4>::ROOT;
            for _ in 0..rng.gen_range(1..5) {
                o = o.child(rng.gen_range(0..16));
            }
            o
        })
        .collect();
    let mut reference = octs.clone();
    treesort(&mut octs, Curve::Hilbert);
    reference.sort_by(|a, b| carve::sfc::sfc_cmp(Curve::Hilbert, a, b));
    assert_eq!(octs, reference);
}

#[test]
fn carved_4d_hypersphere_balances_and_enumerates() {
    // Carve a 4-ball out of the tesseract, balance, enumerate nodes.
    let domain = CarvedSolids::<4>::new(vec![Box::new(Sphere::new([0.5; 4], 0.3))]);
    let adaptive = construct_boundary_refined(&domain, Curve::Morton, 2, 3);
    let tree = construct_balanced(&domain, Curve::Morton, &adaptive);
    check_2to1(&tree).unwrap();
    assert!(!tree.is_empty());
    // Some 4-cells got carved: fewer than the complete count at mixed
    // levels; check measure < 1.
    let vol: f64 = tree
        .iter()
        .map(|o| {
            let s = o.bounds_unit().1;
            s.powi(4)
        })
        .sum();
    assert!(vol < 1.0, "hypersphere must carve volume: {vol}");
    // Nodes enumerate; carved-boundary nodes exist; count sanity.
    let nodes = enumerate_nodes(&domain, &tree, 1);
    assert!(nodes.len() > tree.len() / 2);
    assert!(nodes.flags.iter().any(|f| f.is_carved_boundary()));
}

#[test]
fn traversal_matvec_matches_assembly_in_4d() {
    let domain = CarvedSolids::<4>::new(vec![Box::new(Sphere::new([0.5; 4], 0.35))]);
    let adaptive = construct_boundary_refined(&domain, Curve::Hilbert, 1, 3);
    let elems = construct_balanced(&domain, Curve::Hilbert, &adaptive);
    let nodes = enumerate_nodes(&domain, &elems, 1);
    let n = nodes.len();
    let npe = 16usize;
    let kernel = |e: &Octant<4>, u: &[f64], v: &mut [f64]| {
        let h = e.bounds_unit().1;
        let sum: f64 = u.iter().sum();
        for (i, vi) in v.iter_mut().enumerate() {
            *vi = h * (u[i] + 0.1 * sum);
        }
    };
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut y1 = vec![0.0; n];
    let mut k1 = kernel;
    let mut ws = TraversalWorkspace::with_threads(1);
    traversal_matvec_ws(
        &elems,
        0..elems.len(),
        Curve::Hilbert,
        &nodes,
        &x,
        &mut y1,
        &mut ws,
        &mut k1,
    );
    let mut coo = CooBuilder::new(n);
    let ids: Vec<u32> = (0..n as u32).collect();
    let mut mk = |e: &Octant<4>| {
        let h = e.bounds_unit().1;
        let mut m = DenseMatrix::zeros(npe, npe);
        for i in 0..npe {
            for j in 0..npe {
                m[(i, j)] = h * (if i == j { 1.0 } else { 0.0 } + 0.1);
            }
        }
        m
    };
    traversal_assemble_ws(
        &elems,
        0..elems.len(),
        Curve::Hilbert,
        &nodes,
        &ids,
        &mut coo,
        &mut ws,
        &mut mk,
    );
    let a = coo.build();
    let mut y2 = vec![0.0; n];
    a.matvec(&x, &mut y2);
    for (i, (a, b)) in y1.iter().zip(&y2).enumerate() {
        assert!(
            (a - b).abs() < 1e-11 * (1.0 + b.abs()),
            "4D mismatch at node {i}: {a} vs {b}"
        );
    }
}

#[test]
fn uniform_4d_node_count_closed_form() {
    let tree = carve::core::construct_uniform::<4>(&FullDomain, Curve::Morton, 2);
    let nodes = enumerate_nodes(&FullDomain, &tree, 1);
    assert_eq!(nodes.len(), 5usize.pow(4));
}
