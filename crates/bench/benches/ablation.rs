//! Ablations ◆ for the design decisions DESIGN.md calls out:
//! * dense elemental apply vs sum-factorized tensor apply (the
//!   `O((p+1)^{2d})` vs `O(d(p+1)^{d+1})` trade, Fig. 12's complexity),
//! * scalar vs batched SoA tensor apply by order and batch width (the
//!   §6h panel payoff: ns/element as lanes fill),
//! * cached reference stiffness vs quadrature-on-the-fly elemental
//!   matrices (why constant-coefficient operators fly and NS doesn't),
//! * Morton vs Hilbert ordering for the traversal MATVEC.

use carve_core::{traversal_matvec_ws, Mesh, TraversalWorkspace};
use carve_fem::poisson::reference_stiffness;
use carve_fem::ElementCache;
use carve_geom::{CarvedSolids, Sphere};
use carve_sfc::{Curve, Octant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("leaf_kernel");
    g.sample_size(20);
    for p in [1usize, 2] {
        let npe = (p + 1).pow(3);
        let u: Vec<f64> = (0..npe).map(|i| (i as f64).sin()).collect();
        g.bench_with_input(BenchmarkId::new("dense", p), &p, |b, &p| {
            let cache = ElementCache::<3>::new(p);
            let mut v = vec![0.0; npe];
            b.iter(|| {
                v.iter_mut().for_each(|x| *x = 0.0);
                cache.apply_stiffness_dense(0.25, &u, &mut v);
                v[0]
            })
        });
        g.bench_with_input(BenchmarkId::new("tensor", p), &p, |b, &p| {
            let mut cache = ElementCache::<3>::new(p);
            let mut v = vec![0.0; npe];
            b.iter(|| {
                v.iter_mut().for_each(|x| *x = 0.0);
                cache.apply_stiffness_tensor(0.25, &u, &mut v);
                v[0]
            })
        });
        g.bench_with_input(BenchmarkId::new("quadrature_on_the_fly", p), &p, |b, &p| {
            // Rebuild the elemental matrix every call (the NS regime).
            let mut v = vec![0.0; npe];
            b.iter(|| {
                let k = reference_stiffness::<3>(p);
                k.matvec(&u, &mut v);
                v[0]
            })
        });
    }
    g.finish();

    // Scalar loop vs batched SoA panel at equal element counts: the batched
    // apply's per-element op sequence is identical, so any delta is pure
    // layout/vectorization. Throughput is reported per panel (8 applies for
    // scalar vs one batched call on 8 lanes at width 8).
    let mut g = c.benchmark_group("batch_ablation");
    g.sample_size(20);
    for p in [1usize, 2] {
        let npe = (p + 1).pow(3);
        for width in [1usize, 4, 8] {
            let panel: Vec<f64> = (0..npe * width).map(|i| (i as f64).sin()).collect();
            g.bench_with_input(
                BenchmarkId::new(format!("scalar_x{width}"), p),
                &p,
                |b, &p| {
                    let mut cache = ElementCache::<3>::new(p);
                    let u: Vec<f64> = (0..npe).map(|i| (i as f64).sin()).collect();
                    let mut v = vec![0.0; npe];
                    b.iter(|| {
                        let mut acc = 0.0;
                        for _ in 0..width {
                            v.iter_mut().for_each(|x| *x = 0.0);
                            cache.apply_stiffness_tensor_scaled(0.25, &u, &mut v);
                            acc += v[0];
                        }
                        acc
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("batched_x{width}"), p),
                &p,
                |b, &p| {
                    let mut cache = ElementCache::<3>::new(p);
                    let mut v = vec![0.0; npe * width];
                    b.iter(|| {
                        v.iter_mut().for_each(|x| *x = 0.0);
                        cache.apply_stiffness_tensor_batched(0.25, width, &panel, &mut v);
                        v[0]
                    })
                },
            );
        }
    }
    g.finish();

    let mut g = c.benchmark_group("curve_choice");
    g.sample_size(10);
    for curve in [Curve::Morton, Curve::Hilbert] {
        let domain = CarvedSolids::new(vec![Box::new(Sphere::new([0.5; 3], 0.25))]);
        let mesh = Mesh::build(&domain, curve, 4, 6, 1);
        let n = mesh.num_dofs();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        g.bench_with_input(
            BenchmarkId::new("traversal_matvec", format!("{curve:?}")),
            &mesh,
            |b, mesh| {
                let mut cache = ElementCache::<3>::new(1);
                let mut ws = TraversalWorkspace::with_threads(1);
                let mut y = vec![0.0; n];
                b.iter(|| {
                    y.iter_mut().for_each(|v| *v = 0.0);
                    traversal_matvec_ws(
                        &mesh.elems,
                        0..mesh.elems.len(),
                        mesh.curve,
                        &mesh.nodes,
                        &x,
                        &mut y,
                        &mut ws,
                        &mut |e: &Octant<3>, u: &[f64], v: &mut [f64]| {
                            cache.apply_stiffness_tensor(e.bounds_unit().1, u, v);
                        },
                    );
                    y[0]
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
