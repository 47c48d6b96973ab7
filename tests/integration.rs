//! End-to-end integration tests spanning the workspace crates: geometry →
//! incomplete octree → nodes → FEM solve → error, plus the distributed
//! pipeline and the application layer.

use carve::core::{DistMesh, GhostState, Mesh, TraversalWorkspace};
use carve::fem::{l2_linf_error, solve_poisson, BcMode, PoissonProblem, SbmParams};
use carve::geom::{AxisBox, CarvedSolids, RetainBox, RetainSolid, Solid, Sphere};
use carve::ns::{FlowSolver, NodeBc, TransportSolver, VmsParams};
use carve::sfc::{Curve, Octant};

#[test]
fn disk_poisson_sbm_beats_naive_end_to_end() {
    let disk = Sphere::<2>::new([0.5, 0.5], 0.5);
    let domain = RetainSolid::new(disk);
    let one = |_: &[f64; 2]| 1.0;
    let zero = |_: &[f64; 2]| 0.0;
    let closest = move |x: &[f64; 2]| disk.closest_boundary_point(x);
    let exact = |x: &[f64; 2]| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        0.25 * (0.25 - r2)
    };
    let mesh = Mesh::build(&domain, Curve::Hilbert, 5, 5, 1);
    let mut errs = Vec::new();
    for bc in [BcMode::Naive, BcMode::Sbm(SbmParams::default())] {
        let prob = PoissonProblem {
            scale: 1.0,
            f: &one,
            dirichlet: &zero,
            closest_boundary: Some(&closest),
            strong_cube_bc: false,
            bc,
        };
        let sol = solve_poisson(&mesh, &domain, &prob);
        assert!(sol.krylov.converged);
        errs.push(l2_linf_error(&mesh, &domain, &sol.u, &exact, 1.0).l2);
    }
    assert!(
        errs[1] < errs[0] / 5.0,
        "SBM ({}) must beat naive ({}) by a clear margin",
        errs[1],
        errs[0]
    );
}

/// Manufactured-solution L2 order on meshes with hanging nodes: a square
/// hole aligned with the octree makes the naive Dirichlet data exact on the
/// carved boundary, and boundary refinement two levels past the base puts
/// level jumps (hanging nodes) around it.
#[test]
fn manufactured_solution_keeps_order_on_carved_mesh_with_level_jumps() {
    use std::f64::consts::PI;
    let domain = CarvedSolids::new(vec![Box::new(AxisBox::new([0.375; 2], [0.625; 2]))]);
    let exact = |x: &[f64; 2]| (PI * x[0]).sin() * (PI * x[1]).sin();
    let f = |x: &[f64; 2]| 2.0 * PI * PI * (PI * x[0]).sin() * (PI * x[1]).sin();
    for p in [1u64, 2] {
        let mut errs = Vec::new();
        for l in [3u8, 4, 5] {
            let mesh = Mesh::build(&domain, Curve::Hilbert, l, l + 2, p);
            let lo = mesh.elems.iter().map(|e| e.level).min();
            let hi = mesh.elems.iter().map(|e| e.level).max();
            assert!(lo < hi, "p={p} l={l}: no level jump ({lo:?}..{hi:?})");
            let prob = PoissonProblem {
                scale: 1.0,
                f: &f,
                dirichlet: &exact,
                closest_boundary: None,
                strong_cube_bc: true,
                bc: BcMode::Naive,
            };
            let sol = solve_poisson(&mesh, &domain, &prob);
            assert!(sol.krylov.converged, "p={p} l={l}: {:?}", sol.krylov);
            errs.push(l2_linf_error(&mesh, &domain, &sol.u, &exact, 1.0).l2);
        }
        let rate = (errs[1] / errs[2]).log2();
        assert!(
            rate >= p as f64 + 0.7,
            "p={p}: L2 rate {rate} below {}, errs {errs:?}",
            p as f64 + 0.7
        );
    }
}

#[test]
fn channel_mesh_counts_match_closed_form() {
    // Channel [0,1]x[0,1/4]x[0,1/4] at uniform level L: 4^? ... elements =
    // 2^L x 2^(L-2) x 2^(L-2); nodes = (2^L+1)(2^(L-2)+1)^2 for p=1.
    for l in [3u8, 4, 5] {
        let domain = RetainBox::<3>::channel([1.0, 0.25, 0.25]);
        let mesh = Mesh::build(&domain, Curve::Morton, l, l, 1);
        let nx = 1usize << l;
        let ny = 1usize << (l - 2);
        assert_eq!(mesh.num_elems(), nx * ny * ny, "level {l}");
        assert_eq!(mesh.num_dofs(), (nx + 1) * (ny + 1) * (ny + 1));
    }
}

#[test]
fn distributed_poisson_matvec_equals_sequential() {
    // The full distributed pipeline with a *real* FEM kernel.
    let seq_mesh = {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.3))]);
        Mesh::build(&domain, Curve::Hilbert, 3, 5, 1)
    };
    let n = seq_mesh.num_dofs();
    // Deterministic input keyed by coordinate.
    let key = |c: &[u64; 2]| {
        let h = c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let x: Vec<f64> = (0..n).map(|i| key(&seq_mesh.nodes.coords[i])).collect();
    let mut y_seq = vec![0.0; n];
    let cache = carve::fem::ElementCache::<2>::new(1);
    carve::core::traversal_matvec_ws(
        &seq_mesh.elems,
        0..seq_mesh.elems.len(),
        Curve::Hilbert,
        &seq_mesh.nodes,
        &x,
        &mut y_seq,
        &mut TraversalWorkspace::with_threads(1),
        &mut |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
            cache.apply_stiffness_dense(e.bounds_unit().1, u, v);
        },
    );
    let results = carve::comm::run_spmd(3, |comm| {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.3))]);
        let dm = DistMesh::<2>::build(comm, &domain, Curve::Hilbert, 3, 5, 1);
        let x_local: Vec<f64> = (0..dm.nodes.len())
            .map(|i| key(&dm.nodes.coords[i]))
            .collect();
        let mut y = vec![0.0; dm.nodes.len()];
        let cache = carve::fem::ElementCache::<2>::new(1);
        dm.matvec_ws(
            comm,
            &x_local,
            &mut y,
            &mut TraversalWorkspace::with_threads(1),
            GhostState::Ghosted,
            &mut |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
                cache.apply_stiffness_dense(e.bounds_unit().1, u, v);
            },
        );
        (0..dm.nodes.len())
            .filter(|&i| dm.owner[i] as usize == comm.rank())
            .map(|i| (dm.nodes.coords[i], y[i]))
            .collect::<Vec<_>>()
    });
    let mut seen = 0;
    for per_rank in results {
        for (coord, val) in per_rank {
            let i = seq_mesh.nodes.find(&coord).expect("node exists");
            assert!(
                (val - y_seq[i]).abs() < 1e-10 * (1.0 + y_seq[i].abs()),
                "coord {coord:?}: {val} vs {}",
                y_seq[i]
            );
            seen += 1;
        }
    }
    assert_eq!(seen, n);
}

#[test]
fn distributed_matvec_is_one_sweep_for_any_kernel_source_threads_and_width() {
    // The traversal driver behind `DistMesh::matvec_ws` (held kernel) and
    // `matvec_par` (kernel factory): on 2 ranks, every threads × batch-width
    // setting must give the same owned bits on a p ∈ {2, 3} carved sphere
    // with hanging nodes, and they must match the 1-rank sequential apply of
    // the same global field.
    use carve::fem::StiffnessKernel;
    let sphere = || CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
    let key = |c: &[u64; 3]| {
        let h = (c[0].wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c[1]))
            .wrapping_mul(0xC2B2AE3D27D4EB4F)
            .wrapping_add(c[2]);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    for p in [2u64, 3] {
        let seq = Mesh::build(&sphere(), Curve::Hilbert, 2, 4, p);
        let n = seq.num_dofs();
        assert!(seq.elems.iter().any(|e| e.level == 3) && seq.elems.iter().any(|e| e.level == 4));
        let x: Vec<f64> = seq.nodes.coords.iter().map(key).collect();
        let mut y_seq = vec![0.0; n];
        carve::core::traversal_matvec_ws(
            &seq.elems,
            0..seq.elems.len(),
            Curve::Hilbert,
            &seq.nodes,
            &x,
            &mut y_seq,
            &mut TraversalWorkspace::with_threads(1),
            &mut StiffnessKernel::<3>::new(p as usize, 1.0),
        );
        let y_max = y_seq.iter().fold(0.0f64, |m, v| m.max(v.abs()));

        let results = carve::comm::run_spmd(2, |comm| {
            let dm = DistMesh::<3>::build(comm, &sphere(), Curve::Hilbert, 2, 4, p);
            let x_local: Vec<f64> = dm.nodes.coords.iter().map(key).collect();
            let owned: Vec<usize> = (0..dm.nodes.len())
                .filter(|&i| dm.owner[i] as usize == comm.rank())
                .collect();
            let make_kernel = || StiffnessKernel::<3>::new(p as usize, 1.0);
            let mut reference: Option<Vec<u64>> = None;
            let mut y = vec![0.0; x_local.len()];
            for threads in [1usize, 4] {
                for width in [1usize, 3, 8] {
                    let mut ws = TraversalWorkspace::with_threads(threads).with_batch_width(width);
                    for held in [true, false] {
                        let ghost = GhostState::OwnedOnly;
                        if held {
                            let mut kernel = make_kernel();
                            dm.matvec_ws(comm, &x_local, &mut y, &mut ws, ghost, &mut kernel);
                        } else {
                            dm.matvec_par(comm, &x_local, &mut y, &mut ws, ghost, &make_kernel);
                        }
                        let bits: Vec<u64> = owned.iter().map(|&i| y[i].to_bits()).collect();
                        let reference = reference.get_or_insert_with(|| bits.clone());
                        assert_eq!(
                            *reference,
                            bits,
                            "p={p} rank {} threads={threads} width={width} held={held}",
                            comm.rank()
                        );
                    }
                }
            }
            owned
                .iter()
                .map(|&i| (dm.nodes.coords[i], y[i]))
                .collect::<Vec<_>>()
        });
        let mut seen = 0;
        for (coord, val) in results.into_iter().flatten() {
            let i = seq.nodes.find(&coord).expect("node exists");
            assert!(
                (val - y_seq[i]).abs() <= 1e-12 * y_max,
                "p={p} coord {coord:?}: {val} vs {}",
                y_seq[i]
            );
            seen += 1;
        }
        assert_eq!(seen, n);
    }
}

#[test]
fn served_distributed_solve_reads_agree_across_rank_counts() {
    // The serving path end to end: a carved 2-D scenario built through the
    // byte-capped cache, `b = A u*` formed with the distributed traversal
    // MATVEC, a warm Jacobi-CG solve, and point reads on the solved field.
    // The operator is the pure-Neumann stiffness, so CG recovers `u*` up to
    // a constant; the reads must not depend on the rank count.
    use carve::fem::{coord_field, geometry_hash, ScenarioCache, ScenarioSpec, ServedField};
    let exact = |x: &[f64; 2]| (2.1 * x[0]).sin() * (1.7 * x[1]).cos() + 0.3 * x[1];
    // 40 points on a ring strictly between the carved disk (r = 0.2) and
    // the cube's faces.
    let pts: Vec<[f64; 2]> = (0..40)
        .map(|k| {
            let t = 2.0 * std::f64::consts::PI * (k as f64 + 0.37) / 40.0;
            [0.5 + 0.33 * t.cos(), 0.5 + 0.33 * t.sin()]
        })
        .collect();
    let serve = |ranks: usize| {
        carve::comm::run_spmd(ranks, |c| {
            let _on = carve::obs::force_enabled();
            let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.2))]);
            let spec = ScenarioSpec {
                geometry: geometry_hash("carved-sphere2d:0.5,0.5,r0.2"),
                curve: Curve::Hilbert,
                base_level: 3,
                boundary_level: 5,
                order: 1,
                scale: 1.0,
                mg_min_level: None,
            };
            let mut cache = ScenarioCache::<2>::with_cap_bytes(64 << 20);
            let e = cache.get_or_build(c, &domain, spec);
            let u_star = coord_field(&e.dm, &exact);
            let mut b = vec![0.0; u_star.len()];
            e.dm.matvec_par(
                c,
                &u_star,
                &mut b,
                &mut TraversalWorkspace::with_threads(1),
                GhostState::OwnedOnly,
                &|| carve::fem::StiffnessKernel::<2>::new(1, 1.0),
            );
            let mut x = vec![0.0; b.len()];
            let res = e.solve(c, &b, &mut x, 1e-12, 2000);
            assert!(res.converged, "{ranks} ranks: {res:?}");
            let before = carve::obs::thread_snapshot();
            let reads = ServedField { entry: e, u: &x }.eval_points(c, &pts);
            let misses: u64 = carve::obs::thread_snapshot()
                .diff(&before)
                .phases
                .values()
                .filter_map(|st| st.counters.get("eval_misses"))
                .sum();
            (reads, misses)
        })
    };
    let one = serve(1).remove(0);
    assert_eq!(one.1, 0, "1 rank: eval misses");
    // The solve recovered `u*` up to a constant: read differences follow
    // `u*` to within the p = 1 interpolation error.
    for (k, (v, p)) in one.0.iter().zip(&pts).enumerate() {
        let drift = (v - one.0[0]) - (exact(p) - exact(&pts[0]));
        assert!(drift.abs() < 1e-2, "point {k} {p:?}: drift {drift}");
    }
    for (rank, (reads, misses)) in serve(2).into_iter().enumerate() {
        assert_eq!(misses, 0, "2 ranks, rank {rank}: eval misses");
        for (k, (a, b)) in one.0.iter().zip(&reads).enumerate() {
            assert!(
                (a - b).abs() <= 1e-8 * a.abs().max(1.0),
                "rank {rank} point {k}: 1-rank {a} vs 2-rank {b}"
            );
        }
    }
}

#[test]
fn hanging_chain_matvec_equals_assembled_csr_and_e2n_baseline() {
    // A boundary-refined tree that skips the 2:1 balance pass: coarse
    // leaves meet leaves two and three levels finer, so the interpolation
    // source of a hanging slot can itself hang one level up — the leaf
    // stage's cold recursive fallback (`hanging_chain` counts its uses).
    // The traversal matvec, the CSR assembled by the same traversal, and
    // the element-to-node-map baseline (which resolves every slot through
    // `resolve_slot`, no traversal at all) must be the same operator.
    // `enumerate_nodes` takes the unbalanced tree as it is.
    use carve::baseline::ImmersedMesh;
    use carve::core::{construct_boundary_refined, traversal_assemble_ws, traversal_matvec_ws};
    use carve::fem::{ElementCache, StiffnessKernel, StiffnessMatrixKernel};
    let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
    let raw = construct_boundary_refined(&domain, Curve::Hilbert, 2, 5);
    assert!(carve::core::check_2to1(&raw).is_err(), "tree is balanced");
    for p in [1u64, 2, 3] {
        let mesh = Mesh::from_balanced_elems(&domain, Curve::Hilbert, raw.clone(), p);
        let n = mesh.num_dofs();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut ws = TraversalWorkspace::with_threads(1);

        let _on = carve::obs::force_enabled();
        let before = carve::obs::thread_snapshot();
        let mut y_mf = vec![0.0; n];
        traversal_matvec_ws(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &x,
            &mut y_mf,
            &mut ws,
            &mut StiffnessKernel::<2>::new(p as usize, 1.0),
        );
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut coo = carve::la::CooBuilder::new(n);
        traversal_assemble_ws(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &ids,
            &mut coo,
            &mut ws,
            &mut StiffnessMatrixKernel::<2>::new(p as usize, 1.0),
        );
        let d = carve::obs::thread_snapshot().diff(&before);
        for phase in ["matvec/leaf", "assemble/leaf"] {
            let c = &d.phases[phase].counters;
            assert!(c["hanging_chain"] > 0, "p={p} {phase}: no chain in {c:?}");
            assert!(
                c["hanging_slots"] >= c["hanging_chain"],
                "p={p} {phase}: {c:?}"
            );
        }

        let mut y_csr = vec![0.0; n];
        coo.build().matvec(&x, &mut y_csr);
        let immersed = ImmersedMesh::from_mesh(&domain, mesh);
        let mut cache = ElementCache::<2>::new(p as usize);
        let mut y_e2n = vec![0.0; n];
        immersed.matvec(
            &x,
            &mut y_e2n,
            &mut |e: &Octant<2>, u: &[f64], v: &mut [f64]| {
                cache.apply_stiffness_tensor(e.bounds_unit().1, u, v);
            },
        );
        let scale = y_csr.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            assert!(
                (y_mf[i] - y_csr[i]).abs() <= 1e-12 * scale,
                "p={p} node {i}: traversal {} vs CSR {}",
                y_mf[i],
                y_csr[i]
            );
            assert!(
                (y_mf[i] - y_e2n[i]).abs() <= 1e-12 * scale,
                "p={p} node {i}: traversal {} vs e2n {}",
                y_mf[i],
                y_e2n[i]
            );
        }
    }
}

#[test]
fn classroom_pipeline_smoke() {
    use carve::geom::classroom::ClassroomScene;
    let scene = ClassroomScene::new(false, (0, 0));
    let mesh = Mesh::build(&scene.domain, Curve::Hilbert, 4, 5, 1);
    assert!(mesh.num_elems() > 100);
    // Uniform downward draft as a frozen field; transport a puff.
    let n = mesh.num_dofs();
    let mut vel = vec![0.0; n * 3];
    for i in 0..n {
        vel[i * 3 + 2] = -0.2;
    }
    let bc = |_: &[f64; 3], _: carve::core::NodeFlags| None;
    let mut t = TransportSolver::new(&mesh, &vel, 1e-4, 0.1, scene.scale, &bc);
    let src = scene.source_center;
    let scale = scene.scale;
    let source = move |x: &[f64; 3]| {
        let d2 = (x[0] - src[0] * scale).powi(2)
            + (x[1] - src[1] * scale).powi(2)
            + (x[2] - src[2] * scale).powi(2);
        if d2 < 0.05 {
            1.0
        } else {
            0.0
        }
    };
    for _ in 0..3 {
        let r = t.step(&source);
        assert!(r.converged);
    }
    assert!(t.total_mass() > 0.0);
}

#[test]
fn stokes_flow_in_cavity_is_divergence_free_enough() {
    let domain = RetainBox::<2>::new([0.0, 0.0], [0.5, 0.5]);
    let mesh = Mesh::build(&domain, Curve::Morton, 4, 4, 1);
    let bc = |x: &[f64; 2], _fl: carve::core::NodeFlags| -> NodeBc<2> {
        let eps = 1e-9;
        if x[1] >= 0.5 - eps && x[0] > eps && x[0] < 0.5 - eps {
            NodeBc::Velocity([1.0, 0.0])
        } else if x[0] <= eps || x[0] >= 0.5 - eps || x[1] <= eps || x[1] >= 0.5 - eps {
            if (x[0] - 0.25).abs() < 1e-9 && x[1] <= eps {
                NodeBc::VelocityAndPressure([0.0, 0.0], 0.0)
            } else {
                NodeBc::Velocity([0.0, 0.0])
            }
        } else {
            NodeBc::Free
        }
    };
    let params = VmsParams::new(0.05, 0.5);
    let mut solver = FlowSolver::new(&mesh, params, 1.0, &bc);
    let zero = |_: &[f64; 2]| [0.0, 0.0];
    solver.run_to_steady(&zero, 10, 1e-4);
    // The lid corners are singular (u jumps 1 -> 0), so pointwise divergence
    // is large there; require only that the bulk is sensible and the cavity
    // actually recirculates.
    assert!(
        solver.divergence_l2() < 2.0,
        "div {}",
        solver.divergence_l2()
    );
    let mut min_u = f64::INFINITY;
    for i in 0..mesh.num_dofs() {
        let x = mesh.nodes.unit_coords(i);
        if x[1] < 0.3 && x[0] > 0.1 && x[0] < 0.4 {
            min_u = min_u.min(solver.velocity(i)[0]);
        }
    }
    assert!(min_u < -0.005, "no return flow: {min_u}");
}

#[test]
fn dragon_to_mesh_to_nodes_pipeline() {
    use carve::geom::dragon::{dragon_mesh, DragonParams};
    use carve::geom::TriMeshSolid;
    let params = DragonParams {
        n_spine: 48,
        n_ring: 12,
        ..Default::default()
    };
    let solid = TriMeshSolid::new(dragon_mesh(&params));
    let domain = CarvedSolids::new(vec![Box::new(solid)]);
    let mesh = Mesh::build(&domain, Curve::Hilbert, 3, 5, 1);
    carve::core::check_2to1(&mesh.elems).unwrap();
    assert!(!mesh.intercepted_elems().is_empty());
    // Boundary nodes exist and sit near the surface.
    let nb = mesh
        .nodes
        .flags
        .iter()
        .filter(|f| f.is_carved_boundary())
        .count();
    assert!(nb > 0);
}

/// The level-5 disk above stays under 2000 dofs and so on the Jacobi rung of
/// the solver's preconditioner ladder; this one (3461 dofs) takes the
/// additive-Schwarz rung. The iteration count and the FNV-1a digest of the
/// solution were recorded while the Schwarz blocks were still solved with
/// dense factors: any change to how a block is factored or substituted has
/// to reproduce them bit for bit (BiCGStab plateaus on these systems, and
/// block solves that differ only in rounding move the count by tens of
/// percent — EXPERIMENTS.md, "`disk_sbm` budget").
#[test]
fn disk_poisson_sbm_schwarz_rung_is_pinned_bitwise() {
    let disk = Sphere::<2>::new([0.5, 0.5], 0.5);
    let domain = RetainSolid::new(disk);
    let one = |_: &[f64; 2]| 1.0;
    let zero = |_: &[f64; 2]| 0.0;
    let closest = move |x: &[f64; 2]| disk.closest_boundary_point(x);
    let exact = |x: &[f64; 2]| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        0.25 * (0.25 - r2)
    };
    let mesh = Mesh::build(&domain, Curve::Morton, 6, 6, 1);
    assert_eq!(mesh.num_dofs(), 3461);
    let prob = PoissonProblem {
        scale: 1.0,
        f: &one,
        dirichlet: &zero,
        closest_boundary: Some(&closest),
        strong_cube_bc: false,
        bc: BcMode::Sbm(SbmParams::default()),
    };
    let _on = carve::obs::force_enabled();
    let before = carve::obs::thread_snapshot();
    let sol = solve_poisson(&mesh, &domain, &prob);
    let setup = &carve::obs::thread_snapshot().diff(&before).phases["krylov/asm_setup"];
    assert_eq!((setup.calls, setup.counters["asm_blocks"]), (1, 3461 / 400));
    assert!(
        setup.counters["asm_nnz"] * 4 < setup.counters["asm_dense_entries"],
        "block factors stored dense: {:?}",
        setup.counters
    );
    assert!(sol.krylov.converged);
    assert_eq!(sol.krylov.iterations, 218);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in &sol.u {
        for b in v.to_bits().to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest, 0x6005_3c43_8efd_2e8b, "digest {digest:016x}");
    let l2 = l2_linf_error(&mesh, &domain, &sol.u, &exact, 1.0).l2;
    assert!(l2 < 1e-4, "l2 {l2:e}");
}

/// FNV-1a over the bits of `v`.
fn fnv_bits(v: &[f64]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// One pinned solve: `(digest of x, iterations, residual bits)`.
type Pin = (u64, usize, u64);

fn pin(x: &[f64], k: &carve::la::KrylovResult) -> Pin {
    (fnv_bits(x), k.iterations, k.residual.to_bits())
}

/// 1-D Laplacian `tridiag(-1, 2 + shift, -1)` as CSR.
fn laplace_1d(n: usize, shift: f64) -> carve::la::CsrMatrix {
    let mut coo = carve::la::CooBuilder::new(n);
    for i in 0..n {
        coo.add(i, i, 2.0 + shift);
        if i > 0 {
            coo.add(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.add(i, i + 1, -1.0);
        }
    }
    coo.build()
}

/// The Krylov layer's outputs, bit for bit, through three callers that
/// exercise every option a solve takes: a distributed reducer, the
/// checkpoint hook on both methods (the supervisor's escalation ladder),
/// and fused lanes with early exits (block CG). The values were recorded
/// before the Krylov entry points were collapsed onto one options struct;
/// any change to the recurrences, the reduction batches or the checkpoint
/// cadence moves them.
#[test]
fn krylov_solves_are_pinned_bitwise() {
    use carve::fem::{StiffnessKernel, Supervisor};
    use carve::la::{IdentityPrecond, JacobiPrecond, SolveOpts};

    // 2-rank CG over the traversal MATVEC on a carved 3-D p = 1 mesh, with
    // the mesh's owned-masked reducer.
    let dist: Vec<(Pin, u64)> = carve::comm::run_spmd(2, |c| {
        let domain = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.3))]);
        let dm = DistMesh::<3>::build(c, &domain, Curve::Hilbert, 2, 4, 1);
        let n = dm.nodes.len();
        // Homogeneous Dirichlet rows on every boundary node keep it SPD.
        let fixed: Vec<bool> = dm.nodes.flags.iter().map(|f| f.is_any_boundary()).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                let v = (dm.nodes.unit_coords(i)[0] * 7.0).sin();
                if fixed[i] {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        let ws = std::cell::RefCell::new(TraversalWorkspace::with_threads(1));
        let make_kernel = || StiffnessKernel::<3>::new(1, 1.0);
        let op = (n, |xv: &[f64], yv: &mut [f64]| {
            dm.matvec_par(
                c,
                xv,
                yv,
                &mut ws.borrow_mut(),
                GhostState::OwnedOnly,
                &make_kernel,
            );
            for ((yi, &xi), &f) in yv.iter_mut().zip(xv).zip(&fixed) {
                if f {
                    *yi = xi;
                }
            }
        });
        let mut x = vec![0.0; n];
        let ops = c.op_count();
        let opts = SolveOpts {
            reduce: &dm.reducer(c),
            ..SolveOpts::new(1e-9, 0.0, 400)
        };
        let k = carve::la::cg(&op, &b, &mut x, &IdentityPrecond, opts);
        assert!(k.converged, "{k:?}");
        (pin(&x, &k), c.op_count() - ops)
    });
    // Per rank, with the communication ops the solve issued: two per apply
    // for 24 applies, one per fused reduction for 2 + 2 × 23.
    let want_dist: [(Pin, u64); 2] = [
        ((0x9598_81d1_33ab_0b58, 23, 0x3e3b_0ec1_2ae0_42bb), 96),
        ((0x7cc9_744f_9750_d3a7, 23, 0x3e3b_0ec1_2ae0_42bb), 96),
    ];
    assert_eq!(dist, want_dist, "distributed CG");

    // The supervisor's Krylov ladder, every rung failing: CG, CG restarted
    // from its newest checkpoint, BiCGStab from that one's.
    let n = 60;
    let a = laplace_1d(n, 0.05);
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    let mut x = vec![0.0; n];
    let sup = Supervisor {
        rtol: 1e-30,
        atol: 0.0,
        max_iter: 12,
        ckpt_every: 5,
    };
    let failed = sup
        .solve(&a, &b, &mut x, &JacobiPrecond::from_matrix(&a), None)
        .expect_err("an unreachable tolerance fails every rung");
    let trail: Vec<(&str, usize, u64)> = failed
        .attempts
        .iter()
        .map(|t| (t.stage, t.iterations, t.residual.to_bits()))
        .collect();
    assert_eq!(
        trail,
        [
            ("cg", 12, 0x3fce_ae16_1b24_aa35),
            ("cg_restart", 12, 0x3f9c_3dd8_1868_8538),
            ("bicgstab", 12, 0x3f40_8653_3379_14e0),
        ],
        "escalation trail"
    );
    // Snapshots at 0, 5, 10 of each rung, the offset carried forward.
    assert_eq!(failed.ranks[0].checkpoint_iteration, Some(30));
    assert_eq!(fnv_bits(&x), 0x0ce8_fbae_ef26_f1b0, "ladder iterate");

    // k = 3 fused lanes: a zero right-hand side (done at iteration 0), an
    // eigenvector of the operator (done after one step) and a generic one.
    let n = 48;
    let a = laplace_1d(n, 0.0);
    let mode = std::f64::consts::PI * 3.0 / (n + 1) as f64;
    let bs = [
        vec![0.0; n],
        (0..n).map(|i| (mode * (i + 1) as f64).sin()).collect(),
        (0..n).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<f64>>(),
    ];
    let mut xs = vec![vec![0.0; n]; 3];
    let b_refs: Vec<&[f64]> = bs.iter().map(|b| b.as_slice()).collect();
    let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(|x| x.as_mut_slice()).collect();
    let opts = SolveOpts::new(1e-10, 0.0, 200);
    let lanes = carve::la::block_cg(&a, &b_refs, &mut x_refs, &IdentityPrecond, opts);
    assert!(lanes.iter().all(|k| k.converged));
    let block: Vec<Pin> = xs.iter().zip(&lanes).map(|(x, k)| pin(x, k)).collect();
    assert_eq!(
        block,
        [
            (0xc86e_c345_c0ee_8125, 0, 0),
            (0xd10f_c79d_5c4d_e747, 1, 0x3d3c_78c1_5324_d6d3),
            (0xc285_02d7_30fd_e648, 48, 0x3d0b_782f_c1d5_45f6),
        ],
        "block CG lanes"
    );
}
