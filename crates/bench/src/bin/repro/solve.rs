//! Solver ids: Fig. 6 (Poisson, naive vs SBM), Fig. 13 (sphere drag) and
//! Table 5 (classroom immersed vs carved).

use crate::mesh::rate;
use crate::{timed, Opts, Report};
use carve_baseline::ImmersedMesh;
use carve_bench::DragSphereWorkload;
use carve_core::{Mesh, NodeFlags};
use carve_fem::{l2_linf_error, solve_poisson, BcMode, PoissonProblem, SbmParams};
use carve_geom::classroom::{ClassroomScene, ROOM};
use carve_geom::{RetainSolid, Solid, Sphere};
use carve_io::Table;
use carve_ns::{drag_on_surrogate, FlowSolver, NodeBc, VmsParams};
use carve_sfc::Curve;

/// Finest level of Fig. 6's sweep (from level 4).
const FIG6_MAX_LEVEL: u8 = 7;

/// Fig. 6 — Poisson on a disk (R = 0.5 at (0.5, 0.5), f = 1, exact
/// u = (R² − r²)/4): naive voxel-boundary Dirichlet is first order, the
/// Shifted Boundary Method second order in L2 and L∞.
pub fn fig6(_: &Opts) -> Result<Report, String> {
    let disk = Sphere::<2>::new([0.5, 0.5], 0.5);
    let domain = RetainSolid::new(disk);
    let one = |_: &[f64; 2]| 1.0;
    let zero = |_: &[f64; 2]| 0.0;
    let closest = move |x: &[f64; 2]| disk.closest_boundary_point(x);
    let exact = |x: &[f64; 2]| {
        let r2 = (x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2);
        0.25 * (0.25 - r2)
    };
    let mut table = Table::new(
        "Fig 6: Poisson on a disk, naive BC vs Shifted Boundary Method (linear elements)",
        &[
            "level",
            "dofs",
            "naive L2",
            "naive Linf",
            "SBM L2",
            "SBM Linf",
            "L2 rate naive",
            "L2 rate SBM",
        ],
    );
    let mut notes = Vec::new();
    let (mut prev_naive, mut prev_sbm) = (None, None);
    for level in 4..=FIG6_MAX_LEVEL {
        let mesh = Mesh::build(&domain, Curve::Morton, level, level, 1);
        let norms: Vec<_> = [BcMode::Naive, BcMode::Sbm(SbmParams::default())]
            .into_iter()
            .map(|bc| {
                let prob = PoissonProblem {
                    scale: 1.0,
                    f: &one,
                    dirichlet: &zero,
                    closest_boundary: Some(&closest),
                    strong_cube_bc: false,
                    bc,
                };
                let sol = solve_poisson(&mesh, &domain, &prob);
                if !sol.krylov.converged {
                    notes.push(format!(
                        "warning: level {level} solve stalled: {:?}",
                        sol.krylov
                    ));
                }
                l2_linf_error(&mesh, &domain, &sol.u, &exact, 1.0)
            })
            .collect();
        table.row(&[
            level.to_string(),
            mesh.num_dofs().to_string(),
            format!("{:.3e}", norms[0].l2),
            format!("{:.3e}", norms[0].linf),
            format!("{:.3e}", norms[1].l2),
            format!("{:.3e}", norms[1].linf),
            rate(prev_naive, norms[0].l2),
            rate(prev_sbm, norms[1].l2),
        ]);
        prev_naive = Some(norms[0].l2);
        prev_sbm = Some(norms[1].l2);
    }
    Ok(Report {
        notes,
        tables: vec![(table, Some("results/fig6_convergence.csv"))],
        check: "paper shape check: naive rate ~1, SBM rate ~2, SBM error far below naive.".into(),
    })
}

/// Almedeij (2008): drag coefficient of a smooth sphere for all Re,
/// including the drag crisis.
fn almedeij_cd(re: f64) -> f64 {
    let phi1 = (24.0 / re).powi(10)
        + (21.0 / re.powf(0.67)).powi(10)
        + (4.0 / re.powf(0.33)).powi(10)
        + 0.4f64.powi(10);
    let phi2 = 1.0 / ((0.148 * re.powf(0.11)).powi(-10) + 0.5f64.powi(-10));
    let phi3 = (1.57e8 / re.powf(1.625)).powi(10);
    let phi4 = 1.0 / ((6e-17 * re.powf(2.63)).powi(-10) + 0.2f64.powi(-10));
    (1.0 / ((phi1 + phi2).recip() + phi3.recip()) + phi4).powf(0.1)
}

/// C_d of the sphere from the carved-mesh VMS solver at `re`, and the
/// element count of its mesh.
fn solve_cd(re: f64, base: u8, boundary: u8, steps: usize) -> (f64, usize) {
    let w = DragSphereWorkload::new();
    let mesh = w.mesh(base, boundary, 1);
    let d_phys = 1.0; // sphere diameter in physical units
    let u_in = 1.0;
    let nu = u_in * d_phys / re;
    let center = w.sphere.center;
    let on_sphere = move |x: &[f64; 3]| {
        let dx = x[0] - center[0];
        let dy = x[1] - center[1];
        let dz = x[2] - center[2];
        (dx * dx + dy * dy + dz * dz).sqrt() < 0.1
    };
    let bc = move |x: &[f64; 3], fl: NodeFlags| -> NodeBc<3> {
        if x[0] >= 1.0 - 1e-9 {
            return NodeBc::Pressure(0.0); // outlet
        }
        if fl.is_carved_boundary() {
            // No-slip on the sphere, free stream on the domain walls (the
            // paper's setup).
            if on_sphere(x) {
                return NodeBc::Velocity([0.0, 0.0, 0.0]);
            }
            return NodeBc::Velocity([u_in, 0.0, 0.0]);
        }
        NodeBc::Free
    };
    let mut solver = FlowSolver::new(&mesh, VmsParams::new(nu, 0.25), w.scale, &bc);
    // Bounded inner solves: fully converged BiCGStab at every Picard step
    // is out of reach on one core, and the traction integral is already
    // meaningful from a partially converged steady state (raise --steps for
    // a tighter C_d).
    solver.max_picard = 2;
    solver.lin_max_iter = 2_500;
    let zero = |_: &[f64; 3]| [0.0; 3];
    let _rep = solver.run_to_steady(&zero, steps, 1e-4);
    let f = drag_on_surrogate(&solver, &on_sphere);
    // C_d = F / (½ ρ U² A), A = π d² / 4; the solver's force is already in
    // physical units via `scale`.
    let area = std::f64::consts::PI * d_phys * d_phys / 4.0;
    (f[0] / (0.5 * u_in * u_in * area), mesh.num_elems())
}

/// Fig. 13 — sphere drag across Re, including the drag crisis. The full
/// 40M-element LES is out of reach here, so this prints the reference
/// correlation over the whole sweep (the curve the paper overlays) and runs
/// the carved-mesh VMS solver at the low-Re points the mesh resolves.
pub fn fig13(opts: &Opts) -> Result<Report, String> {
    let re_sweep = [10.0, 100.0, 1000.0, 1.6e4, 1e5, 1.6e5, 3e5, 1e6, 2e6];
    let solve_re = opts.solve_re.clone().unwrap_or_else(|| vec![100.0]);
    let (base, boundary) = if opts.large { (5, 7) } else { (4, 6) };
    let steps = opts.steps.unwrap_or(4);
    let mut table = Table::new(
        "Fig 13: sphere drag coefficient across the drag-crisis regime",
        &["Re", "Cd (correlation)", "Cd (VMS solver)", "elements"],
    );
    for re in re_sweep {
        let (cd_s, ne) = if solve_re.iter().any(|r| (r - re).abs() < 1e-9) {
            let (cd, ne) = solve_cd(re, base, boundary, steps);
            (format!("{cd:.3}"), ne.to_string())
        } else {
            ("-".into(), "-".into())
        };
        table.row(&[
            format!("{re:.1e}"),
            format!("{:.3}", almedeij_cd(re)),
            cd_s,
            ne,
        ]);
    }
    Ok(Report {
        tables: vec![(table, Some("results/fig13_drag_crisis.csv"))],
        check: "paper shape check: correlation Cd ~0.4-0.5 subcritical (Re 1e4-2e5),\n\
                crisis drop to ~0.1-0.2 by Re 1e6-2e6 — the curve the paper overlays;\n\
                solver Cd at the solved low-Re points should sit within ~30% of the\n\
                correlation at this voxel resolution."
            .into(),
        ..Report::default()
    })
}

/// Seconds for `steps` VMS time steps of the classroom flow on `mesh`.
fn classroom_solve_secs(mesh: &Mesh<3>, scene: &ClassroomScene, steps: usize) -> f64 {
    let scale = scene.scale;
    let bc = move |x: &[f64; 3], fl: NodeFlags| -> NodeBc<3> {
        let phys = [x[0] * scale, x[1] * scale, x[2] * scale];
        if (phys[2] - ROOM[2]).abs() < 1e-6 {
            // On the ceiling: inlets blow downward, outlets fix pressure,
            // the rest is wall.
            if scene.is_inlet(&phys) {
                return NodeBc::Velocity([0.0, 0.0, -1.0]);
            }
            if scene.is_outlet(&phys) {
                return NodeBc::Pressure(0.0);
            }
            return NodeBc::Velocity([0.0; 3]);
        }
        if fl.is_any_boundary() {
            return NodeBc::Velocity([0.0; 3]); // walls, furniture, people
        }
        NodeBc::Free
    };
    // Re = 1e5 on the room height, so ν = 1e-5 (the paper's setup).
    let mut solver = FlowSolver::new(mesh, VmsParams::new(1e-5, 0.2), scale, &bc);
    solver.max_picard = 3;
    let zero = |_: &[f64; 3]| [0.0; 3];
    timed(|| {
        for _ in 0..steps {
            solver.step(&zero);
        }
    })
    .1
}

/// Table 5 — the classroom, immersed (IMGA-style complete octree) vs carved:
/// mesh and solve time and the excess-element fraction `f_excess`. The
/// paper's configs are (base, exit, body) = (6,8,10), (6,9,10), (7,9,11);
/// the furniture's high surface/volume leaves little to carve.
pub fn table5(opts: &Opts) -> Result<Report, String> {
    let configs: &[(u8, u8)] = if opts.large {
        &[(6, 9)]
    } else {
        &[(5, 6), (5, 7)]
    };
    let steps = opts.steps.unwrap_or(1);
    let mut table = Table::new(
        "Table 5: classroom — immersed vs carved (f_excess = immersed/carved elements)",
        &[
            "base",
            "body",
            "carved elems",
            "immersed elems",
            "f_excess",
            "imm mesh (s)",
            "carve mesh (s)",
            "imm solve (s)",
            "carve solve (s)",
            "mesh speedup",
            "solve speedup",
        ],
    );
    for &(base, body) in configs {
        let scene = ClassroomScene::new(true, (1, 1));
        let (carved, t_carve_mesh) =
            timed(|| Mesh::build(&scene.domain, Curve::Hilbert, base, body, 1));
        let (immersed, t_imm_mesh) =
            timed(|| ImmersedMesh::build(&scene.domain, Curve::Hilbert, base, body, 1));
        let f_excess = immersed.mesh.num_elems() as f64 / carved.num_elems() as f64;
        let t_carve_solve = classroom_solve_secs(&carved, &scene, steps);
        let t_imm_solve = classroom_solve_secs(&immersed.mesh, &scene, steps);
        table.row(&[
            base.to_string(),
            body.to_string(),
            carved.num_elems().to_string(),
            immersed.mesh.num_elems().to_string(),
            format!("{f_excess:.2}"),
            format!("{t_imm_mesh:.2}"),
            format!("{t_carve_mesh:.2}"),
            format!("{t_imm_solve:.2}"),
            format!("{t_carve_solve:.2}"),
            format!("{:.1}x", t_imm_mesh / t_carve_mesh),
            format!("{:.1}x", t_imm_solve / t_carve_solve),
        ]);
    }
    Ok(Report {
        tables: vec![(table, Some("results/table5_classroom.csv"))],
        check: "paper shape check: f_excess ~1.4-1.6 (high surface/volume objects),\n\
                solve speedup > mesh speedup > 1, both smaller than the channel case."
            .into(),
        ..Report::default()
    })
}
