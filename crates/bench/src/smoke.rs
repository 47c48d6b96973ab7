//! Seed-pinned counter probe behind `tests/smoke_determinism.rs`, not a
//! timing harness (`benchmark/` is the only one): small fixed workloads —
//! the §4.5.1 channel and a carved sphere, a chaos-recovered solve, the
//! transient adapt loop, a serving replay — with every phase recorded by
//! `carve-obs`. Deterministic modulo the `secs` fields.

use carve_comm::run_spmd;
use carve_core::{DistMesh, GhostState, Mesh};
use carve_fem::{solve_poisson, BcMode, PoissonProblem, StiffnessKernel};
use carve_geom::{CarvedSolids, RetainBox, Sphere, Subdomain};
use carve_io::{report_to_json, Json};
use carve_obs::Snapshot;
use carve_sfc::Curve;

/// Simulated ranks for the distributed stage of each workload.
pub const SMOKE_RANKS: usize = 2;

/// One fixed-size smoke workload.
#[derive(Clone, Copy)]
struct SmokeCase {
    name: &'static str,
    /// Fresh domain per thread (trait objects are built rank-locally).
    domain: fn() -> Box<dyn Subdomain<3>>,
    base: u8,
    boundary: u8,
    /// Physical size of the root cube (for the stiffness kernel / solve).
    scale: f64,
}

fn channel_domain() -> Box<dyn Subdomain<3>> {
    Box::new(RetainBox::channel([1.0, 1.0 / 16.0, 1.0 / 16.0]))
}

fn carved_sphere_domain() -> Box<dyn Subdomain<3>> {
    Box::new(CarvedSolids::new(vec![Box::new(Sphere::new(
        [0.5; 3], 0.2,
    ))]))
}

const CASES: [SmokeCase; 2] = [
    SmokeCase {
        name: "channel",
        domain: channel_domain,
        base: 3,
        boundary: 5,
        scale: 16.0,
    },
    SmokeCase {
        name: "carved_sphere",
        domain: carved_sphere_domain,
        base: 3,
        boundary: 4,
        scale: 10.0,
    },
];

/// Distributed stage: build the `DistMesh` on [`SMOKE_RANKS`] simulated
/// ranks and apply three distributed Poisson MATVECs. Each rank thread is
/// fresh, so its thread snapshot contains exactly this workload's phases.
fn dist_snapshots(case: &SmokeCase) -> Vec<Snapshot> {
    let SmokeCase {
        domain,
        base,
        boundary,
        scale,
        ..
    } = *case;
    run_spmd(SMOKE_RANKS, move |c| {
        let domain = domain();
        let dm = DistMesh::<3>::build(c, &*domain, Curve::Hilbert, base, boundary, 1);
        let x: Vec<f64> = (0..dm.nodes.len())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let mut y = vec![0.0; dm.nodes.len()];
        // One workspace across the three applies: the first records the
        // traversal plan (`matvec/record` in the report), the second and
        // third only replay it.
        let mut ws = carve_core::TraversalWorkspace::new();
        let make_kernel = || StiffnessKernel::<3>::new(1, scale);
        for _ in 0..3 {
            dm.matvec_par(c, &x, &mut y, &mut ws, GhostState::OwnedOnly, &make_kernel);
        }
        assert!(
            y.iter().all(|v| v.is_finite()),
            "matvec produced non-finite values"
        );
        // A few fused-reduction CG iterations through the same operator:
        // puts `reductions_fused` and the Krylov-loop exchange pattern
        // (2 rounds per apply, no trailing consistency read) on the record.
        let ws_cell = std::cell::RefCell::new(ws);
        let op = (dm.nodes.len(), |xv: &[f64], yv: &mut [f64]| {
            let mut kernel = make_kernel();
            dm.matvec_ws(
                c,
                xv,
                yv,
                &mut ws_cell.borrow_mut(),
                GhostState::OwnedOnly,
                &mut kernel,
            );
        });
        let mut sol = vec![0.0; dm.nodes.len()];
        let res = {
            let _obs = carve_obs::scope("krylov_dist");
            let opts = carve_la::SolveOpts {
                reduce: &dm.reducer(c),
                ..carve_la::SolveOpts::new(1e-12, 0.0, 8)
            };
            carve_la::cg(&op, &x, &mut sol, &carve_la::IdentityPrecond, opts)
        };
        assert!(
            res.residual.is_finite(),
            "smoke CG produced a non-finite residual"
        );
        carve_obs::thread_snapshot()
    })
}

/// Sequential stage: assemble and solve `−Δu = 1` with homogeneous strong
/// boundary conditions, in its own thread so the snapshot is clean.
fn solve_snapshot(case: &SmokeCase) -> Snapshot {
    let SmokeCase {
        domain,
        base,
        boundary,
        scale,
        ..
    } = *case;
    std::thread::spawn(move || {
        let domain = domain();
        let mesh = Mesh::build(&*domain, Curve::Hilbert, base, boundary, 1);
        let f = |_: &[f64; 3]| 1.0;
        let zero = |_: &[f64; 3]| 0.0;
        let prob = PoissonProblem {
            scale,
            f: &f,
            dirichlet: &zero,
            closest_boundary: None,
            strong_cube_bc: true,
            bc: BcMode::Naive,
        };
        let sol = solve_poisson(&mesh, &*domain, &prob);
        assert!(
            sol.krylov.converged,
            "smoke solve diverged: {:?}",
            sol.krylov
        );
        carve_obs::thread_snapshot()
    })
    .join()
    .expect("smoke solve thread panicked")
}

/// Checkpoint cadence (iterations) for the recovery workload.
const RECOVERY_CKPT_EVERY: usize = 5;
/// Fixed CG iteration count per attempt of the recovery workload: with
/// `rtol = 0` the solve runs exactly this many iterations, so every call
/// count and loss counter in the report is a pure function of the chaos
/// seed — the determinism the smoke test diffs on.
const RECOVERY_ITERS: usize = 40;

/// Recovery stage: a distributed CG solve under *lossy* chaos (frame drops
/// and corruption recovered by the lane retry protocol) with one injected
/// rank kill mid-solve. The solve supervisor relaunches the cluster, each
/// rank restores from its last [`carve_la::SolveCheckpoint`], and the
/// restarted solve finishes the job — putting `recovery/{retry, restore}`
/// phases and the `drops_detected`/`corrupt_detected` counters on the
/// record.
fn recovery_snapshots() -> Vec<Snapshot> {
    use carve_comm::{Comm, FaultPlan, SpmdOptions};
    use carve_core::{supervise_spmd, CheckpointStore};
    use carve_la::{Checkpointer, SolveOpts};
    use std::sync::Arc;

    let body = |c: &Comm, attempt: usize, store: &CheckpointStore| -> (u64, u64, Snapshot) {
        let domain = channel_domain();
        let dm = DistMesh::<3>::build(c, &*domain, Curve::Hilbert, 3, 4, 1);
        let n = dm.nodes.len();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let ws = std::cell::RefCell::new(carve_core::TraversalWorkspace::new());
        let make_kernel = || StiffnessKernel::<3>::new(1, 16.0);
        let op = (n, |xv: &[f64], yv: &mut [f64]| {
            let mut kernel = make_kernel();
            dm.matvec_ws(
                c,
                xv,
                yv,
                &mut ws.borrow_mut(),
                GhostState::OwnedOnly,
                &mut kernel,
            );
        });
        let rank = c.rank();
        let mut x = vec![0.0; n];
        let mut ck = Checkpointer::new(RECOVERY_CKPT_EVERY)
            .with_sink(|s: &carve_la::SolveCheckpoint| store.save(rank, s));
        if attempt > 0 {
            if let Some(snap) = store.load(rank) {
                let _rec = carve_obs::scope("recovery");
                let _res = carve_obs::scope("restore");
                carve_obs::counter("ranks_restored", 1);
                x.copy_from_slice(&snap.x);
                ck = Checkpointer::new(RECOVERY_CKPT_EVERY)
                    .with_sink(|s: &carve_la::SolveCheckpoint| store.save(rank, s))
                    .resume_from(&snap);
            }
        }
        let ops_cg_start = c.op_count();
        let res = {
            let _obs = carve_obs::scope("krylov_recovery");
            let opts = SolveOpts {
                reduce: &dm.reducer(c),
                checkpoint: Some(&mut ck),
                ..SolveOpts::new(0.0, 0.0, RECOVERY_ITERS)
            };
            carve_la::cg(&op, &b, &mut x, &carve_la::IdentityPrecond, opts)
        };
        assert!(
            res.residual.is_finite(),
            "recovery CG produced a non-finite residual"
        );
        (ops_cg_start, c.op_count(), carve_obs::thread_snapshot())
    };

    // Fault-free probe: measures the CG stage's comm-op span on the victim
    // rank so the kill lands deterministically ~60% into the iteration —
    // past the first checkpoints, well before the end.
    let probe_store = CheckpointStore::new(SMOKE_RANKS);
    let spans = run_spmd(SMOKE_RANKS, |c| {
        let (lo, hi, _) = body(c, 0, &probe_store);
        (lo, hi)
    });
    let (lo, hi) = spans[1];
    let kill_at = lo + (hi - lo) * 6 / 10;

    // Heavier-than-ambient loss so both recovery paths (drop: retry-timer
    // fetch; corruption: checksum-mismatch fetch) fire many times per run.
    let mut fault = FaultPlan::lossy(41).with_kill(1, kill_at);
    fault.drop_prob = 0.25;
    fault.corrupt_prob = 0.25;
    let opts = SpmdOptions {
        fault: Some(fault),
        ..SpmdOptions::default()
    };

    let store = Arc::new(CheckpointStore::new(SMOKE_RANKS));
    std::thread::spawn(move || {
        let ranks = supervise_spmd(SMOKE_RANKS, opts, 2, move |c, attempt| {
            body(c, attempt, &store).2
        })
        .expect("supervisor must recover the smoke solve");
        // The supervisor thread's own snapshot carries the `recovery/retry`
        // phase and `solve_retries` counter.
        let mut snaps = ranks;
        snaps.push(carve_obs::thread_snapshot());
        snaps
    })
    .join()
    .expect("recovery smoke thread panicked")
}

/// Transient stage: the dynamic-AMR heat driver on a 2-D carved sphere —
/// estimator-driven refine/coarsen, each cycle rebuilt by `finish` — so
/// the `adapt/{mark,refine,repartition,finish}` phases and their counters
/// are on the record alongside the static workloads.
fn transient_snapshots() -> Vec<Snapshot> {
    use carve_fem::{run_transient, TransientConfig};
    run_spmd(SMOKE_RANKS, |c| {
        let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
        let cfg = TransientConfig {
            steps: 4,
            adapt_every: 2,
            base_level: 3,
            boundary_level: 5,
            max_level: 6,
            repart_tol: 2.0,
            dt: 2e-3,
            threads: 1,
            ..TransientConfig::default()
        };
        let init = |p: &[f64; 2]| {
            let dx = p[0] - 0.18;
            let dy = p[1] - 0.18;
            (-(dx * dx + dy * dy) / 0.008).exp()
        };
        let res = run_transient(c, &domain, &cfg, &init);
        assert!(
            res.trace.cycles.len() >= 2,
            "transient smoke completed too few adapt cycles"
        );
        assert!(res.u.iter().all(|v| v.is_finite()));
        carve_obs::thread_snapshot()
    })
}

/// Serving stage: the scenario-cache replay in miniature — one cache-miss
/// build+solve, two cache-hit solves, a k=4 block solve, and a point-query
/// burst per workload, then an eviction sweep — so the `serve/*` phases
/// and the `cache_*`/`block_*`/`eval_points` counters are on the record.
/// Fixed iteration counts with `rtol = 0` keep every counter a pure
/// function of the trace.
fn serve_snapshots() -> Vec<Snapshot> {
    use carve_fem::serve::{coord_field, geometry_hash, ScenarioCache, ScenarioSpec, ServedField};
    const SERVE_ITERS: usize = 6;
    run_spmd(SMOKE_RANKS, |c| {
        let _serve = carve_obs::scope("serve");
        let mut cache = ScenarioCache::<3>::with_cap_bytes(usize::MAX);
        for case in &CASES {
            let domain = (case.domain)();
            let spec = ScenarioSpec {
                geometry: geometry_hash(case.name),
                curve: Curve::Hilbert,
                base_level: case.base,
                boundary_level: case.boundary,
                order: 1,
                scale: case.scale,
                mg_min_level: None,
            };
            let source = |x: &[f64; 3]| (3.1 * x[0]).sin() * (2.3 * x[1]).cos() + x[2] + 1.0;
            let b = {
                let _m = carve_obs::scope("miss_solve");
                let entry = cache.get_or_build(c, &*domain, spec);
                let b = coord_field(&entry.dm, &source);
                let mut x = vec![0.0; b.len()];
                entry.solve(c, &b, &mut x, 0.0, SERVE_ITERS);
                b
            };
            for _ in 0..2 {
                let _h = carve_obs::scope("hit_solve");
                let entry = cache.get_or_build(c, &*domain, spec);
                let mut x = vec![0.0; b.len()];
                entry.solve(c, &b, &mut x, 0.0, SERVE_ITERS);
                assert!(x.iter().all(|v| v.is_finite()));
            }
            {
                let _bk = carve_obs::scope("block_solve");
                let entry = cache.get_or_build(c, &*domain, spec);
                let bs: Vec<Vec<f64>> = (0..4)
                    .map(|j| b.iter().map(|v| v * (1.0 + j as f64 * 0.1)).collect())
                    .collect();
                let mut xs: Vec<Vec<f64>> = vec![vec![0.0; b.len()]; 4];
                let b_refs: Vec<&[f64]> = bs.iter().map(|v| v.as_slice()).collect();
                let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(|v| v.as_mut_slice()).collect();
                entry.block_solve(c, &b_refs, &mut x_refs, 0.0, SERVE_ITERS);
            }
            {
                let _q = carve_obs::scope("point_query");
                let entry = cache.get_or_build(c, &*domain, spec);
                let u = coord_field(&entry.dm, &source);
                let sf = ServedField { entry, u: &u };
                // Strictly interior of both retained regions: y, z within
                // the channel's 1/16 cross-section, clear of the sphere.
                let pts: Vec<[f64; 3]> = (0..32)
                    .map(|i| {
                        let t = i as f64 / 32.0;
                        [
                            0.5 + 0.3 * (6.3 * t).cos() * t,
                            0.031 + 0.02 * (5.1 * t).sin(),
                            0.033 + 0.02 * (7.7 * t).cos(),
                        ]
                    })
                    .collect();
                let vals = sf.eval_points(c, &pts);
                assert!(vals.iter().all(|v| v.is_finite()));
            }
        }
        // Eviction sweep: a zero budget must empty the cache (and count it).
        cache.set_cap_bytes(0);
        assert!(cache.is_empty());
        carve_obs::thread_snapshot()
    })
}

/// Runs the smoke workloads (two fixed meshes, the fault-recovery solve,
/// the transient adapt loop and the serving replay) and returns the report
/// document: `{"workloads": {name: {"ranks": ..., "phases": ...}}}`.
pub fn run_smoke() -> Json {
    let _e = carve_obs::force_enabled();
    let mut workloads = Vec::new();
    for case in &CASES {
        let mut snaps = dist_snapshots(case);
        snaps.push(solve_snapshot(case));
        let report = carve_obs::aggregate(&snaps);
        workloads.push((case.name.to_string(), report_to_json(&report)));
    }
    let report = carve_obs::aggregate(&recovery_snapshots());
    workloads.push(("recovery".to_string(), report_to_json(&report)));
    let report = carve_obs::aggregate(&transient_snapshots());
    workloads.push(("transient".to_string(), report_to_json(&report)));
    let report = carve_obs::aggregate(&serve_snapshots());
    workloads.push(("serve".to_string(), report_to_json(&report)));
    Json::Obj(vec![("workloads".into(), Json::Obj(workloads))])
}
