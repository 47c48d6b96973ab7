//! Acceptance tests for the dynamic AMR loop (ISSUE 7): a transient heat
//! run on the carved sphere must complete several adapt cycles exercising
//! both refinement and coarsening, produce a bitwise-identical serialized
//! `carve-adapt-trace-v1` across traversal thread counts and under lossy
//! chaos, and rebuild ghost/ownership state through one `DistMesh::finish`
//! per cycle.

use carve_comm::{run_spmd, run_spmd_with, FaultPlan, SpmdOptions};
use carve_fem::{run_transient, AdaptiveTimeStepper, TransientConfig};
use carve_geom::{CarvedSolids, Sphere};
use carve_io::adapt_trace_to_json;

fn sphere_domain() -> CarvedSolids<2> {
    CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))])
}

fn canonical_cfg(threads: usize) -> TransientConfig {
    TransientConfig {
        steps: 6,
        adapt_every: 2,
        base_level: 3,
        boundary_level: 5,
        max_level: 6,
        min_level: 2,
        theta_refine: 0.3,
        theta_coarsen: 0.05,
        repart_tol: 2.0,
        dt: 2e-3,
        threads,
        ..TransientConfig::default()
    }
}

/// A hot bump in the lower-left corner, away from the carved sphere: it
/// diffuses outward, so the front refines while its flattened wake — and
/// the over-refined carved boundary far from the bump — coarsens.
fn bump(p: &[f64; 2]) -> f64 {
    let dx = p[0] - 0.18;
    let dy = p[1] - 0.18;
    (-(dx * dx + dy * dy) / 0.008).exp()
}

/// Runs the canonical transient on 3 ranks and returns the serialized
/// adapt trace (asserting every rank serialized the identical text).
fn run_canonical(threads: usize, fault: Option<FaultPlan>) -> String {
    let opts = SpmdOptions {
        fault,
        ..SpmdOptions::default()
    };
    let texts = run_spmd_with(3, opts, move |c| {
        let domain = sphere_domain();
        let res = run_transient(c, &domain, &canonical_cfg(threads), &bump);
        adapt_trace_to_json(&res.trace).to_string_pretty()
    })
    .expect("spmd transient run failed");
    for t in &texts[1..] {
        assert_eq!(*t, texts[0], "ranks disagree on the adapt trace");
    }
    texts.into_iter().next().unwrap()
}

#[test]
fn transient_heat_completes_adapt_cycles_with_refine_and_coarsen() {
    let text = run_canonical(1, None);
    let json = carve_io::Json::parse(&text).expect("trace parses");
    let trace = carve_io::adapt_trace_from_json(&json).expect("trace decodes");
    assert_eq!(trace.ranks, 3);
    assert!(
        trace.cycles.len() >= 3,
        "expected >= 3 adapt cycles, got {}",
        trace.cycles.len()
    );
    let refined: u64 = trace.cycles.iter().map(|c| c.refined).sum();
    let coarsened: u64 = trace.cycles.iter().map(|c| c.coarsened).sum();
    assert!(refined > 0, "no refinement over the whole run:\n{text}");
    assert!(coarsened > 0, "no coarsening over the whole run:\n{text}");
    // Cycles are chained: each starts from the previous element count.
    for w in trace.cycles.windows(2) {
        assert_eq!(w[1].elems_before, w[0].elems_after);
    }
}

#[test]
fn adapt_trace_bitwise_stable_across_threads_and_chaos() {
    let base = run_canonical(1, None);
    let par = run_canonical(4, None);
    assert_eq!(par, base, "trace differs between 1 and 4 threads");
    let lossy = run_canonical(1, Some(FaultPlan::lossy(29)));
    assert_eq!(lossy, base, "trace differs under lossy chaos");
    let par_lossy = run_canonical(4, Some(FaultPlan::lossy(29)));
    assert_eq!(par_lossy, base, "trace differs under threads + chaos");
}

#[test]
fn every_adapt_cycle_rebuilds_through_finish() {
    let results = run_spmd(3, |c| {
        let _obs = carve_obs::force_enabled();
        let domain = sphere_domain();
        let stepper = AdaptiveTimeStepper::new(canonical_cfg(1));
        let res = stepper.run(c, &domain, &bump);
        (res.trace, carve_obs::thread_snapshot())
    });
    let (trace, _) = &results[0];
    let cycles = trace.cycles.len() as u64;
    assert!(
        trace.cycles.iter().any(|c| !c.migrated),
        "every cycle migrated; no cycle rebuilt without a migration"
    );
    for (_, snap) in &results {
        // Migrated or not, each cycle rebuilds with one DistMesh::finish.
        let finishes: u64 = (snap.phases.iter())
            .filter(|(path, _)| path.ends_with("adapt/finish"))
            .map(|(_, s)| s.calls)
            .sum();
        assert_eq!(finishes, cycles, "adapt/finish calls vs adapt cycles");
        // Its ownership pass sends the nodes this rank does not broker.
        let brokered: u64 = (snap.phases.iter())
            .filter(|(path, _)| path.contains("adapt/finish"))
            .map(|(_, s)| s.counters.get("nodes_brokered").copied().unwrap_or(0))
            .sum();
        assert!(
            brokered > 0,
            "no node crossed the partition in adapt/finish"
        );
        // Refine/coarsen activity is accounted under the refine phase.
        let refined_ctr: u64 = snap
            .phases
            .values()
            .map(|s| s.counters.get("elements_refined").copied().unwrap_or(0))
            .sum();
        let coarsened_ctr: u64 = snap
            .phases
            .values()
            .map(|s| s.counters.get("elements_coarsened").copied().unwrap_or(0))
            .sum();
        let refined_trace: u64 = trace.cycles.iter().map(|c| c.refined).sum();
        let coarsened_trace: u64 = trace.cycles.iter().map(|c| c.coarsened).sum();
        assert!(refined_ctr <= refined_trace && coarsened_ctr <= coarsened_trace);
    }
    // Per-rank counters sum to the collective totals in the trace.
    let refined_all: u64 = results
        .iter()
        .flat_map(|(_, s)| s.phases.values())
        .map(|s| s.counters.get("elements_refined").copied().unwrap_or(0))
        .sum();
    let refined_trace: u64 = trace.cycles.iter().map(|c| c.refined).sum();
    assert_eq!(refined_all, refined_trace);
}
