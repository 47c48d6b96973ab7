//! The smoke counter probe must be deterministic modulo wall-clock: two runs
//! in the same process produce identical phases, call counts, and counters,
//! and every layer puts the counters asserted below on the record.

use carve_bench::smoke::run_smoke;
use carve_io::Json;

/// Recursively drops every object field named `"secs"`, `"retries"` or
/// `"backoff_ns"` — the nondeterministic parts of a smoke report. Wall
/// clock is obvious; the retry counters are timing-dependent because a
/// dropped frame is recovered either by the receive-side retry timer
/// (counted) or by a racing duplicate/mangled arrival (not), while
/// `drops_detected`/`corrupt_detected` are keyed off the *injection* and
/// stay pure functions of the chaos seed.
fn strip_secs(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "secs" && k != "retries" && k != "backoff_ns")
                .map(|(k, v)| (k.clone(), strip_secs(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_secs).collect()),
        other => other.clone(),
    }
}

fn phase<'a>(report: &'a Json, workload: &str, path: &str) -> &'a Json {
    report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|r| r.get("phases"))
        .and_then(|p| p.get(path))
        .unwrap_or_else(|| panic!("missing phase {path:?} in workload {workload:?}"))
}

fn calls(report: &Json, workload: &str, path: &str) -> f64 {
    phase(report, workload, path)
        .get("calls")
        .and_then(Json::as_f64)
        .expect("calls is a number")
}

fn counter(report: &Json, workload: &str, path: &str, name: &str) -> f64 {
    phase(report, workload, path)
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing counter {name:?} on {workload}/{path}"))
}

/// Sums a counter over every phase of a workload — for counters (like the
/// loss-recovery ones) that land on whichever phase was active when the
/// lane frame was recovered.
fn counter_sum(report: &Json, workload: &str, name: &str) -> f64 {
    fn walk(j: &Json, name: &str, acc: &mut f64) {
        if let Json::Obj(fields) = j {
            for (k, v) in fields {
                if k == "counters" {
                    if let Some(x) = v.get(name).and_then(Json::as_f64) {
                        *acc += x;
                    }
                } else {
                    walk(v, name, acc);
                }
            }
        }
    }
    let mut acc = 0.0;
    let w = report
        .get("workloads")
        .and_then(|w| w.get(workload))
        .unwrap_or_else(|| panic!("missing workload {workload:?}"));
    walk(w, name, &mut acc);
    acc
}

#[test]
fn smoke_report_is_deterministic_modulo_secs() {
    let a = run_smoke();
    let b = run_smoke();
    assert_eq!(
        strip_secs(&a).to_string_pretty(),
        strip_secs(&b).to_string_pretty(),
        "two smoke runs disagree beyond the secs fields"
    );

    // The acceptance phases: matvec breakdown and ghost-exchange bytes must
    // be present and non-zero in both workloads. The first apply records
    // the traversal plan (`matvec/record`, with the top-down bucket fills);
    // every apply replays it (`matvec/leaf`, then the `bottom_up` join).
    for w in ["channel", "carved_sphere"] {
        for p in [
            "matvec",
            "matvec/record",
            "matvec/record/top_down",
            "matvec/leaf",
            "matvec/bottom_up",
        ] {
            assert!(calls(&a, w, p) > 0.0, "{w}/{p} has zero calls");
        }
        assert!(counter(&a, w, "matvec/leaf", "leaves") > 0.0);
        assert!(counter(&a, w, "matvec/record/top_down", "node_copies") > 0.0);
        // The leaf stage (DESIGN.md §6d): every leaf is in a run of width 1
        // or wider, each sibling group's parent bucket is swept once, and
        // on these 2:1-balanced meshes no hanging source hangs itself.
        assert_eq!(
            counter_sum(&a, w, "batched_leaves") + counter_sum(&a, w, "scalar_leaves"),
            counter_sum(&a, w, "leaves")
        );
        assert!(counter(&a, w, "matvec/record/leaf", "slot_sweep_hits") > 0.0);
        assert_eq!(counter_sum(&a, w, "hanging_chain"), 0.0);
        // Overlapped exchange: the post happens under `ghost_read` (bytes and
        // per-neighbor messages counted at send time), while the payloads
        // land inside the traversal's `matvec/ghost_wait` sub-phase.
        assert!(counter(&a, w, "ghost_read", "bytes_sent") > 0.0);
        assert!(counter(&a, w, "ghost_read", "msg_count") > 0.0);
        assert!(counter(&a, w, "ghost_read", "neighbor_ranks") > 0.0);
        assert!(calls(&a, w, "matvec/ghost_wait") > 0.0);
        assert!(counter(&a, w, "matvec/ghost_wait", "bytes_received") > 0.0);
        assert!(counter(&a, w, "ghost_accumulate", "bytes_sent") > 0.0);
        // Distributed Krylov stage: every inner-product batch rides one
        // fused all-reduce, and multi-pair batches record the saving.
        assert!(calls(&a, w, "krylov_dist/matvec") > 0.0);
        assert!(counter(&a, w, "krylov_dist", "reductions_fused") > 0.0);
        // Sequential solve phases from the same workload document.
        assert!(calls(&a, w, "assemble") > 0.0);
        assert!(counter(&a, w, "krylov", "iterations") > 0.0);
        // Mesh pipeline phases.
        for p in ["construct", "balance", "nodes", "treesort", "ownership"] {
            assert!(calls(&a, w, p) > 0.0, "{w}/{p} has zero calls");
        }
    }

    // Boundary refinement leaves hanging slots on the sphere, in the matvec
    // and in the assembly traversal alike.
    for p in ["matvec/leaf", "assemble/leaf"] {
        assert!(counter(&a, "carved_sphere", p, "hanging_slots") > 0.0);
    }

    // Recovery workload: a lossy-chaos solve with one injected rank kill.
    // The supervisor retried exactly once, every rank restored from its
    // checkpoint, and the lane retry protocol recovered injected drops and
    // corruption (counts are seed-deterministic; the timing-dependent
    // `retries`/`backoff_ns` are stripped above instead of asserted).
    assert!(calls(&a, "recovery", "krylov_recovery") > 0.0);
    assert!(calls(&a, "recovery", "krylov_recovery/matvec") > 0.0);
    assert_eq!(
        counter(&a, "recovery", "recovery/retry", "solve_retries"),
        1.0
    );
    assert!(calls(&a, "recovery", "recovery/restore") > 0.0);
    assert!(counter_sum(&a, "recovery", "ranks_restored") > 0.0);
    assert!(
        counter_sum(&a, "recovery", "drops_detected") > 0.0,
        "lossy chaos must inject (and the lanes recover) dropped frames"
    );
    assert!(
        counter_sum(&a, "recovery", "corrupt_detected") > 0.0,
        "lossy chaos must inject (and the lanes recover) corrupted frames"
    );

    // Transient adapt workload: the dynamic-AMR phases are on record, the
    // marking and rebuild stages ran, refine/coarsen both fired, and the
    // rebuild's ownership pass sent nodes to their brokers.
    for p in ["adapt", "adapt/mark", "adapt/refine", "adapt/finish"] {
        assert!(calls(&a, "transient", p) > 0.0, "transient/{p} missing");
    }
    assert!(counter_sum(&a, "transient", "elements_refined") > 0.0);
    assert!(counter_sum(&a, "transient", "elements_coarsened") > 0.0);
    assert!(counter(&a, "transient", "adapt/finish/ownership", "nodes_brokered") > 0.0);
    assert!(counter_sum(&a, "transient", "iterations") > 0.0);

    // Serving workload: the scenario cache and block solver run a fixed
    // request trace, so every serve counter is a pure function of the seed
    // (and, via the strip_secs diff above, bitwise reproducible). Two
    // scenarios: one miss, two hits, one k=4 block solve, one 32-point
    // query burst each, then a full eviction sweep — counters are summed
    // over the two rank-local caches by the aggregator.
    assert_eq!(
        counter(&a, "serve", "serve/miss_solve", "cache_misses"),
        4.0
    );
    assert!(counter(&a, "serve", "serve/miss_solve", "cache_bytes") > 0.0);
    assert_eq!(counter(&a, "serve", "serve/hit_solve", "cache_hits"), 8.0);
    assert_eq!(counter(&a, "serve", "serve/hit_solve", "serve_solves"), 8.0);
    assert_eq!(
        counter(&a, "serve", "serve/block_solve", "block_solves"),
        4.0
    );
    assert_eq!(counter(&a, "serve", "serve/block_solve", "block_rhs"), 16.0);
    assert_eq!(
        counter(&a, "serve", "serve/point_query", "eval_points"),
        128.0
    );
    assert_eq!(counter(&a, "serve", "serve", "cache_evictions"), 4.0);
    // The warm solves ride fused reductions like every other Krylov stage.
    assert!(counter(&a, "serve", "serve/hit_solve", "reductions_fused") > 0.0);
}

fn report(mean: f64) -> Json {
    Json::parse(&format!(
        r#"{{"workloads": {{
             "w": {{"ranks": 2, "phases": {{
               "matvec": {{"calls": 6, "ranks": 2,
                 "secs": {{"min": {mean}, "mean": {mean}, "max": {mean}}},
                 "counters": {{}}}}}}}}}}}}"#
    ))
    .expect("valid test report")
}

#[test]
fn strip_secs_removes_only_secs() {
    let j = report(0.5);
    let stripped = strip_secs(&j);
    let phase = stripped
        .get("workloads")
        .and_then(|w| w.get("w"))
        .and_then(|r| r.get("phases"))
        .and_then(|p| p.get("matvec"))
        .expect("phase kept");
    assert!(phase.get("secs").is_none());
    assert!(phase.get("calls").is_some());
}
