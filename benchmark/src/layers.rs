//! The traced run: one repetition of the workload under the span recorder,
//! then every layer timed from outside around its public calls.
//!
//! Probes of the mesh, traversal, communication and leaf layers run on the
//! workload's own geometry (its *subject*). The `la` and SBM probes always
//! run on the `disk_sbm` system and the serving probes on the `serve_mix`
//! scenarios, because no other workload exercises those layers; on
//! `disk_sbm` and `serve_mix` that is the workload itself.

use crate::api::{self, MeshSpec, Subdomain};
use crate::metrics::{median, percentile, Checks, Metrics, Rng};
use crate::serve::{self, Kind, ServeRun};
use crate::trace::{Span, Tracer};
use crate::workloads::{self, Field, MaskedOp, RunConfig, RunOutput, RANKS};
use std::hint::black_box;
use std::time::Instant;

/// Requests of the serving probe on workloads other than `serve_mix`.
const SERVE_PROBE_REQUESTS: usize = 60;
/// Triplet budget of the assembly probe (elements × npe²).
const ASSEMBLE_TRIPLETS: usize = 2_000_000;
/// Wall-clock budget of each repeated-apply probe.
const APPLY_PROBE_SECS: f64 = 1.0;

fn secs_of<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Median seconds of `n` calls after one warm-up call.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..n).map(|_| secs_of(&mut f).0).collect();
    median(&samples)
}

/// How many samples of a call that takes `one_s` fit the probe budget.
fn sample_count(one_s: f64) -> usize {
    ((APPLY_PROBE_SECS / one_s.max(1e-6)) as usize).clamp(5, 50)
}

// --- Roofline ---------------------------------------------------------------------

pub struct Roof {
    pub triad_gbs: f64,
    pub peak_gflops: f64,
    pub array_bytes: usize,
    pub cache_bytes: u64,
}

/// STREAM-style triad and a multiply-add loop, single thread, taken in the
/// same process as the kernels they bound. Each triad array is at least
/// four times L2 + L3.
pub fn roofline(tracer: &Tracer) -> Roof {
    let _s = tracer.span("roof");
    let (l2, l3) = crate::machine::l2_l3_bytes();
    let cache_bytes = l2 + l3;
    let array_bytes = (4 * cache_bytes as usize).max(64 << 20);
    let n = array_bytes / 8;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let triad_s = (0..5)
        .map(|_| {
            secs_of(|| {
                for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                    *ai = bi + s * ci;
                }
                black_box(&mut a);
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    let triad_gbs = 3.0 * array_bytes as f64 / triad_s * 1e-9;

    const LANES: usize = 24;
    const STEPS: usize = 20_000_000;
    let (m, k) = (black_box(0.999_999_9f64), black_box(1e-9f64));
    let peak_s = (0..3)
        .map(|_| {
            secs_of(|| {
                let mut acc = [1.0f64; LANES];
                for _ in 0..STEPS {
                    for v in acc.iter_mut() {
                        *v = *v * m + k;
                    }
                }
                black_box(acc);
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    let peak_gflops = (2 * LANES * STEPS) as f64 / peak_s * 1e-9;
    Roof {
        triad_gbs,
        peak_gflops,
        array_bytes,
        cache_bytes,
    }
}

// --- Probes on the workload's subject -------------------------------------------

pub struct Subject<'a, const D: usize> {
    pub domain: &'a dyn Subdomain<D>,
    pub spec: MeshSpec,
}

/// What the distributed probes of one rank return.
struct DistProbe {
    treesort_s: f64,
    build_s: f64,
    finish_s: f64,
    ghost_nodes: usize,
    local_nodes: usize,
    neighbors: usize,
    apply_ms: Vec<f64>,
    msgs: u64,
    bytes: u64,
    ghost_read_us: f64,
    ghost_accumulate_us: f64,
    allreduce_us: Vec<f64>,
    coll_rounds_per_iter: f64,
    obs_apply_ms: Vec<f64>,
    obs: api::ObsSnapshot,
    spans: Vec<Span>,
}

/// Mesh, traversal, communication and leaf layers on `subject`; sets every
/// `sfc.*`, `geom.*`, `core.*`, `comm.*`, `fem.leaf_*`, `io.*` and `obs.*`
/// metric.
pub fn subject_probes<const D: usize>(
    subject: &Subject<D>,
    seed: u64,
    roof: &Roof,
    out: &mut RunOutput,
    tracer: &Tracer,
) {
    let _s = tracer.span("bench.subject_probes");
    let Subject { domain, spec } = *subject;
    let mut rng = Rng::new(seed ^ 0x7AEE_5027);
    let field = Field::new(seed);

    // Sequential build, and the pieces it is made of.
    let (mesh_build_s, mesh) = {
        let _s = tracer.span("core.mesh_build");
        secs_of(|| api::mesh_build(domain, &spec))
    };
    let (n_elems, n_nodes) = api::mesh_counts(&mesh);
    tracer.count("elements", n_elems as f64);
    tracer.count("nodes", n_nodes as f64);
    let per = |secs: f64, count: usize| secs * 1e9 / count.max(1) as f64;

    let mut shuffled = api::mesh_elems(&mesh).to_vec();
    rng.shuffle(&mut shuffled);
    let treesort_s = {
        let _s = tracer.span("sfc.treesort");
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let mut leaves = shuffled.clone();
                let (s, ()) = secs_of(|| api::treesort(&mut leaves, spec.curve));
                out.checks.check(leaves == api::mesh_elems(&mesh), || {
                    "treesort of the shuffled leaves does not restore SFC order".into()
                });
                s
            })
            .collect();
        median(&samples)
    };
    let classify_s = {
        let _s = tracer.span("geom.classify");
        median_secs(3, || {
            for e in api::mesh_elems(&mesh) {
                black_box(api::classify(domain, e));
            }
        })
    };
    let (construct_s, constrained) = {
        let _s = tracer.span("core.construct_constrained");
        secs_of(|| api::construct_constrained(domain, spec.curve, api::mesh_elems(&mesh)))
    };
    let (balance_s, balanced) = {
        let _s = tracer.span("core.construct_balanced");
        secs_of(|| api::construct_balanced(domain, spec.curve, api::mesh_elems(&mesh)))
    };
    out.checks.check(
        constrained == api::mesh_elems(&mesh) && balanced == api::mesh_elems(&mesh),
        || "re-constructing from balanced leaves changed the leaves".into(),
    );
    let (nodes_s, nodes) = {
        let _s = tracer.span("core.enumerate_nodes");
        secs_of(|| api::enumerate_nodes(domain, api::mesh_elems(&mesh), spec.order))
    };
    out.checks.check(nodes.len() == n_nodes, || {
        "enumerate_nodes disagrees with the mesh's node count".into()
    });

    // Plain baseline apply: 1 rank × 1 thread; then 1 rank × 2 threads.
    let x = api::field_at_nodes(api::mesh_nodes(&mesh), &|p| field.eval(p));
    let mut y = vec![0.0; n_nodes];
    let mut ws1 = api::workspace::<D>(1);
    let (first_s, ()) = secs_of(|| api::serial_apply(&mesh, &x, &mut y, &mut ws1, spec.scale));
    let n_applies = sample_count(first_s);
    let serial_s = {
        let _s = tracer.span("core.matvec_serial");
        median_secs(n_applies, || {
            y.fill(0.0);
            api::serial_apply(&mesh, &x, &mut y, &mut ws1, spec.scale);
        })
    };
    let serial_y = y.clone();
    let mut ws2 = api::workspace::<D>(2);
    let forkjoin_s = {
        let _s = tracer.span("core.matvec_forkjoin");
        median_secs(n_applies, || {
            y.fill(0.0);
            api::forkjoin_apply(&mesh, &x, &mut y, &mut ws2, spec.scale);
        })
    };
    out.checks.check(
        y.iter()
            .zip(&serial_y)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        || "fork-join apply is not bitwise equal to the serial apply".into(),
    );

    // The leaf kernel alone, over as many width-8 panels as the mesh has.
    let mut leaf = api::LeafPanel::<D>::new(spec.order as usize);
    let npe = leaf.nodes_per_elem();
    let panels = n_elems.div_ceil(api::BATCH_WIDTH);
    let u_panel: Vec<f64> = (0..npe * api::BATCH_WIDTH)
        .map(|i| (i as f64 * 0.37).sin())
        .collect();
    let mut v_panel = vec![0.0; u_panel.len()];
    let leaf_s = {
        let _s = tracer.span("fem.leaf_kernel");
        median_secs(n_applies, || {
            for _ in 0..panels {
                v_panel.fill(0.0);
                leaf.apply(
                    black_box(1.0),
                    api::BATCH_WIDTH,
                    black_box(&u_panel),
                    &mut v_panel,
                );
                black_box(&mut v_panel);
            }
        })
    };
    let leaf_elems = panels * api::BATCH_WIDTH;
    let leaf_gflops = leaf.flops_per_elem() as f64 * leaf_elems as f64 / leaf_s * 1e-9;
    let leaf_ai = leaf.flops_per_elem() as f64 / leaf.bytes_per_elem() as f64;

    // Write side of the traversal: assembly into triplets, on a prefix of
    // the leaves that keeps the triplet buffer small.
    let assemble_elems = (ASSEMBLE_TRIPLETS / (npe * npe)).clamp(1, n_elems);
    let (assemble_s, (_, triplets)) = {
        let _s = tracer.span("core.assemble");
        secs_of(|| api::assemble_stiffness(&mesh, 0..assemble_elems, spec.scale))
    };
    // Hanging-node stencils add triplets, never remove any.
    out.checks
        .check(triplets >= assemble_elems * npe * npe, || {
            format!("assembly wrote {triplets} triplets for {assemble_elems} elements")
        });

    // Checkpoint round trip of a solution-sized vector.
    let (ckpt_s, text) = {
        let _s = tracer.span("io.checkpoint_write");
        secs_of(|| api::checkpoint_write(&serial_y))
    };
    let back = {
        let _s = tracer.span("io.checkpoint_read");
        api::checkpoint_read(&text)
    };
    out.checks.check(
        back.as_ref().is_ok_and(|b| {
            b.len() == serial_y.len()
                && b.iter()
                    .zip(&serial_y)
                    .all(|(p, q)| p.to_bits() == q.to_bits() || (*p == 0.0 && *q == 0.0))
        }),
        || "checkpoint round trip is not bit-exact".into(),
    );

    // Two ranks: partitioned sort, build, finish, applies, exchanges.
    let n_dist = sample_count(serial_s / RANKS as f64);
    let probes: Vec<DistProbe> = {
        let _s = tracer.span("bench.dist_probes");
        let trace = (tracer.is_on(), tracer.epoch());
        let mut probes = api::spmd(RANKS, |c| {
            dist_probe(c, subject, &shuffled, &field, n_dist, trace)
        });
        for p in &mut probes {
            tracer.absorb(std::mem::take(&mut p.spans));
        }
        probes
    };
    let max_of = |f: &dyn Fn(&DistProbe) -> f64| probes.iter().map(f).fold(0.0, f64::max);
    let slowest = |f: &dyn Fn(&DistProbe) -> &Vec<f64>| -> Vec<f64> {
        let mut v = f(&probes[0]).clone();
        for p in &probes[1..] {
            for (a, b) in v.iter_mut().zip(f(p)) {
                *a = a.max(*b);
            }
        }
        v
    };
    let dist_ms = median(&slowest(&|p| &p.apply_ms));
    let obs_ms = median(&slowest(&|p| &p.obs_apply_ms));
    let report = api::obs_aggregate(&probes.iter().map(|p| p.obs.clone()).collect::<Vec<_>>());

    let m = &mut out.metrics;
    m.set("sfc.treesort_ns_per_oct", per(treesort_s, n_elems));
    m.set("geom.classify_ns_per_call", per(classify_s, n_elems));
    m.set("core.construct_ns_per_elem", per(construct_s, n_elems));
    m.set("core.balance_ns_per_elem", per(balance_s, n_elems));
    m.set("core.nodes_ns_per_node", per(nodes_s, n_nodes));
    m.set("core.mesh_build_s", mesh_build_s);
    m.set("core.matvec_serial_ms", serial_s * 1e3);
    m.set("core.matvec_serial_ns_per_elem", per(serial_s, n_elems));
    m.set("core.matvec_forkjoin_ms", forkjoin_s * 1e3);
    m.set("core.par_eff_2thread", serial_s / (2.0 * forkjoin_s));
    m.set("core.traversal_overhead_frac", 1.0 - leaf_s / serial_s);
    m.set("core.assemble_ns_per_elem", per(assemble_s, assemble_elems));
    m.set("fem.leaf_ms_per_apply", leaf_s * 1e3);
    m.set("fem.leaf_ns_per_elem", per(leaf_s, leaf_elems));
    m.set("fem.leaf_gflops", leaf_gflops);
    m.set("fem.leaf_ai", leaf_ai);
    m.set(
        "fem.leaf_roof_frac",
        leaf_gflops / roof.peak_gflops.min(leaf_ai * roof.triad_gbs),
    );
    m.set("io.ckpt_bytes", text.len() as f64);
    m.set("io.ckpt_write_mb_s", text.len() as f64 / ckpt_s * 1e-6);

    m.set(
        "comm.dist_treesort_ns_per_oct",
        per(max_of(&|p| p.treesort_s), n_elems),
    );
    m.set("core.dist_build_s", max_of(&|p| p.build_s));
    m.set("core.dist_finish_s", max_of(&|p| p.finish_s));
    let ghost: usize = probes.iter().map(|p| p.ghost_nodes).sum();
    let local: usize = probes.iter().map(|p| p.local_nodes).sum();
    m.set("core.ghost_nodes_frac", ghost as f64 / local as f64);
    m.set("core.neighbors", max_of(&|p| p.neighbors as f64));
    m.set("core.matvec_dist_ms", dist_ms);
    m.set(
        "core.par_eff_2rank",
        serial_s * 1e3 / (RANKS as f64 * dist_ms),
    );
    m.set("core.ghost_read_us", max_of(&|p| p.ghost_read_us));
    m.set(
        "core.ghost_accumulate_us",
        max_of(&|p| p.ghost_accumulate_us),
    );
    let applies = n_dist as f64;
    m.set(
        "comm.msgs_per_apply",
        probes.iter().map(|p| p.msgs).sum::<u64>() as f64 / applies,
    );
    m.set(
        "comm.bytes_per_apply",
        probes.iter().map(|p| p.bytes).sum::<u64>() as f64 / applies,
    );
    m.set("comm.coll_rounds_per_iter", probes[0].coll_rounds_per_iter);
    m.set(
        "comm.allreduce_us_p50",
        percentile(&slowest(&|p| &p.allreduce_us), 0.5),
    );
    m.set("obs.overhead_frac", (obs_ms - dist_ms) / dist_ms);
    obs_fractions(&report, m, &mut out.checks);

    out.note_exact("subject_elements", n_elems as f64);
    out.note_exact("subject_nodes", n_nodes as f64);
    out.note("roof_array_bytes", roof.array_bytes as f64);
    out.note("roof_l2_l3_bytes", roof.cache_bytes as f64);
    out.note("apply_samples", n_dist as f64);
}

/// One rank of the two-rank probes. Every rank runs the same number of
/// collective steps.
fn dist_probe<const D: usize>(
    c: &api::Comm,
    subject: &Subject<D>,
    shuffled: &[api::Octant<D>],
    field: &Field,
    n_applies: usize,
    trace: (bool, Instant),
) -> DistProbe {
    let Subject { domain, spec } = *subject;
    let me = api::rank(c);
    let t = Tracer::new(trace.0, trace.1, me as u32);
    let share = shuffled[me * shuffled.len() / RANKS..(me + 1) * shuffled.len() / RANKS].to_vec();
    api::barrier(c);
    let (treesort_s, sorted) = {
        let _s = t.span("comm.dist_treesort");
        secs_of(|| api::dist_treesort(c, share, spec.curve))
    };
    black_box(sorted);

    api::barrier(c);
    let (build_s, dm) = {
        let _s = t.span("core.dist_build");
        secs_of(|| api::dist_build(c, domain, &spec))
    };
    let owned = api::owned_elems(&dm);
    api::barrier(c);
    let (finish_s, finished) = {
        let _s = t.span("core.dist_finish");
        secs_of(|| api::dist_finish(c, domain, &spec, owned))
    };
    drop(finished);
    let (ghost_nodes, owned_nodes, neighbors) = api::ghost_counts(&dm);

    let x = api::field_at_nodes(api::dist_nodes(&dm), &|p| field.eval(p));
    let mut y = vec![0.0; x.len()];
    let mut ws = api::workspace::<D>(1);
    // One apply to grow the workspace, then the timed ones.
    api::dist_apply(&dm, c, &x, &mut y, &mut ws, spec.scale);
    let mut timed_applies = || -> Vec<f64> {
        (0..n_applies)
            .map(|_| {
                api::barrier(c);
                let _s = t.span("core.dist_apply");
                secs_of(|| api::dist_apply(&dm, c, &x, &mut y, &mut ws, spec.scale)).0 * 1e3
            })
            .collect()
    };
    // Messages of the applies alone: the barrier in front of each is a
    // collective too, so count an equal number of bare barriers and take
    // them out.
    let before = api::comm_stats(c);
    let apply_ms = timed_applies();
    let mid = api::comm_stats(c);
    for _ in 0..n_applies {
        api::barrier(c);
    }
    let after = api::comm_stats(c);
    let msgs = (mid.messages - before.messages) - (after.messages - mid.messages);
    let bytes = (mid.bytes_sent - before.bytes_sent) - (after.bytes_sent - mid.bytes_sent);

    let mut v = x.clone();
    let mut exchange_us = |f: &dyn Fn(&mut [f64])| {
        let samples: Vec<f64> = (0..50)
            .map(|_| {
                api::barrier(c);
                secs_of(|| f(&mut v)).0 * 1e6
            })
            .collect();
        median(&samples)
    };
    let exchanges = t.span("core.ghost_exchanges");
    let ghost_read_us = exchange_us(&|v| {
        api::ghost_read(&dm, c, v);
    });
    let ghost_accumulate_us = exchange_us(&|v| {
        api::ghost_accumulate(&dm, c, v);
    });
    drop(exchanges);
    let allreduces = t.span("comm.allreduce");
    let allreduce_us: Vec<f64> = (0..1000)
        .map(|i| secs_of(|| black_box(api::allreduce_sum(c, &[i as f64, 1.0]))).0 * 1e6)
        .collect();

    drop(allreduces);

    // Collective rounds of one CG iteration, counted exactly: the calls of
    // a 20-iteration solve minus those of a 10-iteration one.
    let op = MaskedOp::new(&dm, c, spec.scale);
    let mut b = vec![0.0; x.len()];
    op.apply(&x, &mut b);
    let collective_calls = |iters: usize| {
        let _s = t.span("la.cg");
        let mut sol = vec![0.0; x.len()];
        let before = api::comm_stats(c).collective_calls;
        let apply = |xv: &[f64], yv: &mut [f64]| op.apply(xv, yv);
        api::cg(apply, &b, &mut sol, 0.0, iters, &api::dist_reducer(&dm, c));
        api::comm_stats(c).collective_calls - before
    };
    let coll_rounds_per_iter = (collective_calls(20) - collective_calls(10)) as f64 / 10.0;
    drop(op);

    // The program's own recorder, forced on: one build and the same applies.
    api::barrier(c);
    let guard = api::obs_force();
    api::barrier(c);
    {
        let _s = t.span("obs.dist_build");
        let _b = api::obs_scope("build");
        black_box(api::dist_build(c, domain, &spec));
    }
    let obs_apply_ms = {
        let _s = t.span("obs.dist_applies");
        timed_applies()
    };
    let obs = api::obs_thread_snapshot();
    api::barrier(c);
    drop(guard);

    DistProbe {
        treesort_s,
        build_s,
        finish_s,
        ghost_nodes,
        local_nodes: ghost_nodes + owned_nodes,
        neighbors,
        apply_ms,
        msgs,
        bytes,
        ghost_read_us,
        ghost_accumulate_us,
        allreduce_us,
        coll_rounds_per_iter,
        obs_apply_ms,
        obs,
        spans: t.into_spans(),
    }
}

/// Shares of the program's own `matvec` and `build` phases, from its
/// recorder's report. Children plus `unattributed` sum to 1.
fn obs_fractions(report: &api::ObsReport, m: &mut Metrics, checks: &mut Checks) {
    let secs = |path: &str| api::obs_phase_secs(report, path);
    let retries = api::obs_counter_total(report, "retries");
    m.set("comm.retries", retries as f64);
    checks.check(retries == 0, || {
        format!("{retries} exchange retries in a fault-free run")
    });

    let matvec = secs("matvec");
    let mut rest = 1.0;
    for (metric, child) in [
        ("obs.matvec.top_down_frac", "matvec/top_down"),
        ("obs.matvec.leaf_frac", "matvec/leaf"),
        ("obs.matvec.bottom_up_frac", "matvec/bottom_up"),
        ("obs.matvec.ghost_wait_frac", "matvec/ghost_wait"),
    ] {
        let frac = secs(child) / matvec;
        rest -= frac;
        m.set(metric, frac);
    }
    m.set("obs.matvec.unattributed_frac", rest);

    let build = secs("build");
    let mut rest = 1.0;
    for (metric, children) in [
        (
            "obs.build.construct_frac",
            &["build/refine", "build/construct"][..],
        ),
        ("obs.build.treesort_frac", &["build/treesort"][..]),
        ("obs.build.balance_frac", &["build/balance"][..]),
        ("obs.build.ghost_elems_frac", &["build/ghost_elems"][..]),
        ("obs.build.nodes_frac", &["build/nodes"][..]),
        ("obs.build.ownership_frac", &["build/ownership"][..]),
    ] {
        let frac = children.iter().map(|c| secs(c)).sum::<f64>() / build;
        rest -= frac;
        m.set(metric, frac);
    }
    m.set("obs.build.unattributed_frac", rest);
    checks.check(matvec > 0.0 && build > 0.0, || {
        "the program's recorder reported no matvec or build phase".into()
    });
}

// --- The `la` and SBM layers, on the disk system ----------------------------------

struct LaProbe {
    asm_apply_ms: f64,
    spmv_ms: f64,
}

fn disk_probes(out: &mut RunOutput, tracer: &Tracer) -> LaProbe {
    let _s = tracer.span("bench.disk_probes");
    let disk = workloads::disk();
    let mesh = api::mesh_build(&disk.domain, &workloads::DISK_SPEC);
    let (elems, dofs) = api::mesh_counts(&mesh);
    let (faces_s, faces) = {
        let _s = tracer.span("fem.sbm_faces");
        secs_of(|| api::sbm_faces(&mesh, &disk))
    };
    tracer.count("faces", faces as f64);
    let (a, _) = api::assemble_stiffness(&mesh, 0..elems, 1.0);
    let (asm_setup_s, asm) = {
        let _s = tracer.span("la.asm_setup");
        secs_of(|| api::asm_precond(&a))
    };
    let r: Vec<f64> = (0..dofs).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut z = vec![0.0; dofs];
    let asm_apply_s = {
        let _s = tracer.span("la.asm_apply");
        median_secs(20, || api::precond_apply(&asm, &r, &mut z))
    };
    let spmv_s = {
        let _s = tracer.span("la.spmv");
        median_secs(200, || api::spmv(&a, &r, &mut z))
    };
    out.checks.check(z.iter().all(|v| v.is_finite()), || {
        "CSR matvec on the disk stiffness matrix is not finite".into()
    });
    let m = &mut out.metrics;
    m.set("fem.sbm_faces_s", faces_s);
    m.set("la.asm_setup_s", asm_setup_s);
    m.set("la.asm_apply_ms", asm_apply_s * 1e3);
    m.set("la.spmv_ns_per_nnz", spmv_s * 1e9 / api::nnz(&a) as f64);
    out.note("disk_nnz", api::nnz(&a) as f64);
    out.note("sbm_faces", faces as f64);
    LaProbe {
        asm_apply_ms: asm_apply_s * 1e3,
        spmv_ms: spmv_s * 1e3,
    }
}

// --- The serving layer ----------------------------------------------------------------

/// Sets every `fem.serve_*` metric from one request loop; returns the
/// median time of a `solve` request on a resident scenario, in ms.
fn serve_metrics(run: &ServeRun, out: &mut RunOutput) -> f64 {
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(v, 0.5)
        }
    };
    let hit_ms = run.times_ms(|r| r.kind == Kind::Solve && r.hit);
    let block_ms = run.times_ms(|r| r.kind == Kind::Block4 && r.hit);
    let points_ms = run.times_ms(|r| r.kind == Kind::Points && r.hit);
    let miss_ms = run.times_ms(|r| !r.hit);
    let lookup_us: Vec<f64> = run
        .served
        .iter()
        .filter(|r| r.hit)
        .map(|r| r.lookup_secs * 1e6)
        .collect();
    let loop_s: f64 = run.served.iter().map(|r| r.secs).sum();
    let hit_p50 = p50(&hit_ms);
    let lanes = serve::BLOCK_LANES as f64;
    let m = &mut out.metrics;
    m.set("fem.serve_hit_ratio", run.hit_ratio());
    m.set("fem.serve_evictions", run.evictions as f64);
    m.set(
        "fem.serve_resident_mb",
        run.resident_bytes as f64 / (1 << 20) as f64,
    );
    m.set("fem.serve_lookup_us", p50(&lookup_us));
    m.set("fem.serve_miss_ms_p50", p50(&miss_ms));
    m.set("fem.serve_hit_ms_p50", hit_p50);
    m.set("fem.serve_hit_ms_p90", percentile(&hit_ms, 0.9));
    m.set("fem.serve_block4_ms_per_rhs_p50", p50(&block_ms) / lanes);
    m.set(
        "fem.serve_points_us_per_point_p50",
        p50(&points_ms) * 1e3 / serve::POINTS_PER_READ as f64,
    );
    m.set("fem.serve_req_per_s", run.served.len() as f64 / loop_s);
    m.set("fem.block4_over_4solo", p50(&block_ms) / (lanes * hit_p50));
    m.set("fem.eval_misses", run.eval_misses as f64);
    out.checks.attempted += run.checks.attempted;
    out.checks.failed += run.checks.failed;
    out.checks.notes.extend(run.checks.notes.iter().cloned());
    out.note("serve_requests", run.served.len() as f64);
    out.note("serve_hit_solve_samples", hit_ms.len() as f64);
    hit_p50
}

// --- The traced run of each workload ----------------------------------------------

fn traced_dist(
    name: &str,
    case: &workloads::DistCase,
    cfg: &RunConfig,
    roof: &Roof,
    out: &mut RunOutput,
    tracer: &Tracer,
) {
    let field = Field::new(cfg.seed);
    let rep = workloads::dist_rep::<3>(&*case.domain, &case.spec, &field, tracer, 0, false);
    let solved = &rep.solved;
    out.checks.check(solved.converged, || {
        format!("{name}: traced solve did not converge")
    });
    let apply_s: f64 = solved.apply_ms.iter().sum::<f64>() * 1e-3;
    let m = &mut out.metrics;
    m.set("la.krylov_iters", solved.iterations as f64);
    m.set("la.krylov_overhead_frac", 1.0 - apply_s / solved.solve_s);
    m.set("fem.rel_error", rep.rel_error);
    m.set("fem.l2_error", rep.rms_error);
    out.digest = solved.digest;
    out.note(
        "reduce_rounds_per_iter",
        rep.reduce_rounds as f64 / solved.iterations as f64,
    );
    out.note(
        "solve_msgs_per_apply",
        rep.msgs as f64 / solved.applies as f64,
    );
    let subject = Subject {
        domain: &*case.domain,
        spec: case.spec,
    };
    subject_probes(&subject, cfg.seed, roof, out, tracer);
    disk_probes(out, tracer);
    let run = serve::run(cfg.seed, SERVE_PROBE_REQUESTS, 1, tracer);
    serve_metrics(&run, out);
}

fn traced_disk(cfg: &RunConfig, roof: &Roof, out: &mut RunOutput, tracer: &Tracer) {
    let disk = workloads::disk();
    let rep = workloads::disk_rep(&disk, tracer, 0);
    let solved = &rep.solved;
    out.checks.check(solved.converged, || {
        "disk_sbm: traced solve did not converge".into()
    });
    out.digest = solved.digest;
    let subject = Subject {
        domain: &disk.domain,
        spec: workloads::DISK_SPEC,
    };
    subject_probes(&subject, cfg.seed, roof, out, tracer);
    let la = disk_probes(out, tracer);
    // BiCGStab: two preconditioned applies per iteration.
    let apply_s = solved.applies as f64 * (la.asm_apply_ms + la.spmv_ms) * 1e-3;
    let m = &mut out.metrics;
    m.set("la.krylov_iters", solved.iterations as f64);
    m.set("la.krylov_overhead_frac", 1.0 - apply_s / solved.solve_s);
    m.set("fem.l2_error", rep.l2_error);
    m.set("fem.rel_error", rep.rel_error);
    let run = serve::run(cfg.seed, SERVE_PROBE_REQUESTS, 1, tracer);
    serve_metrics(&run, out);
}

fn traced_serve(cfg: &RunConfig, roof: &Roof, out: &mut RunOutput, tracer: &Tracer) {
    let requests = serve::request_count(cfg.seconds);
    let run = serve::run(cfg.seed, requests, serve::COLD_CYCLES, tracer);
    let hit_ms = serve_metrics(&run, out);
    out.digest = run.digest;
    let (domain, spec) = serve::hot_scenario();
    let subject = Subject {
        domain: &*domain,
        spec,
    };
    subject_probes(&subject, cfg.seed, roof, out, tracer);
    disk_probes(out, tracer);
    let apply_ms = out.metrics.get("core.matvec_dist_ms").unwrap_or(f64::NAN);
    let m = &mut out.metrics;
    m.set("la.krylov_iters", serve::SOLVE_ITERS as f64);
    m.set(
        "la.krylov_overhead_frac",
        1.0 - serve::SOLVE_ITERS as f64 * apply_ms / hit_ms,
    );
    // The serving check is bitwise: lane 0 of a block solve against a solo
    // solve of the same right-hand side.
    m.set("fem.rel_error", run.block_vs_solo_rel_diff);
    m.set("fem.l2_error", run.block_vs_solo_rel_diff);
}

/// The traced run of one workload: every per-layer metric and the spans.
pub fn run(name: &str, cfg: &RunConfig, tracer: &Tracer) -> Option<RunOutput> {
    let mut out = RunOutput::new();
    let roof = roofline(tracer);
    out.metrics.set("roof.triad_gbs", roof.triad_gbs);
    out.metrics.set("roof.peak_gflops", roof.peak_gflops);
    match name {
        "sphere_p1" => traced_dist(
            name,
            &workloads::sphere_p1_case(),
            cfg,
            &roof,
            &mut out,
            tracer,
        ),
        "channel_p2" => traced_dist(
            name,
            &workloads::channel_p2_case(),
            cfg,
            &roof,
            &mut out,
            tracer,
        ),
        "disk_sbm" => traced_disk(cfg, &roof, &mut out, tracer),
        "serve_mix" => traced_serve(cfg, &roof, &mut out, tracer),
        _ => return None,
    }
    Some(out)
}
