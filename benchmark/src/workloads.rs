//! The four workloads: what each runs, why it was chosen, and how its
//! end-to-end metrics are taken.
//!
//! Load shape: one process, at most two OS threads doing work (2 SPMD ranks
//! × 1 traversal thread, or 1 rank × 1 thread). A repetition is set-up
//! followed by a solve; repetitions run until the `--seconds` budget is
//! used, and never fewer than [`MIN_REPS`].

use crate::api::{self, Comm, MeshSpec, Reduce, Subdomain};
use crate::metrics::{fnv_fold, median, percentile, Checks, Metrics, Rng, FNV_OFFSET};
use crate::serve;
use crate::trace::{Span, Tracer};
use std::cell::{Cell, RefCell};
use std::time::Instant;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sphere_p1",
        why: "p=1 carved sphere, 133K elements on 2 ranks: mesh build and traversal bucketing dominate, the leaf kernel is under half",
    },
    Workload {
        name: "channel_p2",
        why: "p=2 thin channel, 269K dofs on 2 ranks: the 27-node tensor kernel dominates each apply and build is under 10%",
    },
    Workload {
        name: "disk_sbm",
        why: "single-thread SBM Poisson on a 2D disk: assembly, CSR, ASM and BiCGStab only, no communication, true-accuracy check",
    },
    Workload {
        name: "serve_mix",
        why: "closed-loop request mix over three cached scenarios: cache hits and evictions, block-CG, point reads, deep-grain applies",
    },
];

/// SPMD ranks of the distributed workloads.
pub const RANKS: usize = 2;
/// Fewest set-up → solve repetitions of one run.
pub const MIN_REPS: usize = 2;
/// Fewest set-up samples behind `setup_s`; a set-up that takes milliseconds
/// is repeated until [`MIN_SETUP_SECS`] are sampled (at most
/// [`MAX_SETUPS`] times), so that its median is steady.
pub const MIN_SETUPS: usize = 3;
const MIN_SETUP_SECS: f64 = 0.5;
const MAX_SETUPS: usize = 40;

fn more_setups(samples: &[f64]) -> bool {
    samples.len() < MIN_SETUPS
        || (samples.iter().sum::<f64>() < MIN_SETUP_SECS && samples.len() < MAX_SETUPS)
}

const CG_RTOL: f64 = 1e-8;
const CG_MAX_ITER: usize = 5000;
/// Output check of the manufactured solves: `‖x − u*‖ / ‖u*‖`.
const REL_ERROR_MAX: f64 = 1e-6;
/// Output check of `disk_sbm`: L2 error against `u = (R² − r²)/4`.
const DISK_L2_MAX: f64 = 3e-5;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
}

/// What one run of one workload produced.
pub struct RunOutput {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Counts that must repeat exactly for a seed (sizes, iterations,
    /// messages, cache statistics), printed and stored beside the metrics.
    pub exact: Vec<(String, f64)>,
    /// Sample counts and other values that may differ between two runs.
    pub info: Vec<(String, f64)>,
    /// FNV digest of the results, also exact for a seed.
    pub digest: u64,
}

impl RunOutput {
    pub fn new() -> Self {
        RunOutput {
            metrics: Metrics::default(),
            checks: Checks::default(),
            exact: Vec::new(),
            info: Vec::new(),
            digest: FNV_OFFSET,
        }
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), value));
    }

    pub fn note_exact(&mut self, key: &str, value: f64) {
        self.exact.push((key.to_string(), value));
    }
}

// --- The distributed manufactured solve (sphere_p1, channel_p2) ------------------

/// Geometry and mesh of a distributed workload.
pub struct DistCase {
    pub domain: Box<dyn Subdomain<3>>,
    pub spec: MeshSpec,
}

pub fn sphere_p1_case() -> DistCase {
    DistCase {
        domain: api::carved_sphere([0.5; 3], 0.2),
        spec: MeshSpec {
            curve: api::Curve::Hilbert,
            base: 5,
            boundary: 8,
            order: 1,
            scale: 10.0,
        },
    }
}

pub fn channel_p2_case() -> DistCase {
    DistCase {
        domain: api::channel([1.0, 1.0 / 16.0, 1.0 / 16.0]),
        spec: MeshSpec {
            curve: api::Curve::Hilbert,
            base: 6,
            boundary: 8,
            order: 2,
            scale: 16.0,
        },
    }
}

/// The seeded manufactured field: three sine modes of fixed wave vector
/// whose amplitude and phase the seed moves by a few percent. The solver sees
/// a different right-hand side for every seed, while the spectrum it has to
/// resolve, and with it the iteration count, stays put: time to solution is
/// then comparable between seeds.
#[derive(Clone)]
pub struct Field {
    modes: [([f64; 3], f64, f64); 3],
}

/// Wave vector (cycles per unit cube side) and phase of each mode.
const MODES: [([f64; 3], f64); 3] = [
    ([1.0, 2.0, 3.0], 0.3),
    ([3.0, 1.0, 2.0], 1.1),
    ([2.0, 3.0, 1.0], 2.3),
];
/// Largest relative change of an amplitude, and absolute change of a phase.
const SEED_JITTER: f64 = 0.05;

impl Field {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xF1E1_D000);
        let mut jitter = || SEED_JITTER * (2.0 * rng.unit() - 1.0);
        Field {
            modes: MODES.map(|(freq, phase)| (freq, phase + jitter(), 1.0 + jitter())),
        }
    }

    pub fn eval<const D: usize>(&self, x: &[f64; D]) -> f64 {
        self.modes
            .iter()
            .map(|(freq, phase, amp)| {
                let arg: f64 = x.iter().zip(freq).map(|(xi, fi)| xi * fi).sum();
                amp * (std::f64::consts::TAU * arg + phase).sin()
            })
            .sum()
    }
}

/// A [`Reduce`] that records a span and counts a round per batch of dots.
struct TracedReduce<'a, R: Reduce> {
    inner: R,
    tracer: &'a Tracer,
    rounds: Cell<u64>,
}

impl<R: Reduce> Reduce for TracedReduce<'_, R> {
    fn dots(&self, pairs: &[(&[f64], &[f64])], out: &mut [f64]) {
        let _s = self.tracer.span("comm.reduce");
        self.rounds.set(self.rounds.get() + 1);
        self.inner.dots(pairs, out);
    }
}

/// One rank's share of one repetition.
struct RankRep {
    setup_s: f64,
    solve_s: f64,
    /// Wall time from the start of set-up to the end of the solve.
    total_s: f64,
    /// Milliseconds of every operator apply inside the solve.
    apply_ms: Vec<f64>,
    iterations: usize,
    converged: bool,
    sq_error: f64,
    sq_norm: f64,
    digest: u64,
    global_dofs: usize,
    owned_elems: usize,
    reduce_rounds: u64,
    msgs: u64,
    bytes: u64,
    spans: Vec<Span>,
}

/// What every set-up → solve repetition reports, whatever the solver.
pub struct Solved {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Wall time from the start of set-up to the end of the solve.
    pub total_s: f64,
    /// Milliseconds of each operator apply inside the solve (or their mean,
    /// once, where the solver is opaque from outside).
    pub apply_ms: Vec<f64>,
    /// Operator applies of the solve.
    pub applies: usize,
    pub iterations: usize,
    pub converged: bool,
    pub digest: u64,
    pub elems: usize,
    pub dofs: usize,
}

/// One repetition of a distributed workload, both ranks merged.
pub struct DistRep {
    pub solved: Solved,
    pub rel_error: f64,
    pub rms_error: f64,
    pub reduce_rounds: u64,
    /// Messages and bytes sent by all ranks during the solve.
    pub msgs: u64,
    pub bytes: u64,
}

/// The Dirichlet-masked operator `y = M A M x + (I − M) x` of a rank.
pub struct MaskedOp<'a, const D: usize> {
    dm: &'a api::DistMesh<D>,
    comm: &'a Comm,
    mask: Vec<bool>,
    scale: f64,
    ws: RefCell<api::TraversalWorkspace<D>>,
    masked_x: RefCell<Vec<f64>>,
}

impl<'a, const D: usize> MaskedOp<'a, D> {
    pub fn new(dm: &'a api::DistMesh<D>, comm: &'a Comm, scale: f64) -> Self {
        let mask = api::boundary_nodes(api::dist_nodes(dm));
        MaskedOp {
            dm,
            comm,
            scale,
            ws: RefCell::new(api::workspace(1)),
            masked_x: RefCell::new(vec![0.0; mask.len()]),
            mask,
        }
    }

    /// Local nodes (owned and ghost).
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        let mut xm = self.masked_x.borrow_mut();
        for ((m, &xi), &fixed) in xm.iter_mut().zip(x).zip(&self.mask) {
            *m = if fixed { 0.0 } else { xi };
        }
        api::dist_apply(
            self.dm,
            self.comm,
            &xm,
            y,
            &mut self.ws.borrow_mut(),
            self.scale,
        );
        for ((yi, &xi), &fixed) in y.iter_mut().zip(x).zip(&self.mask) {
            if fixed {
                *yi = xi;
            }
        }
    }
}

/// Set-up (mesh build, mask, manufactured right-hand side) and, unless
/// `setup_only`, the CG solve to [`CG_RTOL`] with its output checks.
pub fn dist_rep<const D: usize>(
    domain: &dyn Subdomain<D>,
    spec: &MeshSpec,
    field: &Field,
    tracer: &Tracer,
    id: u32,
    setup_only: bool,
) -> DistRep {
    let _rep = tracer.span("bench.repetition");
    let (on, epoch) = (tracer.is_on(), tracer.epoch());
    let per_rank: Vec<RankRep> = api::spmd(RANKS, |c| {
        let t = Tracer::new(on, epoch, api::rank(c) as u32);
        t.set_id(id);
        api::barrier(c);
        let t0 = Instant::now();
        let dm = {
            let _s = t.span("core.dist_build");
            api::dist_build(c, domain, spec)
        };
        let op = MaskedOp::new(&dm, c, spec.scale);
        let n = op.len();
        let (u_star, b) = {
            let _s = t.span("bench.mask_rhs");
            let u_star = api::field_at_nodes(api::dist_nodes(&dm), &|x| field.eval(x));
            let mut b = vec![0.0; n];
            op.apply(&u_star, &mut b);
            (u_star, b)
        };
        let setup_s = t0.elapsed().as_secs_f64();
        let (owned_elems, global_dofs) = api::dist_counts(&dm);
        let mut rep = RankRep {
            setup_s,
            solve_s: 0.0,
            total_s: setup_s,
            apply_ms: Vec::new(),
            iterations: 0,
            converged: true,
            sq_error: 0.0,
            sq_norm: 1.0,
            digest: FNV_OFFSET,
            global_dofs,
            owned_elems,
            reduce_rounds: 0,
            msgs: 0,
            bytes: 0,
            spans: Vec::new(),
        };
        if !setup_only {
            api::barrier(c);
            let before = api::comm_stats(c);
            let t1 = Instant::now();
            let samples = RefCell::new(Vec::new());
            let reduce = TracedReduce {
                inner: api::dist_reducer(&dm, c),
                tracer: &t,
                rounds: Cell::new(0),
            };
            let mut x = vec![0.0; n];
            let result = {
                let _s = t.span("la.cg");
                let apply = |xv: &[f64], yv: &mut [f64]| {
                    let _a = t.span("core.dist_apply");
                    let ta = Instant::now();
                    op.apply(xv, yv);
                    samples.borrow_mut().push(ta.elapsed().as_secs_f64() * 1e3);
                };
                let r = api::cg(apply, &b, &mut x, CG_RTOL, CG_MAX_ITER, &reduce);
                t.count("iterations", r.iterations as f64);
                r
            };
            rep.solve_s = t1.elapsed().as_secs_f64();
            rep.total_s = t0.elapsed().as_secs_f64();
            let after = api::comm_stats(c);
            rep.msgs = after.messages - before.messages;
            rep.bytes = after.bytes_sent - before.bytes_sent;
            rep.apply_ms = samples.into_inner();
            rep.iterations = result.iterations;
            rep.converged = result.converged;
            rep.reduce_rounds = reduce.rounds.get();
            // Error against the manufactured field and the result digest,
            // over the nodes this rank owns.
            let owned = api::owned_nodes(&dm, c);
            let mut kept = Vec::with_capacity(n);
            let (mut se, mut sn) = (0.0, 0.0);
            for i in (0..n).filter(|&i| owned[i]) {
                se += (x[i] - u_star[i]).powi(2);
                sn += u_star[i].powi(2);
                kept.push(x[i]);
            }
            let sums = api::allreduce_sum(c, &[se, sn]);
            rep.sq_error = sums[0];
            rep.sq_norm = sums[1];
            rep.digest = fnv_fold(FNV_OFFSET, &kept);
        }
        rep.spans = t.into_spans();
        rep
    });
    let lead = &per_rank[0];
    let mut out = DistRep {
        solved: Solved {
            setup_s: 0.0,
            solve_s: 0.0,
            total_s: 0.0,
            apply_ms: Vec::new(),
            applies: lead.apply_ms.len(),
            iterations: lead.iterations,
            converged: per_rank.iter().all(|r| r.converged),
            digest: FNV_OFFSET,
            elems: per_rank.iter().map(|r| r.owned_elems).sum(),
            dofs: lead.global_dofs,
        },
        rel_error: (lead.sq_error / lead.sq_norm).sqrt(),
        rms_error: (lead.sq_error / lead.global_dofs as f64).sqrt(),
        reduce_rounds: lead.reduce_rounds,
        msgs: per_rank.iter().map(|r| r.msgs).sum(),
        bytes: per_rank.iter().map(|r| r.bytes).sum(),
    };
    let all = &mut out.solved;
    for r in per_rank {
        // The slower rank sets the time of every step both wait on.
        all.setup_s = all.setup_s.max(r.setup_s);
        all.solve_s = all.solve_s.max(r.solve_s);
        all.total_s = all.total_s.max(r.total_s);
        if all.apply_ms.is_empty() {
            all.apply_ms = r.apply_ms;
        } else {
            for (a, b) in all.apply_ms.iter_mut().zip(&r.apply_ms) {
                *a = a.max(*b);
            }
        }
        all.digest = fnv_fold(all.digest, &[f64::from_bits(r.digest)]);
        tracer.absorb(r.spans);
    }
    out
}

/// Repeats `rep` until the time budget is used: a further repetition starts
/// only if it is expected to end within `seconds`, after [`MIN_REPS`].
/// Also returns the peak resident set after the first repetition: what one
/// pass from a fresh process needs. Later repetitions add only what the
/// allocator happened to keep from earlier ones, which differs from run to
/// run by tens of MB.
fn repeat<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut first_pass_rss_mb = 0.0;
    loop {
        let t = Instant::now();
        out.push(rep(out.len()));
        let last = t.elapsed().as_secs_f64();
        if out.len() == 1 {
            first_pass_rss_mb = crate::machine::peak_rss_mb();
        }
        if out.len() >= MIN_REPS && start.elapsed().as_secs_f64() + last > seconds {
            return (out, first_pass_rss_mb);
        }
    }
}

/// The end-to-end metrics and the checks every set-up → solve workload
/// shares: medians over repetitions, every repetition converged, and
/// iterations and result digest identical across repetitions.
fn summarise(name: &str, reps: &[&Solved], setups: &[f64], first_pass_rss_mb: f64) -> RunOutput {
    let mut out = RunOutput::new();
    let of = |f: &dyn Fn(&Solved) -> f64| -> Vec<f64> { reps.iter().map(|r| f(r)).collect() };
    let applies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.apply_ms.iter().copied())
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(setups));
    m.set("solve_s", median(&of(&|r| r.solve_s)));
    m.set("tts_s", median(&of(&|r| r.total_s)));
    m.set("matvec_ms_p50", median(&applies));
    m.set("matvec_ms_p90", percentile(&applies, 0.9));
    m.set(
        "dofs_per_s",
        median(&of(&|r| (r.dofs * r.applies) as f64 / r.solve_s)),
    );
    m.set("iterations", reps[0].iterations as f64);
    m.set("peak_rss_mb", first_pass_rss_mb);

    for (i, r) in reps.iter().enumerate() {
        out.checks.check(r.converged, || {
            format!("{name}: repetition {i} did not converge")
        });
        // Nothing untimed sits between set-up and solve.
        let parts = r.setup_s + r.solve_s;
        out.checks
            .check((r.total_s - parts).abs() <= 0.01 * r.total_s, || {
                format!(
                    "{name}: repetition {i} took {} s, set-up + solve {parts} s",
                    r.total_s
                )
            });
    }
    let iterations: Vec<usize> = reps.iter().map(|r| r.iterations).collect();
    let digests: Vec<u64> = reps.iter().map(|r| r.digest).collect();
    out.checks
        .check(iterations.windows(2).all(|w| w[0] == w[1]), || {
            format!("{name}: iterations differ across repetitions: {iterations:?}")
        });
    out.checks
        .check(digests.windows(2).all(|w| w[0] == w[1]), || {
            format!("{name}: result digests differ across repetitions: {digests:x?}")
        });
    out.digest = reps[0].digest;
    out.note_exact("elements", reps[0].elems as f64);
    out.note_exact("dofs", reps[0].dofs as f64);
    out.note_exact("iterations", reps[0].iterations as f64);
    out.note("repetitions", reps.len() as f64);
    out.note("setup_samples", setups.len() as f64);
    out.note("matvec_samples", applies.len() as f64);
    out
}

fn run_dist(name: &str, case: &DistCase, cfg: &RunConfig, tracer: &Tracer) -> RunOutput {
    let field = Field::new(cfg.seed);
    let rep = |id: usize, setup_only: bool| {
        dist_rep::<3>(
            &*case.domain,
            &case.spec,
            &field,
            tracer,
            id as u32,
            setup_only,
        )
    };
    let (reps, first_pass_rss_mb) = repeat(cfg.seconds, |i| rep(i, false));
    let mut setups: Vec<f64> = reps.iter().map(|r| r.solved.setup_s).collect();
    while more_setups(&setups) {
        setups.push(rep(setups.len(), true).solved.setup_s);
    }
    let solved: Vec<&Solved> = reps.iter().map(|r| &r.solved).collect();
    let mut out = summarise(name, &solved, &setups, first_pass_rss_mb);
    for (i, r) in reps.iter().enumerate() {
        out.checks.check(r.rel_error <= REL_ERROR_MAX, || {
            format!(
                "{name}: repetition {i} rel_error {:e} > {REL_ERROR_MAX:e}",
                r.rel_error
            )
        });
    }
    out.note_exact("solve_messages", reps[0].msgs as f64);
    out.note_exact("solve_bytes", reps[0].bytes as f64);
    out.note_exact("rel_error", reps[0].rel_error);
    out
}

// --- disk_sbm --------------------------------------------------------------------

pub fn disk() -> api::Disk {
    api::Disk::new([0.5, 0.5], 0.5)
}

pub const DISK_SPEC: MeshSpec = MeshSpec {
    curve: api::Curve::Morton,
    base: 7,
    boundary: 7,
    order: 1,
    scale: 1.0,
};

pub struct DiskRep {
    pub solved: Solved,
    pub l2_error: f64,
    pub rel_error: f64,
}

pub fn disk_rep(disk: &api::Disk, tracer: &Tracer, id: u32) -> DiskRep {
    tracer.set_id(id);
    let _rep = tracer.span("bench.repetition");
    let t0 = Instant::now();
    let mesh = {
        let _s = tracer.span("core.mesh_build");
        api::mesh_build(&disk.domain, &DISK_SPEC)
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let sol = {
        let _s = tracer.span("fem.solve_poisson");
        let sol = api::solve_disk_sbm(&mesh, disk);
        tracer.count("iterations", sol.krylov.iterations as f64);
        tracer.count("nnz", sol.nnz as f64);
        sol
    };
    let solve_s = t1.elapsed().as_secs_f64();
    let total_s = t0.elapsed().as_secs_f64();
    let (l2_error, l2_norm) = {
        let _s = tracer.span("fem.l2_error");
        api::disk_l2_error(&mesh, disk, &sol.u)
    };
    // BiCGStab applies the preconditioned operator twice per iteration; the
    // solver is opaque from outside, so a solve yields one sample, the mean
    // time of its applies.
    let applies = 2 * sol.krylov.iterations;
    let (elems, dofs) = api::mesh_counts(&mesh);
    DiskRep {
        solved: Solved {
            setup_s,
            solve_s,
            total_s,
            apply_ms: vec![solve_s * 1e3 / applies as f64],
            applies,
            iterations: sol.krylov.iterations,
            converged: sol.krylov.converged,
            digest: fnv_fold(FNV_OFFSET, &sol.u),
            elems,
            dofs,
        },
        l2_error,
        rel_error: l2_error / l2_norm,
    }
}

fn run_disk(cfg: &RunConfig, tracer: &Tracer) -> RunOutput {
    let disk = disk();
    let (reps, first_pass_rss_mb) = repeat(cfg.seconds, |i| disk_rep(&disk, tracer, i as u32));
    let mut setups: Vec<f64> = reps.iter().map(|r| r.solved.setup_s).collect();
    while more_setups(&setups) {
        let t0 = Instant::now();
        std::hint::black_box(api::mesh_build(&disk.domain, &DISK_SPEC));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let solved: Vec<&Solved> = reps.iter().map(|r| &r.solved).collect();
    let mut out = summarise("disk_sbm", &solved, &setups, first_pass_rss_mb);
    for (i, r) in reps.iter().enumerate() {
        out.checks.check(r.l2_error <= DISK_L2_MAX, || {
            format!(
                "disk_sbm: repetition {i} L2 error {:e} > {DISK_L2_MAX:e}",
                r.l2_error
            )
        });
    }
    out.note_exact("l2_error", reps[0].l2_error);
    out
}

// --- serve_mix -------------------------------------------------------------------

fn run_serve(cfg: &RunConfig, tracer: &Tracer) -> RunOutput {
    let requests = serve::request_count(cfg.seconds);
    let run = serve::run(cfg.seed, requests, serve::COLD_CYCLES, tracer);
    let mut out = RunOutput::new();
    let hit_ms = run.times_ms(|r| r.kind == serve::Kind::Solve && r.hit);
    let solved: Vec<&serve::Served> = run
        .served
        .iter()
        .filter(|r| r.kind != serve::Kind::Points)
        .collect();
    let work: f64 = solved.iter().map(|r| r.dof_applies).sum();
    let work_s: f64 = solved.iter().map(|r| r.secs).sum();
    let loop_s: f64 = run.served.iter().map(|r| r.secs).sum();
    let setup_s = median(&run.cold_cycle_s);

    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("solve_s", loop_s);
    m.set("tts_s", setup_s + loop_s);
    let per_apply = 1.0 / serve::SOLVE_ITERS as f64;
    m.set("matvec_ms_p50", median(&hit_ms) * per_apply);
    m.set("matvec_ms_p90", percentile(&hit_ms, 0.9) * per_apply);
    m.set("dofs_per_s", work / work_s);
    m.set("iterations", serve::SOLVE_ITERS as f64);
    m.set("peak_rss_mb", run.first_pass_rss_mb);

    out.checks = run.checks.clone();
    out.digest = run.digest;
    out.note_exact("requests", run.served.len() as f64);
    out.note_exact("hit_solve_samples", hit_ms.len() as f64);
    out.note_exact("hit_ratio", run.hit_ratio());
    out.note_exact("evictions", run.evictions as f64);
    out.note_exact("cache_cap_bytes", run.cap_bytes as f64);
    out.note("setup_samples", run.cold_cycle_s.len() as f64);
    out
}

/// The untraced run of one workload: its end-to-end metrics and checks.
pub fn run(name: &str, cfg: &RunConfig, tracer: &Tracer) -> Option<RunOutput> {
    Some(match name {
        "sphere_p1" => run_dist(name, &sphere_p1_case(), cfg, tracer),
        "channel_p2" => run_dist(name, &channel_p2_case(), cfg, tracer),
        "disk_sbm" => run_disk(cfg, tracer),
        "serve_mix" => run_serve(cfg, tracer),
        _ => return None,
    })
}
