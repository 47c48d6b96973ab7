//! The `serve_mix` request loop: a closed loop with one client (the SPMD
//! driver issues the next request when the previous one returned) over three
//! cached scenarios.
//!
//! The request stream is generated from the seed before the loop starts:
//! exact shares of each scenario and each kind, in seeded order, with seeded
//! right-hand sides and read points. The program only ever sees the
//! generated requests.

use crate::api::{self, Comm, MeshSpec, ScenarioSpec, Subdomain};
use crate::metrics::{fnv_fold, Checks, Rng, FNV_OFFSET};
use crate::trace::{Span, Tracer};
use crate::workloads::RANKS;
use std::time::Instant;

/// CG iterations of every `solve` and `block4` request (`rtol = 0`, so the
/// count is exact).
pub const SOLVE_ITERS: usize = 20;
pub const BLOCK_LANES: usize = 4;
pub const POINTS_PER_READ: usize = 1000;
/// Cold builds of all scenarios before the loop; `setup_s` is their median.
pub const COLD_CYCLES: usize = 3;
/// Requests issued per second of `--seconds` (144 at the default 24 s, which
/// take about that long).
const REQUESTS_PER_SECOND: f64 = 6.0;

pub fn request_count(seconds: f64) -> usize {
    ((seconds * REQUESTS_PER_SECOND).round() as usize).max(20)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Solve,
    Block4,
    Points,
}

/// Share of each kind and of each scenario, in tenths.
const KIND_TENTHS: [(Kind, usize); 3] = [(Kind::Solve, 7), (Kind::Block4, 1), (Kind::Points, 2)];
const SCENARIO_TENTHS: [usize; 3] = [6, 3, 1];
/// Generator state behind the fixed scenario pattern; chosen so that at 144
/// requests every rotation of the pattern has a hit ratio of 0.87 to 0.90
/// under the cache cap below (15 to 19 evictions).
const SCENARIO_PATTERN: u64 = 8;

struct Scenario {
    name: &'static str,
    domain: Box<dyn Subdomain<3>>,
    mesh: MeshSpec,
    /// Seeded point inside the retained region.
    interior_point: fn(&mut Rng) -> [f64; 3],
}

fn outside_sphere(rng: &mut Rng) -> [f64; 3] {
    // Centre 0.5, radius 0.2: stay clear of the sphere and of the cube faces.
    loop {
        let p = [
            0.02 + 0.96 * rng.unit(),
            0.02 + 0.96 * rng.unit(),
            0.02 + 0.96 * rng.unit(),
        ];
        let r2: f64 = p.iter().map(|x| (x - 0.5).powi(2)).sum();
        if r2 > 0.23 * 0.23 {
            return p;
        }
    }
}

fn inside_channel(rng: &mut Rng) -> [f64; 3] {
    let w = 1.0 / 16.0;
    [
        0.01 + 0.98 * rng.unit(),
        w * (0.05 + 0.9 * rng.unit()),
        w * (0.05 + 0.9 * rng.unit()),
    ]
}

/// The hot p=1 sphere (60% of requests), the p=1 channel (30%) and the
/// large p=2 sphere (10%).
fn scenarios() -> [Scenario; 3] {
    let mesh = |base, boundary, order, scale| MeshSpec {
        curve: api::Curve::Hilbert,
        base,
        boundary,
        order,
        scale,
    };
    [
        Scenario {
            name: "sphere:0.5,r0.2:4/6:p1",
            domain: api::carved_sphere([0.5; 3], 0.2),
            mesh: mesh(4, 6, 1, 10.0),
            interior_point: outside_sphere,
        },
        Scenario {
            name: "channel:1,1/16,1/16:5/7:p1",
            domain: api::channel([1.0, 1.0 / 16.0, 1.0 / 16.0]),
            mesh: mesh(5, 7, 1, 16.0),
            interior_point: inside_channel,
        },
        Scenario {
            name: "sphere:0.5,r0.2:4/5:p2",
            domain: api::carved_sphere([0.5; 3], 0.2),
            mesh: mesh(4, 5, 2, 10.0),
            interior_point: outside_sphere,
        },
    ]
}

/// The mesh of the most requested scenario: the subject of the layer
/// probes in the traced run of `serve_mix`.
pub fn hot_scenario() -> (Box<dyn Subdomain<3>>, MeshSpec) {
    let [hot, _, _] = scenarios();
    (hot.domain, hot.mesh)
}

struct Request {
    scenario: usize,
    kind: Kind,
    /// Wave numbers of the right-hand side / the field that is read.
    waves: [f64; 2],
    points: Vec<[f64; 3]>,
}

/// Splits `n` by `tenths` (the remainder goes to the first entry).
fn shares(n: usize, tenths: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for (i, &t) in tenths.iter().enumerate() {
        out.extend(std::iter::repeat_n(i, n * t / 10));
    }
    out.resize(n, 0);
    out
}

/// `n` requests generated from the seed.
///
/// The scenario of each request follows one fixed pattern with exact shares
/// that the seed rotates to a new starting point, so that the number of
/// evictions, and with it the time of the whole loop, moves by one or two
/// misses between seeds and not by a tenth. Within each scenario the kinds
/// have exact shares in seeded order, and every right-hand side and read
/// point is seeded.
fn request_stream(seed: u64, n: usize, scenarios: &[Scenario; 3]) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E27_E000);
    let mut which = shares(n, &SCENARIO_TENTHS);
    Rng::new(SCENARIO_PATTERN).shuffle(&mut which);
    which.rotate_left(rng.below(n));

    let kind_tenths = KIND_TENTHS.map(|(_, t)| t);
    let mut kinds_of: Vec<Vec<usize>> = (0..scenarios.len())
        .map(|s| {
            let count = which.iter().filter(|&&w| w == s).count();
            let mut kinds = shares(count, &kind_tenths);
            rng.shuffle(&mut kinds);
            kinds
        })
        .collect();
    which
        .into_iter()
        .map(|scenario| {
            let kind = KIND_TENTHS[kinds_of[scenario].pop().expect("one kind per request")].0;
            let waves = [2.0 + 2.0 * rng.unit(), 1.5 + 2.0 * rng.unit()];
            let points = if kind == Kind::Points {
                (0..POINTS_PER_READ)
                    .map(|_| (scenarios[scenario].interior_point)(&mut rng))
                    .collect()
            } else {
                Vec::new()
            };
            Request {
                scenario,
                kind,
                waves,
                points,
            }
        })
        .collect()
}

/// A strictly positive smooth field: a point read that misses the mesh
/// returns exactly 0 and is told apart from every real value.
fn smooth(waves: [f64; 2]) -> impl Fn(&[f64; 3]) -> f64 {
    move |x| 2.0 + (waves[0] * x[0]).sin() * (waves[1] * x[1]).cos() + 0.5 * x[2]
}

/// One served request, as the client saw it.
#[derive(Clone, Debug)]
pub struct Served {
    pub kind: Kind,
    /// The scenario was resident when the request arrived.
    pub hit: bool,
    /// Service time: cache lookup (or build) plus the solve or read.
    pub secs: f64,
    pub lookup_secs: f64,
    /// Global dofs × operator applies of the request.
    pub dof_applies: f64,
}

pub struct ServeRun {
    pub cold_cycle_s: Vec<f64>,
    /// Peak resident set of the process once every scenario has been built
    /// for the first time. The peak at the end of the loop adds what the
    /// allocator kept from evicted scenarios, which differs from run to run.
    pub first_pass_rss_mb: f64,
    pub served: Vec<Served>,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: usize,
    pub cap_bytes: usize,
    pub eval_misses: u64,
    /// Largest difference between lane 0 of a block solve and the solo
    /// solve of the same right-hand side, over the largest entry.
    pub block_vs_solo_rel_diff: f64,
    pub checks: Checks,
    pub digest: u64,
}

impl ServeRun {
    pub fn times_ms(&self, keep: impl Fn(&Served) -> bool) -> Vec<f64> {
        self.served
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.secs * 1e3)
            .collect()
    }

    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

struct RankRun {
    cold_cycle_s: Vec<f64>,
    first_pass_rss_mb: f64,
    served: Vec<Served>,
    stats: (u64, u64, u64),
    resident_bytes: usize,
    cap_bytes: usize,
    eval_misses: u64,
    block_vs_solo_rel_diff: f64,
    failures: Vec<String>,
    digest: u64,
    spans: Vec<Span>,
}

fn serve_rank(
    c: &Comm,
    scenarios: &[Scenario; 3],
    stream: &[Request],
    cold_cycles: usize,
    t: &Tracer,
) -> RankRun {
    let specs: Vec<ScenarioSpec> = scenarios
        .iter()
        .map(|s| api::scenario_spec(s.name, &s.mesh))
        .collect();

    // Cold cycles: a fresh cache, every scenario built once.
    let mut cache = api::scenario_cache(usize::MAX);
    let mut cold_cycle_s = Vec::new();
    let mut sizes = [0usize; 3];
    let mut first_pass_rss_mb = 0.0;
    for cycle in 0..cold_cycles {
        drop(std::mem::replace(
            &mut cache,
            api::scenario_cache(usize::MAX),
        ));
        t.set_id(cycle as u32);
        api::barrier(c);
        let t0 = Instant::now();
        let _s = t.span("fem.serve_cold_cycle");
        for (i, s) in scenarios.iter().enumerate() {
            let _b = t.span("fem.serve_build");
            sizes[i] = api::entry_size(api::serve_lookup(&mut cache, c, &*s.domain, specs[i])).0;
        }
        cold_cycle_s.push(t0.elapsed().as_secs_f64());
        if cycle == 0 {
            first_pass_rss_mb = crate::machine::peak_rss_mb();
        }
    }
    // The large scenario and one small one fit, all three do not.
    let small = sizes[0].min(sizes[1]);
    let cap_bytes = sizes[2] + sizes[0].max(sizes[1]) + small / 2;
    api::cache_set_cap(&mut cache, cap_bytes);
    let base = api::cache_counts(&cache);

    let mut served = Vec::with_capacity(stream.len());
    let mut failures = Vec::new();
    let mut digest = FNV_OFFSET;
    let mut eval_misses = 0u64;
    for (i, req) in stream.iter().enumerate() {
        t.set_id(i as u32);
        let _r = t.span("bench.request");
        let sc = &scenarios[req.scenario];
        let spec = specs[req.scenario];
        let hit = api::cache_contains(&cache, &spec);
        api::barrier(c);
        let t0 = Instant::now();
        let entry = {
            let _s = t.span(if hit {
                "fem.serve_lookup"
            } else {
                "fem.serve_build"
            });
            api::serve_lookup(&mut cache, c, &*sc.domain, spec)
        };
        let lookup_secs = t0.elapsed().as_secs_f64();
        let field = api::node_field(entry, &smooth(req.waves));
        let dofs = api::entry_size(entry).1 as f64;
        let (secs, dof_applies) = match req.kind {
            Kind::Solve => {
                let mut x = vec![0.0; field.len()];
                let t1 = Instant::now();
                let res = {
                    let _s = t.span("fem.serve_solve");
                    api::serve_solve(entry, c, &field, &mut x, SOLVE_ITERS)
                };
                let secs = t1.elapsed().as_secs_f64();
                if res.iterations != SOLVE_ITERS || !x.iter().all(|v| v.is_finite()) {
                    failures.push(format!("request {i}: solve gave {res:?}"));
                }
                digest = fnv_fold(digest, &x);
                (secs, dofs * SOLVE_ITERS as f64)
            }
            Kind::Block4 => {
                let bs: Vec<Vec<f64>> = (0..BLOCK_LANES)
                    .map(|j| field.iter().map(|v| v * (1.0 + 0.1 * j as f64)).collect())
                    .collect();
                let mut xs = vec![vec![0.0; field.len()]; BLOCK_LANES];
                let b_refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
                let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
                let t1 = Instant::now();
                let res = {
                    let _s = t.span("fem.serve_block_solve");
                    api::serve_block_solve(entry, c, &b_refs, &mut x_refs, SOLVE_ITERS)
                };
                let secs = t1.elapsed().as_secs_f64();
                let ok = res.iter().all(|r| r.iterations == SOLVE_ITERS)
                    && xs.iter().flatten().all(|v| v.is_finite());
                if !ok {
                    failures.push(format!("request {i}: block solve gave {res:?}"));
                }
                for x in &xs {
                    digest = fnv_fold(digest, x);
                }
                (secs, dofs * (SOLVE_ITERS * BLOCK_LANES) as f64)
            }
            Kind::Points => {
                let t1 = Instant::now();
                let vals = {
                    let _s = t.span("fem.eval_points");
                    api::eval_points(entry, c, &field, &req.points)
                };
                let secs = t1.elapsed().as_secs_f64();
                // The field is > 0.5 everywhere; a read that found no leaf
                // returns exactly 0.
                let missed = vals.iter().filter(|v| v.is_nan() || **v <= 0.5).count();
                eval_misses += missed as u64;
                if missed > 0 || vals.len() != req.points.len() {
                    failures.push(format!("request {i}: {missed} point reads missed"));
                }
                digest = fnv_fold(digest, &vals);
                (secs, 0.0)
            }
        };
        served.push(Served {
            kind: req.kind,
            hit,
            secs: lookup_secs + secs,
            lookup_secs,
            dof_applies,
        });
    }
    let end = api::cache_counts(&cache);

    // Lane 0 of a block solve against a solo solve of the same right-hand
    // side: the program promises bitwise equality.
    let hot = api::serve_lookup(&mut cache, c, &*scenarios[0].domain, specs[0]);
    let b0 = api::node_field(hot, &smooth([2.5, 2.0]));
    let mut solo = vec![0.0; b0.len()];
    api::serve_solve(hot, c, &b0, &mut solo, SOLVE_ITERS);
    let bs: Vec<Vec<f64>> = (0..BLOCK_LANES)
        .map(|j| b0.iter().map(|v| v * (1.0 + 0.1 * j as f64)).collect())
        .collect();
    let mut xs = vec![vec![0.0; b0.len()]; BLOCK_LANES];
    {
        let b_refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
        let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(Vec::as_mut_slice).collect();
        api::serve_block_solve(hot, c, &b_refs, &mut x_refs, SOLVE_ITERS);
    }
    let scale = solo.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = solo
        .iter()
        .zip(&xs[0])
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    let block_vs_solo_rel_diff = diff / scale;
    if !(block_vs_solo_rel_diff == 0.0) {
        failures.push(format!(
            "block lane 0 differs from the solo solve by {block_vs_solo_rel_diff:e}"
        ));
    }

    RankRun {
        first_pass_rss_mb,
        block_vs_solo_rel_diff,
        cold_cycle_s,
        served,
        stats: (end.0 - base.0, end.1 - base.1, end.2 - base.2),
        resident_bytes: api::cache_resident_bytes(&cache),
        cap_bytes,
        eval_misses,
        failures,
        digest,
        spans: Vec::new(),
    }
}

/// Runs `cold_cycles` cold builds and then `requests` seeded requests on
/// [`RANKS`] ranks. Every request counts as one attempted operation.
pub fn run(seed: u64, requests: usize, cold_cycles: usize, tracer: &Tracer) -> ServeRun {
    let scenarios = scenarios();
    let stream = request_stream(seed, requests, &scenarios);
    let _loop = tracer.span("bench.serve_loop");
    let (on, epoch) = (tracer.is_on(), tracer.epoch());
    let mut per_rank: Vec<RankRun> = api::spmd(RANKS, |c| {
        let t = Tracer::new(on, epoch, api::rank(c) as u32);
        let mut run = serve_rank(c, &scenarios, &stream, cold_cycles, &t);
        run.spans = t.into_spans();
        run
    });
    for r in &mut per_rank {
        tracer.absorb(std::mem::take(&mut r.spans));
    }
    let mut checks = Checks::default();
    let lead = &per_rank[0];
    // A request fails if any rank saw it fail; list each failure once.
    let mut failures: Vec<&String> = per_rank.iter().flat_map(|r| &r.failures).collect();
    failures.sort();
    failures.dedup();
    // Every request and the block-against-solo comparison is one operation.
    checks.attempted = requests as u64 + 1;
    checks.failed = failures.len() as u64;
    checks.notes = failures.into_iter().cloned().collect();
    // Point reads and owned solution entries are rank-independent only for
    // the reads (every rank reads the same points): the per-rank digests of
    // solves differ, so ranks are folded in order.
    let digest = per_rank
        .iter()
        .fold(FNV_OFFSET, |h, r| fnv_fold(h, &[f64::from_bits(r.digest)]));
    checks.check(per_rank.iter().all(|r| r.stats == lead.stats), || {
        "serve_mix: cache statistics differ across ranks".into()
    });
    // The slower rank sets each time both ranks wait on.
    let mut served = lead.served.clone();
    let mut cold = lead.cold_cycle_s.clone();
    for r in &per_rank[1..] {
        for (a, b) in served.iter_mut().zip(&r.served) {
            a.secs = a.secs.max(b.secs);
            a.lookup_secs = a.lookup_secs.max(b.lookup_secs);
        }
        for (a, b) in cold.iter_mut().zip(&r.cold_cycle_s) {
            *a = a.max(*b);
        }
    }
    ServeRun {
        cold_cycle_s: cold,
        first_pass_rss_mb: per_rank
            .iter()
            .map(|r| r.first_pass_rss_mb)
            .fold(0.0, f64::max),
        served,
        hits: lead.stats.0,
        misses: lead.stats.1,
        evictions: lead.stats.2,
        resident_bytes: per_rank.iter().map(|r| r.resident_bytes).sum(),
        cap_bytes: lead.cap_bytes,
        eval_misses: per_rank.iter().map(|r| r.eval_misses).max().unwrap_or(0),
        block_vs_solo_rel_diff: per_rank
            .iter()
            .map(|r| r.block_vs_solo_rel_diff)
            .fold(0.0, f64::max),
        checks,
        digest,
    }
}
