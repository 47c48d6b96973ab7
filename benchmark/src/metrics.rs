//! Metric names, units and bounds (the same lists as `BENCHMARK.json`), the
//! result of one run, and the small statistics the workloads share.

use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of them
/// in its untraced run; README.md says what each means on each workload.
pub const END_TO_END: &[EndToEnd] = &[
    end_to_end("tts_s", "s", Lower, 0.10),
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("solve_s", "s", Lower, 0.10),
    end_to_end("matvec_ms_p50", "ms", Lower, 0.10),
    end_to_end("matvec_ms_p90", "ms", Lower, 0.15),
    end_to_end("dofs_per_s", "1/s", Higher, 0.10),
    end_to_end("iterations", "count", Lower, 0.05),
    end_to_end("peak_rss_mb", "MB", Lower, 0.10),
];

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single layers, timed from outside around the named public call. Every
/// workload reports every one of them in its traced run.
pub const PER_LAYER: &[PerLayer] = &[
    layer("sfc.treesort_ns_per_oct", "ns", Lower),
    layer("comm.dist_treesort_ns_per_oct", "ns", Lower),
    layer("geom.classify_ns_per_call", "ns", Lower),
    layer("core.construct_ns_per_elem", "ns", Lower),
    layer("core.balance_ns_per_elem", "ns", Lower),
    layer("core.nodes_ns_per_node", "ns", Lower),
    layer("core.dist_finish_s", "s", Lower),
    layer("core.dist_build_s", "s", Lower),
    layer("core.mesh_build_s", "s", Lower),
    layer("core.ghost_nodes_frac", "ratio", Lower),
    layer("core.neighbors", "count", Lower),
    layer("core.matvec_serial_ms", "ms", Lower),
    layer("core.matvec_serial_ns_per_elem", "ns", Lower),
    layer("core.matvec_forkjoin_ms", "ms", Lower),
    layer("core.matvec_dist_ms", "ms", Lower),
    layer("core.par_eff_2rank", "ratio", Higher),
    layer("core.par_eff_2thread", "ratio", Higher),
    layer("core.traversal_overhead_frac", "ratio", Lower),
    layer("core.ghost_read_us", "us", Lower),
    layer("core.ghost_accumulate_us", "us", Lower),
    layer("core.assemble_ns_per_elem", "ns", Lower),
    layer("comm.msgs_per_apply", "count", Lower),
    layer("comm.bytes_per_apply", "B", Lower),
    layer("comm.coll_rounds_per_iter", "count", Lower),
    layer("comm.allreduce_us_p50", "us", Lower),
    layer("comm.retries", "count", Lower),
    layer("fem.leaf_ms_per_apply", "ms", Lower),
    layer("fem.leaf_ns_per_elem", "ns", Lower),
    layer("fem.leaf_gflops", "GFLOP/s", Higher),
    layer("fem.leaf_ai", "FLOP/B", Higher),
    layer("fem.leaf_roof_frac", "ratio", Higher),
    layer("roof.triad_gbs", "GB/s", Higher),
    layer("roof.peak_gflops", "GFLOP/s", Higher),
    layer("fem.sbm_faces_s", "s", Lower),
    layer("fem.l2_error", "1", Lower),
    layer("fem.rel_error", "ratio", Lower),
    layer("la.asm_setup_s", "s", Lower),
    layer("la.asm_apply_ms", "ms", Lower),
    layer("la.spmv_ns_per_nnz", "ns", Lower),
    layer("la.krylov_iters", "count", Lower),
    layer("la.krylov_overhead_frac", "ratio", Lower),
    layer("fem.serve_hit_ratio", "ratio", Higher),
    layer("fem.serve_evictions", "count", Lower),
    layer("fem.serve_resident_mb", "MB", Lower),
    layer("fem.serve_lookup_us", "us", Lower),
    layer("fem.serve_miss_ms_p50", "ms", Lower),
    layer("fem.serve_hit_ms_p50", "ms", Lower),
    layer("fem.serve_hit_ms_p90", "ms", Lower),
    layer("fem.serve_block4_ms_per_rhs_p50", "ms", Lower),
    layer("fem.serve_points_us_per_point_p50", "us", Lower),
    layer("fem.serve_req_per_s", "1/s", Higher),
    layer("fem.block4_over_4solo", "ratio", Lower),
    layer("fem.eval_misses", "count", Lower),
    layer("io.ckpt_bytes", "B", Lower),
    layer("io.ckpt_write_mb_s", "MB/s", Higher),
    layer("obs.overhead_frac", "ratio", Lower),
    layer("obs.matvec.top_down_frac", "ratio", Lower),
    layer("obs.matvec.leaf_frac", "ratio", Lower),
    layer("obs.matvec.bottom_up_frac", "ratio", Lower),
    layer("obs.matvec.ghost_wait_frac", "ratio", Lower),
    layer("obs.matvec.unattributed_frac", "ratio", Lower),
    layer("obs.build.construct_frac", "ratio", Lower),
    layer("obs.build.treesort_frac", "ratio", Lower),
    layer("obs.build.balance_frac", "ratio", Lower),
    layer("obs.build.ghost_elems_frac", "ratio", Lower),
    layer("obs.build.nodes_frac", "ratio", Lower),
    layer("obs.build.ownership_frac", "ratio", Lower),
    layer("obs.build.unattributed_frac", "ratio", Lower),
];

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Metric values of one run, keyed by registered name.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name:?} is not registered");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Output checks: every solve, request and check counts as one operation.
#[derive(Default, Debug, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the human reading the log.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// Median of unsorted samples (mean of the two middle ones for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile of unsorted samples, `q` in `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// FNV-1a over the bit patterns of `xs`, continuing from `h`.
pub fn fnv_fold(mut h: u64, xs: &[f64]) -> u64 {
    for v in xs {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's input generator. The program under test
/// never sees the seed, only what is generated from it.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
