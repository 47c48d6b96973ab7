//! Reproduction harness: workload builders for every experiment in the
//! paper's evaluation, plus the partition-replay performance model that
//! stands in for the 448-28K-core Frontera runs (see DESIGN.md §2).
//!
//! Everything algorithmic is *real* — meshes, partitions, ghost structure,
//! per-rank work counts come from the actual `carve-core` algorithms; only
//! wall-clock at scale is modeled, with kernel unit costs calibrated by
//! measuring the real single-rank kernels on this machine and an α-β model
//! on the exact communication volumes.

pub mod model;
pub mod scaling;
pub mod serve;
pub mod smoke;
pub mod workloads;

pub use model::{
    analyze_partition, calibrate, calibrate_collectives, copy_estimate, MachineModel,
    PartitionAnalysis, RankLoad,
};
pub use scaling::{
    artifact_specs, build_artifact, build_report_from_specs, check_artifact, digest_loads,
    CaseSpec, SCALING_PR, SCALING_RANKS,
};
pub use serve::{gate_failures, run_replay, HIT_SPEEDUP_FLOOR, SERVE_PR, SERVE_RANKS};
pub use smoke::run_smoke;
pub use workloads::*;
