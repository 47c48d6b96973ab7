//! Simulated-MPI SPMD runtime for the `carve` workspace.
//!
//! The paper runs on Frontera with MPI; Rust MPI bindings are thin and this
//! reproduction targets a single box, so the distributed-memory substrate is
//! built from scratch:
//!
//! * [`Comm`] — a per-rank communicator handle with MPI-style point-to-point
//!   (`send` / `recv`) and collectives (`barrier`, `all_gather`,
//!   `all_gatherv`, `all_reduce`, `exscan`, `all_to_allv`, `bcast`), carried
//!   over std `mpsc` channels between OS threads. Every byte sent *and
//!   received* is counted, so communication-volume results (Fig. 11) are
//!   exact.
//! * [`run_spmd`] / [`try_run_spmd`] / [`run_spmd_with`] — launch `P` ranks
//!   as scoped threads running the same closure (SPMD). The runtime is
//!   fault-tolerant: rank panics are contained via `catch_unwind`, a
//!   cluster-wide abort flag unwinds the survivors promptly, every blocking
//!   wait carries a watchdog deadline (`CARVE_COMM_TIMEOUT`), and failures
//!   surface as structured [`SpmdError`]s naming the responsible rank(s).
//! * [`FaultPlan`] — seeded, deterministic chaos injection (delay / reorder /
//!   duplicate / drop / corrupt deliveries, kill a rank at a chosen op
//!   count) for stress testing the distributed algorithms. Exchange-lane
//!   traffic is sequence-numbered and checksummed, with bounded
//!   retry/backoff recovery from a retransmit store (`CARVE_RETRY_BASE`,
//!   [`comm::DEFAULT_RETRY_MAX`] attempts), so lossy chaos converges
//!   bit-identically.
//! * [`disttreesort`] — the distributed sample-sort version of TreeSort used
//!   by Algorithm 3, with duplicate removal and keep-finer overlap
//!   resolution across rank boundaries, plus the load-tolerance splitter
//!   selection.
//!
//! Collectives are implemented with simple star/all-pairs exchanges: the
//! point of this substrate is *algorithmic fidelity and exact accounting*,
//! not network performance (wall-clock scaling is modeled separately in the
//! benchmark harness, see DESIGN.md §2).

// Robustness policy: every "can't happen" in this crate must surface as a
// structured CommError, not an unwrap/expect panic. Tests are exempt.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod comm;
pub mod disttreesort;
pub mod error;
pub mod exchange;
pub mod fault;

pub use comm::{
    run_spmd, run_spmd_with, try_run_spmd, Comm, CommStats, RecvHandle, ReduceOp, SpmdOptions,
    CHAOS_ENV, RETRY_BASE_ENV, TIMEOUT_ENV,
};
pub use disttreesort::{
    dist_tree_sort, load_imbalance, partition_splitters_by_weight, rebalance_equal_counts,
};
pub use error::{CommError, FailureKind, RankFailure, SpmdError};
pub use exchange::{ExchangeHandle, PendingRead};
pub use fault::{ChaosProfile, FaultPlan, KillSpec};
