//! `carve-core`: the paper's primary contribution.
//!
//! Incomplete-octree mesh generation for arbitrary carved geometries and
//! matrix-free finite-element computation on it:
//!
//! * [`construct`] — Algorithms 1–2: top-down SFC construction with
//!   proactive pruning of carved subtrees.
//! * [`balance`] — Algorithms 4–5: bottom-up 2:1 balancing that keeps carved
//!   auxiliary seeds so grading holds across carved regions.
//! * [`nodes`] — §3.4: nodal enumeration with cancellation-node hanging
//!   detection and carved/cube boundary tagging.
//! * [`matvec`] — §3.5/§3.6: traversal-based matrix-free MATVEC and
//!   traversal-based sparse assembly (no element-to-node maps anywhere).
//! * [`dist`] — Algorithm 3 and the distributed mesh: DistTreeSort
//!   partitioning of the *active* octants only, ghost elements/nodes, and
//!   the distributed MATVEC with ghost exchange.
//! * [`mesh`] — the sequential convenience wrapper.

pub mod adapt;
pub mod balance;
pub mod construct;
pub mod dist;
pub mod matvec;
pub mod mesh;
pub mod nodes;
pub mod par;
pub mod refine;

pub use adapt::{AdaptOutcome, AdaptParams};
pub use balance::{
    bottom_up_constrain_neighbors, check_2to1, construct_balanced, debug_assert_2to1,
};
pub use construct::{
    check_tree_invariants, classify_octant, construct_boundary_refined, construct_constrained,
    construct_uniform,
};
pub use dist::{
    descendant_key_range, splitter_bin, supervise_spmd, CheckpointStore, DistMesh, DistReduce,
    FusedReduce, GhostState, GhostStats,
};
pub use matvec::{
    traversal_assemble_par, traversal_assemble_ws, traversal_matvec_par, traversal_matvec_ws,
    AssemblyKernel, LeafKernel, TraversalWorkspace,
};
pub use mesh::{find_leaf, Mesh};
pub use nodes::{enumerate_nodes, resolve_slot, NodeFlags, NodeSet, SlotRef};
pub use par::par_map;
pub use refine::{adapt_balanced, adapt_once, construct_from_points, Adapt};
