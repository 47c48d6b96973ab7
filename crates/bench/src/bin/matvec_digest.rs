//! Emits FNV-1a digests of the traversal engine's output bits for the CI
//! leaf-kernel-determinism stage: carved-sphere meshes (2-D and 3-D, with
//! hanging nodes from boundary refinement) at orders 1 and 2, plus 2-D at
//! order 3, driven through the three uses of the one traversal sweep —
//!
//! * `matvec`   — the 1-rank fork-join `traversal_matvec_par` apply,
//! * `dist`     — a 2-rank `DistMesh::matvec_par(.., GhostState::Ghosted, ..)`
//!   apply (interior sweep overlapped with the ghost exchange, then the
//!   boundary sweep), one digest per rank over the ghosted output,
//! * `assemble` — `traversal_assemble_par`, digesting the built CSR's
//!   `row_ptr` / `cols` / value bits.
//!
//! A last `chain` row digests the matvec and the assembled CSR of a 2-D
//! p = 2 mesh refined at the boundary and *not* 2:1-balanced, where the
//! interpolation source of a hanging slot is itself hanging one level up
//! (the leaf stage's cold recursive fallback, DESIGN.md §6d).
//!
//! The stage also byte-compares the document against the committed
//! `results/matvec_digest.txt`: a change of summation order is an explicit
//! re-record, never a silent pass.
//!
//! Every row is computed twice. A `matvec` or `dist` row goes through one
//! workspace: the cold apply records the traversal plan, the warm one only
//! replays it. An `assemble` row's cold pass records in a fresh workspace;
//! its warm pass replays the plan the `matvec` row of the same mesh and
//! width left in its workspace, so the one plan both uses share is
//! digested. The binary exits 1 naming a row whose cold and warm digests
//! differ. The whole document is computed with leaf
//! panels of width 1 and of width 8 (`TraversalWorkspace::with_batch_width`)
//! and the binary exits 1 naming the first row whose two digests differ, so
//! neither the replay nor the panel width can change a bit. Traversal
//! threads come from `CARVE_PAR_THREADS`, so the stage reruns the binary at
//! several thread budgets and byte-compares the documents.
//!
//! Usage: `matvec_digest [OUT.txt]` — writes the document to the path, or
//! stdout.

use carve_comm::run_spmd;
use carve_core::{
    construct_boundary_refined, traversal_assemble_par, traversal_matvec_par, DistMesh, GhostState,
    Mesh, TraversalWorkspace,
};
use carve_fem::{StiffnessKernel, StiffnessMatrixKernel};
use carve_geom::{CarvedSolids, Sphere};
use carve_la::CooBuilder;
use carve_sfc::Curve;

const SCALE: f64 = 16.0;

/// FNV-1a over the raw bit patterns, so `-0.0 != +0.0` and NaN payloads
/// would all show up as digest differences.
fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Deterministic input value of global dof `id`.
fn field(id: usize) -> f64 {
    (id as f64 * 0.13).sin() + 0.01
}

/// Environment-resolved workspace (`CARVE_PAR_THREADS` applies) with leaf
/// panels of at most `width` leaves.
fn workspace<const DIM: usize>(width: usize) -> TraversalWorkspace<DIM> {
    TraversalWorkspace::new().with_batch_width(width)
}

/// The `[cold, warm]` digests of a row computed twice through one
/// workspace.
type Twice = [u64; 2];

/// The row's digest, once its cold and warm computations agree; exits 1
/// naming the row otherwise.
fn settled(row: &str, [cold, warm]: Twice) -> u64 {
    if cold != warm {
        eprintln!("matvec_digest: the warm pass changed {row}: cold {cold:016x}, warm {warm:016x}");
        std::process::exit(1);
    }
    cold
}

/// Cold and warm applies through `ws`, which keeps the recorded plan.
fn matvec_digest<const DIM: usize>(mesh: &Mesh<DIM>, ws: &mut TraversalWorkspace<DIM>) -> Twice {
    let p = mesh.order as usize;
    let n = mesh.num_dofs();
    let x: Vec<f64> = (0..n).map(field).collect();
    let make_kernel = || StiffnessKernel::<DIM>::new(p, SCALE);
    [(); 2].map(|()| {
        let mut y = vec![0.0f64; n];
        traversal_matvec_par(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &x,
            &mut y,
            ws,
            &make_kernel,
        );
        fnv1a(y.iter().map(|v| v.to_bits()))
    })
}

/// A cold assembly through a fresh workspace (record, then replay) and a
/// warm one through `recorded`, the workspace a `matvec` row of this mesh
/// and width recorded its plan in (replay only).
fn assemble_digest<const DIM: usize>(
    mesh: &Mesh<DIM>,
    width: usize,
    recorded: &mut TraversalWorkspace<DIM>,
) -> Twice {
    let p = mesh.order as usize;
    let n = mesh.num_dofs();
    let ids: Vec<u32> = (0..n as u32).collect();
    [&mut workspace::<DIM>(width), recorded].map(|ws| {
        let mut coo = CooBuilder::new(n);
        traversal_assemble_par(
            &mesh.elems,
            0..mesh.elems.len(),
            mesh.curve,
            &mesh.nodes,
            &ids,
            &mut coo,
            ws,
            &|| StiffnessMatrixKernel::<DIM>::new(p, SCALE),
        );
        let a = coo.build();
        fnv1a(
            (a.row_ptr.iter().map(|&r| r as u64))
                .chain(a.cols.iter().map(|&c| c as u64))
                .chain(a.vals.iter().map(|v| v.to_bits())),
        )
    })
}

/// Per-rank digests of the ghosted output of a 2-rank overlapped apply.
fn dist_digests<const DIM: usize>(domain: &CarvedSolids<DIM>, p: u64, width: usize) -> Vec<Twice> {
    run_spmd(2, |c| {
        let dm = DistMesh::<DIM>::build(c, domain, Curve::Hilbert, 3, 5, p);
        let x: Vec<f64> = dm.global_id.iter().map(|&g| field(g as usize)).collect();
        let mut ws = workspace::<DIM>(width);
        let make_kernel = || StiffnessKernel::<DIM>::new(p as usize, SCALE);
        [(); 2].map(|()| {
            let mut y = vec![0.0f64; x.len()];
            dm.matvec_par(c, &x, &mut y, &mut ws, GhostState::Ghosted, &make_kernel);
            fnv1a(y.iter().map(|v| v.to_bits()))
        })
    })
}

fn rows<const DIM: usize>(domain: &CarvedSolids<DIM>, p: u64, width: usize, out: &mut String) {
    let mesh = Mesh::<DIM>::build(domain, Curve::Hilbert, 3, 5, p);
    let tag = format!("dim={DIM} p={p}");
    let mut ws = workspace::<DIM>(width);
    let row = format!("matvec {tag}");
    let d = settled(&row, matvec_digest(&mesh, &mut ws));
    out.push_str(&format!("{row} digest={d:016x}\n"));
    for (rank, &d) in dist_digests(domain, p, width).iter().enumerate() {
        let row = format!("dist {tag} ranks=2 rank={rank}");
        let d = settled(&row, d);
        out.push_str(&format!("{row} digest={d:016x}\n"));
    }
    let row = format!("assemble {tag}");
    let d = settled(&row, assemble_digest(&mesh, width, &mut ws));
    out.push_str(&format!("{row} digest={d:016x}\n"));
}

/// The digest document with leaf panels of at most `width` leaves.
fn document(width: usize) -> String {
    let d2 = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
    let d3 = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.28))]);
    let mut out = String::from("carve-matvec-digest-v3\n");
    for p in [1u64, 2] {
        rows(&d2, p, width, &mut out);
        rows(&d3, p, width, &mut out);
    }
    rows(&d2, 3, width, &mut out);
    let unbalanced = construct_boundary_refined(&d2, Curve::Hilbert, 2, 5);
    let chain = Mesh::from_balanced_elems(&d2, Curve::Hilbert, unbalanced, 2);
    let row = "chain dim=2 p=2";
    let mut ws = workspace::<2>(width);
    out.push_str(&format!(
        "{row} matvec={:016x} assemble={:016x}\n",
        settled(&format!("{row} matvec"), matvec_digest(&chain, &mut ws)),
        settled(
            &format!("{row} assemble"),
            assemble_digest(&chain, width, &mut ws)
        )
    ));
    out
}

fn main() {
    let out = document(1);
    for (w1, w8) in out.lines().zip(document(8).lines()) {
        if w1 != w8 {
            eprintln!(
                "matvec_digest: panel width changed a row:\n  width 1: {w1}\n  width 8: {w8}"
            );
            std::process::exit(1);
        }
    }
    match std::env::args().nth(1) {
        Some(path) => std::fs::write(&path, out).expect("write matvec digest"),
        None => print!("{out}"),
    }
}
