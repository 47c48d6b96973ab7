//! Emits FNV-1a digests of every field `DistMesh::finish` produces, one row
//! per rank, for the CI `mesh-digest` stage: the ghost layer, the needed
//! node set, ownership, global ids, exchange plans and the
//! interior/boundary split are a pure function of the owned leaves and the
//! splitters, so a change to how they are computed must reproduce the
//! committed `results/dist_mesh_digest.txt` byte for byte.
//!
//! Rows cover {2-D carved disk 4/8, 3-D carved sphere 4/6, channel 5/7, the
//! unbalanced hanging-chain mesh of `matvec_digest`} × ranks {1, 2, 3, 4, 7}
//! × {Morton, Hilbert} × p {1, 2}; two `DistMesh::adapt` steps on the disk
//! (refine and coarsen, each ending in `finish`, where a rank owns the nodes
//! it brokers); and a 4-leaf mesh on 5 ranks (one rank owns nothing).
//!
//! Usage: `dist_mesh_digest [OUT.txt]` — writes to the path, or stdout.

use carve_comm::{run_spmd, Comm};
use carve_core::{construct_boundary_refined, Adapt, AdaptParams, DistMesh};
use carve_geom::{CarvedSolids, FullDomain, RetainBox, Sphere, Subdomain};
use carve_sfc::Curve;

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// One digest per field, so a mismatch names what moved.
fn row<const DIM: usize>(dm: &DistMesh<DIM>) -> String {
    let elems =
        fnv1a(dm.elems.iter().flat_map(|e| {
            (e.anchor.iter().map(|&a| a as u64)).chain(std::iter::once(e.level as u64))
        }));
    let coords = fnv1a(dm.nodes.coords.iter().flatten().copied());
    let flags = fnv1a(
        (dm.nodes.flags.iter())
            .map(|f| f.is_carved_boundary() as u64 | (f.is_cube_boundary() as u64) << 1),
    );
    let [send, recv] = dm.exchange_lanes().map(|lanes| {
        fnv1a(lanes.iter().flat_map(|(q, idx)| {
            std::iter::once(*q as u64 | (idx.len() as u64) << 32)
                .chain(idx.iter().map(|&i| i as u64))
        }))
    });
    format!(
        "elems={}:{elems:016x} owned={}..{} nodes={}:{coords:016x} flags={flags:016x} \
         owner={:016x} gid={}/{}:{:016x} send={send:016x} recv={recv:016x} \
         boundary={:016x} labels={:016x}",
        dm.elems.len(),
        dm.owned.start,
        dm.owned.end,
        dm.nodes.len(),
        fnv1a(dm.owner.iter().map(|&o| o as u64)),
        dm.n_owned_nodes,
        dm.n_global_dofs,
        fnv1a(dm.global_id.iter().map(|&g| g as u64)),
        fnv1a(dm.boundary_elem.iter().map(|&b| b as u64)),
        fnv1a(dm.labels.iter().map(|&l| l as u64)),
    )
}

fn push_rows(out: &mut String, tag: &str, rows: Vec<String>) {
    let ranks = rows.len();
    for (rank, r) in rows.iter().enumerate() {
        out.push_str(&format!("{tag} ranks={ranks} rank={rank} {r}\n"));
    }
}

const RANKS: [usize; 5] = [1, 2, 3, 4, 7];
const CURVES: [Curve; 2] = [Curve::Morton, Curve::Hilbert];

/// `DistMesh::build` over the ranks × curve × order matrix.
fn build_rows<const DIM: usize>(
    out: &mut String,
    name: &str,
    domain: &(dyn Subdomain<DIM> + Sync),
    levels: (u8, u8),
) {
    for curve in CURVES {
        for p in [1u64, 2] {
            for ranks in RANKS {
                let rows = run_spmd(ranks, |c| {
                    row(&DistMesh::<DIM>::build(
                        c, domain, curve, levels.0, levels.1, p,
                    ))
                });
                push_rows(out, &format!("{name} curve={curve:?} p={p}"), rows);
            }
        }
    }
}

/// Equal-count slice of a sequentially built list: `finish` on leaves that
/// never went through the distributed balance.
fn finish_slice<const DIM: usize>(
    c: &Comm,
    domain: &dyn Subdomain<DIM>,
    curve: Curve,
    all: &[carve_sfc::Octant<DIM>],
    p: u64,
) -> DistMesh<DIM> {
    let (r, n) = (c.rank(), c.size());
    let owned = all[r * all.len() / n..(r + 1) * all.len() / n].to_vec();
    DistMesh::finish(c, domain, curve, owned, p)
}

fn main() {
    let disk = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
    let sphere = CarvedSolids::<3>::new(vec![Box::new(Sphere::new([0.5; 3], 0.2))]);
    let channel = RetainBox::<3>::channel([1.0, 1.0 / 16.0, 1.0 / 16.0]);
    let mut out = String::from("carve-dist-mesh-digest-v1\n");
    build_rows(&mut out, "disk", &disk, (4, 8));
    build_rows(&mut out, "sphere", &sphere, (4, 6));
    build_rows(&mut out, "channel", &channel, (5, 7));

    // Boundary-refined and not 2:1-balanced: hanging sources that hang.
    for curve in CURVES {
        let chain = construct_boundary_refined(&disk, curve, 2, 5);
        for p in [1u64, 2] {
            for ranks in RANKS {
                let rows = run_spmd(ranks, |c| row(&finish_slice(c, &disk, curve, &chain, p)));
                push_rows(&mut out, &format!("chain curve={curve:?} p={p}"), rows);
            }
        }
    }

    // Two adapt steps, each ending in `finish` (never repartitioned):
    // a band around the disk is refined, everything else coarsened.
    let params = AdaptParams {
        repart_tol: f64::INFINITY,
        ..AdaptParams::default()
    };
    let steps: Vec<Vec<String>> = run_spmd(3, |c| {
        let mut dm = DistMesh::<2>::build(c, &disk, Curve::Hilbert, 3, 5, 1);
        (0..2)
            .map(|step| {
                let radius = 0.34 + 0.08 * step as f64;
                let marks: Vec<Adapt> = dm.elems[dm.owned.clone()]
                    .iter()
                    .map(|e| {
                        let x = e.center_unit();
                        let d = ((x[0] - 0.5).powi(2) + (x[1] - 0.5).powi(2)).sqrt();
                        if (d - radius).abs() < 0.05 {
                            Adapt::Refine
                        } else {
                            Adapt::Coarsen
                        }
                    })
                    .collect();
                let o = dm.adapt(c, &disk, &marks, &params);
                assert!(!o.migrated && o.refined + o.coarsened > 0);
                row(&dm)
            })
            .collect()
    });
    for step in 0..2 {
        let rows = steps.iter().map(|s| s[step].clone()).collect();
        push_rows(&mut out, &format!("adapt step={step}"), rows);
    }

    // More ranks than leaves: empty ranks join every collective.
    let rows = run_spmd(5, |c| {
        row(&DistMesh::<2>::build(
            c,
            &FullDomain,
            Curve::Morton,
            1,
            1,
            1,
        ))
    });
    push_rows(&mut out, "empty-ranks", rows);

    match std::env::args().nth(1) {
        Some(path) => std::fs::write(&path, out).expect("write dist mesh digest"),
        None => print!("{out}"),
    }
}
