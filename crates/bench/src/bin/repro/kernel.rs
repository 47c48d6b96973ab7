//! Fig. 12 — roofline placement of the Poisson elemental MATVEC, linear vs
//! quadratic, on two meshes, against a STREAM-like triad roof.
//!
//! The paper (Intel Advisor on Frontera) reports AI 0.072 (p=1) and 0.121
//! (p=2) at ~4 / ~7 GFLOP/s: memory bound either way, AI rising with order
//! because FLOPs grow as d(p+1)^{d+1} and data as (p+1)^d. Advisor measures
//! DRAM traffic; here bytes come from an analytic minimum-traffic model, so
//! the absolute AI differs. What reproduces is the ordering AI(p2) >
//! AI(p1), the ~1.7× ratio, higher GFLOP/s at higher order, and the
//! memory-bound placement.
//!
//! Each order has two rows, both timing the one panel kernel: panels of one
//! element (`linear`, `quadratic`) and of eight (`…-batched8`).

use crate::{per_call, Opts, Report};
use carve_bench::{ChannelWorkload, SphereWorkload};
use carve_core::Mesh;
use carve_fem::flops::tensor_apply_flops;
use carve_fem::ElementCache;
use carve_io::Table;

/// Timed sweeps per measurement.
const REPS: usize = 5;

/// STREAM-triad bandwidth in bytes/s.
fn stream_bandwidth() -> f64 {
    let n = 8_000_000usize;
    let a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let secs = per_call(REPS, || {
        for i in 0..n {
            c[i] = a[i] + 0.5 * b[i];
        }
        std::hint::black_box(&c);
    });
    (3 * n * 8) as f64 / secs
}

/// (flops, bytes) of one leaf sweep over the mesh. Bytes are the
/// minimum-traffic model: read u_e, zero and write v_e, and the
/// sum-factorized apply's scratch touched ~4 times per axis pass.
fn leaf_model(mesh: &Mesh<3>, p: usize) -> (u64, u64) {
    let ne = mesh.num_elems() as u64;
    let npe = (p + 1).pow(3);
    (
        tensor_apply_flops(3, p) * ne,
        ((2 + 4 * 3) * npe * 8) as u64 * ne,
    )
}

/// Seconds per sweep of the elemental tensor kernel (the paper's "leaf
/// MATVEC") over every element, through SoA panels of up to `width`
/// same-level elements in mesh order, one `apply_stiffness_tensor_batched`
/// call per panel: what the traversal's panel builder feeds the kernel.
/// The FP work per element does not depend on `width`; only the layout
/// changes.
pub fn batched_sweep(mesh: &Mesh<3>, p: usize, width: usize, reps: usize) -> f64 {
    let ne = mesh.num_elems();
    let npe = (p + 1).pow(3);
    let mut cache = ElementCache::<3>::new(p);
    // At d = 3 the stiffness scale h^{d-2} is h.
    let scales: Vec<f64> = mesh.elems.iter().map(|e| e.bounds_unit().1).collect();
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (start, len)
    let mut start = 0usize;
    for ei in 1..=ne {
        if ei == ne || scales[ei] != scales[start] || ei - start == width {
            runs.push((start, ei - start));
            start = ei;
        }
    }
    let u: Vec<f64> = (0..ne * npe).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut panel = vec![0.0f64; npe * width];
    let mut vout = vec![0.0f64; npe * width];
    per_call(reps, || {
        for &(s, len) in &runs {
            for lin in 0..npe {
                for b in 0..len {
                    panel[lin * len + b] = u[(s + b) * npe + lin];
                }
            }
            cache.apply_stiffness_tensor_batched(
                scales[s],
                len,
                &panel[..npe * len],
                &mut vout[..npe * len],
            );
        }
        std::hint::black_box(&vout);
    })
}

pub fn fig12(_: &Opts) -> Result<Report, String> {
    let bw = stream_bandwidth();
    let mut table = Table::new(
        "Fig 12: elemental (leaf) MATVEC roofline data (paper: AI 0.072/0.121, ~4/~7 GFLOP/s, memory bound)",
        &[
            "mesh", "order", "elements", "AI (flop/byte)", "GFLOP/s", "GB/s (model)",
            "% of roof", "sweep (s)",
        ],
    );
    let chan = ChannelWorkload::new();
    let sph = SphereWorkload::new();
    let mut ai = [[0.0f64; 2]; 2];
    for (mi, (name, m1, m2)) in [
        ("channel", chan.mesh(5, 8, 1), chan.mesh(5, 8, 2)),
        ("sphere", sph.mesh(4, 7, 1), sph.mesh(4, 7, 2)),
    ]
    .iter()
    .enumerate()
    {
        for (pi, (p, mesh)) in [(1usize, m1), (2usize, m2)].into_iter().enumerate() {
            let order = if p == 1 { "linear" } else { "quadratic" };
            let (flops, bytes) = leaf_model(mesh, p);
            ai[mi][pi] = flops as f64 / bytes as f64;
            // One element per panel, then the same FP work through width-8
            // panels.
            for (label, secs) in [
                (order.to_string(), batched_sweep(mesh, p, 1, REPS)),
                (format!("{order}-batched8"), batched_sweep(mesh, p, 8, REPS)),
            ] {
                table.row(&[
                    name.to_string(),
                    label,
                    mesh.num_elems().to_string(),
                    format!("{:.3}", ai[mi][pi]),
                    format!("{:.2}", flops as f64 / secs / 1e9),
                    format!("{:.2}", bytes as f64 / secs / 1e9),
                    format!("{:.0}%", 100.0 * bytes as f64 / secs / bw),
                    format!("{secs:.4}"),
                ]);
            }
        }
    }
    Ok(Report {
        notes: vec![format!(
            "measured memory roof (STREAM-like triad): {:.2} GB/s",
            bw / 1e9
        )],
        tables: vec![(table, Some("results/fig12_roofline.csv"))],
        check: format!(
            "AI ratio quadratic/linear: channel {:.2}, sphere {:.2} (paper: 0.121/0.072 = 1.68)\n\
             paper shape check: AI and GFLOP/s rise with order; bandwidth is a large\n\
             fraction of the roof (memory bound) while GFLOP/s is far below peak.",
            ai[0][1] / ai[0][0],
            ai[1][1] / ai[1][0]
        ),
    })
}
