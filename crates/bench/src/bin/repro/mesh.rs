//! Meshing and partition ids: Fig. 5, Tables 1, 2, 4, 6 and Fig. 11.

use crate::{timed, Opts, Report};
use carve_baseline::{complete_tree_partition_active_counts, Immersed, ImmersedMesh};
use carve_bench::{analyze_partition, LongChannelWorkload, MachineModel, SphereWorkload};
use carve_core::{enumerate_nodes, resolve_slot, Mesh, SlotRef};
use carve_fem::poisson::stiffness_matrix_anisotropic;
use carve_geom::classroom::ClassroomScene;
use carve_geom::domain::Solid;
use carve_geom::dragon::{dragon_mesh, DragonParams};
use carve_geom::{CarvedSolids, FullDomain, RegionLabel, RetainBox, Sphere, Subdomain};
use carve_geom::{TriMesh, TriMeshSolid};
use carve_io::Table;
use carve_la::{condest, CooBuilder};
use carve_ns::{element_ns_system, VmsParams};
use carve_sfc::{Curve, Octant};

/// Finest surface level of Fig. 5's sweep (from level 4).
const FIG5_MAX_LEVEL: u8 = 8;
/// Table 1's grid: 32 × 32 elements, 1089 DOFs, as in the paper.
const TABLE1_LEVEL: u8 = 5;
/// Table 2's object levels; the paper's 11–14 plateau at the same ratios.
const TABLE2_LEVELS: [u8; 4] = [6, 7, 8, 9];
/// Fig. 11's rank counts.
const FIG11_RANKS: [usize; 7] = [28, 56, 112, 224, 448, 896, 1792];

/// The body of Fig. 5: `--stl FILE`, or the procedural dragon.
pub fn fig5_body(opts: &Opts) -> Result<TriMesh, String> {
    let Some(path) = &opts.stl else {
        return Ok(dragon_mesh(&DragonParams::default()));
    };
    let shown = path.display();
    let tri =
        carve_geom::stl::read_stl(path).map_err(|e| format!("cannot read STL {shown}: {e}"))?;
    if tri.tris.is_empty() {
        return Err(format!("STL {shown} holds no triangles"));
    }
    if tri.vertices.iter().flatten().any(|x| !x.is_finite()) {
        return Err(format!("STL {shown} has a non-finite vertex"));
    }
    Ok(tri)
}

/// Fig. 5 — max |signed distance| from the voxelized boundary nodes to the
/// body's surface; the paper observes first-order decay on the dragon.
pub fn fig5(opts: &Opts) -> Result<Report, String> {
    let tri = fig5_body(opts)?;
    let mut notes: Vec<String> = opts
        .stl
        .iter()
        .map(|p| format!("loading STL {}", p.display()))
        .collect();
    notes.push(format!(
        "body: {} triangles, area {:.4}, volume {:.5}, watertight: {}",
        tri.tris.len(),
        tri.area(),
        tri.signed_volume(),
        tri.is_watertight()
    ));
    let solid = TriMeshSolid::new(tri.clone());
    let domain = CarvedSolids::new(vec![Box::new(TriMeshSolid::new(tri))]);
    let mut table = Table::new(
        "Fig 5: max |signed distance| at voxel boundary nodes (paper: 1st-order decay)",
        &["level", "h", "boundary nodes", "max |d|", "rate"],
    );
    let mut prev: Option<f64> = None;
    for level in 4..=FIG5_MAX_LEVEL {
        let mesh = Mesh::build(&domain, Curve::Hilbert, 4, level, 1);
        let mut max_d: f64 = 0.0;
        let mut nb = 0usize;
        for i in 0..mesh.num_dofs() {
            if mesh.nodes.flags[i].is_carved_boundary() {
                nb += 1;
                let x = mesh.nodes.unit_coords(i);
                max_d = max_d.max(solid.signed_distance(&x).abs());
            }
        }
        let h = 1.0 / (1u64 << level) as f64;
        table.row(&[
            level.to_string(),
            format!("{h:.5}"),
            nb.to_string(),
            format!("{max_d:.5e}"),
            rate(prev, max_d),
        ]);
        prev = Some(max_d);
    }
    Ok(Report {
        notes,
        tables: vec![(table, Some("results/fig5_signed_distance.csv"))],
        check: "paper shape check: rate column should hover near 1.0 (first order).".into(),
    })
}

/// `log2(prev / cur)` to two places, `-` for the first level.
pub fn rate(prev: Option<f64>, cur: f64) -> String {
    prev.map(|p| format!("{:.2}", (p / cur).log2()))
        .unwrap_or_else(|| "-".into())
}

/// Assembles the Dirichlet-constrained 2D Laplacian over a uniform mesh
/// whose elements get the given per-axis physical sizes (a function of
/// their unit-cube size), then estimates cond₁ (Hager–Higham, Matlab's
/// `condest`).
fn channel_condition(
    domain: &dyn Subdomain<2>,
    level: u8,
    elem_h: &dyn Fn(f64) -> [f64; 2],
) -> (usize, f64) {
    let elems = carve_core::construct_uniform(domain, Curve::Morton, level);
    let nodes = enumerate_nodes(domain, &elems, 1);
    let n = nodes.len();
    let mut coo = CooBuilder::new(n);
    for e in &elems {
        let (_, h_u) = e.bounds_unit();
        let ke = stiffness_matrix_anisotropic::<2>(1, &elem_h(h_u));
        let slots: Vec<usize> = (0..4)
            .map(|lin| {
                let idx = carve_core::nodes::lattice_index::<2>(lin, 1);
                let c = carve_core::nodes::elem_node_coord(e, 1, &idx);
                match resolve_slot(&nodes, e, &c) {
                    SlotRef::Direct(i) => i,
                    SlotRef::Hanging(_) => unreachable!("uniform grid"),
                }
            })
            .collect();
        for i in 0..4 {
            for j in 0..4 {
                coo.add(slots[i], slots[j], ke[(i, j)]);
            }
        }
    }
    let mut a = coo.build();
    // Dirichlet on every boundary node: the channel walls, or the square's
    // perimeter for the full domain.
    for i in 0..n {
        if nodes.flags[i].is_any_boundary() {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                a.vals[k] = if a.cols[k] as usize == i { 1.0 } else { 0.0 };
            }
        }
    }
    (n, condest(&a.to_dense()))
}

/// Table 1 — cond₁ of the 2D Laplacian on an `L × 1` channel: the complete
/// octree stretches every element to aspect L, the carved one keeps square
/// elements and simply has fewer of them (1089 vs 99 DOFs at L = 16).
pub fn table1(_: &Opts) -> Result<Report, String> {
    let mut table = Table::new(
        "Table 1: condition number, stretched complete octree vs incomplete octree",
        &[
            "channel length",
            "complete DOFs",
            "complete cond",
            "incomplete DOFs",
            "incomplete cond",
        ],
    );
    for aspect in [1u32, 2, 4, 8, 16] {
        let l = aspect as f64;
        // Complete: the full unit square, elements stretched to L/32 × 1/32.
        let (n_c, cond_c) = channel_condition(&FullDomain, TABLE1_LEVEL, &|h_u| [h_u * l, h_u]);
        // Incomplete: carve [0,1]×[0,1/L] and scale the cube by L, so the
        // elements are squares of side L/32.
        let channel = RetainBox::<2>::channel([1.0, 1.0 / l]);
        let (n_i, cond_i) = channel_condition(&channel, TABLE1_LEVEL, &|h_u| [h_u * l, h_u * l]);
        table.row(&[
            aspect.to_string(),
            n_c.to_string(),
            format!("{cond_c:.1}"),
            n_i.to_string(),
            format!("{cond_i:.1}"),
        ]);
    }
    Ok(Report {
        tables: vec![(table, Some("results/table1_conditioning.csv"))],
        check: "paper: complete cond grows 402.6 -> 10580.5 as length 1 -> 16;\n       \
                incomplete cond *drops* 402.6 -> 5.0 with DOFs 1089 -> 99."
            .into(),
        ..Report::default()
    })
}

/// Table 2 — element and DOF overhead of immersing vs carving a sphere and
/// the dragon: base level 4, object level swept. The ratios follow the
/// object's surface/volume and plateau with level, so the scaled-down sweep
/// reproduces the paper's shape.
pub fn table2(_: &Opts) -> Result<Report, String> {
    let mut table = Table::new(
        "Table 2: immersed/carved ratios (paper: sphere f_elem 1.75-1.82, f_DOF 1.30-1.33; dragon 1.84-1.92 / 1.36-1.43)",
        &["object", "refine level", "carved elems", "immersed elems", "f_elem", "f_DOF"],
    );
    let bodies: [(&str, CarvedSolids<3>); 2] = [
        (
            "sphere",
            CarvedSolids::new(vec![Box::new(Sphere::new([0.5; 3], 0.25))]),
        ),
        (
            "dragon",
            CarvedSolids::new(vec![Box::new(TriMeshSolid::new(dragon_mesh(
                &DragonParams::default(),
            )))]),
        ),
    ];
    for (name, domain) in &bodies {
        for level in TABLE2_LEVELS {
            let carved = Mesh::build(domain, Curve::Hilbert, 4, level, 1);
            let immersed = ImmersedMesh::build(domain, Curve::Hilbert, 4, level, 1);
            let f_elem = immersed.mesh.num_elems() as f64 / carved.num_elems() as f64;
            let f_dof = immersed.mesh.num_dofs() as f64 / carved.num_dofs() as f64;
            table.row(&[
                name.to_string(),
                level.to_string(),
                carved.num_elems().to_string(),
                immersed.mesh.num_elems().to_string(),
                format!("{f_elem:.2}"),
                format!("{f_dof:.2}"),
            ]);
        }
    }
    Ok(Report {
        tables: vec![(table, Some("results/table2_immersed_vs_carved.csv"))],
        check: "paper shape check: f_elem ~1.8-1.9 >> f_DOF ~1.3-1.4 (CG node sharing),\n\
                dragon ratios above sphere ratios (higher surface/volume), both rising with level."
            .into(),
        ..Report::default()
    })
}

/// Fig. 11 — ghost nodes per rank (mean ± std) and η = N_G/N_L for the
/// carved sphere; the paper shows η ∝ 1/(p+1), why quadratic elements scale
/// better than linear. Exact counts from the real partition and ownership.
pub fn fig11(opts: &Opts) -> Result<Report, String> {
    let (base, boundary) = if opts.large { (5, 8) } else { (4, 7) };
    let w = SphereWorkload::new();
    let mut table = Table::new(
        "Fig 11: ghost nodes per rank and eta = N_G/N_L (sphere carved from 10^3 cube)",
        &[
            "ranks",
            "order",
            "mean ghosts",
            "std ghosts",
            "mean eta",
            "eta(p2)/eta(p1)",
        ],
    );
    let mesh1 = w.mesh(base, boundary, 1);
    let mesh2 = w.mesh(base, boundary, 2);
    let note = format!(
        "mesh: {} elements; {} dofs (p=1), {} dofs (p=2)",
        mesh1.num_elems(),
        mesh1.num_dofs(),
        mesh2.num_dofs()
    );
    // Below ~4 elements per rank the partition degenerates.
    for p_ranks in FIG11_RANKS
        .into_iter()
        .filter(|p| p * 4 <= mesh1.num_elems())
    {
        let (m1, s1, e1) = analyze_partition(&mesh1, p_ranks).ghost_stats();
        let (m2, s2, e2) = analyze_partition(&mesh2, p_ranks).ghost_stats();
        table.row(&[
            p_ranks.to_string(),
            "linear".into(),
            format!("{m1:.1}"),
            format!("{s1:.1}"),
            format!("{e1:.4}"),
            String::new(),
        ]);
        table.row(&[
            p_ranks.to_string(),
            "quadratic".into(),
            format!("{m2:.1}"),
            format!("{s2:.1}"),
            format!("{e2:.4}"),
            format!("{:.3}", e2 / e1.max(1e-300)),
        ]);
    }
    Ok(Report {
        notes: vec![note],
        tables: vec![(table, Some("results/fig11_ghost_nodes.csv"))],
        check: "paper shape check: quadratic mean ghosts > linear (more face nodes),\n\
                but eta(p=2)/eta(p=1) ~ (1+1)/(2+1) = 0.67 (eta ∝ 1/(p+1));\n\
                eta grows with rank count toward the 1-element-per-rank limit."
            .into(),
    })
}

/// Seconds to build the elemental VMS operator of every element: the
/// NS-like heavy leaf kernel of Table 4 ("leaf MATVEC dominates").
fn ns_leaf_cost(elems: &[Octant<3>], scale: f64) -> f64 {
    let params = VmsParams::new(1e-3, 0.1);
    let a = vec![0.1; 8 * 3];
    let uo = vec![0.0; 8 * 3];
    let f = |_: &[f64; 3]| [0.0; 3];
    let ((), secs) = timed(|| {
        for e in elems {
            let (emin_u, h_u) = e.bounds_unit();
            let emin = [emin_u[0] * scale, emin_u[1] * scale, emin_u[2] * scale];
            let (ke, _) = element_ns_system::<3>(&params, &emin, h_u * scale, &a, &uo, &f);
            std::hint::black_box(&ke);
        }
    });
    secs
}

/// The Dendro-style route of Table 4: build the complete immersed tree,
/// classify every octant, filter, and enumerate nodes over the full tree.
/// Returns the complete tree and its labels.
fn dendro_mesh(
    domain: &dyn Subdomain<3>,
    base: u8,
    boundary: u8,
) -> (Vec<Octant<3>>, Vec<RegionLabel>) {
    let immersed = Immersed { object: domain };
    let adaptive =
        carve_core::construct_boundary_refined(&immersed, Curve::Hilbert, base, boundary);
    let complete = carve_core::construct_balanced(&immersed, Curve::Hilbert, &adaptive);
    let labels: Vec<RegionLabel> = complete
        .iter()
        .map(|e| carve_core::classify_octant(domain, e))
        .collect();
    let filtered: Vec<&Octant<3>> = complete
        .iter()
        .zip(&labels)
        .filter(|(_, l)| **l != RegionLabel::Carved)
        .map(|(e, _)| e)
        .collect();
    std::hint::black_box(filtered);
    std::hint::black_box(enumerate_nodes(&immersed, &complete, 1));
    (complete, labels)
}

/// Table 4 — mesh generation and NS MATVEC on the `128×4×1` channel,
/// Dendro-style complete octree vs carved. Both pipelines run for real,
/// sequentially; times at P ranks are modeled from the measured sequential
/// cost and the replayed partition, where the complete tree's partition
/// balances void octants.
pub fn table4(opts: &Opts) -> Result<Report, String> {
    let w = LongChannelWorkload::new();
    let configs: [(u8, u8); 4] = if opts.large {
        [(7, 9), (7, 10), (8, 9), (8, 10)]
    } else {
        [(6, 8), (6, 9), (7, 8), (7, 9)]
    };
    let procs = [448usize, 896, 1792];
    let mut table = Table::new(
        "Table 4: mesh generation + NS MATVEC, Dendro-style complete octree vs carved (modeled at P ranks from measured sequential cost)",
        &[
            "base", "boundary", "elems (carved)", "P", "dendro mesh (s)", "dendro matvec (s)",
            "carve mesh (s)", "carve matvec (s)", "mesh speedup", "matvec speedup",
        ],
    );
    let mut notes = Vec::new();
    for (base, boundary) in configs {
        let (carved, t_mesh_carve) =
            timed(|| Mesh::build(&w.domain, Curve::Hilbert, base, boundary, 1));
        let ((complete, labels), t_mesh_dendro) = timed(|| dendro_mesh(&w.domain, base, boundary));
        let active = labels.iter().filter(|l| **l != RegionLabel::Carved).count();
        let per_elem = ns_leaf_cost(&carved.elems, w.scale) / carved.num_elems() as f64;
        for p in procs {
            // Carved: an equal split of the active elements.
            let carve_mv = (carved.num_elems() as f64 / p as f64) * per_elem;
            // Dendro: the complete tree split equally; the busiest rank's
            // active count sets the time.
            let counts = complete_tree_partition_active_counts(&labels, p);
            let dendro_mv = counts.iter().copied().max().unwrap_or(0) as f64 * per_elem;
            // Both pipelines parallelize construction; Dendro pays the
            // complete tree.
            let carve_mesh_p = t_mesh_carve / p as f64;
            let dendro_mesh_p = t_mesh_dendro / p as f64;
            table.row(&[
                base.to_string(),
                boundary.to_string(),
                carved.num_elems().to_string(),
                p.to_string(),
                format!("{dendro_mesh_p:.4}"),
                format!("{dendro_mv:.4}"),
                format!("{carve_mesh_p:.4}"),
                format!("{carve_mv:.4}"),
                format!("{:.1}x", dendro_mesh_p / carve_mesh_p),
                format!("{:.1}x", dendro_mv / carve_mv),
            ]);
        }
        notes.push(format!(
            "base {base} boundary {boundary}: complete tree {} vs carved {} elements ({active} active in complete)",
            complete.len(),
            carved.num_elems(),
        ));
    }
    Ok(Report {
        notes,
        tables: vec![(table, Some("results/table4_dendro_comparison.csv"))],
        check: "paper shape check: mesh-generation speedup >> matvec speedup; matvec\n\
                speedup driven by void-octant load imbalance; speedups grow with the\n\
                carvable volume fraction (this channel fills ~1/32 of its bounding cube)."
            .into(),
    })
}

/// Table 6 — classroom strong scaling from the real mesh and the partition
/// replay with a solve-dominated per-element cost: efficiency follows the
/// element balance, which the carved partition keeps near-perfect because
/// it never sees void octants (paper: ~90% at 16× ranks).
pub fn table6(opts: &Opts) -> Result<Report, String> {
    let configs: [(u8, u8); 2] = if opts.large {
        [(6, 9), (7, 9)]
    } else {
        [(5, 7), (5, 8)]
    };
    let procs = [224usize, 448, 896, 1792, 3584];
    let mut table = Table::new(
        "Table 6: classroom strong scaling (paper: eff 1.0 -> 0.90 over 16x ranks)",
        &[
            "base",
            "body",
            "elements",
            "ranks",
            "modeled time (s)",
            "efficiency",
        ],
    );
    let model = MachineModel {
        t_leaf: 2e-5, // NS elemental assembly + solve share per element
        ..MachineModel::default()
    };
    for (base, body) in configs {
        let scene = ClassroomScene::new(true, (1, 1));
        let mesh = Mesh::build(&scene.domain, Curve::Hilbert, base, body, 1);
        let mut base_cost: Option<f64> = None;
        for p in procs.into_iter().filter(|p| p * 2 <= mesh.num_elems()) {
            let (t, _, _, _) = analyze_partition(&mesh, p).modeled_time(&model);
            let cost = t * p as f64;
            let b = *base_cost.get_or_insert(cost);
            table.row(&[
                base.to_string(),
                body.to_string(),
                mesh.num_elems().to_string(),
                p.to_string(),
                format!("{t:.4e}"),
                format!("{:.2}", b / cost),
            ]);
        }
    }
    Ok(Report {
        tables: vec![(table, Some("results/table6_classroom_scaling.csv"))],
        check: "paper shape check: efficiency stays ~0.9 over a 16x rank increase\n\
                because the carved partition balances *active* elements exactly."
            .into(),
        ..Report::default()
    })
}
