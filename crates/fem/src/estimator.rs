//! Per-element error estimation and marking for the dynamic AMR cycle.
//!
//! The indicator is the element's *energy seminorm* of the discrete field,
//! `η_e = sqrt(uₑᵀ Kₑ uₑ) = |u|_{H¹(e)}`: cheap (one sum-factorized
//! elemental apply per owned element with per-level geometric factors from
//! [`LevelScales`], no extra communication), and for the transient heat
//! runs it concentrates exactly where the solution has gradient content —
//! fronts get refined, flat wakes get coarsened. Marking uses the classic
//! maximum strategy: refine above `θ_r · max η`, coarsen below
//! `θ_c · max η`, with a single `all_reduce` supplying the global maximum
//! so every rank marks against the same scale.
//!
//! Both passes are sequential per rank and the reduction is the
//! deterministic simulated collective, so marks — and therefore whole adapt
//! traces — are bitwise reproducible across thread counts and chaos
//! schedules.

use crate::poisson::{ElementCache, LevelScales};
use carve_comm::{Comm, ReduceOp};
use carve_core::nodes::{elem_node_coord, lattice_index, nodes_per_elem};
use carve_core::{resolve_slot, Adapt, DistMesh, SlotRef};
use carve_sfc::Octant;

/// Gathers the elemental DOF values of `e` from a (ghost-consistent) nodal
/// field on a distributed mesh, expanding hanging slots through their
/// stencils.
pub fn elem_values_dist<const DIM: usize>(
    dm: &DistMesh<DIM>,
    u: &[f64],
    e: &Octant<DIM>,
) -> Vec<f64> {
    let p = dm.order;
    let npe = nodes_per_elem::<DIM>(p);
    let mut vals = Vec::with_capacity(npe);
    for lin in 0..npe {
        let idx = lattice_index::<DIM>(lin, p);
        let c = elem_node_coord(e, p, &idx);
        let v = match resolve_slot(&dm.nodes, e, &c) {
            SlotRef::Direct(i) => u[i],
            SlotRef::Hanging(st) => st.iter().map(|&(i, w)| w * u[i]).sum(),
        };
        vals.push(v);
    }
    vals
}

/// Energy-seminorm indicators `η_e = sqrt(uₑᵀ Kₑ uₑ)` for every *owned*
/// element. `u` must be ghost-consistent (run `ghost_read` after the
/// solve); `scale` is the physical side length of the unit cube.
pub fn energy_error_indicators<const DIM: usize>(
    dm: &DistMesh<DIM>,
    cache: &mut ElementCache<DIM>,
    u: &[f64],
    scale: f64,
) -> Vec<f64> {
    let npe = nodes_per_elem::<DIM>(dm.order);
    let scales = LevelScales::new::<DIM>(scale);
    let mut eta = Vec::with_capacity(dm.owned.len());
    let mut ku = vec![0.0; npe];
    for e in &dm.elems[dm.owned.clone()] {
        let mut vals = elem_values_dist(dm, u, e);
        // The seminorm is invariant under constant shifts, but Kref only
        // annihilates constants analytically — shift so a flat element
        // yields exactly zero instead of accumulated rounding.
        let shift = vals[0];
        vals.iter_mut().for_each(|v| *v -= shift);
        ku.iter_mut().for_each(|v| *v = 0.0);
        cache.apply_stiffness_tensor_batched(scales.stiffness(e.level), 1, &vals, &mut ku);
        let energy: f64 = vals.iter().zip(&ku).map(|(a, b)| a * b).sum();
        eta.push(energy.max(0.0).sqrt());
    }
    eta
}

/// Maximum-strategy marking: `Refine` where `η > θ_r · max η`, `Coarsen`
/// where `η < θ_c · max η`, `Keep` between. The maximum is global
/// (collective), so all ranks mark against one scale; a nonpositive global
/// maximum (identically flat field) keeps everything.
pub fn mark_max_strategy<const DIM: usize>(
    comm: &Comm,
    dm: &DistMesh<DIM>,
    eta: &[f64],
    theta_refine: f64,
    theta_coarsen: f64,
) -> Vec<Adapt> {
    assert_eq!(eta.len(), dm.owned.len());
    let local_max = eta.iter().cloned().fold(0.0f64, f64::max);
    let gmax = comm.all_reduce_f64(local_max, ReduceOp::Max);
    if gmax <= 0.0 {
        return vec![Adapt::Keep; eta.len()];
    }
    eta.iter()
        .map(|&e| {
            if e > theta_refine * gmax {
                Adapt::Refine
            } else if e < theta_coarsen * gmax {
                Adapt::Coarsen
            } else {
                Adapt::Keep
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use carve_comm::run_spmd;
    use carve_geom::{CarvedSolids, Sphere};
    use carve_sfc::Curve;

    #[test]
    fn indicators_flag_gradient_content_and_marks_agree() {
        let res = run_spmd(2, |c| {
            let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
            let dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let mut cache = ElementCache::<2>::new(1);
            // A field varying only for x < 0.5: indicators must vanish on
            // elements strictly right of the ramp.
            let u: Vec<f64> = (0..dm.nodes.len())
                .map(|i| {
                    let x = dm.nodes.unit_coords(i)[0];
                    (0.5 - x).max(0.0)
                })
                .collect();
            let eta = energy_error_indicators(&dm, &mut cache, &u, 1.0);
            for (e, &et) in dm.elems[dm.owned.clone()].iter().zip(&eta) {
                let (min, _side) = e.bounds_unit();
                if min[0] >= 0.5 {
                    assert!(et < 1e-12, "flat element {e:?} has η = {et}");
                }
            }
            let marks = mark_max_strategy(c, &dm, &eta, 0.5, 0.1);
            // The global max lives on the ramp: at least one rank refines,
            // and every flat element coarsens.
            let n_refine = marks.iter().filter(|m| **m == Adapt::Refine).count();
            for (e, m) in dm.elems[dm.owned.clone()].iter().zip(&marks) {
                if e.bounds_unit().0[0] >= 0.5 {
                    assert_eq!(*m, Adapt::Coarsen);
                }
            }
            n_refine
        });
        assert!(res.iter().sum::<usize>() > 0, "nobody refined: {res:?}");
    }

    #[test]
    fn flat_field_keeps_everything() {
        run_spmd(2, |c| {
            let domain = CarvedSolids::<2>::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))]);
            let dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 4, 1);
            let mut cache = ElementCache::<2>::new(1);
            let u = vec![3.25; dm.nodes.len()];
            let eta = energy_error_indicators(&dm, &mut cache, &u, 1.0);
            assert!(eta.iter().all(|e| *e < 1e-12));
            let marks = mark_max_strategy(c, &dm, &eta, 0.5, 0.1);
            assert!(marks.iter().all(|m| *m == Adapt::Keep));
        });
    }
}
