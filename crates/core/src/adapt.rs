//! Dynamic adaptation of a distributed mesh: the
//! `mark → refine/coarsen → rebalance → repartition → finish` cycle that
//! turns the static construction pipeline into a transient-capable AMR
//! engine.
//!
//! Marking is the application's job (see `carve-fem`'s estimator); this
//! module takes the per-owned-element [`Adapt`] decisions and carries the
//! mesh through:
//!
//! 1. **refine** — a local split/merge pass over the owned slice (sibling
//!    runs crossing rank boundaries are blocked automatically, because a
//!    rank that cannot see every retained sibling never merges), followed
//!    by a distributed 2:1 **rebalance fixpoint**: each rank balances its
//!    owned ∪ ghost halo with [`construct_balanced`] and clips the result
//!    back to its splitter interval, iterating until no rank changes.
//!    Clipping is sound because a subtree occupies a contiguous SFC key
//!    interval, so the first-descendant key of any octant decides its rank
//!    uniquely and consistently on every rank that generates it.
//! 2. **repartition** — a collective load-imbalance check
//!    ([`carve_comm::load_imbalance`]); only when the imbalance exceeds
//!    `repart_tol` do elements migrate ([`rebalance_equal_counts`]; a rank
//!    whose leaves changed counts `ranks_migrated`).
//! 3. **finish** — every cycle, migrated or not, rebuilds ghosts, nodes,
//!    ownership and the exchange plans with one [`DistMesh::finish`] on the
//!    new owned leaves, so an adapted mesh is by construction the mesh
//!    `finish` builds from scratch. The new exchange handle starts its
//!    round counter at 0; that is safe because every exchange takes a
//!    fresh collective tag and retransmits are matched on `(tag, seq)`.
//!
//! Every collective in the cycle is ordinary SPMD over the deterministic
//! simulated transport, so adapt traces are bitwise-stable across thread
//! counts and under chaos schedules.

use crate::balance::{construct_balanced, debug_assert_2to1};
use crate::dist::{descendant_key_range, exchange_ghost_layer, splitter_bin, DistMesh};
use crate::refine::{adapt_once, Adapt};
use carve_comm::{load_imbalance, rebalance_equal_counts, Comm, ReduceOp};
use carve_geom::Subdomain;
use carve_sfc::{sfc_cmp, Octant, MAX_LEVEL};
use std::collections::HashSet;

/// Knobs for one adaptation step.
#[derive(Clone, Copy, Debug)]
pub struct AdaptParams {
    /// Refine decisions on elements at this level are ignored.
    pub max_level: u8,
    /// Coarsen decisions on elements at or below this level are ignored.
    pub min_level: u8,
    /// Repartition when `load_imbalance` exceeds this factor (1.0 = perfect
    /// balance). Values `< 1.0` force migration every step; `f64::INFINITY`
    /// disables migration entirely.
    pub repart_tol: f64,
}

impl Default for AdaptParams {
    fn default() -> Self {
        AdaptParams {
            max_level: MAX_LEVEL - 2,
            min_level: 1,
            repart_tol: 1.5,
        }
    }
}

/// What one [`DistMesh::adapt`] call did (rank-local counts are summed
/// globally; `migrated` is collective).
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptOutcome {
    /// Elements split, summed over ranks.
    pub refined: u64,
    /// Elements merged away (children replaced by their parent), summed
    /// over ranks.
    pub coarsened: u64,
    /// Whether this step exceeded the imbalance tolerance and migrated
    /// elements before the rebuild.
    pub migrated: bool,
    /// Local owned-element count before/after the step.
    pub elems_before: usize,
    pub elems_after: usize,
    /// Iterations of the distributed 2:1 rebalance fixpoint.
    pub balance_rounds: u32,
}

impl<const DIM: usize> DistMesh<DIM> {
    /// One adaptation step driven by per-owned-element `decisions`
    /// (aligned with `self.elems[self.owned]`).
    ///
    /// Opens the `refine` / `repartition` / `finish` obs phases; callers
    /// wrap the whole step (marking included) in a `scope("adapt")` so the
    /// phase tree reads `adapt/{mark,refine,repartition,finish}`.
    pub fn adapt(
        &mut self,
        comm: &Comm,
        domain: &dyn Subdomain<DIM>,
        decisions: &[Adapt],
        params: &AdaptParams,
    ) -> AdaptOutcome {
        assert_eq!(
            decisions.len(),
            self.owned.len(),
            "one decision per owned element"
        );
        let my = comm.rank();
        let curve = self.curve;
        let elems_before = self.owned.len();

        // --- Phase 1: local refine/coarsen + distributed rebalance -------
        let (mut owned, exchanged, refined_local, coarsened_local, balance_rounds) = {
            let _obs = carve_obs::scope("refine");
            let owned_slice = &self.elems[self.owned.clone()];
            // Level caps degrade out-of-range decisions to Keep.
            let capped: Vec<Adapt> = owned_slice
                .iter()
                .zip(decisions)
                .map(|(e, &d)| match d {
                    Adapt::Refine if e.level >= params.max_level => Adapt::Keep,
                    Adapt::Coarsen if e.level <= params.min_level => Adapt::Keep,
                    d => d,
                })
                .collect();
            let crit = |e: &Octant<DIM>| -> Adapt {
                match owned_slice.binary_search_by(|x| sfc_cmp(curve, x, e)) {
                    Ok(i) => capped[i],
                    Err(_) => Adapt::Keep,
                }
            };
            let adapted = adapt_once(domain, curve, owned_slice, &crit);
            // Count what actually happened (decisions can be blocked by
            // carving, level caps, or split sibling runs): an input element
            // missing from the output was either merged (its parent
            // survives) or split (its children do).
            let out_set: HashSet<Octant<DIM>> = adapted.iter().copied().collect();
            let mut refined_local = 0u64;
            let mut coarsened_local = 0u64;
            for e in owned_slice {
                if out_set.contains(e) {
                    continue;
                }
                if e.level > 0 && out_set.contains(&e.parent()) {
                    coarsened_local += 1;
                } else {
                    refined_local += 1;
                }
            }
            carve_obs::counter("elements_refined", refined_local);
            carve_obs::counter("elements_coarsened", coarsened_local);

            // Distributed 2:1 rebalance fixpoint. Each round: exchange the
            // ghost halo, balance the union locally, clip to the splitter
            // interval, and stop when no rank changed. Refinement forced by
            // balancing is monotone, so the loop terminates; at the
            // fixpoint any two touching leaves (possibly on different
            // ranks) are within one level, because a touching foreign leaf
            // is always inside the halo and a violation would have changed
            // the clipped tree. The converged round exchanged the final
            // leaves' ghost layer, which the rebuild takes over.
            let mut owned = adapted;
            let mut balance_rounds = 0u32;
            loop {
                balance_rounds += 1;
                let splitters: Vec<Option<Octant<DIM>>> = comm.all_gather(owned.first().copied());
                let ghosted = exchange_ghost_layer(comm, curve, &owned, &splitters);
                let all = &ghosted.0;
                let new_owned: Vec<Octant<DIM>> = if owned.is_empty() {
                    // An empty rank owns no splitter interval; construct
                    // from nothing would fabricate the root.
                    Vec::new()
                } else {
                    construct_balanced(domain, curve, all)
                        .into_iter()
                        .filter(|o| {
                            splitter_bin(&splitters, curve, &descendant_key_range(o).0) == my
                        })
                        .collect()
                };
                let changed = (new_owned != owned) as u64;
                owned = new_owned;
                if comm.all_reduce_u64(changed, ReduceOp::Max) == 0 {
                    break (
                        owned,
                        (splitters, ghosted),
                        refined_local,
                        coarsened_local,
                        balance_rounds,
                    );
                }
            }
        };

        let refined = comm.all_reduce_u64(refined_local, ReduceOp::Sum);
        let coarsened = comm.all_reduce_u64(coarsened_local, ReduceOp::Sum);

        // --- Phase 2: repartition check ----------------------------------
        let migrated = {
            let _obs = carve_obs::scope("repartition");
            let imb = load_imbalance(comm, owned.len() as u64);
            if imb > params.repart_tol {
                let before = std::mem::take(&mut owned);
                owned = rebalance_equal_counts(comm, before.clone());
                if owned != before {
                    carve_obs::counter("ranks_migrated", 1);
                }
                true
            } else {
                false
            }
        };

        // --- Phase 3: rebuild ---------------------------------------------
        // Without migration the leaves are the converged round's, so its
        // splitters and ghost layer stand.
        {
            let _obs = carve_obs::scope("finish");
            *self = if migrated {
                DistMesh::finish(comm, domain, curve, owned, self.order)
            } else {
                let (splitters, ghosted) = exchanged;
                DistMesh::finish_exchanged(comm, domain, curve, &splitters, ghosted, self.order)
            };
            debug_assert_2to1(&self.elems, "adapt (owned + ghost halo)");
        }

        AdaptOutcome {
            refined,
            coarsened,
            migrated,
            elems_before,
            elems_after: self.owned.len(),
            balance_rounds,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::balance::check_2to1;
    use crate::dist::GhostState;
    use crate::matvec::TraversalWorkspace;
    use carve_comm::{run_spmd, run_spmd_with, FaultPlan, SpmdOptions};
    use carve_geom::{CarvedSolids, Sphere};
    use carve_sfc::Curve;

    fn sphere_domain_2d() -> CarvedSolids<2> {
        CarvedSolids::new(vec![Box::new(Sphere::new([0.5, 0.5], 0.28))])
    }

    /// Distance-to-circle criterion: refine a moving band, coarsen away
    /// from it. `phase` shifts the band so successive adapts both refine
    /// and coarsen.
    fn band_decisions<const DIM: usize>(
        mesh: &DistMesh<DIM>,
        center: f64,
        width: f64,
    ) -> Vec<Adapt> {
        mesh.elems[mesh.owned.clone()]
            .iter()
            .map(|e| {
                let c = e.center_unit();
                let d = c.iter().map(|x| (x - 0.5) * (x - 0.5)).sum::<f64>().sqrt();
                if (d - center).abs() < width {
                    Adapt::Refine
                } else {
                    Adapt::Coarsen
                }
            })
            .collect()
    }

    fn gather_leaves<const DIM: usize>(comm: &Comm, mesh: &DistMesh<DIM>) -> Vec<Octant<DIM>> {
        let mine: Vec<Octant<DIM>> = mesh.elems[mesh.owned.clone()].to_vec();
        comm.all_gather(mine).into_iter().flatten().collect()
    }

    #[test]
    fn adapt_keeps_union_balanced_and_covering() {
        let res = run_spmd(3, |c| {
            let domain = sphere_domain_2d();
            let mut dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
            let params = AdaptParams {
                repart_tol: f64::INFINITY,
                ..AdaptParams::default()
            };
            let mut sizes = Vec::new();
            for step in 0..3 {
                let center = 0.34 + 0.06 * step as f64;
                let d = band_decisions(&dm, center, 0.05);
                let out = dm.adapt(c, &domain, &d, &params);
                assert!(!out.migrated);
                let union = gather_leaves(c, &dm);
                check_2to1(&union).unwrap();
                crate::construct::check_tree_invariants(&domain, Curve::Hilbert, &union).unwrap();
                sizes.push((out.refined, out.coarsened, union.len()));
            }
            sizes
        });
        // Collective outcomes agree across ranks, and both refinement and
        // coarsening were exercised somewhere in the run.
        assert_eq!(res[0], res[1]);
        assert_eq!(res[0], res[2]);
        assert!(res[0].iter().any(|s| s.0 > 0), "refine exercised: {res:?}");
        assert!(res[0].iter().any(|s| s.1 > 0), "coarsen exercised: {res:?}");
    }

    #[test]
    fn adapted_mesh_equals_from_scratch_finish() {
        // After each adapt step every mesh field must be bitwise identical
        // to DistMesh::finish built from scratch on the same owned leaves,
        // at rank counts where nodes reached only through a hanging stencil
        // cross the partition.
        for curve in [Curve::Morton, Curve::Hilbert] {
            for p in [1u64, 2] {
                for ranks in [3usize, 5, 7] {
                    let res = run_spmd(ranks, |c| {
                        let domain = sphere_domain_2d();
                        let mut dm = DistMesh::<2>::build(c, &domain, curve, 3, 6, p);
                        let params = AdaptParams {
                            repart_tol: f64::INFINITY,
                            ..AdaptParams::default()
                        };
                        let mut dofs = Vec::new();
                        for step in 0..2 {
                            let d = band_decisions(&dm, 0.34 + 0.08 * step as f64, 0.05);
                            dm.adapt(c, &domain, &d, &params);
                            let owned: Vec<Octant<2>> = dm.elems[dm.owned.clone()].to_vec();
                            let fresh = DistMesh::finish(c, &domain, curve, owned, p);
                            let at = format!("{curve:?} p={p} ranks={ranks} step={step}");
                            assert_eq!(
                                dm.n_global_dofs, fresh.n_global_dofs,
                                "{at}: adapted vs from-scratch global DOFs"
                            );
                            assert_eq!(dm.elems, fresh.elems, "{at}");
                            assert_eq!(dm.owned, fresh.owned, "{at}");
                            assert_eq!(dm.labels, fresh.labels, "{at}");
                            assert_eq!(dm.nodes.coords, fresh.nodes.coords, "{at}");
                            assert_eq!(dm.nodes.flags, fresh.nodes.flags, "{at}");
                            assert_eq!(dm.owner, fresh.owner, "{at}");
                            assert_eq!(dm.global_id, fresh.global_id, "{at}");
                            assert_eq!(dm.n_owned_nodes, fresh.n_owned_nodes, "{at}");
                            assert_eq!(dm.boundary_elem, fresh.boundary_elem, "{at}");
                            assert_eq!(dm.exchange_lanes(), fresh.exchange_lanes(), "{at}");
                            dofs.push(dm.n_global_dofs);
                        }
                        dofs
                    });
                    assert!(res.iter().all(|d| *d == res[0]), "{res:?}");
                }
            }
        }
    }

    #[test]
    fn adapted_solve_matches_from_scratch_solve_bitwise() {
        // Satellite: a matvec on the adapted mesh equals the same matvec on
        // a from-scratch mesh with the same leaf set, bitwise, at any
        // thread count.
        let run = |threads: usize| {
            run_spmd(3, move |c| {
                let domain = sphere_domain_2d();
                let mut dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let params = AdaptParams {
                    repart_tol: f64::INFINITY,
                    ..AdaptParams::default()
                };
                for step in 0..2 {
                    let d = band_decisions(&dm, 0.36 + 0.07 * step as f64, 0.05);
                    dm.adapt(c, &domain, &d, &params);
                }
                let owned: Vec<Octant<2>> = dm.elems[dm.owned.clone()].to_vec();
                let fresh = DistMesh::finish(c, &domain, Curve::Hilbert, owned, 1);
                let field: Vec<f64> = dm.nodes.coords.iter().map(keyed).collect();
                let field_fresh: Vec<f64> = fresh.nodes.coords.iter().map(keyed).collect();
                let mut ws = TraversalWorkspace::with_threads(threads);
                let mut kernel = |e: &Octant<2>, vals: &[f64], out: &mut [f64]| {
                    let s = e.side() as f64;
                    for (o, v) in out.iter_mut().zip(vals) {
                        *o = s.mul_add(*v, *v);
                    }
                };
                let mut y1 = vec![0.0; dm.nodes.len()];
                dm.matvec_ws(
                    c,
                    &field,
                    &mut y1,
                    &mut ws,
                    GhostState::Ghosted,
                    &mut kernel,
                );
                let mut y2 = vec![0.0; fresh.nodes.len()];
                fresh.matvec_ws(
                    c,
                    &field_fresh,
                    &mut y2,
                    &mut ws,
                    GhostState::Ghosted,
                    &mut kernel,
                );
                let bits: Vec<u64> = y1.iter().map(|v| v.to_bits()).collect();
                let bits2: Vec<u64> = y2.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, bits2, "adapted vs from-scratch matvec");
                bits
            })
        };
        let t1 = run(1);
        let t4 = run(4);
        assert_eq!(t1, t4, "thread count must not change a single bit");
    }

    fn keyed<const DIM: usize>(coord: &[u64; DIM]) -> f64 {
        let h = coord.iter().fold(0x243F6A8885A308D3u64, |h, &c| {
            (h ^ c).wrapping_mul(0x9E3779B97F4A7C15)
        });
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    #[test]
    fn adapt_trace_is_stable_under_chaos() {
        // The whole adapt cycle must be bitwise deterministic under lossy
        // chaos: same decisions, same meshes, same outcomes.
        let run = |fault: Option<FaultPlan>| {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(60));
            opts.fault = fault;
            run_spmd_with(3, opts, |c| {
                let domain = sphere_domain_2d();
                let mut dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let params = AdaptParams {
                    repart_tol: 1.3,
                    ..AdaptParams::default()
                };
                let mut trace = Vec::new();
                for step in 0..3 {
                    let d = band_decisions(&dm, 0.34 + 0.06 * step as f64, 0.05);
                    let out = dm.adapt(c, &domain, &d, &params);
                    let union = gather_leaves(c, &dm);
                    let h = union.iter().fold(0xcbf29ce484222325u64, |h, o| {
                        let mut h = h;
                        for a in o.anchor {
                            h = (h ^ a as u64).wrapping_mul(0x100000001b3);
                        }
                        (h ^ o.level as u64).wrapping_mul(0x100000001b3)
                    });
                    trace.push((out.refined, out.coarsened, out.migrated, h));
                }
                trace
            })
            .expect("chaos must not break the adapt cycle")
        };
        let clean = run(None);
        assert_eq!(run(Some(FaultPlan::lossy(29))), clean, "lossy seed 29");
        assert_eq!(run(Some(FaultPlan::chaos(11))), clean, "chaos seed 11");
    }

    #[test]
    fn a_non_migrating_cycle_reuses_the_converged_ghost_layer() {
        // The converged rebalance round exchanged the final leaves' ghost
        // layer: a cycle that does not migrate enters `ghost_elems` once
        // per balance round and not again in `finish`. A migrating cycle
        // exchanges the moved leaves' layer in `finish`.
        let _e = carve_obs::force_enabled();
        for (repart_tol, migrates) in [(f64::INFINITY, false), (0.5, true)] {
            run_spmd(3, |c| {
                let domain = sphere_domain_2d();
                let mut dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
                let params = AdaptParams {
                    repart_tol,
                    ..AdaptParams::default()
                };
                let d = band_decisions(&dm, 0.34, 0.05);
                let before = carve_obs::thread_snapshot();
                let out = {
                    let _adapt = carve_obs::scope("adapt");
                    dm.adapt(c, &domain, &d, &params)
                };
                let delta = carve_obs::thread_snapshot().diff(&before);
                assert_eq!(out.migrated, migrates);
                let calls = |ph: &str| delta.phases.get(ph).map_or(0, |p| p.calls);
                let rounds = u64::from(out.balance_rounds);
                assert_eq!(calls("adapt/refine/ghost_elems"), rounds);
                assert_eq!(calls("adapt/finish/ghost_elems"), u64::from(migrates));
            });
        }
    }

    #[test]
    fn forced_repartition_migrates_and_rebuilds() {
        // With a tolerance below 1.0 every step migrates: the outcome must
        // say so and the mesh must stay valid and balanced afterwards.
        let res = run_spmd(3, |c| {
            let domain = sphere_domain_2d();
            let mut dm = DistMesh::<2>::build(c, &domain, Curve::Hilbert, 3, 5, 1);
            let params = AdaptParams {
                repart_tol: 0.5,
                ..AdaptParams::default()
            };
            let d = band_decisions(&dm, 0.34, 0.05);
            let out = dm.adapt(c, &domain, &d, &params);
            assert!(out.migrated);
            let union = gather_leaves(c, &dm);
            check_2to1(&union).unwrap();
            // Equal-count repartition: every rank within one element of the
            // mean.
            let total = union.len();
            let lo = total / 3;
            assert!(
                dm.owned.len() >= lo && dm.owned.len() <= lo + 1,
                "rank {} holds {} of {}",
                c.rank(),
                dm.owned.len(),
                total
            );
            dm.owned.len()
        });
        let max = res.iter().max().unwrap();
        let min = res.iter().min().unwrap();
        assert!(max - min <= 1, "equal-count partition: {res:?}");
    }
}
