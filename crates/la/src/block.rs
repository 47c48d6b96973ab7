//! Conjugate gradients over k right-hand sides at once — the only CG
//! recurrence in the crate; [`crate::cg`] is this loop with one lane.
//!
//! A serving engine answering many queries against one cached operator
//! solves the *same* SPD system for k different right-hand sides. Running k
//! independent [`crate::cg`] solves costs `k × (2 per iteration + 2
//! setup)` reduction rounds; on a distributed [`Reduce`] backend every
//! round is an `all_reduce_f64_many` collective. [`block_cg`] runs the k
//! recurrences in lockstep and *fuses* their reductions: one batched
//! `(p_j · Ap_j)` round and one batched `(r_j · z_j, r_j · r_j)` round per
//! iteration regardless of k — the per-iteration collective count drops
//! from `2k` to `2`.
//!
//! The recurrences stay mathematically independent: nothing couples lane j
//! to lane j' (this is *fused* CG, not a Krylov block method with a shared
//! subspace). Because [`Reduce::dots`] computes each pair independently —
//! the distributed backend sums each pair's local partials and ships them
//! through one elementwise `all_reduce_f64_many` — every lane's scalars are
//! bitwise identical to the ones a one-lane solve would produce. The
//! identity tests assert exactly that, per lane, for k ∈ {1, 2, 4} against
//! the solo recurrence this loop replaced, including lanes that converge
//! (or stall) early.
//!
//! Early-exiting lanes are masked out: convergence/divergence is checked at
//! the top of the iteration (before either batch), and a lane whose `p·Ap`
//! breaks down leaves after the first batch without contributing to the
//! second. Remaining lanes keep fusing among themselves.
//!
//! Each lane's matvec goes through the caller's [`LinOp`] unchanged, so on
//! the mesh path it rides the batched SoA leaf panels of `matvec_par`
//! (ghost exchange is point-to-point and unaffected by fusion).

use crate::krylov::{check_sizes, loan, park, KrylovResult, LinOp, Precond, Reduce, SolveOpts};
use crate::vector::axpy;

/// Per-lane recurrence state. `rn` caches the top-of-iteration residual
/// norm so a breakdown exit after the first batch reports that residual.
struct Lane {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    rz: f64,
    rn2: f64,
    rn: f64,
    last_finite: f64,
    tol: f64,
    result: Option<KrylovResult>,
}

impl Lane {
    /// The `(r·z, r·r)` pairs of this lane's second round.
    fn rz_rr(&self) -> [(&[f64], &[f64]); 2] {
        [(&self.r, &self.z), (&self.r, &self.r)]
    }
}

/// One batch of inner-product pairs.
type Pairs<'v> = Vec<(&'v [f64], &'v [f64])>;

/// Empties `v` and hands its allocation back for borrows of a new lifetime
/// (the map never runs; the collect reuses the buffer in place).
fn recycle<'v>(mut v: Pairs<'_>) -> Pairs<'v> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

/// One fused [`Reduce::dots`] round over `items`, listed in `buf`'s
/// allocation; returns that allocation, empty, for the next round.
fn round<'v>(
    rd: &dyn Reduce,
    buf: Pairs<'static>,
    items: impl Iterator<Item = (&'v [f64], &'v [f64])>,
    out: &mut [f64],
) -> Pairs<'static> {
    let mut batch = recycle(buf);
    batch.extend(items);
    rd.dots(&batch, out);
    recycle(batch)
}

/// Multi-RHS CG: solves `A x_j = b_j` for every lane j in lockstep, fusing
/// the per-iteration inner products of all still-active lanes into two
/// [`Reduce::dots`] batches. Lanes converge, stall, or
/// diverge individually, each at the iteration a one-lane solve would.
/// Work vectors (4 per lane) come from `opts.scratch` when given; a
/// checkpointer is accepted only for k ≤ 1.
pub fn block_cg<A: LinOp, M: Precond>(
    a: &A,
    bs: &[&[f64]],
    xs: &mut [&mut [f64]],
    m: &M,
    opts: SolveOpts,
) -> Vec<KrylovResult> {
    let k = bs.len();
    assert_eq!(xs.len(), k, "one initial guess per right-hand side");
    assert!(
        k <= 1 || opts.checkpoint.is_none(),
        "block_cg: a checkpoint follows one lane, not {k}"
    );
    let n = a.size();
    for (b, x) in bs.iter().zip(xs.iter()) {
        check_sizes("block_cg", n, b, x);
    }
    if k == 0 {
        return Vec::new();
    }
    let SolveOpts {
        rtol,
        atol,
        max_iter,
        reduce: rd,
        mut scratch,
        checkpoint: mut ck,
    } = opts;

    let mut lanes: Vec<Lane> = (0..k)
        .map(|_| Lane {
            r: loan(&mut scratch, n),
            z: loan(&mut scratch, n),
            p: loan(&mut scratch, n),
            ap: loan(&mut scratch, n),
            rz: 0.0,
            rn2: 0.0,
            rn: 0.0,
            last_finite: f64::NAN,
            tol: 0.0,
            result: None,
        })
        .collect();

    // Initial residuals, then one fused round for every lane's ‖b‖² and one
    // for the initial (r·z, r·r) pairs.
    for (l, (b, x)) in lanes.iter_mut().zip(bs.iter().zip(xs.iter())) {
        a.apply(x, &mut l.r);
        for (ri, bi) in l.r.iter_mut().zip(*b) {
            *ri = bi - *ri;
        }
    }
    // Scalars and the pair list of every round, sized once per solve.
    let mut vals = vec![0.0; 2 * k];
    let mut paps = vec![0.0; k];
    let mut pairs = Pairs::with_capacity(2 * k);
    pairs = round(rd, pairs, bs.iter().map(|b| (*b, *b)), &mut vals[..k]);
    for (l, bb) in lanes.iter_mut().zip(&vals) {
        l.tol = rtol * bb.sqrt().max(1e-300) + atol;
        m.apply(&l.r, &mut l.z);
        l.p.copy_from_slice(&l.z);
    }
    pairs = round(rd, pairs, lanes.iter().flat_map(Lane::rz_rr), &mut vals);
    for (l, v) in lanes.iter_mut().zip(vals.chunks(2)) {
        (l.rz, l.rn2) = (v[0], v[1]);
    }

    let mut active: Vec<usize> = (0..k).collect();
    for it in 0..max_iter {
        // Top-of-iteration exits, before either batch.
        active.retain(|&j| {
            let l = &mut lanes[j];
            let rn = l.rn2.sqrt();
            l.rn = rn;
            if !rn.is_finite() {
                l.result = Some(KrylovResult::divergence(it, rn).with_last_finite(l.last_finite));
                return false;
            }
            l.last_finite = rn;
            if let Some(ck) = ck.as_deref_mut() {
                ck.observe("cg", it, rn, xs[j], &l.r);
            }
            if rn <= l.tol {
                l.result = Some(KrylovResult::success(it, rn));
                return false;
            }
            true
        });
        if active.is_empty() {
            break;
        }

        for &j in &active {
            let l = &mut lanes[j];
            a.apply(&l.p, &mut l.ap);
        }
        // Fused batch 1: every active lane's p·Ap in one round.
        let paps = &mut paps[..active.len()];
        let p_ap = active.iter().map(|&j| (&lanes[j].p[..], &lanes[j].ap[..]));
        pairs = round(rd, pairs, p_ap, paps);
        // Breakdown lanes leave here, after batch 1 and before batch 2.
        let mut i = 0;
        active.retain(|&j| {
            let pap = paps[i];
            i += 1;
            let l = &mut lanes[j];
            if pap.abs() < 1e-300 || !pap.is_finite() {
                l.result = Some(KrylovResult::stalled(it, l.rn));
                return false;
            }
            let alpha = l.rz / pap;
            axpy(alpha, &l.p, xs[j]);
            axpy(-alpha, &l.ap, &mut l.r);
            m.apply(&l.r, &mut l.z);
            true
        });
        if active.is_empty() {
            break;
        }
        // Fused batch 2: every surviving lane's (r·z, r·r) pair in one round.
        let vals = &mut vals[..2 * active.len()];
        let rz_rr = active.iter().flat_map(|&j| lanes[j].rz_rr());
        pairs = round(rd, pairs, rz_rr, vals);
        for (&j, v) in active.iter().zip(vals.chunks(2)) {
            let l = &mut lanes[j];
            let beta = v[0] / l.rz;
            (l.rz, l.rn2) = (v[0], v[1]);
            for (pi, zi) in l.p.iter_mut().zip(&l.z) {
                *pi = zi + beta * *pi;
            }
        }
    }

    let results = lanes
        .iter()
        .map(|l| {
            l.result.unwrap_or_else(|| {
                KrylovResult::at_cap(max_iter, l.rn2.sqrt(), l.tol, l.last_finite)
            })
        })
        .collect();
    park(
        scratch,
        lanes.into_iter().rev().flat_map(|l| [l.ap, l.p, l.z, l.r]),
    );
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::tests::{cg_body, laplacian, CountingReduce};
    use crate::krylov::{IdentityPrecond, JacobiPrecond};

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    /// Solves every lane of `bs` with [`block_cg`] and each one alone with
    /// the solo recurrence oracle; asserts identical iterations, verdicts
    /// and bits per lane and returns the block results.
    fn assert_lanes_match_oracle<M: Precond>(
        a: &crate::CsrMatrix,
        m: &M,
        bs: &[Vec<f64>],
        opts: fn() -> SolveOpts<'static, 'static>,
    ) -> Vec<KrylovResult> {
        let n = a.n;
        let k = bs.len();
        let mut solo_x = vec![vec![0.0; n]; k];
        let solo: Vec<KrylovResult> = (0..k)
            .map(|j| cg_body(a, &bs[j], &mut solo_x[j], m, opts()))
            .collect();
        let mut block_x = vec![vec![0.0; n]; k];
        let b_refs: Vec<&[f64]> = bs.iter().map(|b| b.as_slice()).collect();
        let mut x_refs: Vec<&mut [f64]> = block_x.iter_mut().map(|x| x.as_mut_slice()).collect();
        let block = block_cg(a, &b_refs, &mut x_refs, m, opts());
        for j in 0..k {
            assert_eq!(block[j].iterations, solo[j].iterations, "lane {j}");
            assert_eq!(block[j].converged, solo[j].converged, "lane {j}");
            assert_eq!(
                block[j].residual.to_bits(),
                solo[j].residual.to_bits(),
                "lane {j} residual"
            );
            for i in 0..n {
                assert_eq!(
                    block_x[j][i].to_bits(),
                    solo_x[j][i].to_bits(),
                    "lane {j} x[{i}]"
                );
            }
        }
        block
    }

    fn assert_lane_identity(k: usize) {
        let a = laplacian(64, 0.1);
        let m = JacobiPrecond::new(&a.diagonal());
        let bs: Vec<Vec<f64>> = (0..k as u64).map(|s| rhs(64, s + 1)).collect();
        assert_lanes_match_oracle(&a, &m, &bs, || SolveOpts::new(1e-10, 0.0, 400));
    }

    #[test]
    fn block_cg_matches_solo_bitwise_k1() {
        assert_lane_identity(1);
    }

    #[test]
    fn block_cg_matches_solo_bitwise_k2() {
        assert_lane_identity(2);
    }

    #[test]
    fn block_cg_matches_solo_bitwise_k4() {
        assert_lane_identity(4);
    }

    /// A lane whose RHS is `A e_17` exits early; the others keep iterating.
    /// The early lane's exit iteration and bits must match its solo run,
    /// and the stragglers must be unaffected by the mask.
    #[test]
    fn block_cg_masks_converged_early_lane() {
        let n = 48;
        let a = laplacian(n, 0.5);
        let mut b0 = vec![0.0; n];
        {
            let mut e = vec![0.0; n];
            e[17] = 1.0;
            a.matvec(&e, &mut b0);
        }
        let bs = [b0, rhs(n, 7), rhs(n, 8), rhs(n, 9)];
        let block = assert_lanes_match_oracle(&a, &IdentityPrecond, &bs, || {
            SolveOpts::new(1e-10, 0.0, 300)
        });
        assert!(
            block[0].iterations < block[1].iterations,
            "lane 0 must exit early"
        );
    }

    /// A zero RHS converges at iteration 0 (‖r‖ = 0 ≤ tol): the lane must
    /// exit before contributing to any batch.
    #[test]
    fn block_cg_masks_zero_rhs_lane() {
        let n = 32;
        let a = laplacian(n, 0.25);
        let m = JacobiPrecond::new(&a.diagonal());
        let bs = [vec![0.0; n], rhs(n, 3)];
        let block = assert_lanes_match_oracle(&a, &m, &bs, || SolveOpts::new(1e-12, 0.0, 200));
        assert!(block[0].converged);
        assert_eq!(block[0].iterations, 0);
        assert!(block[1].converged);
        assert!(block[1].iterations > 0);
    }

    /// Round accounting: with every lane active for all `it` iterations the
    /// block solver issues `2 + 2·it` dots rounds total — independent of k —
    /// where k sequential solves issue `k · (2 + 2·it)`.
    #[test]
    fn block_cg_fuses_rounds_across_lanes() {
        let n = 40;
        let a = laplacian(n, 0.0);
        let m = IdentityPrecond;
        let k = 4;
        let iters = 12;
        let bs: Vec<Vec<f64>> = (0..k as u64).map(|s| rhs(n, s + 11)).collect();

        // rtol = 0 with a fixed cap: every lane runs exactly `iters`
        // iterations, so the round count is deterministic.
        let block_rd = CountingReduce::new();
        let mut block_x: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
        let b_refs: Vec<&[f64]> = bs.iter().map(|b| b.as_slice()).collect();
        let mut x_refs: Vec<&mut [f64]> = block_x.iter_mut().map(|x| x.as_mut_slice()).collect();
        let opts = SolveOpts {
            reduce: &block_rd,
            ..SolveOpts::new(0.0, 0.0, iters)
        };
        block_cg(&a, &b_refs, &mut x_refs, &m, opts);
        let block_rounds = block_rd.rounds();
        assert_eq!(block_rounds, 2 + 2 * iters);
        // Every round carried all k lanes' pairs.
        assert_eq!(block_rd.pairs(), k + 2 * k + iters * (k + 2 * k));

        let seq_rd = CountingReduce::new();
        for b in &bs {
            let mut x = vec![0.0; n];
            let opts = SolveOpts {
                reduce: &seq_rd,
                ..SolveOpts::new(0.0, 0.0, iters)
            };
            crate::cg(&a, b, &mut x, &m, opts);
        }
        let seq_rounds = seq_rd.rounds();
        assert_eq!(seq_rounds, k * (2 + 2 * iters));
        // The acceptance bar: k = 4 must use ≤ 1/3 the rounds.
        assert!(3 * block_rounds <= seq_rounds);
    }

    #[test]
    #[should_panic(expected = "block_cg: a checkpoint follows one lane, not 2")]
    fn block_cg_refuses_a_checkpoint_for_two_lanes() {
        let a = laplacian(8, 0.0);
        let bs = [rhs(8, 1), rhs(8, 2)];
        let mut xs = vec![vec![0.0; 8]; 2];
        let b_refs: Vec<&[f64]> = bs.iter().map(|b| b.as_slice()).collect();
        let mut x_refs: Vec<&mut [f64]> = xs.iter_mut().map(|x| x.as_mut_slice()).collect();
        let mut ck = crate::Checkpointer::new(5);
        let opts = SolveOpts {
            checkpoint: Some(&mut ck),
            ..SolveOpts::new(1e-10, 0.0, 50)
        };
        block_cg(&a, &b_refs, &mut x_refs, &IdentityPrecond, opts);
    }

    /// The pair lists of every batch live in one allocation per solve.
    #[test]
    fn recycled_pair_list_keeps_its_allocation() {
        let u = [1.0, 2.0];
        let mut v: Pairs = Vec::with_capacity(8);
        v.push((&u, &u));
        let (ptr, cap) = (v.as_ptr() as usize, v.capacity());
        let w = {
            let local = [3.0];
            let mut w = recycle(v);
            w.push((&local, &local));
            recycle(w)
        };
        assert!(w.is_empty());
        assert_eq!((w.as_ptr() as usize, w.capacity()), (ptr, cap));
    }
}
