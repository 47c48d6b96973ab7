//! Persistent neighbor-sparse ghost exchange (the latency-hiding engine
//! under `DistMesh`'s ghost reads/accumulates).
//!
//! The dense `all_to_allv` path ships `p` lanes per exchange even when most
//! are empty; an [`ExchangeHandle`] is built **once** from the send/recv
//! plans and afterwards talks only to actual neighbors. Each exchange is
//! split into a *post* (pack + nonblocking sends + posted receives) and a
//! *wait* (complete receives + scatter), so callers can overlap computation
//! with the in-flight messages — the paper's §3.5 MATVEC structure.
//!
//! Buffer discipline: every lane owns one reusable payload `Vec`. A posted
//! send moves the lane's buffer into the transport; a completed receive
//! parks the arriving `Vec` in the matching lane. Because a ghost *read*
//! sends `|send_plan[q]|` values and receives `|recv_plan[q]|` while the
//! following *accumulate* does exactly the opposite, the buffers circulate
//! between the two directions and the steady-state read→accumulate cycle of
//! a Krylov iteration allocates nothing.
//!
//! Tag discipline: one collective tag per exchange round. `post_read` /
//! `accumulate` are **collective** — every rank must call them in the same
//! order (SPMD), including ranks with no neighbors, so the op counter stays
//! aligned across the cluster. Fault injection (delay / reorder / duplicate)
//! and the watchdog apply to every lane exactly as on the dense path.
//!
//! Loss tolerance: every lane payload travels as a sequence-numbered,
//! checksummed frame (`Comm::send_frame` / `Comm::recv_frame`). The handle's
//! monotonic round counter is the sequence number — identical across ranks
//! by SPMD discipline — so dropped frames are re-fetched from the transport's
//! retransmit buffer with bounded exponential backoff, corrupted frames are
//! detected by checksum and replaced with the pristine copy, and stale
//! retransmit duplicates are discarded by sequence check. Recovery restores
//! the original payload bits, so lossy chaos stays bitwise exact.

use crate::comm::Comm;

/// One neighbor's worth of exchange state: the peer rank, the local value
/// indices packed to / scattered from it, and the reusable payload buffer.
struct Lane {
    rank: usize,
    idx: Vec<u32>,
    buf: Vec<f64>,
}

impl Lane {
    /// Packs `values[idx]` into the lane's (recycled) buffer and takes it
    /// for sending.
    fn pack(&mut self, values: &[f64]) -> Vec<f64> {
        self.buf.clear();
        self.buf
            .extend(self.idx.iter().map(|&i| values[i as usize]));
        std::mem::take(&mut self.buf)
    }
}

/// An in-flight ghost read started by [`ExchangeHandle::post_read`] and
/// finished by [`ExchangeHandle::wait_read`]. Carries the exchange round's
/// collective tag + frame sequence number and the bytes this rank sent when
/// posting.
#[must_use = "a posted exchange must be completed with wait_read"]
pub struct PendingRead {
    tag: u64,
    seq: u64,
    bytes_sent: u64,
}

impl PendingRead {
    /// Payload bytes this rank sent when posting the read.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

/// Persistent neighbor-sparse exchange plan: only ranks with nonempty lanes
/// are kept, and pack/unpack buffers are reused across calls.
pub struct ExchangeHandle {
    /// Lanes to ranks that need this rank's owned values (`send_plan`).
    send: Vec<Lane>,
    /// Lanes from the owners of this rank's ghost values (`recv_plan`).
    recv: Vec<Lane>,
    /// Distinct neighbor ranks across both directions (precomputed so the
    /// per-exchange obs counter allocates nothing).
    neighbors: usize,
    /// Monotonic exchange-round counter, the frame sequence number. Both
    /// `post_read` and `accumulate` bump it; SPMD discipline keeps it
    /// identical across ranks, so sender and receiver agree on the expected
    /// sequence without negotiation. A new handle starts at 0: every
    /// exchange also takes a fresh collective tag and frames are matched on
    /// `(tag, seq)`, so nothing needs to carry over from an older handle.
    rounds: u64,
}

impl ExchangeHandle {
    /// Builds the handle from dense per-rank plans (`plan[q]` = local value
    /// indices exchanged with rank `q`), dropping every empty lane.
    /// `send_plan[q]` indexes owned values rank `q` reads; `recv_plan[q]`
    /// indexes ghost values owned by rank `q`, ordered to match `q`'s send
    /// plan.
    pub fn new(send_plan: &[Vec<u32>], recv_plan: &[Vec<u32>]) -> Self {
        let keep = |plans: &[Vec<u32>]| -> Vec<Lane> {
            plans
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_empty())
                .map(|(rank, p)| Lane {
                    rank,
                    idx: p.clone(),
                    buf: Vec::with_capacity(p.len()),
                })
                .collect()
        };
        let send = keep(send_plan);
        let recv = keep(recv_plan);
        let mut ranks: Vec<usize> = send.iter().chain(&recv).map(|l| l.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ExchangeHandle {
            send,
            recv,
            neighbors: ranks.len(),
            rounds: 0,
        }
    }

    /// Registers the posted-but-unmatched lane state with the watchdog: if a
    /// blocking wait times out while this exchange is outstanding, the
    /// diagnostic names the peer ranks still owed a message.
    fn note_outstanding(comm: &Comm, what: &str, seq: u64, lanes: &[Lane], matched: usize) {
        if lanes.len() == matched {
            comm.clear_exchange_note();
            return;
        }
        let peers: Vec<String> = lanes
            .iter()
            .skip(matched)
            .map(|l| l.rank.to_string())
            .collect();
        comm.set_exchange_note(format!(
            "{what} round {seq}: {} of {} lane(s) unmatched, awaiting rank(s) [{}]",
            lanes.len() - matched,
            lanes.len(),
            peers.join(", ")
        ));
    }

    /// Number of neighbor ranks this rank exchanges with (union of send and
    /// receive directions).
    pub fn neighbor_count(&self) -> usize {
        self.neighbors
    }

    /// `(peer rank, local value indices)` of every non-empty send lane, in
    /// rank order — the plan the handle was built from, for digests.
    pub fn send_lanes(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.send.iter().map(|l| (l.rank, l.idx.as_slice()))
    }

    /// Like [`Self::send_lanes`], for the receive direction.
    pub fn recv_lanes(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.recv.iter().map(|l| (l.rank, l.idx.as_slice()))
    }

    /// Payload bytes one ghost read sends from this rank.
    pub fn read_bytes(&self) -> u64 {
        self.send.iter().map(|l| (l.idx.len() * 8) as u64).sum()
    }

    /// Posts the owner→user direction (ghost read) of `values`: packs and
    /// sends one message per nonempty send lane, posts one receive per
    /// nonempty recv lane. Collective (one tag tick on every rank); returns
    /// immediately so the caller can compute while messages are in flight.
    pub fn post_read(&mut self, comm: &Comm, values: &[f64]) -> PendingRead {
        let tag = comm.next_tag();
        let seq = self.rounds;
        self.rounds += 1;
        carve_obs::counter("neighbor_ranks", self.neighbors as u64);
        let mut bytes_sent = 0u64;
        for lane in &mut self.send {
            let payload = lane.pack(values);
            bytes_sent += (payload.len() * 8) as u64;
            comm.send_frame(lane.rank, tag, seq, payload);
        }
        // From here until wait_read completes, a watchdog timeout anywhere
        // on this rank names the peers still owed a lane message.
        Self::note_outstanding(comm, "ghost read", seq, &self.recv, 0);
        PendingRead {
            tag,
            seq,
            bytes_sent,
        }
    }

    /// Completes a posted read: blocks (abort-polled, watchdog-guarded) for
    /// each neighbor's payload and scatters it into the ghost slots of
    /// `values`. Arriving buffers are parked in their lanes for the next
    /// accumulate to reuse. Returns the bytes sent at post time.
    pub fn wait_read(&mut self, comm: &Comm, pending: PendingRead, values: &mut [f64]) -> u64 {
        for i in 0..self.recv.len() {
            Self::note_outstanding(comm, "ghost read", pending.seq, &self.recv, i);
            let payload =
                comm.recv_frame(self.recv[i].rank, pending.tag, pending.seq, "ghost read");
            let lane = &mut self.recv[i];
            if payload.len() != lane.idx.len() {
                comm.protocol_error(format!(
                    "ghost read from rank {}: got {} values for {} ghost slots",
                    lane.rank,
                    payload.len(),
                    lane.idx.len()
                ));
            }
            for (&slot, &v) in lane.idx.iter().zip(&payload) {
                values[slot as usize] = v;
            }
            lane.buf = payload;
        }
        comm.clear_exchange_note();
        pending.bytes_sent
    }

    /// Blocking ghost read: post + wait back to back. This is the fallback
    /// path for call sites with nothing to overlap; it still gets the
    /// neighbor-sparse lanes and recycled buffers.
    pub fn read(&mut self, comm: &Comm, values: &mut [f64]) -> u64 {
        let pending = self.post_read(comm, values);
        self.wait_read(comm, pending, values)
    }

    /// The user→owner direction (ghost accumulate): sends this rank's ghost
    /// partial sums to their owners and adds arriving contributions into the
    /// owned slots. Ghost entries are zeroed locally (their authoritative
    /// value now lives at the owner). Collective; returns bytes sent.
    pub fn accumulate(&mut self, comm: &Comm, values: &mut [f64]) -> u64 {
        let tag = comm.next_tag();
        let seq = self.rounds;
        self.rounds += 1;
        carve_obs::counter("neighbor_ranks", self.neighbors as u64);
        let mut bytes = 0u64;
        for lane in &mut self.recv {
            let payload = lane.pack(values);
            bytes += (payload.len() * 8) as u64;
            for &slot in &lane.idx {
                values[slot as usize] = 0.0;
            }
            comm.send_frame(lane.rank, tag, seq, payload);
        }
        for i in 0..self.send.len() {
            Self::note_outstanding(comm, "ghost accumulate", seq, &self.send, i);
            let payload = comm.recv_frame(self.send[i].rank, tag, seq, "ghost accumulate");
            let lane = &mut self.send[i];
            if payload.len() != lane.idx.len() {
                comm.protocol_error(format!(
                    "ghost accumulate from rank {}: got {} values for {} owned slots",
                    lane.rank,
                    payload.len(),
                    lane.idx.len()
                ));
            }
            for (&slot, &v) in lane.idx.iter().zip(&payload) {
                values[slot as usize] += v;
            }
            lane.buf = payload;
        }
        comm.clear_exchange_note();
        bytes
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::comm::{run_spmd, run_spmd_with, SpmdOptions};
    use crate::fault::FaultPlan;

    /// A 3-rank ring where rank r owns value r and ghosts the next rank's
    /// value: send_plan[prev] = [0] (owned slot), recv_plan[next] = [1]
    /// (ghost slot). Layout per rank: values = [owned, ghost].
    fn ring_plans(c: &Comm) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let p = c.size();
        let next = (c.rank() + 1) % p;
        let prev = (c.rank() + p - 1) % p;
        let mut send = vec![Vec::new(); p];
        let mut recv = vec![Vec::new(); p];
        send[prev] = vec![0];
        recv[next] = vec![1];
        (send, recv)
    }

    /// Sum of counter `name` over every phase the calling rank recorded
    /// since `before`.
    fn counter_since(before: &carve_obs::Snapshot, name: &str) -> u64 {
        carve_obs::thread_snapshot()
            .diff(before)
            .phases
            .values()
            .filter_map(|ph| ph.counters.get(name))
            .sum()
    }

    #[test]
    fn read_then_accumulate_roundtrip_on_ring() {
        let res = run_spmd(3, |c| {
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            assert_eq!(ex.neighbor_count(), 2);
            let mut v = [10.0 * (c.rank() as f64 + 1.0), -1.0];
            let bytes = ex.read(c, &mut v);
            assert_eq!(bytes, 8);
            // Ghost slot now holds the next rank's owned value.
            let next = (c.rank() + 1) % 3;
            assert_eq!(v[1], 10.0 * (next as f64 + 1.0));
            // Accumulate a marker back to the owner.
            v[1] = 0.5;
            ex.accumulate(c, &mut v);
            assert_eq!(v[1], 0.0, "ghost zeroed after accumulate");
            v[0]
        });
        for (r, owned) in res.iter().enumerate() {
            assert_eq!(*owned, 10.0 * (r as f64 + 1.0) + 0.5, "rank {r}");
        }
    }

    #[test]
    fn overlapped_post_wait_allows_compute_between() {
        let res = run_spmd(3, |c| {
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            let mut v = [c.rank() as f64, f64::NAN];
            let pending = ex.post_read(c, &v);
            // "Interior compute" while the exchange is in flight.
            let busy: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
            assert!(busy > 0.0);
            ex.wait_read(c, pending, &mut v);
            v[1]
        });
        for (r, ghost) in res.iter().enumerate() {
            assert_eq!(*ghost, ((r + 1) % 3) as f64, "rank {r}");
        }
    }

    #[test]
    fn empty_lanes_are_dropped_and_empty_handle_is_collective() {
        // Rank pairs (0,1) exchange; rank 2 has no neighbors but must still
        // make the collective calls — tags stay aligned and nothing hangs.
        let res = run_spmd(3, |c| {
            let p = c.size();
            let mut send = vec![Vec::new(); p];
            let mut recv = vec![Vec::new(); p];
            if c.rank() == 0 {
                send[1] = vec![0];
            } else if c.rank() == 1 {
                recv[0] = vec![1];
            }
            let mut ex = ExchangeHandle::new(&send, &recv);
            let mut v = [7.0, -1.0];
            let b1 = ex.read(c, &mut v);
            let b2 = ex.accumulate(c, &mut v);
            // A later dense collective still matches across all ranks.
            let total = c.all_reduce_u64(1, crate::comm::ReduceOp::Sum);
            (ex.neighbor_count(), b1, b2, v[1], total)
        });
        assert_eq!(res[2].0, 0, "rank 2 keeps no lanes");
        assert_eq!(res[0].1, 8, "rank 0 sends its owned value");
        assert_eq!(res[1].1, 0, "rank 1 only receives on read");
        assert_eq!(res[1].3, 0.0, "ghost zeroed by accumulate");
        for r in &res {
            assert_eq!(r.4, 3);
        }
    }

    #[test]
    fn steady_state_reuses_buffers_across_rounds() {
        // After the first read+accumulate cycle the lane buffers circulate;
        // later rounds must produce identical values (and exercise the
        // recycled capacity) for many iterations.
        let res = run_spmd(4, |c| {
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            let mut acc = 0.0;
            for round in 0..20 {
                let mut v = [c.rank() as f64 + round as f64, 0.0];
                ex.read(c, &mut v);
                acc += v[1];
                v[1] = 1.0;
                ex.accumulate(c, &mut v);
                acc += v[0];
            }
            acc
        });
        let expect = |r: usize| -> f64 {
            (0..20)
                .map(|k| ((r + 1) % 4) as f64 + k as f64 + (r as f64 + k as f64 + 1.0))
                .sum()
        };
        for (r, got) in res.iter().enumerate() {
            assert!((got - expect(r)).abs() < 1e-12, "rank {r}: {got}");
        }
    }

    #[test]
    fn chaos_schedules_leave_exchange_values_exact() {
        // Delay/reorder/duplicate must not change a single exchanged value,
        // and the watchdog must stay quiet.
        let run = |fault: Option<FaultPlan>| {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            opts.fault = fault;
            run_spmd_with(4, opts, |c| {
                let (sp, rp) = ring_plans(c);
                let mut ex = ExchangeHandle::new(&sp, &rp);
                let mut out = Vec::new();
                for round in 0..8 {
                    let mut v = [(c.rank() * 31 + round) as f64, 0.0];
                    let pending = ex.post_read(c, &v);
                    ex.wait_read(c, pending, &mut v);
                    v[1] += 0.25;
                    ex.accumulate(c, &mut v);
                    out.push(v[0]);
                    out.push(v[1]);
                }
                out
            })
            .expect("chaos must not break the exchange")
        };
        let clean = run(None);
        for seed in [5u64, 97] {
            assert_eq!(run(Some(FaultPlan::chaos(seed))), clean, "seed {seed}");
        }
    }

    #[test]
    fn lossy_chaos_recovers_bitwise_identical_values() {
        // Frame drops + corruption must be fully recovered: every exchanged
        // value bit-identical to the fault-free run, via checksum detection
        // and the retransmit store.
        let run = |fault: Option<FaultPlan>| {
            let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
            opts.fault = fault;
            run_spmd_with(4, opts, |c| {
                let (sp, rp) = ring_plans(c);
                let mut ex = ExchangeHandle::new(&sp, &rp);
                let mut out = Vec::new();
                for round in 0..12 {
                    let mut v = [(c.rank() * 17 + round) as f64 + 0.125, 0.0];
                    let pending = ex.post_read(c, &v);
                    ex.wait_read(c, pending, &mut v);
                    v[1] += 0.25;
                    ex.accumulate(c, &mut v);
                    out.push(v[0]);
                    out.push(v[1]);
                }
                out
            })
            .expect("lossy chaos must not break the exchange")
        };
        let clean = run(None);
        for seed in [5u64, 29, 97] {
            assert_eq!(run(Some(FaultPlan::lossy(seed))), clean, "seed {seed}");
        }
    }

    #[test]
    fn every_frame_dropped_still_recovers_exactly() {
        // drop_prob = 1.0: no frame ever arrives directly; every lane wait
        // must go through the retry/backoff + retransmit-store path.
        let plan = FaultPlan {
            seed: 13,
            drop_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
        opts.fault = Some(plan);
        let res = run_spmd_with(3, opts, |c| {
            let _obs = carve_obs::force_enabled();
            let before = carve_obs::thread_snapshot();
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            let mut v = [10.0 * (c.rank() as f64 + 1.0), -1.0];
            ex.read(c, &mut v);
            let recovered = counter_since(&before, "drops_detected")
                + counter_since(&before, "corrupt_detected");
            (v[1], counter_since(&before, "retries"), recovered)
        })
        .expect("dropped frames must be recovered");
        for (r, (ghost, retries, recovered)) in res.iter().enumerate() {
            assert_eq!(*ghost, 10.0 * (((r + 1) % 3) as f64 + 1.0), "rank {r}");
            assert!(*recovered > 0, "rank {r}: no drop was detected");
            assert_eq!(
                retries, recovered,
                "rank {r}: retries must count recoveries"
            );
        }
    }

    #[test]
    fn every_frame_corrupted_still_recovers_exactly() {
        // corrupt_prob = 1.0: every frame arrives mangled; the checksum must
        // catch each one and the pristine copy must replace it.
        let plan = FaultPlan {
            seed: 13,
            corrupt_prob: 1.0,
            ..FaultPlan::default()
        };
        let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
        opts.fault = Some(plan);
        let res = run_spmd_with(3, opts, |c| {
            let _obs = carve_obs::force_enabled();
            let before = carve_obs::thread_snapshot();
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            let mut acc = 0.0;
            for round in 0..4 {
                let mut v = [(c.rank() + round) as f64 + 0.5, 0.0];
                ex.read(c, &mut v);
                acc += v[1];
            }
            let recovered = counter_since(&before, "drops_detected")
                + counter_since(&before, "corrupt_detected");
            (acc, counter_since(&before, "retries"), recovered)
        })
        .expect("corrupted frames must be recovered");
        for (r, (got, retries, recovered)) in res.iter().enumerate() {
            let expect: f64 = (0..4).map(|k| (((r + 1) % 3) + k) as f64 + 0.5).sum();
            assert_eq!(*got, expect, "rank {r}");
            assert!(*recovered > 0, "rank {r}: no corruption was detected");
            assert_eq!(
                retries, recovered,
                "rank {r}: retries must count recoveries"
            );
        }
    }

    #[test]
    fn slow_peer_is_not_a_retry() {
        // Rank 1 posts its read three retry windows late. Its neighbours'
        // lane timers expire and find nothing in the retransmit store: that
        // is backoff, not a recovered frame, so `retries` stays 0.
        let late = 3 * crate::comm::DEFAULT_RETRY_BASE;
        let res = run_spmd_with(3, SpmdOptions::default(), |c| {
            let _obs = carve_obs::force_enabled();
            let before = carve_obs::thread_snapshot();
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            if c.rank() == 1 {
                std::thread::sleep(late);
            }
            let mut v = [c.rank() as f64 + 1.0, 0.0];
            ex.read(c, &mut v);
            (
                v[1],
                counter_since(&before, "retries"),
                counter_since(&before, "backoff_ns"),
            )
        })
        .expect("a slow peer must not fail the exchange");
        for (r, (ghost, retries, _)) in res.iter().enumerate() {
            assert_eq!(*ghost, ((r + 1) % 3) as f64 + 1.0, "rank {r}");
            assert_eq!(*retries, 0, "rank {r}: a late frame is not a retry");
        }
        // Rank 0 ghosts rank 1's value, so it is the one that waited.
        assert!(res[0].2 > 0, "rank 0 waited past its retry window");
    }

    #[test]
    fn kill_between_post_and_wait_aborts_cleanly() {
        use crate::comm::ReduceOp;
        use crate::error::{CommError, FailureKind};

        let body = |c: &Comm| -> (u64, f64) {
            let (sp, rp) = ring_plans(c);
            let mut ex = ExchangeHandle::new(&sp, &rp);
            let mut v = [c.rank() as f64 + 1.0, 0.0];
            let pending = ex.post_read(c, &v);
            let at_post = c.op_count();
            // Overlap-window collective: the kill lands here, after the
            // victim posted its lanes but before it completed the wait.
            let s = c.all_reduce_f64(v[0], ReduceOp::Sum);
            ex.wait_read(c, pending, &mut v);
            (at_post, s + v[1])
        };
        // Probe run: find the victim's op count right after post_read.
        let at_post = run_spmd(3, body)[1].0;

        let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_secs(20));
        opts.fault = Some(FaultPlan::chaos(11).with_kill(1, at_post + 1));
        let err = run_spmd_with(3, opts, body).expect_err("kill must abort the cluster");
        assert_eq!(err.failed_ranks(), vec![1]);
        assert!(
            matches!(
                &err.primary()[0].kind,
                FailureKind::Comm(CommError::FaultInjected { rank: 1, .. })
            ),
            "{err}"
        );
        // Survivors unwound sympathetically — no watchdog timeouts, no
        // protocol errors from poisoned lane buffers.
        for f in &err.failures {
            if f.rank != 1 {
                assert!(f.is_sympathetic(), "rank {} failure: {f}", f.rank);
            }
        }
    }

    #[test]
    fn watchdog_timeout_names_exchange_peer() {
        use crate::error::{CommError, FailureKind};
        // Rank 1 never posts its exchange round, so rank 0's wait_read must
        // time out *and name rank 1* via the outstanding-lane diagnostic.
        let mut opts = SpmdOptions::default().timeout(std::time::Duration::from_millis(200));
        opts.fault = None;
        let err = run_spmd_with(2, opts, |c| {
            let p = c.size();
            let mut send = vec![Vec::new(); p];
            let mut recv = vec![Vec::new(); p];
            if c.rank() == 0 {
                recv[1] = vec![1];
                let mut ex = ExchangeHandle::new(&send, &recv);
                let mut v = [0.0, -1.0];
                let pending = ex.post_read(c, &v);
                ex.wait_read(c, pending, &mut v);
            } else {
                // Deliberately absent: rank 1 owes rank 0 a lane message.
                send[0] = vec![0];
                let _ex = ExchangeHandle::new(&send, &recv);
                std::thread::sleep(std::time::Duration::from_millis(400));
            }
        })
        .expect_err("missing peer must trip the watchdog");
        match &err.primary()[0].kind {
            FailureKind::Comm(CommError::Timeout { context, .. }) => {
                assert!(context.contains("ghost read"), "context: {context}");
                assert!(
                    context.contains("awaiting rank(s) [1]"),
                    "context: {context}"
                );
                assert!(
                    context.contains("retransmit attempt(s) exhausted"),
                    "context: {context}"
                );
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn nonblocking_primitives_roundtrip_out_of_order() {
        let res = run_spmd(2, |c| {
            if c.rank() == 0 {
                // Post both receives before either message is sent.
                let h2 = c.irecv_post::<u8>(1, 2);
                let h1 = c.irecv_post::<u8>(1, 1);
                c.isend(1, 9, vec![3u8]);
                let b = h2.wait(c)[0];
                let a = h1.wait(c)[0];
                (a as usize) * 10 + b as usize
            } else {
                let h = c.irecv_post::<u8>(0, 9);
                c.isend(0, 2, vec![2u8]);
                c.isend(0, 1, vec![1u8]);
                // Poll until it lands (it may already have).
                loop {
                    if let Some(v) = h.try_complete(c) {
                        break v[0] as usize;
                    }
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(res, vec![12, 3]);
    }

    #[test]
    fn fused_all_reduce_matches_scalar_reductions() {
        use crate::comm::ReduceOp;
        let res = run_spmd(4, |c| {
            let r = c.rank() as f64;
            let vals = [r, r * r, -r];
            let fused_sum = c.all_reduce_f64_many(&vals, ReduceOp::Sum);
            let fused_max = c.all_reduce_f64_many(&vals, ReduceOp::Max);
            let scalar: Vec<f64> = vals
                .iter()
                .map(|&v| c.all_reduce_f64(v, ReduceOp::Sum))
                .collect();
            (fused_sum, fused_max, scalar)
        });
        for (fused_sum, fused_max, scalar) in res {
            assert_eq!(fused_sum, scalar, "fused batch equals scalar reductions");
            assert_eq!(fused_sum, vec![6.0, 14.0, -6.0]);
            assert_eq!(fused_max, vec![3.0, 9.0, -0.0]);
        }
    }

    #[test]
    fn fused_all_reduce_uses_one_round() {
        let res = run_spmd(3, |c| {
            let before = c.stats().messages;
            let _ = c.all_reduce_f64_many(&[1.0, 2.0, 3.0, 4.0], crate::comm::ReduceOp::Sum);
            c.stats().messages - before
        });
        for sent in res {
            assert_eq!(sent, 2, "one message per peer for the whole batch");
        }
    }
}
