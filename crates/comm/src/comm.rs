//! The per-rank communicator and the fault-tolerant SPMD launcher.
//!
//! Failure model (see DESIGN.md "Failure model"):
//!
//! * every rank runs under `catch_unwind`; a panic on one rank trips a
//!   cluster-wide **abort flag** instead of deadlocking the survivors;
//! * every blocking wait (`recv`, `barrier`, collectives) polls that flag
//!   and a **watchdog deadline** (`CARVE_COMM_TIMEOUT` seconds, or
//!   [`SpmdOptions::timeout`]); on expiry the rank emits a diagnostic
//!   naming what it awaited and which messages are parked, then aborts the
//!   cluster;
//! * all failures surface as structured [`CommError`]s collected into one
//!   [`SpmdError`] by [`try_run_spmd`] / [`run_spmd_with`];
//! * a seeded [`FaultPlan`] can delay, reorder, duplicate, drop, or corrupt
//!   deliveries, or kill a rank at a chosen op count, deterministically per
//!   seed;
//! * the sequenced lane frames of [`crate::ExchangeHandle`] recover dropped
//!   or corrupted deliveries through a bounded retransmit-retry protocol
//!   with exponential backoff (`CARVE_RETRY_BASE`, at most
//!   [`DEFAULT_RETRY_MAX`] attempts), so
//!   a lossy schedule still converges to the bitwise fault-free result.

use std::any::{type_name, Any};
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{CommError, FailureKind, RankFailure, SpmdError};
use crate::fault::{ChaosProfile, FaultPlan};

type Packet = (usize, u64, Box<dyn Any + Send>);

/// How often blocking waits wake to re-check the abort flag and deadline.
const POLL: Duration = Duration::from_millis(2);

/// Environment variable holding the watchdog deadline in (fractional)
/// seconds for every blocking communication wait.
pub const TIMEOUT_ENV: &str = "CARVE_COMM_TIMEOUT";

/// Default watchdog deadline when neither [`TIMEOUT_ENV`] nor
/// [`SpmdOptions::timeout`] is set: generous enough for debug-build meshes,
/// far short of "hung forever".
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

fn default_timeout() -> Duration {
    std::env::var(TIMEOUT_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .map(Duration::from_secs_f64)
        .unwrap_or(DEFAULT_TIMEOUT)
}

/// Environment variable enabling ambient fault injection for every SPMD run
/// launched without an explicit [`FaultPlan`]. The value is
/// `seed[:profile]` where `profile` is `delay` (default), `chaos`, or
/// `lossy`; a seed of `0`, empty, or unset disables it. Used by CI to run
/// the whole test suite under adversarial message timing
/// (`CARVE_CHAOS=29`) and under frame loss + corruption
/// (`CARVE_CHAOS=29:lossy`) — results must stay bit-exact either way.
pub const CHAOS_ENV: &str = "CARVE_CHAOS";

/// Environment variable holding the initial per-lane receive timeout in
/// (fractional) seconds before the retransmit-retry path asks the
/// transport's retransmit buffer for a missing frame.
pub const RETRY_BASE_ENV: &str = "CARVE_RETRY_BASE";

/// Default initial per-lane receive timeout: long enough that a healthy
/// (merely delayed) frame almost always arrives first, short enough that a
/// genuinely dropped frame costs milliseconds, not the watchdog deadline.
pub const DEFAULT_RETRY_BASE: Duration = Duration::from_millis(25);

/// Bound on retransmit-retry attempts per expected frame; once exhausted
/// the wait falls through to the watchdog deadline with the retry history
/// in its diagnostic.
pub const DEFAULT_RETRY_MAX: u32 = 10;

/// Ambient plan from [`CHAOS_ENV`]: parses `seed[:profile]` and returns the
/// profile's seeded plan. Unknown profile names conservatively fall back to
/// delay-only (ambient injection must never turn a typo into a hard
/// failure or an unintended traffic perturbation).
fn env_chaos_plan() -> Option<FaultPlan> {
    let raw = std::env::var(CHAOS_ENV).ok()?;
    let raw = raw.trim();
    let (seed_part, profile) = match raw.split_once(':') {
        Some((s, p)) => (s, ChaosProfile::parse(p)),
        None => (raw, ChaosProfile::Delay),
    };
    let seed = seed_part.trim().parse::<u64>().ok().filter(|&s| s != 0)?;
    Some(profile.plan(seed))
}

fn default_retry_base() -> Duration {
    std::env::var(RETRY_BASE_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .map(Duration::from_secs_f64)
        .unwrap_or(DEFAULT_RETRY_BASE)
}

/// Mutex poisoning is irrelevant here: the abort protocol owns failure
/// propagation, so a lock held across a panic is still structurally sound.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fmt_tag(tag: u64) -> String {
    if tag & USER_TAG_BIT != 0 {
        format!("user tag {}", tag & !USER_TAG_BIT)
    } else if tag & COLL_DATA_BIT != 0 {
        format!("collective op {} (data phase)", tag & !COLL_DATA_BIT)
    } else {
        format!("collective op {tag}")
    }
}

/// Reduction operator for [`Comm::all_reduce_f64`] / [`Comm::all_reduce_u64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

/// Communication counters for one rank (exact byte accounting, both
/// directions; Fig. 11's raw data).
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// Payload bytes sent by this rank (point-to-point and collectives).
    pub bytes_sent: u64,
    /// Number of messages sent.
    pub messages: u64,
    /// Payload bytes received by this rank; in a fault-free run the cluster
    /// totals of `bytes_sent` and `bytes_received` are equal.
    pub bytes_received: u64,
    /// Number of messages received.
    pub messages_received: u64,
    /// Number of collective operations this rank has entered (barrier,
    /// all_gather(v), all_reduce_*, exscan, all_to_allv, bcast).
    pub collective_calls: u64,
    /// Messages sent from inside collectives. With the tree-structured
    /// implementations, `collective_messages / collective_calls` is
    /// O(log2 size) + O(non-empty all_to_allv lanes) — asserted by the
    /// counter-complexity tests, so an accidental O(size) regression fails
    /// loudly.
    pub collective_messages: u64,
}

/// Sequence-numbered, checksummed payload of one exchange-lane message.
/// The sequence number pins the frame to its exchange round (rejecting
/// stale retransmitted or duplicated copies); the checksum covers the
/// sequence number and every payload bit, so in-flight corruption is
/// detected at the receiver and recovered from the retransmit store.
#[derive(Clone)]
pub(crate) struct Frame {
    seq: u64,
    checksum: u64,
    data: Vec<f64>,
}

/// Splitmix-style rolling hash over the frame identity and payload bits.
fn frame_checksum(seq: u64, data: &[f64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (data.len() as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    for v in data {
        h ^= v.to_bits();
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Deterministic backoff jitter: a pure function of the lane identity and
/// attempt number, so concurrent retry timers desynchronize without
/// introducing run-to-run nondeterminism.
fn retry_jitter(rank: usize, from: usize, tag: u64, attempt: u32) -> Duration {
    let mut z = ((rank as u64) << 32)
        ^ ((from as u64) << 16)
        ^ tag
        ^ ((attempt as u64) << 48)
        ^ 0x5851_F42D_4C95_7F2D;
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    Duration::from_micros(z % 1000)
}

/// The cluster's transport-level retransmit buffer. A frame the fault layer
/// drops or corrupts in flight parks its pristine copy here — every
/// reliable link layer keeps such a sender-side buffer — and the receiver's
/// bounded-retry path fetches it by exact identity `(from, to, tag, seq)`,
/// standing in for the NACK round-trip a real MPI progress engine would
/// service asynchronously.
/// Why a pristine frame copy was parked in the retransmit store. Recovery
/// counters key off this (not off which recovery path won), so
/// `drops_detected`/`corrupt_detected` stay pure functions of the fault
/// seed even when a retry timer races the delivery of a mangled copy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LossKind {
    Dropped,
    Corrupted,
}

/// One stashed retransmit entry: `(from, to, tag, injected kind, frame)`.
type StashedFrame = (usize, usize, u64, LossKind, Frame);

#[derive(Default)]
struct RetransmitStore {
    frames: Mutex<Vec<StashedFrame>>,
}

impl RetransmitStore {
    fn stash(&self, from: usize, to: usize, tag: u64, kind: LossKind, frame: Frame) {
        lock_ignore_poison(&self.frames).push((from, to, tag, kind, frame));
    }

    fn fetch(&self, from: usize, to: usize, tag: u64, seq: u64) -> Option<(LossKind, Frame)> {
        let mut frames = lock_ignore_poison(&self.frames);
        frames
            .iter()
            .position(|(f, t, g, _, fr)| *f == from && *t == to && *g == tag && fr.seq == seq)
            .map(|pos| {
                let (_, _, _, kind, frame) = frames.swap_remove(pos);
                (kind, frame)
            })
    }
}

fn count_recovery(kind: LossKind) {
    match kind {
        LossKind::Dropped => carve_obs::counter("drops_detected", 1),
        LossKind::Corrupted => carve_obs::counter("corrupt_detected", 1),
    }
}

struct BarrierState {
    count: Mutex<(usize, u64)>, // (arrived, generation)
    cv: Condvar,
}

/// Cluster-wide abort flag: first failure wins the `origin` slot; every
/// blocking wait polls `flag`.
#[derive(Default)]
struct AbortState {
    flag: AtomicBool,
    origin: Mutex<Option<(usize, String)>>,
}

impl AbortState {
    fn trip(&self, rank: usize, reason: &str) {
        {
            let mut o = lock_ignore_poison(&self.origin);
            if o.is_none() {
                *o = Some((rank, reason.to_string()));
            }
        }
        self.flag.store(true, Ordering::SeqCst);
    }

    fn tripped(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> (usize, String) {
        lock_ignore_poison(&self.origin)
            .clone()
            .unwrap_or((usize::MAX, String::from("unknown origin")))
    }
}

/// Typed panic payload carrying a structured comm error through an unwind;
/// [`run_spmd_with`] downcasts it back into the [`SpmdError`] report.
pub(crate) struct CommFailure(pub(crate) CommError);

/// One rank's handle to the simulated cluster.
///
/// Not `Sync`: each rank owns its handle on its own thread, like an MPI rank.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Packet>>>,
    receiver: Receiver<Packet>,
    /// Out-of-order messages parked until a matching `recv`.
    inbox: RefCell<Vec<Packet>>,
    barrier: Arc<BarrierState>,
    abort: Arc<AbortState>,
    /// Monotonic collective-operation counter; identical across ranks because
    /// execution is SPMD, so it doubles as a collision-free message tag.
    op_counter: Cell<u64>,
    /// Total communication ops on this rank (collectives + point-to-point);
    /// drives fault-injection kill points and timeout diagnostics.
    ops: Cell<u64>,
    stats: Cell<CommStats>,
    /// Watchdog deadline for every blocking wait.
    timeout: Duration,
    fault: Option<FaultPlan>,
    /// Sends held back by fault-injection reordering, released after the
    /// next send (or at the next blocking op / drop).
    deferred: RefCell<Vec<(usize, Packet)>>,
    /// Cluster-shared retransmit buffer backing lossy-frame recovery.
    lost: Arc<RetransmitStore>,
    /// Initial backoff of the bounded lane-retry loop (`CARVE_RETRY_BASE`).
    retry_base: Duration,
    /// Human-readable description of the exchange currently in flight on
    /// this rank (neighbor ranks + posted-but-unmatched lane counts);
    /// appended to watchdog timeout diagnostics so a hung exchange names
    /// its peer.
    exchange_note: RefCell<String>,
}

/// Tags with this bit set are reserved for user point-to-point traffic.
const USER_TAG_BIT: u64 = 1 << 63;

/// Sub-channel bit for the payload phase of two-phase collectives.
/// `all_to_allv` runs a bitmap round and a payload round under a *single*
/// op tag (so the cluster-wide op count per collective call is unchanged);
/// the payload round sets this bit to keep the two message streams apart in
/// the `(from, tag)` matcher. It can never alias another tag: user tags
/// carry [`USER_TAG_BIT`] (bit 63) and plain collective tags come from the
/// op counter, which stays far below 2^62.
const COLL_DATA_BIT: u64 = 1 << 62;

impl Comm {
    /// A size-1 communicator: collectives become no-ops/identity. Useful for
    /// running distributed algorithms sequentially.
    pub fn solo() -> Self {
        let (tx, rx) = channel();
        Comm {
            rank: 0,
            size: 1,
            senders: Arc::new(vec![tx]),
            receiver: rx,
            inbox: RefCell::new(Vec::new()),
            barrier: Arc::new(BarrierState {
                count: Mutex::new((0, 0)),
                cv: Condvar::new(),
            }),
            abort: Arc::new(AbortState::default()),
            op_counter: Cell::new(0),
            ops: Cell::new(0),
            stats: Cell::new(CommStats::default()),
            timeout: default_timeout(),
            fault: None,
            deferred: RefCell::new(Vec::new()),
            lost: Arc::new(RetransmitStore::default()),
            retry_base: default_retry_base(),
            exchange_note: RefCell::new(String::new()),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Exact communication counters accumulated so far on this rank.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    /// Total communication operations performed by this rank so far
    /// (collectives and point-to-point calls each count once). This is the
    /// counter [`FaultPlan`] kill points refer to.
    pub fn op_count(&self) -> u64 {
        self.ops.get()
    }

    /// The watchdog deadline applied to every blocking wait on this rank.
    pub fn watchdog_timeout(&self) -> Duration {
        self.timeout
    }

    // --- Failure machinery -----------------------------------------------

    /// Trips the cluster abort flag and unwinds this rank with a structured
    /// error. Never returns.
    fn fail(&self, err: CommError) -> ! {
        self.abort.trip(self.rank, &err.to_string());
        self.barrier.cv.notify_all();
        panic::panic_any(CommFailure(err));
    }

    /// Unwinds this rank because *another* rank tripped the abort flag.
    fn raise_cluster_abort(&self) -> ! {
        let (origin, reason) = self.abort.snapshot();
        panic::panic_any(CommFailure(CommError::ClusterAborted {
            rank: self.rank,
            origin,
            reason,
        }));
    }

    /// Raises a structured protocol-violation error (replaces the bare
    /// panics of pre-fault-tolerance call sites, e.g. "owner rank missing
    /// requested node"), aborting the whole cluster instead of deadlocking
    /// the survivors.
    pub fn protocol_error(&self, detail: impl Into<String>) -> ! {
        self.fail(CommError::Protocol {
            rank: self.rank,
            detail: detail.into(),
        })
    }

    fn check_abort(&self) {
        if self.abort.tripped() {
            self.raise_cluster_abort();
        }
    }

    /// Op-count bookkeeping at every public comm-op entry: abort check plus
    /// the fault-injection kill point.
    fn tick_op(&self) {
        self.check_abort();
        let n = self.ops.get() + 1;
        self.ops.set(n);
        if let Some(f) = &self.fault {
            if f.should_kill(self.rank, n) {
                self.fail(CommError::FaultInjected {
                    rank: self.rank,
                    op: n,
                });
            }
        }
    }

    // --- Accounting -------------------------------------------------------

    pub(crate) fn account_send(&self, bytes: u64) {
        let mut s = self.stats.get();
        s.bytes_sent += bytes;
        s.messages += 1;
        self.stats.set(s);
        // Mirror into the observability layer: the counter lands on the
        // phase active on this rank thread (e.g. ghost_read, treesort),
        // giving per-phase communication volumes for free.
        carve_obs::counter("bytes_sent", bytes);
        carve_obs::counter("msg_count", 1);
    }

    fn account_recv(&self, bytes: u64) {
        let mut s = self.stats.get();
        s.bytes_received += bytes;
        s.messages_received += 1;
        self.stats.set(s);
        carve_obs::counter("bytes_received", bytes);
    }

    pub(crate) fn next_tag(&self) -> u64 {
        self.tick_op();
        self.flush_deferred();
        let t = self.op_counter.get();
        self.op_counter.set(t + 1);
        t
    }

    // --- Transport --------------------------------------------------------

    /// Releases any fault-deferred sends (in original order, after whatever
    /// jumped the queue).
    fn flush_deferred(&self) {
        if self.fault.is_none() {
            return;
        }
        let packets: Vec<(usize, Packet)> = self.deferred.borrow_mut().drain(..).collect();
        for (to, pkt) in packets {
            if self.senders[to].send(pkt).is_err() {
                self.check_abort();
                self.fail(CommError::ChannelClosed {
                    rank: self.rank,
                    to,
                });
            }
        }
    }

    /// Sends one packet, applying fault-injection delay/reorder.
    pub(crate) fn dispatch(&self, to: usize, tag: u64, msg: Box<dyn Any + Send>, salt: u64) {
        if let Some(f) = &self.fault {
            let ops = self.ops.get();
            if let Some(d) = f.delay_for(self.rank, ops, salt) {
                std::thread::sleep(d);
            }
            if f.should_reorder(self.rank, ops, salt) {
                self.deferred.borrow_mut().push((to, (self.rank, tag, msg)));
                return;
            }
        }
        if self.senders[to].send((self.rank, tag, msg)).is_err() {
            self.check_abort();
            self.fail(CommError::ChannelClosed {
                rank: self.rank,
                to,
            });
        }
        // Anything deferred earlier now goes out *after* this packet: that
        // is the reorder.
        self.flush_deferred();
    }

    /// Fault-injection duplicate of a collective payload. The receiver's
    /// matcher consumes exactly one copy per `recv`; the spare parks in the
    /// inbox under a never-reused collective tag, so correctness requires
    /// (and chaos tests verify) that parked garbage is never matched.
    /// Duplicates are not accounted in [`CommStats`]: they are faults, not
    /// protocol traffic.
    pub(crate) fn maybe_duplicate<T: Clone + Send + 'static>(&self, to: usize, tag: u64, v: &[T]) {
        if let Some(f) = &self.fault {
            if f.should_duplicate(self.rank, self.ops.get(), to as u64) {
                let _ = self.senders[to].send((self.rank, tag, Box::new(v.to_vec())));
            }
        }
    }

    fn send_raw<T: Send + 'static>(&self, to: usize, tag: u64, msg: T, bytes: u64) {
        self.account_send(bytes);
        self.dispatch(to, tag, Box::new(msg), to as u64);
    }

    fn downcast_payload<T: Send + 'static>(
        &self,
        from: usize,
        tag: u64,
        b: Box<dyn Any + Send>,
    ) -> T {
        match b.downcast::<T>() {
            Ok(v) => *v,
            Err(_) => self.fail(CommError::TypeMismatch {
                rank: self.rank,
                from,
                tag: fmt_tag(tag),
                expected: type_name::<T>(),
            }),
        }
    }

    fn take_from_inbox(&self, from: usize, tag: u64) -> Option<Packet> {
        let mut inbox = self.inbox.borrow_mut();
        inbox
            .iter()
            .position(|(f, t, _)| *f == from && *t == tag)
            .map(|pos| inbox.swap_remove(pos))
    }

    /// Per-rank diagnostic attached to a watchdog timeout.
    fn recv_wait_context(&self, from: usize, tag: u64) -> String {
        let inbox = self.inbox.borrow();
        let mut parked: Vec<String> = inbox
            .iter()
            .take(16)
            .map(|(f, t, _)| format!("({f}, {})", fmt_tag(*t)))
            .collect();
        if inbox.len() > 16 {
            parked.push(format!("... {} more", inbox.len() - 16));
        }
        let mut ctx = format!(
            "waiting on recv(from rank {from}, {}); {} parked message(s) [{}]",
            fmt_tag(tag),
            inbox.len(),
            parked.join(", ")
        );
        let note = self.exchange_note.borrow();
        if !note.is_empty() {
            ctx.push_str("; outstanding exchange: ");
            ctx.push_str(&note);
        }
        ctx
    }

    /// Registers a description of the exchange in flight on this rank so a
    /// watchdog timeout can name the peer and lane state it was stuck on.
    pub(crate) fn set_exchange_note(&self, note: String) {
        *self.exchange_note.borrow_mut() = note;
    }

    pub(crate) fn clear_exchange_note(&self) {
        self.exchange_note.borrow_mut().clear();
    }

    /// Blocking matched receive with abort polling and watchdog deadline.
    fn recv_raw<T: Send + 'static>(&self, from: usize, tag: u64) -> T {
        self.flush_deferred();
        if let Some((f, t, b)) = self.take_from_inbox(from, tag) {
            return self.downcast_payload(f, t, b);
        }
        let start = Instant::now();
        loop {
            self.check_abort();
            let waited = start.elapsed();
            if waited >= self.timeout {
                self.fail(CommError::Timeout {
                    rank: self.rank,
                    op: self.ops.get(),
                    waited_secs: waited.as_secs_f64(),
                    context: self.recv_wait_context(from, tag),
                });
            }
            match self.receiver.recv_timeout(POLL) {
                Ok((f, t, b)) => {
                    if f == from && t == tag {
                        if let Some(fp) = &self.fault {
                            if let Some(d) =
                                fp.delay_for(self.rank, self.ops.get(), f as u64 | 0x8000)
                            {
                                std::thread::sleep(d);
                            }
                        }
                        return self.downcast_payload(f, t, b);
                    }
                    self.inbox.borrow_mut().push((f, t, b));
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while this rank lives (it holds a sender to
                    // itself via the shared sender table), so treat it as a
                    // protocol violation rather than ignoring it.
                    self.protocol_error("all senders disconnected while receiving");
                }
            }
        }
    }

    /// Typed receive of a `Vec` payload, with exact-byte receive accounting.
    pub(crate) fn recv_vec<T: Send + 'static>(&self, from: usize, tag: u64) -> Vec<T> {
        let v: Vec<T> = self.recv_raw(from, tag);
        self.account_recv((v.len() * std::mem::size_of::<T>()) as u64);
        v
    }

    // --- Sequenced frame transport (exchange lanes) ------------------------

    /// Sends one sequence-numbered, checksummed exchange-lane frame. This is
    /// the only transport the fault layer's `drop_prob`/`corrupt_prob` apply
    /// to: a dropped frame parks its pristine copy in the cluster retransmit
    /// store instead of going out, and a corrupted frame goes out bit-flipped
    /// while the pristine copy parks — either way [`Comm::recv_frame`]
    /// recovers the original bits, so lossy chaos stays bitwise exact.
    ///
    /// Sends are accounted exactly once per frame here, whether or not the
    /// fault layer interferes, keeping byte/message balances seed-independent.
    pub(crate) fn send_frame(&self, to: usize, tag: u64, seq: u64, data: Vec<f64>) {
        self.account_send((data.len() * std::mem::size_of::<f64>()) as u64);
        let frame = Frame {
            seq,
            checksum: frame_checksum(seq, &data),
            data,
        };
        if let Some(f) = &self.fault {
            let ops = self.ops.get();
            if f.should_drop(self.rank, ops, to as u64) {
                self.lost
                    .stash(self.rank, to, tag, LossKind::Dropped, frame);
                return;
            }
            if f.should_corrupt(self.rank, ops, to as u64) {
                self.lost
                    .stash(self.rank, to, tag, LossKind::Corrupted, frame.clone());
                let mut mangled = frame;
                match mangled.data.first_mut() {
                    Some(v) => *v = f64::from_bits(v.to_bits() ^ 1),
                    None => mangled.checksum ^= 0xDEAD_BEEF,
                }
                self.dispatch(to, tag, Box::new(mangled), to as u64);
                return;
            }
            if f.should_duplicate(self.rank, ops, to as u64) {
                let _ = self.senders[to].send((self.rank, tag, Box::new(frame.clone())));
            }
        }
        self.dispatch(to, tag, Box::new(frame), to as u64);
    }

    /// Validates an incoming exchange-lane packet against the expected
    /// sequence number and its checksum. Returns the payload when the frame
    /// is good; silently discards stale-sequence frames (retransmit
    /// duplicates); recovers corrupted frames from the retransmit store.
    fn accept_frame(
        &self,
        from: usize,
        tag: u64,
        b: Box<dyn Any + Send>,
        seq: u64,
    ) -> Option<Vec<f64>> {
        let frame: Frame = self.downcast_payload(from, tag, b);
        if frame.seq != seq {
            return None;
        }
        if frame.checksum == frame_checksum(frame.seq, &frame.data) {
            self.account_recv((frame.data.len() * std::mem::size_of::<f64>()) as u64);
            return Some(frame.data);
        }
        // Checksum mismatch: the mangled copy arrived, which proves the
        // sender already parked the pristine copy — fetch it immediately.
        carve_obs::counter("retries", 1);
        match self.lost.fetch(from, self.rank, tag, seq) {
            Some((kind, pristine)) => {
                count_recovery(kind);
                self.account_recv((pristine.data.len() * std::mem::size_of::<f64>()) as u64);
                Some(pristine.data)
            }
            None => self.protocol_error(format!(
                "corrupt frame from rank {from} ({}) with no retransmit copy",
                fmt_tag(tag)
            )),
        }
    }

    /// Blocking receive of one exchange-lane frame with bounded retransmit
    /// retry. If the frame does not arrive within the current backoff
    /// window, the retransmit store is polled (standing in for a NACK
    /// round-trip); backoff doubles with deterministic jitter up to
    /// [`DEFAULT_RETRY_MAX`] attempts, after which the wait falls through to the
    /// ordinary watchdog deadline with the retry history in its context.
    pub(crate) fn recv_frame(&self, from: usize, tag: u64, seq: u64, what: &str) -> Vec<f64> {
        self.flush_deferred();
        while let Some((f, t, b)) = self.take_from_inbox(from, tag) {
            if let Some(data) = self.accept_frame(f, t, b, seq) {
                return data;
            }
        }
        let start = Instant::now();
        let mut attempt: u32 = 0;
        let mut backoff = self.retry_base;
        let mut next_retry = Some(start + backoff);
        loop {
            self.check_abort();
            let waited = start.elapsed();
            if waited >= self.timeout {
                self.fail(CommError::Timeout {
                    rank: self.rank,
                    op: self.ops.get(),
                    waited_secs: waited.as_secs_f64(),
                    context: format!(
                        "{what}: {attempt} retransmit attempt(s) exhausted; {}",
                        self.recv_wait_context(from, tag)
                    ),
                });
            }
            if let Some(deadline) = next_retry {
                if Instant::now() >= deadline {
                    attempt += 1;
                    // A retry is a frame the store handed back; an expiry
                    // that finds nothing is a slow peer and shows only in
                    // `backoff_ns`.
                    if let Some((kind, pristine)) = self.lost.fetch(from, self.rank, tag, seq) {
                        carve_obs::counter("retries", 1);
                        count_recovery(kind);
                        self.account_recv(
                            (pristine.data.len() * std::mem::size_of::<f64>()) as u64,
                        );
                        return pristine.data;
                    }
                    backoff = backoff * 2 + retry_jitter(self.rank, from, tag, attempt);
                    carve_obs::counter("backoff_ns", backoff.as_nanos() as u64);
                    next_retry = (attempt < DEFAULT_RETRY_MAX).then(|| Instant::now() + backoff);
                }
            }
            match self.receiver.recv_timeout(POLL) {
                Ok((f, t, b)) => {
                    if f == from && t == tag {
                        if let Some(fp) = &self.fault {
                            if let Some(d) =
                                fp.delay_for(self.rank, self.ops.get(), f as u64 | 0x8000)
                            {
                                std::thread::sleep(d);
                            }
                        }
                        if let Some(data) = self.accept_frame(f, t, b, seq) {
                            return data;
                        }
                    } else {
                        self.inbox.borrow_mut().push((f, t, b));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    self.protocol_error("all senders disconnected while receiving frame");
                }
            }
        }
    }

    /// Nonblocking matched receive: drains whatever is already queued on the
    /// channel (parking mismatches in the inbox, as [`Comm::recv_raw`] does)
    /// and returns the payload if the wanted message has arrived.
    pub(crate) fn try_match<T: Send + 'static>(&self, from: usize, tag: u64) -> Option<Vec<T>> {
        self.check_abort();
        self.flush_deferred();
        if let Some((f, t, b)) = self.take_from_inbox(from, tag) {
            let v: Vec<T> = self.downcast_payload(f, t, b);
            self.account_recv((v.len() * std::mem::size_of::<T>()) as u64);
            return Some(v);
        }
        while let Ok((f, t, b)) = self.receiver.try_recv() {
            if f == from && t == tag {
                if let Some(fp) = &self.fault {
                    if let Some(d) = fp.delay_for(self.rank, self.ops.get(), f as u64 | 0x8000) {
                        std::thread::sleep(d);
                    }
                }
                let v: Vec<T> = self.downcast_payload(f, t, b);
                self.account_recv((v.len() * std::mem::size_of::<T>()) as u64);
                return Some(v);
            }
            self.inbox.borrow_mut().push((f, t, b));
        }
        None
    }

    // --- Point-to-point ---------------------------------------------------

    /// Point-to-point send of a typed vector. `tag` must fit in 63 bits.
    pub fn send<T: Send + 'static>(&self, to: usize, tag: u64, msg: Vec<T>) {
        self.tick_op();
        if tag & USER_TAG_BIT != 0 {
            self.protocol_error("user tag must fit in 63 bits");
        }
        let bytes = (msg.len() * std::mem::size_of::<T>()) as u64;
        self.send_raw(to, USER_TAG_BIT | tag, msg, bytes);
    }

    /// Matching receive for [`Comm::send`].
    pub fn recv<T: Send + 'static>(&self, from: usize, tag: u64) -> Vec<T> {
        self.tick_op();
        self.recv_vec(from, USER_TAG_BIT | tag)
    }

    // --- Nonblocking point-to-point ---------------------------------------

    /// Nonblocking send: hands the payload to the transport immediately and
    /// returns. Delivery order and timing are still subject to fault
    /// injection (delay/reorder), exactly like [`Comm::send`]; the channel
    /// transport never blocks the sender, so no send handle is needed.
    pub fn isend<T: Send + 'static>(&self, to: usize, tag: u64, msg: Vec<T>) {
        self.send(to, tag, msg);
    }

    /// Posts a receive and returns a pollable [`RecvHandle`] without
    /// blocking. Matching is pull-based: the handle completes via
    /// [`RecvHandle::try_complete`] (nonblocking) or [`RecvHandle::wait`]
    /// (blocking, with the usual abort polling and watchdog deadline).
    pub fn irecv_post<T: Send + 'static>(&self, from: usize, tag: u64) -> RecvHandle<T> {
        self.tick_op();
        if tag & USER_TAG_BIT != 0 {
            self.protocol_error("user tag must fit in 63 bits");
        }
        RecvHandle::new(from, USER_TAG_BIT | tag)
    }

    // --- Collectives ------------------------------------------------------
    //
    // All collectives are tree-structured (DESIGN.md §2): dissemination
    // rounds for barrier/all_gather(v) (and the reductions/scans riding
    // them), a binomial tree for bcast, and a bitmap round + direct sparse
    // lanes for all_to_allv. Per-call message count per rank is
    // ceil(log2 P) (+ the non-empty lane count for all_to_allv) instead of
    // the P-1 lanes the linear implementations opened, which is what lets
    // threaded mode mirror the O(log P) collectives the replay model's
    // α·log2(P) term assumes. Gathered entries are forwarded verbatim and
    // reductions still fold the rank-ordered gather locally, so results
    // are bitwise identical to the linear path (property-tested below
    // against the `#[cfg(test)]` linear oracles, under chaos).

    /// Snapshot at collective entry for per-collective message counting.
    fn collective_enter(&self) -> u64 {
        self.stats.get().messages
    }

    /// Books the messages sent since [`Comm::collective_enter`] under the
    /// collective counters (`CommStats` + obs), so tests can assert the
    /// O(log P) complexity per call.
    fn collective_exit(&self, entry_messages: u64) {
        let mut s = self.stats.get();
        let sent = s.messages.saturating_sub(entry_messages);
        s.collective_calls += 1;
        s.collective_messages += sent;
        self.stats.set(s);
        carve_obs::counter("coll_calls", 1);
        carve_obs::counter("coll_msgs", sent);
    }

    /// Dissemination all-gather of one entry per rank: ceil(log2 P) rounds;
    /// in the round with offset `d = 2^k` each rank passes the
    /// `min(d, P - d)` entries it holds for ranks `(rank - min(d, P-d), rank]`
    /// to rank `(rank + d) % P` and receives the matching window from
    /// `(rank - d) % P`. Entries travel as `(origin_rank, payload)` pairs
    /// and are never combined, so the rank-ordered result is bitwise
    /// identical to a linear gather.
    ///
    /// Within one call every (sender, receiver) pair occurs at most once:
    /// the round offsets `2^k`, `k < ceil(log2 P)`, are distinct values in
    /// `(0, P)`, so the `(from, tag)` matcher never confuses rounds.
    fn disseminate_gatherv<T: Clone + Send + 'static>(&self, tag: u64, v: Vec<T>) -> Vec<Vec<T>> {
        let p = self.size;
        let mut have: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        have[self.rank] = Some(v);
        let mut d = 1usize;
        while d < p {
            let to = (self.rank + d) % p;
            let from = (self.rank + p - d) % p;
            // The receiver already holds d entries; it is missing at most
            // p - d, so the window never exceeds min(d, p - d).
            let window = d.min(p - d);
            let mut batch: Vec<(u32, Vec<T>)> = Vec::with_capacity(window);
            for off in (0..window).rev() {
                let r = (self.rank + p - off) % p;
                match &have[r] {
                    Some(e) => batch.push((r as u32, e.clone())),
                    None => self.protocol_error("disseminate_gatherv: window entry missing"),
                }
            }
            let bytes: u64 = batch
                .iter()
                .map(|(_, e)| (e.len() * std::mem::size_of::<T>()) as u64)
                .sum();
            self.account_send(bytes);
            self.maybe_duplicate(to, tag, &batch);
            self.dispatch(to, tag, Box::new(batch), to as u64);
            let got: Vec<(u32, Vec<T>)> = self.recv_raw(from, tag);
            let got_bytes: u64 = got
                .iter()
                .map(|(_, e)| (e.len() * std::mem::size_of::<T>()) as u64)
                .sum();
            self.account_recv(got_bytes);
            for (r, e) in got {
                have[r as usize] = Some(e);
            }
            d <<= 1;
        }
        have.into_iter()
            .enumerate()
            .map(|(r, e)| match e {
                Some(e) => e,
                None => self.protocol_error(format!("disseminate_gatherv: no entry for rank {r}")),
            })
            .collect()
    }

    /// Barrier across all ranks, with abort polling and watchdog deadline.
    ///
    /// Dissemination barrier: ceil(log2 P) zero-byte token rounds per rank;
    /// after round `k` every rank has (transitively) heard from the `2^(k+1)`
    /// ranks behind it, so completing all rounds proves every rank entered
    /// the barrier. (The finalize barrier keeps its condvar implementation:
    /// it must stay usable for deadline diagnostics after arbitrary user
    /// code, see `Comm::finalize_barrier`.)
    pub fn barrier(&self) {
        let tag = self.next_tag();
        if self.size == 1 {
            return;
        }
        let entry = self.collective_enter();
        let p = self.size;
        let mut d = 1usize;
        while d < p {
            let to = (self.rank + d) % p;
            let from = (self.rank + p - d) % p;
            self.account_send(0);
            self.maybe_duplicate::<u8>(to, tag, &[]);
            self.dispatch(to, tag, Box::new(Vec::<u8>::new()), to as u64);
            let _token: Vec<u8> = self.recv_raw(from, tag);
            self.account_recv(0);
            d <<= 1;
        }
        self.collective_exit(entry);
    }

    /// The finalize barrier run by the SPMD driver after user code returns.
    ///
    /// Uses a doubled deadline: a peer genuinely stuck in a *communication*
    /// op trips its own 1× watchdog first, so a rank parked here reports a
    /// sympathetic abort rather than racing the stuck rank for root-cause
    /// attribution. The 2× expiry only fires when a peer is wedged outside
    /// comm entirely (e.g. an infinite loop in user code), where this is
    /// the only diagnostic left.
    pub(crate) fn finalize_barrier(&self) {
        self.barrier_with_deadline(
            self.timeout.saturating_mul(2),
            "finalize barrier (peer never finished its closure)",
        );
    }

    fn barrier_with_deadline(&self, deadline: Duration, label: &str) {
        self.tick_op();
        self.flush_deferred();
        if self.size == 1 {
            return;
        }
        let start = Instant::now();
        let mut guard = lock_ignore_poison(&self.barrier.count);
        let gen = guard.1;
        guard.0 += 1;
        if guard.0 == self.size {
            guard.0 = 0;
            guard.1 += 1;
            self.barrier.cv.notify_all();
            return;
        }
        while guard.1 == gen {
            if self.abort.tripped() {
                drop(guard);
                self.raise_cluster_abort();
            }
            let waited = start.elapsed();
            if waited >= deadline {
                let arrived = guard.0;
                drop(guard);
                self.fail(CommError::Timeout {
                    rank: self.rank,
                    op: self.ops.get(),
                    waited_secs: waited.as_secs_f64(),
                    context: format!(
                        "waiting in {label} generation {gen}: {arrived}/{} ranks arrived",
                        self.size
                    ),
                });
            }
            let (g, _) = self
                .barrier
                .cv
                .wait_timeout(guard, POLL)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    /// Gathers one value from every rank, returned on all ranks in rank
    /// order (MPI `Allgather`).
    pub fn all_gather<T: Clone + Send + 'static>(&self, v: T) -> Vec<T> {
        self.all_gatherv(vec![v])
            .into_iter()
            .map(|mut x| match x.pop() {
                Some(last) if x.is_empty() => last,
                _ => self.protocol_error("all_gather: expected exactly one element per rank"),
            })
            .collect()
    }

    /// Gathers a vector from every rank (MPI `Allgatherv`); result `r[i]` is
    /// rank `i`'s contribution. Dissemination-structured: ceil(log2 P)
    /// messages per rank instead of P-1.
    pub fn all_gatherv<T: Clone + Send + 'static>(&self, v: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.next_tag();
        if self.size == 1 {
            return vec![v];
        }
        let entry = self.collective_enter();
        let out = self.disseminate_gatherv(tag, v);
        self.collective_exit(entry);
        out
    }

    /// All-reduce of `f64` scalars via [`ReduceOp`]. NaN propagates through
    /// **all** operators (including Min/Max, where `f64::min`/`f64::max`
    /// would silently drop it): every rank agrees on whether the reduction
    /// went bad, which the divergence guards in `carve-la` rely on.
    pub fn all_reduce_f64(&self, v: f64, op: ReduceOp) -> f64 {
        let all = self.all_gather(v);
        match op {
            ReduceOp::Sum => all.iter().sum(),
            ReduceOp::Min => all.iter().fold(f64::INFINITY, |a, &x| {
                if a.is_nan() || x.is_nan() {
                    f64::NAN
                } else {
                    a.min(x)
                }
            }),
            ReduceOp::Max => all.iter().fold(f64::NEG_INFINITY, |a, &x| {
                if a.is_nan() || x.is_nan() {
                    f64::NAN
                } else {
                    a.max(x)
                }
            }),
        }
    }

    /// Fused all-reduce of several `f64` scalars in **one** message per
    /// peer: the whole batch rides a single `all_gatherv` round instead of
    /// one collective per scalar. Element `k` of the result is the reduction
    /// of `vals[k]` across ranks, with the same NaN propagation as
    /// [`Comm::all_reduce_f64`]. This is the transport under the batched
    /// Krylov reductions (`carve-la`'s `Reduce::dots`).
    pub fn all_reduce_f64_many(&self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let all = self.all_gatherv(vals.to_vec());
        let mut out = Vec::with_capacity(vals.len());
        for k in 0..vals.len() {
            let lane = all.iter().map(|v| v[k]);
            out.push(match op {
                ReduceOp::Sum => lane.sum(),
                ReduceOp::Min => lane.fold(f64::INFINITY, |a, x| {
                    if a.is_nan() || x.is_nan() {
                        f64::NAN
                    } else {
                        a.min(x)
                    }
                }),
                ReduceOp::Max => lane.fold(f64::NEG_INFINITY, |a, x| {
                    if a.is_nan() || x.is_nan() {
                        f64::NAN
                    } else {
                        a.max(x)
                    }
                }),
            });
        }
        out
    }

    /// All-reduce for u64.
    pub fn all_reduce_u64(&self, v: u64, op: ReduceOp) -> u64 {
        let all = self.all_gather(v);
        match op {
            ReduceOp::Sum => all.iter().sum(),
            ReduceOp::Min => all.iter().copied().min().unwrap_or(v),
            ReduceOp::Max => all.iter().copied().max().unwrap_or(v),
        }
    }

    /// Exclusive prefix sum across ranks (MPI `Exscan`; rank 0 gets 0).
    pub fn exscan_u64(&self, v: u64) -> u64 {
        let all = self.all_gather(v);
        all[..self.rank].iter().sum()
    }

    /// Personalized all-to-all (MPI `Alltoallv`): `sends[i]` goes to rank
    /// `i`; the result's `r[i]` is what rank `i` sent here.
    ///
    /// Sparse-lane structure: a dissemination round first gathers every
    /// rank's destination bitmap (who actually has data for whom), then
    /// payloads travel only on the non-empty lanes, under the same op tag
    /// with `COLL_DATA_BIT` set. Empty lanes cost no message at all and
    /// the self lane never leaves the rank, so a neighbor-sparse exchange
    /// costs ceil(log2 P) + #neighbors messages instead of P-1.
    pub fn all_to_allv<T: Clone + Send + 'static>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        if sends.len() != self.size {
            self.protocol_error(format!(
                "all_to_allv: {} send lanes for {} ranks",
                sends.len(),
                self.size
            ));
        }
        let tag = self.next_tag();
        if self.size == 1 {
            return sends;
        }
        let entry = self.collective_enter();
        let p = self.size;
        // Round 1: gather destination bitmaps (bit `to` of rank r's bitmap
        // is set iff r has a non-empty lane for `to`).
        let words = p.div_ceil(64);
        let mut bitmap = vec![0u64; words];
        for (to, lane) in sends.iter().enumerate() {
            if to != self.rank && !lane.is_empty() {
                bitmap[to / 64] |= 1 << (to % 64);
            }
        }
        let bitmaps = self.disseminate_gatherv(tag, bitmap);
        // Round 2: payloads on the non-empty lanes only.
        let dtag = tag | COLL_DATA_BIT;
        for (to, lane) in sends.iter_mut().enumerate() {
            if to != self.rank && !lane.is_empty() {
                let payload = std::mem::take(lane);
                let bytes = (payload.len() * std::mem::size_of::<T>()) as u64;
                self.account_send(bytes);
                self.maybe_duplicate(to, dtag, &payload);
                self.dispatch(to, dtag, Box::new(payload), to as u64);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(p);
        for (from, lane) in sends.iter_mut().enumerate() {
            if from == self.rank {
                out.push(std::mem::take(lane));
            } else if bitmaps[from][self.rank / 64] >> (self.rank % 64) & 1 == 1 {
                out.push(self.recv_vec(from, dtag));
            } else {
                out.push(Vec::new());
            }
        }
        self.collective_exit(entry);
        out
    }

    /// Broadcast from `root` to all ranks, over a binomial tree: the root
    /// sends to virtual ranks 1, 2, 4, ... and every recipient forwards to
    /// the subtree below it, so no rank sends more than ceil(log2 P)
    /// messages and the value reaches all ranks in ceil(log2 P) rounds.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, v: Option<Vec<T>>) -> Vec<T> {
        let tag = self.next_tag();
        let unwrap_root = |v: Option<Vec<T>>| match v {
            Some(v) => v,
            None => self.protocol_error("bcast: root must provide the value"),
        };
        if self.size == 1 {
            return unwrap_root(v);
        }
        let entry = self.collective_enter();
        let p = self.size;
        // Virtual rank: the tree is rooted at vrank 0 regardless of `root`.
        let vr = (self.rank + p - root) % p;
        let mut val: Option<Vec<T>> = if vr == 0 { Some(unwrap_root(v)) } else { None };
        let mut d = 1usize;
        while d < p {
            if vr < d {
                if vr + d < p {
                    let to = (vr + d + root) % p;
                    match &val {
                        Some(x) => {
                            let bytes = (x.len() * std::mem::size_of::<T>()) as u64;
                            self.account_send(bytes);
                            self.maybe_duplicate(to, tag, x);
                            self.dispatch(to, tag, Box::new(x.clone()), to as u64);
                        }
                        None => self.protocol_error("bcast: forwarding before receive"),
                    }
                }
            } else if vr < 2 * d {
                let from = (vr - d + root) % p;
                val = Some(self.recv_vec(from, tag));
            }
            d <<= 1;
        }
        self.collective_exit(entry);
        match val {
            Some(x) => x,
            None => self.protocol_error("bcast: no value after final round"),
        }
    }
}

/// Linear (O(P) lanes per call) reference implementations of the
/// collectives, kept as the oracle for the tree-structured rewrites: the
/// property tests below assert the tree results are bitwise identical to
/// these under seeded chaos. Test-only so production code cannot regress
/// onto the linear paths.
#[cfg(test)]
impl Comm {
    pub(crate) fn linear_all_gatherv<T: Clone + Send + 'static>(&self, v: Vec<T>) -> Vec<Vec<T>> {
        let tag = self.next_tag();
        if self.size == 1 {
            return vec![v];
        }
        let bytes = (v.len() * std::mem::size_of::<T>()) as u64;
        for to in 0..self.size {
            if to != self.rank {
                self.account_send(bytes);
                self.maybe_duplicate(to, tag, &v);
                self.dispatch(to, tag, Box::new(v.clone()), to as u64);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size);
        for from in 0..self.size {
            if from == self.rank {
                out.push(v.clone());
            } else {
                out.push(self.recv_vec(from, tag));
            }
        }
        out
    }

    pub(crate) fn linear_all_gather<T: Clone + Send + 'static>(&self, v: T) -> Vec<T> {
        self.linear_all_gatherv(vec![v])
            .into_iter()
            .map(|mut x| match x.pop() {
                Some(last) if x.is_empty() => last,
                _ => self.protocol_error("linear_all_gather: expected one element per rank"),
            })
            .collect()
    }

    pub(crate) fn linear_all_to_allv<T: Clone + Send + 'static>(
        &self,
        mut sends: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let tag = self.next_tag();
        if self.size == 1 {
            return sends;
        }
        for (to, lane) in sends.iter_mut().enumerate() {
            if to != self.rank {
                let payload = std::mem::take(lane);
                let bytes = (payload.len() * std::mem::size_of::<T>()) as u64;
                self.account_send(bytes);
                self.maybe_duplicate(to, tag, &payload);
                self.dispatch(to, tag, Box::new(payload), to as u64);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size);
        for (from, lane) in sends.iter_mut().enumerate() {
            if from == self.rank {
                out.push(std::mem::take(lane));
            } else {
                out.push(self.recv_vec(from, tag));
            }
        }
        out
    }

    pub(crate) fn linear_bcast<T: Clone + Send + 'static>(
        &self,
        root: usize,
        v: Option<Vec<T>>,
    ) -> Vec<T> {
        let tag = self.next_tag();
        let unwrap_root = |v: Option<Vec<T>>| match v {
            Some(v) => v,
            None => self.protocol_error("bcast: root must provide the value"),
        };
        if self.size == 1 {
            return unwrap_root(v);
        }
        if self.rank == root {
            let v = unwrap_root(v);
            let bytes = (v.len() * std::mem::size_of::<T>()) as u64;
            for to in 0..self.size {
                if to != root {
                    self.account_send(bytes);
                    self.maybe_duplicate(to, tag, &v);
                    self.dispatch(to, tag, Box::new(v.clone()), to as u64);
                }
            }
            v
        } else {
            self.recv_vec(root, tag)
        }
    }
}

/// A posted, not-yet-completed receive from [`Comm::irecv_post`] (or the
/// internal collective-tag variant used by [`crate::ExchangeHandle`]).
///
/// The handle is just the match key `(from, tag)`; completion pulls from the
/// owning rank's channel, so every completion call takes the `Comm` back.
/// Dropping an uncompleted handle leaks no resources — the unmatched message
/// simply parks in the inbox like any other out-of-order packet.
pub struct RecvHandle<T: Send + 'static> {
    from: usize,
    tag: u64,
    _payload: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + 'static> RecvHandle<T> {
    pub(crate) fn new(from: usize, tag: u64) -> Self {
        RecvHandle {
            from,
            tag,
            _payload: std::marker::PhantomData,
        }
    }

    /// The rank this handle is waiting on.
    pub fn from(&self) -> usize {
        self.from
    }

    /// Nonblocking poll: returns the payload if it has arrived. On `None`
    /// the handle stays postable; fault-injection receive delays apply on a
    /// successful match exactly as in the blocking path.
    pub fn try_complete(&self, comm: &Comm) -> Option<Vec<T>> {
        comm.try_match(self.from, self.tag)
    }

    /// Blocking completion with abort polling and the watchdog deadline —
    /// the same failure machinery as [`Comm::recv`], so a lost or misrouted
    /// message surfaces as a structured timeout naming this `(from, tag)`.
    pub fn wait(self, comm: &Comm) -> Vec<T> {
        comm.recv_vec(self.from, self.tag)
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Release fault-deferred sends so a *successfully finishing* rank
        // never silently swallows messages. A rank dropping mid-abort keeps
        // them: it is dead, and dead ranks do not deliver.
        if !self.abort.tripped() {
            let mut d = self.deferred.borrow_mut();
            for (to, pkt) in d.drain(..) {
                let _ = self.senders[to].send(pkt);
            }
        }
    }
}

/// Options for [`run_spmd_with`].
#[derive(Clone, Debug, Default)]
pub struct SpmdOptions {
    /// Watchdog deadline for blocking waits; defaults to `CARVE_COMM_TIMEOUT`
    /// seconds from the environment, then [`DEFAULT_TIMEOUT`].
    pub timeout: Option<Duration>,
    /// Seeded chaos injection; `None` runs clean.
    pub fault: Option<FaultPlan>,
}

impl SpmdOptions {
    pub fn with_timeout(timeout: Duration) -> Self {
        SpmdOptions {
            timeout: Some(timeout),
            fault: None,
        }
    }

    pub fn with_fault(fault: FaultPlan) -> Self {
        SpmdOptions {
            timeout: None,
            fault: Some(fault),
        }
    }

    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

fn failure_from_payload(rank: usize, payload: Box<dyn Any + Send>) -> RankFailure {
    let payload = match payload.downcast::<CommFailure>() {
        Ok(cf) => {
            return RankFailure {
                rank,
                kind: FailureKind::Comm(cf.0),
            }
        }
        Err(p) => p,
    };
    let msg = if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    };
    RankFailure {
        rank,
        kind: FailureKind::Panic(msg),
    }
}

/// Runs `f` as an SPMD program over `nranks` ranks (threads) with explicit
/// fault-tolerance options. Rank panics are contained: the first failure
/// trips the cluster abort flag, surviving ranks unwind at their next
/// blocking wait, and the whole outcome is reported as one [`SpmdError`].
pub fn run_spmd_with<R, F>(nranks: usize, opts: SpmdOptions, f: F) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    assert!(nranks >= 1);
    let timeout = opts.timeout.unwrap_or_else(default_timeout);
    let ambient_fault = opts.fault.clone().or_else(env_chaos_plan);
    let mut txs = Vec::with_capacity(nranks);
    let mut rxs = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = channel();
        txs.push(tx);
        rxs.push(rx);
    }
    let senders = Arc::new(txs);
    let barrier = Arc::new(BarrierState {
        count: Mutex::new((0, 0)),
        cv: Condvar::new(),
    });
    let abort = Arc::new(AbortState::default());
    let lost = Arc::new(RetransmitStore::default());
    let retry_base = default_retry_base();
    let outcomes: Vec<Result<R, RankFailure>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, rx) in rxs.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            let barrier = Arc::clone(&barrier);
            let abort = Arc::clone(&abort);
            let lost = Arc::clone(&lost);
            let fault = ambient_fault.clone();
            let f = &f;
            handles.push(s.spawn(move || {
                let comm = Comm {
                    rank,
                    size: nranks,
                    senders,
                    receiver: rx,
                    inbox: RefCell::new(Vec::new()),
                    barrier,
                    abort,
                    op_counter: Cell::new(0),
                    ops: Cell::new(0),
                    stats: Cell::new(CommStats::default()),
                    timeout,
                    fault,
                    deferred: RefCell::new(Vec::new()),
                    lost,
                    retry_base,
                    exchange_note: RefCell::new(String::new()),
                };
                match panic::catch_unwind(AssertUnwindSafe(|| {
                    let r = f(&comm);
                    // Finalize barrier (MPI_Finalize-style): no rank drops
                    // its receiver while peers may still hold protocol
                    // traffic for it — e.g. a fault-deferred send whose
                    // duplicate already satisfied the receiver. Barrier
                    // entry flushes this rank's deferred queue while every
                    // receiver is still alive. Runs on a relaxed deadline so
                    // a peer stuck in a real comm op keeps root-cause credit.
                    comm.finalize_barrier();
                    r
                })) {
                    Ok(v) => Ok(v),
                    Err(payload) => {
                        let failure = failure_from_payload(rank, payload);
                        // Contain the panic: poison the cluster so ranks
                        // blocked on this one unwind promptly (first trip
                        // wins the origin slot; comm-layer failures already
                        // tripped it inside `fail`).
                        comm.abort.trip(rank, &failure.to_string());
                        comm.barrier.cv.notify_all();
                        Err(failure)
                    }
                }
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().unwrap_or_else(|_| {
                    Err(RankFailure {
                        rank,
                        kind: FailureKind::Panic(String::from("spmd runtime wrapper panicked")),
                    })
                })
            })
            .collect()
    });
    let mut results = Vec::with_capacity(nranks);
    let mut failures = Vec::new();
    for out in outcomes {
        match out {
            Ok(r) => results.push(r),
            Err(fl) => failures.push(fl),
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(SpmdError { failures })
    }
}

/// Fault-tolerant SPMD launch with default options: returns every rank's
/// result in rank order, or a structured [`SpmdError`] naming the failing
/// rank(s).
pub fn try_run_spmd<R, F>(nranks: usize, f: F) -> Result<Vec<R>, SpmdError>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    run_spmd_with(nranks, SpmdOptions::default(), f)
}

/// Runs `f` as an SPMD program over `nranks` ranks (threads); returns every
/// rank's result in rank order. Panicking wrapper around [`try_run_spmd`]
/// for call sites that treat a distributed failure as fatal.
pub fn run_spmd<R, F>(nranks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Send + Sync,
{
    match try_run_spmd(nranks, f) {
        Ok(v) => v,
        Err(e) => panic!("run_spmd failed: {e}"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn all_gather_orders_by_rank() {
        let res = run_spmd(4, |c| c.all_gather(c.rank() * 10));
        for r in res {
            assert_eq!(r, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn all_reduce_ops() {
        let res = run_spmd(5, |c| {
            (
                c.all_reduce_f64(c.rank() as f64, ReduceOp::Sum),
                c.all_reduce_u64(c.rank() as u64 + 1, ReduceOp::Min),
                c.all_reduce_u64(c.rank() as u64, ReduceOp::Max),
            )
        });
        for (s, mn, mx) in res {
            assert_eq!(s, 10.0);
            assert_eq!(mn, 1);
            assert_eq!(mx, 4);
        }
    }

    #[test]
    fn all_reduce_f64_propagates_nan_through_min_max() {
        // Regression: f64::min/f64::max silently swallow NaN, so ranks could
        // disagree on whether a reduction went bad; Sum propagated it but
        // Min/Max did not. All three must now agree on NaN everywhere.
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let res = run_spmd(4, move |c| {
                let v = if c.rank() == 2 {
                    f64::NAN
                } else {
                    c.rank() as f64
                };
                c.all_reduce_f64(v, op)
            });
            for (r, x) in res.iter().enumerate() {
                assert!(x.is_nan(), "op {op:?} rank {r}: got {x}, want NaN");
            }
        }
        // And NaN-free reductions still give exact answers.
        let res = run_spmd(4, |c| {
            (
                c.all_reduce_f64(c.rank() as f64, ReduceOp::Min),
                c.all_reduce_f64(c.rank() as f64, ReduceOp::Max),
            )
        });
        for (mn, mx) in res {
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 3.0);
        }
    }

    #[test]
    fn exscan() {
        let res = run_spmd(4, |c| c.exscan_u64(c.rank() as u64 + 1));
        assert_eq!(res, vec![0, 1, 3, 6]);
    }

    #[test]
    fn all_to_allv_transposes() {
        let res = run_spmd(3, |c| {
            let sends: Vec<Vec<u32>> = (0..3)
                .map(|to| vec![(c.rank() * 100 + to) as u32])
                .collect();
            c.all_to_allv(sends)
        });
        // rank r receives [r, 100+r, 200+r]
        for (r, got) in res.iter().enumerate() {
            let flat: Vec<u32> = got.iter().flatten().copied().collect();
            assert_eq!(flat, vec![r as u32, 100 + r as u32, 200 + r as u32]);
        }
    }

    #[test]
    fn point_to_point_ring() {
        let res = run_spmd(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, vec![c.rank() as u64]);
            c.recv::<u64>(prev, 7)[0]
        });
        assert_eq!(res, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let res = run_spmd(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![1u8]);
                c.send(1, 2, vec![2u8]);
                0
            } else {
                // Receive in reverse order of sending.
                let b = c.recv::<u8>(0, 2)[0];
                let a = c.recv::<u8>(0, 1)[0];
                (a as usize) * 10 + b as usize
            }
        });
        assert_eq!(res[1], 12);
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let res = run_spmd(3, |c| {
            let v = if c.rank() == 2 {
                Some(vec![42u32, 7])
            } else {
                None
            };
            c.bcast(2, v)
        });
        for r in res {
            assert_eq!(r, vec![42, 7]);
        }
    }

    #[test]
    fn stats_count_bytes_both_directions() {
        let res = run_spmd(2, |c| {
            c.send((c.rank() + 1) % 2, 0, vec![0u64; 10]);
            let _ = c.recv::<u64>((c.rank() + 1) % 2, 0);
            c.stats()
        });
        for s in res {
            assert_eq!(s.bytes_sent, 80);
            assert_eq!(s.messages, 1);
            assert_eq!(s.bytes_received, 80);
            assert_eq!(s.messages_received, 1);
        }
    }

    #[test]
    fn collective_receive_accounting_balances_sends() {
        // Every byte a collective sends must be counted once by its
        // receiver: cluster totals of sent and received agree exactly.
        let stats = run_spmd(4, |c| {
            let _ = c.all_gatherv(vec![c.rank() as u64; c.rank() + 1]);
            let sends: Vec<Vec<u32>> = (0..4).map(|to| vec![to as u32; 3]).collect();
            let _ = c.all_to_allv(sends);
            let _ = c.bcast(
                1,
                if c.rank() == 1 {
                    Some(vec![9u8; 5])
                } else {
                    None
                },
            );
            c.stats()
        });
        let sent: u64 = stats.iter().map(|s| s.bytes_sent).sum();
        let received: u64 = stats.iter().map(|s| s.bytes_received).sum();
        assert_eq!(sent, received, "stats {stats:?}");
        let msgs_sent: u64 = stats.iter().map(|s| s.messages).sum();
        let msgs_received: u64 = stats.iter().map(|s| s.messages_received).sum();
        assert_eq!(msgs_sent, msgs_received);
        // all_gatherv: rank r sends (r+1)*8 bytes to 3 peers and receives
        // every other rank's payload exactly once.
        let expect_gatherv_recv =
            |r: u64| -> u64 { (0..4u64).filter(|&q| q != r).map(|q| (q + 1) * 8).sum() };
        for (r, s) in stats.iter().enumerate() {
            assert!(
                s.bytes_received >= expect_gatherv_recv(r as u64),
                "rank {r} stats {s:?}"
            );
        }
    }

    #[test]
    fn barrier_many_rounds() {
        let res = run_spmd(6, |c| {
            for _ in 0..50 {
                c.barrier();
            }
            c.rank()
        });
        assert_eq!(res, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn rank_panic_is_contained_and_named() {
        let err = try_run_spmd(4, |c| {
            if c.rank() == 2 {
                panic!("rank 2 exploded");
            }
            // Survivors block on a barrier the dead rank never reaches; the
            // abort flag must wake them promptly.
            c.barrier();
            c.rank()
        })
        .unwrap_err();
        assert_eq!(err.failed_ranks(), vec![2]);
        let primary = err.primary();
        assert!(matches!(primary[0].kind, FailureKind::Panic(ref m) if m.contains("exploded")));
        // Survivors recorded sympathetic aborts, not hangs.
        assert!(err.failures.len() >= 2, "{err}");
    }

    #[test]
    fn watchdog_reports_mismatched_tag_instead_of_hanging() {
        let t0 = Instant::now();
        let err = run_spmd_with(
            2,
            SpmdOptions::with_timeout(Duration::from_millis(150)),
            |c| {
                if c.rank() == 0 {
                    c.send(1, 7, vec![1u8]);
                } else {
                    // Wrong tag: this would previously park rank 1 forever.
                    let _ = c.recv::<u8>(0, 8);
                }
                c.rank()
            },
        )
        .unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(5), "watchdog too slow");
        assert_eq!(err.failed_ranks(), vec![1]);
        match &err.primary()[0].kind {
            FailureKind::Comm(CommError::Timeout { context, .. }) => {
                assert!(context.contains("user tag 8"), "context: {context}");
                assert!(context.contains("parked"), "context: {context}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn type_mismatch_is_a_structured_error() {
        let err = run_spmd_with(2, SpmdOptions::with_timeout(Duration::from_secs(5)), |c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![1.0f64]);
            } else {
                let _ = c.recv::<u32>(0, 3);
            }
        })
        .unwrap_err();
        assert_eq!(err.failed_ranks(), vec![1]);
        assert!(
            matches!(
                &err.primary()[0].kind,
                FailureKind::Comm(CommError::TypeMismatch { expected, .. }) if expected.contains("u32")
            ),
            "{err}"
        );
    }

    #[test]
    fn run_spmd_panics_with_structured_message() {
        let caught = panic::catch_unwind(|| {
            run_spmd(2, |c| {
                if c.rank() == 0 {
                    panic!("boom");
                }
                c.barrier();
            })
        });
        let payload = caught.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn solo_comm_collectives_are_identity() {
        let c = Comm::solo();
        assert_eq!(c.all_gather(5u32), vec![5]);
        assert_eq!(c.all_reduce_f64(2.5, ReduceOp::Max), 2.5);
        assert_eq!(c.exscan_u64(9), 0);
        c.barrier();
        let out = c.all_to_allv(vec![vec![1u8, 2]]);
        assert_eq!(out, vec![vec![1, 2]]);
    }

    /// One rank's collective workout, used by the tree-vs-linear oracle
    /// test. Every result is bit-encoded (f64 via `to_bits`) so NaN and
    /// signed-zero survive the comparison. `tree` selects the production
    /// tree-structured path or the `#[cfg(test)]` linear oracle.
    fn collective_workout(c: &Comm, tree: bool) -> Vec<u64> {
        let p = c.size();
        let r = c.rank();
        let mut out: Vec<u64> = Vec::new();
        let push_f64s = |out: &mut Vec<u64>, vals: &[f64]| {
            out.extend(vals.iter().map(|v| v.to_bits()));
        };
        let gatherv = |v: Vec<f64>| -> Vec<Vec<f64>> {
            if tree {
                c.all_gatherv(v)
            } else {
                c.linear_all_gatherv(v)
            }
        };
        // all_gather of a rank-dependent scalar (negative zero on rank 0).
        let x = if r == 0 { -0.0 } else { r as f64 * 0.5 };
        let g: Vec<f64> = if tree {
            c.all_gather(x)
        } else {
            c.linear_all_gather(x)
        };
        push_f64s(&mut out, &g);
        // all_gatherv with rank-dependent lengths, including an empty lane.
        let v: Vec<f64> = (0..r % 3).map(|k| (r * 10 + k) as f64).collect();
        for lane in gatherv(v) {
            out.push(lane.len() as u64);
            push_f64s(&mut out, &lane);
        }
        // Reductions, NaN-free and with a NaN contribution on one rank.
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            for poison in [false, true] {
                let val = if poison && r == p / 2 {
                    f64::NAN
                } else {
                    (r as f64 - 1.25) * 3.5
                };
                let (scalar, many) = if tree {
                    (
                        c.all_reduce_f64(val, op),
                        c.all_reduce_f64_many(&[val, -val, 0.125], op),
                    )
                } else {
                    // The oracle reductions are the same rank-ordered folds
                    // over the *linear* gather.
                    let all = c.linear_all_gather(val);
                    let fold = |vals: &[f64]| -> f64 {
                        match op {
                            ReduceOp::Sum => vals.iter().sum(),
                            ReduceOp::Min => vals.iter().fold(f64::INFINITY, |a, &x| {
                                if a.is_nan() || x.is_nan() {
                                    f64::NAN
                                } else {
                                    a.min(x)
                                }
                            }),
                            ReduceOp::Max => vals.iter().fold(f64::NEG_INFINITY, |a, &x| {
                                if a.is_nan() || x.is_nan() {
                                    f64::NAN
                                } else {
                                    a.max(x)
                                }
                            }),
                        }
                    };
                    let batch = c.linear_all_gatherv(vec![val, -val, 0.125]);
                    let many: Vec<f64> = (0..3)
                        .map(|k| {
                            let lane: Vec<f64> = batch.iter().map(|b| b[k]).collect();
                            fold(&lane)
                        })
                        .collect();
                    (fold(&all), many)
                };
                push_f64s(&mut out, &[scalar]);
                push_f64s(&mut out, &many);
            }
        }
        // u64 reduce + exscan (ride the gather in both paths).
        if tree {
            out.push(c.all_reduce_u64(r as u64 + 7, ReduceOp::Max));
            out.push(c.exscan_u64(r as u64 + 1));
        } else {
            let all = c.linear_all_gather(r as u64 + 7);
            out.push(all.iter().copied().max().unwrap_or(0));
            let all = c.linear_all_gather(r as u64 + 1);
            out.push(all[..r].iter().sum());
        }
        // bcast from first and last rank.
        for root in [0, p - 1] {
            let payload = if r == root {
                Some(vec![root as u64 * 31 + 5, 77])
            } else {
                None
            };
            let got = if tree {
                c.bcast(root, payload)
            } else {
                c.linear_bcast(root, payload)
            };
            out.extend(got);
        }
        // all_to_allv: ring pattern with a self lane, then fully empty.
        let mut sends: Vec<Vec<u64>> = vec![Vec::new(); p];
        sends[(r + 1) % p] = vec![r as u64 * 100, r as u64];
        sends[r].push(r as u64 * 1000);
        if p > 2 && r.is_multiple_of(2) {
            sends[(r + 2) % p] = vec![r as u64 + 13];
        }
        let round = |s: Vec<Vec<u64>>| -> Vec<Vec<u64>> {
            if tree {
                c.all_to_allv(s)
            } else {
                c.linear_all_to_allv(s)
            }
        };
        for lane in round(sends) {
            out.push(lane.len() as u64);
            out.extend(lane);
        }
        for lane in round(vec![Vec::new(); p]) {
            out.push(lane.len() as u64);
            out.extend(lane);
        }
        out
    }

    #[test]
    fn tree_collectives_match_linear_oracle_under_chaos() {
        // The tree-structured collectives must be bitwise identical to the
        // linear implementations they replaced — for every op, rank count,
        // and hostile schedule, including NaN propagation through Min/Max.
        let plans: [Option<FaultPlan>; 4] = [
            None,
            Some(FaultPlan::chaos(11)),
            Some(FaultPlan::chaos(97)),
            Some(FaultPlan::lossy(29)),
        ];
        for &p in &[1usize, 2, 3, 4, 7, 8, 16] {
            for plan in &plans {
                let run = |tree: bool| -> Vec<Vec<u64>> {
                    let opts = match plan {
                        Some(f) => SpmdOptions::with_fault(f.clone()),
                        None => SpmdOptions::default(),
                    };
                    match run_spmd_with(p, opts, |c| collective_workout(c, tree)) {
                        Ok(v) => v,
                        Err(e) => panic!("workout failed at p={p}: {e}"),
                    }
                };
                assert_eq!(
                    run(true),
                    run(false),
                    "tree vs linear mismatch at p={p}, plan={plan:?}"
                );
            }
        }
    }

    #[test]
    fn collective_message_counts_are_logarithmic() {
        // Messages-per-collective must stay O(log2 P): an accidental O(P)
        // regression fails loudly. Checked through CommStats and through
        // the obs coll_msgs/coll_calls counters.
        for &p in &[8usize, 16, 32] {
            let ceil_log2 = (usize::BITS - (p - 1).leading_zeros()) as u64;
            let per_op = run_spmd(p, |c| {
                let _obs = carve_obs::force_enabled();
                let obs_before = carve_obs::thread_snapshot();
                let delta = |f: &dyn Fn()| -> u64 {
                    let before = c.stats().messages;
                    f();
                    c.stats().messages - before
                };
                let barrier = delta(&|| c.barrier());
                let gather = delta(&|| {
                    c.all_gather(c.rank() as u64);
                });
                let reduce = delta(&|| {
                    c.all_reduce_f64(c.rank() as f64, ReduceOp::Sum);
                });
                let bcast = delta(&|| {
                    c.bcast(0, (c.rank() == 0).then(|| vec![1u8, 2]));
                });
                let ring = delta(&|| {
                    let mut sends: Vec<Vec<u64>> = vec![Vec::new(); c.size()];
                    sends[(c.rank() + 1) % c.size()] = vec![1];
                    sends[(c.rank() + c.size() - 1) % c.size()] = vec![2];
                    c.all_to_allv(sends);
                });
                let d = carve_obs::thread_snapshot().diff(&obs_before);
                let obs_count = |name: &str| -> u64 {
                    d.phases
                        .values()
                        .filter_map(|ph| ph.counters.get(name))
                        .sum()
                };
                let s = c.stats();
                (
                    barrier,
                    gather,
                    reduce,
                    bcast,
                    ring,
                    s.collective_calls,
                    s.collective_messages,
                    obs_count("coll_calls"),
                    obs_count("coll_msgs"),
                )
            });
            for (r, &(barrier, gather, reduce, bcast, ring, calls, msgs, oc, om)) in
                per_op.iter().enumerate()
            {
                let ctx = format!("p={p} rank={r}");
                assert_eq!(barrier, ceil_log2, "{ctx} barrier");
                assert_eq!(gather, ceil_log2, "{ctx} all_gather");
                assert_eq!(reduce, ceil_log2, "{ctx} all_reduce");
                assert!(bcast <= ceil_log2, "{ctx} bcast sent {bcast}");
                // Ring all_to_allv: one bitmap round + two neighbor lanes.
                assert_eq!(ring, ceil_log2 + 2, "{ctx} all_to_allv");
                // All of it strictly below the linear P-1 cost.
                for (what, n) in [
                    ("barrier", barrier),
                    ("all_gather", gather),
                    ("all_to_allv", ring),
                ] {
                    assert!(n < (p - 1) as u64, "{ctx} {what}: {n} not sublinear");
                }
                assert_eq!(calls, 5, "{ctx} collective_calls");
                assert_eq!(
                    msgs,
                    barrier + gather + reduce + bcast + ring,
                    "{ctx} collective_messages"
                );
                // The obs counters mirror CommStats exactly.
                assert_eq!(oc, calls, "{ctx} obs coll_calls");
                assert_eq!(om, msgs, "{ctx} obs coll_msgs");
            }
        }
    }

    #[test]
    fn all_to_allv_skips_empty_lanes() {
        // Regression for the dense-lane bug: empty lanes must cost zero
        // messages, self-sends must not leave the rank, and a fully-empty
        // round is bitmap traffic only.
        let res = run_spmd(4, |c| {
            let p = c.size();
            let r = c.rank();
            let log2p = 2u64; // ceil(log2 4)
            let mut obs = Vec::new();
            // Fully-empty round: no data-phase messages at all.
            let before = c.stats().messages;
            let out = c.all_to_allv(vec![Vec::<u64>::new(); p]);
            assert!(out.iter().all(Vec::is_empty), "rank {r}: {out:?}");
            obs.push(c.stats().messages - before == log2p);
            // Self-send-only round: the payload must come back untouched
            // without a single data message.
            let mut sends: Vec<Vec<u64>> = vec![Vec::new(); p];
            sends[r] = vec![r as u64 * 7 + 1];
            let before = c.stats().messages;
            let out = c.all_to_allv(sends);
            obs.push(c.stats().messages - before == log2p);
            assert_eq!(out[r], vec![r as u64 * 7 + 1], "rank {r}");
            assert!(out.iter().enumerate().all(|(q, l)| q == r || l.is_empty()));
            // Sparse round: one neighbor lane plus the self lane.
            let mut sends: Vec<Vec<u64>> = vec![Vec::new(); p];
            sends[(r + 1) % p] = vec![r as u64];
            sends[r] = vec![99];
            let before = c.stats().messages;
            let out = c.all_to_allv(sends);
            obs.push(c.stats().messages - before == log2p + 1);
            assert_eq!(out[(r + p - 1) % p], vec![(r + p - 1) as u64 % p as u64]);
            assert_eq!(out[r], vec![99]);
            obs
        });
        for (r, flags) in res.iter().enumerate() {
            assert!(
                flags.iter().all(|&ok| ok),
                "rank {r}: message-count flags {flags:?}"
            );
        }
    }
}
