//! The benchmark's own span recorder, used by the traced run only.
//!
//! A span is recorded around every call into a layer of the program: name,
//! start, end, the span that caused it, the repetition or request it belongs
//! to and the rank that ran it. Counts (iterations, elements, messages) are
//! attached to the span open at the boundary where they are read. Spans stay
//! in memory and are written out once, when the run ends.
//!
//! The untraced run goes through the same code with the recorder switched
//! off, where opening a span is one branch.

use crate::api::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition or request this span belongs to.
    pub id: u32,
    pub rank: u32,
    pub counts: Vec<(&'static str, f64)>,
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    id: u32,
}

/// One thread's recorder. Rank threads get their own (same epoch) and hand
/// their spans back to the driver thread with [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rank: u32,
    inner: RefCell<Inner>,
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, rank: u32) -> Self {
        Tracer {
            on,
            epoch,
            rank,
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                id: 0,
            }),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Repetition or request id stamped on spans opened from now on.
    pub fn set_id(&self, id: u32) {
        self.inner.borrow_mut().id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len();
        let parent = inner.stack.last().copied();
        let id = inner.id;
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            rank: self.rank,
            counts: Vec::new(),
        });
        inner.stack.push(idx);
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if let Some(&top) = inner.stack.last() {
            inner.spans[top].counts.push((name, value));
        }
    }

    /// Appends the spans of a rank thread; their roots become children of
    /// the span open on this thread.
    pub fn absorb(&self, spans: Vec<Span>) {
        if !self.on {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let offset = inner.spans.len();
        let adopt = inner.stack.last().copied();
        inner.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => adopt,
            };
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[idx].end_ns = end;
            if let Some(pos) = inner.stack.iter().rposition(|&i| i == idx) {
                inner.stack.remove(pos);
            }
        }
    }
}

/// Calls, total time and self time per `(name, rank)`. Self time is a span's
/// duration minus the part of it its children on the same rank cover
/// (children of one thread never overlap; spans of other ranks run beside
/// their parent and are not subtracted from it).
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, u32), (u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].rank == s.rank {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
    }
    let mut out: BTreeMap<(&'static str, u32), (u64, f64, f64)> = BTreeMap::new();
    for (s, &covered) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry((s.name, s.rank)).or_insert((0, 0.0, 0.0));
        e.0 += 1;
        e.1 += dur as f64 * 1e-9;
        e.2 += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    let span_json = |s: &Span| {
        Json::Obj(vec![
            ("name".into(), Json::Str(s.name.into())),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("id".into(), Json::Num(s.id as f64)),
            ("rank".into(), Json::Num(s.rank as f64)),
            (
                "counts".into(),
                Json::Obj(
                    s.counts
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    };
    let self_json = self_times(spans)
        .into_iter()
        .map(|((name, rank), (calls, total, own))| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("rank".into(), Json::Num(rank as f64)),
                ("calls".into(), Json::Num(calls as f64)),
                ("total_s".into(), Json::Num(total)),
                ("self_s".into(), Json::Num(own)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("self_time".into(), Json::Arr(self_json)),
        (
            "spans".into(),
            Json::Arr(spans.iter().map(span_json).collect()),
        ),
    ])
}
