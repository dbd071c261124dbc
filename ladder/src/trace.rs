//! The traced run: a span per `Comm` call, recorded from the bench's own
//! side of the `core` → `transport` boundary.
//!
//! [`TracedComm`] wraps any backend and records, in memory, one span per
//! call the collective algorithms make into it; the workload loop opens a
//! `coll` span around each collective, which is the parent of every call
//! made until it closes. Nothing is written until the run is over. Spans
//! inside `EndpointCore` or the simulator's `World` would need hooks in
//! those crates and are not recorded here.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use mmpi_transport::{CancelSink, Comm, RecvError, RecvReq, SendReq, SendWindowFull, Tag};
use mmpi_wire::{Bytes, Message, MsgKind, RepairStats};

use crate::json::Value;
use crate::ops::OpKind;
use crate::workload::{lock, Probe};

/// What a span's time is charged to when a collective is broken down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// The enclosing collective itself.
    Coll,
    /// Parked until something arrives: `wait*`, `progress_block`.
    Blocked,
    /// Handing work to the transport: `send*`, `mcast*`, `post_*`.
    Post,
    /// Everything else: nonblocking polls, cancels, modelled compute.
    Other,
}

/// One recorded interval at one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub class: Class,
    /// Wall clock, ns since the process-wide epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The fabric's clock (virtual ns on the simulator).
    pub fabric_start_ns: u64,
    pub fabric_end_ns: u64,
    /// The collective this span belongs to: shared by the `coll` span and
    /// its children, and by every rank's spans of the same collective.
    /// `None` for calls outside any measured collective.
    pub coll: Option<u64>,
}

impl Span {
    pub fn wall(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-rank span storage for one traced repetition, allocated up front so
/// recording a span never grows a buffer mid-run.
pub struct Tracer {
    ranks: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(ranks: usize, spans_per_rank: usize) -> Self {
        Tracer {
            ranks: (0..ranks)
                .map(|_| Mutex::new(Vec::with_capacity(spans_per_rank)))
                .collect(),
        }
    }

    /// Every rank's spans, in recording order.
    pub fn into_spans(self) -> Vec<Vec<Span>> {
        self.ranks
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

/// A `Comm` that forwards every call to `inner` and records a span
/// around it.
pub struct TracedComm<'t, C> {
    inner: C,
    spans: Vec<Span>,
    sink: &'t Mutex<Vec<Span>>,
    /// Open collective: id and the index of its `coll` span.
    open: Option<(u64, usize)>,
}

impl<'t, C: Probe> TracedComm<'t, C> {
    pub fn new(inner: C, tracer: &'t Tracer) -> Self {
        let sink = &tracer.ranks[inner.rank()];
        // Take the preallocated buffer; it goes back on drop.
        let spans = std::mem::take(&mut *lock(sink));
        TracedComm {
            inner,
            spans,
            sink,
            open: None,
        }
    }

    fn span<R>(&mut self, name: &'static str, class: Class, call: impl FnOnce(&mut C) -> R) -> R {
        let (start_ns, fabric_start_ns) = self.inner.stamps();
        let out = call(&mut self.inner);
        let (end_ns, fabric_end_ns) = self.inner.stamps();
        self.spans.push(Span {
            name,
            class,
            start_ns,
            end_ns,
            fabric_start_ns,
            fabric_end_ns,
            coll: self.open.map(|(id, _)| id),
        });
        out
    }
}

impl<C> Drop for TracedComm<'_, C> {
    fn drop(&mut self) {
        *lock(self.sink) = std::mem::take(&mut self.spans);
    }
}

impl<C: Probe> Probe for TracedComm<'_, C> {
    fn stamps(&self) -> (u64, u64) {
        self.inner.stamps()
    }

    fn stats(&self) -> RepairStats {
        self.inner.stats()
    }

    fn coll_begin(&mut self, id: u64, kind: OpKind, (now, fabric): (u64, u64)) {
        self.open = Some((id, self.spans.len()));
        self.spans.push(Span {
            name: kind.name(),
            class: Class::Coll,
            start_ns: now,
            end_ns: now,
            fabric_start_ns: fabric,
            fabric_end_ns: fabric,
            coll: Some(id),
        });
    }

    fn coll_end(&mut self, (now, fabric): (u64, u64)) {
        if let Some((_, at)) = self.open.take() {
            self.spans[at].end_ns = now;
            self.spans[at].fabric_end_ns = fabric;
        }
    }
}

impl<C: Probe> Comm for TracedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn context(&self) -> u32 {
        self.inner.context()
    }

    fn multicast_capable(&self) -> bool {
        self.inner.multicast_capable()
    }

    fn cancel_sink(&self) -> CancelSink {
        self.inner.cancel_sink()
    }

    fn failed_peers(&self) -> Vec<usize> {
        self.inner.failed_peers()
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.inner.departed_peers()
    }

    fn epoch(&self) -> u32 {
        self.inner.epoch()
    }

    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.span("send", Class::Post, |c| {
            c.send_kind(dst, tag, kind, payload)
        })
    }

    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.span("mcast", Class::Post, |c| c.mcast_kind(tag, kind, payload))
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.span("mcast_resend", Class::Post, |c| {
            c.mcast_resend(tag, kind, payload, seq)
        })
    }

    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.span("post_recv", Class::Post, |c| c.post_recv(src, tag))
    }

    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        self.span("try_post_send", Class::Post, |c| {
            c.try_post_send(dst, tag, payload)
        })
    }

    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        self.span("try_post_mcast", Class::Post, |c| {
            c.try_post_mcast(tag, payload)
        })
    }

    fn progress(&mut self) {
        self.span("progress", Class::Other, C::progress)
    }

    fn progress_block(&mut self) {
        self.span("progress_block", Class::Blocked, C::progress_block)
    }

    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        self.span("wait_ready", Class::Blocked, |c| c.wait_ready(reqs))
    }

    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.span("test", Class::Other, |c| c.test(req))
    }

    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.span("test_claimed", Class::Other, |c| c.test_claimed(req))
    }

    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError> {
        self.span("wait", Class::Blocked, |c| c.wait(req))
    }

    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.span("wait_deadline", Class::Blocked, |c| {
            c.wait_deadline(req, timeout)
        })
    }

    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError> {
        self.span("wait_any", Class::Blocked, |c| c.wait_any(reqs))
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.span("cancel_recv", Class::Other, |c| c.cancel_recv(req))
    }

    fn compute(&mut self, d: Duration) {
        self.span("compute", Class::Other, |c| c.compute(d))
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.span("tcp_ack_model", Class::Other, |c| {
            c.tcp_ack_model(dst, count)
        })
    }

    fn leave(&mut self) {
        self.inner.leave();
    }

    fn rebase_epoch(&mut self, epoch: u32) {
        self.inner.rebase_epoch(epoch);
    }

    fn declare_failed(&mut self, rank: usize) {
        self.inner.declare_failed(rank);
    }
}

/// Part of `[start, end)` that `children` cover, overlaps counted once.
fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

/// Where one rank's collective time went, as wall-clock totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub colls: u64,
    pub comm_calls: u64,
    pub coll_ns: u64,
    pub self_ns: u64,
    pub blocked_ns: u64,
    pub post_ns: u64,
    pub other_ns: u64,
}

/// Break one rank's spans down by class. Children are attributed to the
/// `coll` span that was open when they ran.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut b = Breakdown::default();
    let mut i = 0;
    while i < spans.len() {
        let s = &spans[i];
        i += 1;
        if s.class != Class::Coll {
            continue;
        }
        let first_child = i;
        while i < spans.len() && spans[i].class != Class::Coll && spans[i].coll == s.coll {
            i += 1;
        }
        let children = &spans[first_child..i];
        let intervals: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        b.colls += 1;
        b.comm_calls += children.len() as u64;
        b.coll_ns += s.wall();
        b.self_ns += self_time(s.start_ns, s.end_ns, &intervals);
        for c in children {
            match c.class {
                Class::Blocked => b.blocked_ns += c.wall(),
                Class::Post => b.post_ns += c.wall(),
                Class::Other | Class::Coll => b.other_ns += c.wall(),
            }
        }
    }
    b
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for the chosen
/// ranks, limited to the first `max_colls` collectives of the measured
/// stretch.
pub fn chrome_trace(ranks: &[(usize, &[Span])], first_coll: u64, max_colls: u64) -> Value {
    let mut events = Vec::new();
    for &(rank, spans) in ranks {
        for s in spans {
            let Some(coll) = s.coll else { continue };
            if coll >= first_coll + max_colls {
                break;
            }
            events.push(Value::obj([
                ("name", Value::str(s.name)),
                (
                    "cat",
                    Value::str(if s.class == Class::Coll {
                        "core"
                    } else {
                        "transport"
                    }),
                ),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.wall() as f64 / 1e3)),
                ("pid", Value::Num(0.0)),
                ("tid", Value::Num(rank as f64)),
                (
                    "args",
                    Value::obj([
                        ("coll", Value::Num(coll as f64)),
                        ("fabric_start_ns", Value::Num(s.fabric_start_ns as f64)),
                        ("fabric_end_ns", Value::Num(s.fabric_end_ns as f64)),
                    ]),
                ),
            ]));
        }
    }
    Value::obj([
        ("displayTimeUnit", Value::str("ns")),
        ("traceEvents", Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, class: Class, start: u64, end: u64, coll: u64) -> Span {
        Span {
            name,
            class,
            start_ns: start,
            end_ns: end,
            fabric_start_ns: 0,
            fabric_end_ns: 0,
            coll: Some(coll),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // Two disjoint children and one overlapping the second.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70), (60, 80)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 12), (18, 30)]), 6);
        assert_eq!(self_time(0, 10, &[]), 10);
    }

    #[test]
    fn breakdown_of_a_hand_built_tree() {
        let spans = vec![
            span("bcast", Class::Coll, 0, 100, 0),
            span("post_recv", Class::Post, 5, 15, 0),
            span("wait", Class::Blocked, 15, 75, 0),
            span("send", Class::Post, 80, 90, 0),
            span("barrier", Class::Coll, 100, 150, 1),
            span("wait", Class::Blocked, 110, 140, 1),
            span("progress", Class::Other, 140, 145, 1),
        ];
        let b = breakdown(&spans);
        assert_eq!(
            b,
            Breakdown {
                colls: 2,
                comm_calls: 5,
                coll_ns: 150,
                self_ns: 20 + 15,
                blocked_ns: 60 + 30,
                post_ns: 20,
                other_ns: 5,
            }
        );
        assert_eq!(b.self_ns + b.blocked_ns + b.post_ns + b.other_ns, b.coll_ns);
    }
}
