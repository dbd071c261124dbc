//! [`EndpointCore`]: the backend-independent half of a transport endpoint
//! — send paths, the posted-receive request table, the progress engine
//! and the waits over it, and the shutdown drain. The repair loop's four
//! planes live in the private `planes` module; this file owns the order
//! they are serviced in (`EndpointCore::advance`).

use std::time::Duration;

use mmpi_wire::{
    Bytes, Datagram, Message, MsgKind, RepairStats, RetransmitBuffer, SendDst, UnavailPayload,
    ONE_FRAME_PAYLOAD,
};

#[cfg(doc)]
use crate::api::Comm;
use crate::api::{CancelSink, RecvError, RecvReq, Tag};
use crate::config::RepairConfig;
use crate::inbox::Inbox;
use crate::planes::membership::MemberState;
use crate::planes::{Ctx, Encoder, Repair};
use crate::pump::{dur_nanos, Nanos, RepairPort, RepairPump, WaitKind, WaitPoll};
use crate::view::View;

/// One posted receive in the endpoint's request table: its matcher, its
/// private NACK solicitation deadline, the instant it expires if one was
/// armed, and — once the progress engine completes it — the parked result
/// awaiting a claim.
#[derive(Debug)]
struct PendingRecv {
    id: u64,
    src: Option<usize>,
    tag: Tag,
    /// Next solicitation deadline (`None` with repair off).
    solicit_at: Option<Nanos>,
    /// When the receive completes with [`RecvError::TimedOut`] if nothing
    /// matched it first ([`EndpointCore::expire_at`]).
    expires_at: Option<Nanos>,
    /// Parked completion; claimed by `test_claimed`.
    done: Option<Result<Message, RecvError>>,
}

/// The backend-independent half of a transport endpoint: sequence
/// numbers, wire encoding, the receive inbox, the retransmit ring, the
/// posted-receive request table, and — written exactly once for all
/// backends — the **progress engine** driving the NACK service / solicit
/// / drain policy of `docs/PROTOCOL.md` (including the SRM
/// backoff/suppression/multicast-repair scale-out of §8) for *every*
/// outstanding request, through a [`RepairPump`].
#[derive(Debug)]
pub struct EndpointCore {
    enc: Encoder,
    /// Receive-side bookkeeping.
    pub inbox: Inbox,
    rtx: RetransmitBuffer,
    rstats: RepairStats,
    /// The repair loop — its tuning and the state of its planes; `None`
    /// disables it entirely (every plane hook is gated on it, so the
    /// repair-less paths draw and send byte-identically to the
    /// pre-repair protocol).
    repair: Option<Repair>,
    /// The context this endpoint was created with; epoch rebases derive
    /// each epoch's context from it ([`EndpointCore::rebase_epoch`]).
    base_context: u32,
    /// Set by [`EndpointCore::leave`] (graceful, after announcing and
    /// draining) or [`EndpointCore::abandon`] (crash injection): the
    /// endpoint is out of the group and must not drain again on drop.
    left: bool,
    cancels: CancelSink,
    /// Posted receives, in post order (the matching priority).
    pending: Vec<PendingRecv>,
    next_req: u64,
    /// What the communicator over this endpoint sees of it: the world, or
    /// a sub-communicator. Only the `Comm` glue reads it; everything here
    /// speaks world ranks and wire tags.
    pub(crate) view: View,
}

/// The message context of `epoch` for a communicator whose epoch-0
/// context is `base`. A SplitMix64-style finalizer over the epoch: any
/// two epochs' contexts differ in ~half their bits, so cross-epoch
/// traffic can never alias. Pure, so any endpoint can derive the
/// context of an epoch it has not reached yet.
fn epoch_context(base: u32, epoch: u32) -> u32 {
    let x = (u64::from(epoch)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let salt = if epoch == 0 {
        0
    } else {
        (x >> 32) as u32 ^ x as u32
    };
    base ^ salt
}

impl EndpointCore {
    /// A fresh endpoint core for `rank` of `n`, chunking at `max_chunk`.
    pub fn new(
        context: u32,
        rank: usize,
        n: usize,
        max_chunk: usize,
        repair: Option<RepairConfig>,
    ) -> Self {
        let mut inbox = Inbox::new(context, rank as u32);
        if repair.and_then(|r| r.membership).is_some() {
            inbox.set_next_context(epoch_context(context, 1));
        }
        let gossip = repair.is_some_and(|r| r.is_gossip());
        if gossip {
            inbox.set_log_data(true);
        }
        EndpointCore {
            enc: Encoder::new(context, rank, n, max_chunk, gossip),
            inbox,
            rtx: RetransmitBuffer::new(
                repair
                    .map(|r| r.buffer_cap)
                    .unwrap_or(mmpi_wire::DEFAULT_RETRANSMIT_CAP),
            ),
            rstats: RepairStats::default(),
            repair: repair.map(|cfg| Repair::new(cfg, rank, n, context)),
            base_context: context,
            left: false,
            cancels: CancelSink::new(),
            pending: Vec::new(),
            next_req: 0,
            view: View::default(),
        }
    }

    /// The planes, with the engine state their entry points work on.
    fn planes(&mut self) -> Option<(Ctx<'_>, &mut Repair)> {
        let repair = self.repair.as_mut()?;
        let cx = Ctx {
            enc: &mut self.enc,
            inbox: &mut self.inbox,
            rtx: &mut self.rtx,
            stats: &mut self.rstats,
        };
        Some((cx, repair))
    }

    /// A clone of this endpoint's deferred-cancel sink (see
    /// [`CancelSink`]); drained at the start of every progress pass.
    pub fn cancel_sink(&self) -> CancelSink {
        self.cancels.clone()
    }

    /// The smoothed RTT estimate for `peer`, if any samples exist —
    /// exposed for the adaptive-timer convergence tests and diagnostics.
    pub fn peer_rtt(&self, peer: usize) -> Option<Duration> {
        self.repair
            .as_ref()?
            .horizon
            .peer_srtt(peer)
            .map(Duration::from_nanos)
    }

    /// The per-peer solicitation timeout a directed receive from `peer`
    /// would use right now: RTT-derived (clamped into the configured
    /// band) when adaptivity is on and samples exist, otherwise the
    /// configured [`RepairConfig::nack_timeout`]. `None` with repair off.
    pub fn peer_nack_timeout(&self, peer: usize) -> Option<Duration> {
        let (t, _) = self.repair.as_ref()?.horizon.timers(Some(peer));
        Some(Duration::from_nanos(t))
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.enc.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.enc.n
    }

    /// Communicator context id.
    pub fn context(&self) -> u32 {
        self.enc.context
    }

    /// Allocate the next send sequence number.
    pub fn fresh_seq(&mut self) -> u64 {
        self.enc.fresh_seq()
    }

    /// Encode a message into wire datagrams (zero-copy views of
    /// `payload`).
    pub fn encode(&self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) -> Vec<Datagram> {
        self.enc.encode(tag, kind, payload, seq)
    }

    /// Remember an encoded send for retransmission — only when the repair
    /// loop is armed (recording clones `Bytes` handles, never bytes).
    pub fn record_if_armed(
        &mut self,
        seq: u64,
        dst: SendDst,
        tag: Tag,
        kind: MsgKind,
        datagrams: &[Datagram],
    ) {
        if self.repair.is_some() {
            self.rtx.record(seq, dst, tag, kind, datagrams);
        }
    }

    /// Repair counters of this endpoint so far, with what the inbox
    /// dropped on the way in: datagrams the wire layer refused join the
    /// control payloads the planes refused in `malformed_dropped`.
    pub fn repair_stats(&self) -> RepairStats {
        RepairStats {
            malformed_dropped: self.rstats.malformed_dropped + self.inbox.malformed_dropped(),
            foreign_dropped: self.inbox.foreign_dropped(),
            ..self.rstats
        }
    }

    /// Records held in the retransmit ring.
    #[cfg(test)]
    pub(crate) fn ring_len(&self) -> usize {
        self.rtx.len()
    }

    /// The shared unicast send path: allocate a sequence number, encode,
    /// record for retransmission when armed, hand to the port. Every
    /// backend's [`Comm::send_kind`] is this. A send never waits: a
    /// sender that outruns its receivers is bounded by the ring's
    /// capacity eviction, answered by `Unavail` (`docs/PROTOCOL.md` §8.1).
    pub fn send_message<P: RepairPort>(
        &mut self,
        io: &mut P,
        dst: usize,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
    ) -> u64 {
        assert!(dst < self.enc.n, "rank {dst} out of range");
        let seq = self.fresh_seq();
        let dgs = self.encode(tag, kind, payload, seq);
        self.record_if_armed(seq, SendDst::Rank(dst as u32), tag, kind, &dgs);
        io.send_encoded(dst, &dgs);
        self.copy_while_repairing(io, payload, &dgs, Some(dst));
        if self.repair.as_ref().is_some_and(|r| r.srm.has_standing()) {
            self.notify_sent(io, tag, Some(dst));
        }
        // Deliberately no membership `note_tx`: a unicast proves us alive
        // to its one destination only. Every other observer's suspicion
        // clock keeps running, so a unicast-heavy phase (pairwise barrier
        // rounds, directed repair) must NOT suppress the standalone
        // beacon — only group-visible multicasts may.
        seq
    }

    /// The shared *group* send path (see [`EndpointCore::send_message`]) —
    /// the dissemination seam. Under [`crate::config::Dissemination::Multicast`]
    /// the encoded message goes out as one fabric multicast (twice while
    /// the group repairs loss, `docs/PROTOCOL.md` §8.5), byte-identical to
    /// the pre-seam protocol on a fabric that never solicits. Under
    /// [`crate::config::Dissemination::Gossip`] the payload is recorded
    /// (as a `Multicast` record, so any requester may pull it) and pushed
    /// down the binomial tree of the origin's finger peers, each push
    /// behind a compact `Advr` digest on the same path; every rank that
    /// got it by push pushes it on to its own children, and every holder
    /// advertises it lazily to its other fingers, whose pulls repair a
    /// lost push.
    pub fn mcast_message<P: RepairPort>(
        &mut self,
        io: &mut P,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
    ) -> u64 {
        let seq = self.fresh_seq();
        let dgs = self.encode(tag, kind, payload, seq);
        self.record_if_armed(seq, SendDst::Multicast, tag, kind, &dgs);
        let me = self.enc.rank as u32;
        match self.planes() {
            Some((
                mut cx,
                Repair {
                    gossip: Some(g),
                    member,
                    ..
                },
            )) => {
                g.push_down_tree(&mut cx, io, (me, seq), &dgs, member.as_ref());
            }
            _ => {
                io.send_encoded_mcast(&dgs);
                self.copy_while_repairing(io, payload, &dgs, None);
            }
        }
        if self.repair.as_ref().is_some_and(|r| r.srm.has_standing()) {
            self.notify_sent(io, tag, None);
        }
        // The whole group just heard from us: the standalone heartbeat
        // can wait another interval. No clock read with membership off,
        // so that send path stays identical.
        if let Some(m) = self.member_mut() {
            m.note_tx(io.now());
        }
        seq
    }

    /// The copy rule (`docs/PROTOCOL.md` §8.5): while this endpoint has
    /// sent or taken in a solicit lately (`SrmState::copies_due`), a
    /// message that encodes to one datagram fitting one Ethernet frame
    /// goes out a second time on the same path, under the same seq. A
    /// receiver drops whichever copy comes second as a duplicate, so one
    /// frame buys a loss probability of p² instead of p. Never under
    /// gossip: no solicit is noted there.
    fn copy_while_repairing<P: RepairPort>(
        &mut self,
        io: &mut P,
        payload: &Bytes,
        dgs: &[Datagram],
        dst: Option<usize>,
    ) {
        let one_frame = dgs.len() == 1 && payload.len() <= ONE_FRAME_PAYLOAD;
        if !one_frame || !self.repair.as_ref().is_some_and(|r| r.srm.copies_due(io)) {
            return;
        }
        match dst {
            Some(d) => io.send_encoded(d, dgs),
            None => io.send_encoded_mcast(dgs),
        }
        self.rstats.copies_sent += 1;
    }

    /// The send notice (`docs/PROTOCOL.md` §8.4): when this send of `tag`
    /// — to `dst`, or to the group when `None` — answers a peer's
    /// standing request, follow it on the same path with an empty
    /// `MsgKind::Sent` from the control sequence space, never recorded.
    #[cold]
    fn notify_sent<P: RepairPort>(&mut self, io: &mut P, tag: Tag, dst: Option<usize>) {
        let Some(r) = &mut self.repair else {
            return;
        };
        if !r.srm.answer_standing(tag, dst.map(|d| d as u32)) {
            return;
        }
        let seq = self.enc.control_seq();
        let dgs = self.enc.encode(tag, MsgKind::Sent, &Bytes::new(), seq);
        match dst {
            Some(d) => io.send_encoded(d, &dgs),
            None => io.send_encoded_mcast(&dgs),
        }
    }

    /// Re-send to the group under an explicit (previously used) sequence
    /// number — already recorded when first sent, so no re-record. Under
    /// gossip the re-send goes unicast per live peer (receivers that
    /// already hold the seq dedup it).
    pub fn mcast_resend_message<P: RepairPort>(
        &mut self,
        io: &mut P,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
        seq: u64,
    ) {
        let dgs = self.encode(tag, kind, payload, seq);
        self.enc.group_transmit(io, self.member(), &dgs);
    }

    /// Turn a matching `Unavail` advertisement into the typed error —
    /// only for *directed* waits. An advertisement names one responder's
    /// eviction; an any-source wait could still be satisfied by another
    /// peer (and, since any-source solicits are never answered with
    /// `Unavail`, any queued entry it would see is a leftover from an
    /// earlier directed wait — consuming it would fail recoverable
    /// traffic).
    fn take_unavailable(inbox: &mut Inbox, src: Option<usize>, tag: Tag) -> Option<RecvError> {
        src?;
        let m = inbox.take_unavail(src, tag)?;
        let tag_floor = UnavailPayload::decode(&m.payload)
            .map(|u| u.tag_floor)
            .unwrap_or(m.tag);
        Some(RecvError::Unavailable {
            src: m.src_rank,
            tag,
            tag_floor,
        })
    }

    // ------------------------------------------------------------------
    // The progress engine: posted receives, matching, per-request repair.
    // ------------------------------------------------------------------

    /// Post a receive into the request table, arming its solicitation
    /// deadline when repair is on. Never blocks.
    pub fn post_recv<P: RepairPort>(
        &mut self,
        io: &mut P,
        src: Option<usize>,
        tag: Tag,
    ) -> RecvReq {
        let id = self.next_req;
        self.next_req += 1;
        let solicit_at = self
            .repair
            .as_mut()
            .map(|r| r.srm.deadline(&self.enc, io, &r.horizon, src));
        self.pending.push(PendingRecv {
            id,
            src,
            tag,
            solicit_at,
            expires_at: None,
            done: None,
        });
        RecvReq(id)
    }

    /// Arm posted `req` to complete with [`RecvError::TimedOut`] at `at`
    /// on the backend's clock ([`Comm::expire_recv`]); [`Nanos::MAX`], a
    /// saturated timeout, is never.
    pub fn expire_at(&mut self, req: RecvReq, at: Nanos) {
        self.expect_posted(&[req]);
        if let Some(p) = self.pending.iter_mut().find(|p| p.id == req.0) {
            p.expires_at = (at != Nanos::MAX).then_some(at);
        }
    }

    /// One pass of the engine over everything already in hand: service
    /// the planes in their fixed order — horizon (emit, then ingest),
    /// membership, gossip, SRM's queued NACKs; replay depends on it — then
    /// for every incomplete posted receive try to complete it from the
    /// inbox (matched message or `Unavail` advertisement), fire its
    /// solicitation deadline if expired, and last, once its own expiry has
    /// passed, complete it with [`RecvError::TimedOut`] — so a message in
    /// hand beats the timeout. Does **not** pump the socket —
    /// callers decide whether to drain nonblockingly
    /// ([`EndpointCore::progress`]) or park ([`EndpointCore::block`]).
    pub(crate) fn advance<P: RepairPort>(&mut self, io: &mut P) {
        if !self.cancels.is_empty() {
            for req in self.cancels.drain() {
                self.cancel_req(req);
            }
        }
        let EndpointCore {
            enc,
            inbox,
            rtx,
            rstats,
            repair,
            pending,
            ..
        } = self;
        let mut cx = Ctx {
            enc,
            inbox,
            rtx,
            stats: rstats,
        };
        if let Some(r) = repair {
            r.horizon
                .service(&mut cx, io, r.member.as_mut(), r.gossip.as_mut());
            if let Some(m) = &mut r.member {
                m.service(&mut cx, io, &r.horizon);
            }
            if let Some(g) = &mut r.gossip {
                g.service(&mut cx, io, &r.horizon, r.member.as_ref());
            }
            r.srm.service(&mut cx, io);
        }
        for i in 0..pending.len() {
            if pending[i].done.is_some() {
                continue;
            }
            let (src, tag) = (pending[i].src, pending[i].tag);
            if let Some(m) = cx.inbox.take_match(src, tag) {
                if let Some(r) = repair {
                    r.horizon.note_arrival(&mut cx, io, m.src_rank);
                }
                pending[i].done = Some(Ok(m));
                continue;
            }
            if let Some(e) = Self::take_unavailable(cx.inbox, src, tag) {
                pending[i].done = Some(Err(e));
                continue;
            }
            if let Some(r) = repair {
                // Checked after the match: traffic already in hand from a
                // now-dead peer is still delivered (it is valid pre-failure
                // data); only a receive that would otherwise block forever
                // fails over to the membership verdict.
                if let Some(e) = r.member.as_ref().and_then(|m| m.failed_error(src)) {
                    pending[i].done = Some(Err(e));
                    continue;
                }
                if let Some(at) = pending[i].solicit_at {
                    if io.now() >= at {
                        // Deadline-based, per request: a busy socket cannot
                        // starve any posted receive's solicitation, and a
                        // wait on one request advances the repair state of
                        // every other.
                        let next = Some(r.srm.solicit_step(
                            &mut cx,
                            io,
                            src,
                            tag,
                            &mut r.horizon,
                            r.member.as_ref(),
                        ));
                        // One solicit serves every posted receive with the
                        // same matcher — the NACK's missing-seq ranges are
                        // computed from the shared inbox, so duplicates
                        // would be byte-identical. Re-arm them all to the
                        // fresh deadline; otherwise a ring posting n-1
                        // same-matcher receives would multicast n-1 copies
                        // of the same NACK per timeout window (the storm
                        // the SRM scale-out exists to prevent).
                        for p in pending.iter_mut() {
                            if p.done.is_none() && p.src == src && p.tag == tag {
                                p.solicit_at = next;
                            }
                        }
                    }
                }
            }
            // Last, so that a message in hand beats the expiry.
            if pending[i].expires_at.is_some_and(|at| io.now() >= at) {
                pending[i].done = Some(Err(RecvError::TimedOut));
            }
        }
        // Send notices (`docs/PROTOCOL.md` §8.4), after the match step: on
        // a FIFO path a notice trails its message, so a receive still
        // waiting on it here lost the message and re-arms to solicit soon.
        while let Some((s, tag)) = cx.inbox.take_notice() {
            let Some(r) = repair.as_mut() else {
                continue;
            };
            let src = Some(s as usize);
            let waiting = |p: &PendingRecv| p.done.is_none() && p.src == src && p.tag == tag;
            let at = r
                .srm
                .notice(io, &r.horizon, s as usize, tag, pending.iter().any(waiting));
            for p in pending.iter_mut().filter(|p| waiting(p)) {
                p.solicit_at = at;
            }
        }
    }

    /// The deadline a blocking pump parks until: the earliest live
    /// solicitation deadline or expiry across all incomplete posted
    /// receives, or the next instant a plane needs a pass for its own sake
    /// ([`Repair::next_deadline`]), whichever is sooner.
    fn park_deadline(&self) -> Option<Nanos> {
        let plane_due = self.repair.as_ref().and_then(Repair::next_deadline);
        self.pending
            .iter()
            .filter(|p| p.done.is_none())
            .flat_map(|p| [p.solicit_at, p.expires_at])
            .chain([plane_due])
            .flatten()
            .min()
    }

    /// The precondition of every call that names requests: each is
    /// still posted here.
    pub(crate) fn expect_posted(&self, reqs: &[RecvReq]) {
        for req in reqs {
            assert!(
                self.pending.iter().any(|p| p.id == req.0),
                "receive request {} is not posted on this endpoint \
                 (already completed, cancelled, or foreign)",
                req.0
            );
        }
    }

    /// Nonblocking progress pass: drain every datagram already available,
    /// then advance the request table.
    pub fn progress<P: RepairPump>(&mut self, io: &mut P) {
        while io.pump_ready(self) {}
        self.advance(io);
    }

    /// Claim-only completion check: [`Comm::test`] minus the
    /// progress pass. For pollers that already ran
    /// [`EndpointCore::progress`] this turn and are checking many
    /// requests — one engine pass, then O(1)-ish claims, instead of a
    /// socket drain per request (on the simulator every drain is a
    /// round of the co-simulation). A parked completion is claimed and
    /// the handle retired; `None` while pending.
    pub fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.expect_posted(&[req]);
        let i = self.pending.iter().position(|p| p.id == req.0)?;
        self.pending[i].done.as_ref()?;
        // Order-preserving removal: post order is the matching priority
        // of the survivors.
        self.pending.remove(i).done
    }

    /// One turn of a blocking wait: run the engine over what is in hand
    /// (`advance`), then either the wait is over or the caller should
    /// receive one datagram — by no later than the returned instant, when
    /// the next solicit, expiry, horizon, heartbeat or gossip retry falls
    /// due —
    /// and poll again. Claims nothing. [`EndpointCore::block`] receives in
    /// [`RepairPump::pump_one`] between turns; the simulator's endpoint
    /// parks its rank and lets the round closer take the turns (`sim.rs`).
    #[inline]
    pub fn poll_wait<P: RepairPort>(&mut self, io: &mut P, kind: &WaitKind<'_>) -> WaitPoll {
        self.advance(io);
        let done = |id: u64| self.pending.iter().any(|p| p.id == id && p.done.is_some());
        let ready = match *kind {
            WaitKind::AnyOf(reqs) => reqs.iter().any(|r| done(r.0)),
            WaitKind::AnyPosted => self.pending.iter().any(|p| p.done.is_some()),
        };
        if ready {
            return WaitPoll::Ready;
        }
        WaitPoll::Park(self.park_deadline())
    }

    /// Block until `kind` is satisfied — the one wait loop, behind every
    /// blocking call of every backend whose rank receives for itself
    /// ([`crate::Backend::block`]'s default): take a turn, receive one
    /// datagram, repeat. Claims nothing.
    ///
    /// [`WaitKind::AnyPosted`] is the exception to "repeat": it blocks for
    /// *one event* — a datagram ingested or a deadline fired — then runs
    /// one more engine pass and returns whatever that pass found. It
    /// returns at once when a completion is already unclaimed, which is
    /// what makes round-robin polling of several composed operations
    /// safe: one operation's nonblocking poll may drain the socket and
    /// park another operation's *last* message in its slot, and a park
    /// here would then wait for a datagram that will never come.
    pub fn block<P: RepairPump>(&mut self, io: &mut P, kind: &WaitKind<'_>) {
        while let WaitPoll::Park(until) = self.poll_wait(io, kind) {
            io.pump_one(self, until);
            if let WaitKind::AnyPosted = kind {
                self.advance(io);
                return;
            }
        }
    }

    /// Abandon a posted receive; an already-matched message is requeued
    /// so no data is lost (a parked error is discarded — cancelling
    /// declares the caller no longer cares). No-op on a retired handle.
    pub fn cancel_req(&mut self, req: RecvReq) {
        if let Some(i) = self.pending.iter().position(|p| p.id == req.0) {
            if let Some(Ok(m)) = self.pending.remove(i).done {
                self.inbox.requeue_front(m);
            }
        }
    }

    /// Posted receives not yet claimed (diagnostics; a steadily growing
    /// value means requests are being leaked instead of waited or
    /// cancelled).
    pub fn outstanding_recvs(&self) -> usize {
        self.pending.len()
    }

    /// The part of a pass a *draining* endpoint still runs: gossip pulls
    /// and queued NACKs are answered; no horizon is emitted (it would
    /// restart every peer's quiet clock forever) and no suspicion timer
    /// runs.
    fn service_repair_requests<P: RepairPort>(&mut self, io: &mut P) {
        if let Some((mut cx, r)) = self.planes() {
            if let Some(g) = &mut r.gossip {
                g.service(&mut cx, io, &r.horizon, r.member.as_ref());
            }
            r.srm.service(&mut cx, io);
        }
    }

    /// Shutdown drain: a peer may still be missing this endpoint's
    /// *final* message, so keep answering NACKs until the link has been
    /// quiet for the grace period — which scales with group size
    /// ([`RepairConfig::effective_drain_grace`]), because a straggler can
    /// chain through `~n` earlier-round recoveries before posting the
    /// receive that needs us. No-op with repair off.
    ///
    /// With membership armed the drain also keeps the *beacon* cadence
    /// running: a draining endpoint still services repair, so for the
    /// liveness layer it is alive, and going dark here would have a
    /// straggler confirm its drained peers failed mid-repair and abort
    /// (`tests/membership.rs` regresses that teardown race). To keep
    /// mutually-draining endpoints from holding each other open
    /// forever, liveness traffic does not restart the quiet clock —
    /// only [`Inbox::repair_relevant`] arrivals do.
    pub fn drain<P: RepairPump>(&mut self, io: &mut P) {
        let Some(r) = &self.repair else {
            return;
        };
        if self.left {
            return;
        }
        let grace = self.drain_grace();
        if r.member.is_none() {
            // The membership-less path, byte-for-byte the pre-liveness
            // behavior: any arrival restarts the full grace (the gossip
            // pass is a strict no-op under multicast).
            self.service_repair_requests(io);
            while io.pump_drain(self, grace) {
                self.service_repair_requests(io);
            }
            return;
        }
        let grace = dur_nanos(grace);
        self.service_repair_requests(io);
        self.beacon_tick(io);
        let mut quiet_since = io.now();
        loop {
            let now = io.now();
            let deadline = quiet_since.saturating_add(grace);
            if now >= deadline {
                break;
            }
            // Wake no later than the next beacon is due, so the cadence
            // holds even when nothing arrives.
            let hb_at = self.next_heartbeat_due().unwrap_or(deadline);
            let wake = deadline.min(hb_at.max(now + 1));
            let before = self.inbox.repair_relevant();
            let got = io.pump_drain(self, Duration::from_nanos(wake - now));
            self.service_repair_requests(io);
            self.beacon_tick(io);
            if self.inbox.repair_relevant() > before {
                quiet_since = io.now();
            } else if !got && io.now() <= now {
                // The pump produced nothing and cannot advance its
                // clock (test harness pumps): grace semantics are
                // meaningless, treat the link as already quiet.
                break;
            }
        }
    }

    /// When the next standalone heartbeat is due, or `None` when the
    /// membership layer is off (or has not seen its first service pass).
    /// Transports use this to slice long mute phases — drains, compute —
    /// at beacon boundaries.
    pub fn next_heartbeat_due(&self) -> Option<Nanos> {
        self.member()?.next_deadline()
    }

    /// Emit the standalone heartbeat if the schedule is due, with no
    /// quiet test: callers invoke this from phases where the endpoint is
    /// otherwise mute (the drain loop, mid-`compute` slices), so the
    /// beacon is the only thing keeping its suspicion clocks at bay —
    /// see [`EndpointCore::drain`] for the teardown race it prevents.
    /// No-op with membership off or before the first service pass.
    pub fn beacon_tick<P: RepairPort>(&mut self, io: &mut P) {
        if let Some((mut cx, r)) = self.planes() {
            if let Some(m) = &mut r.member {
                m.beacon_tick(&mut cx, io);
            }
        }
    }

    /// The drain grace this endpoint actually applies: the
    /// group-size-scaled configured bound
    /// ([`RepairConfig::effective_drain_grace`]) — or, with adaptivity
    /// on and RTT samples in hand, the same straggler-chain derivation
    /// computed from the *measured* worst per-peer timeout, still capped
    /// at [`RepairConfig::drain_grace_cap`]. The
    /// straggler-chain length is the *live* group size: peers that
    /// failed or announced a graceful departure cannot be chaining
    /// through recoveries, so survivors need not wait out their share of
    /// the grace (`tests/membership.rs` regresses the early-leaver
    /// case).
    pub fn drain_grace(&self) -> Duration {
        let Some(r) = &self.repair else {
            return Duration::ZERO;
        };
        let dead = r.member.as_ref().map_or(0, |m| m.dead_count());
        r.horizon.drain_grace(self.enc.n - dead)
    }

    // ------------------------------------------------------------------
    // The membership/liveness layer's surface (`docs/PROTOCOL.md` §10).
    // ------------------------------------------------------------------

    fn member(&self) -> Option<&MemberState> {
        self.repair.as_ref()?.member.as_ref()
    }

    fn member_mut(&mut self) -> Option<&mut MemberState> {
        self.repair.as_mut()?.member.as_mut()
    }

    /// Ranks the membership layer has confirmed failed (crash-dead, not
    /// graceful), sorted. Empty with membership off.
    pub fn failed_peers(&self) -> Vec<usize> {
        self.member().map_or_else(Vec::new, |m| m.failed())
    }

    /// Ranks that announced a graceful departure, sorted. Empty with
    /// membership off.
    pub fn departed_peers(&self) -> Vec<usize> {
        self.member().map_or_else(Vec::new, |m| m.departed())
    }

    /// The current liveness epoch (0 with membership off or before any
    /// shrink).
    pub fn epoch(&self) -> u32 {
        self.member().map_or(0, |m| m.epoch())
    }

    /// Graceful departure (drain-on-leave, `docs/API.md`): flood a
    /// graceful `FailureAnnounce` (several copies — it races the same
    /// lossy fabric the repair plane exists for, and a missed announce
    /// costs every survivor the full drain grace), flush the retransmit
    /// ring by draining (peers may still be missing our final traffic),
    /// and mark the endpoint as left so the drop-time drain is a no-op.
    /// Idempotent.
    pub fn leave<P: RepairPump>(&mut self, io: &mut P) {
        if self.left {
            return;
        }
        let me = self.enc.rank as u32;
        if let Some((mut cx, r)) = self.planes() {
            if let Some(m) = &mut r.member {
                for _ in 0..3 {
                    m.announce(&mut cx, io, &[me], true);
                }
            }
        }
        self.drain(io);
        self.left = true;
    }

    /// Crash injection for tests: the endpoint stops participating
    /// without announcing or draining — exactly what a killed process
    /// looks like to the survivors. Not reversible.
    pub fn abandon(&mut self) {
        self.left = true;
    }

    /// True once [`EndpointCore::leave`] or [`EndpointCore::abandon`]
    /// retired this endpoint.
    pub fn has_left(&self) -> bool {
        self.left
    }

    /// Adopt an externally agreed failure verdict — the communicator
    /// shrink's vote union: mark `rank` failed *now*, without waiting
    /// out the local suspicion timers, so ack quorums and the drain
    /// grace stop counting it immediately. No announce is flooded: the
    /// verdict came out of an agreement round, so every survivor
    /// already holds it. A no-op with membership off, for the local
    /// rank, and for peers already dead.
    pub fn force_fail(&mut self, rank: usize) {
        if rank == self.enc.rank {
            return;
        }
        let Some((mut cx, r)) = self.planes() else {
            return;
        };
        let Some(m) = &mut r.member else {
            return;
        };
        if m.force_fail(rank) {
            cx.stats.failures_confirmed += 1;
            r.horizon.gc_ring(&mut cx, Some(&*m));
        }
    }

    /// Adopt a new liveness epoch after a communicator shrink: derive
    /// the epoch's context from the creation context (a seeded integer
    /// mix — deterministic, so every survivor lands on the same
    /// context), rebase the inbox onto it (old-epoch data stragglers
    /// become foreign; the old epoch's repair plane stays honored), and
    /// stamp the epoch into the stats. Sequence counters are *not*
    /// rewound — receivers' dedup history stays valid across the
    /// boundary.
    ///
    /// A no-op without membership: there is no failure to fence off, the
    /// context never changes, and it must not — a shrink is one vote
    /// round with no barrier, so the survivor that finishes first would
    /// otherwise speak a context its peers still drop as foreign, and
    /// with repair off (`MemComm`) nothing would ever re-send it.
    pub fn rebase_epoch(&mut self, epoch: u32) {
        let Some(m) = self.member_mut() else {
            return;
        };
        m.set_epoch(epoch);
        let new_context = epoch_context(self.base_context, epoch);
        self.inbox.rebase(new_context);
        self.inbox
            .set_next_context(epoch_context(self.base_context, epoch.wrapping_add(1)));
        self.enc.context = new_context;
        self.rstats.epoch = self.rstats.epoch.max(u64::from(epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump::deadline_after;
    use crate::testing::ScriptedPump;

    /// Rank 0 sends `count` 1 KiB group messages to rank 1 over a scripted
    /// pair, 10 µs apart. With repair armed every 500th is lost on first
    /// transmission (recorded, never sent) and has to come back through a
    /// NACK. Returns both endpoints' counters.
    fn deliver(repair: Option<RepairConfig>, count: u32) -> (RepairStats, RepairStats) {
        let (mut a_io, mut b_io) = ScriptedPump::pair();
        let mut a = EndpointCore::new(0, 0, 2, 60_000, repair);
        let mut b = EndpointCore::new(0, 1, 2, 60_000, repair);
        let payload = Bytes::from(vec![0x3C; 1024]);
        for tag in 0..count {
            let req = b.post_recv(&mut b_io, Some(0), tag);
            a.progress(&mut a_io);
            let lost = repair.is_some() && tag % 500 == 499;
            if lost {
                let seq = a.fresh_seq();
                let dgs = a.encode(tag, MsgKind::Data, &payload, seq);
                a.record_if_armed(seq, SendDst::Multicast, tag, MsgKind::Data, &dgs);
            } else {
                a.mcast_message(&mut a_io, tag, MsgKind::Data, &payload);
            }
            a_io.set_clock(a_io.clock() + 10_000);
            let mut rounds = 0;
            let got = loop {
                b.progress(&mut b_io);
                if let Some(done) = b.test_claimed(req) {
                    break done;
                }
                a.progress(&mut a_io);
                if lost {
                    a_io.set_clock(a_io.clock() + 500_000);
                }
                rounds += 1;
                assert!(rounds < 1000, "message {tag} never arrived");
            };
            assert_eq!(got.expect("nothing is unrecoverable here").payload, payload);
        }
        (a.repair_stats(), b.repair_stats())
    }

    /// Each plane runs over the pump with the planes its configuration
    /// does not arm absent: 2 000 messages arrive, the armed plane's own
    /// counters move, and every counter of an unarmed plane stays at zero
    /// on both endpoints.
    #[test]
    fn each_plane_delivers_with_the_others_absent() {
        let srm = |s: &RepairStats| {
            s.nacks_sent
                + s.nacks_received
                + s.retransmits_sent
                + s.unanswered_nacks
                + s.nacks_suppressed
                + s.nacks_overheard
                + s.repairs_suppressed
                + s.unavailable_sent
        };
        let horizon = |s: &RepairStats| {
            s.horizons_sent + s.horizons_received + s.acked_records_freed + s.rtt_samples
        };
        let member =
            |s: &RepairStats| s.heartbeats_sent + s.suspicions + s.failures_confirmed + s.epoch;
        let gossip = |s: &RepairStats| {
            s.advrs_sent
                + s.wants_sent
                + s.pulls_answered
                + s.pushes_sent
                + s.duplicate_payloads_avoided
        };
        let sim = RepairConfig::sim_default;
        let beat = Duration::from_millis(5);

        let (a, b) = deliver(None, 2000);
        for s in [&a, &b] {
            assert_eq!(srm(s) + horizon(s) + member(s) + gossip(s), 0, "{s:?}");
        }

        let (a, b) = deliver(Some(sim()), 2000);
        assert_eq!(
            (b.nacks_sent, a.retransmits_sent),
            (4, 4),
            "4 losses, 4 repairs"
        );
        for s in [&a, &b] {
            assert_eq!(horizon(s) + member(s) + gossip(s), 0, "{s:?}");
        }

        let (a, b) = deliver(Some(sim().with_adaptive()), 2000);
        assert!(a.horizons_received > 0 && a.acked_records_freed > 0 && a.rtt_samples > 0);
        for s in [&a, &b] {
            assert_eq!(member(s) + gossip(s), 0, "{s:?}");
        }

        let (a, b) = deliver(Some(sim().with_membership(beat)), 2000);
        assert!(b.heartbeats_sent > 0, "the quiet receiver owes beacons");
        for s in [&a, &b] {
            assert_eq!(s.suspicions + s.failures_confirmed + gossip(s), 0, "{s:?}");
        }

        let (a, b) = deliver(Some(sim().with_gossip()), 2000);
        // Each payload is pushed, or pulled where a push is lost.
        assert!(a.advrs_sent >= 1996 && a.pushes_sent + a.pulls_answered >= 1996);
        for s in [&a, &b] {
            assert_eq!(member(s), 0, "{s:?}");
        }
    }

    /// A `Duration::MAX` timeout used to wrap to a deadline in the past.
    /// It saturates to "never": the wait parks until the planes' own next
    /// deadline and completes on delivery.
    #[test]
    fn a_duration_max_wait_parks_until_the_plane_deadline_and_completes_on_delivery() {
        let mut io = ScriptedPump::new();
        io.set_clock(1_000);
        let never = deadline_after(io.clock(), Duration::MAX);
        assert_eq!(never, Nanos::MAX);

        let mut core = EndpointCore::new(0, 1, 2, 60_000, Some(RepairConfig::sim_default()));
        let req = core.post_recv(&mut io, Some(0), 5);
        core.expire_at(req, never);
        let parked = core.poll_wait(&mut io, &WaitKind::AnyOf(&[req]));
        assert!(
            core.park_deadline().is_some_and(|at| at < never),
            "the solicit deadline is armed"
        );
        assert_eq!(parked, WaitPoll::Park(core.park_deadline()));
        io.inject_message(MsgKind::Data, 0, 5, 0, b"late");
        core.block(&mut io, &WaitKind::AnyOf(&[req]));
        let got = core.test_claimed(req);
        assert_eq!(
            got.expect("delivered").expect("not timed out").payload,
            b"late"
        );

        // With nothing armed there is no instant to park until at all.
        let mut plain = EndpointCore::new(0, 1, 2, 60_000, None);
        let req = plain.post_recv(&mut io, Some(0), 5);
        plain.expire_at(req, never);
        let parked = plain.poll_wait(&mut io, &WaitKind::AnyOf(&[req]));
        assert_eq!(parked, WaitPoll::Park(None));
    }

    /// An expiry is the last thing a pass tries: a receive whose message
    /// is in hand when its deadline has passed completes with the message,
    /// with repair on or off. One with nothing in hand parks until its
    /// expiry and then completes with `TimedOut`.
    #[test]
    fn a_message_in_hand_beats_the_timeout() {
        for repair in [None, Some(RepairConfig::sim_default())] {
            let mut io = ScriptedPump::new();
            let mut core = EndpointCore::new(0, 1, 2, 60_000, repair);
            let req = core.post_recv(&mut io, Some(0), 5);
            core.expire_at(req, 1_000);
            io.inject_message(MsgKind::Data, 0, 5, 0, b"in hand");
            io.set_clock(2_000);
            core.progress(&mut io);
            let got = core.test_claimed(req).expect("completed");
            assert_eq!(got.expect("not timed out").payload, b"in hand");

            let late = core.post_recv(&mut io, Some(0), 6);
            core.expire_at(late, 3_000);
            let parked = core.poll_wait(&mut io, &WaitKind::AnyOf(&[late]));
            assert_eq!(parked, WaitPoll::Park(Some(3_000)), "{repair:?}");
            core.block(&mut io, &WaitKind::AnyOf(&[late]));
            assert_eq!(io.clock(), 3_000);
            assert_eq!(core.test_claimed(late), Some(Err(RecvError::TimedOut)));
        }
    }
}
