//! The four planes of the repair loop, one module each, and what the
//! engine hands them.
//!
//! | module | state | what it does |
//! |---|---|---|
//! | [`srm`] | [`srm::SrmState`] | NACK service, solicit-or-suppress, randomized jitter (`docs/PROTOCOL.md` §8) |
//! | [`horizon`] | [`horizon::HorizonState`] | ACK-horizon session messages, per-peer RTT, ring GC (§9) |
//! | [`membership`] | [`membership::MemberState`] | heartbeats, suspicion, failure announces (§10) |
//! | [`gossip`] | [`gossip::GossipState`] | `Advr`/`Want`/`Served` dissemination and the relay store (§11) |
//!
//! A plane's fields are private to its module. [`crate::EndpointCore`]
//! reaches a plane through `new`, `service(cx, io, …)` and
//! `next_deadline()`, and a plane reaches another only through the few
//! named reads the protocol needs — "is peer `p` dead"
//! ([`membership::is_dead`]), "peer `p` acknowledged this frontier"
//! ([`gossip::GossipState::note_frontiers`]) — each passed in as
//! an argument, so the signature of an entry point lists everything it can
//! touch. `docs/PROTOCOL.md` ("Where each plane lives") has the map and the
//! fixed service order.

use mmpi_wire::{
    split_message, Bytes, Datagram, MsgKind, RepairStats, RetransmitBuffer, WireError,
};

use crate::api::Tag;
use crate::config::RepairConfig;
use crate::inbox::Inbox;
use crate::pump::{dur_nanos, Nanos, RepairPort};

pub(crate) mod gossip;
pub(crate) mod horizon;
pub(crate) mod membership;
pub(crate) mod srm;

use gossip::GossipState;
use horizon::HorizonState;
use membership::MemberState;
use srm::SrmState;

/// Wire offset of the control sequence space: session traffic (horizons,
/// heartbeats, failure announces, `Advr`/`Want`/`Served`) counts from
/// here, data messages from zero, and the chunk assembler (keyed by
/// `(src, seq)`) can never confuse the two.
pub(crate) const CONTROL_SEQ_BASE: u64 = 1 << 63;

/// An endpoint's identity on the wire, its two sequence counters and the
/// encoder over them.
#[derive(Debug)]
pub(crate) struct Encoder {
    pub(crate) context: u32,
    pub(crate) rank: usize,
    pub(crate) n: usize,
    pub(crate) max_chunk: usize,
    /// The gossip plane is armed: the fabric is assumed to have no working
    /// multicast, so everything addressed to the group goes unicast per
    /// live peer.
    pub(crate) unicast_only: bool,
    next_seq: u64,
    /// Counter of the control sequence space. A space of its own, *not*
    /// [`Encoder::fresh_seq`]: session messages are never recorded for
    /// retransmission, so threading them through the data sequence space
    /// would turn every lost one into a permanent, unanswerable hole in
    /// receivers' missing-range advertisements.
    next_control: u64,
}

impl Encoder {
    pub(crate) fn new(
        context: u32,
        rank: usize,
        n: usize,
        max_chunk: usize,
        unicast_only: bool,
    ) -> Self {
        Encoder {
            context,
            rank,
            n,
            max_chunk,
            unicast_only,
            next_seq: 0,
            next_control: 0,
        }
    }

    /// Allocate the next data sequence number.
    pub(crate) fn fresh_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Allocate the next sequence number of the control space (see
    /// [`CONTROL_SEQ_BASE`]).
    pub(crate) fn control_seq(&mut self) -> u64 {
        let s = CONTROL_SEQ_BASE | self.next_control;
        self.next_control += 1;
        s
    }

    /// Encode a message into wire datagrams (zero-copy views of
    /// `payload`).
    pub(crate) fn encode(
        &self,
        tag: Tag,
        kind: MsgKind,
        payload: &Bytes,
        seq: u64,
    ) -> Vec<Datagram> {
        split_message(
            kind,
            self.context,
            self.rank as u32,
            tag,
            seq,
            payload,
            self.max_chunk,
        )
    }

    /// Put encoded datagrams in front of the whole group: one fabric
    /// multicast, or — [`Encoder::unicast_only`] — a unicast per peer the
    /// membership plane has not declared dead.
    pub(crate) fn group_transmit<P: RepairPort>(
        &self,
        io: &mut P,
        member: Option<&MemberState>,
        dgs: &[Datagram],
    ) {
        if self.unicast_only {
            for p in 0..self.n {
                if p != self.rank && !membership::is_dead(member, p) {
                    io.send_encoded(p, dgs);
                }
            }
        } else {
            io.send_encoded_mcast(dgs);
        }
    }
}

/// What a plane's entry point works on besides its own state: the
/// engine's encoder, inbox, retransmit ring and counters, borrowed for one
/// call.
pub(crate) struct Ctx<'a> {
    pub(crate) enc: &'a mut Encoder,
    pub(crate) inbox: &'a mut Inbox,
    pub(crate) rtx: &'a mut RetransmitBuffer,
    pub(crate) stats: &'a mut RepairStats,
}

impl Ctx<'_> {
    /// The door every plane's control traffic comes through: `parsed` is
    /// the payload of a message from rank `sender`, viewed in place. A
    /// payload that does not decode or a rank outside the group is stray
    /// traffic on a real port (neither can happen on the closed simulated
    /// fabric): counted, and `None`.
    pub(crate) fn admit<T>(&mut self, sender: u32, parsed: Result<T, WireError>) -> Option<T> {
        match parsed {
            Ok(view) if (sender as usize) < self.enc.n => Some(view),
            _ => {
                self.stats.malformed_dropped += 1;
                None
            }
        }
    }
}

/// The armed repair loop: its planes, each holding the tuning it reads. SRM
/// and the horizon plane exist whenever the loop does (the horizon plane
/// stays inert until [`RepairConfig::horizon_interval`] turns emission
/// on); membership and gossip only when configured.
#[derive(Debug)]
pub(crate) struct Repair {
    pub(crate) srm: SrmState,
    pub(crate) horizon: HorizonState,
    pub(crate) member: Option<MemberState>,
    pub(crate) gossip: Option<GossipState>,
}

impl Repair {
    pub(crate) fn new(cfg: RepairConfig, rank: usize, n: usize, context: u32) -> Self {
        let timeout = dur_nanos(cfg.nack_timeout);
        Repair {
            srm: SrmState::new(&cfg, rank, context),
            horizon: HorizonState::new(&cfg, n),
            member: cfg.membership.map(|mc| MemberState::new(mc, n, timeout)),
            gossip: cfg.is_gossip().then(|| GossipState::new(n, timeout)),
        }
    }

    /// The earliest instant a plane needs a pass for its own sake: the
    /// next horizon emission, heartbeat tick or gossip pull retry. Folded
    /// into the deadline a blocking pump parks until, which is what keeps
    /// session messages, suspicion clocks and pull retries running on
    /// endpoints that spend their life parked in wait loops.
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        [
            self.horizon.next_deadline(),
            self.member.as_ref().and_then(MemberState::next_deadline),
            self.gossip.as_ref().and_then(GossipState::next_deadline),
        ]
        .into_iter()
        .flatten()
        .min()
    }
}
