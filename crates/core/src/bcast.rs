//! Broadcast algorithms.
//!
//! * [`BcastAlgorithm::MpichBinomial`] — the MPICH baseline the paper
//!   compares against (its Fig. 2): a binomial tree of point-to-point
//!   sends, so the data crosses the wire `N-1` times.
//! * [`BcastAlgorithm::McastBinary`] — the paper's *binary algorithm*
//!   (Fig. 3): empty scout messages are reduced to the root along a
//!   binomial tree (`N-1` scouts in `ceil(log2 N)` rounds), proving every
//!   receiver is ready, then the root sends the data **once** via IP
//!   multicast.
//! * [`BcastAlgorithm::McastLinear`] — the paper's *linear algorithm*
//!   (Fig. 4): every receiver sends its scout straight to the root, which
//!   claims them one at a time (`N-1` sequential steps), then multicasts.
//! * [`BcastAlgorithm::Gossip`] — no scouts: the root's group send at
//!   once, disseminated by the transport's gossip plane.
//! * [`BcastAlgorithm::FlatTree`] — naive root-sends-to-everyone baseline.
//! * [`BcastAlgorithm::Chain`] and [`BcastAlgorithm::ScatterAllgather`] —
//!   the pipelined shapes of [`crate::bcast_ext`].
//! * [`BcastAlgorithm::PvmAck`] — the sender-initiated reliable multicast
//!   of Dunigan & Hall's PVM work (the paper's ref \[2\]): multicast
//!   first, then retransmit until every receiver acknowledges. Implemented
//!   as an ablation baseline; the paper notes this approach did not pay
//!   off.
//!
//! Every algorithm is one request machine (`Bcast`, driven by
//! [`crate::request::IbcastRequest`]), which [`crate::Communicator::bcast`]
//! waits on. `PvmAck`'s retransmit timer is its ack receive's expiry
//! ([`Comm::expire_recv`]).
//!
//! # Behaviour under loss
//!
//! These algorithms assume the transport delivers every message
//! *eventually*, not reliably: on a lossy fabric they are correct only
//! when the transport's NACK/retransmit repair loop is enabled
//! (`RepairConfig` in `mmpi-transport`; protocol in `docs/PROTOCOL.md`).
//! The scout phases need no special handling — a lost scout or payload
//! is re-requested by the blocked receiver and re-sent from the sender's
//! retransmit ring, with per-sender sequence numbers de-duplicating any
//! crossed copies. `PvmAck` is the exception: it carries its own
//! sender-initiated ack/retransmit machinery (the ablation baseline) and
//! works with or without transport repair.

use std::mem;
use std::time::Duration;

use mmpi_transport::{Comm, RecvError, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::bcast_ext::{Chain, ScatterAllgather};
use crate::request::{Next, Phases, Recover, Scouted, Scouts};
use crate::tags::{OpTags, Phase};
use crate::tree;

/// Broadcast algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgorithm {
    /// MPICH binomial tree over point-to-point sends (baseline).
    MpichBinomial,
    /// Scout reduction along a binomial tree, then one multicast.
    McastBinary,
    /// Scouts straight to the root, then one multicast.
    McastLinear,
    /// Multicast + ack/retransmit (PVM-style, sender-initiated). The root
    /// reports a receiver that never acknowledges as
    /// [`RecvError::Unreachable`].
    PvmAck,
    /// Root unicasts to every receiver directly.
    FlatTree,
    /// Pipelined chain with segmentation (see `bcast_ext::Chain`).
    Chain,
    /// Van de Geijn scatter + ring allgather (large-message baseline).
    ScatterAllgather,
    /// Epidemic dissemination: the root records the payload and lazily
    /// pushes `Advr` digests; receivers pull with `Want` (unicast, no
    /// multicast frames required). Pair with
    /// `RepairConfig::with_gossip()` on the transport — without it the
    /// group send degenerates to a plain multicast. See
    /// `docs/PROTOCOL.md` §11.
    Gossip,
    /// Pick by message size: MPICH for small messages (scout overhead
    /// dominates), multicast-binary for large (see the paper's crossover).
    /// On a fabric whose transport reports
    /// [`Comm::multicast_capable`]` == false`, falls back to [`Gossip`]
    /// regardless of size — multicast-shaped plans cannot deliver there.
    ///
    /// [`Gossip`]: BcastAlgorithm::Gossip
    Auto,
}

/// Tuning for algorithms that need it.
#[derive(Clone, Debug)]
pub struct BcastConfig {
    /// `Auto` switches to multicast at or above this payload size.
    pub auto_crossover_bytes: usize,
    /// Ack-collection timeout per round for [`BcastAlgorithm::PvmAck`].
    pub ack_timeout: Duration,
    /// Retransmission rounds before `PvmAck` gives up.
    pub max_retransmits: u32,
    /// Segment size for [`BcastAlgorithm::Chain`].
    pub chain_segment_bytes: usize,
    /// Extra per-message software cost charged on each side of an
    /// MPICH-baseline point-to-point message. Models the paper's Fig. 1:
    /// MPICH traffic traverses the ADI / Channel / p4-over-TCP layers,
    /// while the multicast implementation bypasses them with raw UDP.
    pub mpich_layer_overhead: Duration,
}

impl Default for BcastConfig {
    fn default() -> Self {
        BcastConfig {
            auto_crossover_bytes: 1000,
            ack_timeout: Duration::from_millis(5),
            max_retransmits: 20,
            chain_segment_bytes: 4096,
            mpich_layer_overhead: Duration::from_micros(5),
        }
    }
}

/// TCP ack count for a message of `len` payload bytes: one ack per
/// MSS(1460)-sized segment. MPICH's p4 device is request-response over
/// TCP with Nagle disabled, a pattern that defeats delayed-ack batching —
/// era kernels acked essentially every segment of such flows.
pub(crate) fn tcp_acks_for(len: usize) -> u32 {
    (len / 1460) as u32 + 1
}

/// Every broadcast's machine, in the shape its selector names.
pub(crate) enum Bcast {
    /// Scouts, then one multicast: `McastBinary`, `McastLinear` and
    /// `Gossip` (no scouts).
    Scouted(Scouted),
    /// MPICH's binomial tree (paper Fig. 2): receive from the parent,
    /// then fan out. `N-1` point-to-point data messages in
    /// `ceil(log2 N)` rounds, each charged `layer` on both sides.
    Binomial {
        tag: Tag,
        layer: Duration,
        root: usize,
        buf: Vec<u8>,
    },
    /// The root unicasts the whole message to every other rank.
    Flat {
        tag: Tag,
        root: usize,
        buf: Vec<u8>,
    },
    Chain(Chain),
    Scatter(ScatterAllgather),
    /// Boxed: the ablation's state is the largest, and every broadcast's
    /// machine is moved at the size of its largest variant.
    PvmAck(Box<PvmAck>),
}

impl Bcast {
    /// The machine for `algo`, with `Auto` lowered for this fabric and
    /// `buf`'s length.
    pub(crate) fn new<C: Comm + ?Sized>(
        c: &C,
        algo: BcastAlgorithm,
        cfg: &BcastConfig,
        tags: OpTags,
        root: usize,
        buf: Vec<u8>,
    ) -> Self {
        let algo = match algo {
            // No multicast on this fabric: a multicast-shaped plan would
            // deliver nothing and stall until the repair plane rebuilt
            // every message. Epidemic dissemination is the design answer
            // here (docs/PROTOCOL.md §11).
            BcastAlgorithm::Auto if !c.multicast_capable() => BcastAlgorithm::Gossip,
            BcastAlgorithm::Auto if buf.len() >= cfg.auto_crossover_bytes && c.size() > 2 => {
                BcastAlgorithm::McastBinary
            }
            BcastAlgorithm::Auto => BcastAlgorithm::MpichBinomial,
            explicit => explicit,
        };
        let tag = tags.tag(Phase::Data);
        let scouted = |scouts, buf| {
            Bcast::Scouted(Scouted::new(
                scouts,
                tags,
                root,
                Phase::Data,
                MsgKind::Data,
                buf,
            ))
        };
        match algo {
            BcastAlgorithm::MpichBinomial => Bcast::Binomial {
                tag,
                layer: cfg.mpich_layer_overhead,
                root,
                buf,
            },
            BcastAlgorithm::FlatTree => Bcast::Flat { tag, root, buf },
            BcastAlgorithm::Chain => {
                Bcast::Chain(Chain::new(tag, cfg.chain_segment_bytes, root, buf))
            }
            BcastAlgorithm::ScatterAllgather => {
                Bcast::Scatter(ScatterAllgather::new(tags, root, buf))
            }
            BcastAlgorithm::PvmAck => Bcast::PvmAck(Box::new(PvmAck::new(cfg, tags, root, buf))),
            BcastAlgorithm::McastLinear => scouted(Scouts::Linear, buf),
            BcastAlgorithm::Gossip => scouted(Scouts::None, buf),
            // `Auto` was lowered above.
            BcastAlgorithm::McastBinary | BcastAlgorithm::Auto => scouted(Scouts::Binomial, buf),
        }
    }
}

/// MPICH's fan-out: send `buf` to this rank's children in descending-mask
/// order, charging the layering cost per send. The buffer is imported
/// into wire form once, and only if there is a child.
fn fan_out<C: Comm + ?Sized>(c: &mut C, tag: Tag, layer: Duration, root: usize, buf: &[u8]) {
    let mut wire = None;
    for dst in tree::binomial_children(c.rank(), c.size(), root) {
        let wire = wire.get_or_insert_with(|| Bytes::from(buf));
        c.compute(layer);
        c.send_kind(dst, tag, MsgKind::Data, wire);
    }
}

impl Phases for Bcast {
    type Output = Vec<u8>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        match self {
            Bcast::Scouted(s) => s.start(c),
            Bcast::Binomial {
                tag,
                layer,
                root,
                buf,
            } => match tree::binomial_parent(c.rank(), c.size(), *root) {
                Some(parent) => Next::Recv(c.post_recv(Some(parent), *tag)),
                None => {
                    fan_out(c, *tag, *layer, *root, buf);
                    Next::Done(mem::take(buf))
                }
            },
            Bcast::Flat { tag, root, buf } => {
                if c.rank() != *root {
                    return Next::Recv(c.post_recv(Some(*root), *tag));
                }
                let wire = Bytes::from(&*buf);
                for dst in (0..c.size()).filter(|dst| dst != root) {
                    c.send_kind(dst, *tag, MsgKind::Data, &wire);
                }
                Next::Done(mem::take(buf))
            }
            Bcast::Chain(s) => s.start(c),
            Bcast::Scatter(s) => s.start(c),
            Bcast::PvmAck(s) => s.start(c),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        match self {
            Bcast::Scouted(s) => s.resume(c, m),
            Bcast::Binomial {
                tag,
                layer,
                root,
                buf,
            } => {
                let src = m.src_rank as usize;
                // The payload replaces (and frees) the receiver's own
                // buffer before the fan-out copies it.
                *buf = m.into_vec();
                c.compute(*layer);
                // MPICH-1.x ran its p2p channel over TCP: model the
                // kernel's acknowledgement traffic.
                c.tcp_ack_model(src, tcp_acks_for(buf.len()));
                fan_out(c, *tag, *layer, *root, buf);
                Next::Done(mem::take(buf))
            }
            Bcast::Flat { .. } => Next::Done(m.into_vec()),
            Bcast::Chain(s) => s.resume(c, m),
            Bcast::Scatter(s) => s.resume(c, m),
            Bcast::PvmAck(s) => s.resume(c, m),
        }
    }

    fn recover<C: Comm + ?Sized>(&mut self, c: &mut C, e: RecvError) -> Recover<Vec<u8>> {
        match self {
            Bcast::PvmAck(s) => s.recover(c, e),
            _ => Err(e),
        }
    }
}

/// Sender-initiated reliable multicast (PVM-style, the paper's ref \[2\]):
/// multicast immediately, collect acks, retransmit the same sequence
/// number until every receiver has acknowledged. Each ack receive expires
/// after `ack_timeout`, and the expiry is the retransmit timer.
///
/// On the root, [`RecvError::Unreachable`] if some receiver has not
/// acknowledged after `max_retransmits` retransmissions: `src` is the
/// lowest such rank, `rounds` the first send plus every retransmission.
pub(crate) struct PvmAck {
    data_tag: Tag,
    ack_tag: Tag,
    root: usize,
    ack_timeout: Duration,
    max_retransmits: u32,
    /// The root's payload.
    buf: Vec<u8>,
    /// The root's payload in wire form, written once; every
    /// retransmission re-slices it under the first send's `seq`.
    wire: Bytes,
    seq: u64,
    /// The ranks whose ack the root holds (its own included).
    acked: Vec<bool>,
    /// Retransmissions so far.
    rounds: u32,
}

impl PvmAck {
    fn new(cfg: &BcastConfig, tags: OpTags, root: usize, buf: Vec<u8>) -> Self {
        PvmAck {
            data_tag: tags.tag(Phase::Data),
            ack_tag: tags.tag(Phase::Ack),
            root,
            ack_timeout: cfg.ack_timeout,
            max_retransmits: cfg.max_retransmits,
            buf,
            wire: Bytes::new(),
            seq: 0,
            acked: Vec::new(),
            rounds: 0,
        }
    }

    /// The root's next ack receive, armed to expire, or — every receiver
    /// has acknowledged — the end.
    fn await_ack<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        if self.acked.iter().all(|&a| a) {
            return Next::Done(mem::take(&mut self.buf));
        }
        let ack = c.post_recv(None, self.ack_tag);
        c.expire_recv(ack, self.ack_timeout);
        Next::Recv(ack)
    }
}

impl Phases for PvmAck {
    type Output = Vec<u8>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        let n = c.size();
        if n == 1 {
            return Next::Done(mem::take(&mut self.buf));
        }
        if c.rank() != self.root {
            return Next::Recv(c.post_recv(Some(self.root), self.data_tag));
        }
        self.wire = Bytes::from(&self.buf);
        self.seq = c.mcast_kind(self.data_tag, MsgKind::Data, &self.wire);
        self.acked = vec![false; n];
        self.acked[self.root] = true;
        self.await_ack(c)
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        if c.rank() != self.root {
            let buf = m.into_vec();
            c.send_kind(self.root, self.ack_tag, MsgKind::Ack, &Bytes::new());
            return Next::Done(buf);
        }
        self.acked[m.src_rank as usize] = true;
        self.await_ack(c)
    }

    fn recover<C: Comm + ?Sized>(&mut self, c: &mut C, e: RecvError) -> Recover<Vec<u8>> {
        // Only the root's ack receives expire.
        let silent = match (e, self.acked.iter().position(|&a| !a)) {
            (RecvError::TimedOut, Some(silent)) => silent,
            _ => return Err(e),
        };
        if self.rounds == self.max_retransmits {
            return Err(RecvError::Unreachable {
                src: silent as u32,
                rounds: self.rounds + 1,
            });
        }
        self.rounds += 1;
        c.mcast_resend(self.data_tag, MsgKind::Data, &self.wire, self.seq);
        Ok(self.await_ack(c))
    }
}
