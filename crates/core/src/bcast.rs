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
//!
//!   These two, and [`BcastAlgorithm::ScatterAllgather`], are request
//!   machines ([`crate::request::IbcastRequest`]); [`bcast`] waits on one.
//! * [`bcast_mcast_linear`] — the paper's *linear algorithm* (Fig. 4):
//!   every receiver sends its scout straight to the root, which ingests
//!   them one at a time (`N-1` sequential steps), then multicasts.
//! * [`bcast_pvm_ack`] — the sender-initiated reliable multicast of
//!   Dunigan & Hall's PVM work (the paper's ref \[2\]): multicast first,
//!   then retransmit until every receiver acknowledges. Implemented as an
//!   ablation baseline; the paper notes this approach did not pay off.
//! * [`bcast_flat_tree`] — naive root-sends-to-everyone baseline.
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
//! crossed copies. [`bcast_pvm_ack`] is the exception: it carries its own
//! sender-initiated ack/retransmit machinery (the ablation baseline) and
//! works with or without transport repair.

use std::time::Duration;

use mmpi_transport::{Comm, RecvError};
use mmpi_wire::{Bytes, MsgKind};

use crate::request::{CollRequest, IbcastRequest};
use crate::tags::{OpTags, Phase};

/// Broadcast algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgorithm {
    /// MPICH binomial tree over point-to-point sends (baseline).
    MpichBinomial,
    /// Scout reduction along a binomial tree, then one multicast.
    McastBinary,
    /// Scouts straight to the root, then one multicast.
    McastLinear,
    /// Multicast + ack/retransmit (PVM-style, sender-initiated).
    PvmAck,
    /// Root unicasts to every receiver directly.
    FlatTree,
    /// Pipelined chain with segmentation (see `bcast_ext::bcast_chain`).
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

/// Dispatch a broadcast with the chosen algorithm.
///
/// On the root, `buf` is the message; on other ranks its contents are
/// replaced with the broadcast payload. After an error its contents are
/// unspecified.
///
/// Like `MPI_Bcast`, [`BcastAlgorithm::Auto`] requires every rank to know
/// the message size: pass a `buf` of the correct length on receivers too
/// (MPI programs know the count everywhere). The explicit algorithms are
/// lenient — a receiver may pass an empty buffer.
pub fn bcast<C: Comm>(
    c: &mut C,
    algo: BcastAlgorithm,
    cfg: &BcastConfig,
    tags: OpTags,
    root: usize,
    buf: &mut Vec<u8>,
) -> Result<(), RecvError> {
    let algo = match algo {
        // No multicast on this fabric: a multicast-shaped plan would
        // deliver nothing and stall until the repair plane rebuilt every
        // message. Epidemic dissemination is the design answer here
        // (docs/PROTOCOL.md §11).
        BcastAlgorithm::Auto if !c.multicast_capable() => BcastAlgorithm::Gossip,
        BcastAlgorithm::Auto if buf.len() >= cfg.auto_crossover_bytes && c.size() > 2 => {
            BcastAlgorithm::McastBinary
        }
        BcastAlgorithm::Auto => BcastAlgorithm::MpichBinomial,
        explicit => explicit,
    };
    match algo {
        BcastAlgorithm::McastLinear => bcast_mcast_linear(c, tags, root, buf),
        BcastAlgorithm::PvmAck => bcast_pvm_ack(c, cfg, tags, root, buf),
        BcastAlgorithm::FlatTree => bcast_flat_tree(c, tags, root, buf),
        BcastAlgorithm::Chain => {
            crate::bcast_ext::bcast_chain(c, cfg.chain_segment_bytes, tags, root, buf)
        }
        BcastAlgorithm::Gossip => bcast_gossip(c, tags, root, buf),
        // MpichBinomial, McastBinary and ScatterAllgather: the machine,
        // waited on.
        machine => {
            let layer = cfg.mpich_layer_overhead;
            let req = IbcastRequest::new(c, machine, layer, tags, root, std::mem::take(buf));
            *buf = req.wait(c)?;
            Ok(())
        }
    }
}

/// Every non-root process sends a scout directly to the root; the root
/// receives them one at a time (`N-1` sequential receive steps).
pub(crate) fn scout_reduce_linear<C: Comm>(
    c: &mut C,
    tags: OpTags,
    root: usize,
) -> Result<(), RecvError> {
    let n = c.size();
    let tag = tags.tag(Phase::Scout);
    if c.rank() == root {
        for _ in 1..n {
            c.recv_any(tag)?;
        }
    } else {
        c.send_kind(root, tag, MsgKind::Scout, &Bytes::new());
    }
    Ok(())
}

/// The paper's linear algorithm: direct scouts to the root, then one
/// multicast carrying the data.
pub fn bcast_mcast_linear<C: Comm>(
    c: &mut C,
    tags: OpTags,
    root: usize,
    buf: &mut Vec<u8>,
) -> Result<(), RecvError> {
    if c.size() == 1 {
        return Ok(());
    }
    scout_reduce_linear(c, tags, root)?;
    let tag = tags.tag(Phase::Data);
    if c.rank() == root {
        c.mcast_kind(tag, MsgKind::Data, &Bytes::from(&*buf));
    } else {
        *buf = c.recv_match(root, tag)?.into_vec();
    }
    Ok(())
}

/// Epidemic broadcast over the gossip dissemination plane.
///
/// No scout phase: the root hands the payload to the group send
/// immediately. Under `Dissemination::Gossip` that records the message
/// and advertises its id to live peers; a receiver that has not yet
/// posted its receive still pulls the payload later via `Want`, so the
/// lazy-push plane itself covers late receivers (the role scouts play
/// for raw multicast). Under `Dissemination::Multicast` (or no repair
/// plane at all, as on the `mem` backend) this is a bare multicast of a
/// recorded, repairable message — still correct because the transport
/// delivery is lossless or repaired.
pub fn bcast_gossip<C: Comm>(
    c: &mut C,
    tags: OpTags,
    root: usize,
    buf: &mut Vec<u8>,
) -> Result<(), RecvError> {
    if c.size() == 1 {
        return Ok(());
    }
    let tag = tags.tag(Phase::Data);
    if c.rank() == root {
        c.mcast_kind(tag, MsgKind::Data, &Bytes::from(&*buf));
    } else {
        *buf = c.recv_match(root, tag)?.into_vec();
    }
    Ok(())
}

/// Sender-initiated reliable multicast (PVM-style, the paper's ref \[2\]):
/// multicast immediately, collect acks, retransmit the same sequence
/// number until every receiver has acknowledged.
///
/// # Panics
///
/// On the root, if some receiver never acknowledges within
/// `cfg.max_retransmits` rounds.
pub fn bcast_pvm_ack<C: Comm>(
    c: &mut C,
    cfg: &BcastConfig,
    tags: OpTags,
    root: usize,
    buf: &mut Vec<u8>,
) -> Result<(), RecvError> {
    let n = c.size();
    if n == 1 {
        return Ok(());
    }
    let data_tag = tags.tag(Phase::Data);
    let ack_tag = tags.tag(Phase::Ack);
    if c.rank() == root {
        // Written into wire form once; every retransmission re-slices it.
        let wire = Bytes::from(&*buf);
        let seq = c.mcast_kind(data_tag, MsgKind::Data, &wire);
        let mut acked = vec![false; n];
        acked[root] = true;
        let mut missing = n - 1;
        let mut rounds = 0;
        while missing > 0 {
            match c.recv_any_timeout(ack_tag, cfg.ack_timeout)? {
                Some(m) => {
                    let src = m.src_rank as usize;
                    if !acked[src] {
                        acked[src] = true;
                        missing -= 1;
                    }
                }
                None => {
                    rounds += 1;
                    assert!(
                        rounds <= cfg.max_retransmits,
                        "pvm-ack broadcast: {missing} receivers never acknowledged"
                    );
                    c.mcast_resend(data_tag, MsgKind::Data, &wire, seq);
                }
            }
        }
    } else {
        *buf = c.recv_match(root, data_tag)?.into_vec();
        c.send_kind(root, ack_tag, MsgKind::Ack, &Bytes::new());
    }
    Ok(())
}

/// Naive flat tree: the root unicasts the full message to every receiver.
pub fn bcast_flat_tree<C: Comm>(
    c: &mut C,
    tags: OpTags,
    root: usize,
    buf: &mut Vec<u8>,
) -> Result<(), RecvError> {
    let n = c.size();
    let tag = tags.tag(Phase::Data);
    if c.rank() == root {
        let wire = Bytes::from(&*buf);
        for dst in 0..n {
            if dst != root {
                c.send_kind(dst, tag, MsgKind::Data, &wire);
            }
        }
    } else {
        *buf = c.recv(root, tag)?;
    }
    Ok(())
}
