//! # mmpi-wire — on-the-wire formats for `mcast-mpi`
//!
//! Every UDP datagram the collectives exchange — broadcast data, the
//! paper's scout synchronization messages, acknowledgements, barrier
//! releases, repair NACKs — starts with the fixed [`header::Header`].
//! Messages larger than a datagram are chunked by
//! [`assemble::split_message`] and rebuilt by [`assemble::Assembler`].
//! Loss recovery lives in [`retransmit`]: a bounded sender-side
//! [`retransmit::RetransmitBuffer`] answers receiver-driven
//! [`MsgKind::Nack`] solicitations by re-sending under the original
//! sequence number (the protocol walkthrough is in `docs/PROTOCOL.md`).
//!
//! The same bytes travel over the simulated network (`mmpi-netsim`) and
//! over real UDP multicast sockets (`mmpi-transport`), which is what lets
//! one implementation of the collective algorithms run on both.
//!
//! The whole datagram lifecycle is **zero-copy**: a [`Datagram`] is a
//! pair of shared [`Bytes`] views (header + payload), [`split_message`]
//! never copies payload bytes, the [`RetransmitBuffer`] records the
//! encoded views, and the [`Assembler`] hands single-chunk messages out
//! as slices of the receive buffer. `docs/PERFORMANCE.md` documents who
//! allocates, who slices, and when memory is released.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Protocol paths surface errors; a decoder is total on hostile bytes
// (docs/INVARIANTS.md §4).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo
)]

pub mod assemble;
pub mod error;
pub mod gossip;
pub mod header;
pub mod member;
pub mod nack;
mod read;
pub mod retransmit;

pub use assemble::{split_message, Assembler, Datagram, Message};
pub use bytes::{Bytes, BytesMut};
pub use error::WireError;
pub use gossip::{
    compact_ranges, GossipDigest, GossipDigestView, SeenTable, SourceDigest, SourceDigestView,
    MAX_DIGEST_RANGES, MAX_DIGEST_SOURCES,
};
pub use header::{Header, MsgKind, HEADER_LEN, MAGIC, VERSION};
pub use member::{FailureAnnouncePayload, HeartbeatPayload, HEARTBEAT_LEN, MAX_ANNOUNCE_RANKS};
pub use nack::{
    AckHorizonPayload, AckHorizonView, HorizonEcho, NackPayload, NackView, RangesView, SeqRange,
    SourceHorizon, SourceHorizonView, UnavailPayload, MAX_HORIZON_ACKS, MAX_HORIZON_ECHOES,
    MAX_HORIZON_HOLES, MAX_NACK_RANGES, NACK_TARGET_ANY,
};
pub use retransmit::{RepairStats, RetransmitBuffer, SendDst, SentRecord, DEFAULT_RETRANSMIT_CAP};

/// Default maximum chunk payload per datagram: comfortably under the
/// 65,507-byte UDP limit while leaving room for the header.
pub const DEFAULT_MAX_CHUNK: usize = 60_000;
