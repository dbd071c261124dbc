//! The fixed datagram header every `mcast-mpi` UDP payload starts with.
//!
//! Layout (little-endian, 40 bytes):
//!
//! ```text
//! offset  size  field
//!      0     2  magic       0x4D43 ("MC")
//!      2     1  version     1
//!      3     1  kind        MsgKind discriminant
//!      4     4  context     communicator context id
//!      8     4  src_rank    sender's rank within the communicator
//!     12     4  tag         user/collective tag
//!     16     8  seq         per-sender message sequence number
//!     24     4  msg_len     total message payload length
//!     28     4  chunk_index this chunk's index
//!     32     4  chunk_count total chunks in the message
//!     36     4  chunk_len   payload bytes in this datagram
//! ```

use bytes::{Buf, BufMut};

use crate::error::WireError;

/// Magic bytes identifying an `mcast-mpi` datagram.
pub const MAGIC: u16 = 0x4D43;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Encoded header size in bytes.
pub const HEADER_LEN: usize = 40;

/// Role of a message in the collective protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Application payload (broadcast data, point-to-point data).
    Data = 0,
    /// A scout: the tiny readiness-synchronization message of the paper.
    Scout = 1,
    /// Positive acknowledgement (PVM-style reliable multicast).
    Ack = 2,
    /// Barrier release (empty multicast that frees all waiters).
    Release = 3,
    /// Negative acknowledgement: a receiver blocked on `tag` solicits a
    /// retransmission from the sender's
    /// [`retransmit buffer`](crate::retransmit::RetransmitBuffer).
    /// Consumed by the transport's repair loop, never delivered to the
    /// application. With SRM-style repair the payload carries a
    /// [`crate::nack::NackPayload`] (target rank + missing seq ranges);
    /// an empty payload is the legacy unicast form ("addressed to you").
    Nack = 4,
    /// Repair-unavailable: the answer to a NACK for traffic that has been
    /// evicted from the sender's retransmit ring. Carries a
    /// [`crate::nack::UnavailPayload`] advertising the eviction floor so
    /// the requester fails fast with a typed error instead of
    /// re-soliciting forever. Consumed by the repair loop, never
    /// delivered to the application.
    Unavail = 5,
    /// ACK-horizon session message: a receiver's periodic advertisement
    /// of its per-source delivery frontier plus timestamp echoes. Carries
    /// a [`crate::nack::AckHorizonPayload`]; senders use the frontiers to
    /// garbage-collect acknowledged retransmit-ring history and the
    /// echoes to estimate per-peer RTT, SRM-session-message style.
    /// Consumed by the repair loop, never delivered to the application.
    AckHorizon = 6,
    /// Standalone liveness heartbeat: multicast only while an endpoint's
    /// data/session traffic is quiet, so peers' failure detectors keep
    /// hearing from it. Carries a [`crate::member::HeartbeatPayload`]
    /// (liveness epoch + incarnation). Consumed by the membership layer,
    /// never delivered to the application.
    Heartbeat = 7,
    /// Failure/departure announcement: floods a confirmed-dead peer set
    /// (or the sender's own graceful departure) through the group so
    /// every survivor converges on the same view. Carries a
    /// [`crate::member::FailureAnnouncePayload`]. Consumed by the
    /// membership layer, never delivered to the application.
    FailureAnnounce = 8,
    /// Gossip advertisement (epidemic dissemination, `docs/PROTOCOL.md`
    /// §11): a compact digest of message ids the sender holds and can
    /// answer pulls for. Carries a [`crate::gossip::GossipDigest`]
    /// (interned `(src, seq-range)` form, mirroring the NACK range
    /// codec). Lazy-push: the payload itself stays home until a peer
    /// answers with a `Want`. Consumed by the dissemination plane, never
    /// delivered to the application.
    Advr = 9,
    /// Gossip pull request: the receiver of an `Advr` names the digest
    /// entries it is missing and the advertiser answers with unicast
    /// retransmissions out of its retransmit ring or relay store. Also a
    /// [`crate::gossip::GossipDigest`]. Consumed by the dissemination
    /// plane, never delivered to the application.
    Want = 10,
}

impl MsgKind {
    /// Decode a kind discriminant.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => MsgKind::Data,
            1 => MsgKind::Scout,
            2 => MsgKind::Ack,
            3 => MsgKind::Release,
            4 => MsgKind::Nack,
            5 => MsgKind::Unavail,
            6 => MsgKind::AckHorizon,
            7 => MsgKind::Heartbeat,
            8 => MsgKind::FailureAnnounce,
            9 => MsgKind::Advr,
            10 => MsgKind::Want,
            other => return Err(WireError::BadKind(other)),
        })
    }
}

/// Decoded datagram header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Message role.
    pub kind: MsgKind,
    /// Communicator context id (separates concurrent communicators).
    pub context: u32,
    /// Sender rank.
    pub src_rank: u32,
    /// Tag (collective op + phase, or user tag).
    pub tag: u32,
    /// Per-sender sequence number (duplicate detection, reassembly key).
    pub seq: u64,
    /// Total message payload length across all chunks.
    pub msg_len: u32,
    /// Index of this chunk.
    pub chunk_index: u32,
    /// Number of chunks in the message.
    pub chunk_count: u32,
    /// Payload bytes carried by this datagram.
    pub chunk_len: u32,
}

impl Header {
    /// Serialize into `buf` (exactly [`HEADER_LEN`] bytes).
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_slice(&self.encode_array());
    }

    /// Serialize into a stack array — the hot-path form: straight-line
    /// stores, one append into the caller's buffer.
    pub fn encode_array(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        b[2] = VERSION;
        b[3] = self.kind as u8;
        b[4..8].copy_from_slice(&self.context.to_le_bytes());
        b[8..12].copy_from_slice(&self.src_rank.to_le_bytes());
        b[12..16].copy_from_slice(&self.tag.to_le_bytes());
        b[16..24].copy_from_slice(&self.seq.to_le_bytes());
        b[24..28].copy_from_slice(&self.msg_len.to_le_bytes());
        b[28..32].copy_from_slice(&self.chunk_index.to_le_bytes());
        b[32..36].copy_from_slice(&self.chunk_count.to_le_bytes());
        b[36..40].copy_from_slice(&self.chunk_len.to_le_bytes());
        b
    }

    /// Parse and validate a header given separately from its chunk
    /// payload — the zero-copy path, where a datagram is a header view
    /// plus a payload view and is never flattened. `header` must hold at
    /// least [`HEADER_LEN`] bytes; `payload_len` is validated against the
    /// header's `chunk_len` claim.
    pub fn decode_parts(header: &[u8], payload_len: usize) -> Result<Header, WireError> {
        if header.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                got: header.len() + payload_len,
                need: HEADER_LEN,
            });
        }
        let mut buf = header;
        let magic = buf.get_u16_le();
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = MsgKind::from_u8(buf.get_u8())?;
        let header = Header {
            kind,
            context: buf.get_u32_le(),
            src_rank: buf.get_u32_le(),
            tag: buf.get_u32_le(),
            seq: buf.get_u64_le(),
            msg_len: buf.get_u32_le(),
            chunk_index: buf.get_u32_le(),
            chunk_count: buf.get_u32_le(),
            chunk_len: buf.get_u32_le(),
        };
        if header.chunk_count == 0 || header.chunk_index >= header.chunk_count {
            return Err(WireError::BadChunking {
                index: header.chunk_index,
                count: header.chunk_count,
            });
        }
        if payload_len != header.chunk_len as usize {
            return Err(WireError::LengthMismatch {
                claimed: header.chunk_len,
                actual: payload_len,
            });
        }
        Ok(header)
    }

    /// Parse and validate a header from the front of `datagram`, returning
    /// it and the chunk payload that follows.
    pub fn decode(datagram: &[u8]) -> Result<(Header, &[u8]), WireError> {
        if datagram.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                got: datagram.len(),
                need: HEADER_LEN,
            });
        }
        let header = Self::decode_parts(&datagram[..HEADER_LEN], datagram.len() - HEADER_LEN)?;
        Ok((header, &datagram[HEADER_LEN..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> Header {
        Header {
            kind: MsgKind::Scout,
            context: 7,
            src_rank: 3,
            tag: 0xBEEF,
            seq: 123_456_789,
            msg_len: 10,
            chunk_index: 0,
            chunk_count: 1,
            chunk_len: 10,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        buf.extend_from_slice(&[9u8; 10]);
        let (decoded, payload) = Header::decode(&buf).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(payload, &[9u8; 10]);
    }

    #[test]
    fn rejects_short_datagram() {
        assert!(matches!(
            Header::decode(&[0u8; 5]),
            Err(WireError::Truncated { got: 5, need: 40 })
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf.extend_from_slice(&[9u8; 10]);
        buf[0] = 0;
        assert!(matches!(Header::decode(&buf), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf.extend_from_slice(&[9u8; 10]);
        buf[2] = 99;
        assert!(matches!(
            Header::decode(&buf),
            Err(WireError::BadVersion(99))
        ));
    }

    #[test]
    fn rejects_bad_kind() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf.extend_from_slice(&[9u8; 10]);
        buf[3] = 42;
        assert!(matches!(Header::decode(&buf), Err(WireError::BadKind(42))));
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        buf.extend_from_slice(&[9u8; 4]); // header claims 10
        assert!(matches!(
            Header::decode(&buf),
            Err(WireError::LengthMismatch {
                claimed: 10,
                actual: 4
            })
        ));
    }

    #[test]
    fn rejects_bad_chunking() {
        let mut h = sample();
        h.chunk_index = 5;
        h.chunk_count = 2;
        h.chunk_len = 10;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        buf.extend_from_slice(&[9u8; 10]);
        assert!(matches!(
            Header::decode(&buf),
            Err(WireError::BadChunking { index: 5, count: 2 })
        ));
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            MsgKind::Data,
            MsgKind::Scout,
            MsgKind::Ack,
            MsgKind::Release,
            MsgKind::Nack,
            MsgKind::Unavail,
            MsgKind::AckHorizon,
            MsgKind::Heartbeat,
            MsgKind::FailureAnnounce,
            MsgKind::Advr,
            MsgKind::Want,
        ] {
            assert_eq!(MsgKind::from_u8(kind as u8).unwrap(), kind);
        }
        assert!(MsgKind::from_u8(200).is_err());
    }
}
