//! Payload codecs for the membership/liveness layer
//! (`docs/PROTOCOL.md` §10).
//!
//! Two tiny fixed little-endian layouts in the style of [`crate::nack`]:
//!
//! * [`HeartbeatPayload`] — the liveness beacon. Normally it rides as a
//!   trailer on the periodic [`crate::MsgKind::AckHorizon`] session
//!   message (no extra datagrams while the session plane is chatty);
//!   a standalone [`crate::MsgKind::Heartbeat`] datagram is multicast
//!   only when an endpoint's data/session traffic has gone quiet.
//! * [`FailureAnnouncePayload`] — floods a confirmed-dead rank set (or
//!   the sender's own graceful departure) through the group, so every
//!   survivor converges on one failure view without waiting out its own
//!   suspicion timers.

use bytes::{Bytes, BytesMut};

use crate::error::WireError;
use crate::read::Reader;

/// Cap on ranks carried by one failure announcement. Announcements list
/// *newly confirmed* failures (re-floods carry the delta, not history),
/// so the cap bounds the datagram without losing information — a larger
/// set is split across announcements by the sender.
pub const MAX_ANNOUNCE_RANKS: usize = 64;

/// Liveness beacon body: which membership epoch the sender lives in and
/// which incarnation of its rank is speaking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeartbeatPayload {
    /// Membership epoch the sender has committed (bumped by each
    /// communicator shrink).
    pub epoch: u32,
    /// Incarnation of the sender's rank: restarts of the same rank bump
    /// it, so state from a previous life is distinguishable.
    pub incarnation: u32,
}

/// Wire size of an encoded heartbeat.
pub const HEARTBEAT_LEN: usize = 8;

impl HeartbeatPayload {
    /// Encode into a fresh payload buffer.
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.encode_array())
    }

    /// Serialize into a stack array (the trailer-append form).
    pub fn encode_array(&self) -> [u8; HEARTBEAT_LEN] {
        let mut b = [0u8; HEARTBEAT_LEN];
        b[0..4].copy_from_slice(&self.epoch.to_le_bytes());
        b[4..8].copy_from_slice(&self.incarnation.to_le_bytes());
        b
    }

    /// Decode a heartbeat payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        Ok(HeartbeatPayload {
            epoch: r.u32()?,
            incarnation: r.u32()?,
        })
    }
}

/// Body of a [`crate::MsgKind::FailureAnnounce`] datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureAnnouncePayload {
    /// Membership epoch the announcement speaks about.
    pub epoch: u32,
    /// `true`: the *sender* is departing gracefully (its retransmit ring
    /// has been flushed; survivors stop counting it toward drain grace
    /// and ack quorums, with no failure recorded). `false`: `ranks` are
    /// confirmed crashed.
    pub graceful: bool,
    /// The ranks announced (the sender itself for a graceful departure).
    pub ranks: Vec<u32>,
}

/// Wire size of the fixed announce prefix (epoch + flags + rank count).
const ANNOUNCE_FIXED: usize = 7;

impl FailureAnnouncePayload {
    /// Encode into a fresh payload buffer. Panics if `ranks` exceeds
    /// [`MAX_ANNOUNCE_RANKS`] — callers split larger sets.
    pub fn encode(&self) -> Bytes {
        assert!(
            self.ranks.len() <= MAX_ANNOUNCE_RANKS,
            "failure announcement over the rank cap: split it"
        );
        let mut buf = BytesMut::with_capacity(ANNOUNCE_FIXED + self.ranks.len() * 4);
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&[self.graceful as u8]);
        buf.extend_from_slice(&(self.ranks.len() as u16).to_le_bytes());
        for r in &self.ranks {
            buf.extend_from_slice(&r.to_le_bytes());
        }
        buf.freeze()
    }

    /// Decode a failure announcement.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let epoch = r.u32()?;
        let graceful = r.u8()? != 0;
        let count = r.u16()? as usize;
        r.counted(count, MAX_ANNOUNCE_RANKS, 4)?;
        let mut ranks = Vec::with_capacity(count);
        for _ in 0..count {
            ranks.push(r.u32()?);
        }
        Ok(FailureAnnouncePayload {
            epoch,
            graceful,
            ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_roundtrip() {
        let h = HeartbeatPayload {
            epoch: 3,
            incarnation: 9,
        };
        assert_eq!(HeartbeatPayload::decode(&h.encode()).unwrap(), h);
        assert!(HeartbeatPayload::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn announce_roundtrip() {
        let a = FailureAnnouncePayload {
            epoch: 1,
            graceful: false,
            ranks: vec![4, 11],
        };
        assert_eq!(FailureAnnouncePayload::decode(&a.encode()).unwrap(), a);
        let leave = FailureAnnouncePayload {
            epoch: 2,
            graceful: true,
            ranks: vec![7],
        };
        assert_eq!(
            FailureAnnouncePayload::decode(&leave.encode()).unwrap(),
            leave
        );
    }

    #[test]
    fn announce_rejects_garbage() {
        assert!(FailureAnnouncePayload::decode(&[0u8; 3]).is_err());
        // Claimed count larger than the bytes present.
        let mut enc = FailureAnnouncePayload {
            epoch: 0,
            graceful: false,
            ranks: vec![],
        }
        .encode()
        .into_vec();
        enc[5] = 9;
        assert!(FailureAnnouncePayload::decode(&enc).is_err());
        // Counts beyond the protocol cap are malformed.
        enc[5] = 0;
        enc[6] = 1; // 256 ranks claimed
        assert!(FailureAnnouncePayload::decode(&enc).is_err());
    }
}
