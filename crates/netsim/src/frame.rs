//! Datagrams and Ethernet frames as the simulator models them.
//!
//! A [`Datagram`] is one UDP send: source/destination addressing plus the
//! actual payload bytes the protocol code above produced. Large datagrams
//! are IP-fragmented into several [`Frame`]s; each frame carries a shared
//! reference to its datagram (an `Arc`, so fragmentation never copies
//! payload bytes) plus its fragment index. A host reassembles a datagram
//! when all of its fragments have arrived.
//!
//! Payload bytes are carried as a [`SharedPayload`] — a short sequence of
//! reference-counted [`Bytes`] segments (typically a wire-header view
//! plus a payload view) — so a datagram entering the simulator is never
//! flattened or copied, no matter how often its frames are cloned for
//! multicast fan-out, duplication, or reordering redelivery.

use std::sync::Arc;

use bytes::Bytes;

use crate::ids::{DatagramDst, GroupId, HostId, UdpPort};

/// The bytes of one UDP datagram, as zero-copy shared segments.
///
/// The simulator only ever needs lengths (for timing and buffer
/// accounting); protocol code above reconstructs its wire view from the
/// segments without a copy. `clone` is a few reference-count bumps. The
/// header view plus payload view of a wire datagram — everything the
/// transport sends — are held inline ([`SharedPayload::pair`]), so
/// wrapping a datagram for the simulator allocates nothing.
#[derive(Clone, Debug)]
pub struct SharedPayload {
    segments: Segments,
    len: usize,
}

#[derive(Clone, Debug)]
enum Segments {
    Two([Bytes; 2]),
    Many(Vec<Bytes>),
}

impl PartialEq for SharedPayload {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl Eq for SharedPayload {}

impl Default for SharedPayload {
    fn default() -> Self {
        SharedPayload::from_segments(Vec::new())
    }
}

impl SharedPayload {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from shared segments, kept verbatim (including empty ones —
    /// protocol code may rely on the segment arity, e.g. a wire header
    /// view followed by an empty payload view).
    pub fn from_segments(segments: Vec<Bytes>) -> Self {
        let len = segments.iter().map(Bytes::len).sum();
        SharedPayload {
            segments: Segments::Many(segments),
            len,
        }
    }

    /// The two-segment payload of a wire datagram: `header` followed by
    /// `body`, held inline.
    pub fn pair(header: Bytes, body: Bytes) -> Self {
        let len = header.len() + body.len();
        SharedPayload {
            segments: Segments::Two([header, body]),
            len,
        }
    }

    /// Total payload length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are carried.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying shared segments.
    pub fn segments(&self) -> &[Bytes] {
        match &self.segments {
            Segments::Two(s) => s,
            Segments::Many(s) => s,
        }
    }

    /// Flatten into one freshly allocated `Vec` (tests and tracing; the
    /// data path never calls this).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len);
        for s in self.segments() {
            v.extend_from_slice(s);
        }
        v
    }
}

impl std::ops::Index<usize> for SharedPayload {
    type Output = u8;
    #[expect(
        clippy::panic,
        reason = "`Index` has no error path: out of bounds panics, as slice indexing does"
    )]
    fn index(&self, index: usize) -> &u8 {
        let mut i = index;
        for s in self.segments() {
            if i < s.len() {
                return &s[i];
            }
            i -= s.len();
        }
        panic!("index {index} out of bounds of {}-byte payload", self.len);
    }
}

impl From<Vec<u8>> for SharedPayload {
    fn from(v: Vec<u8>) -> Self {
        SharedPayload::from_segments(vec![Bytes::from(v)])
    }
}

impl From<Bytes> for SharedPayload {
    fn from(b: Bytes) -> Self {
        SharedPayload::from_segments(vec![b])
    }
}

/// One UDP datagram in flight.
#[derive(Debug)]
pub struct Datagram {
    /// Globally unique id, assigned at send time (used for reassembly).
    pub id: u64,
    /// Sending host.
    pub src_host: HostId,
    /// Sending UDP port.
    pub src_port: UdpPort,
    /// Destination host or multicast group.
    pub dst: DatagramDst,
    /// Destination UDP port.
    pub dst_port: UdpPort,
    /// The payload handed to the simulated socket layer (shared, never
    /// copied inside the simulator).
    pub payload: SharedPayload,
    /// True for kernel-generated traffic (e.g. modelled TCP acks): charged
    /// a smaller host overhead and excluded from data-frame statistics.
    pub kernel: bool,
}

impl Datagram {
    /// Payload length in bytes.
    #[inline]
    pub fn len(&self) -> u32 {
        self.payload.len() as u32
    }

    /// True when the payload is empty (e.g. a pure-synchronization scout).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// What a frame carries.
#[derive(Clone, Debug)]
pub enum FramePayload {
    /// Fragment `index` of `count` of a UDP datagram.
    Fragment {
        /// The datagram this fragment belongs to (shared, zero-copy).
        datagram: Arc<Datagram>,
        /// Fragment index in `0..count`.
        index: u32,
        /// Total fragments of the datagram.
        count: u32,
    },
    /// An IGMP membership report (join) — lets the switch snoop groups.
    /// (A runtime leave is not modelled: groups are left at setup time,
    /// [`crate::world::World::leave_group_quiet`].)
    IgmpJoin {
        /// Group being joined.
        group: GroupId,
    },
}

/// Layer-2 destination of a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameDst {
    /// A single station's MAC address.
    Unicast(HostId),
    /// A multicast MAC address derived from the group.
    Multicast(GroupId),
    /// The broadcast address (used for IGMP messages).
    Broadcast,
}

/// One Ethernet frame on the simulated wire.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Unique id (for tracing).
    pub id: u64,
    /// Transmitting station.
    pub src: HostId,
    /// Layer-2 destination.
    pub dst: FrameDst,
    /// MAC payload length in bytes (IP header + fragment data, before any
    /// padding to the Ethernet minimum).
    pub mac_payload: u32,
    /// Contents.
    pub payload: FramePayload,
}

impl Frame {
    /// True if `host` (with the given multicast memberships) should accept
    /// this frame, i.e. the NIC's address filter passes it.
    pub fn accepted_by(&self, host: HostId, is_member: impl Fn(GroupId) -> bool) -> bool {
        match self.dst {
            FrameDst::Unicast(h) => h == host,
            FrameDst::Multicast(g) => is_member(g),
            FrameDst::Broadcast => true,
        }
    }
}

/// Split a datagram into its frames under the given MTU, using the IP
/// fragmentation rules from [`crate::params::IpParams`]. The frames take
/// the ids `first_frame_id..`, in fragment order; the iterator's `len()`
/// says how many that is. Lazy, so the one-fragment common case builds
/// its frame straight into the NIC queue.
pub fn fragment_datagram(
    datagram: Arc<Datagram>,
    ip: &crate::params::IpParams,
    mtu: u32,
    first_frame_id: u64,
) -> impl ExactSizeIterator<Item = Frame> {
    let len = datagram.len();
    let count = ip.fragments_for(len, mtu);
    let dst = match datagram.dst {
        DatagramDst::Unicast(h) => FrameDst::Unicast(h),
        DatagramDst::Multicast(g) => FrameDst::Multicast(g),
    };
    let ip = ip.clone();
    (0..count).map(move |index| Frame {
        id: first_frame_id + u64::from(index),
        src: datagram.src_host,
        dst,
        mac_payload: ip.fragment_mac_payload(len, mtu, index),
        payload: FramePayload::Fragment {
            datagram: Arc::clone(&datagram),
            index,
            count,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IpParams;

    fn dg(len: usize, dst: DatagramDst) -> Arc<Datagram> {
        Arc::new(Datagram {
            id: 1,
            src_host: HostId(0),
            src_port: UdpPort(1000),
            dst,
            dst_port: UdpPort(2000),
            payload: vec![0xAB; len].into(),
            kernel: false,
        })
    }

    #[test]
    fn small_datagram_is_one_frame() {
        let frames: Vec<Frame> = fragment_datagram(
            dg(100, DatagramDst::Unicast(HostId(1))),
            &IpParams::default(),
            1500,
            7,
        )
        .collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 7);
        assert_eq!(frames[0].mac_payload, 20 + 8 + 100);
        assert!(matches!(frames[0].dst, FrameDst::Unicast(HostId(1))));
    }

    #[test]
    fn large_datagram_fragments_and_shares_payload() {
        let d = dg(5000, DatagramDst::Multicast(GroupId(3)));
        let frames = fragment_datagram(d.clone(), &IpParams::default(), 1500, 1);
        assert_eq!(frames.len(), 4); // paper: 5000/1500 + 1
        let frames: Vec<Frame> = frames.collect();
        assert_eq!(frames[3].id, 4);
        for (i, f) in frames.iter().enumerate() {
            assert!(matches!(f.dst, FrameDst::Multicast(GroupId(3))));
            match &f.payload {
                FramePayload::Fragment {
                    datagram,
                    index,
                    count,
                } => {
                    assert!(Arc::ptr_eq(datagram, &d));
                    assert_eq!(*index, i as u32);
                    assert_eq!(*count, 4);
                }
                other => panic!("unexpected payload {other:?}"),
            }
        }
    }

    #[test]
    fn nic_filter_semantics() {
        let f = Frame {
            id: 0,
            src: HostId(0),
            dst: FrameDst::Multicast(GroupId(7)),
            mac_payload: 46,
            payload: FramePayload::IgmpJoin { group: GroupId(7) },
        };
        assert!(f.accepted_by(HostId(5), |g| g == GroupId(7)));
        assert!(!f.accepted_by(HostId(5), |_| false));

        let u = Frame {
            dst: FrameDst::Unicast(HostId(2)),
            ..f.clone()
        };
        assert!(u.accepted_by(HostId(2), |_| false));
        assert!(!u.accepted_by(HostId(3), |_| true));

        let b = Frame {
            dst: FrameDst::Broadcast,
            ..f
        };
        assert!(b.accepted_by(HostId(9), |_| false));
    }
}
