//! Per-host protocol stack: UDP sockets, fragment reassembly, delivery.
//!
//! This is the piece that exhibits the paper's central problem — IP
//! multicast is only delivered to receivers that are *ready*. Readiness has
//! two models, selected by [`crate::params::HostParams`]:
//!
//! * buffered (default): arriving datagrams queue in a bounded socket
//!   receive buffer, dropped only on overflow (fast-sender overrun);
//! * `strict_posted_recv`: a datagram is discarded unless a receive is
//!   already posted — the paper's loss model, which the scout
//!   synchronization exists to protect against.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::frame::Datagram;
use crate::ids::{DatagramDst, GroupId, HostId, SocketId, UdpPort};
use crate::nic::Nic;
use crate::time::SimTime;

/// One simulated UDP socket.
#[derive(Debug)]
pub struct Socket {
    /// Bound local port.
    pub port: UdpPort,
    /// Multicast groups this socket has joined (no duplicates): a
    /// handful at most, scanned once per multicast datagram.
    pub groups: Vec<GroupId>,
    /// Buffered datagrams: (arrival time, datagram).
    rx: VecDeque<(SimTime, Arc<Datagram>)>,
    /// Bytes currently buffered.
    rx_bytes: usize,
    /// A receive is posted and blocked (set by the co-simulation's round closer).
    pub recv_posted: bool,
}

impl Socket {
    fn new(port: UdpPort) -> Self {
        Socket {
            port,
            groups: Vec::new(),
            rx: VecDeque::new(),
            rx_bytes: 0,
            recv_posted: false,
        }
    }

    /// Pop the oldest buffered datagram.
    pub fn pop(&mut self) -> Option<(SimTime, Arc<Datagram>)> {
        let item = self.rx.pop_front()?;
        self.rx_bytes -= item.1.payload.len();
        Some(item)
    }

    /// Datagrams currently buffered.
    pub fn buffered(&self) -> usize {
        self.rx.len()
    }
}

/// Why a datagram could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFailure {
    /// No socket on this host matches (port unbound or group not joined).
    NoMatchingSocket,
    /// The matching socket's receive buffer was full.
    BufferOverflow,
    /// Strict mode: no receive was posted at arrival time.
    NoPostedReceive,
}

/// Outcome of handing a datagram to the host stack.
#[derive(Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Stored in the socket buffer; a blocked receive (if any) can complete.
    Delivered {
        /// The socket that received it.
        socket: SocketId,
        /// True if a posted (blocked) receive was waiting.
        had_posted_recv: bool,
    },
    /// Dropped.
    Dropped(DeliveryFailure),
}

/// Reassembly state for one in-flight fragmented datagram.
#[derive(Debug)]
struct Reassembly {
    seen: Vec<bool>,
    remaining: u32,
}

/// A host: one NIC plus the UDP socket layer.
#[derive(Debug)]
pub struct HostStack {
    /// This host's identity.
    pub id: HostId,
    /// The network interface.
    pub nic: Nic,
    sockets: Vec<Socket>,
    reassembly: HashMap<u64, Reassembly>,
    rx_buffer_limit: usize,
    strict_posted_recv: bool,
    /// Payload-crossing tracker ([`NetParams::track_payload_crossings`]):
    /// `(src_rank, seq, chunk_index)` of every `mcast-mpi` Data chunk that
    /// has crossed this host's link, or `None` when tracking is off.
    ///
    /// [`NetParams::track_payload_crossings`]: crate::params::NetParams::track_payload_crossings
    crossing_seen: Option<HashSet<(u32, u64, u32)>>,
}

impl HostStack {
    /// New host with no sockets.
    pub fn new(id: HostId, rx_buffer_limit: usize, strict_posted_recv: bool) -> Self {
        HostStack {
            id,
            nic: Nic::new(),
            sockets: Vec::new(),
            reassembly: HashMap::new(),
            rx_buffer_limit,
            strict_posted_recv,
            crossing_seen: None,
        }
    }

    /// Enable (or disable) per-link payload-crossing tracking. Pure
    /// bookkeeping: no RNG draws, no timing effect — enabling it never
    /// perturbs a run's schedule.
    pub fn set_track_crossings(&mut self, on: bool) {
        self.crossing_seen = if on { Some(HashSet::new()) } else { None };
    }

    /// Record a completed datagram crossing this host's link. Returns
    /// `Some(duplicate)` when tracking is on and the datagram is an
    /// `mcast-mpi` Data chunk — `duplicate` is true when the same
    /// `(src_rank, seq, chunk_index)` already crossed this link. Returns
    /// `None` for control traffic, foreign payloads, or when tracking is
    /// off.
    ///
    /// The simulator is deliberately payload-agnostic everywhere else;
    /// this peeks at the fixed 40-byte `mmpi-wire` header (magic 0x4D43,
    /// little-endian fields) without depending on the wire crate.
    pub fn note_crossing(&mut self, dg: &Datagram) -> Option<bool> {
        let seen = self.crossing_seen.as_mut()?;
        // Gather the first 32 header bytes across payload segments.
        let mut hdr = [0u8; 32];
        let mut filled = 0;
        for s in dg.payload.segments() {
            let take = (32 - filled).min(s.len());
            hdr[filled..filled + take].copy_from_slice(&s[..take]);
            filled += take;
            if filled == 32 {
                break;
            }
        }
        let magic = u16::from_le_bytes([hdr[0], hdr[1]]);
        if filled < 32 || magic != 0x4D43 || hdr[3] != 0 {
            return None; // not an mcast-mpi Data chunk
        }
        let src_rank = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
        let seq = u64::from_le_bytes([
            hdr[16], hdr[17], hdr[18], hdr[19], hdr[20], hdr[21], hdr[22], hdr[23],
        ]);
        let chunk_index = u32::from_le_bytes([hdr[28], hdr[29], hdr[30], hdr[31]]);
        Some(!seen.insert((src_rank, seq, chunk_index)))
    }

    /// Bind a new socket on `port`. Ports need not be unique across hosts,
    /// only within one (mirroring real UDP).
    pub fn bind(&mut self, port: UdpPort) -> SocketId {
        let id = SocketId(self.sockets.len() as u32);
        self.sockets.push(Socket::new(port));
        id
    }

    /// Access a socket.
    pub fn socket(&self, id: SocketId) -> &Socket {
        &self.sockets[id.index()]
    }

    /// Mutable access to a socket.
    pub fn socket_mut(&mut self, id: SocketId) -> &mut Socket {
        &mut self.sockets[id.index()]
    }

    /// Subscribe `socket` to `group`: updates both the socket-level
    /// membership and the NIC address filter.
    pub fn join_group(&mut self, socket: SocketId, group: GroupId) {
        let groups = &mut self.sockets[socket.index()].groups;
        if !groups.contains(&group) {
            groups.push(group);
        }
        self.nic.join(group);
    }

    /// Unsubscribe `socket` from `group`. The NIC filter entry is removed
    /// only when no other socket still belongs to the group.
    pub fn leave_group(&mut self, socket: SocketId, group: GroupId) {
        self.sockets[socket.index()].groups.retain(|g| *g != group);
        if !self.sockets.iter().any(|s| s.groups.contains(&group)) {
            self.nic.leave(group);
        }
    }

    /// Record receipt of fragment `index` of `count` of `datagram`.
    /// Returns the datagram when it just became complete.
    pub fn receive_fragment(
        &mut self,
        datagram: &Arc<Datagram>,
        index: u32,
        count: u32,
    ) -> Option<Arc<Datagram>> {
        if count == 1 {
            return Some(Arc::clone(datagram));
        }
        let entry = self
            .reassembly
            .entry(datagram.id)
            .or_insert_with(|| Reassembly {
                seen: vec![false; count as usize],
                remaining: count,
            });
        let slot = &mut entry.seen[index as usize];
        if !*slot {
            *slot = true;
            entry.remaining -= 1;
        }
        if entry.remaining == 0 {
            self.reassembly.remove(&datagram.id);
            Some(Arc::clone(datagram))
        } else {
            None
        }
    }

    /// Incomplete reassemblies currently held.
    pub fn pending_reassemblies(&self) -> usize {
        self.reassembly.len()
    }

    /// Find the socket a datagram should go to.
    fn match_socket(&self, dg: &Datagram) -> Option<SocketId> {
        self.sockets
            .iter()
            .position(|s| {
                s.port == dg.dst_port
                    && match dg.dst {
                        DatagramDst::Unicast(_) => true,
                        DatagramDst::Multicast(g) => s.groups.contains(&g),
                    }
            })
            .map(|i| SocketId(i as u32))
    }

    /// Deliver a complete datagram to the socket layer at time `now`.
    pub fn deliver(&mut self, dg: Arc<Datagram>, now: SimTime) -> Delivery {
        let Some(sid) = self.match_socket(&dg) else {
            return Delivery::Dropped(DeliveryFailure::NoMatchingSocket);
        };
        // The strict readiness model is a *multicast* hazard (the paper's
        // §1): unicast UDP is buffered by the kernel regardless, but an IP
        // multicast datagram is lost for any receiver not ready for it.
        let strict = self.strict_posted_recv && matches!(dg.dst, DatagramDst::Multicast(_));
        let limit = self.rx_buffer_limit;
        let sock = self.socket_mut(sid);
        if strict && !sock.recv_posted {
            return Delivery::Dropped(DeliveryFailure::NoPostedReceive);
        }
        if sock.rx_bytes + dg.payload.len() > limit {
            return Delivery::Dropped(DeliveryFailure::BufferOverflow);
        }
        let had_posted_recv = sock.recv_posted;
        sock.rx_bytes += dg.payload.len();
        sock.rx.push_back((now, dg));
        Delivery::Delivered {
            socket: sid,
            had_posted_recv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dg(id: u64, dst: DatagramDst, dst_port: u16, len: usize) -> Arc<Datagram> {
        Arc::new(Datagram {
            id,
            src_host: HostId(7),
            src_port: UdpPort(9),
            dst,
            dst_port: UdpPort(dst_port),
            payload: vec![1; len].into(),
            kernel: false,
        })
    }

    fn host() -> HostStack {
        HostStack::new(HostId(0), 1000, false)
    }

    #[test]
    fn unicast_delivery_to_bound_port() {
        let mut h = host();
        let s = h.bind(UdpPort(500));
        let d = h.deliver(
            dg(1, DatagramDst::Unicast(HostId(0)), 500, 10),
            SimTime::ZERO,
        );
        assert_eq!(
            d,
            Delivery::Delivered {
                socket: s,
                had_posted_recv: false
            }
        );
        assert_eq!(h.socket(s).buffered(), 1);
    }

    #[test]
    fn unbound_port_drops() {
        let mut h = host();
        h.bind(UdpPort(500));
        let d = h.deliver(
            dg(1, DatagramDst::Unicast(HostId(0)), 501, 10),
            SimTime::ZERO,
        );
        assert_eq!(d, Delivery::Dropped(DeliveryFailure::NoMatchingSocket));
    }

    #[test]
    fn multicast_requires_membership() {
        let mut h = host();
        let s = h.bind(UdpPort(500));
        let g = GroupId(1);
        let d = h.deliver(dg(1, DatagramDst::Multicast(g), 500, 10), SimTime::ZERO);
        assert_eq!(d, Delivery::Dropped(DeliveryFailure::NoMatchingSocket));
        h.join_group(s, g);
        let d = h.deliver(dg(2, DatagramDst::Multicast(g), 500, 10), SimTime::ZERO);
        assert!(matches!(d, Delivery::Delivered { .. }));
    }

    #[test]
    fn leave_group_updates_nic_filter_with_refcount() {
        let mut h = host();
        let s1 = h.bind(UdpPort(500));
        let s2 = h.bind(UdpPort(501));
        let g = GroupId(3);
        h.join_group(s1, g);
        h.join_group(s2, g);
        h.leave_group(s1, g);
        assert!(h.nic.is_member(g), "s2 still joined");
        h.leave_group(s2, g);
        assert!(!h.nic.is_member(g));
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut h = HostStack::new(HostId(0), 15, false);
        h.bind(UdpPort(1));
        let ok = h.deliver(dg(1, DatagramDst::Unicast(HostId(0)), 1, 10), SimTime::ZERO);
        assert!(matches!(ok, Delivery::Delivered { .. }));
        let bad = h.deliver(dg(2, DatagramDst::Unicast(HostId(0)), 1, 10), SimTime::ZERO);
        assert_eq!(bad, Delivery::Dropped(DeliveryFailure::BufferOverflow));
    }

    #[test]
    fn strict_mode_requires_posted_recv_for_multicast_only() {
        let mut h = HostStack::new(HostId(0), 1000, true);
        let s = h.bind(UdpPort(1));
        let g = GroupId(4);
        h.join_group(s, g);
        // Multicast without a posted receive: lost (the paper's hazard).
        let bad = h.deliver(dg(1, DatagramDst::Multicast(g), 1, 10), SimTime::ZERO);
        assert_eq!(bad, Delivery::Dropped(DeliveryFailure::NoPostedReceive));
        // Unicast buffers in the kernel even in strict mode.
        let uni = h.deliver(dg(2, DatagramDst::Unicast(HostId(0)), 1, 10), SimTime::ZERO);
        assert!(matches!(uni, Delivery::Delivered { .. }));
        // Multicast with a posted receive: delivered.
        h.socket_mut(s).recv_posted = true;
        let ok = h.deliver(dg(3, DatagramDst::Multicast(g), 1, 10), SimTime::ZERO);
        assert_eq!(
            ok,
            Delivery::Delivered {
                socket: s,
                had_posted_recv: true
            }
        );
    }

    #[test]
    fn pop_restores_buffer_space() {
        let mut h = HostStack::new(HostId(0), 10, false);
        let s = h.bind(UdpPort(1));
        assert!(matches!(
            h.deliver(dg(1, DatagramDst::Unicast(HostId(0)), 1, 10), SimTime::ZERO),
            Delivery::Delivered { .. }
        ));
        h.socket_mut(s).pop().unwrap();
        assert!(matches!(
            h.deliver(dg(2, DatagramDst::Unicast(HostId(0)), 1, 10), SimTime::ZERO),
            Delivery::Delivered { .. }
        ));
    }

    #[test]
    fn reassembly_completes_once_per_datagram() {
        let mut h = host();
        let d = dg(42, DatagramDst::Unicast(HostId(0)), 1, 5000);
        assert!(h.receive_fragment(&d, 0, 3).is_none());
        assert!(h.receive_fragment(&d, 0, 3).is_none(), "duplicate ignored");
        assert!(h.receive_fragment(&d, 2, 3).is_none());
        assert!(h.receive_fragment(&d, 1, 3).is_some());
        assert_eq!(h.pending_reassemblies(), 0);
    }

    #[test]
    fn single_fragment_completes_immediately() {
        let mut h = host();
        let d = dg(1, DatagramDst::Unicast(HostId(0)), 1, 10);
        assert!(h.receive_fragment(&d, 0, 1).is_some());
        assert_eq!(h.pending_reassemblies(), 0);
    }

    #[test]
    fn first_matching_socket_wins() {
        let mut h = host();
        let s1 = h.bind(UdpPort(5));
        let _s2 = h.bind(UdpPort(5));
        let d = h.deliver(dg(1, DatagramDst::Unicast(HostId(0)), 5, 1), SimTime::ZERO);
        assert_eq!(
            d,
            Delivery::Delivered {
                socket: s1,
                had_posted_recv: false
            }
        );
    }
}
