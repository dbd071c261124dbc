//! The discrete-event core: event types and the time-ordered queue.
//!
//! Ordering is `(time, sequence)` where the sequence number is assigned at
//! scheduling time — two events at the same instant fire in the order they
//! were scheduled, which (together with the round closer applying requests in rank
//! order) makes whole simulations bit-reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::frame::{Datagram, Frame};
use crate::ids::{HostId, SocketId, SwitchPort};
use crate::time::SimTime;

/// Everything that can happen inside the simulated network.
#[derive(Debug)]
pub enum Event {
    /// Hub: the medium is (about to be) free — pick the next transmitter
    /// among contending NICs, or detect a collision.
    HubArbitrate,
    /// Hub: the last bit of a frame has propagated to every station.
    HubFrameDelivered {
        /// The frame that finished.
        frame: Frame,
    },
    /// Hub: a NIC's collision backoff expired; it contends again.
    NicRetry {
        /// The backing-off station.
        host: HostId,
    },
    /// Switch mode: a NIC finished serializing (frame + IFG) and may start
    /// its next queued frame.
    NicTxNext {
        /// The transmitting station.
        host: HostId,
    },
    /// Switch mode: the last bit of a host's frame arrived at the switch.
    SwitchIngress {
        /// The received frame.
        frame: Frame,
        /// Ingress port.
        in_port: SwitchPort,
    },
    /// Switch: forwarding latency elapsed; enqueue on output port(s).
    SwitchForward {
        /// The frame to forward.
        frame: Frame,
        /// Ingress port (excluded from flooding).
        in_port: SwitchPort,
    },
    /// Switch: the last bit of a frame arrived at the host on `port`.
    PortDelivered {
        /// The delivered frame.
        frame: Frame,
        /// Egress port it was sent from.
        port: SwitchPort,
    },
    /// Switch: an output port finished (frame + IFG) and may dequeue.
    PortTxNext {
        /// The now-idle port.
        port: SwitchPort,
    },
    /// A host's protocol stack finished the send-side processing of a
    /// datagram; hand its fragments to the NIC.
    DatagramReady {
        /// Sending host.
        host: HostId,
        /// The datagram to fragment and transmit.
        datagram: Arc<Datagram>,
    },
    /// Loopback delivery of a multicast datagram to its own sender
    /// (IP_MULTICAST_LOOP semantics) — bypasses the wire.
    LoopbackDelivery {
        /// Receiving (== sending) host.
        host: HostId,
        /// The datagram.
        datagram: Arc<Datagram>,
    },
    /// Fault injection: a duplicated or reordered frame re-enters the
    /// receiving link and is delivered to the host as-is (no further
    /// fault rolls, so the extra delay/copy is bounded).
    LinkRedeliver {
        /// Receiving host.
        host: HostId,
        /// The held-back or duplicated frame.
        frame: Frame,
    },
    /// A rank's blocking receive becomes *posted* at its local virtual
    /// time (relevant for the strict posted-receive loss model).
    PostRecv {
        /// Receiving host.
        host: HostId,
        /// Receiving socket.
        socket: SocketId,
    },
    /// Advance the topology-script cursor (scheduled at every scripted
    /// op time, so held frames are released even on an idle link).
    TopologyWake,
    /// A user timer (receive timeout, sleep) fired.
    Timer {
        /// Owning host.
        host: HostId,
        /// Socket the timer guards (receive timeout), if any.
        socket: Option<SocketId>,
        /// Cancellation token.
        token: u64,
    },
}

struct Queued {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Time-ordered event queue with deterministic tie-breaking.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Queued>,
    next_seq: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Queued { at, seq, event });
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|q| q.at)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|q| (q.at, q.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> Event {
        Event::Timer {
            host: HostId(0),
            socket: None,
            token,
        }
    }

    fn token_of(e: Event) -> u64 {
        match e {
            Event::Timer { token, .. } => token,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), timer(3));
        q.schedule(SimTime::from_nanos(10), timer(1));
        q.schedule(SimTime::from_nanos(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, timer(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(42), timer(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_nanos(42));
        assert!(q.is_empty());
    }
}
