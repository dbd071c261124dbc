//! Two bare `EndpointCore`s back to back over in-memory queues and a
//! scripted clock: the transport layer with nothing underneath it.
//!
//! The shape of `PipeIo` in `crates/transport/tests/repair_unavailable.rs`,
//! kept here because a test module cannot be imported. Datagrams cross as
//! the header-view/payload-view pairs the simulator backend also passes,
//! so the pump itself copies nothing.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use mmpi_transport::{EndpointCore, RecvReq, RepairConfig, RepairPump};
use mmpi_wire::{Bytes, Datagram, Message, MsgKind, SendDst};

type Queue = Rc<RefCell<VecDeque<(Datagram, bool)>>>;

/// One end of the pipe. Time only moves when the script moves it, or
/// when an endpoint parks until a deadline with nothing queued.
pub struct Pipe {
    clock: Rc<Cell<u64>>,
    inbound: Queue,
    outbound: Queue,
}

impl Pipe {
    fn deliver(&mut self, core: &mut EndpointCore) -> bool {
        let next = self.inbound.borrow_mut().pop_front();
        match next {
            Some((d, via_mcast)) => {
                let _ = core.inbox.ingest_wire(&d, via_mcast);
                true
            }
            None => false,
        }
    }

    fn push(&mut self, datagrams: &[Datagram], via_mcast: bool) {
        let mut out = self.outbound.borrow_mut();
        out.extend(datagrams.iter().map(|d| (d.clone(), via_mcast)));
    }
}

impl RepairPump for Pipe {
    fn now(&mut self) -> u64 {
        self.clock.get()
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<u64>) {
        if self.deliver(core) {
            return;
        }
        match until {
            // Nothing queued: the wait elapses in full.
            Some(at) => self.clock.set(self.clock.get().max(at)),
            None => panic!("blocking receive with nothing queued would hang"),
        }
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        self.deliver(core)
    }

    fn pump_drain(&mut self, _core: &mut EndpointCore, _quiet: Duration) -> bool {
        false
    }

    fn send_encoded(&mut self, _dst: usize, datagrams: &[Datagram]) {
        self.push(datagrams, false);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        self.push(datagrams, true);
    }
}

/// Rank 0 (`a`, the sender) and rank 1 (`b`, the receiver) of a two-rank
/// world sharing one scripted clock.
pub struct Pair {
    pub a: EndpointCore,
    pub a_io: Pipe,
    pub b: EndpointCore,
    pub b_io: Pipe,
    clock: Rc<Cell<u64>>,
    next_tag: u32,
}

impl Pair {
    pub fn new(repair: Option<RepairConfig>) -> Pair {
        let clock = Rc::new(Cell::new(0));
        let a_to_b: Queue = Rc::default();
        let b_to_a: Queue = Rc::default();
        Pair {
            a: EndpointCore::new(0, 0, 2, mmpi_wire::DEFAULT_MAX_CHUNK, repair),
            a_io: Pipe {
                clock: Rc::clone(&clock),
                inbound: Rc::clone(&b_to_a),
                outbound: Rc::clone(&a_to_b),
            },
            b: EndpointCore::new(0, 1, 2, mmpi_wire::DEFAULT_MAX_CHUNK, repair),
            b_io: Pipe {
                clock: Rc::clone(&clock),
                inbound: a_to_b,
                outbound: b_to_a,
            },
            clock,
            next_tag: 1,
        }
    }

    #[cfg(test)]
    pub fn now(&self) -> u64 {
        self.clock.get()
    }

    pub fn advance_clock(&mut self, ns: u64) {
        self.clock.set(self.clock.get() + ns);
    }

    fn fresh_tag(&mut self) -> u32 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Alternate nonblocking progress passes until `req` completes at
    /// `b`, moving the clock by `tick_ns` per round.
    fn complete(&mut self, req: RecvReq, tick_ns: u64) -> Message {
        for _ in 0..1000 {
            self.b.progress(&mut self.b_io);
            if let Some(done) = self.b.test_claimed(req) {
                return done.expect("the pipe loses nothing it is not told to");
            }
            self.a.progress(&mut self.a_io);
            self.advance_clock(tick_ns);
        }
        panic!("receive did not complete: the pump script is wrong");
    }

    /// One message from `a` to `b` through whichever planes are armed:
    /// posted, sent (to the group, so a gossip plane advertises instead
    /// of transmitting), delivered and claimed. 10 µs of scripted time
    /// pass, so periodic planes come due at a realistic rate.
    pub fn send_deliver(&mut self, payload: &Bytes) -> Message {
        let tag = self.fresh_tag();
        let req = self.b.post_recv(&mut self.b_io, Some(0), tag);
        // Take in whatever session traffic `b` sent since the last message.
        self.a.progress(&mut self.a_io);
        self.a
            .mcast_message(&mut self.a_io, tag, MsgKind::Data, payload);
        self.advance_clock(10_000);
        self.complete(req, 0)
    }

    /// One message that is lost on first transmission: `b` waits out its
    /// solicitation deadline, NACKs, `a` services the NACK from its
    /// retransmit ring, `b` takes delivery.
    pub fn lose_then_repair(&mut self, payload: &Bytes) -> Message {
        let tag = self.fresh_tag();
        let seq = self.a.fresh_seq();
        let dgs = self.a.encode(tag, MsgKind::Data, payload, seq);
        self.a
            .record_if_armed(seq, SendDst::Multicast, tag, MsgKind::Data, &dgs);
        let req = self.b.post_recv(&mut self.b_io, Some(0), tag);
        self.complete(req, 500_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_delivers_in_order_and_keeps_scripted_time() {
        let mut p = Pair::new(None);
        let t0 = p.now();
        for k in 0..5u8 {
            let got = p.send_deliver(&Bytes::from(vec![k; 100]));
            assert_eq!(got.payload.as_ref(), &[k; 100][..]);
        }
        assert_eq!(p.now() - t0, 5 * 10_000, "only the script moves time");

        // Two datagrams queued back to back come out in send order.
        let (x, y) = (p.fresh_tag(), p.fresh_tag());
        let first = Bytes::from(vec![1u8; 8]);
        let second = Bytes::from(vec![2u8; 8]);
        p.a.send_message(&mut p.a_io, 1, x, MsgKind::Data, &first);
        p.a.send_message(&mut p.a_io, 1, y, MsgKind::Data, &second);
        let any_a = p.b.post_recv(&mut p.b_io, Some(0), x);
        let any_b = p.b.post_recv(&mut p.b_io, Some(0), y);
        assert!(p.b_io.pump_ready(&mut p.b), "first datagram");
        p.b.progress(&mut p.b_io);
        assert_eq!(
            p.b.test_claimed(any_a).unwrap().unwrap().payload.as_ref(),
            &[1u8; 8][..]
        );
        assert_eq!(
            p.b.test_claimed(any_b).unwrap().unwrap().payload.as_ref(),
            &[2u8; 8][..]
        );
    }

    #[test]
    fn parking_with_nothing_queued_advances_the_clock_to_the_deadline() {
        let mut p = Pair::new(None);
        let mut core = EndpointCore::new(0, 1, 2, 60_000, None);
        p.b_io.pump_one(&mut core, Some(7_000));
        assert_eq!(p.now(), 7_000);
        p.b_io.pump_one(&mut core, Some(3_000));
        assert_eq!(p.now(), 7_000, "time never runs backwards");
    }

    #[test]
    fn a_lost_message_is_repaired_after_the_solicit_deadline() {
        let mut p = Pair::new(Some(RepairConfig::sim_default()));
        let t0 = p.now();
        let got = p.lose_then_repair(&Bytes::from(vec![9u8; 64]));
        assert_eq!(got.payload.as_ref(), &[9u8; 64][..]);
        assert!(p.now() - t0 >= 2_000_000, "the NACK timeout had to elapse");
        assert_eq!(p.b.repair_stats().nacks_sent, 1);
        assert_eq!(p.a.repair_stats().retransmits_sent, 1);
    }

    #[test]
    fn every_plane_delivers() {
        let interval = Duration::from_millis(5);
        let planes = [
            None,
            Some(RepairConfig::sim_default()),
            Some(RepairConfig::sim_default().with_adaptive()),
            Some(RepairConfig::sim_default().with_membership(interval)),
            Some(RepairConfig::sim_default().with_gossip()),
        ];
        for repair in planes {
            let mut p = Pair::new(repair);
            for k in 0..2000u32 {
                let got = p.send_deliver(&Bytes::from(vec![k as u8; 1024]));
                assert_eq!(got.payload.len(), 1024);
            }
            if repair.is_some_and(|r| r.is_gossip()) {
                assert!(p.a.repair_stats().advrs_sent >= 2000);
                assert!(p.a.repair_stats().pulls_answered >= 2000);
            }
        }
    }
}
