//! A scripted in-memory [`RepairPump`] for driving bare [`EndpointCore`]s
//! in tests: a clock that only the script (or a park with nothing queued)
//! moves, an inbound queue, and an outbound queue that is either counted
//! and left alone ([`ScriptedPump::new`]), is the peer's inbound queue
//! ([`ScriptedPump::pair`]), or is kept for the script to route
//! ([`ScriptedPump::routed`], unicasts and multicasts apart). Datagrams cross as the header-view /
//! payload-view pairs the simulator backend also passes, so the pump
//! copies nothing. Not part of the supported API.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use mmpi_wire::{split_message, Bytes, Datagram, MsgKind};

use crate::api::Tag;
use crate::engine::EndpointCore;
use crate::pump::{Nanos, RepairPump};

/// Queued datagrams with how each was sent (`true`: multicast).
type Queue = Rc<RefCell<VecDeque<(Datagram, bool)>>>;

/// One end of a scripted link.
pub struct ScriptedPump {
    clock: Rc<Cell<Nanos>>,
    inbound: Queue,
    /// The peer's inbound queue; `None` on a lone end.
    outbound: Option<Queue>,
    /// Datagrams handed to [`RepairPump::send_encoded`] so far.
    pub unicasts_out: usize,
    /// Datagrams handed to [`RepairPump::send_encoded_mcast`] so far.
    pub mcasts_out: usize,
    /// Unicasts kept with their destination, on a routed end.
    sent: Option<Vec<(usize, Datagram)>>,
    /// Multicasts kept, on a routed end.
    mcast_sent: Option<Vec<Datagram>>,
}

impl ScriptedPump {
    /// A lone end: what it sends is only counted; what it receives is
    /// what the script injects.
    pub fn new() -> Self {
        ScriptedPump {
            clock: Rc::default(),
            inbound: Rc::default(),
            outbound: None,
            unicasts_out: 0,
            mcasts_out: 0,
            sent: None,
            mcast_sent: None,
        }
    }

    /// Two ends back to back on one clock: each one's sends are the
    /// other's arrivals.
    pub fn pair() -> (Self, Self) {
        let mut a = ScriptedPump::new();
        let mut b = ScriptedPump::new();
        b.clock = Rc::clone(&a.clock);
        a.outbound = Some(Rc::clone(&b.inbound));
        b.outbound = Some(Rc::clone(&a.inbound));
        (a, b)
    }

    /// `n` ends on one clock whose unicasts are kept, with their
    /// destination, until the script takes them ([`ScriptedPump::take_sent`])
    /// to deliver, drop or hold — a fabric of any size, routed by hand.
    /// Multicasts are kept apart ([`ScriptedPump::take_mcast`]).
    pub fn routed(n: usize) -> Vec<Self> {
        let clock: Rc<Cell<Nanos>> = Rc::default();
        (0..n)
            .map(|_| ScriptedPump {
                clock: Rc::clone(&clock),
                sent: Some(Vec::new()),
                mcast_sent: Some(Vec::new()),
                ..ScriptedPump::new()
            })
            .collect()
    }

    /// Take the unicasts a routed end sent since the last call, oldest
    /// first, each with its destination rank. Empty on other ends.
    pub fn take_sent(&mut self) -> Vec<(usize, Datagram)> {
        self.sent.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Take the multicasts a routed end sent since the last call, oldest
    /// first. Empty on other ends.
    pub fn take_mcast(&mut self) -> Vec<Datagram> {
        self.mcast_sent
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The scripted clock.
    pub fn clock(&self) -> Nanos {
        self.clock.get()
    }

    /// Move the scripted clock (shared with the other end of a pair).
    pub fn set_clock(&mut self, now: Nanos) {
        self.clock.set(now);
    }

    /// Queue datagrams for this end to receive, as unicast arrivals.
    pub fn inject(&mut self, datagrams: impl IntoIterator<Item = Datagram>) {
        let mut inbound = self.inbound.borrow_mut();
        inbound.extend(datagrams.into_iter().map(|d| (d, false)));
    }

    /// Encode one message from `src` in context 0 and [`inject`] it.
    ///
    /// [`inject`]: ScriptedPump::inject
    pub fn inject_message(&mut self, kind: MsgKind, src: u32, tag: Tag, seq: u64, payload: &[u8]) {
        let shared = Bytes::copy_from_slice(payload);
        self.inject(split_message(kind, 0, src, tag, seq, &shared, 60_000));
    }

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
        if let Some(out) = &self.outbound {
            let mut out = out.borrow_mut();
            out.extend(datagrams.iter().map(|d| (d.clone(), via_mcast)));
        }
    }
}

impl Default for ScriptedPump {
    fn default() -> Self {
        ScriptedPump::new()
    }
}

impl RepairPump for ScriptedPump {
    fn now(&mut self) -> Nanos {
        self.clock.get()
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<Nanos>) {
        if self.deliver(core) {
            return;
        }
        match until {
            // Nothing queued: the wait elapses in full.
            Some(at) => self.clock.set(self.clock.get().max(at)),
            #[expect(
                clippy::panic,
                reason = "reviewed: the scripted test pump panics instead of hanging when a script blocks with nothing queued and no deadline"
            )]
            None => panic!("blocking receive with nothing queued would hang"),
        }
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        self.deliver(core)
    }

    fn pump_drain(&mut self, _core: &mut EndpointCore, _quiet: Duration) -> bool {
        false
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        self.unicasts_out += datagrams.len();
        if let Some(sent) = &mut self.sent {
            sent.extend(datagrams.iter().map(|d| (dst, d.clone())));
        }
        self.push(datagrams, false);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        self.mcasts_out += datagrams.len();
        if let Some(sent) = &mut self.mcast_sent {
            sent.extend_from_slice(datagrams);
        }
        self.push(datagrams, true);
    }
}
