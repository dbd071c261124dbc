//! A scripted in-memory [`RepairPump`] for driving bare [`EndpointCore`]s
//! in tests: a clock that only the script (or a park with nothing queued)
//! moves, an inbound queue, and an outbound queue that is either counted
//! and left alone ([`ScriptedPump::new`]) or is the peer's inbound queue
//! ([`ScriptedPump::pair`]). Datagrams cross as the header-view /
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

    fn send_encoded(&mut self, _dst: usize, datagrams: &[Datagram]) {
        self.unicasts_out += datagrams.len();
        self.push(datagrams, false);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        self.mcasts_out += datagrams.len();
        self.push(datagrams, true);
    }
}
