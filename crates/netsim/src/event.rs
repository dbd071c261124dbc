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
use crate::hub::HubEvent;
use crate::ids::{HostId, SocketId};
use crate::switch::SwitchEvent;
use crate::time::SimTime;

/// Everything that can happen inside the simulated network: one variant
/// per fabric for its frame path, then what every fabric shares.
#[derive(Debug)]
pub enum Event {
    /// A step of the hub's frame path ([`crate::hub`]).
    Hub(HubEvent),
    /// A step of the switch's frame path ([`crate::switch`]).
    Switch(SwitchEvent),
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

/// Where an event sits in the total order: `(time, sequence)`.
pub type EventKey = (SimTime, u64);

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

/// Transmit state of a serializing line — a NIC uplink or a switch output
/// port. `busy` is what the model reads; `parked` is the go-idle event the
/// line did not queue (see [`EventQueue::schedule_go_idle`]). A parked key
/// implies `busy` and an empty transmit queue, and `busy` is only
/// meaningful after [`EventQueue::settle`].
#[derive(Debug, Default)]
pub struct TxLine {
    /// True while the line is serializing a frame (or, on the hub, has one
    /// submitted to arbitration).
    pub busy: bool,
    parked: Option<EventKey>,
}

const UNARMED: u32 = u32::MAX;

/// Later than any event: the top of an empty heap.
const NEVER: EventKey = (SimTime::MAX, u64::MAX);

/// What an armed slot fires with.
#[derive(Clone, Copy)]
struct Slot {
    socket: Option<SocketId>,
    token: u64,
    /// Position in [`HostSlots::heap`], or [`UNARMED`].
    pos: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        socket: None,
        token: 0,
        pos: UNARMED,
    };
}

/// One slot per host, in an indexed min-heap keyed like the main queue.
/// Arming an armed slot moves it in place; disarming removes it — nothing
/// dead is ever left to pop. The queue keeps two: the hosts' pending
/// `PostRecv`s, which fire almost as soon as they are armed (the heap is
/// all but empty), and their receive timeouts, nearly all of which are
/// cancelled (armed at the bottom, removed from wherever they are).
#[derive(Default)]
struct HostSlots {
    /// Indexed by host; grows with the highest host armed.
    slots: Vec<Slot>,
    /// The armed hosts with their keys, a binary min-heap by key.
    heap: Vec<(EventKey, u32)>,
}

impl HostSlots {
    fn place(&mut self, pos: usize, entry: (EventKey, u32)) {
        self.heap[pos] = entry;
        self.slots[entry.1 as usize].pos = pos as u32;
    }

    /// Move the entry at `pos` to where its key belongs, up or down.
    fn sift(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        loop {
            let mut child = 2 * pos + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1].0 < self.heap[child].0 {
                child += 1;
            }
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.place(pos, self.heap[child]);
            pos = child;
        }
        self.place(pos, entry);
    }

    /// Arm (or re-arm, in place) `host`'s slot.
    fn arm(&mut self, host: HostId, key: EventKey, socket: Option<SocketId>, token: u64) {
        let id = host.index();
        if id >= self.slots.len() {
            self.slots.resize(id + 1, Slot::EMPTY);
        }
        let pos = self.slots[id].pos;
        self.slots[id] = Slot { socket, token, pos };
        if pos == UNARMED {
            self.heap.push((key, host.0));
            self.sift(self.heap.len() - 1);
        } else {
            self.heap[pos as usize].0 = key;
            self.sift(pos as usize);
        }
    }

    /// Disarm `host`'s slot if it is armed with `token`.
    fn disarm(&mut self, host: HostId, token: u64) {
        match self.slots.get(host.index()) {
            Some(slot) if slot.pos != UNARMED && slot.token == token => {
                self.remove_at(slot.pos as usize);
            }
            _ => {}
        }
    }

    /// Take the entry at heap position `pos` out: whose it was, and what
    /// it fires with.
    fn remove_at(&mut self, pos: usize) -> (HostId, Slot) {
        let (_, host) = self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.sift(pos);
        }
        let slot = &mut self.slots[host as usize];
        slot.pos = UNARMED;
        (HostId(host), *slot)
    }

    /// Key of the earliest armed slot, [`NEVER`] when none is.
    fn top(&self) -> EventKey {
        self.heap.first().map_or(NEVER, |&(key, _)| key)
    }
}

/// One of the queue's three heaps.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Post,
    Timer,
}

/// Time-ordered event queue with deterministic tie-breaking.
///
/// Three heaps share one sequence counter: the main heap holds frames in
/// flight (and everything else scheduled with [`EventQueue::schedule`]),
/// the host slots hold each host's pending `PostRecv` and its
/// receive-timeout `Timer`. [`EventQueue::pop`] takes the smallest of the
/// tops, so the order is the order of one heap holding everything.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Queued>,
    posts: HostSlots,
    timers: HostSlots,
    next_seq: u64,
    /// Key of the event [`EventQueue::pop`] returned last — the event
    /// being handled.
    current: EventKey,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the next sequence number without queueing anything: the place
    /// in the order of an event that may be queued later
    /// ([`EventQueue::schedule_go_idle`]).
    fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve();
        self.heap.push(Queued { at, seq, event });
    }

    /// Fill `host`'s `PostRecv` slot: the receive on `socket` becomes
    /// posted at `at`. One slot per host — posting again before the first
    /// fired moves it.
    pub fn schedule_post_recv(&mut self, host: HostId, socket: SocketId, at: SimTime) {
        let key = (at, self.reserve());
        self.posts.arm(host, key, Some(socket), 0);
    }

    /// Fill `host`'s timer slot. One slot per host: a second timer on an
    /// armed host **re-arms** it — the earlier one never fires.
    pub fn schedule_timer(
        &mut self,
        host: HostId,
        socket: Option<SocketId>,
        token: u64,
        at: SimTime,
    ) {
        let key = (at, self.reserve());
        self.timers.arm(host, key, socket, token);
    }

    /// Empty `host`'s timer slot if `token` is what it holds (a timer that
    /// fired or was re-armed since is not there to cancel).
    pub fn cancel_timer(&mut self, host: HostId, token: u64) {
        self.timers.disarm(host, token);
    }

    /// A line started a frame and is done with it (frame + IFG) at `at`.
    /// The go-idle event takes its sequence number here, where it always
    /// did, but is queued only if a frame is `waiting` behind the one
    /// started — then it has a dequeue to do. Otherwise its key is parked
    /// on the line and [`EventQueue::settle`] decides, at the next
    /// enqueue, what the event would have done by then.
    pub fn schedule_go_idle(
        &mut self,
        line: &mut TxLine,
        at: SimTime,
        waiting: bool,
        event: Event,
    ) {
        let seq = self.reserve();
        line.busy = true;
        if waiting {
            self.heap.push(Queued { at, seq, event });
        } else {
            line.parked = Some((at, seq));
        }
    }

    /// Bring `line.busy` up to date before an enqueue reads it. A parked
    /// go-idle key below the key of the event being handled is an event
    /// that would have popped already, found nothing queued and cleared
    /// the flag; one above it has not popped yet, the line is busy and —
    /// the enqueue is about to give it something to dequeue — `event` is
    /// queued under the key it reserved.
    pub fn settle(&mut self, line: &mut TxLine, event: Event) {
        let Some((at, seq)) = line.parked.take() else {
            return;
        };
        if (at, seq) < self.current {
            line.busy = false;
        } else {
            self.heap.push(Queued { at, seq, event });
        }
    }

    /// Which heap holds the earliest pending event, and its key.
    fn next(&self) -> Option<(Source, EventKey)> {
        let (post, timer) = (self.posts.top(), self.timers.top());
        let heap = self.heap.peek().map_or(NEVER, |q| (q.at, q.seq));
        let key = heap.min(post).min(timer);
        let source = match key {
            NEVER => return None,
            k if k == post => Source::Post,
            k if k == timer => Source::Timer,
            _ => Source::Heap,
        };
        Some((source, key))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(_, (at, _))| at)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (source, key) = self.next()?;
        let event = match source {
            Source::Heap => self.heap.pop()?.event,
            Source::Post => {
                let (host, slot) = self.posts.remove_at(0);
                #[expect(
                    clippy::expect_used,
                    reason = "`schedule_post_recv` is the only writer of the post slots, and it always names the socket"
                )]
                let socket = slot.socket.expect("a posted receive names its socket");
                Event::PostRecv { host, socket }
            }
            Source::Timer => {
                let (host, slot) = self.timers.remove_at(0);
                Event::Timer {
                    host,
                    socket: slot.socket,
                    token: slot.token,
                }
            }
        };
        self.current = key;
        Some((key.0, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.posts.heap.len() + self.timers.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SwitchPort;
    use proptest::prelude::*;

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

    /// The main heap moves events by value: one variant per fabric must
    /// not make them bigger than the flat enum the split replaced.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_event_is_no_bigger_than_the_flat_enum_was() {
        assert!(size_of::<Event>() <= 56);
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

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn host_slots_and_the_heap_pop_as_one_order() {
        let mut q = EventQueue::new();
        q.schedule(ns(20), timer(100)); // seq 0
        q.schedule_post_recv(HostId(3), SocketId(1), ns(20)); // seq 1
        q.schedule_timer(HostId(3), Some(SocketId(1)), 7, ns(10)); // seq 2
        q.schedule(ns(20), timer(101)); // seq 3
        q.schedule_post_recv(HostId(0), SocketId(0), ns(5)); // seq 4
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(ns(5)));
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| match e {
                Event::PostRecv { host, socket } => format!("{at:?} post {} {}", host.0, socket.0),
                Event::Timer { host, token, .. } => format!("{at:?} timer {} {token}", host.0),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let want = [
            (5, "post 0 0"),
            (10, "timer 3 7"),
            (20, "timer 0 100"),
            (20, "post 3 1"),
            (20, "timer 0 101"),
        ];
        let want: Vec<String> = want
            .iter()
            .map(|(at, what)| format!("{:?} {what}", ns(*at)))
            .collect();
        assert_eq!(order, want);
    }

    /// The one rule for a host's timer slot: scheduling again re-arms it.
    /// The earlier timer is gone — it does not fire, early or late — and
    /// the new one takes its place in the order with a fresh sequence
    /// number.
    #[test]
    fn a_second_timer_on_an_armed_host_re_arms_it() {
        let mut q = EventQueue::new();
        q.schedule_timer(HostId(1), None, 1, ns(10));
        q.schedule(ns(30), timer(50));
        q.schedule_timer(HostId(1), None, 2, ns(30)); // later, behind token 50
        assert_eq!(q.len(), 2, "one slot per host");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![50, 2]);
        // Re-arming earlier works the same way.
        q.schedule_timer(HostId(1), None, 3, ns(90));
        q.schedule_timer(HostId(1), None, 4, ns(40));
        assert_eq!(q.pop().map(|(at, e)| (at, token_of(e))), Some((ns(40), 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn a_cancelled_timer_is_not_there_to_pop() {
        let mut q = EventQueue::new();
        for h in 0..8 {
            q.schedule_timer(HostId(h), None, u64::from(h), ns(100 - u64::from(h)));
        }
        // A stale token cancels nothing.
        q.cancel_timer(HostId(2), 99);
        assert_eq!(q.len(), 8);
        for h in [7, 0, 3] {
            q.cancel_timer(HostId(h), u64::from(h));
        }
        // Cancelling twice, or a host that never armed one, is a no-op.
        q.cancel_timer(HostId(3), 3);
        q.cancel_timer(HostId(40), 0);
        assert_eq!(q.len(), 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| token_of(e))
            .collect();
        assert_eq!(order, vec![6, 5, 4, 2, 1]);
    }

    // --- the queue this one replaced, as the oracle ----------------------

    /// What a model of the simulator needs from a queue. Implemented by
    /// [`EventQueue`] and by [`EagerQueue`], the design it replaced.
    trait Queue {
        fn schedule(&mut self, at: SimTime, event: Event);
        fn post_recv(&mut self, host: HostId, at: SimTime);
        fn timer(&mut self, host: HostId, token: u64, at: SimTime);
        fn cancel(&mut self, host: HostId, token: u64);
        fn go_idle(&mut self, line: &mut TxLine, at: SimTime, waiting: bool, event: Event);
        fn settle(&mut self, line: &mut TxLine, event: Event);
        /// The next event that is not a cancelled timer.
        fn next(&mut self) -> Option<(SimTime, Event)>;
        /// Everything popped so far, cancelled timers included.
        fn popped(&self) -> u64;
    }

    #[derive(Default)]
    struct Slotted {
        q: EventQueue,
        popped: u64,
    }

    impl Queue for Slotted {
        fn schedule(&mut self, at: SimTime, event: Event) {
            self.q.schedule(at, event);
        }
        fn post_recv(&mut self, host: HostId, at: SimTime) {
            self.q.schedule_post_recv(host, SocketId(0), at);
        }
        fn timer(&mut self, host: HostId, token: u64, at: SimTime) {
            self.q.schedule_timer(host, None, token, at);
        }
        fn cancel(&mut self, host: HostId, token: u64) {
            self.q.cancel_timer(host, token);
        }
        fn go_idle(&mut self, line: &mut TxLine, at: SimTime, waiting: bool, event: Event) {
            self.q.schedule_go_idle(line, at, waiting, event);
        }
        fn settle(&mut self, line: &mut TxLine, event: Event) {
            self.q.settle(line, event);
        }
        fn next(&mut self) -> Option<(SimTime, Event)> {
            let next = self.q.pop()?;
            self.popped += 1;
            Some(next)
        }
        fn popped(&self) -> u64 {
            self.popped
        }
    }

    /// One plain heap; a go-idle event queued for every transmission,
    /// whether or not it will find anything to do; a cancelled timer left
    /// queued and swallowed when it pops; a re-armed timer is a cancelled
    /// one plus a new one.
    #[derive(Default)]
    struct EagerQueue {
        heap: BinaryHeap<Queued>,
        next_seq: u64,
        cancelled: std::collections::HashSet<(u32, u64)>,
        armed: std::collections::HashMap<u32, u64>,
        popped: u64,
        dead_timers: u64,
    }

    impl Queue for EagerQueue {
        fn schedule(&mut self, at: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Queued { at, seq, event });
        }
        fn post_recv(&mut self, host: HostId, at: SimTime) {
            let socket = SocketId(0);
            self.schedule(at, Event::PostRecv { host, socket });
        }
        fn timer(&mut self, host: HostId, token: u64, at: SimTime) {
            if let Some(old) = self.armed.insert(host.0, token) {
                self.cancelled.insert((host.0, old));
            }
            let socket = None;
            self.schedule(
                at,
                Event::Timer {
                    host,
                    socket,
                    token,
                },
            );
        }
        fn cancel(&mut self, host: HostId, token: u64) {
            if self.armed.get(&host.0) == Some(&token) {
                self.armed.remove(&host.0);
                self.cancelled.insert((host.0, token));
            }
        }
        fn go_idle(&mut self, line: &mut TxLine, at: SimTime, _waiting: bool, event: Event) {
            line.busy = true;
            self.schedule(at, event);
        }
        fn settle(&mut self, _line: &mut TxLine, _event: Event) {}
        fn next(&mut self) -> Option<(SimTime, Event)> {
            loop {
                let q = self.heap.pop()?;
                self.popped += 1;
                if let Event::Timer { host, token, .. } = q.event {
                    if self.cancelled.remove(&(host.0, token)) {
                        self.dead_timers += 1;
                        continue;
                    }
                    self.armed.remove(&host.0);
                }
                return Some((q.at, q.event));
            }
        }
        fn popped(&self) -> u64 {
            self.popped
        }
    }

    /// One step of a random history.
    #[derive(Clone, Debug)]
    enum Op {
        /// A frame reaches `port`'s queue after `delay` (an event).
        Frame { port: u32, delay: u64 },
        /// A frame is put on `port`'s queue from outside the event loop.
        Enqueue { port: u32 },
        /// `host` blocks in a receive: posted after `post`, timing out
        /// `timeout` later.
        Block { host: u32, post: u64, timeout: u64 },
        /// `host`'s receive completes (once it is posted): the timer goes.
        Complete { host: u32 },
        /// A second timer on a blocked (and posted) host.
        Rearm { host: u32, delay: u64 },
        /// Handle events until `n` of them had an effect. The eager queue
        /// pops more events to get there; both stop right behind an
        /// effective one, which is where the round closer makes its calls
        /// (`World::run_until_completion` returns behind a completion).
        Run { n: usize },
    }

    /// Serialization and inter-frame gap of the model's frames. Small, so
    /// that go-idle keys tie with arrivals all the time.
    const WIRE: u64 = 3;
    const IFG: u64 = 1;
    /// Further off than anything an [`Op`] schedules.
    const HORIZON: u64 = 1_000;

    #[derive(Default)]
    struct ModelPort {
        tx: TxLine,
        queued: u32,
    }

    #[derive(Default, Clone, Copy, PartialEq)]
    enum Rank {
        #[default]
        Idle,
        /// Blocked with this timer token; `posted` once `PostRecv` fired.
        Blocked { token: u64, posted: bool },
    }

    /// A switch port and a blocked rank per index, over either queue. The
    /// log is everything a handler did or saw that has an effect.
    struct Model<Q> {
        q: Q,
        now: SimTime,
        ports: [ModelPort; 3],
        ranks: [Rank; 3],
        next_token: u64,
        /// Keep a far-off event queued (`HubArbitrate`, an effective one),
        /// so that a `Run` never ends on the eager queue's dead events
        /// with the clock moved past them: a drained `World` gets no
        /// further calls from the round closer either.
        horizon: bool,
        /// Go-idle events that popped with nothing to dequeue.
        idle_pops: u64,
        log: Vec<(u64, &'static str, u32, u64)>,
    }

    impl<Q: Queue + Default> Model<Q> {
        fn new() -> Self {
            let mut q = Q::default();
            q.schedule(
                SimTime::ZERO + dur(HORIZON),
                Event::Hub(HubEvent::Arbitrate),
            );
            Model {
                q,
                now: SimTime::ZERO,
                ports: Default::default(),
                ranks: Default::default(),
                next_token: 0,
                horizon: true,
                idle_pops: 0,
                log: Vec::new(),
            }
        }

        fn note(&mut self, what: &'static str, index: u32, detail: u64) {
            self.log.push((self.now.as_nanos(), what, index, detail));
        }

        fn start_tx(&mut self, port: u32) {
            let p = &mut self.ports[port as usize];
            let waiting = p.queued > 0;
            // The frame's delivery takes a sequence number first, as in
            // `World::port_tx_next`.
            self.q.schedule(self.now + dur(WIRE), Event::TopologyWake);
            let event = Event::Switch(SwitchEvent::PortTxNext {
                port: SwitchPort(port),
            });
            self.q
                .go_idle(&mut p.tx, self.now + dur(WIRE + IFG), waiting, event);
            self.note("tx", port, u64::from(waiting));
        }

        fn enqueue(&mut self, port: u32) {
            let p = &mut self.ports[port as usize];
            let event = Event::Switch(SwitchEvent::PortTxNext {
                port: SwitchPort(port),
            });
            self.q.settle(&mut p.tx, event);
            let busy = p.tx.busy;
            self.note("enqueue sees busy", port, u64::from(busy));
            if busy {
                self.ports[port as usize].queued += 1;
            } else {
                self.start_tx(port);
            }
        }

        fn fresh_token(&mut self) -> u64 {
            self.next_token += 1;
            self.next_token
        }

        fn apply(&mut self, op: &Op) {
            match *op {
                Op::Frame { port, delay } => {
                    let host = HostId(port);
                    self.q.schedule(
                        self.now + dur(delay),
                        Event::Hub(HubEvent::NicRetry { host }),
                    );
                }
                Op::Enqueue { port } => self.enqueue(port),
                Op::Block {
                    host,
                    post,
                    timeout,
                } => {
                    if self.ranks[host as usize] == Rank::Idle {
                        let token = self.fresh_token();
                        let at = self.now + dur(post);
                        self.q.post_recv(HostId(host), at);
                        self.q.timer(HostId(host), token, at + dur(timeout));
                        let posted = false;
                        self.ranks[host as usize] = Rank::Blocked { token, posted };
                    }
                }
                Op::Complete { host } => {
                    if let Rank::Blocked {
                        token,
                        posted: true,
                    } = self.ranks[host as usize]
                    {
                        self.q.cancel(HostId(host), token);
                        self.ranks[host as usize] = Rank::Idle;
                    }
                }
                Op::Rearm { host, delay } => {
                    // (Once posted: a timeout never precedes its receive.)
                    if let Rank::Blocked { posted: true, .. } = self.ranks[host as usize] {
                        let token = self.fresh_token();
                        self.q.timer(HostId(host), token, self.now + dur(delay));
                        let posted = true;
                        self.ranks[host as usize] = Rank::Blocked { token, posted };
                    }
                }
                Op::Run { n } => {
                    let mut effective = 0;
                    while effective < n {
                        let logged = self.log.len();
                        if !self.handle_next() {
                            break;
                        }
                        effective += usize::from(self.log.len() > logged);
                    }
                }
            }
        }

        fn handle_next(&mut self) -> bool {
            let Some((at, event)) = self.q.next() else {
                return false;
            };
            assert!(at >= self.now, "time went backwards");
            self.now = at;
            match event {
                Event::Hub(HubEvent::NicRetry { host }) => self.enqueue(host.0),
                Event::TopologyWake => self.note("delivered", 0, 0),
                Event::Hub(HubEvent::Arbitrate) => {
                    self.note("horizon", 0, 0);
                    if self.horizon {
                        self.q
                            .schedule(self.now + dur(HORIZON), Event::Hub(HubEvent::Arbitrate));
                    }
                }
                Event::Switch(SwitchEvent::PortTxNext { port }) => {
                    let p = &mut self.ports[port.index()];
                    if p.queued > 0 {
                        p.queued -= 1;
                        self.start_tx(port.0);
                    } else {
                        p.tx.busy = false;
                        self.idle_pops += 1;
                    }
                }
                Event::PostRecv { host, .. } => {
                    let Rank::Blocked { token, .. } = self.ranks[host.index()] else {
                        panic!("a receive posted for a rank that is not blocked");
                    };
                    let posted = true;
                    self.ranks[host.index()] = Rank::Blocked { token, posted };
                    self.note("posted", host.0, 0);
                }
                Event::Timer { host, token, .. } => {
                    let blocked_on = match self.ranks[host.index()] {
                        Rank::Blocked { token, .. } => Some(token),
                        Rank::Idle => None,
                    };
                    assert_eq!(blocked_on, Some(token), "a stale timer fired");
                    self.ranks[host.index()] = Rank::Idle;
                    self.note("timed out", host.0, token);
                }
                other => panic!("unexpected {other:?}"),
            }
            true
        }
    }

    fn dur(n: u64) -> crate::time::SimDuration {
        crate::time::SimDuration::from_nanos(n)
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..3, 0u64..7).prop_map(|(port, delay)| Op::Frame { port, delay }),
            (0u32..3, 0u64..7).prop_map(|(port, delay)| Op::Frame { port, delay }),
            (0u32..3).prop_map(|port| Op::Enqueue { port }),
            (0u32..3, 0u64..5, 0u64..12).prop_map(|(host, post, timeout)| Op::Block {
                host,
                post,
                timeout
            }),
            (0u32..3).prop_map(|host| Op::Complete { host }),
            (0u32..3, 0u64..9).prop_map(|(host, delay)| Op::Rearm { host, delay }),
            (1usize..6).prop_map(|n| Op::Run { n }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Host slots, parked go-idle keys and emptied timer slots are the
        /// eager queue with the dead work taken out: over random histories
        /// of frames, outside enqueues, blocking receives, completions and
        /// re-armed timers, every handler runs at the same time in the same
        /// order and every enqueue sees the same `busy` — and the queue
        /// pops no event that does nothing.
        #[test]
        fn slots_and_parked_keys_replay_the_eager_queue(
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut new = Model::<Slotted>::new();
            let mut old = Model::<EagerQueue>::new();
            for op in &ops {
                new.apply(op);
                old.apply(op);
                prop_assert_eq!(&new.log, &old.log);
            }
            // Drain both: what is still queued agrees too.
            let drain = Op::Run { n: usize::MAX };
            (new.horizon, old.horizon) = (false, false);
            new.apply(&drain);
            old.apply(&drain);
            prop_assert_eq!(&new.log, &old.log);
            // The saving, exactly: the go-idle events that found nothing
            // to dequeue and the cancelled timers.
            prop_assert_eq!(new.idle_pops, 0);
            prop_assert_eq!(old.q.popped() - new.q.popped(), old.idle_pops + old.q.dead_timers);
        }
    }
}
