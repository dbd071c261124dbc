//! The simulated network world: hosts + fabric + one event loop.
//!
//! [`World`] owns every piece of simulated state. It knows nothing about
//! threads or MPI ranks — the round closer in [`crate::cluster`] injects
//! sends/receives at chosen virtual times and consumes the
//! [`Completion`]s the world reports back.
//!
//! The world is a single-threaded discrete-event loop: one global
//! `(time, sequence)`-ordered queue, advanced one event at a time by
//! [`World::step`] (the model is in `docs/SIMULATOR.md`). It is two parts:
//! the core every fabric shares — queue, hosts, statistics, trace, the
//! last hop onto a host's link and the completions — and the fabric,
//! which is decided once, in [`World::new`]. The hub ([`crate::hub`]) and
//! the switch ([`crate::switch`]) each own their frame path and their
//! events ([`Event::Hub`], [`Event::Switch`]); [`World::step`] hands a
//! fabric's events to it.
//!
//! Fault injection hooks in at the last hop: every frame that survives
//! the fabric passes through a per-link dice roll
//! (hold/partition from the topology script, drop, reorder, duplicate —
//! see [`crate::params::FaultParams`]) before reaching the host stack.
//! The draws come from a dedicated RNG stream, so a lossless
//! configuration is byte-identical to one with fault injection compiled
//! in but off.

use std::sync::Arc;

use crate::event::{Event, EventQueue};
use crate::frame::{fragment_datagram, Datagram, Frame, FramePayload, SharedPayload};
use crate::host::{Delivery, DeliveryFailure, HostStack};
use crate::hub::Hub;
use crate::ids::{DatagramDst, GroupId, HostId, SocketId, SwitchPort, UdpPort};
use crate::params::{FabricKind, NetParams};
use crate::rng::SplitMix64;
use crate::stats::{FrameClass, NetStats};
use crate::switch::Switch;
use crate::time::{SimDuration, SimTime};
use crate::topology::TopoCursor;
use crate::trace::{Trace, TraceEvent};

/// Something a blocked rank has been waiting on finished.
#[derive(Debug)]
pub enum Completion {
    /// A posted receive can now complete: a datagram is buffered.
    RecvReady {
        /// Receiving host.
        host: HostId,
        /// Receiving socket.
        socket: SocketId,
        /// Event time at which the receive became ready (the world
        /// clock when the completion is returned).
        at: SimTime,
    },
    /// A timer fired (receive timeout or sleep).
    TimerFired {
        /// Owning host.
        host: HostId,
        /// Guarded socket for receive timeouts.
        socket: Option<SocketId>,
        /// The token the timer was scheduled with.
        token: u64,
        /// Event time at which the timer fired (see
        /// [`Completion::RecvReady::at`]).
        at: SimTime,
    },
}

impl Completion {
    /// The host the completion belongs to.
    pub fn host(&self) -> HostId {
        match self {
            Completion::RecvReady { host, .. } | Completion::TimerFired { host, .. } => *host,
        }
    }
}

/// Result of advancing the world.
#[derive(Debug)]
pub enum StepOutcome {
    /// Events were processed up to the returned time; any completions that
    /// became ready are included (possibly none).
    Advanced {
        /// New current time.
        now: SimTime,
        /// Ready completions.
        completions: Vec<Completion>,
    },
    /// No events pending — the network is silent.
    Quiescent,
}

/// Statistics class of a frame.
fn frame_class(frame: &Frame) -> FrameClass {
    match &frame.payload {
        FramePayload::Fragment { datagram, .. } if datagram.kernel => FrameClass::KernelAck,
        FramePayload::Fragment { .. } => FrameClass::Data,
        FramePayload::IgmpJoin { .. } => FrameClass::Control,
    }
}

/// The fabric connecting hosts: it owns its frame path, from a NIC's
/// transmit queue to the far end of the last link.
enum Fabric {
    Hub(Hub),
    Switch(Switch),
}

impl Fabric {
    /// `host`'s NIC was handed `frames` at `at`; start it if it was idle.
    fn enqueue_frames_at(
        &mut self,
        core: &mut Core,
        host: HostId,
        frames: impl IntoIterator<Item = Frame>,
        at: SimTime,
    ) {
        debug_assert!(at >= core.now);
        match self {
            Fabric::Hub(hub) => hub.enqueue_frames_at(core, host, frames, at),
            Fabric::Switch(sw) => sw.enqueue_frames_at(core, host, frames, at),
        }
    }
}

/// Salt decorrelating the fault-injection RNG stream from the
/// backoff/skew streams, so enabling faults never perturbs the timing of
/// surviving frames.
const FAULT_RNG_SALT: u64 = 0xFA17_ED11_FA17_ED11;

/// The simulated network.
pub struct World {
    core: Core,
    fabric: Fabric,
}

/// What every fabric shares: the clock and the event queue, the hosts,
/// the statistics and the trace, and the last hop of a frame onto a
/// host's link — topology script, injected faults, reassembly, delivery
/// and the completions it produces. A fabric's frame path
/// ([`crate::hub`], [`crate::switch`]) works on it.
pub(crate) struct Core {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) hosts: Vec<HostStack>,
    pub(crate) params: NetParams,
    pub(crate) stats: NetStats,
    fault_rng: SplitMix64,
    next_datagram_id: u64,
    next_frame_id: u64,
    topo: TopoCursor,
    /// Frames parked by a topology hold, in arrival order: (src, dst, frame).
    held: Vec<(HostId, HostId, Frame)>,
    completions: Vec<Completion>,
    /// Events popped so far.
    events_handled: u64,
    trace: Option<Trace>,
}

impl World {
    /// Build a world of `n` hosts with the given parameters and RNG seed.
    pub fn new(n: usize, params: NetParams, seed: u64) -> Self {
        let hosts = (0..n)
            .map(|i| {
                let mut h = HostStack::new(
                    HostId(i as u32),
                    params.host.rx_buffer_bytes,
                    params.host.strict_posted_recv,
                );
                if params.track_payload_crossings {
                    h.set_track_crossings(true);
                }
                h
            })
            .collect();
        let fabric = match &params.fabric {
            FabricKind::Hub => Fabric::Hub(Hub::new(seed)),
            FabricKind::Switch(sp) => Fabric::Switch(Switch::new(n, sp)),
        };
        let mut queue = EventQueue::new();
        let topo = TopoCursor::new(&params.faults.topology);
        // A wake at every scripted op time guarantees holds release (and
        // partitions heal) even when no traffic touches the link.
        for at in params.faults.topology.op_times() {
            queue.schedule(at, Event::TopologyWake);
        }
        let core = Core {
            now: SimTime::ZERO,
            queue,
            hosts,
            params,
            stats: NetStats::new(n),
            fault_rng: SplitMix64::new(seed ^ FAULT_RNG_SALT),
            next_datagram_id: 0,
            next_frame_id: 0,
            topo,
            held: Vec::new(),
            completions: Vec::new(),
            events_handled: 0,
            trace: None,
        };
        World { core, fabric }
    }

    /// Enable event tracing with a bounded ring buffer (debugging and
    /// fine-grained model validation; off by default).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = Some(Trace::new(capacity));
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.core.trace.as_ref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Events handled so far — one per [`World::step`] that found the
    /// queue non-empty. A pure function of `(calls, params, seed)`, like
    /// the clock; kept out of [`NetStats`], whose rendering replay
    /// fingerprints hash.
    pub fn events_handled(&self) -> u64 {
        self.core.events_handled
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// Model parameters.
    pub fn params(&self) -> &NetParams {
        &self.core.params
    }

    /// Access a host (tests, the round closer).
    pub fn host(&self, h: HostId) -> &HostStack {
        &self.core.hosts[h.index()]
    }

    /// Mutable access to a host (the round closer).
    pub fn host_mut(&mut self, h: HostId) -> &mut HostStack {
        &mut self.core.hosts[h.index()]
    }

    /// Bind a UDP socket on `host`.
    pub fn bind(&mut self, host: HostId, port: UdpPort) -> SocketId {
        self.core.hosts[host.index()].bind(port)
    }

    /// Setup-time multicast join: updates the host filter *and* the switch
    /// membership table instantly, without IGMP traffic. Models groups
    /// joined before the timed region, as MPI process groups are.
    pub fn join_group_quiet(&mut self, host: HostId, socket: SocketId, group: GroupId) {
        self.core.hosts[host.index()].join_group(socket, group);
        if let Fabric::Switch(sw) = &mut self.fabric {
            sw.snoop_join(group, SwitchPort(host.0));
        }
    }

    /// Setup-time leave (inverse of [`World::join_group_quiet`]).
    pub fn leave_group_quiet(&mut self, host: HostId, socket: SocketId, group: GroupId) {
        let h = &mut self.core.hosts[host.index()];
        h.leave_group(socket, group);
        let still_member = h.nic.is_member(group);
        if let (Fabric::Switch(sw), false) = (&mut self.fabric, still_member) {
            sw.snoop_leave(group, SwitchPort(host.0));
        }
    }

    /// Runtime multicast join: joins locally and emits an IGMP membership
    /// report frame on the wire at time `at` so a managed switch can snoop.
    pub fn join_group_igmp(&mut self, host: HostId, socket: SocketId, group: GroupId, at: SimTime) {
        let core = &mut self.core;
        core.hosts[host.index()].join_group(socket, group);
        let frame = Frame {
            id: core.fresh_frame_id(),
            src: host,
            dst: crate::frame::FrameDst::Broadcast,
            mac_payload: 46,
            payload: FramePayload::IgmpJoin { group },
        };
        self.fabric.enqueue_frames_at(core, host, [frame], at);
    }

    /// Inject a datagram send: the host stack finishes send-side processing
    /// at `at` (the round closer has already charged `o_send` + copy), after which
    /// fragments head to the NIC.
    #[allow(clippy::too_many_arguments)]
    pub fn send_datagram(
        &mut self,
        host: HostId,
        src_port: UdpPort,
        dst: DatagramDst,
        dst_port: UdpPort,
        payload: SharedPayload,
        at: SimTime,
        multicast_loopback: bool,
        kernel: bool,
    ) -> u64 {
        let core = &mut self.core;
        let id = core.next_datagram_id;
        core.next_datagram_id += 1;
        let datagram = Arc::new(Datagram {
            id,
            src_host: host,
            src_port,
            dst,
            dst_port,
            payload,
            kernel,
        });
        if kernel {
            core.stats.kernel_datagrams_sent += 1;
        } else {
            core.stats.datagrams_sent += 1;
            match dst {
                DatagramDst::Multicast(_) => core.stats.mcast_datagrams_sent += 1,
                DatagramDst::Unicast(_) => core.stats.unicast_datagrams_sent += 1,
            }
        }
        match dst {
            DatagramDst::Unicast(d) if d == host => {
                // Self-send never touches the wire.
                core.queue
                    .schedule(at, Event::LoopbackDelivery { host, datagram });
            }
            _ => {
                if multicast_loopback && matches!(dst, DatagramDst::Multicast(_)) {
                    core.queue.schedule(
                        at,
                        Event::LoopbackDelivery {
                            host,
                            datagram: Arc::clone(&datagram),
                        },
                    );
                }
                core.queue
                    .schedule(at, Event::DatagramReady { host, datagram });
            }
        }
        id
    }

    /// Pop a buffered datagram, if any, without posting a receive.
    pub fn try_pop_buffered(
        &mut self,
        host: HostId,
        socket: SocketId,
    ) -> Option<(SimTime, Arc<Datagram>)> {
        self.host_mut(host).socket_mut(socket).pop()
    }

    /// Schedule the posting of a blocking receive at virtual time `at` (the
    /// rank's local clock when it called `recv`). Until that instant the
    /// socket counts as *not ready* — under the strict posted-receive model
    /// a datagram delivered earlier is lost, exactly the paper's hazard.
    ///
    /// The pending post lives in the host's slot of the queue
    /// (`docs/SIMULATOR.md`, "One slot per host"): a host has one receive
    /// waiting to be posted at a time.
    pub fn schedule_post_recv(&mut self, host: HostId, socket: SocketId, at: SimTime) {
        self.core.queue.schedule_post_recv(host, socket, at);
    }

    /// Take the datagram that satisfied a [`Completion::RecvReady`] and
    /// clear the pending-receive flag.
    pub fn take_recv(
        &mut self,
        host: HostId,
        socket: SocketId,
    ) -> Option<(SimTime, Arc<Datagram>)> {
        let sock = self.host_mut(host).socket_mut(socket);
        sock.recv_posted = false;
        sock.pop()
    }

    /// Cancel a pending receive (timeout path).
    pub fn cancel_recv(&mut self, host: HostId, socket: SocketId) {
        self.host_mut(host).socket_mut(socket).recv_posted = false;
    }

    /// Schedule `host`'s timer to fire at `at` with `token`. A host has
    /// one timer slot: scheduling while one is armed **re-arms** it, and
    /// the earlier timer never fires.
    pub fn schedule_timer(
        &mut self,
        host: HostId,
        socket: Option<SocketId>,
        token: u64,
        at: SimTime,
    ) {
        self.core.queue.schedule_timer(host, socket, token, at);
    }

    /// Cancel `host`'s timer if it is still the one scheduled with
    /// `token`: the slot is emptied, nothing is left to fire.
    pub fn cancel_timer(&mut self, host: HostId, token: u64) {
        self.core.queue.cancel_timer(host, token);
    }

    /// Advance until at least one completion is ready (returned) or
    /// the world drains ([`StepOutcome::Quiescent`]).
    pub fn run_until_completion(&mut self) -> StepOutcome {
        loop {
            match self.step() {
                StepOutcome::Advanced { completions, .. } if completions.is_empty() => continue,
                outcome => return outcome,
            }
        }
    }

    /// Give a drained [`StepOutcome::Advanced::completions`] back, so the
    /// next batch does not allocate its own.
    pub fn recycle_completions(&mut self, mut spent: Vec<Completion>) {
        if self.core.completions.capacity() == 0 {
            spent.clear();
            self.core.completions = spent;
        }
    }

    /// Process exactly one event.
    pub fn step(&mut self) -> StepOutcome {
        let Some((at, event)) = self.core.queue.pop() else {
            return StepOutcome::Quiescent;
        };
        debug_assert!(at >= self.core.now, "time went backwards");
        self.core.now = at;
        self.core.events_handled += 1;
        self.handle(event);
        // Most events complete nothing: hand out the buffer only when it
        // holds something, or every such step would drop its capacity
        // and the next completion allocate it again.
        let completions = if self.core.completions.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.core.completions)
        };
        StepOutcome::Advanced {
            now: self.core.now,
            completions,
        }
    }

    /// Dispatch one event: a fabric's to its frame path, the rest to the
    /// core.
    fn handle(&mut self, event: Event) {
        let core = &mut self.core;
        match (event, &mut self.fabric) {
            (Event::Switch(e), Fabric::Switch(sw)) => sw.handle(core, e),
            (Event::Hub(e), Fabric::Hub(hub)) => hub.handle(core, e),
            #[expect(
                clippy::unreachable,
                reason = "only a fabric schedules its own events, and a world has one fabric for life"
            )]
            (Event::Hub(_) | Event::Switch(_), _) => unreachable!("event of another fabric"),
            (Event::DatagramReady { host, datagram }, fabric) => {
                let mtu = core.params.ethernet.mtu_bytes;
                let frames = fragment_datagram(datagram, &core.params.ip, mtu, core.next_frame_id);
                core.next_frame_id += frames.len() as u64;
                let at = core.now;
                fabric.enqueue_frames_at(core, host, frames, at);
            }
            (Event::LoopbackDelivery { host, datagram }, _) => {
                core.deliver_datagram(host, datagram);
            }
            (Event::LinkRedeliver { host, frame }, _) => core.receive_frame(host, &frame),
            (Event::TopologyWake, _) => {
                let now = core.now;
                let released = core.topo.advance_to(now);
                core.apply_releases(released);
            }
            (Event::PostRecv { host, socket }, _) => {
                let sock = core.hosts[host.index()].socket_mut(socket);
                sock.recv_posted = true;
                if sock.buffered() > 0 {
                    let at = core.now;
                    core.completions
                        .push(Completion::RecvReady { host, socket, at });
                }
            }
            (
                Event::Timer {
                    host,
                    socket,
                    token,
                },
                _,
            ) => {
                let at = core.now;
                core.completions.push(Completion::TimerFired {
                    host,
                    socket,
                    token,
                    at,
                });
            }
        }
    }
}

impl Core {
    pub(crate) fn trace_push(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(self.now, event);
        }
    }

    fn fresh_frame_id(&mut self) -> u64 {
        let id = self.next_frame_id;
        self.next_frame_id += 1;
        id
    }

    /// Queue `frames` on `host`'s NIC. True when the NIC was idle: the
    /// caller starts it, and it counts as busy from now on.
    pub(crate) fn nic_enqueue(
        &mut self,
        host: HostId,
        frames: impl IntoIterator<Item = Frame>,
    ) -> bool {
        let nic = &mut self.hosts[host.index()].nic;
        let mut kick = false;
        for f in frames {
            kick |= nic.enqueue(f);
        }
        nic.tx.busy |= kick;
        kick
    }

    /// `frame` starts onto the wire from `host`: count it and trace it.
    pub(crate) fn tx_start(&mut self, host: HostId, frame: &Frame) {
        let wire_bytes = self.params.ethernet.frame_wire_bytes(frame.mac_payload);
        self.stats.record_frame_sent(
            host,
            frame.mac_payload,
            u64::from(wire_bytes),
            frame_class(frame),
        );
        self.trace_push(TraceEvent::TxStart {
            src: host,
            frame: frame.id,
            bytes: frame.mac_payload,
        });
    }

    /// Re-deliver frames parked under the just-released holds, in arrival
    /// order (no further fault rolls — the hold already decided their fate).
    fn apply_releases(&mut self, released: Vec<(HostId, HostId)>) {
        for (src, dst) in released {
            let mut i = 0;
            while i < self.held.len() {
                if self.held[i].0 == src && self.held[i].1 == dst {
                    let (_, _, frame) = self.held.remove(i);
                    self.stats.frames_released += 1;
                    self.receive_frame(dst, &frame);
                } else {
                    i += 1;
                }
            }
        }
    }

    // --- reception -------------------------------------------------------

    /// Last hop of a frame onto `host`'s link: advance the topology
    /// script, park the frame if the link is held, drop it if a
    /// partition separates the endpoints, then roll the injected-fault
    /// dice (drop, reorder, duplicate — in that order) and deliver —
    /// late, when the link carries a heterogeneous extra delay (applied
    /// after the dice with no RNG draw of its own, so enabling it never
    /// perturbs which frames the probabilistic knobs hit). Inert fault
    /// params take the zero-draw fast path, so fault-free runs are
    /// byte-identical to pre-fault-injection ones.
    pub(crate) fn link_deliver(&mut self, host: HostId, frame: &Frame) {
        if self.params.faults.is_inert() {
            self.receive_frame(host, frame);
            return;
        }
        let now = self.now;
        // Usually a no-op: the TopologyWake scheduled at each op time has
        // the earliest sequence number at that instant, so it advances the
        // cursor before same-time traffic. Kept for robustness.
        let released = self.topo.advance_to(now);
        if !released.is_empty() {
            self.apply_releases(released);
        }
        if self.topo.is_held(frame.src, host) {
            self.stats.frames_held += 1;
            self.held.push((frame.src, host, frame.clone()));
            return;
        }
        if self.topo.separated(frame.src, host) {
            self.stats.partition_drops += 1;
            self.stats.link_mut(host).partition_drops += 1;
            self.trace_push(TraceEvent::Drop {
                host,
                reason: "partition",
            });
            return;
        }
        let drop_p = self.params.faults.drop_prob_for(host);
        if drop_p > 0.0 && self.fault_rng.coin(drop_p) {
            self.stats.injected_frame_losses += 1;
            self.stats.link_mut(host).injected_drops += 1;
            self.trace_push(TraceEvent::Drop {
                host,
                reason: "injected loss",
            });
            return;
        }
        let reorder_p = self.params.faults.reorder_prob;
        if reorder_p > 0.0 && self.fault_rng.coin(reorder_p) {
            let max = self.params.faults.reorder_max_delay.as_nanos().max(1);
            let delay = SimDuration::from_nanos(self.fault_rng.range_inclusive(1, max));
            self.stats.injected_reorders += 1;
            self.stats.link_mut(host).injected_reorders += 1;
            self.queue.schedule(
                now + delay,
                Event::LinkRedeliver {
                    host,
                    frame: frame.clone(),
                },
            );
            return;
        }
        let dup_p = self.params.faults.dup_prob;
        if dup_p > 0.0 && self.fault_rng.coin(dup_p) {
            self.stats.injected_duplicates += 1;
            self.stats.link_mut(host).injected_dups += 1;
            let slot = self.params.ethernet.frame_slot(frame.mac_payload);
            self.queue.schedule(
                now + slot,
                Event::LinkRedeliver {
                    host,
                    frame: frame.clone(),
                },
            );
        }
        let extra = self.params.faults.extra_delay_for(host);
        if extra.as_nanos() > 0 {
            self.stats.link_delayed_frames += 1;
            self.stats.link_mut(host).delayed_frames += 1;
            self.queue.schedule(
                now + extra,
                Event::LinkRedeliver {
                    host,
                    frame: frame.clone(),
                },
            );
            return;
        }
        self.receive_frame(host, frame);
    }

    fn receive_frame(&mut self, host: HostId, frame: &Frame) {
        // Checked at the final hop (not in link_deliver) so in-flight
        // frames already past the dice — reorders, dups, extra-delay
        // redeliveries, released holds — also die with the host.
        if self.topo.is_crashed(host) {
            self.stats.crashed_frames += 1;
            self.trace_push(TraceEvent::Drop {
                host,
                reason: "crashed host",
            });
            return;
        }
        self.stats.link_mut(host).frames_delivered += 1;
        self.trace_push(TraceEvent::Delivered {
            dst: host,
            frame: frame.id,
        });
        if let FramePayload::Fragment {
            datagram,
            index,
            count,
        } = &frame.payload
        {
            let complete = self.hosts[host.index()].receive_fragment(datagram, *index, *count);
            if let Some(dg) = complete {
                if let Some(dup) = self.hosts[host.index()].note_crossing(&dg) {
                    let l = self.stats.link_mut(host);
                    l.data_chunks_delivered += 1;
                    if dup {
                        l.duplicate_data_chunks += 1;
                    }
                }
                self.deliver_datagram(host, dg);
            }
        }
        // IGMP frames are consumed by the switch; stations ignore them.
    }

    fn deliver_datagram(&mut self, host: HostId, dg: Arc<Datagram>) {
        let now = self.now;
        match self.hosts[host.index()].deliver(dg, now) {
            Delivery::Delivered {
                socket,
                had_posted_recv,
            } => {
                self.stats.datagrams_delivered += 1;
                if had_posted_recv {
                    self.completions.push(Completion::RecvReady {
                        host,
                        socket,
                        at: now,
                    });
                }
            }
            Delivery::Dropped(DeliveryFailure::BufferOverflow) => {
                self.stats.rx_buffer_drops += 1;
                self.trace_push(TraceEvent::Drop {
                    host,
                    reason: "rx buffer overflow",
                });
            }
            Delivery::Dropped(DeliveryFailure::NoPostedReceive) => {
                self.stats.unposted_recv_drops += 1;
                self.trace_push(TraceEvent::Drop {
                    host,
                    reason: "no posted receive (strict multicast)",
                });
            }
            Delivery::Dropped(DeliveryFailure::NoMatchingSocket) => {
                // Silently ignored, like a real host with no listener.
            }
        }
    }
}
