//! The simulated network world: hosts + fabric + one event loop.
//!
//! [`World`] owns every piece of simulated state. It knows nothing about
//! threads or MPI ranks — the round closer in [`crate::cluster`] injects
//! sends/receives at chosen virtual times and consumes the
//! [`Completion`]s the world reports back.
//!
//! The world is a single-threaded discrete-event loop: one global
//! `(time, sequence)`-ordered queue, advanced one event at a time by
//! [`World::step`] (the model is in `docs/SIMULATOR.md`). Both fabrics —
//! the CSMA/CD hub and the switch — run on it.
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
use crate::hub::{Arbitration, Hub};
use crate::ids::{DatagramDst, GroupId, HostId, SocketId, SwitchPort, UdpPort};
use crate::params::{FabricKind, NetParams};
use crate::rng::SplitMix64;
use crate::stats::NetStats;
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
fn frame_class(frame: &Frame) -> crate::stats::FrameClass {
    match &frame.payload {
        FramePayload::Fragment { datagram, .. } => {
            if datagram.kernel {
                crate::stats::FrameClass::KernelAck
            } else {
                crate::stats::FrameClass::Data
            }
        }
        _ => crate::stats::FrameClass::Control,
    }
}

/// The fabric connecting hosts.
enum Fabric {
    Hub(Hub),
    Switch(Switch),
}

/// Salt decorrelating the fault-injection RNG stream from the
/// backoff/skew streams, so enabling faults never perturbs the timing of
/// surviving frames.
const FAULT_RNG_SALT: u64 = 0xFA17_ED11_FA17_ED11;

/// The simulated network.
pub struct World {
    now: SimTime,
    queue: EventQueue,
    hosts: Vec<HostStack>,
    fabric: Fabric,
    params: NetParams,
    stats: NetStats,
    rng: SplitMix64,
    fault_rng: SplitMix64,
    next_datagram_id: u64,
    next_frame_id: u64,
    topo: TopoCursor,
    /// Frames parked by a topology hold, in arrival order: (src, dst, frame).
    held: Vec<(HostId, HostId, Frame)>,
    completions: Vec<Completion>,
    /// Scratch: the output ports of the frame being forwarded.
    forward_ports: Vec<SwitchPort>,
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
            FabricKind::Hub => Fabric::Hub(Hub::new()),
            FabricKind::Switch(sp) => {
                let mut sw = Switch::new(n, sp.port_buffer_bytes, sp.flood_multicast);
                sw.set_unicast_only(sp.unicast_only);
                // Static star topology: port i <-> host i. Pre-populate the
                // learning table (a warm ARP/MAC cache) so the first unicast
                // of a run is not flooded to every port.
                for i in 0..n as u32 {
                    sw.learn(HostId(i), SwitchPort(i));
                }
                Fabric::Switch(sw)
            }
        };
        let mut queue = EventQueue::new();
        let topo = TopoCursor::new(&params.faults.topology);
        // A wake at every scripted op time guarantees holds release (and
        // partitions heal) even when no traffic touches the link.
        for at in params.faults.topology.op_times() {
            queue.schedule(at, Event::TopologyWake);
        }
        World {
            now: SimTime::ZERO,
            queue,
            hosts,
            fabric,
            params,
            stats: NetStats::new(n),
            rng: SplitMix64::new(seed),
            fault_rng: SplitMix64::new(seed ^ FAULT_RNG_SALT),
            next_datagram_id: 0,
            next_frame_id: 0,
            topo,
            held: Vec::new(),
            completions: Vec::new(),
            forward_ports: Vec::new(),
            events_handled: 0,
            trace: None,
        }
    }

    /// Enable event tracing with a bounded ring buffer (debugging and
    /// fine-grained model validation; off by default).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events handled so far — one per [`World::step`] that found the
    /// queue non-empty. A pure function of `(calls, params, seed)`, like
    /// the clock; kept out of [`NetStats`], whose rendering replay
    /// fingerprints hash.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Model parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Access a host (tests, the round closer).
    pub fn host(&self, h: HostId) -> &HostStack {
        &self.hosts[h.index()]
    }

    /// Mutable access to a host (the round closer).
    pub fn host_mut(&mut self, h: HostId) -> &mut HostStack {
        &mut self.hosts[h.index()]
    }

    /// Bind a UDP socket on `host`.
    pub fn bind(&mut self, host: HostId, port: UdpPort) -> SocketId {
        self.hosts[host.index()].bind(port)
    }

    fn trace_push(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            let now = self.now;
            t.push(now, event);
        }
    }

    /// Setup-time multicast join: updates the host filter *and* the switch
    /// membership table instantly, without IGMP traffic. Models groups
    /// joined before the timed region, as MPI process groups are.
    pub fn join_group_quiet(&mut self, host: HostId, socket: SocketId, group: GroupId) {
        self.hosts[host.index()].join_group(socket, group);
        if let Fabric::Switch(sw) = &mut self.fabric {
            sw.snoop_join(group, SwitchPort(host.0));
        }
    }

    /// Setup-time leave (inverse of [`World::join_group_quiet`]).
    pub fn leave_group_quiet(&mut self, host: HostId, socket: SocketId, group: GroupId) {
        let h = &mut self.hosts[host.index()];
        h.leave_group(socket, group);
        let still_member = h.nic.is_member(group);
        if let (Fabric::Switch(sw), false) = (&mut self.fabric, still_member) {
            sw.snoop_leave(group, SwitchPort(host.0));
        }
    }

    /// Runtime multicast join: joins locally and emits an IGMP membership
    /// report frame on the wire at time `at` so a managed switch can snoop.
    pub fn join_group_igmp(&mut self, host: HostId, socket: SocketId, group: GroupId, at: SimTime) {
        self.hosts[host.index()].join_group(socket, group);
        let frame = Frame {
            id: self.fresh_frame_id(),
            src: host,
            dst: crate::frame::FrameDst::Broadcast,
            mac_payload: 46,
            payload: FramePayload::IgmpJoin { group },
        };
        self.enqueue_frames_at(host, [frame], at);
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
        let id = self.next_datagram_id;
        self.next_datagram_id += 1;
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
            self.stats.kernel_datagrams_sent += 1;
        } else {
            self.stats.datagrams_sent += 1;
            match dst {
                DatagramDst::Multicast(_) => self.stats.mcast_datagrams_sent += 1,
                DatagramDst::Unicast(_) => self.stats.unicast_datagrams_sent += 1,
            }
        }
        match dst {
            DatagramDst::Unicast(d) if d == host => {
                // Self-send never touches the wire.
                self.queue
                    .schedule(at, Event::LoopbackDelivery { host, datagram });
            }
            _ => {
                if multicast_loopback && matches!(dst, DatagramDst::Multicast(_)) {
                    self.queue.schedule(
                        at,
                        Event::LoopbackDelivery {
                            host,
                            datagram: Arc::clone(&datagram),
                        },
                    );
                }
                self.queue
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
        self.queue.schedule_post_recv(host, socket, at);
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
        self.queue.schedule_timer(host, socket, token, at);
    }

    /// Cancel `host`'s timer if it is still the one scheduled with
    /// `token`: the slot is emptied, nothing is left to fire.
    pub fn cancel_timer(&mut self, host: HostId, token: u64) {
        self.queue.cancel_timer(host, token);
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
        if self.completions.capacity() == 0 {
            spent.clear();
            self.completions = spent;
        }
    }

    /// Process exactly one event.
    pub fn step(&mut self) -> StepOutcome {
        let Some((at, event)) = self.queue.pop() else {
            return StepOutcome::Quiescent;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_handled += 1;
        self.handle(event);
        // Most events complete nothing: hand out the buffer only when it
        // holds something, or every such step would drop its capacity
        // and the next completion allocate it again.
        let completions = if self.completions.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.completions)
        };
        StepOutcome::Advanced {
            now: self.now,
            completions,
        }
    }

    fn fresh_frame_id(&mut self) -> u64 {
        let id = self.next_frame_id;
        self.next_frame_id += 1;
        id
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::DatagramReady { host, datagram } => {
                let mtu = self.params.ethernet.mtu_bytes;
                let frames = fragment_datagram(datagram, &self.params.ip, mtu, self.next_frame_id);
                self.next_frame_id += frames.len() as u64;
                let at = self.now;
                self.enqueue_frames_at(host, frames, at);
            }
            Event::LoopbackDelivery { host, datagram } => {
                self.deliver_datagram(host, datagram);
            }
            Event::HubArbitrate => self.hub_arbitrate(),
            Event::HubFrameDelivered { frame } => self.hub_frame_delivered(frame),
            Event::NicRetry { host } => {
                let now = self.now;
                let Fabric::Hub(hub) = &mut self.fabric else {
                    unreachable!("NicRetry only occurs on the hub fabric");
                };
                if let Some(fire_at) = hub.request(host, now) {
                    self.queue.schedule(fire_at, Event::HubArbitrate);
                }
            }
            Event::NicTxNext { host } => self.nic_tx_next(host),
            Event::SwitchIngress { frame, in_port } => self.switch_ingress(frame, in_port),
            Event::SwitchForward { frame, in_port } => self.switch_forward(frame, in_port),
            Event::PortDelivered { frame, port } => self.port_delivered(frame, port),
            Event::PortTxNext { port } => self.port_tx_next(port),
            Event::LinkRedeliver { host, frame } => self.receive_frame(host, &frame),
            Event::TopologyWake => {
                let now = self.now;
                let released = self.topo.advance_to(now);
                self.apply_releases(released);
            }
            Event::PostRecv { host, socket } => {
                let sock = self.hosts[host.index()].socket_mut(socket);
                sock.recv_posted = true;
                if sock.buffered() > 0 {
                    let at = self.now;
                    self.completions
                        .push(Completion::RecvReady { host, socket, at });
                }
            }
            Event::Timer {
                host,
                socket,
                token,
            } => {
                let at = self.now;
                self.completions.push(Completion::TimerFired {
                    host,
                    socket,
                    token,
                    at,
                });
            }
        }
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

    /// Hand frames to a host NIC at time `at`, kicking transmission if idle.
    fn enqueue_frames_at(
        &mut self,
        host: HostId,
        frames: impl IntoIterator<Item = Frame>,
        at: SimTime,
    ) {
        debug_assert!(at >= self.now);
        let nic = &mut self.hosts[host.index()].nic;
        self.queue.settle(&mut nic.tx, Event::NicTxNext { host });
        let mut kick = false;
        for f in frames {
            kick |= nic.enqueue(f);
        }
        if !kick {
            return;
        }
        nic.tx.busy = true;
        match &mut self.fabric {
            Fabric::Hub(hub) => {
                if let Some(fire_at) = hub.request(host, at) {
                    self.queue.schedule(fire_at, Event::HubArbitrate);
                }
            }
            Fabric::Switch(_) => {
                // Start serializing the head frame onto the uplink at `at`.
                self.queue.schedule(at, Event::NicTxNext { host });
            }
        }
    }

    // --- hub fabric -----------------------------------------------------

    fn hub_arbitrate(&mut self) {
        let now = self.now;
        let Fabric::Hub(hub) = &mut self.fabric else {
            unreachable!("HubArbitrate only occurs on the hub fabric");
        };
        match hub.arbitrate(now) {
            Arbitration::Idle => {}
            Arbitration::Winner(host) => {
                let frame = self.hosts[host.index()]
                    .nic
                    .pop_head()
                    .expect("winner must have a queued frame");
                let eth = self.params.ethernet.clone();
                let wire = eth.frame_wire_time(frame.mac_payload);
                let wire_bytes = (eth.preamble_bytes
                    + eth.mac_header_bytes
                    + frame.mac_payload.max(eth.min_payload_bytes)
                    + eth.fcs_bytes) as u64;
                let class = frame_class(&frame);
                self.stats
                    .record_frame_sent(host, frame.mac_payload, wire_bytes, class);
                self.trace_push(TraceEvent::TxStart {
                    src: host,
                    frame: frame.id,
                    bytes: frame.mac_payload,
                });
                let delivered_at = now + wire + eth.prop_delay;
                let Fabric::Hub(hub) = &mut self.fabric else {
                    unreachable!();
                };
                hub.busy_until = now + wire + eth.ifg_time();
                self.queue
                    .schedule(delivered_at, Event::HubFrameDelivered { frame });
            }
            Arbitration::Collision(hosts) => {
                self.stats.collisions += 1;
                self.trace_push(TraceEvent::Collision {
                    stations: hosts.clone(),
                });
                let eth = self.params.ethernet.clone();
                // The medium is garbage for one slot (jam).
                let jam_end = now + eth.slot_time;
                {
                    let Fabric::Hub(hub) = &mut self.fabric else {
                        unreachable!();
                    };
                    hub.busy_until = jam_end;
                }
                for host in hosts {
                    let nic = &mut self.hosts[host.index()].nic;
                    nic.attempts += 1;
                    if nic.attempts >= eth.max_attempts {
                        // Excessive collisions: drop the frame.
                        nic.pop_head();
                        self.stats.excessive_collision_drops += 1;
                        if self.hosts[host.index()].nic.head().is_some() {
                            self.queue.schedule(jam_end, Event::NicRetry { host });
                        } else {
                            self.hosts[host.index()].nic.tx.busy = false;
                        }
                        continue;
                    }
                    let exp = nic.attempts.min(eth.max_backoff_exp);
                    let slots = self.rng.next_below(1u64 << exp);
                    let retry_at = jam_end + eth.slot_time * slots;
                    self.queue.schedule(retry_at, Event::NicRetry { host });
                }
            }
        }
    }

    fn hub_frame_delivered(&mut self, frame: Frame) {
        let src = frame.src;
        let lost = self.params.frame_loss_prob > 0.0 && {
            let p = self.params.frame_loss_prob;
            self.rng.coin(p)
        };
        if lost {
            self.stats.injected_frame_losses += 1;
        } else {
            let n = self.hosts.len();
            for i in 0..n {
                let host = HostId(i as u32);
                if host == src {
                    continue;
                }
                let accepted = frame.accepted_by(host, |g| self.hosts[i].nic.is_member(g));
                if accepted {
                    self.link_deliver(host, &frame);
                }
            }
        }
        // The sender's NIC contends again if it has more frames.
        let more = self.hosts[src.index()].nic.head().is_some();
        if more {
            let now = self.now;
            let Fabric::Hub(hub) = &mut self.fabric else {
                unreachable!();
            };
            if let Some(fire_at) = hub.request(src, now) {
                self.queue.schedule(fire_at, Event::HubArbitrate);
            }
        } else {
            self.hosts[src.index()].nic.tx.busy = false;
            // Other stations may be waiting on the medium.
            let Fabric::Hub(hub) = &mut self.fabric else {
                unreachable!();
            };
            if hub.has_waiters() {
                let fire_at = hub.busy_until;
                if hub
                    .arbitrate_scheduled_at
                    .map(|t| t > fire_at)
                    .unwrap_or(true)
                {
                    hub.arbitrate_scheduled_at = Some(fire_at);
                    self.queue.schedule(fire_at, Event::HubArbitrate);
                }
            }
        }
    }

    // --- switch fabric ---------------------------------------------------

    /// Begin serializing the next queued frame on a host uplink.
    fn nic_tx_next(&mut self, host: HostId) {
        let Some(frame) = self.hosts[host.index()].nic.pop_head() else {
            self.hosts[host.index()].nic.tx.busy = false;
            return;
        };
        let eth = &self.params.ethernet;
        let wire = eth.frame_wire_time(frame.mac_payload);
        let wire_bytes = (eth.preamble_bytes
            + eth.mac_header_bytes
            + frame.mac_payload.max(eth.min_payload_bytes)
            + eth.fcs_bytes) as u64;
        let class = frame_class(&frame);
        // Cut-through switches start forwarding once the header is in;
        // store-and-forward waits for the whole frame.
        let ingress_after = match &self.params.fabric {
            FabricKind::Switch(sp) => match sp.mode {
                crate::params::SwitchMode::StoreAndForward => wire,
                crate::params::SwitchMode::CutThrough { header_bytes } => {
                    eth.byte_time(u64::from((eth.preamble_bytes + header_bytes).min(
                        eth.preamble_bytes
                            + eth.mac_header_bytes
                            + frame.mac_payload.max(eth.min_payload_bytes)
                            + eth.fcs_bytes,
                    )))
                }
            },
            FabricKind::Hub => wire,
        };
        let ingress_at = self.now + ingress_after + eth.prop_delay;
        let next_at = self.now + wire + eth.ifg_time();
        self.stats
            .record_frame_sent(host, frame.mac_payload, wire_bytes, class);
        self.trace_push(TraceEvent::TxStart {
            src: host,
            frame: frame.id,
            bytes: frame.mac_payload,
        });
        self.queue.schedule(
            ingress_at,
            Event::SwitchIngress {
                frame,
                in_port: SwitchPort(host.0),
            },
        );
        let nic = &mut self.hosts[host.index()].nic;
        let waiting = nic.head().is_some();
        self.queue
            .schedule_go_idle(&mut nic.tx, next_at, waiting, Event::NicTxNext { host });
    }

    fn switch_ingress(&mut self, frame: Frame, in_port: SwitchPort) {
        let latency = match &self.params.fabric {
            FabricKind::Switch(sp) => sp.forwarding_latency,
            FabricKind::Hub => unreachable!("switch event on hub fabric"),
        };
        let Fabric::Switch(sw) = &mut self.fabric else {
            unreachable!();
        };
        sw.learn(frame.src, in_port);
        match &frame.payload {
            FramePayload::IgmpJoin { group } => {
                // Snooped and consumed by the managed switch.
                sw.snoop_join(*group, in_port);
            }
            FramePayload::IgmpLeave { group } => {
                sw.snoop_leave(*group, in_port);
            }
            FramePayload::Fragment { .. } => {
                let at = self.now + latency;
                self.queue
                    .schedule(at, Event::SwitchForward { frame, in_port });
            }
        }
    }

    fn switch_forward(&mut self, frame: Frame, in_port: SwitchPort) {
        let Fabric::Switch(sw) = &mut self.fabric else {
            unreachable!();
        };
        if sw.unicast_only() && matches!(frame.dst, crate::frame::FrameDst::Multicast(_)) {
            self.stats.unicast_only_drops += 1;
            return;
        }
        let mut ports = std::mem::take(&mut self.forward_ports);
        sw.forward_into(&frame, in_port, &mut ports);
        for port in ports.drain(..) {
            self.port_enqueue_frame(frame.clone(), port);
        }
        self.forward_ports = ports;
    }

    /// Enqueue on a single output port, kicking transmission if idle.
    fn port_enqueue_frame(&mut self, frame: Frame, port: SwitchPort) {
        let Fabric::Switch(sw) = &mut self.fabric else {
            unreachable!();
        };
        self.queue
            .settle(&mut sw.port_mut(port).tx, Event::PortTxNext { port });
        match sw.enqueue(port, frame) {
            Ok(true) => self.port_tx_next(port),
            Ok(false) => {}
            Err(()) => self.stats.switch_buffer_drops += 1,
        }
    }

    /// Begin serializing the next queued frame on a switch output port.
    fn port_tx_next(&mut self, port: SwitchPort) {
        let Fabric::Switch(sw) = &mut self.fabric else {
            unreachable!();
        };
        let Some(frame) = sw.dequeue(port) else {
            sw.port_mut(port).tx.busy = false;
            return;
        };
        let eth = &self.params.ethernet;
        let wire = eth.frame_wire_time(frame.mac_payload);
        let delivered_at = self.now + wire + eth.prop_delay;
        let next_at = self.now + wire + eth.ifg_time();
        self.queue
            .schedule(delivered_at, Event::PortDelivered { frame, port });
        let waiting = sw.queue_len(port) > 0;
        self.queue.schedule_go_idle(
            &mut sw.port_mut(port).tx,
            next_at,
            waiting,
            Event::PortTxNext { port },
        );
    }

    fn port_delivered(&mut self, frame: Frame, port: SwitchPort) {
        let host = HostId(port.0);
        if self.params.frame_loss_prob > 0.0 {
            let p = self.params.frame_loss_prob;
            if self.rng.coin(p) {
                self.stats.injected_frame_losses += 1;
                return;
            }
        }
        let accepted = frame.accepted_by(host, |g| self.hosts[host.index()].nic.is_member(g));
        if accepted {
            self.link_deliver(host, &frame);
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
    fn link_deliver(&mut self, host: HostId, frame: &Frame) {
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
