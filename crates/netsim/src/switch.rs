//! Store-and-forward Fast Ethernet switch with IGMP snooping.
//!
//! Star topology: each host hangs off its own full-duplex port, so there
//! are no collisions — the costs are serialization on two links, the
//! switch's forwarding latency, and queueing at contended output ports.
//! A managed switch (like the paper's HP ProCurve) snoops IGMP membership
//! reports and forwards multicast frames only to member ports.
//!
//! This module owns the switch's whole frame path: serializing a frame
//! onto its host's uplink, ingress (learning and snooping), forwarding,
//! the output-port queues and delivery at the far end of a port's link.
//! The [`World`](crate::world::World) hands it the [`SwitchEvent`]s and
//! the state every fabric shares; the last hop onto each host's link is
//! the world's.

use std::collections::{HashMap, VecDeque};

use crate::event::{Event, TxLine};
use crate::frame::{Frame, FrameDst, FramePayload};
use crate::ids::{GroupId, HostId, SwitchPort};
use crate::params::{SwitchMode, SwitchParams};
use crate::time::{SimDuration, SimTime};
use crate::world::Core;

/// A step of the switch's frame path.
#[derive(Debug)]
pub enum SwitchEvent {
    /// A NIC finished serializing (frame + IFG) and may start its next
    /// queued frame.
    NicTxNext {
        /// The transmitting station.
        host: HostId,
    },
    /// A host's frame arrived at the switch: its last bit, or under
    /// cut-through its header.
    Ingress {
        /// The received frame.
        frame: Frame,
        /// Ingress port.
        in_port: SwitchPort,
    },
    /// Forwarding latency elapsed; enqueue on output port(s).
    Forward {
        /// The frame to forward.
        frame: Frame,
        /// Ingress port (excluded from flooding).
        in_port: SwitchPort,
    },
    /// The last bit of a frame arrived at the host on `port`.
    PortDelivered {
        /// The delivered frame.
        frame: Frame,
        /// Egress port it was sent from.
        port: SwitchPort,
    },
    /// An output port finished (frame + IFG) and may dequeue.
    PortTxNext {
        /// The now-idle port.
        port: SwitchPort,
    },
}

/// One output port's transmit queue.
#[derive(Debug, Default)]
pub struct OutPort {
    /// Frames waiting for the wire.
    queue: VecDeque<Frame>,
    /// Queued MAC-payload bytes (for tail-drop accounting).
    queued_bytes: usize,
    /// Busy while serializing a frame onto the host link. Settle it
    /// ([`crate::event::EventQueue::settle`]) before [`OutPort::enqueue`].
    pub tx: TxLine,
}

impl OutPort {
    /// Try to enqueue `frame` under the tail-drop threshold `limit`
    /// (queued MAC-payload bytes). Returns `Ok(kick)` where `kick` is
    /// true if the port was idle (caller starts transmission), or
    /// `Err(())` on tail drop.
    #[allow(clippy::result_unit_err)]
    pub fn enqueue(&mut self, frame: Frame, limit: usize) -> Result<bool, ()> {
        let fbytes = frame.mac_payload as usize;
        if self.queued_bytes + fbytes > limit {
            return Err(());
        }
        self.queue.push_back(frame);
        self.queued_bytes += fbytes;
        Ok(!self.tx.busy)
    }

    /// Dequeue the next frame for transmission.
    pub fn dequeue(&mut self) -> Option<Frame> {
        let f = self.queue.pop_front()?;
        self.queued_bytes -= f.mac_payload as usize;
        Some(f)
    }

    /// Frames queued (excluding any in flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// Switch state: forwarding tables (MAC learning + IGMP-snooped group
/// membership), per-port output queues, and the forwarding rule.
#[derive(Debug)]
pub struct Switch {
    /// MAC learning table: station -> port, indexed by station.
    mac_table: Vec<Option<SwitchPort>>,
    /// IGMP-snooped group membership: group -> member ports, ascending
    /// (the order frames are forwarded in).
    group_table: HashMap<GroupId, Vec<SwitchPort>>,
    /// Forward no multicast frames at all (see
    /// [`SwitchParams::unicast_only`]).
    unicast_only: bool,
    /// When forwarding may begin (see [`SwitchParams::mode`]).
    mode: SwitchMode,
    /// Lookup + switching-fabric time before a frame reaches its output
    /// queues (see [`SwitchParams::forwarding_latency`]).
    forwarding_latency: SimDuration,
    /// Output ports, indexed by port number (one per host).
    ports: Vec<OutPort>,
    /// Tail-drop threshold per port, in queued MAC-payload bytes.
    buffer_limit: usize,
    /// Scratch: the output ports of the frame being forwarded.
    forward_ports: Vec<SwitchPort>,
}

impl Switch {
    /// The switch of a static star of `n` hosts, port i <-> host i, built
    /// to `params`. The learning table starts warm (as an ARP/MAC cache
    /// would be), so the first unicast of a run is not flooded to every
    /// port.
    pub fn new(n: usize, params: &SwitchParams) -> Self {
        Switch {
            mac_table: (0..n as u32).map(|i| Some(SwitchPort(i))).collect(),
            group_table: HashMap::new(),
            unicast_only: params.unicast_only,
            mode: params.mode,
            forwarding_latency: params.forwarding_latency,
            ports: (0..n).map(|_| OutPort::default()).collect(),
            buffer_limit: params.port_buffer_bytes,
            forward_ports: Vec::new(),
        }
    }

    /// Learn that `host` is reachable via `port` (called on every ingress).
    pub fn learn(&mut self, host: HostId, port: SwitchPort) {
        if host.index() >= self.mac_table.len() {
            self.mac_table.resize(host.index() + 1, None);
        }
        self.mac_table[host.index()] = Some(port);
    }

    /// Record an IGMP join snooped on `port`.
    pub fn snoop_join(&mut self, group: GroupId, port: SwitchPort) {
        let members = self.group_table.entry(group).or_default();
        if let Err(at) = members.binary_search(&port) {
            members.insert(at, port);
        }
    }

    /// Record an IGMP leave snooped on `port`.
    pub fn snoop_leave(&mut self, group: GroupId, port: SwitchPort) {
        if let Some(members) = self.group_table.get_mut(&group) {
            members.retain(|p| *p != port);
            if members.is_empty() {
                self.group_table.remove(&group);
            }
        }
    }

    /// Ports currently subscribed to `group`, ascending.
    pub fn group_members(&self, group: GroupId) -> &[SwitchPort] {
        self.group_table.get(&group).map_or(&[], Vec::as_slice)
    }

    /// Compute the forwarding set for `frame` arriving on `in_port`: the
    /// output ports to enqueue it on, ascending, appended to `out` — the
    /// caller's buffer, so that forwarding a frame (one port, for a known
    /// unicast) allocates nothing.
    pub fn forward_into(&self, frame: &Frame, in_port: SwitchPort, out: &mut Vec<SwitchPort>) {
        let all_ports = || (0..self.ports.len() as u32).map(SwitchPort);
        let elsewhere = |p: &SwitchPort| *p != in_port;
        match frame.dst {
            FrameDst::Unicast(host) => match self.mac_table.get(host.index()).copied().flatten() {
                // Destined back out the ingress port: filtered.
                Some(p) => out.extend(Some(p).filter(elsewhere)),
                None => out.extend(all_ports().filter(elsewhere)), // unknown unicast: flood
            },
            FrameDst::Multicast(_) if self.unicast_only => {}
            FrameDst::Multicast(group) => {
                out.extend(self.group_members(group).iter().copied().filter(elsewhere));
            }
            FrameDst::Broadcast => out.extend(all_ports().filter(elsewhere)),
        }
    }

    // --- the frame path ---------------------------------------------------

    /// `host`'s NIC was handed frames at `at`: if its uplink was idle it
    /// starts serializing the head frame then.
    pub(crate) fn enqueue_frames_at(
        &mut self,
        core: &mut Core,
        host: HostId,
        frames: impl IntoIterator<Item = Frame>,
        at: SimTime,
    ) {
        let next = Event::Switch(SwitchEvent::NicTxNext { host });
        core.queue
            .settle(&mut core.hosts[host.index()].nic.tx, next);
        if core.nic_enqueue(host, frames) {
            let next = Event::Switch(SwitchEvent::NicTxNext { host });
            core.queue.schedule(at, next);
        }
    }

    /// Handle one step of the frame path.
    pub(crate) fn handle(&mut self, core: &mut Core, event: SwitchEvent) {
        match event {
            SwitchEvent::NicTxNext { host } => self.nic_tx_next(core, host),
            SwitchEvent::Ingress { frame, in_port } => self.ingress(core, frame, in_port),
            SwitchEvent::Forward { frame, in_port } => self.forward(core, frame, in_port),
            SwitchEvent::PortDelivered { frame, port } => port_delivered(core, &frame, port),
            SwitchEvent::PortTxNext { port } => self.port_tx_next(core, port),
        }
    }

    /// Begin serializing the next queued frame on a host uplink.
    fn nic_tx_next(&mut self, core: &mut Core, host: HostId) {
        let nic = &mut core.hosts[host.index()].nic;
        let Some(frame) = nic.pop_head() else {
            nic.tx.busy = false;
            return;
        };
        let eth = &core.params.ethernet;
        let wire = eth.frame_wire_time(frame.mac_payload);
        // Cut-through switches start forwarding once the header is in;
        // store-and-forward waits for the whole frame.
        let ingress_after = match self.mode {
            SwitchMode::StoreAndForward => wire,
            SwitchMode::CutThrough { header_bytes } => {
                let header = eth.preamble_bytes + header_bytes;
                eth.byte_time(u64::from(
                    header.min(eth.frame_wire_bytes(frame.mac_payload)),
                ))
            }
        };
        let ingress_at = core.now + ingress_after + eth.prop_delay;
        let next_at = core.now + wire + eth.ifg_time();
        core.tx_start(host, &frame);
        let in_port = SwitchPort(host.0);
        core.queue.schedule(
            ingress_at,
            Event::Switch(SwitchEvent::Ingress { frame, in_port }),
        );
        let nic = &mut core.hosts[host.index()].nic;
        let waiting = nic.head().is_some();
        let next = Event::Switch(SwitchEvent::NicTxNext { host });
        core.queue
            .schedule_go_idle(&mut nic.tx, next_at, waiting, next);
    }

    fn ingress(&mut self, core: &mut Core, frame: Frame, in_port: SwitchPort) {
        self.learn(frame.src, in_port);
        match &frame.payload {
            // Snooped and consumed by the managed switch.
            FramePayload::IgmpJoin { group } => self.snoop_join(*group, in_port),
            FramePayload::Fragment { .. } => {
                let at = core.now + self.forwarding_latency;
                let forward = Event::Switch(SwitchEvent::Forward { frame, in_port });
                core.queue.schedule(at, forward);
            }
        }
    }

    fn forward(&mut self, core: &mut Core, frame: Frame, in_port: SwitchPort) {
        if self.unicast_only && matches!(frame.dst, FrameDst::Multicast(_)) {
            core.stats.unicast_only_drops += 1;
            return;
        }
        let mut ports = std::mem::take(&mut self.forward_ports);
        self.forward_into(&frame, in_port, &mut ports);
        for port in ports.drain(..) {
            self.port_enqueue_frame(core, frame.clone(), port);
        }
        self.forward_ports = ports;
    }

    /// Enqueue on a single output port, kicking transmission if idle.
    fn port_enqueue_frame(&mut self, core: &mut Core, frame: Frame, port: SwitchPort) {
        let out = &mut self.ports[port.index()];
        let next = Event::Switch(SwitchEvent::PortTxNext { port });
        core.queue.settle(&mut out.tx, next);
        match out.enqueue(frame, self.buffer_limit) {
            Ok(true) => self.port_tx_next(core, port),
            Ok(false) => {}
            Err(()) => core.stats.switch_buffer_drops += 1,
        }
    }

    /// Begin serializing the next queued frame on a switch output port.
    fn port_tx_next(&mut self, core: &mut Core, port: SwitchPort) {
        let out = &mut self.ports[port.index()];
        let Some(frame) = out.dequeue() else {
            out.tx.busy = false;
            return;
        };
        let eth = &core.params.ethernet;
        let wire = eth.frame_wire_time(frame.mac_payload);
        let delivered_at = core.now + wire + eth.prop_delay;
        let next_at = core.now + wire + eth.ifg_time();
        core.queue.schedule(
            delivered_at,
            Event::Switch(SwitchEvent::PortDelivered { frame, port }),
        );
        let waiting = out.queue_len() > 0;
        let next = Event::Switch(SwitchEvent::PortTxNext { port });
        core.queue
            .schedule_go_idle(&mut out.tx, next_at, waiting, next);
    }
}

/// The last bit of `frame` reached the host on `port`: its NIC filter
/// decides, then the world's last hop.
fn port_delivered(core: &mut Core, frame: &Frame, port: SwitchPort) {
    let host = HostId(port.0);
    if frame.accepted_by(host, |g| core.hosts[host.index()].nic.is_member(g)) {
        core.link_deliver(host, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The forwarding set as its own `Vec`.
    fn forward_set(sw: &Switch, frame: &Frame, in_port: SwitchPort) -> Vec<SwitchPort> {
        let mut ports = Vec::new();
        sw.forward_into(frame, in_port, &mut ports);
        ports
    }

    fn switch(n: usize) -> Switch {
        Switch::new(n, &SwitchParams::default())
    }

    fn frame(dst: FrameDst, bytes: u32) -> Frame {
        Frame {
            id: 0,
            src: HostId(0),
            dst,
            mac_payload: bytes,
            payload: FramePayload::IgmpJoin { group: GroupId(0) },
        }
    }

    #[test]
    fn known_unicast_goes_to_learned_port() {
        let mut sw = switch(4);
        sw.learn(HostId(2), SwitchPort(2));
        let f = frame(FrameDst::Unicast(HostId(2)), 100);
        assert_eq!(forward_set(&sw, &f, SwitchPort(0)), vec![SwitchPort(2)]);
    }

    #[test]
    fn unknown_unicast_floods() {
        let sw = switch(3);
        let f = frame(FrameDst::Unicast(HostId(9)), 100);
        assert_eq!(
            forward_set(&sw, &f, SwitchPort(1)),
            vec![SwitchPort(0), SwitchPort(2)]
        );
    }

    #[test]
    fn unicast_back_out_ingress_is_filtered() {
        let mut sw = switch(2);
        sw.learn(HostId(1), SwitchPort(1));
        let f = frame(FrameDst::Unicast(HostId(1)), 64);
        assert!(forward_set(&sw, &f, SwitchPort(1)).is_empty());
    }

    #[test]
    fn multicast_follows_snooped_membership() {
        let mut sw = switch(4);
        sw.snoop_join(GroupId(5), SwitchPort(1));
        sw.snoop_join(GroupId(5), SwitchPort(3));
        let f = frame(FrameDst::Multicast(GroupId(5)), 100);
        // Ingress port 1 is excluded even though it is a member.
        assert_eq!(forward_set(&sw, &f, SwitchPort(1)), vec![SwitchPort(3)]);
        assert_eq!(
            forward_set(&sw, &f, SwitchPort(0)),
            vec![SwitchPort(1), SwitchPort(3)]
        );
    }

    #[test]
    fn multicast_without_members_goes_nowhere() {
        let sw = switch(4);
        let f = frame(FrameDst::Multicast(GroupId(9)), 100);
        assert!(forward_set(&sw, &f, SwitchPort(0)).is_empty());
    }

    #[test]
    fn leave_removes_membership() {
        let mut sw = switch(4);
        sw.snoop_join(GroupId(1), SwitchPort(0));
        sw.snoop_join(GroupId(1), SwitchPort(2));
        sw.snoop_leave(GroupId(1), SwitchPort(0));
        assert_eq!(sw.group_members(GroupId(1)), vec![SwitchPort(2)]);
        sw.snoop_leave(GroupId(1), SwitchPort(2));
        assert!(sw.group_members(GroupId(1)).is_empty());
    }

    #[test]
    fn tail_drop_when_buffer_full() {
        let mut port = OutPort::default();
        let f = || frame(FrameDst::Broadcast, 100);
        assert_eq!(port.enqueue(f(), 150), Ok(true));
        assert!(port.enqueue(f(), 150).is_err(), "over limit");
        // Draining frees space.
        assert!(port.dequeue().is_some());
        assert_eq!(port.enqueue(f(), 150), Ok(true));
    }

    #[test]
    fn enqueue_reports_busy_port() {
        let mut port = OutPort::default();
        port.tx.busy = true;
        let f = frame(FrameDst::Broadcast, 64);
        assert_eq!(port.enqueue(f, 1 << 20), Ok(false));
        assert_eq!(port.queue_len(), 1);
    }

    #[test]
    fn dequeue_fifo_order() {
        let mut port = OutPort::default();
        for i in 0..3 {
            let mut f = frame(FrameDst::Broadcast, 64);
            f.id = i;
            port.enqueue(f, 1 << 20).unwrap();
        }
        assert_eq!(port.dequeue().unwrap().id, 0);
        assert_eq!(port.dequeue().unwrap().id, 1);
        assert_eq!(port.dequeue().unwrap().id, 2);
        assert!(port.dequeue().is_none());
    }
}
