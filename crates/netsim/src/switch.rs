//! Store-and-forward Fast Ethernet switch with IGMP snooping.
//!
//! Star topology: each host hangs off its own full-duplex port, so there
//! are no collisions — the costs are serialization on two links, the
//! switch's forwarding latency, and queueing at contended output ports.
//! A managed switch (like the paper's HP ProCurve) snoops IGMP membership
//! reports and forwards multicast frames only to member ports; an unmanaged
//! one floods them everywhere.

use std::collections::{HashMap, VecDeque};

use crate::event::TxLine;
use crate::frame::Frame;
use crate::ids::{GroupId, HostId, SwitchPort};

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
/// membership) plus per-port output queues.
#[derive(Debug)]
pub struct Switch {
    /// MAC learning table: station -> port, indexed by station.
    mac_table: Vec<Option<SwitchPort>>,
    /// IGMP-snooped group membership: group -> member ports, ascending
    /// (the order frames are forwarded in).
    group_table: HashMap<GroupId, Vec<SwitchPort>>,
    /// Flood multicast instead of snooping.
    flood_multicast: bool,
    /// Forward no multicast frames at all (see
    /// [`crate::params::SwitchParams::unicast_only`]).
    unicast_only: bool,
    /// Output ports, indexed by port number (one per host).
    ports: Vec<OutPort>,
    /// Tail-drop threshold per port, in queued MAC-payload bytes.
    buffer_limit: usize,
}

impl Switch {
    /// A switch with `n_ports` host ports.
    pub fn new(n_ports: usize, buffer_limit: usize, flood_multicast: bool) -> Self {
        Switch {
            mac_table: Vec::new(),
            group_table: HashMap::new(),
            flood_multicast,
            unicast_only: false,
            ports: (0..n_ports).map(|_| OutPort::default()).collect(),
            buffer_limit,
        }
    }

    /// Enable (or disable) unicast-only mode: multicast frames get an
    /// empty forwarding set. Callers count the suppressed frames
    /// themselves (per ingress frame, not per port).
    pub fn set_unicast_only(&mut self, on: bool) {
        self.unicast_only = on;
    }

    /// True when multicast forwarding is disabled.
    pub fn unicast_only(&self) -> bool {
        self.unicast_only
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
        use crate::frame::FrameDst::*;
        let all_ports = || (0..self.ports.len() as u32).map(SwitchPort);
        let elsewhere = |p: &SwitchPort| *p != in_port;
        match frame.dst {
            Unicast(host) => match self.mac_table.get(host.index()).copied().flatten() {
                // Destined back out the ingress port: filtered.
                Some(p) => out.extend(Some(p).filter(elsewhere)),
                None => out.extend(all_ports().filter(elsewhere)), // unknown unicast: flood
            },
            Multicast(_) if self.unicast_only => {}
            Multicast(group) if !self.flood_multicast => {
                out.extend(self.group_members(group).iter().copied().filter(elsewhere));
            }
            Multicast(_) | Broadcast => out.extend(all_ports().filter(elsewhere)),
        }
    }

    /// Try to enqueue `frame` on `port`. Returns `Ok(kick)` where `kick` is
    /// true if the port was idle (caller starts transmission), or
    /// `Err(TailDrop)` when the port buffer is full.
    #[allow(clippy::result_unit_err)]
    pub fn enqueue(&mut self, port: SwitchPort, frame: Frame) -> Result<bool, ()> {
        let limit = self.buffer_limit;
        self.ports[port.index()].enqueue(frame, limit)
    }

    /// Dequeue the next frame on `port` for transmission.
    pub fn dequeue(&mut self, port: SwitchPort) -> Option<Frame> {
        self.ports[port.index()].dequeue()
    }

    /// Mutable access to a port (for the busy flag).
    pub fn port_mut(&mut self, port: SwitchPort) -> &mut OutPort {
        &mut self.ports[port.index()]
    }

    /// Frames queued on `port` (excluding any in flight).
    pub fn queue_len(&self, port: SwitchPort) -> usize {
        self.ports[port.index()].queue_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameDst, FramePayload};

    /// The forwarding set as its own `Vec`.
    fn forward_set(sw: &Switch, frame: &Frame, in_port: SwitchPort) -> Vec<SwitchPort> {
        let mut ports = Vec::new();
        sw.forward_into(frame, in_port, &mut ports);
        ports
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
        let mut sw = Switch::new(4, 1 << 20, false);
        sw.learn(HostId(2), SwitchPort(2));
        let f = frame(FrameDst::Unicast(HostId(2)), 100);
        assert_eq!(forward_set(&sw, &f, SwitchPort(0)), vec![SwitchPort(2)]);
    }

    #[test]
    fn unknown_unicast_floods() {
        let sw = Switch::new(3, 1 << 20, false);
        let f = frame(FrameDst::Unicast(HostId(9)), 100);
        assert_eq!(
            forward_set(&sw, &f, SwitchPort(1)),
            vec![SwitchPort(0), SwitchPort(2)]
        );
    }

    #[test]
    fn unicast_back_out_ingress_is_filtered() {
        let mut sw = Switch::new(2, 1 << 20, false);
        sw.learn(HostId(1), SwitchPort(1));
        let f = frame(FrameDst::Unicast(HostId(1)), 64);
        assert!(forward_set(&sw, &f, SwitchPort(1)).is_empty());
    }

    #[test]
    fn multicast_follows_snooped_membership() {
        let mut sw = Switch::new(4, 1 << 20, false);
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
        let sw = Switch::new(4, 1 << 20, false);
        let f = frame(FrameDst::Multicast(GroupId(9)), 100);
        assert!(forward_set(&sw, &f, SwitchPort(0)).is_empty());
    }

    #[test]
    fn unmanaged_switch_floods_multicast() {
        let sw = Switch::new(3, 1 << 20, true);
        let f = frame(FrameDst::Multicast(GroupId(9)), 100);
        assert_eq!(
            forward_set(&sw, &f, SwitchPort(2)),
            vec![SwitchPort(0), SwitchPort(1)]
        );
    }

    #[test]
    fn leave_removes_membership() {
        let mut sw = Switch::new(4, 1 << 20, false);
        sw.snoop_join(GroupId(1), SwitchPort(0));
        sw.snoop_join(GroupId(1), SwitchPort(2));
        sw.snoop_leave(GroupId(1), SwitchPort(0));
        assert_eq!(sw.group_members(GroupId(1)), vec![SwitchPort(2)]);
        sw.snoop_leave(GroupId(1), SwitchPort(2));
        assert!(sw.group_members(GroupId(1)).is_empty());
    }

    #[test]
    fn tail_drop_when_buffer_full() {
        let mut sw = Switch::new(1, 150, false);
        let f = || frame(FrameDst::Broadcast, 100);
        assert_eq!(sw.enqueue(SwitchPort(0), f()), Ok(true));
        assert!(sw.enqueue(SwitchPort(0), f()).is_err(), "over limit");
        // Draining frees space.
        assert!(sw.dequeue(SwitchPort(0)).is_some());
        assert_eq!(sw.enqueue(SwitchPort(0), f()), Ok(true));
    }

    #[test]
    fn enqueue_reports_busy_port() {
        let mut sw = Switch::new(1, 1 << 20, false);
        sw.port_mut(SwitchPort(0)).tx.busy = true;
        assert_eq!(
            sw.enqueue(SwitchPort(0), frame(FrameDst::Broadcast, 64)),
            Ok(false)
        );
        assert_eq!(sw.queue_len(SwitchPort(0)), 1);
    }

    #[test]
    fn dequeue_fifo_order() {
        let mut sw = Switch::new(1, 1 << 20, false);
        for i in 0..3 {
            let mut f = frame(FrameDst::Broadcast, 64);
            f.id = i;
            sw.enqueue(SwitchPort(0), f).unwrap();
        }
        assert_eq!(sw.dequeue(SwitchPort(0)).unwrap().id, 0);
        assert_eq!(sw.dequeue(SwitchPort(0)).unwrap().id, 1);
        assert_eq!(sw.dequeue(SwitchPort(0)).unwrap().id, 2);
        assert!(sw.dequeue(SwitchPort(0)).is_none());
    }
}
