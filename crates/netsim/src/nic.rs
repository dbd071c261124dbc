//! Network interface card model.
//!
//! Each host owns one NIC. The NIC holds a FIFO of outbound frames, the
//! multicast address filter, and — on the hub fabric — the CSMA/CD
//! transmit-attempt state (attempt counter for binary exponential backoff).

use std::collections::VecDeque;

use crate::event::TxLine;
use crate::frame::Frame;
use crate::ids::GroupId;

/// Transmit-side state of a NIC.
#[derive(Debug, Default)]
pub struct Nic {
    /// Outbound frames, in order.
    tx_queue: VecDeque<Frame>,
    /// Busy while the NIC is serializing a frame (switch mode) or has a
    /// frame submitted to hub arbitration (hub mode). Settle it
    /// ([`crate::event::EventQueue::settle`]) before [`Nic::enqueue`].
    pub tx: TxLine,
    /// CSMA/CD attempt count for the head-of-line frame (hub mode).
    pub attempts: u32,
    /// Multicast groups whose frames the address filter accepts: a
    /// handful at most, scanned once per multicast frame.
    groups: Vec<GroupId>,
}

impl Nic {
    /// New idle NIC with an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a frame for transmission. Returns true if the NIC was idle and
    /// the caller should kick off transmission.
    pub fn enqueue(&mut self, frame: Frame) -> bool {
        self.tx_queue.push_back(frame);
        !self.tx.busy
    }

    /// Look at the head-of-line frame without removing it.
    pub fn head(&self) -> Option<&Frame> {
        self.tx_queue.front()
    }

    /// Remove the head-of-line frame (transmission finished or abandoned)
    /// and reset the attempt counter.
    pub fn pop_head(&mut self) -> Option<Frame> {
        self.attempts = 0;
        self.tx_queue.pop_front()
    }

    /// Frames waiting (including any currently transmitting head).
    pub fn queue_len(&self) -> usize {
        self.tx_queue.len()
    }

    /// Join a multicast group (address-filter level).
    pub fn join(&mut self, group: GroupId) {
        if !self.is_member(group) {
            self.groups.push(group);
        }
    }

    /// Leave a multicast group.
    pub fn leave(&mut self, group: GroupId) {
        self.groups.retain(|g| *g != group);
    }

    /// True if the address filter accepts frames for `group`.
    pub fn is_member(&self, group: GroupId) -> bool {
        self.groups.contains(&group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameDst, FramePayload};
    use crate::ids::HostId;

    fn frame(id: u64) -> Frame {
        Frame {
            id,
            src: HostId(0),
            dst: FrameDst::Broadcast,
            mac_payload: 46,
            payload: FramePayload::IgmpJoin { group: GroupId(0) },
        }
    }

    #[test]
    fn enqueue_reports_idle_transition() {
        let mut nic = Nic::new();
        assert!(nic.enqueue(frame(1)), "idle NIC should need a kick");
        nic.tx.busy = true;
        assert!(!nic.enqueue(frame(2)), "busy NIC should not");
        assert_eq!(nic.queue_len(), 2);
    }

    #[test]
    fn pop_resets_attempts_and_fifo_order() {
        let mut nic = Nic::new();
        nic.enqueue(frame(1));
        nic.enqueue(frame(2));
        nic.attempts = 5;
        assert_eq!(nic.pop_head().unwrap().id, 1);
        assert_eq!(nic.attempts, 0);
        assert_eq!(nic.head().unwrap().id, 2);
    }

    #[test]
    fn membership_filter() {
        let mut nic = Nic::new();
        assert!(!nic.is_member(GroupId(1)));
        nic.join(GroupId(1));
        assert!(nic.is_member(GroupId(1)));
        nic.leave(GroupId(1));
        assert!(!nic.is_member(GroupId(1)));
    }
}
