//! Sub-communicators: run a collective over a subset of ranks.
//!
//! [`GroupComm`] adapts a parent [`Comm`] to a member subset, translating
//! group ranks to world ranks and shifting the tag space so concurrent
//! groups cannot cross-match (the MPI communicator-context idea, realized
//! with tags because the wire context id is fixed per transport).
//!
//! Multicast within a group is emulated with unicast fan-out: IP-level
//! multicast would reach non-members of the subgroup whose inboxes would
//! then grow without bound, so — like many MPI implementations on
//! sub-communicators — the group falls back to point-to-point for
//! one-to-all sends. All collectives remain correct; only the multicast
//! acceleration is limited to the world communicator.

use std::time::Duration;

use mmpi_transport::{CancelSink, Comm, RecvError, RecvReq, SendReq, SendWindowFull, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

/// Rank and tag translation between a member subset and its parent
/// communicator — the part [`GroupComm`] and [`crate::ShrunkComm`] share.
pub(crate) struct Mapping {
    /// Parent ranks of the members, sorted; position = local rank.
    pub(crate) members: Vec<usize>,
    /// This process's rank within the subset.
    pub(crate) my_rank: usize,
    /// Tag-space shift separating this subset's traffic.
    pub(crate) tag_shift: Tag,
}

impl Mapping {
    /// `members` must be sorted, unique, and hold `parent_rank`.
    pub(crate) fn new(members: Vec<usize>, parent_rank: usize, tag_shift: Tag) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let my_rank = members
            .iter()
            .position(|&m| m == parent_rank)
            .expect("calling process must be a member of the group");
        Mapping {
            members,
            my_rank,
            tag_shift,
        }
    }

    pub(crate) fn shift(&self, tag: Tag) -> Tag {
        tag.wrapping_add(self.tag_shift)
    }

    fn local_rank(&self, parent_src: u32) -> u32 {
        self.members
            .iter()
            .position(|&m| m == parent_src as usize)
            .expect("message from a non-member matched inside the subset") as u32
    }

    pub(crate) fn local_message(&self, mut m: Message) -> Message {
        m.tag = m.tag.wrapping_sub(self.tag_shift);
        m.src_rank = self.local_rank(m.src_rank);
        m
    }

    pub(crate) fn local_error(&self, e: RecvError) -> RecvError {
        match e {
            RecvError::Unavailable {
                src,
                tag,
                tag_floor,
            } => RecvError::Unavailable {
                src: self.local_rank(src),
                tag: tag.wrapping_sub(self.tag_shift),
                // The floor lives in the parent's tag space; translate it
                // the same way so the caller compares like with like.
                tag_floor: tag_floor.wrapping_sub(self.tag_shift),
            },
            // Failures surface only on receives directed at members, so
            // the failed rank always translates into local coordinates.
            RecvError::PeerFailed { rank, epoch } => RecvError::PeerFailed {
                rank: self.local_rank(rank),
                epoch,
            },
            // Only members are waited for, so only a member goes silent.
            RecvError::Unreachable { src, rounds } => RecvError::Unreachable {
                src: self.local_rank(src),
                rounds,
            },
        }
    }

    pub(crate) fn local_result(&self, r: Result<Message, RecvError>) -> Result<Message, RecvError> {
        r.map(|m| self.local_message(m))
            .map_err(|e| self.local_error(e))
    }

    /// [`Mapping::local_result`] for [`Comm::wait_deadline`]'s shape.
    pub(crate) fn local_timed(
        &self,
        r: Result<Option<Message>, RecvError>,
    ) -> Result<Option<Message>, RecvError> {
        r.map(|m| m.map(|m| self.local_message(m)))
            .map_err(|e| self.local_error(e))
    }

    /// The members among `parent_ranks` (failed or departed peers as the
    /// parent reports them), in local coordinates: only members matter.
    pub(crate) fn local_peers(&self, parent_ranks: Vec<usize>) -> Vec<usize> {
        parent_ranks
            .into_iter()
            .filter_map(|w| self.members.iter().position(|&m| m == w))
            .collect()
    }
}

/// A communicator over a subset of a parent communicator's ranks.
///
/// Borrowing: the group holds the parent mutably for its lifetime —
/// collectives on the parent and the group cannot interleave, which also
/// enforces the MPI rule that a process participates in one collective at
/// a time.
pub struct GroupComm<'a, C: Comm> {
    parent: &'a mut C,
    map: Mapping,
}

impl<'a, C: Comm> GroupComm<'a, C> {
    /// Build a group over `members` (world ranks, must be sorted, unique,
    /// and include the calling process). `group_id` separates the tag
    /// spaces of simultaneously existing groups — every member must pass
    /// the same value.
    pub fn new(parent: &'a mut C, members: &[usize], group_id: u16) -> Self {
        assert!(!members.is_empty(), "group cannot be empty");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and unique"
        );
        assert!(
            *members.last().unwrap() < parent.size(),
            "member rank out of range"
        );
        // High bits far above the communicator's op-sequence space.
        let tag_shift = 0x4000_0000u32.wrapping_add((group_id as u32) << 16);
        let map = Mapping::new(members.to_vec(), parent.rank(), tag_shift);
        GroupComm { parent, map }
    }

    /// Split helper mirroring `MPI_Comm_split` with an externally agreed
    /// color map: `colors[world_rank]` assigns each process a color; the
    /// returned group contains every rank sharing this process's color.
    pub fn split(parent: &'a mut C, colors: &[u32], group_id: u16) -> Self {
        assert_eq!(colors.len(), parent.size(), "one color per world rank");
        let mine = colors[parent.rank()];
        let members: Vec<usize> = (0..colors.len()).filter(|&r| colors[r] == mine).collect();
        GroupComm::new(parent, &members, group_id)
    }

    /// World rank of group member `group_rank`.
    pub fn world_rank_of(&self, group_rank: usize) -> usize {
        self.map.members[group_rank]
    }

    /// The member list (world ranks).
    pub fn members(&self) -> &[usize] {
        &self.map.members
    }
}

impl<C: Comm> Comm for GroupComm<'_, C> {
    fn rank(&self) -> usize {
        self.map.my_rank
    }

    fn size(&self) -> usize {
        self.map.members.len()
    }

    fn context(&self) -> u32 {
        self.parent.context()
    }

    fn multicast_capable(&self) -> bool {
        self.parent.multicast_capable()
    }

    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        let t = self.map.shift(tag);
        self.parent
            .send_kind(self.map.members[dst], t, kind, payload)
    }

    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        // Unicast fan-out within the group (see module docs).
        let t = self.map.shift(tag);
        let mut last_seq = 0;
        for g in 0..self.map.members.len() {
            if g != self.map.my_rank {
                last_seq = self.parent.send_kind(self.map.members[g], t, kind, payload);
            }
        }
        last_seq
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, _seq: u64) {
        // Fan-out again; per-destination sequence numbers are fresh, so
        // receivers treat it as a new message (fan-out unicast is already
        // reliable in order of the underlying transport's semantics).
        self.mcast_kind(tag, kind, payload);
    }

    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        let world = src.map(|s| self.map.members[s]);
        self.parent.post_recv(world, self.map.shift(tag))
    }

    fn progress(&mut self) {
        self.parent.progress();
    }

    fn progress_block(&mut self) {
        self.parent.progress_block();
    }

    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        self.parent.wait_ready(reqs);
    }

    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        let done = self.parent.test_claimed(req)?;
        Some(self.map.local_result(done))
    }

    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        let done = self.parent.wait_deadline(req, timeout);
        self.map.local_timed(done)
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.parent.cancel_recv(req);
    }

    fn cancel_sink(&self) -> CancelSink {
        // Handles are the parent's; the shared sink cancels them there.
        self.parent.cancel_sink()
    }

    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        let t = self.map.shift(tag);
        self.parent.try_post_send(self.map.members[dst], t, payload)
    }

    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        // Unicast fan-out, nonblocking: give up on the first full window
        // (already-sent copies stand — same partial-progress semantics as
        // a blocked fan-out interrupted mid-loop).
        let t = self.map.shift(tag);
        let mut last = SendReq::default();
        for g in 0..self.map.members.len() {
            if g != self.map.my_rank {
                last = self.parent.try_post_send(self.map.members[g], t, payload)?;
            }
        }
        Ok(last)
    }

    fn compute(&mut self, d: Duration) {
        self.parent.compute(d);
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.parent.tcp_ack_model(self.map.members[dst], count);
    }

    fn failed_peers(&self) -> Vec<usize> {
        self.map.local_peers(self.parent.failed_peers())
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.map.local_peers(self.parent.departed_peers())
    }

    fn epoch(&self) -> u32 {
        self.parent.epoch()
    }

    fn declare_failed(&mut self, rank: usize) {
        self.parent.declare_failed(self.map.members[rank]);
    }

    // `leave`/`rebase_epoch` deliberately keep the no-op defaults: a
    // group is a borrowed view, and departing or re-contexting the
    // *world* endpoint from inside one would outlive the view's scope.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Communicator;
    use mmpi_transport::run_mem_world;

    #[test]
    fn split_by_parity_and_bcast_within_groups() {
        let out = run_mem_world(6, 0, |mut c| {
            let colors: Vec<u32> = (0..6).map(|r| (r % 2) as u32).collect();
            let group = GroupComm::split(&mut c, &colors, 1);
            let leader_world = group.world_rank_of(0);
            let mut comm = Communicator::new(group);
            let mut buf = if comm.rank() == 0 {
                vec![leader_world as u8; 100]
            } else {
                Vec::new()
            };
            comm.bcast(0, &mut buf).unwrap();
            buf[0]
        });
        // Evens hear from world rank 0; odds from world rank 1.
        assert_eq!(out, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn group_allreduce_sums_only_members() {
        let out = run_mem_world(5, 0, |mut c| {
            // Group = {1, 3, 4}; rank 0 and 2 run their own group {0, 2}.
            let in_a = [1usize, 3, 4].contains(&c.rank());
            let members: Vec<usize> = if in_a { vec![1, 3, 4] } else { vec![0, 2] };
            let gid = if in_a { 7 } else { 8 };
            let world_rank = c.rank();
            let group = GroupComm::new(&mut c, &members, gid);
            let mut comm = Communicator::new(group);
            let s = comm
                .allreduce(
                    (world_rank as u64).to_le_bytes().to_vec(),
                    &crate::combine_u64_sum,
                )
                .unwrap();
            u64::from_le_bytes(s[..8].try_into().unwrap())
        });
        assert_eq!(out, vec![2, 8, 2, 8, 8]);
    }

    #[test]
    fn concurrent_groups_do_not_cross_match() {
        // Two disjoint groups running *different* collective sequences at
        // the same time: tag shifting must isolate them.
        let out = run_mem_world(4, 0, |mut c| {
            let in_low = c.rank() < 2;
            let members: Vec<usize> = if in_low { vec![0, 1] } else { vec![2, 3] };
            let gid = if in_low { 1 } else { 2 };
            let group = GroupComm::new(&mut c, &members, gid);
            let mut comm = Communicator::new(group);
            if in_low {
                // Low group: three barriers.
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
                0u64
            } else {
                // High group: bcast + allreduce.
                let mut b = if comm.rank() == 0 {
                    vec![5u8; 64]
                } else {
                    Vec::new()
                };
                comm.bcast(0, &mut b).unwrap();
                let s = comm
                    .allreduce(9u64.to_le_bytes().to_vec(), &crate::combine_u64_sum)
                    .unwrap();
                u64::from_le_bytes(s[..8].try_into().unwrap()) + b[0] as u64
            }
        });
        assert_eq!(out, vec![0, 0, 23, 23]);
    }

    #[test]
    fn group_gather_and_barrier_work() {
        let out = run_mem_world(6, 0, |mut c| {
            let members = vec![0usize, 2, 5];
            if !members.contains(&c.rank()) {
                return 0usize;
            }
            let group = GroupComm::new(&mut c, &members, 3);
            let mut comm = Communicator::new(group);
            let g = comm.gather(0, &[comm.rank() as u8]).unwrap();
            comm.barrier().unwrap();
            g.map(|parts| parts.len()).unwrap_or(0)
        });
        assert_eq!(out, vec![3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "must be a member")]
    fn non_member_construction_panics() {
        let mut comms = mmpi_transport::MemComm::world(3, 0);
        let mut rank2 = comms.pop().unwrap();
        let _ = GroupComm::new(&mut rank2, &[0, 1], 1);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_members_panic() {
        let mut comms = mmpi_transport::MemComm::world(3, 0);
        let mut rank0 = comms.remove(0);
        let _ = GroupComm::new(&mut rank0, &[1, 0], 1);
    }
}
