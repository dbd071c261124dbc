//! ULFM-style communicator shrink: survivor agreement and the
//! rank-compacted communicator it produces.
//!
//! When the transport's membership layer (`docs/PROTOCOL.md` §10)
//! confirms a peer dead, collectives start failing with
//! [`RecvError::PeerFailed`]. Recovery follows the MPI ULFM recipe:
//! every survivor calls [`Communicator::shrink`], which runs one
//! deterministic agreement round over the overheard failure sets and
//! rebuilds the group as a [`ShrunkComm`] with compacted ranks and a
//! bumped liveness epoch. The epoch is stamped into the transport's
//! message context ([`Comm::rebase_epoch`]), so stragglers from the old
//! group can never match new-epoch receives.
//!
//! ## The agreement round
//!
//! Symmetric all-to-all voting — no coordinator, so there is no
//! coordinator to lose mid-round:
//!
//! 1. each survivor sends its local failure view (confirmed failures ∪
//!    graceful departures) to every rank it believes alive, on a tag
//!    derived from the current epoch;
//! 2. it then waits for the matching vote from each of those ranks. A
//!    wait that completes with [`RecvError::PeerFailed`] *is* a vote:
//!    the rank died, and the local detector has confirmed it;
//! 3. the final failure set is the union of every vote received plus
//!    the failures discovered while waiting. Every actual crash is
//!    either in some survivor's vote (flooded announcements converge)
//!    or confirmed by each waiter's own detector in step 2, so all
//!    survivors compute the same union — deterministically, with no
//!    tie to break.
//!
//! The round leans on the detector's *no-false-positive* discipline: a
//! rank named in any vote is treated as dead even if its process still
//! runs (the ULFM stance — suspected means excluded). Conversely a
//! false positive naming *us* is ignored by the membership layer, but a
//! vote round held together by one would exclude a live rank; the
//! suspicion bounds in [`mmpi_transport::RepairConfig`] are sized
//! so heartbeats always outrun them.

use std::collections::BTreeSet;
use std::time::Duration;

use mmpi_transport::{CancelSink, Comm, RecvError, RecvReq, SendReq, SendWindowFull, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::communicator::Communicator;
use crate::group::Mapping;

/// Tag space reserved for shrink votes, far above the collective
/// op-sequence layout (`crate::tags`) and distinct from the group shift
/// (`0x4000_0000`). Successive shrinks use distinct tags (epoch in bits
/// 4..16), so a straggling vote from an earlier round — possible on the
/// mem transport, whose context never changes — cannot match.
const SHRINK_TAG_BASE: Tag = 0x7F00_0000;

fn vote_tag(epoch: u32) -> Tag {
    SHRINK_TAG_BASE | ((epoch & 0x0FFF) << 4)
}

/// Vote body: the epoch voted in plus the sender's failure view.
/// Deliberately not [`mmpi_wire::FailureAnnouncePayload`]: votes are
/// point-to-point data (repair-protected, any size), not flooded
/// control datagrams, so the announce rank cap does not apply.
fn encode_vote(epoch: u32, failed: &BTreeSet<u32>) -> Bytes {
    let mut buf = Vec::with_capacity(8 + failed.len() * 4);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(failed.len() as u32).to_le_bytes());
    for r in failed {
        buf.extend_from_slice(&r.to_le_bytes());
    }
    Bytes::from(buf)
}

fn decode_vote(payload: &[u8]) -> Vec<u32> {
    if payload.len() < 8 {
        return Vec::new();
    }
    let count = u32::from_le_bytes(payload[4..8].try_into().expect("checked")) as usize;
    payload[8..]
        .chunks_exact(4)
        .take(count)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunked")))
        .collect()
}

/// A communicator transport over the survivors of a failed group.
///
/// Like [`crate::GroupComm`] this translates member ranks to parent
/// (pre-shrink) ranks and shifts the tag space (one shared mapping does
/// both for the two of them) — but it *owns* the
/// parent transport (the old communicator is consumed; there is nothing
/// to go back to), and it keeps real multicast: every non-member is
/// dead or departed, so a wire-level multicast reaches exactly the
/// members and cannot grow a bystander's inbox.
pub struct ShrunkComm<C: Comm> {
    parent: C,
    /// Survivors' parent ranks ↔ new ranks, and this epoch's tag shift.
    map: Mapping,
    /// The liveness epoch this group was formed in.
    epoch: u32,
}

impl<C: Comm> ShrunkComm<C> {
    fn new(parent: C, members: Vec<usize>, epoch: u32) -> Self {
        // Epoch in the high bits: tags of successive shrinks differ
        // even on transports whose context never changes.
        let tag_shift = 0x2000_0000u32.wrapping_add(epoch.wrapping_shl(16));
        let map = Mapping::new(members, parent.rank(), tag_shift);
        ShrunkComm { parent, map, epoch }
    }

    /// The survivor list (parent ranks, sorted).
    pub fn members(&self) -> &[usize] {
        &self.map.members
    }

    /// The epoch this group was formed in.
    pub fn formed_epoch(&self) -> u32 {
        self.epoch
    }

    /// The underlying (pre-shrink) transport.
    pub fn parent(&self) -> &C {
        &self.parent
    }
}

impl<C: Comm> Comm for ShrunkComm<C> {
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
        // Real multicast (see type docs): the dead can't overhear.
        self.parent.mcast_kind(self.map.shift(tag), kind, payload)
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.parent
            .mcast_resend(self.map.shift(tag), kind, payload, seq);
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
        self.parent.try_post_mcast(self.map.shift(tag), payload)
    }

    fn compute(&mut self, d: Duration) {
        self.parent.compute(d);
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        self.parent.tcp_ack_model(self.map.members[dst], count);
    }

    fn failed_peers(&self) -> Vec<usize> {
        // Failures since the shrink, in survivor coordinates.
        self.map.local_peers(self.parent.failed_peers())
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.map.local_peers(self.parent.departed_peers())
    }

    fn epoch(&self) -> u32 {
        // On transports without membership `rebase_epoch` is a no-op
        // and the parent still reports 0; the formed epoch is the floor
        // so repeated shrinks keep advancing regardless.
        self.parent.epoch().max(self.epoch)
    }

    // Unlike a borrowed group view, the shrunk transport owns its
    // parent, so lifecycle calls forward: a further failure can be
    // survived by shrinking again, and a survivor can leave.
    fn leave(&mut self) {
        self.parent.leave();
    }

    fn rebase_epoch(&mut self, epoch: u32) {
        self.parent.rebase_epoch(epoch);
    }

    fn declare_failed(&mut self, rank: usize) {
        self.parent.declare_failed(self.map.members[rank]);
    }
}

impl<C: Comm> Communicator<C> {
    /// Rebuild the group after a failure (`MPI_Comm_shrink`): run the
    /// survivor-agreement round (module docs) and return a communicator
    /// over the survivors with compacted ranks and a bumped epoch.
    ///
    /// Every survivor must call this collectively, like any other
    /// collective — typically from the error path of a collective that
    /// returned [`RecvError::PeerFailed`]. Algorithm selections carry
    /// over to the new communicator. Errors other than peer failures
    /// (unrecoverable loss) propagate.
    pub fn shrink(mut self) -> Result<Communicator<ShrunkComm<C>>, RecvError> {
        let (bcast_algo, barrier_algo, allgather_algo) =
            (self.bcast_algo, self.barrier_algo, self.allgather_algo);
        let bcast_cfg = self.bcast_cfg.clone();
        let t = self.transport_mut();
        let me = t.rank();
        let n = t.size();
        let epoch0 = t.epoch();
        let tag = vote_tag(epoch0);
        let mut failed: BTreeSet<u32> = t
            .failed_peers()
            .into_iter()
            .chain(t.departed_peers())
            .map(|p| p as u32)
            .collect();
        // Vote to everyone believed alive, then collect their votes.
        let vote = encode_vote(epoch0, &failed);
        let alive: Vec<usize> = (0..n)
            .filter(|&p| p != me && !failed.contains(&(p as u32)))
            .collect();
        for &p in &alive {
            t.send_kind(p, tag, MsgKind::Data, &vote);
        }
        let reqs: Vec<(usize, RecvReq)> = alive
            .iter()
            .map(|&p| (p, t.post_recv(Some(p), tag)))
            .collect();
        for (p, req) in reqs {
            match t.wait(req) {
                Ok(m) => {
                    for r in decode_vote(&m.payload) {
                        if (r as usize) < n && r as usize != me {
                            failed.insert(r);
                        }
                    }
                }
                // The voter itself died: that is its vote.
                Err(RecvError::PeerFailed { rank, .. }) => {
                    failed.insert(rank);
                    failed.insert(p as u32);
                }
                Err(e) => return Err(e),
            }
        }
        // Commit the union to the membership layer (ack quorums and
        // drain grace drop the dead at once), then move to the new
        // epoch: the context changes, stranding old-epoch stragglers.
        for &r in &failed {
            t.declare_failed(r as usize);
        }
        let epoch = epoch0.wrapping_add(1);
        t.rebase_epoch(epoch);
        let survivors: Vec<usize> = (0..n).filter(|&p| !failed.contains(&(p as u32))).collect();
        let mut comm = Communicator::new(ShrunkComm::new(self.into_transport(), survivors, epoch));
        comm.bcast_algo = bcast_algo;
        comm.barrier_algo = barrier_algo;
        comm.bcast_cfg = bcast_cfg;
        comm.allgather_algo = allgather_algo;
        Ok(comm)
    }

    /// Graceful departure (drain-on-leave, `docs/API.md`): announce,
    /// flush the retransmit ring, and retire the endpoint. The
    /// communicator is consumed — there is no rejoining. Survivors see
    /// the departure as a non-failure: drain grace and ack quorums stop
    /// counting this rank, and the next [`Communicator::shrink`]
    /// removes it without an error ever being raised.
    pub fn leave(mut self) {
        self.transport_mut().leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{combine_u64_sum, Communicator};
    use mmpi_transport::run_mem_world;

    #[test]
    fn vote_codec_roundtrip() {
        let set: BTreeSet<u32> = [3, 7, 11].into_iter().collect();
        let enc = encode_vote(5, &set);
        assert_eq!(decode_vote(&enc), vec![3, 7, 11]);
        assert_eq!(
            decode_vote(&encode_vote(1, &BTreeSet::new())),
            Vec::<u32>::new()
        );
        assert_eq!(decode_vote(&[1, 2, 3]), Vec::<u32>::new());
    }

    #[test]
    fn shrink_without_failures_keeps_everyone_and_collectives_still_run() {
        let out = run_mem_world(5, 0, |c| {
            let comm = Communicator::new(c);
            let mut comm = comm.shrink().unwrap();
            assert_eq!(comm.size(), 5);
            assert_eq!(comm.transport().members(), &[0, 1, 2, 3, 4]);
            let mut buf = if comm.rank() == 0 {
                b"regrouped".to_vec()
            } else {
                Vec::new()
            };
            comm.bcast(0, &mut buf).unwrap();
            let s = comm
                .allreduce(
                    (comm.rank() as u64).to_le_bytes().to_vec(),
                    &combine_u64_sum,
                )
                .unwrap();
            (buf, u64::from_le_bytes(s[..8].try_into().unwrap()))
        });
        for (buf, sum) in out {
            assert_eq!(buf, b"regrouped");
            assert_eq!(sum, 1 + 2 + 3 + 4);
        }
    }

    /// Without membership the transport's context does not move, so the
    /// survivors that leave the vote round first can start the next
    /// collective while a late voter is still collecting.
    #[test]
    fn shrink_over_mem_keeps_the_context_and_tolerates_a_late_voter() {
        let out = run_mem_world(6, 9, |c| {
            if c.rank() == 5 {
                std::thread::sleep(Duration::from_millis(30));
            }
            let mut comm = Communicator::new(c).shrink().unwrap().shrink().unwrap();
            let mut buf = if comm.rank() == 0 {
                b"on".to_vec()
            } else {
                Vec::new()
            };
            comm.bcast(0, &mut buf).unwrap();
            (comm.transport().context(), comm.transport().epoch(), buf)
        });
        assert_eq!(out, vec![(9, 2, b"on".to_vec()); 6]);
    }

    #[test]
    fn repeated_shrink_bumps_epoch_and_separates_tag_spaces() {
        let out = run_mem_world(3, 0, |c| {
            let comm = Communicator::new(c).shrink().unwrap();
            let t1 = comm.transport().map.tag_shift;
            let comm2 = comm.shrink().unwrap();
            let t2 = comm2.transport().map.tag_shift;
            assert_ne!(t1, t2);
            (comm2.transport().formed_epoch(), comm2.size())
        });
        assert_eq!(out, vec![(2, 3); 3]);
    }
}
