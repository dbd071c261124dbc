//! ULFM-style communicator shrink: survivor agreement and the
//! rank-compacted communicator it produces.
//!
//! When the transport's membership layer (`docs/PROTOCOL.md` §10)
//! confirms a peer dead, collectives start failing with
//! [`RecvError::PeerFailed`]. Recovery follows the MPI ULFM recipe:
//! every survivor calls [`Communicator::shrink`], which runs one
//! deterministic agreement round over the overheard failure sets and
//! narrows the endpoint's view to the survivors
//! ([`Endpoint::shrink_to`]): compacted ranks, a fresh tag space and a
//! bumped liveness epoch, on the same endpoint — not a wrapper around
//! it, so a survivor's collectives wait like the world's. The epoch is
//! stamped into the transport's message context ([`Comm::rebase_epoch`]),
//! so stragglers from the old group can never match new-epoch receives.
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

use mmpi_transport::{Backend, Comm, Endpoint, RecvError, RecvReq, Tag};
use mmpi_wire::{Bytes, MsgKind};

use crate::communicator::Communicator;

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
    let [_, _, _, _, c0, c1, c2, c3, failed @ ..] = payload else {
        return Vec::new();
    };
    let count = u32::from_le_bytes([*c0, *c1, *c2, *c3]) as usize;
    failed
        .chunks_exact(4)
        .take(count)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

impl<B: Backend> Communicator<Endpoint<B>> {
    /// Rebuild the group after a failure (`MPI_Comm_shrink`): run the
    /// survivor-agreement round (module docs) and return a communicator
    /// over the survivors with compacted ranks and a bumped epoch.
    ///
    /// Every survivor must call this collectively, like any other
    /// collective — typically from the error path of a collective that
    /// returned [`RecvError::PeerFailed`]. Algorithm selections carry
    /// over to the new communicator, whose op sequence starts again at 0.
    /// Errors other than peer failures (unrecoverable loss) propagate.
    pub fn shrink(mut self) -> Result<Self, RecvError> {
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
        // The epoch in the tag shift's high bits: the tags of successive
        // shrinks differ even on transports whose context never changes.
        let tag_shift = 0x2000_0000u32.wrapping_add(epoch.wrapping_shl(16));
        t.shrink_to(&survivors, tag_shift, epoch);
        self.op_seq = 0;
        Ok(self)
    }
}

impl<C: Comm> Communicator<C> {
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
    use std::time::Duration;

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
            let mut comm = Communicator::new(c).shrink().unwrap();
            if comm.rank() == 0 {
                comm.transport_mut().send(1, 5, b"first");
            }
            let mut comm2 = comm.shrink().unwrap();
            if comm2.rank() == 1 {
                // Rank 0's tag-5 message came in ahead of its second vote
                // (channels are FIFO), yet tag 5 of the second shrink
                // cannot match it.
                let t = comm2.transport_mut();
                let req = t.post_recv(Some(0), 5);
                assert_eq!(t.wait_deadline(req, Duration::ZERO), Ok(None));
            }
            (comm2.transport().formed_epoch(), comm2.size())
        });
        assert_eq!(out, vec![(2, 3); 3]);
    }
}
