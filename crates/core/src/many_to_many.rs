//! Many-to-many collectives over IP multicast — the paper's §5 future
//! work ("it is possible this may occur in many-to-many communications
//! and needs to be examined further"), implemented and measurable.
//!
//! * [`AllgatherAlgorithm::Ring`] — the classic point-to-point ring:
//!   `N-1` steps, each byte crosses every link once.
//! * [`AllgatherAlgorithm::Multicast`] — every rank multicasts its block
//!   **once**, in rank order. `N` multicast sends replace `N(N-1)`
//!   point-to-point transfers. Ordering gives the §4 safety property: rank
//!   `i+1` cannot multicast before it received rank `i`'s block, so
//!   receivers are provably inside the collective when each datagram
//!   lands.
//! * [`AllgatherAlgorithm::GatherBcast`] — gather to rank 0, then a
//!   broadcast of the framed concatenation with the communicator's
//!   broadcast algorithm (`coll::ThenBcast`).
//!
//! Each is a request machine (`Allgather`, driven by
//! [`crate::request::IallgatherRequest`]);
//! [`crate::Communicator::allgather`] waits on it.
//!
//! Under injected loss, the multicast allgather's rank-ordered rounds are
//! the stress case for the transport's NACK/retransmit repair: a receiver
//! can spend several repair timeouts recovering round `i` before it even
//! asks for round `i+1`, which is why finished endpoints keep answering
//! NACKs through a drain grace period (see `RepairConfig::drain_grace`
//! in `mmpi-transport` and the walkthrough in `docs/PROTOCOL.md`).
//!
//! [`AllgatherAlgorithm::Ring`]: crate::AllgatherAlgorithm::Ring
//! [`AllgatherAlgorithm::Multicast`]: crate::AllgatherAlgorithm::Multicast
//! [`AllgatherAlgorithm::GatherBcast`]: crate::AllgatherAlgorithm::GatherBcast

use std::mem;

use mmpi_transport::{Comm, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::bcast::{BcastAlgorithm, BcastConfig};
use crate::coll::{Gather, ThenBcast};
use crate::communicator::AllgatherAlgorithm;
use crate::request::{Next, Phases};
use crate::ring::le_u32;
use crate::tags::{OpTags, Phase};

/// Every allgather's machine.
pub(crate) enum Allgather {
    Exchange(Exchange),
    GatherBcast(ThenBcast<Gather>),
}

impl Allgather {
    pub(crate) fn new<C: Comm + ?Sized>(
        c: &C,
        algo: AllgatherAlgorithm,
        bcast: (BcastAlgorithm, &BcastConfig),
        tags: OpTags,
        mine: &[u8],
    ) -> Self {
        if algo == AllgatherAlgorithm::GatherBcast {
            let gather = Gather::new(tags, 0, mine);
            return Allgather::GatherBcast(ThenBcast::new(gather, bcast, tags, frame));
        }
        let ring = algo == AllgatherAlgorithm::Ring;
        let mut out = vec![Vec::new(); c.size()];
        out[c.rank()] = mine.to_vec();
        Allgather::Exchange(Exchange {
            ring,
            tag: tags.tag(if ring { Phase::Exchange } else { Phase::Data }),
            out,
            step: 0,
        })
    }
}

impl Phases for Allgather {
    type Output = Vec<Vec<u8>>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        match self {
            Allgather::Exchange(s) => s.start(c),
            Allgather::GatherBcast(s) => s.start(c).map(unframe),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<Vec<u8>>> {
        match self {
            Allgather::Exchange(s) => s.resume(c, m),
            Allgather::GatherBcast(s) => s.resume(c, m).map(unframe),
        }
    }
}

/// The gathered blocks as one buffer, each framed by its `u32` length so
/// variable-length blocks survive; empty off the root.
fn frame(gathered: Option<Vec<Vec<u8>>>) -> Vec<u8> {
    let mut enc = Vec::new();
    for p in gathered.iter().flatten() {
        enc.extend_from_slice(&(p.len() as u32).to_le_bytes());
        enc.extend_from_slice(p);
    }
    enc
}

fn unframe(buf: Vec<u8>) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < buf.len() {
        let len = le_u32(&buf, off);
        out.push(buf[off + 4..off + 4 + len].to_vec());
        off += 4 + len;
    }
    out
}

/// The two direct exchanges:
///
/// * the ring — owner-prefixed blocks travel the rank ring, one receive
///   from the predecessor per step, `N-1` steps, each byte crossing every
///   link once; each claimed block is forwarded as the shared [`Bytes`]
///   view it arrived in — no per-hop copy;
/// * the multicast exchange — every rank multicasts its block **once**,
///   in rank order: a rank receives each lower rank's block in turn,
///   then multicasts its own, so `N` multicasts replace `N(N-1)`
///   point-to-point transfers. The ordering is the paper's §4 safety
///   argument: rank `i+1` cannot multicast before it received rank `i`'s
///   block, so receivers are provably inside the collective.
pub(crate) struct Exchange {
    /// The ring, or else the rank-ordered multicast.
    ring: bool,
    tag: Tag,
    /// Every rank's block; this rank's own is in place from the start.
    out: Vec<Vec<u8>>,
    /// Ring: blocks still to come. Multicast: the rank whose turn it is.
    step: usize,
}

impl Exchange {
    /// Walk the ranks in order from the current turn: multicast our own
    /// block when its turn comes, post the next other rank's receive, or
    /// finish.
    fn take_turns<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        let rank = c.rank();
        while self.step < self.out.len() {
            if self.step != rank {
                return Next::Recv(c.post_recv(Some(self.step), self.tag));
            }
            c.mcast_kind(self.tag, MsgKind::Data, &Bytes::from(&self.out[rank]));
            self.step += 1;
        }
        Next::Done(mem::take(&mut self.out))
    }

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(mem::take(&mut self.out));
        }
        if !self.ring {
            return self.take_turns(c);
        }
        let mine = &self.out[rank];
        let mut own = Vec::with_capacity(4 + mine.len());
        own.extend_from_slice(&(rank as u32).to_le_bytes());
        own.extend_from_slice(mine);
        c.send_kind((rank + 1) % n, self.tag, MsgKind::Data, &Bytes::from(own));
        self.step = n - 1;
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag))
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<Vec<u8>>> {
        if !self.ring {
            self.out[self.step] = m.into_vec();
            self.step += 1;
            return self.take_turns(c);
        }
        let (n, rank) = (c.size(), c.rank());
        let next = (rank + 1) % n;
        let owner = le_u32(&m.payload, 0);
        // Forward by identity, not arrival order: a NACK-recovered block
        // completes after blocks sent later, so every block travels on
        // except the successor's own, which it started with.
        if owner != next {
            c.send_kind(next, self.tag, MsgKind::Data, &m.payload);
        }
        self.out[owner] = m.payload[4..].to_vec();
        self.step -= 1;
        if self.step == 0 {
            return Next::Done(mem::take(&mut self.out));
        }
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag))
    }
}

#[cfg(test)]
mod tests {
    use crate::{AllgatherAlgorithm, CollRequest, Communicator};
    use mmpi_transport::run_mem_world;

    fn block(rank: usize, n: usize) -> Vec<u8> {
        vec![rank as u8 + 1; (rank * 5) % (n + 3) + 1]
    }

    #[test]
    fn ring_allgather_matches_expectation() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Ring);
                let mine = block(comm.rank(), n);
                comm.allgather(&mine).unwrap()
            });
            for (r, parts) in out.iter().enumerate() {
                for (src, p) in parts.iter().enumerate() {
                    assert_eq!(p, &block(src, n), "n={n} rank={r} src={src}");
                }
            }
        }
    }

    #[test]
    fn mcast_allgather_matches_expectation() {
        for n in [1usize, 2, 4, 7] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
                let mine = block(comm.rank(), n);
                comm.iallgather(&mine).wait(comm.transport_mut()).unwrap()
            });
            for parts in &out {
                for (src, p) in parts.iter().enumerate() {
                    assert_eq!(p, &block(src, n));
                }
            }
        }
    }

    #[test]
    fn mcast_allgather_empty_blocks() {
        let out = run_mem_world(3, 0, |c| {
            let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
            let mine = if comm.rank() == 1 {
                vec![5u8]
            } else {
                Vec::new()
            };
            comm.allgather(&mine).unwrap()
        });
        for parts in &out {
            assert_eq!(parts[0], Vec::<u8>::new());
            assert_eq!(parts[1], vec![5u8]);
            assert_eq!(parts[2], Vec::<u8>::new());
        }
    }
}
