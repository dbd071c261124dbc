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
//! Under injected loss, the multicast allgather is the stress case for the
//! transport's NACK/retransmit repair. The §4 chain needs only that rank
//! `i+1` multicast after rank `i`'s block reached it, so a rank passes the
//! turn on its predecessor's block alone: the repairs it still owes for
//! lower blocks run concurrently, each on its own posted receive's solicit
//! deadline, instead of one after another on the chain's critical path.
//! Finished endpoints keep answering NACKs through a drain grace period
//! for the ranks still repairing (see `RepairConfig::drain_grace` in
//! `mmpi-transport` and the walkthrough in `docs/PROTOCOL.md`).
//!
//! [`AllgatherAlgorithm::Ring`]: crate::AllgatherAlgorithm::Ring
//! [`AllgatherAlgorithm::Multicast`]: crate::AllgatherAlgorithm::Multicast
//! [`AllgatherAlgorithm::GatherBcast`]: crate::AllgatherAlgorithm::GatherBcast

use std::mem;

use mmpi_transport::{Comm, RecvError, RecvReq, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::bcast::{BcastAlgorithm, BcastConfig};
use crate::coll::{Gather, ThenBcast};
use crate::communicator::AllgatherAlgorithm;
use crate::request::{Next, Phases, Recover};
use crate::ring::le_u32;
use crate::tags::{OpTags, Phase};

/// Every allgather's machine.
pub(crate) enum Allgather {
    Ring(Ring),
    Multicast(Turns),
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
        let mut out = vec![Vec::new(); c.size()];
        out[c.rank()] = mine.to_vec();
        match algo {
            AllgatherAlgorithm::GatherBcast => {
                let gather = Gather::new(tags, 0, mine);
                Allgather::GatherBcast(ThenBcast::new(gather, bcast, tags, frame))
            }
            AllgatherAlgorithm::Ring => Allgather::Ring(Ring {
                tag: tags.tag(Phase::Exchange),
                out,
                left: 0,
            }),
            AllgatherAlgorithm::Multicast => Allgather::Multicast(Turns {
                tag: tags.tag(Phase::Data),
                missing: out.len() - 1,
                out,
                posted: Vec::new(),
                awaited: Vec::new(),
                next_post: 0,
                reach: 2,
            }),
        }
    }
}

impl Phases for Allgather {
    type Output = Vec<Vec<u8>>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        match self {
            Allgather::Ring(s) => s.start(c),
            Allgather::Multicast(s) => s.start(c),
            Allgather::GatherBcast(s) => s.start(c).map(unframe),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<Vec<u8>>> {
        match self {
            Allgather::Ring(s) => s.resume(c, m),
            Allgather::Multicast(s) => s.resume(c, m),
            Allgather::GatherBcast(s) => s.resume(c, m).map(unframe),
        }
    }

    fn posted(&self) -> &[RecvReq] {
        match self {
            Allgather::Multicast(s) => &s.posted,
            Allgather::Ring(_) | Allgather::GatherBcast(_) => &[],
        }
    }

    fn recover<C: Comm + ?Sized>(&mut self, c: &mut C, e: RecvError) -> Recover<Vec<Vec<u8>>> {
        match self {
            Allgather::GatherBcast(s) => s.recover(c, e).map(|next| next.map(unframe)),
            Allgather::Ring(_) | Allgather::Multicast(_) => Err(e),
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

/// The ring: owner-prefixed blocks travel the rank ring, one receive
/// from the predecessor per step, `N-1` steps, each byte crossing every
/// link once; each claimed block is forwarded as the shared [`Bytes`] view
/// it arrived in — no per-hop copy.
pub(crate) struct Ring {
    tag: Tag,
    /// Every rank's block; this rank's own is in place from the start.
    out: Vec<Vec<u8>>,
    /// Blocks still to come.
    left: usize,
}

impl Ring {
    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(mem::take(&mut self.out));
        }
        let mine = &self.out[rank];
        let mut own = Vec::with_capacity(4 + mine.len());
        own.extend_from_slice(&(rank as u32).to_le_bytes());
        own.extend_from_slice(mine);
        c.send_kind((rank + 1) % n, self.tag, MsgKind::Data, &Bytes::from(own));
        self.left = n - 1;
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag))
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<Vec<u8>>> {
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
        self.left -= 1;
        if self.left == 0 {
            return Next::Done(mem::take(&mut self.out));
        }
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag))
    }
}

/// The multicast exchange: every rank multicasts its block **once**, so
/// `N` multicasts replace `N(N-1)` point-to-point transfers. Rank `r`
/// multicasts as soon as block `r-1` is in — rank 0 at once — which is
/// the paper's §4 safety argument: rank `i+1` cannot multicast before it
/// received rank `i`'s block, so receivers are provably inside the
/// collective. Blocks are claimed in whatever order they complete.
///
/// A rank keeps a receive posted for every block it lacks up to two past
/// the highest-numbered block it has received or sent (blocks 0 and 1 at
/// the start), each arming its solicit deadline when posted. Lower blocks
/// still being repaired stay off the chain's critical path, and the one
/// block of lookahead keeps a single loss from hiding the next arrival.
/// Posting every receive up front instead arms `N-1` solicit deadlines
/// before their blocks exist, and the NACKs they fire swamp the group.
pub(crate) struct Turns {
    tag: Tag,
    /// Every rank's block; this rank's own is in place from the start.
    out: Vec<Vec<u8>>,
    /// Blocks still to come.
    missing: usize,
    /// The receives posted for blocks not yet in, in post order, which is
    /// block order…
    posted: Vec<RecvReq>,
    /// …and the block each of them is for.
    awaited: Vec<usize>,
    /// Every block below this one but our own is in or has a receive
    /// posted; none above it has.
    next_post: usize,
    /// One past the last block to hold a receive for: three past the
    /// highest-numbered block received or sent.
    reach: usize,
}

impl Turns {
    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        if self.missing == 0 {
            return Next::Done(mem::take(&mut self.out));
        }
        if c.rank() == 0 {
            self.multicast_own(c);
        }
        self.post_reach(c)
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<Vec<u8>>> {
        let block = m.src_rank as usize;
        if let Ok(i) = self.awaited.binary_search(&block) {
            self.awaited.remove(i);
            self.posted.remove(i);
        }
        self.out[block] = m.into_vec();
        self.missing -= 1;
        self.reach = self.reach.max(block + 3);
        if block + 1 == c.rank() {
            self.multicast_own(c);
        }
        self.post_reach(c)
    }

    fn multicast_own<C: Comm + ?Sized>(&mut self, c: &mut C) {
        let rank = c.rank();
        c.mcast_kind(self.tag, MsgKind::Data, &Bytes::from(&self.out[rank]));
        self.reach = self.reach.max(rank + 3);
    }

    /// Post a receive for every block up to the reach, then stand blocked
    /// on the set, or finish.
    fn post_reach<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<Vec<u8>>> {
        let (n, rank) = (c.size(), c.rank());
        while self.next_post < self.reach.min(n) {
            if self.next_post != rank {
                self.posted
                    .push(c.post_recv(Some(self.next_post), self.tag));
                self.awaited.push(self.next_post);
            }
            self.next_post += 1;
        }
        if self.missing == 0 {
            Next::Done(mem::take(&mut self.out))
        } else {
            Next::Posted
        }
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
