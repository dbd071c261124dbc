//! Additional broadcast algorithms beyond the paper's three.
//!
//! These are the other classic MPICH-era shapes, implemented so the bench
//! harness can position the paper's multicast algorithms against the full
//! design space. Both are request machines, run by
//! [`crate::request::IbcastRequest`] when the communicator selects them:
//!
//! * [`crate::BcastAlgorithm::Chain`] — pipelined chain: the message is
//!   cut into segments that stream down the rank chain, overlapping
//!   transfers; asymptotically `(N-2+S)·t_seg` for `S` segments instead of
//!   `(N-1)·t_msg`.
//! * [`crate::BcastAlgorithm::ScatterAllgather`] — van de Geijn's
//!   large-message broadcast: scatter distinct blocks from the root, then
//!   a ring allgather; each byte crosses any link at most twice
//!   regardless of `N`.
//!
//! Both are pure point-to-point pipelines of tag-matched receives, so on
//! a lossy fabric they recover through the transport's NACK/retransmit
//! repair loop like every other collective (`docs/PROTOCOL.md`); their
//! many small segments simply mean more, cheaper, retransmissions. Each
//! travelling piece carries its identity in its framing, and both place
//! and forward by that identity, never by arrival order: a NACK-recovered
//! piece completes after pieces sent later.

use std::mem;

use mmpi_transport::{Comm, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::request::Next;
use crate::ring::{le_u32, place_block, SuccessorSkip};
use crate::tags::{OpTags, Phase};

/// Pipelined chain broadcast with `segment` bytes per stage.
///
/// Rank `(root+i) mod N` receives segments from its predecessor and
/// forwards each one downstream before posting the receive for the next,
/// so segment `k` and `k+1` travel concurrently on adjacent links.
///
/// Each travelling segment is framed with an 8-byte `[index, count]`
/// little-endian header, and assembly is decided by that *identity* —
/// never by arrival order. Under the repair loop a NACK-recovered
/// segment completes after segments sent later, so a stream-shaped
/// formulation ("assemble in receive order, stop at the first short
/// segment") would both scramble the payload and could stop an earlier
/// rank on the wrong segment. Same rule as the ring collectives
/// (`ring::SuccessorSkip`).
pub(crate) struct Chain {
    tag: Tag,
    segment: usize,
    root: usize,
    /// The root's message.
    buf: Vec<u8>,
    /// A receiver's segments by index, sized by the first to arrive.
    parts: Vec<Option<Bytes>>,
    got: usize,
}

impl Chain {
    pub(crate) fn new(tag: Tag, segment: usize, root: usize, buf: Vec<u8>) -> Self {
        Chain {
            tag,
            segment: segment.max(1),
            root,
            buf,
            parts: Vec::new(),
            got: 0,
        }
    }

    pub(crate) fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(mem::take(&mut self.buf));
        }
        if rank != self.root {
            return Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag));
        }
        // Frame and stream the segments to the successor. An empty message
        // is one (empty) segment so receivers unblock.
        let buf = &self.buf;
        let count = buf.len().div_ceil(self.segment).max(1);
        for i in 0..count {
            let lo = (i * self.segment).min(buf.len());
            let hi = ((i + 1) * self.segment).min(buf.len());
            let mut seg = Vec::with_capacity(8 + hi - lo);
            seg.extend_from_slice(&(i as u32).to_le_bytes());
            seg.extend_from_slice(&(count as u32).to_le_bytes());
            seg.extend_from_slice(&buf[lo..hi]);
            c.send_kind((rank + 1) % n, self.tag, MsgKind::Data, &Bytes::from(seg));
        }
        Next::Done(mem::take(&mut self.buf))
    }

    /// Forward every segment at once (unless tail) as the shared view it
    /// arrived in, place it by its index, and finish when all are in.
    pub(crate) fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        let (n, rank) = (c.size(), c.rank());
        if (rank + n - self.root) % n != n - 1 {
            c.send_kind((rank + 1) % n, self.tag, MsgKind::Data, &m.payload);
        }
        let (idx, count) = (le_u32(&m.payload, 0), le_u32(&m.payload, 4));
        if self.parts.is_empty() {
            self.parts.resize(count, None);
        }
        debug_assert_eq!(self.parts.len(), count, "inconsistent segment count");
        if self.parts[idx].replace(m.payload.slice(8..)).is_none() {
            self.got += 1;
        }
        if self.got < self.parts.len() {
            return Next::Recv(c.post_recv(Some((rank + n - 1) % n), self.tag));
        }
        let parts = self.parts.iter().flatten();
        let mut assembled = Vec::with_capacity(parts.clone().map(|p| p.len()).sum());
        for p in parts {
            assembled.extend_from_slice(p);
        }
        Next::Done(assembled)
    }
}

/// Van de Geijn's large-message broadcast: the root scatters `N` blocks
/// framed `[total u32, offset u32, data]`, then the blocks travel the
/// rank ring so every rank ends with the whole message — each byte
/// crosses any link at most twice regardless of `N`. A rank enters the
/// ring once its own block is in hand and then receives one block from
/// its predecessor per step, forwarding every block but the successor's
/// own (the [`SuccessorSkip`] rule: the offset is the block's identity,
/// since a NACK-repaired block completes after blocks sent later). Each
/// claimed block is forwarded as the shared [`Bytes`] view it arrived
/// in — no per-hop copy.
pub(crate) struct ScatterAllgather {
    tags: OpTags,
    root: usize,
    /// The root's message (consumed by the scatter).
    buf: Vec<u8>,
    /// Set once this rank entered the ring.
    ring: Option<ScatterRing>,
}

struct ScatterRing {
    skip: SuccessorSkip,
    out: Vec<u8>,
    /// Ring blocks still to come.
    left: usize,
}

impl ScatterAllgather {
    pub(crate) fn new(tags: OpTags, root: usize, buf: Vec<u8>) -> Self {
        ScatterAllgather {
            tags,
            root,
            buf,
            ring: None,
        }
    }

    pub(crate) fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(mem::take(&mut self.buf));
        }
        let scatter_tag = self.tags.tag(Phase::Data);
        if rank != self.root {
            return Next::Recv(c.post_recv(Some(self.root), scatter_tag));
        }
        let buf = mem::take(&mut self.buf);
        let total = buf.len();
        let per = total.div_ceil(n).max(1);
        let block = |i: usize| {
            let lo = (i * per).min(total);
            let hi = ((i + 1) * per).min(total);
            let mut block = Vec::with_capacity(8 + hi - lo);
            block.extend_from_slice(&(total as u32).to_le_bytes());
            block.extend_from_slice(&(lo as u32).to_le_bytes());
            block.extend_from_slice(&buf[lo..hi]);
            block
        };
        // Block `i` goes to `root + i`; the root keeps block 0.
        for i in 1..n {
            let part = Bytes::from(block(i));
            c.send_kind((self.root + i) % n, scatter_tag, MsgKind::Data, &part);
        }
        self.enter_ring(c, &Bytes::from(block(0)))
    }

    /// Own block in hand: allocate the output, place the block and send
    /// it around the ring, then post the first ring receive.
    fn enter_ring<C: Comm + ?Sized>(&mut self, c: &mut C, own: &Bytes) -> Next<Vec<u8>> {
        let (n, rank) = (c.size(), c.rank());
        let next = (rank + 1) % n;
        let total = le_u32(own, 0);
        let mut out = vec![0u8; total];
        place_block(&mut out, own);
        let ring_tag = self.tags.tag(Phase::Exchange);
        c.send_kind(next, ring_tag, MsgKind::Data, own);
        self.ring = Some(ScatterRing {
            skip: SuccessorSkip::new(n, self.root, next, total),
            out,
            left: n - 1,
        });
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), ring_tag))
    }

    pub(crate) fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        let Some(ring) = &mut self.ring else {
            return self.enter_ring(c, &m.payload);
        };
        let (n, rank) = (c.size(), c.rank());
        let ring_tag = self.tags.tag(Phase::Exchange);
        if !ring
            .skip
            .should_skip(place_block(&mut ring.out, &m.payload))
        {
            c.send_kind((rank + 1) % n, ring_tag, MsgKind::Data, &m.payload);
        }
        ring.left -= 1;
        if ring.left == 0 {
            return Next::Done(mem::take(&mut ring.out));
        }
        Next::Recv(c.post_recv(Some((rank + n - 1) % n), ring_tag))
    }
}

#[cfg(test)]
mod tests {
    use crate::{BcastAlgorithm, CollRequest, Communicator};
    use mmpi_transport::run_mem_world;

    #[test]
    fn chain_various_sizes_and_segments() {
        for n in [2usize, 3, 5, 8] {
            for len in [0usize, 1, 100, 4096, 10_000] {
                for seg in [64usize, 1000, 4096] {
                    let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                    let want = payload.clone();
                    let out = run_mem_world(n, 0, move |c| {
                        let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Chain);
                        comm.bcast_cfg.chain_segment_bytes = seg;
                        let mut buf = if comm.rank() == 0 {
                            payload.clone()
                        } else {
                            Vec::new()
                        };
                        comm.bcast(0, &mut buf).unwrap();
                        buf
                    });
                    for (r, o) in out.iter().enumerate() {
                        assert_eq!(o, &want, "n={n} len={len} seg={seg} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn chain_nonzero_root() {
        let out = run_mem_world(5, 0, |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::Chain);
            comm.bcast_cfg.chain_segment_bytes = 1024;
            let mut buf = if comm.rank() == 3 {
                vec![9u8; 5000]
            } else {
                Vec::new()
            };
            comm.bcast(3, &mut buf).unwrap();
            buf
        });
        assert!(out.iter().all(|o| o == &vec![9u8; 5000]));
    }

    #[test]
    fn scatter_allgather_various() {
        for n in [2usize, 3, 4, 7, 9] {
            for len in [0usize, 1, n - 1, 1000, 9999] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                let want = payload.clone();
                let out = run_mem_world(n, 0, move |c| {
                    let mut comm =
                        Communicator::new(c).with_bcast(BcastAlgorithm::ScatterAllgather);
                    let mut buf = if comm.rank() == 0 {
                        payload.clone()
                    } else {
                        Vec::new()
                    };
                    comm.bcast(0, &mut buf).unwrap();
                    buf
                });
                for (r, o) in out.iter().enumerate() {
                    assert_eq!(o, &want, "n={n} len={len} rank={r}");
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_nonzero_root() {
        let out = run_mem_world(6, 0, |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::ScatterAllgather);
            let buf = if comm.rank() == 4 {
                (0..7777u32).map(|i| i as u8).collect()
            } else {
                Vec::new()
            };
            comm.ibcast(4, buf).wait(comm.transport_mut()).unwrap()
        });
        let want: Vec<u8> = (0..7777u32).map(|i| i as u8).collect();
        assert!(out.iter().all(|o| o == &want));
    }
}
