//! Collective operations beyond broadcast/barrier.
//!
//! The paper's future-work section points at many-to-one and many-to-many
//! operations; these are the standard point-to-point formulations plus
//! multicast-assisted composites (`allreduce` and the gather + broadcast
//! allgather reuse whichever broadcast algorithm the communicator is
//! configured with, so a multicast broadcast accelerates them too). Each
//! is a request machine, waited on: `Gather`, `Reduce`, and the
//! two-stage `ThenBcast` the composites share.
//!
//! Reductions operate on raw byte buffers with an associative combine
//! function (e.g. [`combine_u64_sum`]) — MPI datatype machinery is out of
//! scope for this reproduction. Like `MPI_Op_create`, an operation is a
//! function, not a closure over the caller's state: the machine carries
//! it to whichever thread takes its steps.

use std::mem;

use mmpi_transport::{Comm, Tag};
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::bcast::{Bcast, BcastAlgorithm, BcastConfig};
use crate::request::{Next, Phases};
use crate::tags::{OpTags, Phase};
use crate::tree::{self, Reduction};

/// An associative combine for reductions: folds `other` into `acc`.
pub type Combine = dyn Fn(&mut Vec<u8>, &[u8]) + Sync;

/// Element-wise sum of little-endian `u64` vectors.
#[allow(clippy::ptr_arg)] // must match the `Combine` closure type
pub fn combine_u64_sum(acc: &mut Vec<u8>, other: &[u8]) {
    combine_u64(acc, other, u64::wrapping_add);
}

/// Element-wise maximum of little-endian `u64` vectors.
#[allow(clippy::ptr_arg)] // must match the `Combine` closure type
pub fn combine_u64_max(acc: &mut Vec<u8>, other: &[u8]) {
    combine_u64(acc, other, u64::max);
}

/// Fold `other` into `acc` with `op`, one little-endian `u64` at a time.
fn combine_u64(acc: &mut [u8], other: &[u8], op: fn(u64, u64) -> u64) {
    assert_eq!(acc.len(), other.len(), "reduce buffers must match");
    for (a, o) in acc.chunks_exact_mut(8).zip(other.chunks_exact(8)) {
        let (x, y) = (std::array::from_fn(|i| a[i]), std::array::from_fn(|i| o[i]));
        a.copy_from_slice(&op(u64::from_le_bytes(x), u64::from_le_bytes(y)).to_le_bytes());
    }
}

/// The gather: every other rank sends its buffer to the root, which
/// claims them one at a time from any source; the root's output holds
/// every rank's buffer, by rank.
pub(crate) struct Gather {
    tag: Tag,
    root: usize,
    mine: Vec<u8>,
    /// The root's buffers by rank.
    out: Vec<Vec<u8>>,
    /// Buffers the root still waits for.
    left: usize,
}

impl Gather {
    pub(crate) fn new(tags: OpTags, root: usize, mine: &[u8]) -> Self {
        Gather {
            tag: tags.tag(Phase::Data),
            root,
            mine: mine.to_vec(),
            out: Vec::new(),
            left: 0,
        }
    }

    fn next<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Option<Vec<Vec<u8>>>> {
        if self.left == 0 {
            return Next::Done(Some(mem::take(&mut self.out)));
        }
        Next::Recv(c.post_recv(None, self.tag))
    }
}

impl Phases for Gather {
    type Output = Option<Vec<Vec<u8>>>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Self::Output> {
        let mine = mem::take(&mut self.mine);
        if c.rank() != self.root {
            c.send_kind(self.root, self.tag, MsgKind::Data, &Bytes::from(mine));
            return Next::Done(None);
        }
        self.out = vec![Vec::new(); c.size()];
        self.out[self.root] = mine;
        self.left = c.size() - 1;
        self.next(c)
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Self::Output> {
        self.left -= 1;
        let src = m.src_rank as usize;
        self.out[src] = m.into_vec();
        self.next(c)
    }
}

/// The reduction up the binomial tree with the associative `combine`:
/// children's contributions claimed one at a time in ascending-mask order
/// and folded in, then the subtree's result sent to the parent; the root's
/// output is the result.
pub(crate) struct Reduce {
    tag: Tag,
    root: usize,
    acc: Vec<u8>,
    /// The next round's mask.
    mask: usize,
    combine: &'static Combine,
}

impl Reduce {
    pub(crate) fn new(tags: OpTags, root: usize, data: Vec<u8>, combine: &'static Combine) -> Self {
        Reduce {
            tag: tags.tag(Phase::Data),
            root,
            acc: data,
            mask: 1,
            combine,
        }
    }
}

impl Phases for Reduce {
    type Output = Option<Vec<u8>>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Option<Vec<u8>>> {
        match tree::binomial_reduction(c.rank(), c.size(), self.root, &mut self.mask) {
            Reduction::Child(src) => Next::Recv(c.post_recv(Some(src), self.tag)),
            Reduction::Parent(dst) => {
                let acc = Bytes::from(mem::take(&mut self.acc));
                c.send_kind(dst, self.tag, MsgKind::Data, &acc);
                Next::Done(None)
            }
            Reduction::Root => Next::Done(Some(mem::take(&mut self.acc))),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Option<Vec<u8>>> {
        (self.combine)(&mut self.acc, &m.payload);
        self.start(c)
    }
}

/// `allreduce` and the gather + broadcast allgather: a first stage that
/// leaves its result on rank 0 (the reduction, the gather), then a
/// broadcast of that result from rank 0 with the communicator's broadcast
/// algorithm, on the first stage's tags. `pack` turns the first stage's
/// output into the broadcast buffer (empty off rank 0).
pub(crate) struct ThenBcast<A: Phases> {
    stage: Stage<A>,
    algo: BcastAlgorithm,
    cfg: BcastConfig,
    tags: OpTags,
    pack: fn(A::Output) -> Vec<u8>,
}

enum Stage<A> {
    First(A),
    Bcast(Bcast),
}

impl<A: Phases> ThenBcast<A> {
    pub(crate) fn new(
        first: A,
        (algo, cfg): (BcastAlgorithm, &BcastConfig),
        tags: OpTags,
        pack: fn(A::Output) -> Vec<u8>,
    ) -> Self {
        ThenBcast {
            stage: Stage::First(first),
            algo,
            cfg: cfg.clone(),
            tags,
            pack,
        }
    }

    /// Carry a step of the first stage on: once it is done, start the
    /// broadcast of what it produced.
    fn then<C: Comm + ?Sized>(&mut self, c: &mut C, first: Next<A::Output>) -> Next<Vec<u8>> {
        let out = match first {
            Next::Recv(req) => return Next::Recv(req),
            Next::Done(out) => out,
        };
        let mut bcast = Bcast::new(c, self.algo, &self.cfg, self.tags, 0, (self.pack)(out));
        let next = bcast.start(c);
        self.stage = Stage::Bcast(bcast);
        next
    }
}

impl<A: Phases> Phases for ThenBcast<A> {
    type Output = Vec<u8>;

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<Vec<u8>> {
        match &mut self.stage {
            Stage::First(a) => {
                let first = a.start(c);
                self.then(c, first)
            }
            Stage::Bcast(b) => b.start(c),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<Vec<u8>> {
        match &mut self.stage {
            Stage::First(a) => {
                let first = a.resume(c, m);
                self.then(c, first)
            }
            Stage::Bcast(b) => b.resume(c, m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_sum_combines_elementwise() {
        let mut a = [1u64, 2, 3]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>();
        let b = [10u64, 20, 30]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>();
        combine_u64_sum(&mut a, &b);
        let out: Vec<u64> = a
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn u64_max_combines_elementwise() {
        let mut a = [5u64, 200]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>();
        let b = [100u64, 3]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>();
        combine_u64_max(&mut a, &b);
        let out: Vec<u64> = a
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![100, 200]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_reduce_buffers_panic() {
        let mut a = vec![0u8; 8];
        combine_u64_sum(&mut a, &[0u8; 16]);
    }
}
