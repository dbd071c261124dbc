//! Barrier synchronization algorithms.
//!
//! * [`BarrierAlgorithm::Mpich`] — MPICH's three-phase algorithm (paper
//!   Fig. 5): processes beyond the largest power of two `K` report in,
//!   the first `K` processes run `log2 K` rounds of pairwise exchange
//!   (recursive doubling), then the extra processes are released.
//!   Message count `2(N-K) + K*log2(K)`.
//! * [`BarrierAlgorithm::McastBinary`] — the paper's replacement: `N-1`
//!   scouts are reduced to rank 0 along a binomial tree, then **one**
//!   empty multicast releases everybody — two phases fewer than MPICH.
//! * [`BarrierAlgorithm::McastLinear`] — same with linear scout gathering.
//!
//! Each is a request machine (`Barrier`, driven by
//! [`crate::request::IbarrierRequest`]), which
//! [`crate::Communicator::barrier`] waits on. Only the MPICH baseline
//! pays the per-message cost of MPICH's protocol layering; the multicast
//! barriers bypass those layers (paper Fig. 1).

use std::time::Duration;

use mmpi_transport::Comm;
use mmpi_wire::{Bytes, Message, MsgKind};

use crate::request::{Next, Phases, Scouted, Scouts};
use crate::tags::{OpTags, Phase};

/// Barrier algorithm selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierAlgorithm {
    /// MPICH three-phase point-to-point barrier (baseline).
    Mpich,
    /// Binomial scout reduction + one multicast release (the paper's).
    McastBinary,
    /// Linear scout gathering + one multicast release.
    McastLinear,
}

/// Every barrier's machine.
pub(crate) enum Barrier {
    /// Scouts to rank 0, then one multicast release.
    Scouted(Scouted),
    Mpich(MpichBarrier),
}

impl Barrier {
    pub(crate) fn new(algo: BarrierAlgorithm, layer: Duration, tags: OpTags) -> Self {
        let scouted = |scouts| {
            Barrier::Scouted(Scouted::new(
                scouts,
                tags,
                0,
                Phase::Release,
                MsgKind::Release,
                Vec::new(),
            ))
        };
        match algo {
            BarrierAlgorithm::Mpich => Barrier::Mpich(MpichBarrier {
                tags,
                layer,
                mask: 1,
            }),
            BarrierAlgorithm::McastBinary => scouted(Scouts::Binomial),
            BarrierAlgorithm::McastLinear => scouted(Scouts::Linear),
        }
    }
}

impl Phases for Barrier {
    type Output = ();

    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<()> {
        match self {
            Barrier::Scouted(s) => s.start(c).map(drop),
            Barrier::Mpich(s) => s.start(c),
        }
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<()> {
        match self {
            Barrier::Scouted(s) => s.resume(c, m).map(drop),
            Barrier::Mpich(s) => s.resume(c, m),
        }
    }
}

/// MPICH's three-phase barrier (paper Fig. 5). Every message is charged
/// `layer` on both sides, and each receive is answered by a modelled TCP
/// acknowledgement.
pub(crate) struct MpichBarrier {
    tags: OpTags,
    layer: Duration,
    /// The next exchange round's partner mask; `K` for a rank that takes
    /// no part in the exchange.
    mask: usize,
}

impl MpichBarrier {
    fn start<C: Comm + ?Sized>(&mut self, c: &mut C) -> Next<()> {
        let (n, rank) = (c.size(), c.rank());
        if n == 1 {
            return Next::Done(());
        }
        let k = crate::cost::largest_pow2_below(n as u64) as usize;
        if rank >= k {
            // Phase 1: report in; phase 3: wait for the release.
            c.compute(self.layer);
            let scout = self.tags.tag(Phase::Scout);
            c.send_kind(rank - k, scout, MsgKind::Scout, &Bytes::new());
            self.mask = k;
            return Next::Recv(c.post_recv(Some(rank - k), self.tags.tag(Phase::Release)));
        }
        if rank + k < n {
            // Phase 1, the receiving side.
            return Next::Recv(c.post_recv(Some(rank + k), self.tags.tag(Phase::Scout)));
        }
        self.exchange(c, k)
    }

    fn resume<C: Comm + ?Sized>(&mut self, c: &mut C, m: Message) -> Next<()> {
        c.compute(self.layer);
        c.tcp_ack_model(m.src_rank as usize, 1);
        let k = crate::cost::largest_pow2_below(c.size() as u64) as usize;
        self.exchange(c, k)
    }

    /// Phase 2: recursive doubling among the `K` power-of-two processes,
    /// one round per call; then phase 3: release the overflow process.
    fn exchange<C: Comm + ?Sized>(&mut self, c: &mut C, k: usize) -> Next<()> {
        let (n, rank) = (c.size(), c.rank());
        if self.mask < k {
            let partner = rank ^ self.mask;
            self.mask <<= 1;
            let exch = self.tags.tag(Phase::Exchange);
            c.compute(self.layer);
            c.send_kind(partner, exch, MsgKind::Scout, &Bytes::new());
            return Next::Recv(c.post_recv(Some(partner), exch));
        }
        if rank + k < n {
            c.compute(self.layer);
            let release = self.tags.tag(Phase::Release);
            c.send_kind(rank + k, release, MsgKind::Release, &Bytes::new());
        }
        Next::Done(())
    }
}
