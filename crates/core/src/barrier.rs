//! Barrier synchronization algorithms.
//!
//! * [`barrier_mpich`] — MPICH's three-phase algorithm (paper Fig. 5):
//!   processes beyond the largest power of two `K` report in, the first
//!   `K` processes run `log2 K` rounds of pairwise exchange (recursive
//!   doubling), then the extra processes are released. Message count
//!   `2(N-K) + K*log2(K)`.
//! * [`BarrierAlgorithm::McastBinary`] — the paper's replacement: `N-1`
//!   scouts are reduced to rank 0 along a binomial tree, then **one**
//!   empty multicast releases everybody — two phases fewer than MPICH.
//!   A request machine ([`crate::request::IbarrierRequest`]); [`barrier`]
//!   waits on one.
//! * [`barrier_mcast_linear`] — same with linear scout gathering.

use std::time::Duration;

use mmpi_transport::{Comm, RecvError};
use mmpi_wire::{Bytes, MsgKind};

use crate::bcast::scout_reduce_linear;
use crate::request::{CollRequest, IbarrierRequest};
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
    /// Classic dissemination barrier: `ceil(log2 N)` rounds of
    /// `send to (rank + 2^k) mod N`, `N * ceil(log2 N)` messages total,
    /// no designated root. Point-to-point, works for any `N`.
    Dissemination,
}

/// Dispatch a barrier with the chosen algorithm. `mpich_layer` is the
/// extra per-message cost of MPICH's protocol layering (only the MPICH
/// baseline pays it — the multicast barriers bypass those layers, paper
/// Fig. 1).
pub fn barrier<C: Comm>(
    c: &mut C,
    algo: BarrierAlgorithm,
    mpich_layer: Duration,
    tags: OpTags,
) -> Result<(), RecvError> {
    match algo {
        BarrierAlgorithm::Mpich => barrier_mpich(c, mpich_layer, tags),
        BarrierAlgorithm::McastBinary => IbarrierRequest::new(c, tags).wait(c),
        BarrierAlgorithm::McastLinear => barrier_mcast_linear(c, tags),
        BarrierAlgorithm::Dissemination => barrier_dissemination(c, tags),
    }
}

/// Dissemination barrier (Hensgen/Finkel/Manber): in round `k` each rank
/// signals `(rank + 2^k) mod N` and waits for a signal from
/// `(rank - 2^k) mod N`. After `ceil(log2 N)` rounds every rank has
/// transitively heard from everyone.
///
/// Rounds are distinguished by the low tag bits of `Phase::Exchange`
/// offsets — partners differ per round, so one tag suffices for matching.
pub fn barrier_dissemination<C: Comm>(c: &mut C, tags: OpTags) -> Result<(), RecvError> {
    let n = c.size();
    let rank = c.rank();
    if n == 1 {
        return Ok(());
    }
    let tag = tags.tag(Phase::Exchange);
    let mut dist = 1usize;
    while dist < n {
        let to = (rank + dist) % n;
        let from = (rank + n - dist) % n;
        c.send_kind(to, tag, MsgKind::Scout, &Bytes::new());
        c.recv_match(from, tag)?;
        dist <<= 1;
    }
    Ok(())
}

/// MPICH's three-phase barrier (paper Fig. 5).
pub fn barrier_mpich<C: Comm>(c: &mut C, layer: Duration, tags: OpTags) -> Result<(), RecvError> {
    let n = c.size();
    let rank = c.rank();
    if n == 1 {
        return Ok(());
    }
    let k = crate::cost::largest_pow2_below(n as u64) as usize;
    let scout = tags.tag(Phase::Scout);
    let exch = tags.tag(Phase::Exchange);
    let release = tags.tag(Phase::Release);

    if rank >= k {
        // Phase 1: report in; phase 3: wait for release.
        c.compute(layer);
        c.send_kind(rank - k, scout, MsgKind::Scout, &Bytes::new());
        c.recv_match(rank - k, release)?;
        c.compute(layer);
        c.tcp_ack_model(rank - k, 1);
        return Ok(());
    }
    // Phase 1 (receiving side).
    if rank + k < n {
        c.recv_match(rank + k, scout)?;
        c.compute(layer);
        c.tcp_ack_model(rank + k, 1);
    }
    // Phase 2: recursive doubling among the K power-of-two processes.
    let mut mask = 1usize;
    while mask < k {
        let partner = rank ^ mask;
        c.compute(layer);
        c.send_kind(partner, exch, MsgKind::Scout, &Bytes::new());
        c.recv_match(partner, exch)?;
        c.compute(layer);
        c.tcp_ack_model(partner, 1);
        mask <<= 1;
    }
    // Phase 3: release the overflow processes.
    if rank + k < n {
        c.compute(layer);
        c.send_kind(rank + k, release, MsgKind::Release, &Bytes::new());
    }
    Ok(())
}

/// Multicast barrier with linear scout gathering at rank 0.
pub fn barrier_mcast_linear<C: Comm>(c: &mut C, tags: OpTags) -> Result<(), RecvError> {
    if c.size() == 1 {
        return Ok(());
    }
    scout_reduce_linear(c, tags, 0)?;
    let release = tags.tag(Phase::Release);
    if c.rank() == 0 {
        c.mcast_kind(release, MsgKind::Release, &Bytes::new());
    } else {
        c.recv_match(0, release)?;
    }
    Ok(())
}
