//! [`Endpoint`]: the one implementation of [`Comm`], over a [`Backend`].
//!
//! Everything a communicator does is [`EndpointCore`] policy driven
//! through a [`RepairPump`]; what is left to a backend is how its rank
//! reaches the two, how it blocks, and how its clock passes. [`Backend`]
//! is exactly that, and `MemComm`, `UdpComm` and `SimComm` are
//! [`Endpoint`]s over their backend — type aliases, so the surface cannot
//! differ between them. The glue is generic, not dynamic: each alias is
//! monomorphised, and a call through it costs what the hand-written
//! forwarder it replaced did. A sub-communicator is the same glue under
//! the endpoint's view (`view.rs`): ranks and tags are translated where
//! receives are posted, sends go out and completions are claimed.

use std::time::Duration;

use mmpi_wire::{Bytes, Message, MsgKind, RepairStats};

use crate::api::{CancelSink, ClaimStep, Comm, RecvError, RecvReq, Tag};
use crate::engine::EndpointCore;
use crate::pump::{deadline_after, dur_nanos, Nanos, RepairPump, WaitKind};

/// What differs between the fabrics an [`Endpoint`] runs over.
///
/// A backend owns one rank's [`EndpointCore`] and the [`RepairPump`] that
/// carries its datagrams, and decides how the two are reached. Writing a
/// new one is `docs/API.md`, "Backends".
pub trait Backend {
    /// This backend's clock and sockets.
    type Pump: RepairPump;

    /// Run `f` on the endpoint together with this rank's pump.
    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut Self::Pump) -> R) -> R;

    /// Run `f` on the endpoint alone, for calls that touch neither clock
    /// nor socket and have only `&self`.
    fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R;

    /// Block until `kind` is satisfied, claiming nothing. Contract: take
    /// [`EndpointCore::poll_wait`] turns with one receive between them
    /// until a turn reads `Ready` — except [`WaitKind::AnyPosted`], which
    /// after its *one* receive runs one more engine pass and returns
    /// whatever that pass found. The default is [`EndpointCore::block`],
    /// the rank receiving for itself; the simulator parks the rank
    /// instead and lets the round closer take the turns.
    fn block(&mut self, kind: WaitKind<'_>) {
        self.with(|core, io| core.block(io, &kind));
    }

    /// Block until one of the receives `op` is blocked on
    /// ([`ClaimStep::pending`]) completes — one wait of [`Comm::wait_op`].
    /// `Ok(false)`: the claim is the caller's. `Ok(true)`: the backend took
    /// `op`'s claim steps itself and ran it to its end; `Err`: it failed on
    /// one of them. The default is [`Backend::block`] on that set, leaving
    /// every step to the caller; the simulator lends `op` to the round
    /// closer with the parked rank.
    fn block_op(&mut self, op: &mut dyn ClaimStep) -> Result<bool, RecvError> {
        self.block(WaitKind::AnyOf(op.pending()));
        Ok(false)
    }

    /// Whether one group send reaches the group as one fabric multicast
    /// ([`Comm::multicast_capable`]).
    fn multicast_capable(&self) -> bool {
        true
    }

    /// Let `nanos` of this backend's clock pass with the rank deaf to its
    /// sockets, and return how much passed — at least `nanos`. Virtual
    /// time advances by exactly that; a real transport sleeps and reports
    /// what the sleep really took, so [`Comm::compute`]'s slices do not
    /// add their oversleeps up; a backend without a time model returns at
    /// once.
    fn pass_time(&mut self, nanos: Nanos) -> Nanos;

    /// [`Comm::tcp_ack_model`]; only a simulated fabric has TCP to model.
    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        let _ = (dst, count);
    }

    /// The [`Endpoint`] over this backend is dropped. A backend that owns
    /// its endpoint drains it: a peer may still be missing this rank's
    /// *final* message, so the endpoint keeps answering repair requests
    /// until the link has been quiet for the grace period
    /// ([`EndpointCore::drain`]; a no-op with repair off). The drain is
    /// skipped while unwinding — a panicking rank must not linger, and on
    /// the simulator every blocking call would re-panic. A backend that
    /// borrows the endpoint gives it back instead.
    fn close(&mut self) {
        if !std::thread::panicking() {
            self.with(|core, io| core.drain(io));
        }
    }
}

/// One rank's communicator over backend `B` — the type behind
/// [`crate::MemComm`], [`crate::UdpComm`], [`crate::SimComm`] and a
/// [`crate::GroupComm`] split off any of them. Dropping it closes the
/// backend ([`Backend::close`]): an owned endpoint drains, a borrowed one
/// is given back.
pub struct Endpoint<B: Backend>(pub(crate) B);

impl<B: Backend> Drop for Endpoint<B> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl<B: Backend> Endpoint<B> {
    /// Repair counters of this endpoint so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.0.peek(EndpointCore::repair_stats)
    }

    /// Smoothed RTT estimate toward `peer`, if the ACK-horizon plane has
    /// collected samples for it.
    pub fn peer_rtt(&self, peer: usize) -> Option<Duration> {
        self.0.peek(|core| core.peer_rtt(peer))
    }

    /// Posted-but-unclaimed receives (diagnostics — a steadily growing
    /// value means requests are leaking instead of being waited on or
    /// cancelled).
    pub fn outstanding_recvs(&self) -> usize {
        self.0.peek(EndpointCore::outstanding_recvs)
    }

    /// The drain grace this endpoint would apply on shutdown right now
    /// (exposed for the drain-on-leave regression tests).
    pub fn drain_grace(&self) -> Duration {
        self.0.peek(EndpointCore::drain_grace)
    }

    /// Under a borrowed group, the other members a group send goes to one
    /// unicast each, in rank order (`view.rs`); `None` when a group send
    /// is one fabric multicast.
    fn fan_out(&self) -> Option<impl Iterator<Item = usize>> {
        self.0.peek(|core| {
            let me = core.view.rank(core.rank());
            let peers = (0..core.view.size(core.size())).filter(move |&r| r != me);
            core.view.is_group().then_some(peers)
        })
    }
}

impl<B: Backend> Comm for Endpoint<B> {
    fn rank(&self) -> usize {
        self.0.peek(|core| core.view.rank(core.rank()))
    }

    fn size(&self) -> usize {
        self.0.peek(|core| core.view.size(core.size()))
    }

    fn context(&self) -> u32 {
        self.0.peek(EndpointCore::context)
    }

    fn multicast_capable(&self) -> bool {
        self.0.multicast_capable()
    }

    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.0.with(|core, io| {
            core.send_message(io, core.view.world(dst), core.view.tag(tag), kind, payload)
        })
    }

    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        match self.fan_out() {
            Some(peers) => peers.fold(0, |_, r| self.send_kind(r, tag, kind, payload)),
            None => self
                .0
                .with(|core, io| core.mcast_message(io, core.view.tag(tag), kind, payload)),
        }
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        if self.fan_out().is_some() {
            // A fan-out goes again, under fresh sequence numbers.
            self.mcast_kind(tag, kind, payload);
        } else {
            self.0.with(|core, io| {
                core.mcast_resend_message(io, core.view.tag(tag), kind, payload, seq)
            });
        }
    }

    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.0.with(|core, io| {
            core.post_recv(io, src.map(|s| core.view.world(s)), core.view.tag(tag))
        })
    }

    fn progress(&mut self) {
        self.0.with(|core, io| core.progress(io));
    }

    fn progress_block(&mut self) {
        self.0.block(WaitKind::AnyPosted);
    }

    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        if !reqs.is_empty() {
            self.0.peek(|core| core.expect_posted(reqs));
            self.0.block(WaitKind::AnyOf(reqs));
        }
    }

    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.0
            .with(|core, _| core.test_claimed(req).map(|r| core.view.local(r)))
    }

    fn expire_recv(&mut self, req: RecvReq, after: Duration) {
        self.0
            .with(|core, io| core.expire_at(req, deadline_after(io.now(), after)));
    }

    fn wait_op(&mut self, op: &mut dyn ClaimStep) -> Result<(), RecvError> {
        loop {
            let reqs = op.claim(self)?;
            if reqs.is_empty() {
                return Ok(());
            }
            self.0.peek(|core| core.expect_posted(reqs));
            if self.0.block_op(op)? {
                return Ok(());
            }
        }
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.0.with(|core, _| core.cancel_req(req));
    }

    fn cancel_sink(&self) -> CancelSink {
        self.0.peek(EndpointCore::cancel_sink)
    }

    fn compute(&mut self, d: Duration) {
        // A busy rank is deaf, but it must not go mute: with membership
        // armed, slice the stretch at beacon boundaries and emit the
        // heartbeats that fall due mid-slice (the job a real deployment's
        // progress thread does), so peers never read a long compute
        // phase as death. Without membership this folds to one stretch.
        let mut remaining = dur_nanos(d);
        while remaining > 0 {
            let step = self.0.with(|core, io| match core.next_heartbeat_due() {
                Some(hb_at) => remaining.min(hb_at.saturating_sub(io.now()).max(1)),
                None => remaining,
            });
            remaining = remaining.saturating_sub(self.0.pass_time(step));
            self.0.with(|core, io| core.beacon_tick(io));
        }
    }

    fn tcp_ack_model(&mut self, dst: usize, count: u32) {
        let dst = self.0.peek(|core| core.view.world(dst));
        self.0.tcp_ack_model(dst, count);
    }

    fn failed_peers(&self) -> Vec<usize> {
        self.0
            .peek(|core| core.view.local_peers(core.failed_peers()))
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.0
            .peek(|core| core.view.local_peers(core.departed_peers()))
    }

    fn epoch(&self) -> u32 {
        self.0.peek(|core| core.view.epoch(core.epoch()))
    }

    // A borrowed group keeps `leave` and `rebase_epoch` no-ops: departing
    // or re-contexting the parent endpoint from inside one would outlive
    // the group.
    fn leave(&mut self) {
        self.0.with(|core, io| {
            if !core.view.is_group() {
                core.leave(io);
            }
        });
    }

    fn rebase_epoch(&mut self, epoch: u32) {
        self.0.with(|core, _| {
            if !core.view.is_group() {
                core.rebase_epoch(epoch);
            }
        });
    }

    fn declare_failed(&mut self, rank: usize) {
        self.0
            .with(|core, _| core.force_fail(core.view.world(rank)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ScriptedPump;
    use crate::RepairConfig;

    /// A bare core on the scripted clock whose every sleep overruns by
    /// half, as `thread::sleep` may on a busy host.
    struct Oversleeper {
        core: EndpointCore,
        io: ScriptedPump,
        slices: u32,
    }

    impl Backend for Oversleeper {
        type Pump = ScriptedPump;

        fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut ScriptedPump) -> R) -> R {
            f(&mut self.core, &mut self.io)
        }

        fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R {
            f(&self.core)
        }

        fn pass_time(&mut self, nanos: Nanos) -> Nanos {
            let passed = nanos + nanos / 2;
            self.io.set_clock(self.io.clock() + passed);
            self.slices += 1;
            passed
        }
    }

    /// `compute` is sliced at heartbeat boundaries, and a slice that ran
    /// long is charged for what it took: the stretch ends within one
    /// slice of `d` however many slices it needed, instead of every
    /// overrun being added on top.
    #[test]
    fn compute_charges_each_slice_what_it_took() {
        let hb = Duration::from_millis(1);
        let repair = RepairConfig::sim_default().with_membership(hb);
        let mut c = Endpoint(Oversleeper {
            core: EndpointCore::new(0, 0, 2, 60_000, Some(repair)),
            io: ScriptedPump::new(),
            slices: 0,
        });
        c.progress(); // the first pass starts the heartbeat schedule
        let start = c.0.io.clock();
        let d = Duration::from_millis(20);
        c.compute(d);
        let took = c.0.io.clock() - start;
        assert!(c.0.slices >= 10, "sliced at the beacons: {}", c.0.slices);
        assert!(took >= dur_nanos(d), "{took}");
        assert!(
            took <= dur_nanos(d + hb + hb / 2),
            "overruns add up: {took}"
        );
        assert!(c.repair_stats().heartbeats_sent >= 10, "not mute meanwhile");
        c.leave(); // retired: the drop has nothing left to drain
    }
}
