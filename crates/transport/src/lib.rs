//! # mmpi-transport — communication backends for `mcast-mpi`
//!
//! Defines the request-based, tag-matching [`Comm`] interface the
//! collective algorithms in `mmpi-core` are written against — posted
//! receives ([`Comm::post_recv`]) driven by a shared progress engine
//! ([`Comm::progress`]/[`Comm::test`]/[`Comm::wait`]/[`Comm::wait_any`]),
//! with blocking receives kept as thin post-and-wait conveniences — and
//! its one implementation, [`Endpoint`], over three interchangeable
//! [`Backend`]s:
//!
//! | communicator | fabric | use |
//! |---|---|---|
//! | [`sim::SimComm`] | `mmpi-netsim` virtual hub/switch | figure regeneration, deterministic experiments |
//! | [`udp::UdpComm`] | real UDP + IP multicast (socket2) | live runs on loopback or a LAN |
//! | [`mem::MemComm`] | in-process channels | fast algorithm correctness tests |
//!
//! All three are type aliases of [`Endpoint`], speak the `mmpi-wire`
//! datagram format and share one backend-independent engine, so a
//! collective validated on one backend behaves identically on the others
//! (up to timing):
//!
//! | module | what lives there |
//! |---|---|
//! | [`api`] | the [`Comm`] trait, request handles, typed errors |
//! | [`endpoint`] | [`Endpoint`], the one `impl Comm`, and the [`Backend`] trait a fabric implements |
//! | [`config`] | [`RepairConfig`] and the knobs of the planes under it |
//! | [`inbox`] | [`Inbox`]: reassembly, dedup, tag matching, control-traffic diversion |
//! | [`pump`] | [`RepairPump`]/[`RepairPort`] — what the engine asks of a backend |
//! | [`engine`] | [`EndpointCore`]: send paths, request table, progress engine, the one wait loop, drain |
//! | [`view`] | sub-communicators as views inside the endpoint: [`GroupComm`] and the shrunk survivors |
//! | `planes::{srm, horizon, membership, gossip}` | the repair loop's four planes, module-private, each reached through a few entry points |
//!
//! The sim and UDP backends optionally run the NACK/retransmit repair
//! loop (enable with [`RepairConfig`]; walkthrough in
//! `docs/PROTOCOL.md`), which lets the collectives complete on a fabric
//! that drops, duplicates or reorders datagrams. Every repair timer is a
//! fixed multiple of [`RepairConfig::nack_timeout`]. On top of it, the
//! ACK-horizon plane (`RepairConfig::with_horizon_interval`;
//! `docs/PROTOCOL.md` §9) adds periodic `AckHorizon` session messages:
//! they measure each peer's RTT, which no timer reads, and their
//! acknowledged frontiers garbage-collect the retransmit ring. A sender that outruns
//! its receivers is bounded by the ring's capacity eviction, answered by
//! `Unavail` (§8.1); there is no send window (§9.4).
//! [`sim::run_sim_world_stats`] reports the recovery effort alongside the
//! network counters as a [`sim::WorldStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Protocol paths surface errors; the reviewed exceptions carry an
// `#[expect]` at their site (docs/INVARIANTS.md §4).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo
)]

pub mod api;
pub mod config;
pub mod endpoint;
pub mod engine;
pub mod inbox;
pub mod mem;
mod planes;
pub mod pump;
pub mod sim;
#[doc(hidden)]
pub mod testing;
pub mod udp;
pub mod view;

pub use api::{
    CancelSink, ClaimStep, Comm, RecvError, RecvReq, SendReq, SendWindowFull, Tag,
    FIRE_AND_FORGET_TAG,
};
pub use config::{MembershipConfig, RepairConfig};
pub use endpoint::{Backend, Endpoint};
pub use engine::EndpointCore;
pub use inbox::Inbox;
pub use mem::{run_mem_world, MemComm};
pub use pump::{Nanos, RepairPort, RepairPump, WaitKind, WaitPoll};
pub use sim::{run_sim_world, run_sim_world_stats, SimComm, SimCommConfig, WorldStats};
pub use udp::{multicast_available, multicast_available_cached, run_udp_world, UdpComm, UdpConfig};
pub use view::{Borrowed, GroupComm};

/// The engine-level unit tests, over [`testing::ScriptedPump`]. The
/// module path `comm::tests` is the one these tests have had since the
/// endpoint was a single `comm.rs`, and the one the test floor lists
/// them under.
#[cfg(test)]
mod comm {
    mod tests;
}
