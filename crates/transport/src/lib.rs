//! # mmpi-transport — communication backends for `mcast-mpi`
//!
//! Defines the request-based, tag-matching [`Comm`] interface the
//! collective algorithms in `mmpi-core` are written against — posted
//! receives ([`Comm::post_recv`]) driven by a shared progress engine
//! ([`Comm::progress`]/[`Comm::test`]/[`Comm::wait`]/[`Comm::wait_any`]),
//! with blocking receives kept as thin post-and-wait conveniences — and
//! three interchangeable implementations:
//!
//! | backend | fabric | use |
//! |---|---|---|
//! | [`sim::SimComm`] | `mmpi-netsim` virtual hub/switch | figure regeneration, deterministic experiments |
//! | [`udp::UdpComm`] | real UDP + IP multicast (socket2) | live runs on loopback or a LAN |
//! | [`mem::MemComm`] | in-process channels | fast algorithm correctness tests |
//!
//! All three speak the `mmpi-wire` datagram format and share the
//! [`comm::Inbox`] matching/dedup logic, so a collective validated on one
//! backend behaves identically on the others (up to timing).
//!
//! The sim and UDP backends optionally run the NACK/retransmit repair
//! loop (enable with [`comm::RepairConfig`]; walkthrough in
//! `docs/PROTOCOL.md`), which lets the collectives complete on a fabric
//! that drops, duplicates or reorders datagrams. On top of it, the
//! adaptive control plane (`RepairConfig::with_adaptive` /
//! `with_horizon_interval` / `with_send_window`; `docs/PROTOCOL.md` §9)
//! adds periodic `AckHorizon` session messages: per-peer RTT estimates
//! stretch each peer's solicitation timers to its measured link,
//! acknowledged frontiers garbage-collect the retransmit ring, and a
//! send window back-pressures senders that outrun their receivers.
//! [`sim::run_sim_world_stats`] reports the recovery effort alongside the
//! network counters as a [`sim::WorldStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comm;
pub mod mem;
pub mod sim;
pub mod udp;

pub use comm::{
    CancelSink, Comm, EndpointCore, Inbox, MembershipConfig, Nanos, RecvError, RecvReq,
    RepairConfig, RepairPort, RepairPump, SendReq, SendWindowFull, Tag, WaitKind, WaitPoll,
    FIRE_AND_FORGET_TAG,
};
pub use mem::{run_mem_world, MemComm};
pub use sim::{
    run_sim_world, run_sim_world_stats, RepairStatsSink, SimComm, SimCommConfig, WorldStats,
};
pub use udp::{multicast_available, multicast_available_cached, run_udp_world, UdpComm, UdpConfig};
