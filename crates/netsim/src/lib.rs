//! # mmpi-netsim — a frame-level Fast Ethernet / IP / UDP simulator
//!
//! The testbed substrate for the `mcast-mpi` reproduction of *"MPI
//! Collective Operations over IP Multicast"* (Apon, Chen, Carrasco, IPPS
//! 2000). The paper measured nine Pentium-III workstations on a shared
//! 100 Mbps Ethernet **hub** and on a managed **switch**; this crate
//! simulates exactly those two fabrics at the granularity their results
//! depend on:
//!
//! * Ethernet framing: preamble, MAC header, 46-byte minimum payload
//!   padding, FCS, inter-frame gap, 1500-byte MTU, 80 ns/byte
//!   serialization;
//! * the hub as one CSMA/CD collision domain with truncated binary
//!   exponential backoff;
//! * the switch as store-and-forward with per-output-port queues and
//!   IGMP-snooped multicast membership;
//! * hosts with UDP sockets, IPv4 fragmentation/reassembly, bounded
//!   receive buffers, LogP-style software send/receive overheads, and the
//!   paper's optional strict "receive must be posted" loss model.
//!
//! ## Co-simulation
//!
//! [`cluster::run_cluster`] executes an SPMD closure — one OS thread per
//! rank — against the simulated network in deterministic virtual time.
//! The same protocol code that runs here also runs over real UDP multicast
//! sockets via the `mmpi-transport` crate.
//!
//! ## The event loop
//!
//! [`world::World`] is one single-threaded discrete-event loop over a
//! `(time, sequence)`-ordered queue; both fabrics run on it, each owning
//! its frame path and its events ([`hub`], [`switch`]). Scheduled
//! link faults — holds, partitions, heals — are described by a
//! [`topology::TopologyScript`]. The event model, the rank hand-off and
//! the determinism contract are documented in `docs/SIMULATOR.md`.
//!
//! ```
//! use mmpi_netsim::cluster::{run_cluster, ClusterConfig};
//! use mmpi_netsim::ids::{DatagramDst, GroupId};
//! use mmpi_netsim::params::NetParams;
//!
//! // Rank 0 multicasts 1 kB to everyone else.
//! let cfg = ClusterConfig::new(4, NetParams::fast_ethernet_switch(), 42);
//! let report = run_cluster(&cfg, |mut p| {
//!     let sock = p.bind(5000);
//!     let group = GroupId(1);
//!     p.join_group(sock, group);
//!     if p.rank() == 0 {
//!         p.send(sock, DatagramDst::Multicast(group), 5000, vec![7u8; 1024]);
//!         Vec::new()
//!     } else {
//!         p.recv(sock).payload.to_vec()
//!     }
//! })
//! .unwrap();
//! assert!(report.outputs[1..].iter().all(|b| b == &vec![7u8; 1024]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Simulator paths surface errors; the reviewed exceptions carry an
// `#[expect]` at their site (docs/INVARIANTS.md §4).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo
)]

pub mod cluster;
pub mod error;
pub mod event;
pub mod frame;
pub mod host;
pub mod hub;
pub mod ids;
pub mod nic;
pub mod params;
pub mod process;
pub mod rng;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;
pub mod trace;
pub mod world;

pub use cluster::{run_cluster, ClusterConfig, HandoffStats, RankPort, RunReport};
pub use error::SimError;
pub use frame::{Datagram, SharedPayload};
pub use ids::{DatagramDst, GroupId, HostId, SocketId, UdpPort};
pub use params::{EthernetParams, FabricKind, HostParams, IpParams, NetParams, SwitchParams};
pub use process::{Served, ServedRecv, SimProcess, Step};
pub use time::{SimDuration, SimTime};
pub use topology::{TopologyOp, TopologyScript};
pub use world::{Completion, StepOutcome, World};
