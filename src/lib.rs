//! Umbrella crate for the `mcast-mpi` workspace: MPI collective operations
//! over IP multicast (Apon, Chen, Carrasco — IPPS 2000 reproduction).
//!
//! Re-exports the workspace crates under stable names. See the individual
//! crates for details:
//!
//! * [`netsim`] — discrete-event Fast Ethernet / IP / UDP simulator,
//!   with injectable per-link faults (loss, duplication, reordering,
//!   scripted holds/partitions) on one sequential, byte-deterministic
//!   event loop (`docs/SIMULATOR.md`).
//! * [`wire`] — on-the-wire message formats (headers, fragmentation,
//!   scouts, NACKs, ACK-horizon session messages) and the sender-side
//!   retransmit ring with acknowledged-frontier release, built as a
//!   zero-copy `Bytes` datagram path (`docs/PERFORMANCE.md`).
//! * [`transport`] — the request-based [`transport::Comm`] abstraction
//!   (posted receives + progress engine, `docs/API.md`) and its one
//!   implementation over simulator, real-UDP-multicast and in-memory
//!   backends (`docs/API.md`, "Backends"), plus
//!   the NACK/retransmit repair loop, the adaptive control plane
//!   (per-peer RTT estimation, ring GC, send-window back-pressure —
//!   `docs/PROTOCOL.md` §9), the membership layer (heartbeat
//!   liveness, suspicion, failure announcement, epoch rebasing —
//!   `docs/PROTOCOL.md` §10), and the pluggable dissemination seam:
//!   the byte-identical `Multicast` default or the epidemic
//!   `Advr`/`Want` gossip plane for multicast-less networks
//!   (`docs/PROTOCOL.md` §11).
//! * [`core`] — the paper's contribution: broadcast and barrier over IP
//!   multicast, plus the MPICH point-to-point baselines, the
//!   `ibcast`/`ibarrier`/`iallgather` request machines, and
//!   the ULFM-style `PeerFailed` → `shrink()` → retry recovery
//!   (`docs/API.md`).
//! * [`cluster`] — SPMD experiment harness (trials, statistics, CSV,
//!   loss sweeps with drop/NACK/retransmit columns).
//!
//! The invariants the crates keep — no wall clock, hash order or ambient
//! randomness in replay-critical code, no panics on protocol paths, a
//! SAFETY argument on every `unsafe` — are compiler lints: the root
//! `Cargo.toml`'s `[workspace.lints]`, `clippy.toml`, and one
//! `#[expect(lint, reason)]` per reviewed exception, checked by
//! `cargo clippy --workspace --all-targets -- -D warnings`
//! (`docs/INVARIANTS.md`).
//!
//! # Crate graph
//!
//! Dependencies point downward; everything meets at the wire format, which
//! is what lets one implementation of the collectives run over the
//! simulator and over real sockets alike. The repair path (right-hand
//! column) is the receiver-driven recovery protocol: the transport's
//! repair loop answers NACKs out of `wire`'s retransmit ring, healing the
//! losses `netsim`'s fault layer injects:
//!
//! ```text
//!                    mcast-mpi (umbrella: root tests/ + examples/,
//!                        │      the allocation gauge among them)
//!                        ├────────────────┐
//!                        ▼                │
//!                   mmpi-cluster          │   experiments, loss-sweep
//!                        │                │   tables, the figures binary
//!                        ▼                ▼
//!                    mmpi-core ──────────────  collective algorithms
//!                        │                     (loss-oblivious), typed
//!                        │                     RecvError results, and
//!                        │                     ibcast / ibarrier /
//!                        │                     iallgather machines
//!                        │                     (the blocking calls
//!                        │                     wait on them),
//!                        │                     ULFM shrink/leave over
//!                        │                     survivor-agreement votes
//!                        ▼
//!                  mmpi-transport ───────────  Comm: sim | udp | mem
//!                    │         │               · api / config / inbox /
//!                    │         │                 pump: the Comm trait,
//!                    │         │                 RepairConfig, matching
//!                    │         │                 and dedup, what the
//!                    │         │                 engine asks of a pump
//!                    │         │               · endpoint: Endpoint<B>,
//!                    │         │                 the one impl Comm; the
//!                    │         │                 three are its aliases
//!                    │         │                 over a Backend (reach
//!                    │         │                 core + pump, block,
//!                    │         │                 pass time, close)
//!                    │         │               · view: a sub-communicator
//!                    │         │                 (GroupComm, the shrunk
//!                    │         │                 survivors) is the
//!                    │         │                 endpoint under a view:
//!                    │         │                 members, tag shift
//!                    │         │               · engine (EndpointCore):
//!                    │         │                 posted recvs, one
//!                    │         │                 progress engine (test /
//!                    │         │                 wait / wait_any,
//!                    │         │                 docs/API.md), per-request
//!                    │         │                 NACK deadlines driven
//!                    │         │                 for ALL posted recvs,
//!                    │         │                 drain on exit; services
//!                    │         │                 four module-private
//!                    │         │                 planes in a fixed order
//!                    │         │                 (docs/PROTOCOL.md §8.3):
//!                    │         │               · planes::srm: seeded
//!                    │         │                 backoff, mcast NACK
//!                    │         │                 suppression, mcast
//!                    │         │                 repair, Unavail floor
//!                    │         │               · planes::horizon:
//!                    │         │                 AckHorizon session msgs,
//!                    │         │                 per-peer RTT timers
//!                    │         │                 (RFC 6298), ring GC from
//!                    │         │                 acked frontiers, send-
//!                    │         │                 window back-pressure
//!                    │         │               · planes::membership:
//!                    │         │                 heartbeats + suspicion
//!                    │         │                 timers, PeerFailed,
//!                    │         │                 announce flooding,
//!                    │         │                 epoch-rotated contexts
//!                    │         │               · planes::gossip, behind
//!                    │         │                 the dissemination seam:
//!                    │         │                 Multicast (default,
//!                    │         │                 byte-identical) | Gossip
//!                    │         │                 (lazy-push Advr digests,
//!                    │         │                 Want pulls from ring or
//!                    │         │                 relay store, n/2-scaled
//!                    │         │                 retry rotation, GC per
//!                    │         │                 dirty source — §11)
//!                    │         │               · udp: a rank reads its
//!                    │         │                 own two sockets (ppoll
//!                    │         │                 + nonblocking reads);
//!                    │         │                 a UdpComm owns no
//!                    │         │                 thread
//!                    ▼         ▼
//!              mmpi-netsim   mmpi-wire ──────  event-driven net model /
//!                │                 │           datagram format
//!                │                 ├─ zero-copy path: Datagram = header
//!                │                 │  view + payload view (Bytes); split,
//!                │                 │  record, replay, fan-out clone
//!                │                 │  handles, never payload bytes
//!                │                 │  (docs/PERFORMANCE.md, BENCH_3.json)
//!                │                 └─ RetransmitBuffer: replays recorded
//!                │                    datagrams by (requester, tag),
//!                │                    original seq; frees history the
//!                │                    peers' ACK horizons cover
//!                ├─ SharedPayload: datagrams cross the simulator as
//!                │  shared Bytes segments (fan-out/dup/redeliver are
//!                │  refcount bumps)
//!                ├─ World: one sequential event loop for hub and
//!                │  switch (docs/SIMULATOR.md)
//!                └─ FaultParams: per-link drop · dup · reorder ·
//!                   partition · heterogeneous extra delay, on a
//!                   dedicated deterministic RNG stream; unicast-only
//!                   fabric mode (multicast dropped-and-counted at the
//!                   switch) with per-link payload-crossing counters
//! ```
//!
//! # Quickstart
//!
//! Build and test everything (live-UDP tests self-skip where the
//! environment forbids IP multicast):
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```
//!
//! Regenerate the paper's figures (tables + CSV + shape checks):
//!
//! ```text
//! cargo run -p mmpi-cluster --release --bin figures
//! ```

#![forbid(unsafe_code)]

pub use mmpi_cluster as cluster;
pub use mmpi_core as core;
pub use mmpi_netsim as netsim;
pub use mmpi_transport as transport;
pub use mmpi_wire as wire;
