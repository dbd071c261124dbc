//! Heap-allocation assertions for the zero-copy datagram path, measured
//! with a counting global allocator:
//!
//! * steady-state split + assemble allocates a **constant** number of
//!   times per message — growing the chunk count must not grow the
//!   allocation count (the "zero per-chunk allocations" acceptance);
//! * recording a message into the [`RetransmitBuffer`] allocates no
//!   payload-sized memory; and
//! * evicting a record releases the message's buffers — shared `Bytes`
//!   views in the ring do not leak (live bytes return to baseline); and
//! * the delivery path above `wire` holds its budget as exact counts
//!   (`docs/PERFORMANCE.md`, "Who allocates, layer by layer"): an `Advr`
//!   costs its payload and its datagram and nothing else, its fan-out
//!   shares the payload, an overheard NACK and an unchanged session
//!   message are ingested without allocating, a unicast datagram crosses
//!   a `World` switch for the price of its own `Arc`; and
//! * a forged chunk header cannot make the assembler reserve memory in
//!   proportion to what it claims, nor a forged `(src, seq)` the inbox.
//!
//! Everything runs inside one `#[test]` so no concurrent test thread
//! perturbs the counters. To see where a count comes from, wrap any
//! statement of the path in [`allocs_of`] and print what it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mmpi_netsim::ids::{DatagramDst, HostId, UdpPort};
use mmpi_netsim::params::NetParams;
use mmpi_netsim::world::{StepOutcome, World};
use mmpi_netsim::SharedPayload;
use mmpi_transport::testing::ScriptedPump;
use mmpi_transport::{EndpointCore, RepairConfig};
use mmpi_wire::{
    split_message, AckHorizonPayload, Assembler, Bytes, Datagram, Header, MsgKind, NackPayload,
    RetransmitBuffer, SendDst, SeqRange, SourceHorizon, DEFAULT_RETRANSMIT_CAP,
};

struct Gauge;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` — every contract (layout
// validity, pointer provenance) is forwarded unchanged; the counters
// are lock-free atomics with no allocation of their own.
unsafe impl GlobalAlloc for Gauge {
    // SAFETY (all three methods): caller upholds GlobalAlloc's
    // contract; we forward the exact same arguments to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GAUGE: Gauge = Gauge;

/// Allocations of one run of `f`.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Mean allocations per call of `f` over `iters` calls (warm-up first).
fn allocs_per(iters: u64, mut f: impl FnMut()) -> u64 {
    f();
    allocs_of(|| (0..iters).for_each(|_| f())) / iters
}

fn split_assemble_allocs(chunk: usize) -> u64 {
    let payload = Bytes::from(vec![0xA5u8; 64 * 1024]);
    allocs_per(200, || {
        let dgs = split_message(MsgKind::Data, 0, 1, 7, 3, &payload, chunk);
        let mut asm = Assembler::new();
        let mut out = None;
        for d in &dgs {
            if let Some(m) = asm.feed(d).unwrap() {
                out = Some(m);
            }
        }
        assert_eq!(out.expect("complete").payload.len(), 64 * 1024);
    })
}

/// Allocations of one run of `f` in steady state: 64 runs, which must all
/// cost the same.
fn steady_allocs(mut f: impl FnMut()) -> u64 {
    let first = allocs_of(&mut f);
    for _ in 1..64 {
        assert_eq!(allocs_of(&mut f), first, "the count must be a constant");
    }
    first
}

/// Allocations of one group send of a 1 KiB payload at rank 0 of `n`, the
/// gossip plane armed and warm: the retransmit ring full (every record
/// evicts one) and every peer advertised to before.
fn gossip_send_allocs(n: usize) -> u64 {
    let cfg = RepairConfig::sim_default().with_gossip();
    let mut core = EndpointCore::new(0, 0, n, 60_000, Some(cfg));
    let mut io = ScriptedPump::new();
    let payload = Bytes::from(vec![0x3Cu8; 1024]);
    for _ in 0..2 * DEFAULT_RETRANSMIT_CAP {
        core.mcast_message(&mut io, 7, MsgKind::Data, &payload);
    }
    steady_allocs(|| {
        core.mcast_message(&mut io, 7, MsgKind::Data, &payload);
    })
}

/// Per-call allocations of ingesting `calls` copies of one control
/// message — `payload`, from rank 1, each under its own sequence number —
/// at rank 0 of 8 armed with `cfg`, one `progress` pass each. Queueing the
/// message is outside the count; taking it off the socket, the inbox and
/// the plane that consumes it are inside.
fn control_ingest_allocs(
    cfg: RepairConfig,
    kind: MsgKind,
    first_seq: u64,
    payload: &[u8],
    calls: u64,
) -> Vec<u64> {
    let mut core = EndpointCore::new(0, 0, 8, 60_000, Some(cfg));
    let mut io = ScriptedPump::new();
    let mut ingest = |k: u64| {
        io.inject_message(kind, 1, 9, first_seq + k, payload);
        allocs_of(|| core.progress(&mut io))
    };
    // Warm: queues, maps and the planes' own state.
    for k in 0..600 {
        ingest(k);
    }
    (600..600 + calls).map(ingest).collect()
}

/// Allocations of one 1 KiB unicast datagram crossing a two-host switched
/// `World` end to end — sent, fragmented (one frame), serialized onto the
/// uplink, forwarded, delivered, popped — after the world has carried a
/// few. The payload handle is the caller's and is not counted.
fn world_crossing_allocs() -> u64 {
    const PORT: UdpPort = UdpPort(4400);
    let mut world = World::new(2, NetParams::fast_ethernet_switch(), 7);
    let sockets = [world.bind(HostId(0), PORT), world.bind(HostId(1), PORT)];
    let wire = split_message(
        MsgKind::Data,
        0,
        0,
        7,
        1,
        &Bytes::from(vec![9u8; 1024]),
        60_000,
    );
    let cross = |world: &mut World| {
        let payload = SharedPayload::pair(wire[0].header().clone(), wire[0].payload().clone());
        let dst = DatagramDst::Unicast(HostId(1));
        let at = world.now();
        world.send_datagram(HostId(0), PORT, dst, PORT, payload, at, false, false);
        while !matches!(world.step(), StepOutcome::Quiescent) {}
        let (_, dg) = world
            .try_pop_buffered(HostId(1), sockets[1])
            .expect("a lossless switch delivers");
        assert_eq!(dg.payload.len(), wire[0].len());
    };
    for _ in 0..16 {
        cross(&mut world);
    }
    steady_allocs(|| cross(&mut world))
}

#[test]
fn datagram_path_allocation_budget() {
    // --- an `Advr` costs its payload and its datagram ------------------
    // One peer. The group send itself is 4: `split_message`'s three (the
    // header buffer, its shared handle, the `Vec` of datagram views) and
    // the ring record's `Vec` of views. The `Advr` it triggers is 5: the
    // digest payload's buffer and shared handle, and `split_message`'s
    // three again. The id list, its sort, the ranges and the digest bytes
    // are scratch the plane owns.
    assert_eq!(gossip_send_allocs(2), 4 + 5);
    // 31 peers, of which 5 are fingers, one id: the payload is encoded
    // once and every finger gets a handle to it, so each further `Advr` is
    // its datagram alone. Re-recorded once (it was 2 + 31 · 3) when the
    // origin took to advertising to its fingers only, not to every peer
    // (`docs/PROTOCOL.md` §11.1). The fingers are the origin's tree
    // children, and each `Advr` is followed by a push of the payload
    // (§11.1): a push hands the port the recorded datagrams and allocates
    // nothing, so the count stayed put when pushes came in.
    let fan_out = gossip_send_allocs(32) - 4;
    assert_eq!(fan_out, 2 + 5 * 3);
    assert!(fan_out <= 5 * 5);

    // --- an unchanged session message is ingested in place -------------
    let session = AckHorizonPayload {
        probe_ts: 1,
        echoes: vec![],
        acks: (1..8)
            .map(|src| SourceHorizon {
                src,
                hwm: 5,
                missing: vec![SeqRange { start: 2, end: 3 }],
            })
            .collect(),
        member: None,
    }
    .encode();
    let horizons_only =
        RepairConfig::sim_default().with_horizon_interval(std::time::Duration::from_millis(8));
    for cfg in [horizons_only, horizons_only.with_gossip()] {
        let per_call = control_ingest_allocs(cfg, MsgKind::AckHorizon, 1 << 63, &session, 64);
        assert!(
            per_call.iter().all(|&c| c == 0),
            "a session message that changes no frontier allocated: {per_call:?}"
        );
    }

    // --- an overheard NACK is ingested in place ------------------------
    // Addressed to rank 2, heard at rank 0: the suppression memory takes
    // its target and tag, nobody takes its ranges. A NACK has a data
    // sequence number, and recording that is a bit in the source's row.
    let nack = NackPayload {
        target: 2,
        missing: (0..8)
            .map(|k| SeqRange {
                start: 10 * k,
                end: 10 * k + 3,
            })
            .collect(),
    }
    .encode();
    let per_call = control_ingest_allocs(RepairConfig::sim_default(), MsgKind::Nack, 0, &nack, 64);
    assert!(
        per_call.iter().all(|&c| c == 0),
        "an overheard NACK allocated: {per_call:?}"
    );

    // --- a datagram crosses a switch for the price of its own `Arc` ----
    assert_eq!(world_crossing_allocs(), 1);

    // --- a forged header reserves a constant, not its claim -------------
    // `chunk_count = msg_len = u32::MAX`, no bytes: 4 GiB of message and
    // as many chunks, by a header that is 40 bytes long. What the
    // assembler may hold for it is the one reassembly buffer it reserves
    // for any multi-chunk message, a datagram's worth at most.
    let forged = |seq: u64, chunk_index: u32, chunk_len: u32| {
        let header = Header {
            kind: MsgKind::Data,
            context: 0,
            src_rank: 1,
            tag: 7,
            seq,
            msg_len: u32::MAX,
            chunk_index,
            chunk_count: u32::MAX,
            chunk_len,
        }
        .encode_array();
        Datagram::from_parts(
            Bytes::copy_from_slice(&header),
            Bytes::from(vec![0u8; chunk_len as usize]),
        )
    };
    let mut asm = Assembler::new();
    let live_before = LIVE.load(Ordering::Relaxed);
    for seq in 0..64 {
        // Refused outright: an empty non-final chunk.
        assert!(asm.feed(&forged(seq, 0, 0)).is_err());
        // Taken for a chunk of a message that will never complete: one
        // byte a chunk, the last-but-one of four billion.
        assert!(asm.feed(&forged(seq, u32::MAX - 2, 1)).unwrap().is_none());
    }
    let pinned = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    assert!(
        pinned <= 64 * (64 * 1024 + 1024),
        "64 forged headers pinned {pinned} B"
    );

    // --- a forged `(src, seq)` costs an entry, not a table to its index -
    // Nothing authenticates a sender: rank `u32::MAX`, or message number
    // `1 << 62`, is accepted like any other. What the endpoint may keep
    // for it — the message itself is taken out again here — is an entry
    // in the inbox's sparse fallback (`docs/INVARIANTS.md` §6): 1 KiB
    // for the first of each kind together, B-tree nodes and all, and
    // under 128 B for each one after them.
    let mut core = EndpointCore::new(0, 0, 8, 60_000, Some(RepairConfig::sim_default()));
    let mut io = ScriptedPump::new();
    let mut accept = |src: u32, seq: u64| {
        io.inject_message(MsgKind::Data, src, 9, seq, b"forged");
        core.progress(&mut io);
        let taken = core
            .inbox
            .take_match(None, 9)
            .expect("accepted, as any message is");
        assert_eq!((taken.src_rank, taken.seq), (src, seq));
    };
    // Warm: the queues, and one real source.
    (0..64).for_each(|seq| accept(1, seq));
    let live_before = LIVE.load(Ordering::Relaxed);
    accept(u32::MAX, 3);
    accept(1, 1 << 62);
    let pinned = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    assert!(pinned <= 1024, "two forgeries pinned {pinned} B");
    for k in 0..64 {
        accept(u32::MAX - 1 - k, (1 << 62) + u64::from(k));
        accept(1, (1 << 61) + 10_000 * u64::from(k));
    }
    let pinned = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    assert!(pinned <= 130 * 128, "130 forgeries pinned {pinned} B");
    // The largest dense index: the row table grows to it — 1 024 rows of
    // 48 B — once.
    accept(1023, 0);
    let pinned = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    assert!(
        pinned <= 130 * 128 + 1024 * 48 + 1024,
        "a forged rank 1023 pinned {pinned} B"
    );

    // --- constant allocations per message, independent of chunking ----
    let allocs_2_chunks = split_assemble_allocs(60_000); // 2 chunks
    let allocs_45_chunks = split_assemble_allocs(1472); // 45 chunks
    assert!(
        allocs_45_chunks <= allocs_2_chunks + 2,
        "allocation count grew with chunk count: {allocs_2_chunks} @ 2 chunks vs \
         {allocs_45_chunks} @ 45 chunks — a per-chunk allocation crept in"
    );
    assert!(
        allocs_45_chunks <= 10,
        "split+assemble now costs {allocs_45_chunks} allocations per message (expected ~6)"
    );

    // --- recording is allocation-light and payload-free ---------------
    let payload = Bytes::from(vec![0x5Au8; 1024 * 1024]);
    let dgs = split_message(MsgKind::Data, 0, 1, 7, 3, &payload, 1472);
    let mut rtx = RetransmitBuffer::new(4);
    let mut seq = 0u64;
    let live_before = LIVE.load(Ordering::Relaxed);
    let record_allocs = allocs_per(100, || {
        seq += 1;
        rtx.record(seq, SendDst::Multicast, 7, MsgKind::Data, &dgs);
    });
    assert!(
        record_allocs <= 2,
        "recording a 1 MiB / 713-chunk message allocated {record_allocs} times \
         (expected 1: the Vec of datagram views)"
    );
    // The ring holds 4 records of ~713 handle-pairs each (~50 kB of
    // views) but must not have duplicated the 1 MiB payload even once.
    let live_grown = LIVE.load(Ordering::Relaxed).saturating_sub(live_before);
    assert!(
        live_grown < 512 * 1024,
        "recording retained {live_grown} B — payload bytes were copied into the ring"
    );

    // --- eviction releases the message memory -------------------------
    // Fill the ring with large messages, then evict them all with empty
    // records: the payload buffers must be freed (no lingering views).
    let live_baseline = LIVE.load(Ordering::Relaxed);
    for s in 0..4u64 {
        let big = Bytes::from(vec![s as u8; 1024 * 1024]);
        let big_dgs = split_message(MsgKind::Data, 0, 1, 9, s, &big, 1472);
        rtx.record(1000 + s, SendDst::Multicast, 9, MsgKind::Data, &big_dgs);
    }
    let live_full = LIVE.load(Ordering::Relaxed);
    assert!(
        live_full - live_baseline >= 4 * 1024 * 1024,
        "ring should be holding ~4 MiB of recorded messages"
    );
    for s in 0..4u64 {
        rtx.record(2000 + s, SendDst::Multicast, 9, MsgKind::Data, &[]);
    }
    let live_after = LIVE.load(Ordering::Relaxed);
    assert!(
        live_after.saturating_sub(live_baseline) < 256 * 1024,
        "eviction leaked recorded payloads: {} B still live",
        live_after - live_baseline
    );
}
