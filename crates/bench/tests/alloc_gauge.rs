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
//! * ingesting a session message whose frontiers are all unchanged costs
//!   a gossip-armed endpoint not one allocation more than an endpoint
//!   with the gossip plane off.
//!
//! Everything runs inside one `#[test]` so no concurrent test thread
//! perturbs the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mmpi_transport::testing::ScriptedPump;
use mmpi_transport::{EndpointCore, RepairConfig};
use mmpi_wire::{
    split_message, AckHorizonPayload, Assembler, Bytes, MsgKind, RetransmitBuffer, SendDst,
    SourceHorizon,
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
        unsafe { System.alloc(layout) } // SAFETY: forwarded contract.
    }

    // SAFETY: see `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) } // SAFETY: forwarded contract.
    }

    // SAFETY: see `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) } // SAFETY: forwarded contract.
    }
}

#[global_allocator]
static GAUGE: Gauge = Gauge;

/// Mean allocations per call of `f` over `iters` calls (warm-up first).
fn allocs_per(iters: u64, mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) / iters
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

/// Allocations per ingested session message — rank 1 of 8 repeating the
/// same seven frontiers — at an endpoint armed with `cfg`, the scripted
/// pump's own queueing included (it is the same on every call).
fn session_message_allocs(cfg: RepairConfig) -> u64 {
    let mut core = EndpointCore::new(0, 0, 8, 60_000, Some(cfg));
    let mut io = ScriptedPump::new();
    let payload = AckHorizonPayload {
        probe_ts: 1,
        echoes: vec![],
        acks: (1..8)
            .map(|src| SourceHorizon {
                src,
                hwm: 5,
                missing: vec![],
            })
            .collect(),
        member: None,
    }
    .encode();
    let mut seq = 1u64 << 63;
    allocs_per(500, || {
        seq += 1;
        io.inject_message(MsgKind::AckHorizon, 1, 0, seq, &payload);
        core.progress(&mut io);
    })
}

#[test]
fn datagram_path_allocation_budget() {
    // --- an unchanged session message costs the gossip plane nothing --
    let horizons_only =
        RepairConfig::sim_default().with_horizon_interval(std::time::Duration::from_millis(8));
    let plain = session_message_allocs(horizons_only);
    let gossip = session_message_allocs(horizons_only.with_gossip());
    assert_eq!(
        gossip, plain,
        "the gossip plane allocates on a session message that changes no frontier"
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
