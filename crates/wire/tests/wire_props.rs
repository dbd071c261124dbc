//! Property-based tests for the wire format: any message survives
//! split/assemble under any chunk size, duplication, and reordering; and
//! the decoder never panics on arbitrary bytes.

use proptest::prelude::*;

use mmpi_wire::{
    split_message, AckHorizonPayload, Assembler, Bytes, Datagram, FailureAnnouncePayload, Header,
    HeartbeatPayload, HorizonEcho, MsgKind, NackPayload, SeqRange, SourceHorizon, UnavailPayload,
};

/// Run every payload decoder over `bytes`: none may panic, and whatever
/// one accepts must re-encode (no internal inconsistency).
fn decode_as_every_payload(bytes: &[u8]) {
    if let Ok(p) = NackPayload::decode(bytes) {
        let _ = p.encode();
    }
    if let Ok(p) = AckHorizonPayload::decode(bytes) {
        let _ = p.encode();
    }
    if let Ok(p) = HeartbeatPayload::decode(bytes) {
        let _ = p.encode();
    }
    if let Ok(p) = FailureAnnouncePayload::decode(bytes) {
        let _ = p.encode();
    }
    if let Ok(p) = UnavailPayload::decode(bytes) {
        let _ = p.encode();
    }
}

/// One well-formed encoding of each control payload, with every
/// counted section populated.
fn valid_payloads() -> Vec<Bytes> {
    let holes = vec![
        SeqRange { start: 3, end: 5 },
        SeqRange {
            start: 9,
            end: u64::MAX,
        },
    ];
    vec![
        NackPayload {
            target: 2,
            missing: holes.clone(),
        }
        .encode(),
        AckHorizonPayload {
            probe_ts: 77,
            echoes: vec![HorizonEcho {
                peer: 1,
                ts: 5,
                hold_ns: 6,
            }],
            acks: vec![SourceHorizon {
                src: 4,
                hwm: 12,
                missing: holes,
            }],
            member: Some(HeartbeatPayload {
                epoch: 1,
                incarnation: 0,
            }),
        }
        .encode(),
        HeartbeatPayload {
            epoch: 3,
            incarnation: 1,
        }
        .encode(),
        FailureAnnouncePayload {
            epoch: 2,
            graceful: false,
            ranks: vec![1, 5, 9],
        }
        .encode(),
        UnavailPayload { tag_floor: 40 }.encode(),
    ]
}

fn kind_strategy() -> impl Strategy<Value = MsgKind> {
    prop_oneof![
        Just(MsgKind::Data),
        Just(MsgKind::Scout),
        Just(MsgKind::Ack),
        Just(MsgKind::Release),
    ]
}

proptest! {
    #[test]
    fn split_assemble_roundtrip(
        kind in kind_strategy(),
        context in 0u32..16,
        src in 0u32..32,
        tag in any::<u32>(),
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..20_000),
        chunk in 1usize..8_192,
    ) {
        let shared = Bytes::from(payload.clone());
        let dgs = split_message(kind, context, src, tag, seq, &shared, chunk);
        // Every chunk respects the size limit.
        for d in &dgs {
            prop_assert!(d.len() <= mmpi_wire::HEADER_LEN + chunk);
        }
        let mut asm = Assembler::new();
        let mut out = None;
        for d in &dgs {
            if let Some(m) = asm.feed(d).unwrap() {
                prop_assert!(out.is_none(), "message completed twice");
                out = Some(m);
            }
        }
        let m = out.expect("message must complete");
        prop_assert_eq!(&m.payload, &payload);
        prop_assert_eq!(m.kind, kind);
        prop_assert_eq!(m.context, context);
        prop_assert_eq!(m.src_rank, src);
        prop_assert_eq!(m.tag, tag);
        prop_assert_eq!(m.seq, seq);
        prop_assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn reordered_and_duplicated_chunks_still_assemble(
        payload in proptest::collection::vec(any::<u8>(), 1..30_000),
        chunk in 512usize..4_096,
        seed in any::<u64>(),
    ) {
        let shared = Bytes::from(payload.clone());
        let dgs = split_message(MsgKind::Data, 0, 0, 0, 42, &shared, chunk);
        // Shuffle deterministically and duplicate every datagram.
        let mut order: Vec<usize> = (0..dgs.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut asm = Assembler::new();
        let mut done = 0;
        for &i in order.iter().chain(order.iter()) {
            if let Some(m) = asm.feed(&dgs[i]).unwrap() {
                prop_assert_eq!(&m.payload, &payload);
                done += 1;
            }
        }
        // The complete set is fed twice, so the message assembles twice;
        // message-level dedup (by seq) is the transport layer's job.
        prop_assert_eq!(done, 2);
        prop_assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = Header::decode(&bytes); // must not panic
        let shared = Bytes::from(bytes);
        // Viewing garbage as a datagram either fails cleanly or decodes
        // to an error on feed; neither may panic.
        if let Ok(dg) = Datagram::from_contiguous(shared.clone()) {
            let mut asm = Assembler::new();
            let _ = asm.feed(&dg);
        }
        decode_as_every_payload(&shared);
    }

    /// Garbage rarely gets past a count field, so also damage well-formed
    /// payloads: cut each anywhere and overwrite any one byte (count
    /// fields included), then hand the result to every decoder.
    #[test]
    fn damaged_payloads_error_not_panic(
        cut in 0usize..120,
        at in 0usize..120,
        to in any::<u8>(),
    ) {
        for valid in valid_payloads() {
            let mut bytes = valid.to_vec();
            bytes.truncate(bytes.len().saturating_sub(cut));
            if let Some(b) = bytes.get_mut(at) {
                *b = to;
            }
            decode_as_every_payload(&bytes);
        }
    }

    #[test]
    fn truncating_a_valid_datagram_errors_not_panics(
        payload in proptest::collection::vec(any::<u8>(), 1..1000),
        cut in 0usize..100,
    ) {
        let shared = Bytes::from(payload);
        let dgs = split_message(MsgKind::Data, 1, 2, 3, 4, &shared, 10_000);
        let d = dgs[0].to_vec();
        let cut = cut.min(d.len());
        let truncated = &d[..d.len() - cut];
        if cut > 0 {
            prop_assert!(Header::decode(truncated).is_err());
        } else {
            prop_assert!(Header::decode(truncated).is_ok());
        }
    }
}

// ---- Advr/Want digest codec (`docs/PROTOCOL.md` §11) ----

use mmpi_wire::gossip::{compact_ranges, GossipDigest, SourceDigest, MAX_DIGEST_RANGES};

fn range_strategy() -> impl Strategy<Value = SeqRange> {
    (0u64..500, 0u64..40).prop_map(|(start, span)| SeqRange {
        start,
        end: start + span,
    })
}

fn digest_strategy() -> impl Strategy<Value = GossipDigest> {
    proptest::collection::vec(
        (0u32..64, proptest::collection::vec(range_strategy(), 0..20)),
        0..24,
    )
    .prop_map(|v| {
        // Dedup sources and sort by src — the encoder's canonical order.
        let mut m = std::collections::BTreeMap::new();
        for (src, ranges) in v {
            m.entry(src).or_insert(ranges);
        }
        GossipDigest {
            entries: m
                .into_iter()
                .map(|(src, ranges)| SourceDigest { src, ranges })
                .collect(),
        }
    })
}

/// Every id a decoded digest names must have been in the original —
/// the codec under-advertises past its caps, it never invents ids
/// (an invented Advr id becomes an unanswerable pull).
fn assert_subset(decoded: &GossipDigest, original: &GossipDigest) {
    for e in &decoded.entries {
        for r in &e.ranges {
            for s in [r.start, (r.start + r.end) / 2, r.end] {
                assert!(
                    original.contains(e.src, s),
                    "decoded names ({}, {s}) which was never encoded",
                    e.src
                );
            }
        }
    }
}

proptest! {
    /// Roundtrip within the caps: a digest that fits loses nothing —
    /// decode(encode(d)) names exactly the ids d names, in canonical
    /// (sorted, disjoint, coalesced) form.
    #[test]
    fn gossip_digest_roundtrips_within_caps(d in digest_strategy()) {
        let decoded = GossipDigest::decode(&GossipDigest::encode(&d)).unwrap();
        assert_subset(&decoded, &d);
        for e in &d.entries {
            let compacted = compact_ranges(e.ranges.clone());
            if compacted.len() > MAX_DIGEST_RANGES || d.entries.len() > 16 {
                continue; // over the caps: drop-tail applies, subset already checked
            }
            for r in &compacted {
                for s in [r.start, (r.start + r.end) / 2, r.end] {
                    prop_assert!(
                        decoded.contains(e.src, s),
                        "in-cap id ({}, {s}) lost by the codec", e.src
                    );
                }
            }
        }
        // Canonical form: decoded ranges are sorted, disjoint, coalesced.
        for e in &decoded.entries {
            prop_assert_eq!(&compact_ranges(e.ranges.clone()), &e.ranges);
        }
    }

    /// `compact_ranges` is canonical and lossless: output sorted,
    /// disjoint, non-adjacent; membership preserved both ways; and the
    /// function is idempotent.
    #[test]
    fn range_compaction_is_canonical(ranges in proptest::collection::vec(range_strategy(), 0..30)) {
        let out = compact_ranges(ranges.clone());
        for w in out.windows(2) {
            prop_assert!(w[0].end.saturating_add(1) < w[1].start,
                "ranges must stay sorted, disjoint and non-adjacent: {out:?}");
        }
        for r in &ranges {
            for s in [r.start, (r.start + r.end) / 2, r.end] {
                prop_assert!(out.iter().any(|o| o.contains(s)),
                    "compaction lost seq {s}");
            }
        }
        for o in &out {
            for s in [o.start, o.end] {
                prop_assert!(ranges.iter().any(|r| r.contains(s)),
                    "compaction invented seq {s}");
            }
        }
        prop_assert_eq!(&compact_ranges(out.clone()), &out);
    }

    /// `SeenTable::note_range` merges in place; it must agree with the
    /// model it replaced — push, then `compact_ranges` — on the stored
    /// form after every note, and report "new" exactly when the range was
    /// not already inside one stored range. Near-`u64::MAX` ranges ride
    /// along for the saturating adjacency test.
    #[test]
    fn seen_table_note_range_matches_compaction(
        notes in proptest::collection::vec((range_strategy(), any::<bool>()), 0..40),
    ) {
        let mut table = mmpi_wire::SeenTable::new();
        let mut model: Vec<SeqRange> = Vec::new();
        for (r, high) in notes {
            let r = if high {
                SeqRange { start: u64::MAX - r.end, end: u64::MAX - r.start }
            } else {
                r
            };
            let covered = model.iter().any(|m| m.start <= r.start && r.end <= m.end);
            model.push(r);
            model = compact_ranges(model);
            prop_assert_eq!(table.note_range(7, r), !covered);
            let stored = table.digest().entries.pop().map(|e| e.ranges);
            prop_assert_eq!(stored.as_ref(), Some(&model));
        }
    }

    /// The digest decoder never panics on arbitrary bytes, and whatever
    /// it accepts re-encodes cleanly (no internal inconsistency).
    #[test]
    fn digest_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        if let Ok(d) = GossipDigest::decode(&bytes) {
            let _ = d.encode();
        }
    }
}
