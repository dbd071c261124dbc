//! Property-based tests for the wire format: any message survives
//! split/assemble under any chunk size, duplication, and reordering; and
//! the decoder never panics on arbitrary bytes.

use proptest::prelude::*;

use mmpi_wire::{
    split_message, AckHorizonPayload, AckHorizonView, Assembler, Bytes, Datagram,
    FailureAnnouncePayload, GossipDigestView, Header, HeartbeatPayload, HorizonEcho, MsgKind,
    NackPayload, NackView, SeqRange, SourceHorizon, UnavailPayload, WireError,
};

/// The in-place views against the owned decoders, on any bytes: both
/// refuse them with the same error, or both accept and every field the
/// view reads off the payload is the field the owned decode collected.
fn views_agree_with_owned_decodes(bytes: &[u8]) {
    match (NackView::parse(bytes), NackPayload::decode(bytes)) {
        (Ok(view), Ok(owned)) => {
            assert_eq!(view.target, owned.target);
            assert!(view.missing.eq_ranges(&owned.missing));
            assert_eq!(view.missing.len(), owned.missing.len());
            for seq in [0, 4, 9, u64::MAX] {
                assert_eq!(view.covers(seq), owned.covers(seq));
            }
        }
        (Err(v), Err(o)) => assert_eq!(v, o),
        (v, o) => panic!("NACK view {v:?} but owned {o:?}"),
    }
    match (
        AckHorizonView::parse(bytes),
        AckHorizonPayload::decode(bytes),
    ) {
        (Ok(view), Ok(owned)) => {
            assert_eq!((view.probe_ts, view.member), (owned.probe_ts, owned.member));
            assert_eq!(view.echoes().len(), owned.echoes.len());
            assert!(view.echoes().eq(owned.echoes.iter().copied()));
            assert_eq!(view.acks().len(), owned.acks.len());
            for (a, o) in view.acks().zip(&owned.acks) {
                assert_eq!((a.src, a.hwm), (o.src, o.hwm));
                assert!(a.same_as(o) && a.to_owned() == *o);
                // `store_into` leaves what `to_owned` makes, whatever
                // the slot held before.
                let mut slot = SourceHorizon {
                    src: 0,
                    hwm: 0,
                    missing: vec![SeqRange { start: 1, end: 1 }; 7],
                };
                a.store_into(&mut slot);
                assert_eq!(&slot, o);
            }
        }
        (Err(v), Err(o)) => assert_eq!(v, o),
        (v, o) => panic!("horizon view {v:?} but owned {o:?}"),
    }
    match (GossipDigestView::parse(bytes), GossipDigest::decode(bytes)) {
        (Ok(view), Ok(owned)) => {
            assert_eq!(view.entries().len(), owned.entries.len());
            for (e, o) in view.entries().zip(&owned.entries) {
                assert_eq!(e.src, o.src);
                assert!(e.ranges.eq_ranges(&o.ranges));
                assert_eq!(e.ranges.to_vec(), o.ranges);
            }
        }
        (Err(v), Err(o)) => assert_eq!(v, o),
        (v, o) => panic!("digest view {v:?} but owned {o:?}"),
    }
}

/// Run every payload decoder over `bytes`: none may panic, whatever one
/// accepts must re-encode (no internal inconsistency), and the views
/// must say what the owned decoders say.
fn decode_as_every_payload(bytes: &[u8]) {
    views_agree_with_owned_decodes(bytes);
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
        GossipDigest {
            entries: vec![
                SourceDigest {
                    src: 1,
                    ranges: vec![SeqRange { start: 0, end: 4 }, SeqRange { start: 7, end: 7 }],
                },
                SourceDigest {
                    src: 6,
                    ranges: vec![SeqRange {
                        start: 100,
                        end: u64::MAX,
                    }],
                },
            ],
        }
        .encode(),
    ]
}

/// A chunk datagram whose header says whatever the caller likes, with a
/// payload as long as the header claims (so only the chunking can be
/// wrong with it).
fn chunk_claiming(
    seq: u64,
    msg_len: u32,
    chunk_index: u32,
    chunk_count: u32,
    chunk_len: u32,
) -> Datagram {
    let header = Header {
        kind: MsgKind::Data,
        context: 0,
        src_rank: 1,
        tag: 7,
        seq,
        msg_len,
        chunk_index,
        chunk_count,
        chunk_len,
    }
    .encode_array();
    Datagram::from_parts(
        Bytes::copy_from_slice(&header),
        Bytes::from(vec![0xEEu8; chunk_len as usize]),
    )
}

/// Every kind the header decodes: whatever `from_u8` accepts, so a kind
/// added later round-trips here without touching this list.
fn kind_strategy() -> impl Strategy<Value = MsgKind> {
    let kinds: Vec<MsgKind> = (0..=u8::MAX)
        .filter_map(|v| MsgKind::from_u8(v).ok())
        .collect();
    (0..kinds.len()).prop_map(move |i| kinds[i])
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

    /// The views on valid payloads of every shape the caps allow: they
    /// read back exactly what was encoded, as the owned decoders do.
    #[test]
    fn views_read_valid_payloads_field_for_field(
        target in any::<u32>(),
        missing in proptest::collection::vec(range_strategy(), 0..12),
        probe_ts in any::<u64>(),
        echoes in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..20),
        acks in proptest::collection::vec(
            (any::<u32>(), any::<u64>(), proptest::collection::vec(range_strategy(), 0..6)),
            0..36,
        ),
        beacon in (any::<bool>(), any::<u32>(), any::<u32>()),
        digest in digest_strategy(),
    ) {
        let nack = NackPayload { target, missing }.encode();
        let view = NackView::parse(&nack).unwrap();
        prop_assert_eq!(view.target, target);
        views_agree_with_owned_decodes(&nack);

        let horizon = AckHorizonPayload {
            probe_ts,
            echoes: echoes
                .into_iter()
                .map(|(peer, ts, hold_ns)| HorizonEcho { peer, ts, hold_ns })
                .collect(),
            acks: acks
                .into_iter()
                .map(|(src, hwm, missing)| SourceHorizon { src, hwm, missing })
                .collect(),
            member: beacon.0.then_some(HeartbeatPayload {
                epoch: beacon.1,
                incarnation: beacon.2,
            }),
        }
        .encode();
        let view = AckHorizonView::parse(&horizon).unwrap();
        prop_assert_eq!(view.probe_ts, probe_ts);
        views_agree_with_owned_decodes(&horizon);

        let digest = digest.encode();
        prop_assert!(GossipDigestView::parse(&digest).is_ok());
        views_agree_with_owned_decodes(&digest);
    }

    /// A header is forty bytes of claims. Whatever it claims about the
    /// message it is a chunk of — the forged `chunk_count = msg_len =
    /// u32::MAX` first of all — the assembler refuses it or holds the
    /// chunk; it never panics, and it accepts no chunking a sender could
    /// not have produced: more chunks than bytes, an empty chunk that is
    /// not the last, a last chunk longer than the others.
    #[test]
    fn forged_chunk_headers_are_refused_not_trusted(
        msg_len in prop_oneof![0u32..4096, Just(u32::MAX), any::<u32>()],
        chunk_count in prop_oneof![2u32..64, Just(u32::MAX), any::<u32>()],
        chunk_index in prop_oneof![0u32..64, any::<u32>()],
        chunk_len in 0u32..600,
        last in any::<bool>(),
    ) {
        let chunk_count = chunk_count.max(2);
        let chunk_index = if last { chunk_count - 1 } else { chunk_index % chunk_count };
        let mut asm = Assembler::new();
        let fed = asm.feed(&chunk_claiming(3, msg_len, chunk_index, chunk_count, chunk_len));
        match fed {
            Err(e) => prop_assert_eq!(e, WireError::InconsistentMessage),
            Ok(done) => {
                prop_assert!(done.is_none(), "one chunk of several cannot complete a message");
                prop_assert!(chunk_count <= msg_len, "more chunks than bytes");
                prop_assert!(chunk_len >= 1 && chunk_len < msg_len);
                prop_assert_eq!(asm.pending(), 1);
            }
        }
        // The measured case (ISSUE 23): 8 GiB reserved per datagram.
        let forged = chunk_claiming(4, u32::MAX, 0, u32::MAX, 0);
        prop_assert_eq!(asm.feed(&forged), Err(WireError::InconsistentMessage));
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

/// A late chunk never costs more than the chunks in hand: what arrives
/// ahead of the prefix is held as views, and a chunk index a million
/// chunks on reserves nothing for the chunks in between.
#[test]
fn a_chunk_far_ahead_is_held_not_made_room_for() {
    let mut asm = Assembler::new();
    // 2^20 chunks of 4 bytes; the last but one arrives first.
    let far = chunk_claiming(9, 4 << 20, (1 << 20) - 2, 1 << 20, 4);
    assert_eq!(asm.feed(&far), Ok(None));
    assert_eq!(asm.feed(&far), Ok(None), "a duplicate of a held chunk");
    assert_eq!(asm.pending(), 1);
    // Chunks of the same message must agree on its shape.
    let other_stride = chunk_claiming(9, 4 << 20, 0, 1 << 20, 3);
    assert_eq!(asm.feed(&other_stride), Err(WireError::InconsistentMessage));
}

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
        let mut table = mmpi_wire::SeenTable::new(8);
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
