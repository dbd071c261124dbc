//! Message chunking and reassembly — the zero-copy datagram path.
//!
//! UDP datagrams are size-limited (~64 kB in practice; configurable here),
//! so a logical message larger than the limit is split into chunks, each a
//! self-describing datagram. The [`Assembler`] on the receive side puts
//! them back together, tolerating duplicates (retransmissions) and
//! interleaving across senders.
//!
//! Ownership model (`docs/PERFORMANCE.md` has the full walkthrough):
//! a [`Datagram`] is two shared [`Bytes`] views — a 40-byte header slice
//! of one per-message header buffer, and a payload slice of the caller's
//! message — so [`split_message`] copies **no payload bytes** and heap
//! allocation per message is constant regardless of chunk count.
//! Reassembly writes each chunk once into a single buffer (reserved up
//! front for messages up to a datagram's size, grown with the arrivals
//! beyond that — never with a header's claim);
//! single-chunk messages (the common case at the paper's sizes) are
//! returned as zero-copy slices of the received datagram.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use bytes::{Bytes, BytesMut};

use crate::error::WireError;
use crate::header::{Header, MsgKind, HEADER_LEN};

/// A multiply-mix hasher for the assembler's `(src_rank, seq)` keys.
/// The keys are trusted protocol state (not attacker-controlled strings),
/// so SipHash's DoS resistance buys nothing and its per-chunk cost is
/// measurable on the reassembly hot path.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-integer fields (none in our keys).
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        // SplitMix64-style finalizer: full avalanche, two multiplies.
        let mut z = self.0 ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One wire datagram: a header view plus a payload view, both cheap
/// reference-counted slices. Transports that genuinely need contiguous
/// bytes (a real socket write) concatenate at the last moment with
/// [`Datagram::write_contiguous`]; everything else passes the two views
/// around by handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    header: Bytes,
    payload: Bytes,
}

impl Datagram {
    /// Assemble from an exact header view (must be [`HEADER_LEN`] bytes —
    /// validated on [`Datagram::decode`]) and a payload view.
    pub fn from_parts(header: Bytes, payload: Bytes) -> Self {
        Datagram { header, payload }
    }

    /// View a contiguous received buffer (e.g. one socket read) as a
    /// datagram, without copying. Fails only on impossible lengths; full
    /// validation happens in [`Datagram::decode`].
    pub fn from_contiguous(bytes: Bytes) -> Result<Self, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                got: bytes.len(),
                need: HEADER_LEN,
            });
        }
        Ok(Datagram {
            header: bytes.slice(..HEADER_LEN),
            payload: bytes.slice(HEADER_LEN..),
        })
    }

    /// Rebuild a datagram from the shared segments a zero-copy transport
    /// delivered: either `[header, payload]` as produced by
    /// [`split_message`], or a single contiguous segment. Anything else
    /// (corrupt segmentation) is flattened and re-parsed.
    pub fn from_segments(segments: &[Bytes]) -> Result<Self, WireError> {
        match segments {
            [one] => Self::from_contiguous(one.clone()),
            [header, payload] if header.len() == HEADER_LEN => {
                Ok(Self::from_parts(header.clone(), payload.clone()))
            }
            _ => {
                let total: usize = segments.iter().map(Bytes::len).sum();
                let mut flat = BytesMut::with_capacity(total);
                for s in segments {
                    flat.extend_from_slice(s);
                }
                Self::from_contiguous(flat.freeze())
            }
        }
    }

    /// The header view.
    pub fn header(&self) -> &Bytes {
        &self.header
    }

    /// The chunk-payload view.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Total wire length (header + payload).
    pub fn len(&self) -> usize {
        self.header.len() + self.payload.len()
    }

    /// True for a (malformed) zero-length datagram.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parse and validate the header against this datagram's payload.
    pub fn decode(&self) -> Result<Header, WireError> {
        Header::decode_parts(&self.header, self.payload.len())
    }

    /// Append the wire bytes contiguously into `out` (the one copy a
    /// real-socket send needs; `out` is a reusable scratch buffer).
    pub fn write_contiguous(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.header);
        out.extend_from_slice(&self.payload);
    }

    /// The wire bytes as one freshly allocated `Vec` (tests, tracing).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        self.write_contiguous(&mut v);
        v
    }
}

/// A fully assembled message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Message role.
    pub kind: MsgKind,
    /// Communicator context id.
    pub context: u32,
    /// Sender rank.
    pub src_rank: u32,
    /// Tag.
    pub tag: u32,
    /// Sender-assigned sequence number.
    pub seq: u64,
    /// Reassembled payload (a zero-copy slice of the received datagram
    /// for single-chunk messages).
    pub payload: Bytes,
}

impl Message {
    /// Move the payload out as a `Vec<u8>` — free when this message is
    /// the sole owner of a full buffer (multi-chunk reassembly), one copy
    /// otherwise (single-chunk slices of a larger receive buffer).
    pub fn into_vec(self) -> Vec<u8> {
        self.payload.into_vec()
    }
}

/// Split a message into datagrams of at most `max_chunk_payload` payload
/// bytes each (plus [`HEADER_LEN`]). Zero-copy: all chunk headers are
/// encoded into one contiguous buffer and each returned [`Datagram`]
/// holds a slice of it plus a slice of `payload` — payload bytes are
/// never copied, and the allocation count is constant in the chunk count.
///
/// Empty messages produce exactly one datagram.
#[allow(clippy::too_many_arguments)]
pub fn split_message(
    kind: MsgKind,
    context: u32,
    src_rank: u32,
    tag: u32,
    seq: u64,
    payload: &Bytes,
    max_chunk_payload: usize,
) -> Vec<Datagram> {
    assert!(max_chunk_payload > 0, "chunk size must be positive");
    let msg_len = payload.len() as u32;
    let chunk_count = payload.len().div_ceil(max_chunk_payload).max(1) as u32;
    // Encode every chunk header into one contiguous buffer: a template
    // encode once, then per-chunk patches of the two varying fields.
    let mut template = Header {
        kind,
        context,
        src_rank,
        tag,
        seq,
        msg_len,
        chunk_index: 0,
        chunk_count,
        chunk_len: max_chunk_payload.min(payload.len()) as u32,
    }
    .encode_array();
    let mut headers = BytesMut::with_capacity(HEADER_LEN * chunk_count as usize);
    for index in 0..chunk_count {
        let start = index as usize * max_chunk_payload;
        let end = (start + max_chunk_payload).min(payload.len());
        template[28..32].copy_from_slice(&index.to_le_bytes());
        template[36..40].copy_from_slice(&((end - start) as u32).to_le_bytes());
        headers.extend_from_slice(&template);
    }
    let headers = headers.freeze();
    let mut out = Vec::with_capacity(chunk_count as usize);
    for index in 0..chunk_count as usize {
        let start = index * max_chunk_payload;
        let end = (start + max_chunk_payload).min(payload.len());
        out.push(Datagram {
            header: headers.slice(index * HEADER_LEN..(index + 1) * HEADER_LEN),
            payload: payload.slice(start..end),
        });
    }
    out
}

/// The largest reassembly buffer reserved on a header's say-so — one
/// maximal UDP datagram's worth. A longer message grows its buffer as
/// its chunks arrive (doubling, never past the claimed length), so what
/// a forged `msg_len` can pin is this constant, not the claim.
const RESERVE_ON_CLAIM: usize = 64 * 1024;

#[derive(Debug)]
struct Partial {
    kind: MsgKind,
    context: u32,
    tag: u32,
    msg_len: u32,
    chunk_count: u32,
    /// Payload bytes every chunk but the last carries ([`chunk_stride`]).
    stride: u32,
    /// Chunks `0..next` are in `buffer`.
    next: u32,
    /// The message's contiguous prefix. In-order arrival (the
    /// overwhelmingly common case) appends each chunk once into reserved
    /// capacity — no zero-fill pass.
    buffer: Vec<u8>,
    /// Chunks that arrived ahead of the prefix, as views of their
    /// datagrams; each is appended when `next` reaches it. What is held
    /// is what was received: no chunk index reserves anything.
    ahead: BTreeMap<u32, Bytes>,
}

/// The payload bytes every non-final chunk of `h`'s message carries,
/// worked out from this one chunk (`h.chunk_count > 1`): its own length,
/// or for the final chunk — which may legitimately arrive first — what it
/// leaves the others. `Err` for a chunking [`split_message`] cannot have
/// produced: an empty non-final chunk, or a count the message length does
/// not fill (so `chunk_count <= msg_len`, whatever the header claims).
fn chunk_stride(h: &Header) -> Result<u32, WireError> {
    let last = h.chunk_count - 1;
    let stride = if h.chunk_index < last {
        h.chunk_len
    } else {
        let others = h
            .msg_len
            .checked_sub(h.chunk_len)
            .ok_or(WireError::InconsistentMessage)?;
        if others % last != 0 {
            return Err(WireError::InconsistentMessage);
        }
        others / last
    };
    // The final chunk carries between one byte and a full stride.
    let (stride64, msg_len) = (u64::from(stride), u64::from(h.msg_len));
    let filled = u64::from(last) * stride64 < msg_len;
    if stride == 0 || !filled || msg_len > u64::from(h.chunk_count) * stride64 {
        return Err(WireError::InconsistentMessage);
    }
    Ok(stride)
}

impl Partial {
    fn new(h: &Header, stride: u32) -> Self {
        Partial {
            kind: h.kind,
            context: h.context,
            tag: h.tag,
            msg_len: h.msg_len,
            chunk_count: h.chunk_count,
            stride,
            next: 0,
            buffer: Vec::with_capacity((h.msg_len as usize).min(RESERVE_ON_CLAIM)),
            ahead: BTreeMap::new(),
        }
    }

    /// Take one chunk of this message. `Ok(true)` when it completed it.
    fn accept(&mut self, h: &Header, stride: u32, chunk: &Bytes) -> Result<bool, WireError> {
        if (self.chunk_count, self.msg_len, self.stride) != (h.chunk_count, h.msg_len, stride) {
            return Err(WireError::InconsistentMessage);
        }
        let index = h.chunk_index;
        if index != self.next {
            if index > self.next {
                // A duplicate keeps the view already held.
                self.ahead.entry(index).or_insert_with(|| chunk.clone());
            }
            return Ok(false);
        }
        self.append(chunk);
        while !self.ahead.is_empty() {
            let Some(held) = self.ahead.remove(&self.next) else {
                break;
            };
            self.append(&held);
        }
        Ok(self.next == self.chunk_count)
    }

    /// Append chunk `next`. The strides checked on the way in keep the
    /// total at or under `msg_len`.
    fn append(&mut self, chunk: &[u8]) {
        let want = self.buffer.len() + chunk.len();
        if want > self.buffer.capacity() {
            let cap = (2 * self.buffer.capacity())
                .min(self.msg_len as usize)
                .max(want);
            self.buffer.reserve_exact(cap - self.buffer.len());
        }
        self.buffer.extend_from_slice(chunk);
        self.next += 1;
    }
}

/// Reassembles datagrams into [`Message`]s.
///
/// Keyed by `(src_rank, seq)`, so interleaved messages from many senders
/// assemble independently. Duplicate chunks (e.g. from multicast
/// retransmission) are ignored. Each arriving chunk is copied exactly
/// once into a single per-message buffer (appended on arrival when it is
/// the next one, held as a view of its datagram until then otherwise).
///
/// The message currently streaming in sits in a dedicated `current` slot:
/// the usual case — all chunks of one message arriving back to back —
/// costs no hash-map work at all; interleaved messages spill to the map
/// and swap back in on their next chunk.
///
/// Header fields are the sender's claims: nothing is allocated in
/// proportion to one (`RESERVE_ON_CLAIM`, `docs/INVARIANTS.md`).
#[derive(Debug, Default)]
pub struct Assembler {
    current: Option<((u32, u64), Partial)>,
    partial: HashMap<(u32, u64), Partial, BuildHasherDefault<KeyHasher>>,
}

impl Assembler {
    /// New empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one received datagram. Returns a complete message when this
    /// datagram finishes one.
    pub fn feed(&mut self, datagram: &Datagram) -> Result<Option<Message>, WireError> {
        let h = datagram.decode()?;
        let chunk = datagram.payload();
        if h.chunk_count == 1 {
            // Fast path: single-datagram message — the payload is handed
            // out as a shared slice of the received datagram, zero-copy.
            return Ok(Some(Message {
                kind: h.kind,
                context: h.context,
                src_rank: h.src_rank,
                tag: h.tag,
                seq: h.seq,
                payload: chunk.clone(),
            }));
        }
        let stride = chunk_stride(&h)?;
        let key = (h.src_rank, h.seq);
        // Bring the message into the `current` slot (no map traffic when
        // it is already there).
        let entry = match &mut self.current {
            Some((k, p)) if *k == key => p,
            slot => {
                let incoming = self
                    .partial
                    .remove(&key)
                    .unwrap_or_else(|| Partial::new(&h, stride));
                if let Some((k, p)) = slot.take() {
                    self.partial.insert(k, p);
                }
                &mut slot.insert((key, incoming)).1
            }
        };
        if !entry.accept(&h, stride, chunk)? {
            return Ok(None);
        }
        let done = Message {
            kind: entry.kind,
            context: entry.context,
            src_rank: key.0,
            tag: entry.tag,
            seq: key.1,
            payload: Bytes::from(std::mem::take(&mut entry.buffer)),
        };
        self.current = None;
        Ok(Some(done))
    }

    /// Number of messages still being assembled.
    pub fn pending(&self) -> usize {
        self.partial.len() + usize::from(self.current.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(
        kind: MsgKind,
        context: u32,
        src: u32,
        tag: u32,
        seq: u64,
        payload: &[u8],
        chunk: usize,
    ) -> Vec<Datagram> {
        split_message(
            kind,
            context,
            src,
            tag,
            seq,
            &Bytes::copy_from_slice(payload),
            chunk,
        )
    }

    fn assemble_all(datagrams: &[Datagram]) -> Vec<Message> {
        let mut asm = Assembler::new();
        datagrams
            .iter()
            .filter_map(|d| asm.feed(d).unwrap())
            .collect()
    }

    #[test]
    fn small_message_single_datagram() {
        let dgs = split(MsgKind::Data, 0, 1, 2, 3, b"hello", 1000);
        assert_eq!(dgs.len(), 1);
        let msgs = assemble_all(&dgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, b"hello");
        assert_eq!(msgs[0].src_rank, 1);
        assert_eq!(msgs[0].tag, 2);
        assert_eq!(msgs[0].seq, 3);
    }

    #[test]
    fn empty_message_still_sends_one_datagram() {
        let dgs = split(MsgKind::Scout, 0, 4, 9, 0, b"", 1000);
        assert_eq!(dgs.len(), 1);
        let msgs = assemble_all(&dgs);
        assert_eq!(msgs[0].payload, b"");
        assert_eq!(msgs[0].kind, MsgKind::Scout);
    }

    #[test]
    fn large_message_chunks_and_reassembles() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let dgs = split(MsgKind::Data, 0, 0, 0, 7, &payload, 4096);
        assert_eq!(dgs.len(), 3);
        let msgs = assemble_all(&dgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, payload);
    }

    #[test]
    fn out_of_order_chunks_reassemble() {
        let payload: Vec<u8> = (0..9000u32).map(|i| (i * 7) as u8).collect();
        let mut dgs = split(MsgKind::Data, 0, 2, 1, 9, &payload, 4000);
        dgs.reverse();
        let msgs = assemble_all(&dgs);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, payload);
    }

    #[test]
    fn duplicate_chunks_ignored() {
        let payload = vec![5u8; 8000];
        let dgs = split(MsgKind::Data, 0, 0, 0, 1, &payload, 4000);
        let mut asm = Assembler::new();
        assert!(asm.feed(&dgs[0]).unwrap().is_none());
        assert!(asm.feed(&dgs[0]).unwrap().is_none(), "duplicate");
        let done = asm.feed(&dgs[1]).unwrap().unwrap();
        assert_eq!(done.payload, payload);
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn duplicate_single_chunk_message_returns_twice() {
        // Dedup of whole messages is the transport's job (by seq); the
        // assembler just assembles.
        let dgs = split(MsgKind::Data, 0, 0, 0, 1, b"x", 10);
        let mut asm = Assembler::new();
        assert!(asm.feed(&dgs[0]).unwrap().is_some());
        assert!(asm.feed(&dgs[0]).unwrap().is_some());
    }

    #[test]
    fn interleaved_senders_assemble_independently() {
        let p1 = vec![1u8; 6000];
        let p2 = vec![2u8; 6000];
        let d1 = split(MsgKind::Data, 0, 1, 0, 5, &p1, 4000);
        let d2 = split(MsgKind::Data, 0, 2, 0, 5, &p2, 4000);
        let mut asm = Assembler::new();
        assert!(asm.feed(&d1[0]).unwrap().is_none());
        assert!(asm.feed(&d2[0]).unwrap().is_none());
        assert_eq!(asm.pending(), 2);
        let m1 = asm.feed(&d1[1]).unwrap().unwrap();
        let m2 = asm.feed(&d2[1]).unwrap().unwrap();
        assert_eq!(m1.payload, p1);
        assert_eq!(m2.payload, p2);
    }

    #[test]
    fn exact_multiple_chunking() {
        let payload = vec![3u8; 8000];
        let dgs = split(MsgKind::Data, 0, 0, 0, 2, &payload, 4000);
        assert_eq!(dgs.len(), 2);
        let msgs = assemble_all(&dgs);
        assert_eq!(msgs[0].payload, payload);
    }

    #[test]
    fn boundary_one_byte_over() {
        let payload = vec![4u8; 4001];
        let dgs = split(MsgKind::Data, 0, 0, 0, 2, &payload, 4000);
        assert_eq!(dgs.len(), 2);
        assert_eq!(assemble_all(&dgs)[0].payload, payload);
    }

    #[test]
    fn split_shares_not_copies() {
        let payload = Bytes::from(vec![9u8; 10_000]);
        let dgs = split_message(MsgKind::Data, 0, 0, 0, 2, &payload, 4000);
        // 1 (this handle) + one per chunk view.
        assert_eq!(payload.handle_count(), 1 + dgs.len());
        // All headers share one buffer.
        assert_eq!(dgs[0].header().handle_count(), dgs.len());
    }

    #[test]
    fn single_chunk_assembly_is_zero_copy() {
        let dgs = split(MsgKind::Data, 0, 0, 0, 1, b"abc", 10);
        let before = dgs[0].payload().handle_count();
        let mut asm = Assembler::new();
        let m = asm.feed(&dgs[0]).unwrap().unwrap();
        assert_eq!(
            m.payload.handle_count(),
            before + 1,
            "message payload is a shared view of the datagram"
        );
    }

    #[test]
    fn from_segments_shapes() {
        let dgs = split(MsgKind::Data, 0, 1, 2, 3, b"hello world", 100);
        let d = &dgs[0];
        // [header, payload] round-trips without copying.
        let two = Datagram::from_segments(&[d.header().clone(), d.payload().clone()]).unwrap();
        assert_eq!(&two, d);
        // A single contiguous segment parses too.
        let one = Datagram::from_contiguous(Bytes::from(d.to_vec())).unwrap();
        assert_eq!(one.decode().unwrap(), d.decode().unwrap());
        assert_eq!(one.payload(), d.payload());
        // Odd segmentation is flattened and still parses.
        let flat = Bytes::from(d.to_vec());
        let weird = Datagram::from_segments(&[flat.slice(..10), flat.slice(10..)]).unwrap();
        assert_eq!(weird.decode().unwrap(), d.decode().unwrap());
    }
}
