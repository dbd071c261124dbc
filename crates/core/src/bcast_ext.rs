//! Additional broadcast algorithms beyond the paper's three.
//!
//! These are the other classic MPICH-era shapes, implemented so the bench
//! harness can position the paper's multicast algorithms against the full
//! design space:
//!
//! * [`bcast_chain`] — pipelined chain: the message is cut into segments
//!   that stream down the rank chain, overlapping transfers; asymptotically
//!   `(N-2+S)·t_seg` for `S` segments instead of `(N-1)·t_msg`.
//! * [`crate::BcastAlgorithm::ScatterAllgather`] — van de Geijn's
//!   large-message broadcast: scatter distinct blocks from the root, then
//!   a ring allgather; each byte crosses any link at most twice
//!   regardless of `N`. A request machine
//!   ([`crate::request::IbcastRequest`]).
//!
//! Both are pure point-to-point pipelines of tag-matched receives, so on
//! a lossy fabric they recover through the transport's NACK/retransmit
//! repair loop like every other collective (`docs/PROTOCOL.md`); their
//! many small segments simply mean more, cheaper, retransmissions.

use mmpi_transport::{Comm, RecvError};

use crate::tags::{OpTags, Phase};

/// Pipelined chain broadcast with `segment` bytes per stage.
///
/// Rank `(root+i) mod N` receives segments from its predecessor and
/// forwards each one downstream before waiting for the next, so segment
/// `k` and `k+1` travel concurrently on adjacent links.
///
/// Each travelling segment is framed with an 8-byte `[index, count]`
/// little-endian header, and assembly is decided by that *identity* —
/// never by arrival order. Under the repair loop a NACK-recovered
/// segment completes after segments sent later, so the earlier
/// stream-shaped formulation ("assemble in receive order, stop at the
/// first short segment") both scrambled the payload and could terminate
/// earlier ranks' loops on the wrong segment. Same rule as the ring
/// collectives (`ring::SuccessorSkip`).
pub fn bcast_chain<C: Comm>(
    c: &mut C,
    segment: usize,
    tags: OpTags,
    root: usize,
    buf: &mut Vec<u8>,
) -> Result<(), RecvError> {
    let n = c.size();
    if n == 1 {
        return Ok(());
    }
    let segment = segment.max(1);
    let rank = c.rank();
    let relrank = (rank + n - root) % n;
    let tag = tags.tag(Phase::Data);
    let next = (rank + 1) % n;
    let is_tail = relrank == n - 1;

    if relrank == 0 {
        // Root: frame and stream segments to the successor. An empty
        // message is one (empty) segment so receivers unblock.
        let count = buf.len().div_ceil(segment).max(1);
        for i in 0..count {
            let lo = (i * segment).min(buf.len());
            let hi = ((i + 1) * segment).min(buf.len());
            let mut seg = Vec::with_capacity(8 + hi - lo);
            seg.extend_from_slice(&(i as u32).to_le_bytes());
            seg.extend_from_slice(&(count as u32).to_le_bytes());
            seg.extend_from_slice(&buf[lo..hi]);
            c.send(next, tag, &seg);
        }
    } else {
        // Interior/tail: forward every segment immediately (identity
        // framing means order does not matter downstream either), place
        // it by its index, and finish when all `count` are present.
        let prev = (rank + n - 1) % n;
        let mut parts: Vec<Option<mmpi_wire::Bytes>> = Vec::new();
        let mut got = 0usize;
        loop {
            let m = c.recv_match(prev, tag)?;
            if !is_tail {
                // Forward the received segment as the shared view it
                // already is — no per-hop copy.
                c.send_kind(next, tag, mmpi_wire::MsgKind::Data, &m.payload);
            }
            let idx = u32::from_le_bytes(m.payload[0..4].try_into().unwrap()) as usize;
            let count = u32::from_le_bytes(m.payload[4..8].try_into().unwrap()) as usize;
            if parts.is_empty() {
                parts.resize(count, None);
            }
            debug_assert_eq!(parts.len(), count, "inconsistent segment count");
            if parts[idx].replace(m.payload.slice(8..)).is_none() {
                got += 1;
            }
            if got == parts.len() {
                break;
            }
        }
        let mut assembled = Vec::with_capacity(parts.iter().flatten().map(|p| p.len()).sum());
        for p in parts {
            assembled.extend_from_slice(&p.expect("all segments present"));
        }
        *buf = assembled;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::OpCode;
    use crate::{BcastAlgorithm, CollRequest, Communicator};
    use mmpi_transport::run_mem_world;

    fn tags() -> OpTags {
        OpTags::new(OpCode::Bcast, 0)
    }

    #[test]
    fn chain_various_sizes_and_segments() {
        for n in [2usize, 3, 5, 8] {
            for len in [0usize, 1, 100, 4096, 10_000] {
                for seg in [64usize, 1000, 4096] {
                    let payload: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                    let want = payload.clone();
                    let out = run_mem_world(n, 0, move |mut c| {
                        let mut buf = if c.rank() == 0 {
                            payload.clone()
                        } else {
                            Vec::new()
                        };
                        bcast_chain(&mut c, seg, tags(), 0, &mut buf).unwrap();
                        buf
                    });
                    for (r, o) in out.iter().enumerate() {
                        assert_eq!(o, &want, "n={n} len={len} seg={seg} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn chain_nonzero_root() {
        let out = run_mem_world(5, 0, |mut c| {
            let mut buf = if c.rank() == 3 {
                vec![9u8; 5000]
            } else {
                Vec::new()
            };
            bcast_chain(&mut c, 1024, tags(), 3, &mut buf).unwrap();
            buf
        });
        assert!(out.iter().all(|o| o == &vec![9u8; 5000]));
    }

    #[test]
    fn scatter_allgather_various() {
        for n in [2usize, 3, 4, 7, 9] {
            for len in [0usize, 1, n - 1, 1000, 9999] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                let want = payload.clone();
                let out = run_mem_world(n, 0, move |c| {
                    let mut comm =
                        Communicator::new(c).with_bcast(BcastAlgorithm::ScatterAllgather);
                    let mut buf = if comm.rank() == 0 {
                        payload.clone()
                    } else {
                        Vec::new()
                    };
                    comm.bcast(0, &mut buf).unwrap();
                    buf
                });
                for (r, o) in out.iter().enumerate() {
                    assert_eq!(o, &want, "n={n} len={len} rank={r}");
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_nonzero_root() {
        let out = run_mem_world(6, 0, |c| {
            let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::ScatterAllgather);
            let buf = if comm.rank() == 4 {
                (0..7777u32).map(|i| i as u8).collect()
            } else {
                Vec::new()
            };
            comm.ibcast(4, buf).wait(comm.transport_mut()).unwrap()
        });
        let want: Vec<u8> = (0..7777u32).map(|i| i as u8).collect();
        assert!(out.iter().all(|o| o == &want));
    }
}
