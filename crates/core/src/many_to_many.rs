//! Many-to-many collectives over IP multicast — the paper's §5 future
//! work ("it is possible this may occur in many-to-many communications
//! and needs to be examined further"), implemented and measurable.
//!
//! * [`AllgatherAlgorithm::Ring`] — the classic point-to-point ring:
//!   `N-1` steps, each byte crosses every link once.
//! * [`AllgatherAlgorithm::Multicast`] — every rank multicasts its block
//!   **once**, in rank order. `N` multicast sends replace `N(N-1)`
//!   point-to-point transfers. Ordering gives the §4 safety property: rank
//!   `i+1` cannot multicast before it received rank `i`'s block, so
//!   receivers are provably inside the collective when each datagram
//!   lands.
//!
//!   Both allgathers are request machines
//!   ([`crate::request::IallgatherRequest`]);
//!   [`crate::Communicator::allgather`] waits on one.
//! * [`alltoall_mcast_naive`] — an *intentionally bad* idea kept for the
//!   ablation bench: all-to-all where each personalized payload still has
//!   to be multicast to everyone (receivers discard the parts not
//!   addressed to them). Demonstrates where multicast does **not** help.
//!
//! Under injected loss, the multicast allgather's rank-ordered rounds are
//! the stress case for the transport's NACK/retransmit repair: a receiver
//! can spend several repair timeouts recovering round `i` before it even
//! asks for round `i+1`, which is why finished endpoints keep answering
//! NACKs through a drain grace period (see `RepairConfig::drain_grace`
//! in `mmpi-transport` and the walkthrough in `docs/PROTOCOL.md`).
//!
//! [`AllgatherAlgorithm::Ring`]: crate::AllgatherAlgorithm::Ring
//! [`AllgatherAlgorithm::Multicast`]: crate::AllgatherAlgorithm::Multicast

use mmpi_transport::{Comm, RecvError};
use mmpi_wire::{Bytes, MsgKind};

use crate::tags::{OpTags, Phase};

/// All-to-all where every personalized message is multicast to the whole
/// group and receivers keep only their slice. Wire cost per rank: one
/// multicast of the *entire* `N`-part buffer — worse than pairwise
/// exchange unless messages are tiny. Kept as a negative result for the
/// ablation bench.
pub fn alltoall_mcast_naive<C: Comm>(
    c: &mut C,
    tags: OpTags,
    sends: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, RecvError> {
    let n = c.size();
    let rank = c.rank();
    assert_eq!(sends.len(), n);
    let tag = tags.tag(Phase::Data);
    // Frame all N parts into one buffer.
    let mut framed = Vec::new();
    for p in sends {
        framed.extend_from_slice(&(p.len() as u32).to_le_bytes());
        framed.extend_from_slice(p);
    }
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // `out[i]` is written in two arms
    for i in 0..n {
        let buf = if i == rank {
            out[i] = sends[rank].clone();
            if n > 1 {
                c.mcast_kind(tag, MsgKind::Data, &Bytes::from(&framed));
            }
            continue;
        } else {
            c.recv_match(i, tag)?.into_vec()
        };
        // Extract only the part addressed to us.
        let mut off = 0usize;
        for slot in 0..n {
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
            off += 4;
            if slot == rank {
                out[i] = buf[off..off + len].to_vec();
            }
            off += len;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::OpCode;
    use crate::{AllgatherAlgorithm, CollRequest, Communicator};
    use mmpi_transport::run_mem_world;

    fn tags() -> OpTags {
        OpTags::new(OpCode::Allgather, 0)
    }

    fn block(rank: usize, n: usize) -> Vec<u8> {
        vec![rank as u8 + 1; (rank * 5) % (n + 3) + 1]
    }

    #[test]
    fn ring_allgather_matches_expectation() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Ring);
                let mine = block(comm.rank(), n);
                comm.allgather(&mine).unwrap()
            });
            for (r, parts) in out.iter().enumerate() {
                for (src, p) in parts.iter().enumerate() {
                    assert_eq!(p, &block(src, n), "n={n} rank={r} src={src}");
                }
            }
        }
    }

    #[test]
    fn mcast_allgather_matches_expectation() {
        for n in [1usize, 2, 4, 7] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
                let mine = block(comm.rank(), n);
                comm.iallgather(&mine).wait(comm.transport_mut()).unwrap()
            });
            for parts in &out {
                for (src, p) in parts.iter().enumerate() {
                    assert_eq!(p, &block(src, n));
                }
            }
        }
    }

    #[test]
    fn naive_mcast_alltoall_is_correct_if_wasteful() {
        for n in [1usize, 2, 4, 6] {
            let out = run_mem_world(n, 0, move |mut c| {
                let me = c.rank();
                let sends: Vec<Vec<u8>> = (0..n)
                    .map(|dst| format!("{me}=>{dst}").into_bytes())
                    .collect();
                alltoall_mcast_naive(&mut c, tags(), &sends).unwrap()
            });
            for (me, got) in out.iter().enumerate() {
                for (src, p) in got.iter().enumerate() {
                    assert_eq!(p, format!("{src}=>{me}").as_bytes(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn mcast_allgather_empty_blocks() {
        let out = run_mem_world(3, 0, |c| {
            let mut comm = Communicator::new(c).with_allgather(AllgatherAlgorithm::Multicast);
            let mine = if comm.rank() == 1 {
                vec![5u8]
            } else {
                Vec::new()
            };
            comm.allgather(&mine).unwrap()
        });
        for parts in &out {
            assert_eq!(parts[0], Vec::<u8>::new());
            assert_eq!(parts[1], vec![5u8]);
            assert_eq!(parts[2], Vec::<u8>::new());
        }
    }
}
