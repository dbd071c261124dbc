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

#[cfg(test)]
mod tests {
    use crate::{AllgatherAlgorithm, CollRequest, Communicator};
    use mmpi_transport::run_mem_world;

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
