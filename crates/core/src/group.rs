//! Sub-communicators: run a collective over a subset of ranks
//! (`MPI_Comm_split`).
//!
//! A [`GroupComm`] is the parent endpoint under a group view, borrowed for
//! the group's life (`mmpi_transport::view`): the endpoint translates
//! group ranks to world ranks and shifts the tag space so concurrent
//! groups cannot cross-match (the MPI communicator-context idea, realized
//! with tags because the wire context id is fixed per transport). It is
//! not a second implementation of [`mmpi_transport::Comm`], so a group's
//! collectives wait like the world's — on the simulator, a rank parks once
//! per waited collective.
//!
//! Multicast within a group is emulated with unicast fan-out: IP-level
//! multicast would reach non-members of the subgroup whose inboxes would
//! then grow without bound, so — like many MPI implementations on
//! sub-communicators — the group falls back to point-to-point for
//! one-to-all sends. All collectives remain correct; only the multicast
//! acceleration is limited to the world communicator.

pub use mmpi_transport::GroupComm;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Communicator;
    use mmpi_transport::{run_mem_world, Comm};

    #[test]
    fn split_by_parity_and_bcast_within_groups() {
        let out = run_mem_world(6, 0, |mut c| {
            let colors: Vec<u32> = (0..6).map(|r| (r % 2) as u32).collect();
            let group = GroupComm::split(&mut c, &colors, 1);
            let leader_world = group.world_rank_of(0);
            let mut comm = Communicator::new(group);
            let mut buf = if comm.rank() == 0 {
                vec![leader_world as u8; 100]
            } else {
                Vec::new()
            };
            comm.bcast(0, &mut buf).unwrap();
            buf[0]
        });
        // Evens hear from world rank 0; odds from world rank 1.
        assert_eq!(out, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn group_allreduce_sums_only_members() {
        let out = run_mem_world(5, 0, |mut c| {
            // Group = {1, 3, 4}; rank 0 and 2 run their own group {0, 2}.
            let in_a = [1usize, 3, 4].contains(&c.rank());
            let members: Vec<usize> = if in_a { vec![1, 3, 4] } else { vec![0, 2] };
            let gid = if in_a { 7 } else { 8 };
            let world_rank = c.rank();
            let group = GroupComm::new(&mut c, &members, gid);
            let mut comm = Communicator::new(group);
            let s = comm
                .allreduce(
                    (world_rank as u64).to_le_bytes().to_vec(),
                    &crate::combine_u64_sum,
                )
                .unwrap();
            u64::from_le_bytes(s[..8].try_into().unwrap())
        });
        assert_eq!(out, vec![2, 8, 2, 8, 8]);
    }

    #[test]
    fn concurrent_groups_do_not_cross_match() {
        // Two disjoint groups running *different* collective sequences at
        // the same time: tag shifting must isolate them.
        let out = run_mem_world(4, 0, |mut c| {
            let in_low = c.rank() < 2;
            let members: Vec<usize> = if in_low { vec![0, 1] } else { vec![2, 3] };
            let gid = if in_low { 1 } else { 2 };
            let group = GroupComm::new(&mut c, &members, gid);
            let mut comm = Communicator::new(group);
            if in_low {
                // Low group: three barriers.
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
                0u64
            } else {
                // High group: bcast + allreduce.
                let mut b = if comm.rank() == 0 {
                    vec![5u8; 64]
                } else {
                    Vec::new()
                };
                comm.bcast(0, &mut b).unwrap();
                let s = comm
                    .allreduce(9u64.to_le_bytes().to_vec(), &crate::combine_u64_sum)
                    .unwrap();
                u64::from_le_bytes(s[..8].try_into().unwrap()) + b[0] as u64
            }
        });
        assert_eq!(out, vec![0, 0, 23, 23]);
    }

    #[test]
    fn group_gather_and_barrier_work() {
        let out = run_mem_world(6, 0, |mut c| {
            let members = vec![0usize, 2, 5];
            if !members.contains(&c.rank()) {
                return 0usize;
            }
            let group = GroupComm::new(&mut c, &members, 3);
            let mut comm = Communicator::new(group);
            let g = comm.gather(0, &[comm.rank() as u8]).unwrap();
            comm.barrier().unwrap();
            g.map(|parts| parts.len()).unwrap_or(0)
        });
        assert_eq!(out, vec![3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "must be a member")]
    fn non_member_construction_panics() {
        let mut comms = mmpi_transport::MemComm::world(3, 0);
        let mut rank2 = comms.pop().unwrap();
        let _ = GroupComm::new(&mut rank2, &[0, 1], 1);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn unsorted_members_panic() {
        let mut comms = mmpi_transport::MemComm::world(3, 0);
        let mut rank0 = comms.remove(0);
        let _ = GroupComm::new(&mut rank0, &[1, 0], 1);
    }
}
