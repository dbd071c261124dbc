//! Property-based testing of the collectives: random programs of mixed
//! collective operations, sizes, roots, and algorithms must produce the
//! MPI-specified results on every rank — and every rank must agree.

use proptest::prelude::*;

use mmpi_core::{
    combine_u64_sum, AllgatherAlgorithm, BarrierAlgorithm, BcastAlgorithm, Communicator,
};
use mmpi_transport::run_mem_world;

#[derive(Clone, Debug)]
enum Op {
    Bcast { algo: u8, root: usize, len: usize },
    Barrier { algo: u8 },
    Allreduce { value: u64 },
    Allgather { algo: u8, len: usize },
    Gather { root: usize, len: usize },
}

fn bcast_algo(i: u8) -> BcastAlgorithm {
    match i % 7 {
        0 => BcastAlgorithm::MpichBinomial,
        1 => BcastAlgorithm::McastBinary,
        2 => BcastAlgorithm::McastLinear,
        3 => BcastAlgorithm::PvmAck,
        4 => BcastAlgorithm::FlatTree,
        5 => BcastAlgorithm::Chain,
        _ => BcastAlgorithm::ScatterAllgather,
    }
}

fn barrier_algo(i: u8) -> BarrierAlgorithm {
    match i % 3 {
        0 => BarrierAlgorithm::Mpich,
        1 => BarrierAlgorithm::McastBinary,
        _ => BarrierAlgorithm::McastLinear,
    }
}

fn allgather_algo(i: u8) -> AllgatherAlgorithm {
    match i % 3 {
        0 => AllgatherAlgorithm::GatherBcast,
        1 => AllgatherAlgorithm::Ring,
        _ => AllgatherAlgorithm::Multicast,
    }
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0..n, 0usize..3000).prop_map(|(algo, root, len)| Op::Bcast {
            algo,
            root,
            len
        }),
        any::<u8>().prop_map(|algo| Op::Barrier { algo }),
        any::<u64>().prop_map(|value| Op::Allreduce { value }),
        (any::<u8>(), 0usize..500).prop_map(|(algo, len)| Op::Allgather { algo, len }),
        (0..n, 0usize..500).prop_map(|(root, len)| Op::Gather { root, len }),
    ]
}

fn program(n: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(n), 1..8)
}

/// Execute `ops` on rank `me` of `n`; return a digest all ranks can agree
/// on (collected per rank, compared rank-by-rank against the model).
fn execute(mut comm: Communicator<mmpi_transport::MemComm>, ops: &[Op]) -> Vec<u64> {
    let me = comm.rank();
    let mut digest = Vec::new();
    for op in ops {
        match op {
            Op::Bcast { algo, root, len } => {
                comm.bcast_algo = bcast_algo(*algo);
                let mut buf = if me == *root {
                    vec![(*root as u8).wrapping_add(7); *len]
                } else {
                    vec![0; *len]
                };
                comm.bcast(*root, &mut buf).unwrap();
                digest.push(buf.iter().map(|&b| b as u64).sum());
            }
            Op::Barrier { algo } => {
                comm.barrier_algo = barrier_algo(*algo);
                comm.barrier().unwrap();
                digest.push(0xBA);
            }
            Op::Allreduce { value } => {
                let s = comm
                    .allreduce(
                        value.wrapping_add(me as u64).to_le_bytes().to_vec(),
                        &combine_u64_sum,
                    )
                    .unwrap();
                digest.push(u64::from_le_bytes(s[..8].try_into().unwrap()));
            }
            Op::Allgather { algo, len } => {
                comm.allgather_algo = allgather_algo(*algo);
                let mine = vec![me as u8; *len];
                let parts = comm.allgather(&mine).unwrap();
                digest.push(
                    parts
                        .iter()
                        .enumerate()
                        .map(|(src, p)| (src as u64 + 1) * p.len() as u64)
                        .sum(),
                );
            }
            Op::Gather { root, len } => {
                let g = comm.gather(*root, &vec![me as u8; *len]).unwrap();
                digest.push(match g {
                    Some(parts) => parts.iter().map(|p| p.len() as u64).sum(),
                    None => 0,
                });
            }
        }
    }
    digest
}

/// Reference model: what every rank's digest must be.
fn model(n: usize, me: usize, ops: &[Op]) -> Vec<u64> {
    let mut digest = Vec::new();
    for op in ops {
        match op {
            Op::Bcast { root, len, .. } => {
                digest.push(((*root as u8).wrapping_add(7) as u64) * *len as u64);
            }
            Op::Barrier { .. } => digest.push(0xBA),
            Op::Allreduce { value } => {
                let total: u64 = (0..n as u64)
                    .map(|r| value.wrapping_add(r))
                    .fold(0u64, u64::wrapping_add);
                digest.push(total);
            }
            Op::Allgather { len, .. } => {
                let total: u64 = (0..n as u64).map(|src| (src + 1) * *len as u64).sum();
                digest.push(total);
            }
            Op::Gather { root, len } => {
                digest.push(if me == *root { (n * len) as u64 } else { 0 });
            }
        }
    }
    digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_collective_programs_match_the_model(
        n in 2usize..7,
        seed_ops in (2usize..7).prop_flat_map(program),
    ) {
        // `program` was drawn for a possibly different n; regenerate roots
        // within range by clamping.
        let ops: Vec<Op> = seed_ops
            .into_iter()
            .map(|op| match op {
                Op::Bcast { algo, root, len } => Op::Bcast { algo, root: root % n, len },
                Op::Gather { root, len } => Op::Gather { root: root % n, len },
                other => other,
            })
            .collect();
        let ops2 = ops.clone();
        let out = run_mem_world(n, 0, move |c| execute(Communicator::new(c), &ops2));
        for (me, digest) in out.iter().enumerate() {
            prop_assert_eq!(digest, &model(n, me, &ops), "rank {}", me);
        }
    }
}
