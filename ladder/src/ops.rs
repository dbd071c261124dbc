//! The four workloads and their operation streams.
//!
//! A workload is a closed loop: every rank issues collective `i + 1`
//! when its collective `i` returns. The stream is a pure function of
//! `(workload, seed, i)`: the kind and algorithm of operation `i` follow
//! the workload's fixed cycle, the broadcast root rotates `i mod N`, and
//! the seed draws the payload length (80–100 % of the cycle's nominal
//! size), the fill byte and, on the simulator, how long each rank
//! computes before it arrives. Every rank calls [`op_at`] itself, so no
//! rank needs to be told what the others are doing.

use mmpi_core::{BarrierAlgorithm, BcastAlgorithm, Communicator, RecvError};
use mmpi_transport::Comm;

/// Which of the four fixed workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimPaperN8,
    SimLossyN64,
    SimGossipN32,
    UdpLoopbackN2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimPaperN8,
        Workload::SimLossyN64,
        Workload::SimGossipN32,
        Workload::UdpLoopbackN2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaperN8 => "sim_paper_n8",
            Workload::SimLossyN64 => "sim_lossy_n64",
            Workload::SimGossipN32 => "sim_gossip_n32",
            Workload::UdpLoopbackN2 => "udp_loopback_n2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of ranks.
    pub fn ranks(self) -> usize {
        match self {
            Workload::SimPaperN8 => 8,
            Workload::SimLossyN64 => 64,
            Workload::SimGossipN32 => 32,
            Workload::UdpLoopbackN2 => 2,
        }
    }

    /// Does the workload run on the simulator's virtual clock?
    pub fn is_sim(self) -> bool {
        self != Workload::UdpLoopbackN2
    }

    /// Measured collectives in one repetition (one world stood up, run
    /// and torn down), sized so a repetition takes two to three seconds
    /// on the two-core reference box. A further 5 % is run first as
    /// warm-up and left out of every metric.
    pub fn ops_per_rep(self) -> u64 {
        match self {
            Workload::SimPaperN8 => 4000,
            Workload::SimLossyN64 => 100,
            Workload::SimGossipN32 => 100,
            Workload::UdpLoopbackN2 => 60_000,
        }
    }
}

/// One collective call, as every rank will issue it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Bcast {
        algo: BcastAlgorithm,
        root: usize,
        len: usize,
        fill: u8,
    },
    Barrier {
        algo: BarrierAlgorithm,
    },
    /// Rank `r` contributes `len` bytes of `fill ^ r`.
    Allgather {
        len: usize,
        fill: u8,
    },
}

impl Op {
    /// The `core.<kind>_*` metric family this operation feeds.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Bcast { .. } => OpKind::Bcast,
            Op::Barrier { .. } => OpKind::Barrier,
            Op::Allgather { .. } => OpKind::Allgather,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Bcast,
    Barrier,
    Allgather,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Bcast => "bcast",
            OpKind::Barrier => "barrier",
            OpKind::Allgather => "allgather",
        }
    }
}

/// SplitMix64 finalizer over `(seed, i)`: the one source of randomness
/// in the operation stream.
fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The rank that arrives late at operation `i`, and by how much (up to
/// 20 µs of virtual compute), both drawn from the seed. Ranks of a real
/// program never arrive at a collective together — the scouts exist
/// because of it — and the paper's latency runs from the first arrival.
/// One late rank per operation costs one extra rank↔driver hand-off; a
/// skew at every rank would double the hand-offs of a small collective
/// and the harness would be measuring itself.
pub fn late_rank(workload: Workload, seed: u64, i: u64) -> usize {
    (mix(seed ^ 0xD6E8_FEB8_6659_FD93, i) % workload.ranks() as u64) as usize
}

/// See [`late_rank`].
pub fn arrival_skew_ns(seed: u64, i: u64) -> u64 {
    mix(seed ^ 0xA076_1D64_78BD_642F, i) % 20_001
}

/// Operation `i` of `workload` under `seed`.
pub fn op_at(workload: Workload, seed: u64, i: u64) -> Op {
    use BarrierAlgorithm as Bar;
    use BcastAlgorithm as Bc;
    let n = workload.ranks();
    let h = mix(seed, i);
    let bcast = |algo: BcastAlgorithm, nominal: usize| Op::Bcast {
        algo,
        root: (i % n as u64) as usize,
        // 80–100 % of nominal, never above it: the lossy rows stay at or
        // under 4 KiB and the UDP row at or under one 60 000-byte chunk.
        len: (nominal - (nominal / 5) * (h % 1001) as usize / 1000).max(1),
        fill: (h >> 32) as u8 | 1,
    };
    match workload {
        Workload::SimPaperN8 => match i % 8 {
            0 => bcast(Bc::McastBinary, 1),
            1 => bcast(Bc::MpichBinomial, 1),
            2 => bcast(Bc::McastBinary, 1000),
            3 => bcast(Bc::MpichBinomial, 1000),
            4 => bcast(Bc::McastBinary, 5000),
            5 => bcast(Bc::MpichBinomial, 5000),
            6 => Op::Barrier {
                algo: Bar::McastBinary,
            },
            _ => Op::Barrier { algo: Bar::Mpich },
        },
        Workload::SimLossyN64 => match i % 16 {
            15 => Op::Allgather {
                len: 256,
                fill: (h >> 32) as u8 | 1,
            },
            k => match k % 4 {
                0 => bcast(Bc::McastBinary, 4096),
                1 => Op::Barrier {
                    algo: Bar::McastBinary,
                },
                2 => bcast(Bc::McastBinary, 1024),
                _ => bcast(Bc::McastBinary, 64),
            },
        },
        Workload::SimGossipN32 => bcast(Bc::Gossip, [4096, 64, 1024][(i % 3) as usize]),
        Workload::UdpLoopbackN2 => match i % 5 {
            0 => bcast(Bc::McastBinary, 64),
            1 => bcast(Bc::McastBinary, 1024),
            2 => bcast(Bc::McastBinary, 16_384),
            3 => bcast(Bc::McastBinary, 60_000),
            _ => Op::Barrier {
                algo: Bar::McastBinary,
            },
        },
    }
}

/// Fill `buf` with what `rank` contributes to `op`. Kept apart from
/// [`call`] so that neither the fill nor the check is timed as part of
/// the collective.
pub fn prepare(op: &Op, rank: usize, buf: &mut Vec<u8>) {
    buf.clear();
    match *op {
        Op::Bcast {
            root, len, fill, ..
        } => buf.resize(len, if rank == root { fill } else { 0 }),
        Op::Barrier { .. } => {}
        Op::Allgather { len, fill } => buf.resize(len, fill ^ rank as u8),
    }
}

/// The collective call itself. A broadcast leaves its output in `buf`;
/// an allgather returns its blocks (empty for the other kinds).
pub fn call<C: Comm>(
    comm: &mut Communicator<C>,
    op: &Op,
    buf: &mut Vec<u8>,
) -> Result<Vec<Vec<u8>>, RecvError> {
    match *op {
        Op::Bcast { algo, root, .. } => comm.bcast_with(algo, root, buf).map(|()| Vec::new()),
        Op::Barrier { algo } => comm.barrier_with(algo).map(|()| Vec::new()),
        Op::Allgather { .. } => comm.allgather(buf),
    }
}

/// Did `op` in a world of `ranks` leave the right bytes behind?
pub fn verify(op: &Op, ranks: usize, buf: &[u8], blocks: &[Vec<u8>]) -> bool {
    match *op {
        Op::Bcast { len, fill, .. } => buf.len() == len && buf.iter().all(|&b| b == fill),
        Op::Barrier { .. } => true,
        Op::Allgather { len, fill } => {
            blocks.len() == ranks
                && blocks
                    .iter()
                    .enumerate()
                    .all(|(r, b)| b.len() == len && b.iter().all(|&x| x == fill ^ r as u8))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_seed_and_index() {
        for w in Workload::ALL {
            for i in 0..64 {
                assert_eq!(op_at(w, 7, i), op_at(w, 7, i));
            }
            let a: Vec<Op> = (0..64).map(|i| op_at(w, 7, i)).collect();
            let b: Vec<Op> = (0..64).map(|i| op_at(w, 8, i)).collect();
            assert_ne!(a, b, "the seed must change the inputs of {}", w.name());
        }
    }

    #[test]
    fn sizes_stay_within_their_nominal_bounds() {
        for seed in 0..50 {
            for i in 0..200 {
                if let Op::Bcast { len, root, .. } = op_at(Workload::SimLossyN64, seed, i) {
                    assert!((1..=4096).contains(&len));
                    assert_eq!(root, (i % 64) as usize);
                }
                if let Op::Bcast { len, .. } = op_at(Workload::UdpLoopbackN2, seed, i) {
                    assert!((1..=60_000).contains(&len));
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
