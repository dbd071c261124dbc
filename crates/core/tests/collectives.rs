//! Correctness of every collective over the in-memory backend, for many
//! process counts, roots, and payload sizes.

use std::time::Duration;

use mmpi_core::{
    combine_u64_max, combine_u64_sum, BarrierAlgorithm, BcastAlgorithm, Communicator, RecvError,
};
use mmpi_transport::{run_mem_world, Comm};

const SIZES: &[usize] = &[2, 3, 4, 5, 7, 8, 9, 16];

fn payload_for(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (rank * 31 + i) as u8).collect()
}

fn u64s(vals: &[u64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn from_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn bcast_all_algorithms_all_sizes_all_roots() {
    let algos = [
        BcastAlgorithm::MpichBinomial,
        BcastAlgorithm::McastBinary,
        BcastAlgorithm::McastLinear,
        BcastAlgorithm::PvmAck,
        BcastAlgorithm::FlatTree,
        BcastAlgorithm::Chain,
        BcastAlgorithm::ScatterAllgather,
        BcastAlgorithm::Auto,
    ];
    for &n in SIZES {
        for &algo in &algos {
            for root in [0, n / 2, n - 1] {
                for len in [0usize, 1, 100, 5000] {
                    let expect = payload_for(root, len);
                    let want = expect.clone();
                    let out = run_mem_world(n, 0, move |c| {
                        let mut comm = Communicator::new(c).with_bcast(algo);
                        // MPI semantics: every rank knows the count, so
                        // receivers pass a right-sized (zeroed) buffer.
                        let mut buf = if comm.rank() == root {
                            expect.clone()
                        } else {
                            vec![0; len]
                        };
                        comm.bcast(root, &mut buf).unwrap();
                        buf
                    });
                    for (r, o) in out.iter().enumerate() {
                        assert_eq!(
                            o, &want,
                            "algo {algo:?} n={n} root={root} len={len} rank={r}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn barrier_all_algorithms_release_everyone() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let algos = [
        BarrierAlgorithm::Mpich,
        BarrierAlgorithm::McastBinary,
        BarrierAlgorithm::McastLinear,
    ];
    for &n in SIZES {
        for &algo in &algos {
            // Every rank increments before the barrier; after the barrier
            // the counter must read n on every rank.
            let counter = AtomicUsize::new(0);
            let ok = run_mem_world(n, 0, |c| {
                let mut comm = Communicator::new(c).with_barrier(algo);
                counter.fetch_add(1, Ordering::SeqCst);
                comm.barrier().unwrap();
                counter.load(Ordering::SeqCst) == n
            });
            assert!(
                ok.iter().all(|&b| b),
                "algo {algo:?} n={n}: a rank left the barrier early"
            );
        }
    }
}

#[test]
fn repeated_barriers_do_not_interfere() {
    for &n in &[3usize, 8] {
        let out = run_mem_world(n, 0, |c| {
            let mut comm = Communicator::new(c);
            for _ in 0..25 {
                comm.barrier().unwrap();
            }
            true
        });
        assert!(out.iter().all(|&b| b));
    }
}

#[test]
fn gather_collects_every_ranks_buffer() {
    for &n in SIZES {
        for root in [0, n - 1] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c);
                let mine = payload_for(comm.rank(), 64 + comm.rank());
                comm.gather(root, &mine).unwrap()
            });
            for (r, o) in out.iter().enumerate() {
                if r == root {
                    let parts = o.as_ref().expect("root gets data");
                    assert_eq!(parts.len(), n);
                    for (src, p) in parts.iter().enumerate() {
                        assert_eq!(p, &payload_for(src, 64 + src), "n={n} src={src}");
                    }
                } else {
                    assert!(o.is_none());
                }
            }
        }
    }
}

#[test]
fn reduce_sums_across_ranks() {
    for &n in SIZES {
        for root in [0, n / 2] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c);
                let data = u64s(&[comm.rank() as u64, 1, 10 * comm.rank() as u64]);
                comm.reduce(root, data, &combine_u64_sum).unwrap()
            });
            let total: u64 = (0..n as u64).sum();
            for (r, o) in out.iter().enumerate() {
                if r == root {
                    assert_eq!(
                        from_u64s(o.as_ref().unwrap()),
                        vec![total, n as u64, 10 * total],
                        "n={n} root={root}"
                    );
                } else {
                    assert!(o.is_none());
                }
            }
        }
    }
}

#[test]
fn allreduce_gives_everyone_the_result() {
    for &n in SIZES {
        for algo in [BcastAlgorithm::MpichBinomial, BcastAlgorithm::McastBinary] {
            let out = run_mem_world(n, 0, move |c| {
                let mut comm = Communicator::new(c).with_bcast(algo);
                let data = u64s(&[comm.rank() as u64 + 1]);
                from_u64s(&comm.allreduce(data, &combine_u64_sum).unwrap())
            });
            let want = (1..=n as u64).sum::<u64>();
            assert!(
                out.iter().all(|o| o == &vec![want]),
                "n={n} algo={algo:?}: {out:?}"
            );
        }
    }
}

#[test]
fn allreduce_max() {
    let out = run_mem_world(6, 0, |c| {
        let mut comm = Communicator::new(c);
        let data = u64s(&[(comm.rank() as u64 * 7) % 5, comm.rank() as u64]);
        from_u64s(&comm.allreduce(data, &combine_u64_max).unwrap())
    });
    assert!(out.iter().all(|o| o == &vec![4, 5]));
}

#[test]
fn allgather_variable_lengths() {
    for &n in SIZES {
        let out = run_mem_world(n, 0, move |c| {
            let mut comm = Communicator::new(c);
            let mine = payload_for(comm.rank(), comm.rank() * 3); // rank 0 sends empty
            comm.allgather(&mine).unwrap()
        });
        for (r, parts) in out.iter().enumerate() {
            assert_eq!(parts.len(), n, "n={n} rank={r}");
            for (src, p) in parts.iter().enumerate() {
                assert_eq!(p, &payload_for(src, src * 3));
            }
        }
    }
}

#[test]
fn mixed_collective_sequences_stay_tag_safe() {
    // A program issuing many different collectives back-to-back: sequence
    // numbering must keep them separated.
    let out = run_mem_world(5, 0, |c| {
        let mut comm = Communicator::new(c);
        let mut log = Vec::new();
        for round in 0..10u64 {
            let mut b = if comm.rank() == (round as usize) % 5 {
                u64s(&[round])
            } else {
                Vec::new()
            };
            comm.bcast((round as usize) % 5, &mut b).unwrap();
            log.extend(from_u64s(&b));
            comm.barrier().unwrap();
            let s = comm.allreduce(u64s(&[round]), &combine_u64_sum).unwrap();
            log.extend(from_u64s(&s));
        }
        log
    });
    let expect: Vec<u64> = (0..10u64).flat_map(|r| [r, r * 5]).collect();
    assert!(out.iter().all(|o| o == &expect), "{out:?}");
}

#[test]
fn paper_section4_ordering_example() {
    // The paper's §4 program: ranks broadcast in the order 6, 7, 8 (here
    // 1, 2, 3 of a 4-rank world). Each root cannot start its broadcast
    // before receiving the previous one, so ordering is preserved.
    let out = run_mem_world(4, 0, |c| {
        let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::McastBinary);
        let mut order = Vec::new();
        for root in [1usize, 2, 3] {
            let mut buf = if comm.rank() == root {
                vec![root as u8]
            } else {
                Vec::new()
            };
            comm.bcast(root, &mut buf).unwrap();
            order.push(buf[0]);
        }
        order
    });
    assert!(out.iter().all(|o| o == &vec![1, 2, 3]));
}

#[test]
fn single_rank_world_collectives_are_noops() {
    let out = run_mem_world(1, 0, |c| {
        let mut comm = Communicator::new(c);
        let mut buf = b"solo".to_vec();
        comm.bcast(0, &mut buf).unwrap();
        comm.barrier().unwrap();
        let g = comm.gather(0, &buf).unwrap().unwrap();
        let r = comm
            .reduce(0, u64s(&[7]), &combine_u64_sum)
            .unwrap()
            .unwrap();
        let ag = comm.allgather(&buf).unwrap();
        (buf, g.len(), from_u64s(&r), ag.len())
    });
    assert_eq!(out[0].0, b"solo");
    assert_eq!(out[0].1, 1);
    assert_eq!(out[0].2, vec![7]);
    assert_eq!(out[0].3, 1);
}

#[test]
fn bcast_with_explicit_algorithm_interops_across_calls() {
    // Alternate algorithms call-by-call; op sequence keeps tags disjoint.
    let out = run_mem_world(6, 0, |c| {
        let mut comm = Communicator::new(c);
        let mut results = Vec::new();
        for (i, algo) in [
            BcastAlgorithm::MpichBinomial,
            BcastAlgorithm::McastLinear,
            BcastAlgorithm::McastBinary,
            BcastAlgorithm::PvmAck,
        ]
        .into_iter()
        .enumerate()
        {
            let mut buf = if comm.rank() == 0 {
                vec![i as u8; 100 * (i + 1)]
            } else {
                Vec::new()
            };
            comm.bcast_with(algo, 0, &mut buf).unwrap();
            results.push(buf);
        }
        results
    });
    for o in &out {
        for (i, buf) in o.iter().enumerate() {
            assert_eq!(buf, &vec![i as u8; 100 * (i + 1)]);
        }
    }
}

/// A receiver that never enters a `PvmAck` broadcast costs the root its
/// retransmissions and then a typed error naming it — not a panic.
#[test]
fn pvm_ack_root_reports_a_receiver_that_never_acknowledges() {
    let out = run_mem_world(3, 0, |c| {
        let mut comm = Communicator::new(c).with_bcast(BcastAlgorithm::PvmAck);
        comm.bcast_cfg.ack_timeout = Duration::from_millis(2);
        comm.bcast_cfg.max_retransmits = 3;
        if comm.rank() == 2 {
            return None;
        }
        let mut buf = if comm.rank() == 0 {
            vec![1; 64]
        } else {
            Vec::new()
        };
        Some(comm.bcast(0, &mut buf).map(|()| buf))
    });
    assert_eq!(
        out,
        vec![
            Some(Err(RecvError::Unreachable { src: 2, rounds: 4 })),
            Some(Ok(vec![1; 64])),
            None,
        ]
    );
}

#[test]
fn transport_accessors_work() {
    let out = run_mem_world(2, 0, |c| {
        let comm = Communicator::new(c);
        (comm.rank(), comm.size(), comm.transport().context())
    });
    assert_eq!(out[0], (0, 2, 0));
    assert_eq!(out[1], (1, 2, 0));
}
