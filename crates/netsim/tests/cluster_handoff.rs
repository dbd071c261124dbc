//! The co-simulation hand-off (`docs/SIMULATOR.md`, "Co-simulation
//! hand-off"): the rank that closes a round runs it, so every way a round
//! can end — a response, a panic, a deadlock, the time limit, a rank
//! returning — has to wake exactly the ranks that wait for it. Each test
//! runs under a wall-clock watchdog: a lost wake-up fails the test instead
//! of hanging the suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId};
use mmpi_netsim::params::NetParams;
use mmpi_netsim::time::SimDuration;
use mmpi_netsim::{SimError, SimProcess};

const PORT: u16 = 5000;
const GROUP: GroupId = GroupId(1);

/// Run `body` on its own thread and fail if it has not returned within
/// `secs` of wall time (a hung simulation leaves its threads behind; the
/// test process still exits).
fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(out) => {
            runner.join().expect("body already returned");
            out
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("simulation still running after {secs} s: a wake-up was lost")
        }
        // The sender was dropped without a value: `body` panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the sender is dropped only by a panic"),
        },
    }
}

fn switch(n: usize) -> ClusterConfig {
    ClusterConfig::new(n, NetParams::fast_ethernet_switch(), 1)
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Counts the rank threads that have left the closure, by return or by
/// unwinding: `run_cluster` may only return once all of them have.
struct Exits<'a>(&'a AtomicUsize);

impl Drop for Exits<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn the_round_closer_panicking_aborts_the_run() {
    within(20, || {
        let exits = AtomicUsize::new(0);
        let err = run_cluster(&switch(4), |mut p| {
            let _exit = Exits(&exits);
            let s = p.bind(PORT);
            if p.rank() == 3 {
                // Ranks 0..3 park in `recv` after three requests each; by
                // its fifth `compute` rank 3 is the only runnable rank, so
                // its exit is what closes the round.
                for _ in 0..8 {
                    p.compute(us(1));
                }
                panic!("boom");
            }
            p.recv(s);
        })
        .unwrap_err();
        assert!(matches!(err, SimError::RankPanicked { rank: 3, .. }));
        assert_eq!(exits.load(Ordering::SeqCst), 4, "every rank thread joined");
    });
}

#[test]
fn a_panic_while_peers_run_application_code_aborts_the_run() {
    within(20, || {
        let exits = AtomicUsize::new(0);
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = std::sync::Mutex::new(go_rx);
        let err = run_cluster(&switch(4), |mut p| {
            let _exit = Exits(&exits);
            let s = p.bind(PORT);
            match p.rank() {
                0 => panic!("boom"),
                // Application code that outlives the panic: it posts its
                // next request only after the run was aborted.
                1 => {
                    let _ = go_rx
                        .lock()
                        .unwrap()
                        .recv_timeout(Duration::from_millis(200));
                    p.compute(us(1));
                }
                _ => {
                    p.recv(s);
                }
            }
        })
        .unwrap_err();
        drop(go_tx);
        assert!(matches!(err, SimError::RankPanicked { rank: 0, .. }));
        assert_eq!(exits.load(Ordering::SeqCst), 4, "every rank thread joined");
    });
}

#[test]
fn deadlock_with_ranks_parked_in_recv_timeout() {
    within(20, || {
        let err = run_cluster(&switch(4), |mut p| {
            let s = p.bind(PORT);
            if p.rank() % 2 == 0 {
                // The timeouts run out, then these ranks block for good too.
                assert!(p.recv_timeout(s, us(300)).is_none());
            }
            p.recv(s);
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { detail, .. } => {
                for rank in 0..4 {
                    assert!(detail.contains(&format!("rank {rank}")), "{detail}");
                }
            }
            other => panic!("expected deadlock, got {other}"),
        }
    });
}

#[test]
fn time_limit_with_ranks_parked_in_recv_timeout() {
    within(20, || {
        let mut cfg = switch(3);
        cfg.time_limit = SimDuration::from_millis(5);
        let err = run_cluster(&cfg, |mut p| {
            let s = p.bind(PORT);
            // A livelock: everyone polls, nobody ever sends.
            while p.recv_timeout(s, us(400)).is_none() {}
        })
        .unwrap_err();
        assert!(matches!(err, SimError::TimeLimitExceeded { .. }), "{err}");
    });
}

#[test]
fn ranks_finish_after_very_different_request_counts() {
    within(30, || {
        let n = 8;
        let report = run_cluster(&switch(n), |mut p| {
            let s = p.bind(PORT);
            // Rank r issues 1 + 40·r requests after the bind, then rank 0
            // (long gone from the rounds) gets a datagram from the last.
            for _ in 0..40 * p.rank() {
                p.compute(us(2));
            }
            match p.rank() {
                0 => p.recv(s).src_host.index(),
                r if r == n - 1 => {
                    p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![1; 8]);
                    r
                }
                r => r,
            }
        })
        .unwrap();
        assert_eq!(report.outputs, vec![7, 1, 2, 3, 4, 5, 6, 7]);
        for r in 1..n - 1 {
            assert_eq!(report.completion_times[r].as_nanos(), 80_000 * r as u64);
        }
    });
}

#[test]
fn a_single_rank_runs_every_request_inline() {
    within(20, || {
        let report = run_cluster(&switch(1), |mut p| {
            let s = p.bind(PORT);
            p.join_group(s, GROUP);
            for i in 0..200u64 {
                p.compute(us(1));
                p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![i as u8; 16]);
                assert_eq!(p.recv(s).payload.to_vec(), vec![i as u8; 16]);
                assert!(p.recv_timeout(s, us(5)).is_none());
            }
            p.now().as_nanos()
        })
        .unwrap();
        assert_eq!(report.stats.datagrams_delivered, 200);
        assert_eq!(report.completion_times[0].as_nanos(), report.outputs[0]);
    });
}

#[test]
fn two_hundred_back_to_back_n32_runs() {
    within(120, || {
        let n = 32;
        let mut first = None;
        for _ in 0..200 {
            let report = run_cluster(&switch(n), |mut p| {
                let s = p.bind(PORT);
                p.join_group(s, GROUP);
                let next = HostId(((p.rank() + 1) % n) as u32);
                p.send(
                    s,
                    DatagramDst::Unicast(next),
                    PORT,
                    vec![p.rank() as u8; 32],
                );
                let from = p.recv(s).src_host.index();
                if p.rank() == 0 {
                    p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![9; 64]);
                } else {
                    assert_eq!(p.recv(s).payload.len(), 64);
                }
                from
            })
            .unwrap();
            let times = report.completion_times.clone();
            assert_eq!(*first.get_or_insert(times), report.completion_times);
        }
    });
}

/// N=16, raw `SimProcess`, 5 % frame loss, every request kind: staggered
/// `compute`, a rotating multicast, a unicast ring token and three
/// `recv_timeout`s per round, so ranks block, time out and finish at
/// different times.
fn mixed_scenario(mut p: SimProcess) -> u64 {
    const N: usize = 16;
    let rank = p.rank();
    let s = p.bind(PORT);
    p.join_group(s, GROUP);
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| acc = (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for round in 0..6usize {
        p.compute(us(3 * ((rank + round) % 4) as u64));
        if rank == (round * 5) % N {
            let payload = vec![round as u8; 700 + 300 * round];
            p.send(s, DatagramDst::Multicast(GROUP), PORT, payload);
        }
        let next = HostId(((rank + 1) % N) as u32);
        p.send(
            s,
            DatagramDst::Unicast(next),
            PORT,
            vec![rank as u8; 40 + round],
        );
        for _ in 0..3 {
            match p.recv_timeout(s, us(400)) {
                Some(d) => {
                    mix(d.src_host.index() as u64);
                    mix(u64::from(d.len()));
                    mix(p.now().as_nanos());
                }
                None => mix(u64::MAX),
            }
        }
    }
    acc
}

/// FNV-1a over the rendered `(completion_times, outputs, NetStats)`.
fn mixed_scenario_fingerprint() -> u64 {
    let params = NetParams::fast_ethernet_switch().with_loss(0.05);
    let cfg = ClusterConfig::new(16, params, 0x1357_9BDF).with_start_skew(us(50));
    let report = run_cluster(&cfg, mixed_scenario).expect("every receive has a timeout");
    assert!(report.stats.injected_frame_losses > 0, "the loss model ran");
    let rendered = format!(
        "{:?}|{:?}|{:?}",
        report.completion_times, report.outputs, report.stats
    );
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded on the last commit that had a driver thread (PR 12). The
/// hand-off is scheduling only: whoever runs a round, the `World` sees the
/// same calls in the same order, so this never changes with it.
const MIXED_EVENT_LOOP: u64 = 0xc66b_7d3b_9bf5_23ec;

#[test]
fn mixed_scenario_fingerprint_is_unchanged() {
    within(60, || {
        let got = mixed_scenario_fingerprint();
        println!("mixed scenario: {got:#018x}");
        assert_eq!(got, mixed_scenario_fingerprint(), "replays");
        assert_eq!(got, MIXED_EVENT_LOOP, "moved off the recorded run");
    });
}
