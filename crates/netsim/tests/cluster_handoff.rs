//! The co-simulation hand-off (`docs/SIMULATOR.md`, "Co-simulation
//! hand-off"): the rank that closes a round runs it, so every way a round
//! can end — a response, a panic, a deadlock, the time limit, a rank
//! returning — has to wake exactly the ranks that wait for it. Each test
//! runs under a wall-clock watchdog: a lost wake-up fails the test instead
//! of hanging the suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use mmpi_netsim::cluster::{run_cluster, ClusterConfig, HandoffStats, RunReport};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId, SocketId};
use mmpi_netsim::params::NetParams;
use mmpi_netsim::time::{SimDuration, SimTime};
use mmpi_netsim::{Datagram, RankPort, Served, ServedRecv, SimError, SimProcess, Step};

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
        let go_rx = Mutex::new(go_rx);
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

/// What one of `mixed_scenario`'s receives saw: sender, length and the
/// rank's clock afterwards, or `None` for a timeout.
type Seen = Option<(u64, u64, u64)>;

/// Three 400 us receives as one loop, for [`SimProcess::recv_served`].
struct Three(Mutex<Vec<Seen>>);

impl Three {
    fn turn(&self, now: u64, d: Option<Arc<Datagram>>) -> Step {
        let mut seen = self.0.lock().unwrap();
        seen.push(d.map(|d| (d.src_host.index() as u64, u64::from(d.len()), now)));
        if seen.len() == 3 {
            Step::Done
        } else {
            Step::Park(Some(us(400)))
        }
    }
}

impl Served for Three {
    fn step(&self, port: &mut RankPort<'_>, d: Option<Arc<Datagram>>) -> Step {
        self.turn(port.now().as_nanos(), d)
    }
}

/// `mixed_scenario`'s three receives of a round: `recv_timeout` three
/// times, or the same loop parked served.
fn three_receives(p: &mut SimProcess, s: SocketId, served: bool) -> Vec<Seen> {
    let three = Arc::new(Three(Mutex::new(Vec::new())));
    let handle: Arc<dyn Served> = Arc::clone(&three) as Arc<dyn Served>;
    let mut next = Step::Park(Some(us(400)));
    while let Step::Park(timeout) = next {
        let d = if served {
            match p.recv_served(s, timeout, &handle) {
                ServedRecv::Stepped => break,
                ServedRecv::Woken(d) => d,
            }
        } else {
            p.recv_timeout(s, timeout.expect("every receive has a timeout"))
        };
        next = three.turn(p.now().as_nanos(), d);
    }
    let seen = three.0.lock().unwrap().clone();
    seen
}

/// N=16, raw `SimProcess`, 5 % frame loss, every request kind: staggered
/// `compute`, a rotating multicast, a unicast ring token and three
/// `recv_timeout`s per round, so ranks block, time out and finish at
/// different times.
fn mixed_scenario(mut p: SimProcess, served: bool) -> u64 {
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
        for seen in three_receives(&mut p, s, served) {
            match seen {
                Some((src, len, at)) => {
                    mix(src);
                    mix(len);
                    mix(at);
                }
                None => mix(u64::MAX),
            }
        }
    }
    acc
}

/// FNV-1a over the rendered `(completion_times, outputs, NetStats)`, and
/// what the rounds did with the receives.
fn mixed_scenario_fingerprint(served: bool) -> (u64, HandoffStats) {
    let params = NetParams::fast_ethernet_switch().with_loss(0.05);
    let cfg = ClusterConfig::new(16, params, 0x1357_9BDF).with_start_skew(us(50));
    let report =
        run_cluster(&cfg, |p| mixed_scenario(p, served)).expect("every receive has a timeout");
    assert!(report.stats.injected_frame_losses > 0, "the loss model ran");
    let rendered = format!(
        "{:?}|{:?}|{:?}",
        report.completion_times, report.outputs, report.stats
    );
    let fnv = rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (fnv, report.handoff)
}

/// Recorded on the last commit that had a driver thread (PR 12). The
/// hand-off is scheduling only: whoever runs a round — and whoever takes
/// the turns of a served receive loop — the `World` sees the same calls in
/// the same order, so this never changes with it.
const MIXED_EVENT_LOOP: u64 = 0xc66b_7d3b_9bf5_23ec;

#[test]
fn mixed_scenario_fingerprint_is_unchanged() {
    within(60, || {
        let (got, handoff) = mixed_scenario_fingerprint(false);
        println!("mixed scenario: {got:#018x}");
        assert_eq!(got, mixed_scenario_fingerprint(false).0, "replays");
        assert_eq!(got, MIXED_EVENT_LOOP, "moved off the recorded run");
        assert_eq!(handoff.stepped_inline, 0);

        let (got, served) = mixed_scenario_fingerprint(true);
        assert_eq!(got, MIXED_EVENT_LOOP, "served, the run moved");
        assert!(served.stepped_inline > 0, "{served:?}");
        assert_eq!(
            served.answered + served.stepped_inline,
            handoff.answered,
            "the same completions, handed over differently"
        );
    });
}

// ---------------------------------------------------------------------
// Served waits: a rank parked in `recv_served` leaves its receive loop to
// whoever closes the round.
// ---------------------------------------------------------------------

/// A receive loop that ends after `want` datagrams or `patience` silent
/// timeouts in a row, whichever thread takes its turns. Records who sent
/// what it saw (`usize::MAX` for a timeout).
struct Gather {
    want: usize,
    timeout: Option<SimDuration>,
    patience: usize,
    seen: Mutex<Vec<usize>>,
}

impl Gather {
    fn new(want: usize) -> Arc<Gather> {
        Gather::with_timeout(want, None, 0)
    }

    fn with_timeout(want: usize, timeout: Option<SimDuration>, patience: usize) -> Arc<Gather> {
        Arc::new(Gather {
            want,
            timeout,
            patience,
            seen: Mutex::new(Vec::new()),
        })
    }

    fn turn(&self, datagram: Option<Arc<Datagram>>) -> Step {
        let mut seen = self.seen.lock().unwrap();
        seen.push(datagram.map_or(usize::MAX, |d| d.src_host.index()));
        let got = seen.iter().filter(|&&src| src != usize::MAX).count();
        let silent = seen.iter().rev().take_while(|&&src| src == usize::MAX);
        if got >= self.want || (self.patience > 0 && silent.count() >= self.patience) {
            Step::Done
        } else {
            Step::Park(self.timeout)
        }
    }

    /// Run the loop to its end from `p`'s own thread: served, or (the
    /// reference) receiving every datagram itself.
    fn run(self: &Arc<Self>, p: &mut SimProcess, s: SocketId, served: bool) -> Vec<usize> {
        let handle: Arc<dyn Served> = Arc::clone(self) as Arc<dyn Served>;
        let mut next = Step::Park(self.timeout);
        while let Step::Park(timeout) = next {
            next = if served {
                match p.recv_served(s, timeout, &handle) {
                    ServedRecv::Stepped => Step::Done,
                    ServedRecv::Woken(datagram) => self.turn(datagram),
                }
            } else {
                self.turn(match timeout {
                    Some(t) => p.recv_timeout(s, t),
                    None => Some(p.recv(s)),
                })
            };
        }
        self.seen.lock().unwrap().clone()
    }
}

impl Served for Gather {
    fn step(&self, _port: &mut RankPort<'_>, datagram: Option<Arc<Datagram>>) -> Step {
        self.turn(datagram)
    }
}

/// Passes a counter to its own rank until it reaches `self.1`: every step
/// but the last sends the next datagram through the closer's port.
struct Relay(SocketId, u8);

impl Served for Relay {
    fn step(&self, port: &mut RankPort<'_>, datagram: Option<Arc<Datagram>>) -> Step {
        let count = datagram.expect("no timeout was set").payload.to_vec()[0];
        if count == self.1 {
            return Step::Done;
        }
        let me = DatagramDst::Unicast(HostId(port.rank() as u32));
        port.send(self.0, me, PORT, vec![count + 1; 16]);
        Step::Park(None)
    }
}

#[test]
fn the_closer_steps_its_own_rank() {
    within(20, || {
        let report = run_cluster(&switch(1), |mut p| {
            let s = p.bind(PORT);
            p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![0; 16]);
            // The only rank closes every round, this one included: it runs
            // its own loop, sends and all, from inside `recv_served`.
            let relay: Arc<dyn Served> = Arc::new(Relay(s, 5));
            assert!(matches!(
                p.recv_served(s, None, &relay),
                ServedRecv::Stepped
            ));
            p.now().as_nanos()
        })
        .unwrap();
        assert_eq!(report.stats.datagrams_delivered, 6);
        assert_eq!(report.completion_times[0].as_nanos(), report.outputs[0]);
        let want = HandoffStats {
            answered: 1,
            stepped_inline: 5,
        };
        assert_eq!(report.handoff, want);
    });
}

#[test]
fn a_rank_that_already_returned_steps_the_ones_still_parked() {
    within(20, || {
        let n = 4;
        let report = run_cluster(&switch(n), |mut p| {
            let s = p.bind(PORT);
            if p.rank() == 0 {
                return Gather::new(n - 1).run(&mut p, s, true);
            }
            // Further apart than a receive costs rank 0, so that each
            // datagram finds it parked again.
            p.compute(us(100 * p.rank() as u64));
            p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![7; 32]);
            Vec::new()
        })
        .unwrap();
        assert_eq!(report.outputs[0], vec![1, 2, 3]);
        let want = HandoffStats {
            answered: 1,
            stepped_inline: 2,
        };
        assert_eq!(report.handoff, want);
    });
}

#[test]
fn timeouts_are_stepped_like_datagrams_and_cost_the_same_virtual_time() {
    within(20, || {
        let run = |served: bool| {
            run_cluster(&switch(2), move |mut p| {
                let s = p.bind(PORT);
                if p.rank() == 1 {
                    p.compute(us(150));
                    p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![1; 64]);
                    p.compute(us(2000));
                    return Vec::new();
                }
                // Two 100 us timeouts, the datagram, then four more
                // timeouts end the loop.
                Gather::with_timeout(2, Some(us(100)), 4).run(&mut p, s, served)
            })
            .unwrap()
        };
        let (plain, served) = (run(false), run(true));
        let silent = usize::MAX;
        assert_eq!(
            plain.outputs[0],
            vec![silent, silent, 1, silent, silent, silent, silent]
        );
        assert_eq!(plain.outputs, served.outputs);
        assert_eq!(plain.completion_times, served.completion_times);
        assert_eq!(format!("{:?}", plain.stats), format!("{:?}", served.stats));
        assert_eq!(plain.handoff.stepped_inline, 0);
        assert_eq!(served.handoff.stepped_inline, 6, "{:?}", served.handoff);
        assert_eq!(
            served.handoff.answered + served.handoff.stepped_inline,
            plain.handoff.answered
        );
    });
}

/// Panics in its first step.
struct Bomb;

impl Served for Bomb {
    fn step(&self, _port: &mut RankPort<'_>, _datagram: Option<Arc<Datagram>>) -> Step {
        panic!("boom in a step");
    }
}

#[test]
fn a_panicking_step_aborts_the_run_against_the_closing_rank() {
    within(20, || {
        let exits = AtomicUsize::new(0);
        let err = run_cluster(&switch(4), |mut p| {
            let _exit = Exits(&exits);
            let s = p.bind(PORT);
            match p.rank() {
                0 => {
                    let bomb: Arc<dyn Served> = Arc::new(Bomb);
                    p.recv_served(s, None, &bomb);
                }
                // By its last `compute` rank 1 is the only rank running,
                // so the rounds that deliver its datagram are its own: the
                // step for rank 0 panics on rank 1's thread.
                1 => {
                    for _ in 0..8 {
                        p.compute(us(1));
                    }
                    p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![1; 8]);
                    p.recv(s);
                }
                _ => {
                    p.recv(s);
                }
            }
        })
        .unwrap_err();
        assert!(
            matches!(err, SimError::RankPanicked { rank: 1, .. }),
            "{err}"
        );
        assert_eq!(exits.load(Ordering::SeqCst), 4, "every rank thread joined");
    });
}

/// Answers every datagram with a flood from the stepped rank.
struct Flood(SocketId);

impl Served for Flood {
    fn step(&self, port: &mut RankPort<'_>, _datagram: Option<Arc<Datagram>>) -> Step {
        let before = port.now();
        for _ in 0..10_000 {
            port.send(self.0, DatagramDst::Unicast(HostId(1)), PORT, vec![0; 1000]);
        }
        assert!(port.now() > before, "sends charge the stepped rank's clock");
        Step::Park(None)
    }
}

#[test]
fn sends_in_a_step_are_held_to_the_time_limit() {
    within(20, || {
        let mut cfg = switch(2);
        cfg.time_limit = SimDuration::from_millis(5);
        let err = run_cluster(&cfg, |mut p| {
            let s = p.bind(PORT);
            if p.rank() == 0 {
                let flood: Arc<dyn Served> = Arc::new(Flood(s));
                p.recv_served(s, None, &flood);
            } else {
                p.send(s, DatagramDst::Unicast(HostId(0)), PORT, vec![1; 8]);
                p.recv(s);
            }
        })
        .unwrap_err();
        assert!(matches!(err, SimError::TimeLimitExceeded { .. }), "{err}");
    });
}

#[test]
fn deadlock_with_every_rank_parked_served() {
    within(20, || {
        let err = run_cluster(&switch(4), |mut p| {
            let s = p.bind(PORT);
            Gather::new(1).run(&mut p, s, true);
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

/// Rank 0 multicasts `rounds` datagrams, every other rank gathers them.
fn multicast_fan_out(params: NetParams, served: bool) -> (Vec<Vec<usize>>, Vec<u64>, HandoffStats) {
    let (n, rounds) = (6, 5);
    let report = run_cluster(&ClusterConfig::new(n, params, 3), move |mut p| {
        let s = p.bind(PORT);
        p.join_group(s, GROUP);
        if p.rank() == 0 {
            for i in 0..rounds {
                p.compute(us(40));
                p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![i as u8; 200]);
            }
            return Vec::new();
        }
        Gather::new(rounds).run(&mut p, s, served)
    })
    .unwrap();
    let times = report.completion_times.iter().map(|t| t.as_nanos());
    (report.outputs, times.collect(), report.handoff)
}

#[test]
fn a_hub_answers_every_station_at_once_and_falls_back_to_waking_them() {
    within(20, || {
        let hub = NetParams::fast_ethernet_hub;
        let (outputs, times, handoff) = multicast_fan_out(hub(), true);
        assert_eq!(outputs[1..], vec![vec![0; 5]; 5]);
        // One frame reaches all five stations in one event: five
        // completions in a batch, nobody stepped.
        let want = HandoffStats {
            answered: 25,
            stepped_inline: 0,
        };
        assert_eq!(handoff, want);
        let (plain_outputs, plain_times, _) = multicast_fan_out(hub(), false);
        assert_eq!((outputs, times), (plain_outputs, plain_times));

        // The switch delivers port by port: the same program is stepped.
        let (_, _, handoff) = multicast_fan_out(NetParams::fast_ethernet_switch(), true);
        let want = HandoffStats {
            answered: 5,
            stepped_inline: 20,
        };
        assert_eq!(handoff, want);
    });
}

#[test]
fn two_hundred_back_to_back_n32_served_runs() {
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
                if p.rank() == 0 {
                    p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![9; 64]);
                }
                // The ring token, and from everyone but rank 0 the multicast.
                let want = if p.rank() == 0 { 1 } else { 2 };
                let mut seen = Gather::new(want).run(&mut p, s, true);
                seen.sort_unstable();
                seen
            })
            .unwrap();
            for (rank, seen) in report.outputs.iter().enumerate().skip(1) {
                let mut want = vec![0, rank - 1];
                want.sort_unstable();
                assert_eq!(*seen, want);
            }
            let run = (report.completion_times.clone(), report.handoff);
            assert_eq!(*first.get_or_insert(run.clone()), run);
        }
    });
}

/// Three bcast / barrier / allgather cycles in raw datagrams, every wait a
/// served [`Gather`] under a timeout: what the lossy N=64 ladder workload
/// asks of the `World`, without a repair plane above it. Returns how many
/// datagrams the rank saw.
fn lossy_n64_cycle(mut p: SimProcess) -> usize {
    let (n, rank) = (64, p.rank());
    let s = p.bind(PORT);
    p.join_group(s, GROUP);
    let group = DatagramDst::Multicast(GROUP);
    let mut seen = 0;
    let mut gather = |p: &mut SimProcess, want: usize, timeout: u64| {
        let got = Gather::with_timeout(want, Some(us(timeout)), 1).run(p, s, true);
        seen += got.iter().filter(|&&src| src != usize::MAX).count();
    };
    for round in 0..3 {
        // Bcast: the root multicasts, the others wait for it.
        if rank == (round * 7) % n {
            p.send(s, group, PORT, vec![round as u8; 1000]);
        } else {
            gather(&mut p, 1, 2000);
        }
        // Barrier: a scout each to rank 0, its release to everyone.
        if rank == 0 {
            gather(&mut p, n - 1, 300);
            p.send(s, group, PORT, vec![0xBA; 40]);
        } else {
            p.send(
                s,
                DatagramDst::Unicast(HostId(0)),
                PORT,
                vec![rank as u8; 40],
            );
            gather(&mut p, 1, 2000);
        }
        // Allgather: a block from everyone to everyone, in rank order —
        // a rank sends once it has one from each rank below it (or has
        // waited 400 us in vain). Like the NACKs and repairs of the real
        // workload, most frames find every port idle and every other rank
        // parked.
        gather(&mut p, rank, 400);
        p.send(s, group, PORT, vec![rank as u8; 200]);
        gather(&mut p, n - 1 - rank, 400);
    }
    seen
}

/// The event loop's saving as an exact count, beside the hand-off's. Both
/// follow from the order of `World` events alone. The parent of PR 24
/// handled **36 031** events for this run: 6 784 `PortTxNext` and 385
/// `NicTxNext` that found nothing to dequeue and only cleared a busy flag,
/// 4 244 receive timeouts that `cancel_timer` had left queued to fire into
/// nothing, and the 24 618 below. The first three kinds are gone
/// (`docs/SIMULATOR.md`, "Event order"); every other event happens at the
/// same virtual nanosecond in the same order, so the hand-off counts, the
/// losses and what each rank saw are the parent's. (With the repair plane
/// on top — `tests/determinism.rs`, the same cycle as real collectives —
/// it is 220 014 → 121 788.)
#[test]
fn lossy_n64_cycle_handles_only_events_that_do_something() {
    within(60, || {
        let params = NetParams::fast_ethernet_switch().with_loss(0.05);
        let cfg = ClusterConfig::new(64, params, 0x5E12_7ED1).with_start_skew(us(50));
        let report = run_cluster(&cfg, lossy_n64_cycle).expect("every wait has a timeout");
        let seen: usize = report.outputs.iter().sum();
        assert_eq!((seen, report.stats.injected_frame_losses), (10_791, 624));
        let want = HandoffStats {
            answered: 684,
            stepped_inline: 3_702,
        };
        assert_eq!(report.handoff, want);
        assert_eq!(report.events_handled, 24_618);
    });
}

// ---------------------------------------------------------------------
// The closer's twins of `SimProcess::{compute, send_kernel}`: a step may
// do what the MPICH tree's receiver does between two receives.
// ---------------------------------------------------------------------

/// What a rank does in its own name, from its own thread or — stepped —
/// from the closer's.
trait Hands {
    fn now(&self) -> SimTime;
    fn compute(&mut self, dur: SimDuration);
    fn send(&mut self, s: SocketId, dst: DatagramDst, payload: Vec<u8>);
    fn send_kernel(&mut self, s: SocketId, dst: DatagramDst, payload: Vec<u8>);
}

impl Hands for SimProcess {
    fn now(&self) -> SimTime {
        SimProcess::now(self)
    }
    fn compute(&mut self, dur: SimDuration) {
        SimProcess::compute(self, dur);
    }
    fn send(&mut self, s: SocketId, dst: DatagramDst, payload: Vec<u8>) {
        SimProcess::send(self, s, dst, PORT, payload);
    }
    fn send_kernel(&mut self, s: SocketId, dst: DatagramDst, payload: Vec<u8>) {
        SimProcess::send_kernel(self, s, dst, PORT, payload);
    }
}

impl Hands for RankPort<'_> {
    fn now(&self) -> SimTime {
        RankPort::now(self)
    }
    fn compute(&mut self, dur: SimDuration) {
        RankPort::compute(self, dur);
    }
    fn send(&mut self, s: SocketId, dst: DatagramDst, payload: Vec<u8>) {
        RankPort::send(self, s, dst, PORT, payload);
    }
    fn send_kernel(&mut self, s: SocketId, dst: DatagramDst, payload: Vec<u8>) {
        RankPort::send_kernel(self, s, dst, PORT, payload);
    }
}

/// `RING_N` ranks pass a token around the ring `RING_LAPS` times. On each
/// token a rank charges a layering cost, acknowledges the sender with
/// kernel traffic and passes the token on; the loop ends with its
/// `RING_LAPS`-th token. Records each token's hop and the rank's clock.
struct TokenRing {
    socket: SocketId,
    seen: Mutex<Vec<(u8, u64)>>,
}

const RING_N: usize = 8;
const RING_LAPS: usize = 4;
const TOKEN: u8 = 0x70;

impl TokenRing {
    fn turn(&self, hands: &mut dyn Hands, rank: usize, datagram: Option<Arc<Datagram>>) -> Step {
        let d = datagram.expect("no timeout was set");
        let bytes = d.payload.to_vec();
        if bytes[0] != TOKEN {
            // Somebody's acknowledgement: filed away.
            return Step::Park(None);
        }
        let hop = bytes[1];
        hands.compute(us(5 + (hop % 3) as u64));
        let from = DatagramDst::Unicast(d.src_host);
        hands.send_kernel(self.socket, from, vec![0xAC; 40]);
        if usize::from(hop) < RING_N * RING_LAPS {
            let next = DatagramDst::Unicast(HostId(((rank + 1) % RING_N) as u32));
            hands.send(self.socket, next, vec![TOKEN, hop + 1, 0, 0, 0, 0, 0, 0]);
        }
        let mut seen = self.seen.lock().unwrap();
        seen.push((hop, hands.now().as_nanos()));
        if seen.len() == RING_LAPS {
            Step::Done
        } else {
            Step::Park(None)
        }
    }
}

impl Served for TokenRing {
    fn step(&self, port: &mut RankPort<'_>, datagram: Option<Arc<Datagram>>) -> Step {
        let rank = port.rank();
        self.turn(port, rank, datagram)
    }
}

fn token_ring(served: bool) -> RunReport<Vec<(u8, u64)>> {
    let cfg = ClusterConfig::new(RING_N, NetParams::fast_ethernet_switch(), 0x70C3)
        .with_start_skew(us(30));
    run_cluster(&cfg, move |mut p| {
        let rank = p.rank();
        let socket = p.bind(PORT);
        let ring = Arc::new(TokenRing {
            socket,
            seen: Mutex::new(Vec::new()),
        });
        if rank == 0 {
            let next = DatagramDst::Unicast(HostId(1));
            p.send(socket, next, PORT, vec![TOKEN, 1, 0, 0, 0, 0, 0, 0]);
        }
        let handle: Arc<dyn Served> = Arc::clone(&ring) as Arc<dyn Served>;
        let mut next = Step::Park(None);
        while let Step::Park(timeout) = next {
            next = if served {
                match p.recv_served(socket, timeout, &handle) {
                    ServedRecv::Stepped => Step::Done,
                    ServedRecv::Woken(d) => ring.turn(&mut p, rank, d),
                }
            } else {
                let d = p.recv(socket);
                ring.turn(&mut p, rank, Some(d))
            };
        }
        let seen = ring.seen.lock().unwrap().clone();
        seen
    })
    .expect("the token makes every lap")
}

/// `RankPort::compute` and `RankPort::send_kernel` are the requests the
/// rank's own thread would have posted, applied the way they would have
/// been: a step that computes and acknowledges in kernel traffic leaves
/// every local clock, every network counter and the `World`'s event count
/// where the same program run on the rank's own thread leaves them.
#[test]
fn a_step_computes_and_sends_kernel_traffic_like_the_rank_itself() {
    within(20, || {
        let (plain, stepped) = (token_ring(false), token_ring(true));
        assert_eq!(plain.outputs[3].len(), RING_LAPS);
        assert_eq!(
            plain.stats.kernel_datagrams_sent,
            (RING_N * RING_LAPS) as u64
        );
        assert_eq!(stepped.outputs, plain.outputs);
        assert_eq!(stepped.completion_times, plain.completion_times);
        assert_eq!(format!("{:?}", stepped.stats), format!("{:?}", plain.stats));
        assert_eq!(stepped.events_handled, plain.events_handled);
        assert_eq!(plain.handoff.stepped_inline, 0);
        assert!(stepped.handoff.stepped_inline > 0, "{:?}", stepped.handoff);
        assert_eq!(
            stepped.handoff.answered + stepped.handoff.stepped_inline,
            plain.handoff.answered,
            "the same completions, handed over differently"
        );
    });
}
