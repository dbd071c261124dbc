//! Deterministic co-simulation of rank threads and the network.
//!
//! [`run_cluster`] spawns one OS thread per MPI rank, each executing the
//! user's SPMD closure against a [`SimProcess`] handle, and interleaves
//! them with the discrete-event [`World`] so that the whole ensemble
//! executes in *virtual* time. There is no driver thread: all shared state
//! sits behind one lock, and execution proceeds in *rounds*.
//!
//! 1. Ranks run native code until they call into the handle (send, recv,
//!    compute, ...) or return. Either way the rank stops counting as
//!    *running*; a call leaves its request in `pending`.
//! 2. The rank that brings the running count to zero is the round's
//!    *closer*. It applies every pending request in rank order, charging
//!    LogP software overheads to each rank's local clock and answering
//!    whatever does not block.
//! 3. If that answered nobody — every live rank is blocked in a receive —
//!    the closer advances network events until one completes a receive or
//!    fires a timeout, and answers those ranks.
//! 4. Answered ranks count as running again and are woken once the closer
//!    has released the lock. A rank parks only while its own request is
//!    unanswered, so a request issued while no other rank runs costs no
//!    context switch at all.
//!
//! The rounds, and every call into the [`World`], are the same whichever
//! thread closes; ties are broken by rank id and event sequence number. A
//! run is therefore a pure function of `(closure, config, seed)` — the
//! property the figure harness relies on. `docs/SIMULATOR.md`
//! ("Co-simulation hand-off") has the invariants and the abort protocol.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::SimError;
use crate::ids::{HostId, SocketId};
use crate::params::{HostParams, NetParams};
use crate::process::{Request, Response, SimProcess};
use crate::rng::SplitMix64;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::world::{Completion, StepOutcome, World};

/// Configuration for one simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of ranks (== simulated hosts).
    pub n: usize,
    /// Network and host model parameters.
    pub params: NetParams,
    /// Seed for every random stream in the run (backoff, skew).
    pub seed: u64,
    /// Each rank starts at a uniform random offset in `[0, start_skew_max]`
    /// — models the OS scheduling skew responsible for the scatter in the
    /// paper's plots. Zero disables skew.
    pub start_skew_max: SimDuration,
    /// Deliver multicast datagrams back to the sending socket
    /// (IP_MULTICAST_LOOP). The paper's collectives do not rely on it.
    pub multicast_loopback: bool,
    /// Abort if virtual time passes this limit (livelock guard).
    pub time_limit: SimDuration,
}

impl ClusterConfig {
    /// A cluster of `n` ranks with the given network parameters and seed,
    /// no start skew, loopback off, 60 s virtual time limit.
    pub fn new(n: usize, params: NetParams, seed: u64) -> Self {
        ClusterConfig {
            n,
            params,
            seed,
            start_skew_max: SimDuration::ZERO,
            multicast_loopback: false,
            time_limit: SimDuration::from_secs(60),
        }
    }

    /// Builder-style: set the start skew.
    pub fn with_start_skew(mut self, max: SimDuration) -> Self {
        self.start_skew_max = max;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a successful cluster run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank local time at which the rank's closure returned.
    pub completion_times: Vec<SimTime>,
    /// The latest completion — the paper's metric ("the longest completion
    /// time of the collective operation among all processes").
    pub makespan: SimTime,
    /// Network statistics for the whole run.
    pub stats: NetStats,
    /// Per-rank return values of the SPMD closure.
    pub outputs: Vec<R>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RankStatus {
    Running,
    BlockedRecv {
        socket: SocketId,
        timer: Option<u64>,
    },
    Done,
}

/// The co-simulation's state, all behind [`Cluster::sim`].
struct Sim {
    world: World,
    status: Vec<RankStatus>,
    /// Per-rank local clocks.
    local: Vec<SimTime>,
    /// Requests posted since the last round closed.
    pending: Vec<Option<Request>>,
    /// Answers their ranks have not picked up yet.
    responses: Vec<Option<Response>>,
    next_token: u64,
    /// Ranks executing application code. The round closes when it hits zero.
    running: usize,
    /// Highest rank whose closure panicked since the last round closed.
    panicked: Option<usize>,
    /// Set once, by the round that failed; every later request unwinds.
    abort: Option<SimError>,
}

/// What the rank threads of one run share.
pub(crate) struct Cluster {
    sim: Mutex<Sim>,
    /// One per rank, all paired with `sim`: a rank waits on its own for its
    /// response, so a round wakes exactly the ranks it answered.
    wake: Vec<Condvar>,
    host: HostParams,
    multicast_loopback: bool,
    time_limit: SimTime,
}

/// Tells the simulation that a rank's closure returned, or (unless
/// disarmed) that it unwound.
struct FinishGuard<'a> {
    cluster: &'a Cluster,
    rank: usize,
    panicked: bool,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.cluster.finish(self.rank, self.panicked);
    }
}

/// Run `f` as an SPMD program on a simulated cluster.
///
/// `f` is invoked once per rank on its own thread with a [`SimProcess`]
/// handle; its return values are collected into the report. Deterministic
/// for a fixed `(f, config)`.
pub fn run_cluster<F, R>(config: &ClusterConfig, f: F) -> Result<RunReport<R>, SimError>
where
    F: Fn(SimProcess) -> R + Sync,
    R: Send,
{
    let n = config.n;
    assert!(n > 0, "cluster needs at least one rank");
    let world = World::new(n, config.params.clone(), config.seed);
    let mut rng = SplitMix64::new(config.seed ^ 0x5EED_5EED_5EED_5EED);
    let skews: Vec<SimTime> = (0..n)
        .map(|_| {
            let max = config.start_skew_max.as_nanos();
            SimTime::from_nanos(if max == 0 { 0 } else { rng.next_below(max + 1) })
        })
        .collect();

    let cluster = Arc::new(Cluster {
        sim: Mutex::new(Sim {
            world,
            status: vec![RankStatus::Running; n],
            local: skews.clone(),
            pending: (0..n).map(|_| None).collect(),
            responses: (0..n).map(|_| None).collect(),
            next_token: 0,
            running: n,
            panicked: None,
            abort: None,
        }),
        wake: (0..n).map(|_| Condvar::new()).collect(),
        host: config.params.host.clone(),
        multicast_loopback: config.multicast_loopback,
        time_limit: SimTime::ZERO + config.time_limit,
    });
    let outputs: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        let spawn = |(rank, &start)| {
            let (cluster, f, outputs) = (&cluster, &f, &outputs);
            scope.spawn(move || {
                let mut guard = FinishGuard {
                    cluster,
                    rank,
                    panicked: true,
                };
                let out = f(SimProcess::new(Arc::clone(cluster), rank, start));
                outputs.lock()[rank] = Some(out);
                guard.panicked = false;
            })
        };
        let handles: Vec<_> = skews.iter().enumerate().map(spawn).collect();
        // Join every rank thread. Panics have already become the run's
        // error (or are the abort's own unwinds), and an unjoined panic
        // would make the scope itself panic.
        for h in handles {
            let _ = h.join();
        }
    });

    let mut sim = cluster.sim.lock();
    if let Some(err) = sim.abort.take() {
        return Err(err);
    }
    // Let in-flight traffic settle so drop/delivery counters are complete
    // (e.g. datagrams still crossing the switch when the last rank exited).
    while !matches!(sim.world.step(), StepOutcome::Quiescent) {}
    let completion_times = std::mem::take(&mut sim.local);
    let makespan = completion_times
        .iter()
        .copied()
        .fold(SimTime::ZERO, SimTime::max);
    let outputs: Vec<R> = outputs
        .into_inner()
        .into_iter()
        .map(|o| o.expect("every rank finished normally"))
        .collect();
    Ok(RunReport {
        completion_times,
        makespan,
        stats: sim.world.stats().clone(),
        outputs,
    })
}

impl Cluster {
    /// Post `req` for `rank` and block until it is answered. Returns the
    /// answer and the rank's new local time; [`Response::Aborted`] once the
    /// run has failed.
    pub(crate) fn request(&self, rank: usize, req: Request) -> (Response, SimTime) {
        let mut sim = self.sim.lock();
        if sim.abort.is_none() {
            sim.pending[rank] = Some(req);
            sim = self.stop_running(sim, rank);
        }
        loop {
            if sim.abort.is_some() {
                return (Response::Aborted, sim.local[rank]);
            }
            if let Some(resp) = sim.responses[rank].take() {
                return (resp, sim.local[rank]);
            }
            self.wake[rank].wait(&mut sim);
        }
    }

    /// `rank`'s closure returned or unwound.
    fn finish(&self, rank: usize, panicked: bool) {
        let mut sim = self.sim.lock();
        // After an abort the unwinding ranks were parked, not running, and
        // there are no more rounds to close.
        if sim.abort.is_some() {
            return;
        }
        sim.status[rank] = RankStatus::Done;
        if panicked {
            sim.panicked = sim.panicked.max(Some(rank));
        }
        drop(self.stop_running(sim, rank));
    }

    /// `rank` left application code. If it was the last one running it
    /// closes the round; the ranks that round answered are woken after the
    /// lock is released, so that they do not wake up only to block on it.
    /// Hands the (possibly re-taken) lock back.
    fn stop_running<'a>(
        &'a self,
        mut sim: MutexGuard<'a, Sim>,
        rank: usize,
    ) -> MutexGuard<'a, Sim> {
        sim.running -= 1;
        if sim.running > 0 {
            return sim;
        }
        if let Err(err) = self.close_round(&mut sim) {
            sim.abort = Some(err);
        }
        // A response still in its slot was left by this round: earlier ones
        // were taken by the ranks they set running. An abort wakes everyone.
        let woken: Vec<usize> = (0..sim.status.len())
            .filter(|&i| i != rank)
            .filter(|&i| match sim.abort {
                Some(_) => sim.status[i] != RankStatus::Done,
                None => sim.responses[i].is_some(),
            })
            .collect();
        drop(sim);
        for i in woken {
            self.wake[i].notify_one();
        }
        self.sim.lock()
    }

    /// Every rank has posted, blocked or exited: apply the round. On return
    /// either somebody runs again or every rank is done.
    fn close_round(&self, sim: &mut Sim) -> Result<(), SimError> {
        if let Some(rank) = sim.panicked {
            return Err(SimError::RankPanicked {
                rank,
                message: "rank closure panicked (see stderr)".into(),
            });
        }
        let n = sim.status.len();
        for i in 0..n {
            if let Some(req) = sim.pending[i].take() {
                if let Some(resp) = self.apply(sim, i, req)? {
                    sim.respond(i, resp);
                }
            }
        }
        // Everyone alive is blocked: advance the network until that changes.
        while sim.running == 0 && sim.status.iter().any(|s| *s != RankStatus::Done) {
            self.advance(sim)?;
        }
        Ok(())
    }

    /// Apply one request at `rank`'s local time. `None` means the rank now
    /// blocks in a receive.
    fn apply(
        &self,
        sim: &mut Sim,
        rank: usize,
        req: Request,
    ) -> Result<Option<Response>, SimError> {
        let Sim {
            world,
            status,
            local,
            next_token,
            ..
        } = sim;
        let hp = &self.host;
        let host = HostId(rank as u32);
        let now = &mut local[rank];
        let resp = match req {
            Request::Bind { port } => Response::Socket(world.bind(host, port)),
            Request::JoinQuiet { socket, group } => {
                world.join_group_quiet(host, socket, group);
                Response::Done
            }
            Request::LeaveQuiet { socket, group } => {
                world.leave_group_quiet(host, socket, group);
                Response::Done
            }
            Request::JoinIgmp { socket, group } => {
                *now += hp.o_send;
                world.join_group_igmp(host, socket, group, *now);
                Response::Done
            }
            Request::Compute { dur } => {
                *now += dur;
                Response::Done
            }
            Request::Send {
                socket,
                dst,
                dst_port,
                payload,
                kernel,
            } => {
                let len = payload.len() as u64;
                *now += if kernel {
                    hp.o_kernel_send
                } else {
                    hp.o_send + hp.send_per_byte * len
                };
                let src_port = world.host(host).socket(socket).port;
                world.send_datagram(
                    host,
                    src_port,
                    dst,
                    dst_port,
                    payload,
                    *now,
                    self.multicast_loopback,
                    kernel,
                );
                Response::Done
            }
            Request::Recv { socket, timeout } => {
                // Ranks only run while the world is paused, so any
                // buffered datagram arrived at or before the rank's
                // local time — it can complete the receive directly.
                if let Some((_arrived, dg)) = world.try_pop_buffered(host, socket) {
                    *now += hp.o_recv + hp.recv_per_byte * dg.payload.len() as u64;
                    Response::Datagram(Some(dg))
                } else {
                    // The receive becomes *posted* at the rank's local
                    // time, not at the (earlier) world time — crucial
                    // for the strict posted-receive loss model.
                    world.schedule_post_recv(host, socket, *now);
                    let timer = timeout.map(|t| {
                        let token = *next_token;
                        *next_token += 1;
                        world.schedule_timer(host, Some(socket), token, *now + t);
                        token
                    });
                    status[rank] = RankStatus::BlockedRecv { socket, timer };
                    return Ok(None);
                }
            }
        };
        // The world clock only moves while every rank is blocked, so a rank
        // that never blocks (a compute or send loop beside a blocked peer)
        // must be held to the limit on its own clock.
        if *now > self.time_limit {
            return Err(SimError::TimeLimitExceeded {
                limit: self.time_limit,
            });
        }
        Ok(Some(resp))
    }

    /// Advance the network to its next batch of completions and answer the
    /// receives they complete or time out.
    fn advance(&self, sim: &mut Sim) -> Result<(), SimError> {
        let hp = &self.host;
        let (now, completions) = match sim.world.run_until_completion() {
            StepOutcome::Quiescent => {
                let detail: Vec<String> = sim
                    .status
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s {
                        RankStatus::BlockedRecv { socket, .. } => {
                            Some(format!("rank {i} blocked in recv on socket {}", socket.0))
                        }
                        _ => None,
                    })
                    .collect();
                return Err(SimError::Deadlock {
                    at: sim.world.now(),
                    detail: detail.join("; "),
                });
            }
            StepOutcome::Advanced { now, completions } => (now, completions),
        };
        if now > self.time_limit {
            return Err(SimError::TimeLimitExceeded {
                limit: self.time_limit,
            });
        }
        for c in completions {
            match c {
                Completion::RecvReady { host, socket, at } => {
                    let i = host.index();
                    let RankStatus::BlockedRecv { socket: s, timer } = sim.status[i] else {
                        // Spurious: the rank is no longer blocked
                        // (cannot happen — deliveries only complete
                        // posted receives). Ignore defensively.
                        continue;
                    };
                    debug_assert_eq!(s, socket);
                    if let Some(tok) = timer {
                        sim.world.cancel_timer(host, tok);
                    }
                    let (_arrived, dg) = sim
                        .world
                        .take_recv(host, socket)
                        .expect("completion implies a buffered datagram");
                    sim.local[i] = sim.local[i].max(at)
                        + hp.o_recv
                        + hp.recv_per_byte * dg.payload.len() as u64;
                    sim.status[i] = RankStatus::Running;
                    sim.respond(i, Response::Datagram(Some(dg)));
                }
                Completion::TimerFired {
                    host,
                    socket,
                    token,
                    at,
                } => {
                    let i = host.index();
                    match sim.status[i] {
                        RankStatus::BlockedRecv {
                            socket: s,
                            timer: Some(tok),
                        } if tok == token => {
                            debug_assert_eq!(Some(s), socket);
                            sim.world.cancel_recv(host, s);
                            sim.local[i] = sim.local[i].max(at);
                            sim.status[i] = RankStatus::Running;
                            sim.respond(i, Response::Datagram(None));
                        }
                        _ => {
                            // Stale timer for an already-completed
                            // receive; lazily cancelled.
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Sim {
    /// Leave `resp` for `rank`, which runs again from now on.
    fn respond(&mut self, rank: usize, resp: Response) {
        self.responses[rank] = Some(resp);
        self.running += 1;
    }
}
