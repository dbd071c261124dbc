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
//! A rank parked in [`SimProcess::recv_served`] is not even answered for
//! most of what arrives: when a completion is the only one of its batch,
//! the closer runs the rank's [`Served::step`] itself — through a
//! [`RankPort`], making the `World` calls the rank would have made — and
//! the rank's thread wakes only when a step ends the wait.
//!
//! The rounds, and every call into the [`World`], are the same whichever
//! thread closes; ties are broken by rank id and event sequence number. A
//! run is therefore a pure function of `(closure, config, seed)` — the
//! property the figure harness relies on. `docs/SIMULATOR.md`
//! ("Co-simulation hand-off") has the invariants and the abort protocol.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::SimError;
use crate::frame::{Datagram, SharedPayload};
use crate::ids::{DatagramDst, HostId, SocketId, UdpPort};
use crate::params::{HostParams, NetParams};
use crate::process::{Request, Response, Served, SimProcess, Step};
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
    /// Abort if virtual time passes this limit (livelock guard).
    pub time_limit: SimDuration,
}

impl ClusterConfig {
    /// A cluster of `n` ranks with the given network parameters and seed,
    /// no start skew, 60 s virtual time limit.
    pub fn new(n: usize, params: NetParams, seed: u64) -> Self {
        ClusterConfig {
            n,
            params,
            seed,
            start_skew_max: SimDuration::ZERO,
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
    /// What the rounds did with the receives that blocked.
    pub handoff: HandoffStats,
    /// `World` events handled by the whole run ([`World::events_handled`]),
    /// the settling of in-flight traffic after the last rank included.
    pub events_handled: u64,
}

/// Where the completions of blocked receives (a datagram, or the timeout)
/// went. Both counts follow from the order of `World` events alone, so
/// they are as much a function of `(closure, config, seed)` as the virtual
/// times — unlike the context switches they stand for, which depend on
/// which thread happened to close a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandoffStats {
    /// Completions that answered their rank: its thread runs again.
    pub answered: u64,
    /// Completions a round closer gave to the rank's [`Served::step`]
    /// which then received again: the rank's thread slept through them.
    pub stepped_inline: u64,
}

#[derive(Debug)]
enum RankStatus {
    Running,
    BlockedRecv {
        socket: SocketId,
        timer: Option<u64>,
        /// Set by [`SimProcess::recv_served`]: the closer may run this
        /// instead of waking the rank.
        served: Option<Arc<dyn Served>>,
    },
    Done,
}

/// The co-simulation's state, all behind [`Cluster::sim`].
struct Sim {
    world: World,
    status: Vec<RankStatus>,
    /// Per-rank local clocks.
    local: Vec<SimTime>,
    /// Requests posted since the last round closed, in posting order.
    posted: Vec<(usize, Request)>,
    /// Answers their ranks have not picked up yet.
    responses: Vec<Option<Response>>,
    /// The ranks the closing round has answered so far.
    answered: Vec<usize>,
    next_token: u64,
    /// Ranks executing application code. The round closes when it hits zero.
    running: usize,
    /// Ranks whose closure has not returned or unwound yet.
    live: usize,
    handoff: HandoffStats,
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
            status: (0..n).map(|_| RankStatus::Running).collect(),
            local: skews.clone(),
            posted: Vec::with_capacity(n),
            responses: (0..n).map(|_| None).collect(),
            answered: Vec::with_capacity(n),
            next_token: 0,
            running: n,
            live: n,
            handoff: HandoffStats::default(),
            panicked: None,
            abort: None,
        }),
        wake: (0..n).map(|_| Condvar::new()).collect(),
        host: config.params.host.clone(),
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
                outputs.lock().unwrap_or_else(PoisonError::into_inner)[rank] = Some(out);
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

    let mut sim = cluster.lock();
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
    #[expect(
        clippy::expect_used,
        reason = "a rank that did not finish normally panicked, and a panic aborts the run before this point"
    )]
    let outputs: Vec<R> = outputs
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|o| o.expect("every rank finished normally"))
        .collect();
    Ok(RunReport {
        completion_times,
        makespan,
        stats: sim.world.stats().clone(),
        outputs,
        handoff: sim.handoff,
        events_handled: sim.world.events_handled(),
    })
}

impl Cluster {
    /// The shared state. A poisoned lock is taken over. No test reaches
    /// that: `close_round` runs inside `catch_unwind`, so a panic there is
    /// caught with the guard still held, and `FinishGuard` locks while its
    /// thread is already unwinding, which `std` does not count as
    /// poisoning. The recovery only makes this total.
    fn lock(&self) -> MutexGuard<'_, Sim> {
        self.sim.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Post `req` for `rank` and block until it is answered. Returns the
    /// answer and the rank's new local time; [`Response::Aborted`] once the
    /// run has failed.
    pub(crate) fn request(&self, rank: usize, req: Request) -> (Response, SimTime) {
        let mut sim = self.lock();
        if sim.abort.is_none() {
            sim.posted.push((rank, req));
            sim = self.stop_running(sim, rank);
        }
        loop {
            if sim.abort.is_some() {
                return (Response::Aborted, sim.local[rank]);
            }
            if let Some(resp) = sim.responses[rank].take() {
                return (resp, sim.local[rank]);
            }
            sim = self.wake[rank]
                .wait(sim)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `rank`'s closure returned or unwound.
    fn finish(&self, rank: usize, panicked: bool) {
        let mut sim = self.lock();
        // After an abort the unwinding ranks were parked, not running, and
        // there are no more rounds to close.
        if sim.abort.is_some() {
            return;
        }
        sim.status[rank] = RankStatus::Done;
        sim.live -= 1;
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
        // A panic in here is a `Served::step` that the closer ran for
        // somebody: it takes the run down like a panic in `rank`'s own
        // closure, which is where it continues once everyone is told.
        let unwinding = match catch_unwind(AssertUnwindSafe(|| self.close_round(&mut sim))) {
            Ok(Ok(())) => None,
            Ok(Err(err)) => {
                sim.abort = Some(err);
                None
            }
            Err(payload) => {
                sim.abort = Some(SimError::RankPanicked {
                    rank,
                    message: "a served step panicked in the round this rank closed (see stderr)"
                        .into(),
                });
                Some(payload)
            }
        };
        // `answered` holds exactly this round's answers: the closer before
        // took its own. An abort wakes everyone instead.
        let mut woken = std::mem::take(&mut sim.answered);
        if sim.abort.is_some() {
            woken.clear();
            let alive = |i: &usize| !matches!(sim.status[*i], RankStatus::Done);
            woken.extend((0..sim.status.len()).filter(alive));
        }
        drop(sim);
        for &i in woken.iter().filter(|&&i| i != rank) {
            self.wake[i].notify_one();
        }
        if let Some(payload) = unwinding {
            resume_unwind(payload);
        }
        let mut sim = self.lock();
        // Hand the buffer back for the next round, unless a rank woken
        // above has closed one already and left its own.
        if sim.answered.capacity() == 0 {
            woken.clear();
            sim.answered = woken;
        }
        sim
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
        let mut posted = std::mem::take(&mut sim.posted);
        posted.sort_unstable_by_key(|&(rank, _)| rank);
        for (rank, req) in posted.drain(..) {
            if let Some(resp) = self.apply(sim, rank, req)? {
                sim.respond(rank, resp);
            }
        }
        sim.posted = posted;
        // Everyone alive is blocked: advance the network until that changes.
        while sim.running == 0 && sim.live > 0 {
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
        let hp = &self.host;
        let host = HostId(rank as u32);
        let Sim { world, local, .. } = sim;
        let now = &mut local[rank];
        let resp = match req {
            Request::Recv {
                socket,
                timeout,
                served,
            } => {
                let buffered = self.recv(sim, rank, socket, timeout, served)?;
                return Ok(buffered.map(|dg| Response::Datagram(Some(dg))));
            }
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
                // No multicast loopback: the paper's collectives never
                // receive their own multicasts.
                world.send_datagram(host, src_port, dst, dst_port, payload, *now, false, kernel);
                Response::Done
            }
        };
        self.within_limit(*now)?;
        Ok(Some(resp))
    }

    /// Apply a receive on `socket` at `rank`'s local time: the datagram
    /// that completes it from the socket buffer, or `None` when nothing is
    /// buffered and the rank now blocks — the receive posted in the
    /// `World`, with its timeout.
    fn recv(
        &self,
        sim: &mut Sim,
        rank: usize,
        socket: SocketId,
        timeout: Option<SimDuration>,
        served: Option<Arc<dyn Served>>,
    ) -> Result<Option<Arc<Datagram>>, SimError> {
        let hp = &self.host;
        let host = HostId(rank as u32);
        let now = &mut sim.local[rank];
        // Ranks only run while the world is paused, so any buffered
        // datagram arrived at or before the rank's local time — it can
        // complete the receive directly.
        if let Some((_arrived, dg)) = sim.world.try_pop_buffered(host, socket) {
            *now += hp.o_recv + hp.recv_per_byte * dg.payload.len() as u64;
            self.within_limit(*now)?;
            return Ok(Some(dg));
        }
        // The receive becomes *posted* at the rank's local time, not at the
        // (earlier) world time — crucial for the strict posted-receive loss
        // model.
        sim.world.schedule_post_recv(host, socket, *now);
        let timer = timeout.map(|t| {
            let token = sim.next_token;
            sim.next_token += 1;
            sim.world
                .schedule_timer(host, Some(socket), token, *now + t);
            token
        });
        sim.status[rank] = RankStatus::BlockedRecv {
            socket,
            timer,
            served,
        };
        Ok(None)
    }

    /// Fail the run once `now` — the world clock after an advance, or a
    /// rank's clock after a request that charged it — is past the limit.
    /// The world clock only moves while every rank is blocked, so a rank
    /// that never blocks (a compute or send loop beside a blocked peer)
    /// must be held to the limit on its own clock.
    fn within_limit(&self, now: SimTime) -> Result<(), SimError> {
        if now > self.time_limit {
            return Err(SimError::TimeLimitExceeded {
                limit: self.time_limit,
            });
        }
        Ok(())
    }

    /// Advance the network to its next batch of completions and answer —
    /// or step — the receives they complete or time out.
    fn advance(&self, sim: &mut Sim) -> Result<(), SimError> {
        let hp = &self.host;
        let (now, mut completions) = match sim.world.run_until_completion() {
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
        self.within_limit(now)?;
        // The rank a lone completion answers would be the only one running,
        // and each of its requests would close a round by itself: running
        // its receive loop right here makes the same `World` calls in the
        // same order. Ranks answered together interleave their requests by
        // rank within each round, which only their own threads reproduce.
        let alone = completions.len() == 1;
        for c in completions.drain(..) {
            let i = c.host().index();
            let (socket, timer, served) =
                match std::mem::replace(&mut sim.status[i], RankStatus::Running) {
                    RankStatus::BlockedRecv {
                        socket,
                        timer,
                        served,
                    } => (socket, timer, served),
                    // The rank is not blocked: an earlier completion of
                    // this batch answered it (a released hold can hand one
                    // host several frames in one event). A timer never gets
                    // here — completing the receive emptied its slot.
                    other => {
                        sim.status[i] = other;
                        continue;
                    }
                };
            let datagram = match c {
                Completion::RecvReady {
                    host,
                    socket: s,
                    at,
                } => {
                    debug_assert_eq!(s, socket);
                    if let Some(tok) = timer {
                        sim.world.cancel_timer(host, tok);
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "a `RecvReady` is reported only for a socket with a datagram buffered, and nothing runs in between"
                    )]
                    let (_arrived, dg) = sim
                        .world
                        .take_recv(host, socket)
                        .expect("completion implies a buffered datagram");
                    sim.local[i] = sim.local[i].max(at)
                        + hp.o_recv
                        + hp.recv_per_byte * dg.payload.len() as u64;
                    Some(dg)
                }
                // The host's one timer slot holds the timeout of the
                // receive the rank is blocked in, and nothing else.
                Completion::TimerFired {
                    host,
                    socket: s,
                    token,
                    at,
                } => {
                    debug_assert_eq!((s, Some(token)), (Some(socket), timer));
                    sim.world.cancel_recv(host, socket);
                    sim.local[i] = sim.local[i].max(at);
                    None
                }
            };
            match served {
                Some(served) if alone => self.step_served(sim, i, socket, served, datagram)?,
                _ => {
                    sim.handoff.answered += 1;
                    sim.respond(i, Response::Datagram(datagram));
                }
            }
        }
        sim.world.recycle_completions(completions);
        Ok(())
    }

    /// Run `rank`'s receive loop on the closer's thread, starting with what
    /// its parked receive just produced, until a step ends the wait (the
    /// rank is answered) or the loop is parked in a receive again.
    fn step_served(
        &self,
        sim: &mut Sim,
        rank: usize,
        socket: SocketId,
        served: Arc<dyn Served>,
        mut datagram: Option<Arc<Datagram>>,
    ) -> Result<(), SimError> {
        loop {
            let mut port = RankPort {
                cluster: self,
                sim: &mut *sim,
                rank,
                failed: None,
            };
            let step = served.step(&mut port, datagram.take());
            if let Some(err) = port.failed {
                return Err(err);
            }
            let Step::Park(timeout) = step else {
                sim.handoff.answered += 1;
                sim.respond(rank, Response::Stepped);
                return Ok(());
            };
            // Receiving again is the request the rank's own thread would
            // have posted, applied the way it would have been: from the
            // socket buffer if something is waiting (the next turn of the
            // loop), else posted in the `World` with its timer.
            let again = Some(Arc::clone(&served));
            match self.recv(sim, rank, socket, timeout, again)? {
                Some(buffered) => datagram = Some(buffered),
                None => {
                    sim.handoff.stepped_inline += 1;
                    return Ok(());
                }
            }
        }
    }
}

/// What a [`Served::step`] may do in its rank's name: read the rank's clock,
/// send, and compute. The round closer hands it out while it holds the
/// simulation lock; every call is the `World` call the rank's own request
/// would have been, with the same charges to the rank's local clock.
pub struct RankPort<'a> {
    cluster: &'a Cluster,
    sim: &'a mut Sim,
    rank: usize,
    /// The first request that failed the run (time limit). Later requests
    /// are dropped and the closer aborts the round when the step returns.
    failed: Option<SimError>,
}

impl RankPort<'_> {
    /// The rank being stepped.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The rank's local virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.local[self.rank]
    }

    /// [`SimProcess::send`], from the stepped rank.
    pub fn send(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: impl Into<SharedPayload>,
    ) {
        self.apply(Request::Send {
            socket,
            dst,
            dst_port: UdpPort(dst_port),
            payload: payload.into(),
            kernel: false,
        });
    }

    /// [`SimProcess::send_kernel`], from the stepped rank.
    pub fn send_kernel(
        &mut self,
        socket: SocketId,
        dst: DatagramDst,
        dst_port: u16,
        payload: impl Into<SharedPayload>,
    ) {
        self.apply(Request::Send {
            socket,
            dst,
            dst_port: UdpPort(dst_port),
            payload: payload.into(),
            kernel: true,
        });
    }

    /// [`SimProcess::compute`], for the stepped rank.
    pub fn compute(&mut self, dur: SimDuration) {
        self.apply(Request::Compute { dur });
    }

    /// Apply a request that never blocks, as the rank's own thread would
    /// have had it applied.
    fn apply(&mut self, req: Request) {
        if self.failed.is_some() {
            return;
        }
        if let Err(err) = self.cluster.apply(self.sim, self.rank, req) {
            self.failed = Some(err);
        }
    }
}

impl Sim {
    /// Leave `resp` for `rank`, which runs again from now on.
    fn respond(&mut self, rank: usize, resp: Response) {
        self.responses[rank] = Some(resp);
        self.answered.push(rank);
        self.running += 1;
    }
}
