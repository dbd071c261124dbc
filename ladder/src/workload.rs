//! Standing a workload's world up, running its closed loop in it, and
//! turning what the ranks logged into per-repetition results.
//!
//! One *repetition* is one world: stood up, warmed up, fenced with a
//! barrier, measured, fenced again, torn down. Everything goes through
//! the public `run_sim_world_stats` / `run_udp_world` + `Communicator`
//! API, with `ClusterConfig::new`'s default engine.

use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mmpi_core::{Communicator, RecvError};
use mmpi_netsim::cluster::ClusterConfig;
use mmpi_netsim::params::NetParams;
use mmpi_netsim::stats::NetStats;
use mmpi_netsim::SimDuration;
use mmpi_transport::{
    multicast_available, run_sim_world_stats, run_udp_world, Comm, RepairConfig, SimComm,
    SimCommConfig, UdpComm, UdpConfig,
};
use mmpi_wire::RepairStats;

use crate::alloc;
use crate::host;
use crate::ops::{arrival_skew_ns, call, late_rank, op_at, prepare, verify, Op, OpKind, Workload};
use crate::trace::{TracedComm, Tracer};

/// Wall clock: ns since the first call in this process. One epoch for
/// every thread, so timestamps taken at different ranks compare.
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // The harness measures host time; this is its one wall-clock read.
    #[allow(clippy::disallowed_methods)]
    let now = Instant::now();
    now.duration_since(*EPOCH.get_or_init(|| now)).as_nanos() as u64
}

/// What the workload loop needs from a backend beyond `Comm`.
pub trait Probe: Comm {
    /// The wall clock ([`wall_ns`]) and the fabric's clock, both in ns,
    /// read together. The fabric's clock is virtual time on the simulator
    /// (the paper's clock) and the wall clock itself on real sockets.
    fn stamps(&self) -> (u64, u64);
    /// This endpoint's repair counters so far.
    fn stats(&self) -> RepairStats;
    /// Open the span of collective `id` at `stamps` (traced runs only).
    fn coll_begin(&mut self, _id: u64, _kind: OpKind, _stamps: (u64, u64)) {}
    /// Close the open collective span at `stamps`.
    fn coll_end(&mut self, _stamps: (u64, u64)) {}
}

impl Probe for SimComm {
    fn stamps(&self) -> (u64, u64) {
        (wall_ns(), self.now().as_nanos())
    }

    fn stats(&self) -> RepairStats {
        self.repair_stats()
    }
}

impl Probe for UdpComm {
    fn stamps(&self) -> (u64, u64) {
        let now = wall_ns();
        (now, now)
    }

    fn stats(&self) -> RepairStats {
        self.repair_stats()
    }
}

/// What one repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Measured collectives; 5 % of this many run first as warm-up.
    pub measured: u64,
}

impl Plan {
    pub fn warmup(&self) -> u64 {
        self.measured.div_ceil(20)
    }

    /// Every collective a rank issues: warm-up, measured, two fences.
    pub fn issued(&self) -> u64 {
        self.warmup() + self.measured + 2
    }
}

/// Process-wide counters read at both fences by rank 0.
#[derive(Clone, Copy, Debug, Default)]
struct Fence {
    wall_ns: u64,
    allocs: u64,
    ctx_switches: u64,
}

impl Fence {
    fn now() -> Fence {
        Fence {
            wall_ns: wall_ns(),
            allocs: alloc::allocs(),
            ctx_switches: host::voluntary_ctx_switches(),
        }
    }
}

/// What one rank wrote down, in buffers allocated before the world.
#[derive(Debug, Default)]
struct RankLog {
    /// Per measured collective: fabric-clock start and end.
    fabric: Vec<(u64, u64)>,
    /// Per measured collective: wall clock at the call and at its return.
    wall: Vec<(u64, u64)>,
    /// Measured collectives that returned wrong bytes.
    wrong: Vec<u64>,
    error: Option<String>,
    /// From the return of the warm-up fence to that of the closing one.
    window: Option<(Fence, Fence)>,
    repair: RepairStats,
}

/// Lock `m`; a rank that unwound while holding it left valid data behind.
pub fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The closed loop one rank runs.
fn rank_body<C: Probe>(c: C, plan: &Plan, log: &mut RankLog) {
    let mut comm = Communicator::new(c);
    let mut buf = Vec::new();
    let (w, seed, warm) = (plan.workload, plan.seed, plan.warmup());
    let rank = comm.rank();
    // Virtual compute only: on real sockets `compute` would sleep, and
    // the host's own scheduling already staggers the ranks.
    let arrive = |comm: &mut Communicator<C>, i: u64| {
        if w.is_sim() && rank == late_rank(w, seed, i) {
            let skew = Duration::from_nanos(arrival_skew_ns(seed, i));
            comm.transport_mut().compute(skew);
        }
    };
    let outcome = (|| -> Result<(), RecvError> {
        for i in 0..warm {
            let op = op_at(w, seed, i);
            arrive(&mut comm, i);
            prepare(&op, rank, &mut buf);
            call(&mut comm, &op, &mut buf)?;
        }
        comm.barrier()?;
        let opened = Fence::now();
        for i in warm..warm + plan.measured {
            let op = op_at(w, seed, i);
            arrive(&mut comm, i);
            prepare(&op, rank, &mut buf);
            let start = comm.transport().stamps();
            comm.transport_mut().coll_begin(i, op.kind(), start);
            let output = call(&mut comm, &op, &mut buf);
            let end = comm.transport().stamps();
            comm.transport_mut().coll_end(end);
            if !verify(&op, w.ranks(), &buf, &output?) {
                log.wrong.push(i);
            }
            log.wall.push((start.0, end.0));
            log.fabric.push((start.1, end.1));
        }
        comm.barrier()?;
        log.window = Some((opened, Fence::now()));
        Ok(())
    })();
    log.error = outcome.err().map(|e| e.to_string());
    log.repair = comm.transport().stats();
}

/// UDP ports for successive worlds, so no two worlds of one process (or
/// of two harness processes started with different pids) share a socket.
pub struct Ports {
    base: u16,
    next: u16,
}

impl Ports {
    /// `base` from `--base-port`, or derived from the pid.
    pub fn new(base: Option<u16>) -> Ports {
        let base = base.unwrap_or(20_000 + (std::process::id() % 400) as u16 * 100);
        Ports { base, next: 0 }
    }

    /// Base port of the next world: it binds `port - 1` (multicast) and
    /// `port .. port + ranks`.
    fn next_world(&mut self) -> u16 {
        let port = self.base + 1 + 4 * self.next;
        self.next = (self.next + 1) % 24;
        port
    }
}

fn sim_configs(w: Workload, seed: u64) -> (ClusterConfig, SimCommConfig) {
    let switch = NetParams::fast_ethernet_switch();
    let (params, repair) = match w {
        Workload::SimPaperN8 => (switch, None),
        Workload::SimLossyN64 => (
            switch.with_loss(0.05),
            Some(RepairConfig::sim_default().with_seed(seed)),
        ),
        Workload::SimGossipN32 => (
            switch.with_loss(0.05).with_unicast_only(),
            Some(RepairConfig::sim_default().with_seed(seed).with_gossip()),
        ),
        Workload::UdpLoopbackN2 => unreachable!("not a simulated workload"),
    };
    // Start skew models the OS scheduling noise behind the scatter in the
    // paper's plots (the `cluster` crate's experiments use the same 50 µs).
    let mut cluster =
        ClusterConfig::new(w.ranks(), params, seed).with_start_skew(SimDuration::from_micros(50));
    // A stream of collectives legitimately outlives the default 60 s of
    // virtual time; the harness's own watchdog bounds the wall clock.
    cluster.time_limit = SimDuration::from_secs(24 * 3600);
    let comm = SimCommConfig {
        repair,
        ..SimCommConfig::default()
    };
    (cluster, comm)
}

/// What the fabric and the repair plane counted over one whole world
/// (warm-up, fences and drain included).
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Simulator counters; `None` on real sockets.
    pub net: Option<NetStats>,
    pub repair: RepairStats,
}

/// Run `body` once per rank in `w`'s world. `Err` is a world abort.
fn run_world(
    w: Workload,
    seed: u64,
    ports: &mut Ports,
    body: &(dyn Fn(WorldComm) -> RepairStats + Sync),
) -> Result<Counts, String> {
    if w.is_sim() {
        let (cluster, comm) = sim_configs(w, seed);
        let (_, stats) = run_sim_world_stats(&cluster, &comm, |c| {
            body(WorldComm::Sim(c));
        })
        .map_err(|e| e.to_string())?;
        Ok(Counts {
            net: Some(stats.net),
            repair: stats.repair,
        })
    } else {
        let cfg = UdpConfig::loopback(ports.next_world()).with_repair();
        let per_rank = run_udp_world(w.ranks(), &cfg, |c| body(WorldComm::Udp(c)))
            .map_err(|e| e.to_string())?;
        let mut repair = RepairStats::default();
        for r in &per_rank {
            repair.merge(r);
        }
        Ok(Counts { net: None, repair })
    }
}

/// The endpoint a world hands each rank. Both variants are large and
/// about the same size, and one value exists per rank for a moment.
#[allow(clippy::large_enum_variant)]
enum WorldComm {
    Sim(SimComm),
    Udp(UdpComm),
}

/// Is IP multicast usable on loopback here? Probed on the next world's
/// ports; `udp_loopback_n2` cannot run without it.
pub fn udp_multicast_available(ports: &mut Ports) -> bool {
    multicast_available(ports.next_world())
}

/// One stand-up + tear-down of the workload's exact world with an empty
/// program: thread spawn, bind, group join, drain. Seconds.
pub fn setup_cycle(w: Workload, seed: u64, ports: &mut Ports) -> Result<f64, String> {
    let start = wall_ns();
    run_world(w, seed, ports, &|_c| RepairStats::default())?;
    Ok((wall_ns() - start) as f64 / 1e9)
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
    /// Why the world aborted or a rank gave up, if it did.
    pub error: Option<String>,
    /// Measured collectives per second of rank 0's wall clock, from the
    /// return of the warm-up fence to that of the closing one; 0 if the
    /// stretch never closed.
    pub coll_per_s: f64,
    /// Wall time of every rank's call of every measured collective, with
    /// its kind. All ranks, not rank 0 alone: a rank's call time depends
    /// on where it sits relative to the rotating root, and one rank's
    /// median jumps between those modes from seed to seed.
    pub wall_ns: Vec<(OpKind, u64)>,
    /// Per measured collective: latest end minus earliest start over all
    /// ranks on the fabric's clock — the paper's metric.
    pub fabric_ns: Vec<(OpKind, u64)>,
    /// Peak live heap above what was live before the world stood up.
    pub peak_live_bytes: u64,
    pub allocs_per_coll: f64,
    pub ctx_switches_per_coll: f64,
    pub counts: Counts,
    /// Collectives each rank issued in this world, fences included.
    pub issued: u64,
}

/// Run one repetition of `plan`; with a `tracer`, through [`TracedComm`].
pub fn run_rep(plan: &Plan, ports: &mut Ports, tracer: Option<&Tracer>) -> Rep {
    let n = plan.workload.ranks();
    let cap = plan.measured as usize;
    let logs: Vec<Mutex<RankLog>> = (0..n)
        .map(|_| {
            Mutex::new(RankLog {
                fabric: Vec::with_capacity(cap),
                wall: Vec::with_capacity(cap),
                ..RankLog::default()
            })
        })
        .collect();
    let baseline = alloc::reset_peak();
    let world = run_world(plan.workload, plan.seed, ports, &|c| {
        let rank = match &c {
            WorldComm::Sim(c) => c.rank(),
            WorldComm::Udp(c) => c.rank(),
        };
        let mut guard = lock(&logs[rank]);
        let log = &mut *guard;
        match (c, tracer) {
            (WorldComm::Sim(c), None) => rank_body(c, plan, log),
            (WorldComm::Udp(c), None) => rank_body(c, plan, log),
            (WorldComm::Sim(c), Some(t)) => rank_body(TracedComm::new(c, t), plan, log),
            (WorldComm::Udp(c), Some(t)) => rank_body(TracedComm::new(c, t), plan, log),
        }
        log.repair
    });
    let peak_live_bytes = alloc::peak().saturating_sub(baseline);
    let logs: Vec<RankLog> = logs
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let mut rep = summarize(plan, &logs);
    rep.peak_live_bytes = peak_live_bytes;
    match world {
        Ok(counts) => rep.counts = counts,
        Err(e) => rep.error = Some(e),
    }
    rep
}

/// Fold the ranks' logs into one repetition's numbers. A collective
/// counts as failed when any rank got wrong bytes from it, when a rank
/// left a barrier before every rank had entered it, or when some rank
/// never completed it (an error return or a world abort ends that rank's
/// loop, so every later collective is failed too).
fn summarize(plan: &Plan, logs: &[RankLog]) -> Rep {
    let warm = plan.warmup();
    let completed = logs.iter().map(|l| l.fabric.len()).min().unwrap_or(0);
    let mut failed = plan.measured - completed as u64;
    let mut fabric_ns = Vec::with_capacity(completed);
    let mut wall_ns = Vec::with_capacity(completed * logs.len());
    for k in 0..completed {
        let i = warm + k as u64;
        let op = op_at(plan.workload, plan.seed, i);
        let first_start = logs.iter().map(|l| l.fabric[k].0).min().unwrap_or(0);
        let last_start = logs.iter().map(|l| l.fabric[k].0).max().unwrap_or(0);
        let first_end = logs.iter().map(|l| l.fabric[k].1).min().unwrap_or(0);
        let last_end = logs.iter().map(|l| l.fabric[k].1).max().unwrap_or(0);
        let wrong = logs.iter().any(|l| l.wrong.contains(&i));
        let leaked = matches!(op, Op::Barrier { .. }) && first_end < last_start;
        if wrong || leaked {
            failed += 1;
        }
        fabric_ns.push((op.kind(), last_end - first_start));
        wall_ns.extend(logs.iter().map(|l| (op.kind(), l.wall[k].1 - l.wall[k].0)));
    }
    let mut rep = Rep {
        attempted: plan.measured,
        failed,
        error: logs.iter().find_map(|l| l.error.clone()),
        wall_ns,
        fabric_ns,
        issued: plan.issued(),
        ..Rep::default()
    };
    if let Some((open, close)) = logs[0].window {
        let ops = plan.measured as f64;
        rep.coll_per_s = ops / ((close.wall_ns - open.wall_ns) as f64 / 1e9);
        rep.allocs_per_coll = (close.allocs - open.allocs) as f64 / ops;
        rep.ctx_switches_per_coll = (close.ctx_switches - open.ctx_switches) as f64 / ops;
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(fabric: &[(u64, u64)]) -> RankLog {
        RankLog {
            fabric: fabric.to_vec(),
            wall: fabric.iter().map(|&(s, _)| (s, s + 10)).collect(),
            ..RankLog::default()
        }
    }

    #[test]
    fn fabric_latency_is_latest_end_minus_earliest_start() {
        let plan = Plan {
            workload: Workload::UdpLoopbackN2,
            seed: 1,
            measured: 2,
        };
        let logs = [
            log_of(&[(100, 150), (200, 260)]),
            log_of(&[(90, 170), (210, 250)]),
        ];
        let rep = summarize(&plan, &logs);
        let lat: Vec<u64> = rep.fabric_ns.iter().map(|&(_, ns)| ns).collect();
        assert_eq!(lat, [80, 60]);
        assert_eq!((rep.attempted, rep.failed), (2, 0));
    }

    #[test]
    fn rate_runs_from_fence_to_fence() {
        let plan = Plan {
            workload: Workload::UdpLoopbackN2,
            seed: 1,
            measured: 20,
        };
        let calls: Vec<(u64, u64)> = (0..20).map(|k| (k * 1000, k * 1000 + 10)).collect();
        let mut rank0 = log_of(&calls);
        let fence = |wall_ns| Fence {
            wall_ns,
            ..Fence::default()
        };
        rank0.window = Some((fence(0), fence(40_000)));
        let rep = summarize(&plan, &[rank0, log_of(&calls)]);
        assert_eq!(rep.coll_per_s, 20.0 / 40e-6);
    }

    #[test]
    fn collectives_a_rank_never_completed_are_failed() {
        let plan = Plan {
            workload: Workload::UdpLoopbackN2,
            seed: 1,
            measured: 5,
        };
        let mut short = log_of(&[(0, 1), (2, 3)]);
        short.error = Some("lost".to_owned());
        let logs = [log_of(&[(0, 1), (2, 3), (4, 5)]), short];
        let rep = summarize(&plan, &logs);
        assert_eq!((rep.attempted, rep.failed), (5, 3));
        assert_eq!(rep.error.as_deref(), Some("lost"));
        assert_eq!(rep.coll_per_s, 0.0, "no closing fence, no rate");
    }

    #[test]
    fn wrong_bytes_and_leaky_barriers_are_failed() {
        let plan = Plan {
            workload: Workload::UdpLoopbackN2,
            seed: 1,
            measured: 5,
        };
        // Warm-up is 1, so measured collectives are i = 1..=5; i = 4 is
        // the cycle's barrier (4 mod 5), at index 3.
        assert!(matches!(
            op_at(plan.workload, plan.seed, 4),
            Op::Barrier { .. }
        ));
        let mut a = log_of(&[(0, 9), (10, 19), (20, 29), (30, 35), (40, 49)]);
        // Rank 1 enters the barrier at 36, after rank 0 already left.
        let b = log_of(&[(0, 9), (10, 19), (20, 29), (36, 39), (40, 49)]);
        a.wrong.push(2);
        let rep = summarize(&plan, &[a, b]);
        assert_eq!(rep.failed, 2);
    }
}
