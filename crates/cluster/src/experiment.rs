//! Experiment runner: repeated, seeded collective operations on the
//! simulated testbed, measured the way the paper measures them.
//!
//! One *experiment point* = (workload, process count, fabric, message
//! size), run for 20-30 trials with different seeds. The latency of a
//! trial is "the longest completion time of the collective operation
//! among all processes" (paper §4), and per-rank random start skew
//! reproduces the sample scatter of the paper's plots.
//!
//! Beyond the paper's lossless regime, an experiment can inject per-link
//! frame loss ([`Experiment::with_loss`]): the NACK/retransmit repair
//! loop is enabled automatically, the latency metric excludes the
//! endpoints' post-workload drain, and the result carries the run's
//! [`WorldStats`]-derived drop/NACK/retransmit counters so a
//! [`loss_sweep`] produces the loss figures directly.

use std::fmt::Write as _;

use mmpi_core::{expect_coll, BarrierAlgorithm, BcastAlgorithm, Communicator};
use mmpi_netsim::cluster::ClusterConfig;
use mmpi_netsim::params::NetParams;
use mmpi_netsim::stats::NetStats;
use mmpi_netsim::{SimDuration, SimTime};
use mmpi_transport::{run_sim_world_stats, RepairConfig, SimCommConfig, WorldStats};
use mmpi_wire::RepairStats;

use crate::stats::Summary;

/// Which physical network the simulated cluster hangs off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// Shared 100 Mbps Ethernet hub (one collision domain).
    Hub,
    /// Managed store-and-forward switch with IGMP snooping.
    Switch,
}

impl Fabric {
    /// Network parameters for this fabric.
    pub fn params(self) -> NetParams {
        match self {
            Fabric::Hub => NetParams::fast_ethernet_hub(),
            Fabric::Switch => NetParams::fast_ethernet_switch(),
        }
    }
}

/// The collective operation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `MPI_Bcast` of `bytes` from rank 0.
    Bcast {
        /// Algorithm under test.
        algo: BcastAlgorithm,
        /// Message size in bytes.
        bytes: usize,
    },
    /// `MPI_Barrier`.
    Barrier {
        /// Algorithm under test.
        algo: BarrierAlgorithm,
    },
}

/// One experiment point.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Number of processes.
    pub n: usize,
    /// Hub or switch.
    pub fabric: Fabric,
    /// Operation and parameters.
    pub workload: Workload,
    /// Trials (the paper ran 20-30 per point).
    pub trials: usize,
    /// Base seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Maximum per-rank start skew (models OS scheduling noise).
    pub start_skew: SimDuration,
    /// Injected per-link frame-drop probability. Nonzero enables the
    /// NACK/retransmit repair loop on every endpoint.
    pub drop_prob: f64,
    /// Run on a unicast-only fabric: the switch forwards no multicast
    /// frames (dropped and counted). Only the gossip dissemination plane
    /// completes here; multicast workloads fail with a deadlock or
    /// time-limit error.
    pub unicast_only: bool,
    /// Use the epidemic Advr/Want dissemination plane instead of raw
    /// multicast (enables the repair loop with
    /// `RepairConfig::with_gossip` on every endpoint).
    pub gossip: bool,
}

impl Experiment {
    /// An experiment with the paper's defaults: 25 trials, 50 µs skew.
    pub fn new(n: usize, fabric: Fabric, workload: Workload) -> Self {
        Experiment {
            n,
            fabric,
            workload,
            trials: 25,
            seed: 0x0EA6_1E00,
            start_skew: SimDuration::from_micros(50),
            drop_prob: 0.0,
            unicast_only: false,
            gossip: false,
        }
    }

    /// Builder-style trial count override.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style loss injection (enables repair on every endpoint).
    pub fn with_loss(mut self, drop_prob: f64) -> Self {
        self.drop_prob = drop_prob;
        self
    }

    /// Builder-style unicast-only fabric (multicast frames dropped at
    /// the switch).
    pub fn with_unicast_only(mut self) -> Self {
        self.unicast_only = true;
        self
    }

    /// Builder-style epidemic dissemination (Advr/Want gossip plane).
    pub fn with_gossip(mut self) -> Self {
        self.gossip = true;
        self
    }
}

/// Result of all trials of one experiment point.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Latency of each trial, microseconds.
    pub samples_us: Vec<f64>,
    /// Summary statistics over the samples.
    pub summary: Summary,
    /// Network statistics summed over every trial (so rare events — an
    /// injected drop at 1% loss, a collision burst — show up even when a
    /// single trial misses them).
    pub stats: NetStats,
    /// Repair-loop counters summed over every trial (all zero when the
    /// experiment injects no loss).
    pub repair: RepairStats,
}

/// Run one trial; returns (latency_us, run statistics).
///
/// The latency is the latest end-of-workload virtual time across ranks —
/// the paper's makespan metric. It deliberately excludes the repair
/// drain the endpoints run after the workload, which is teardown
/// bookkeeping, not collective latency.
pub fn run_trial(exp: &Experiment, trial: usize) -> (f64, WorldStats) {
    #[expect(
        clippy::expect_used,
        reason = "reviewed: the panicking form of `try_run_trial`, for callers that treat a failed trial as a bug"
    )]
    try_run_trial(exp, trial).expect("experiment trial failed")
}

/// Fallible [`run_trial`]: a deadlock or time-limit abort comes back as
/// `Err` instead of panicking. This is how a sweep records that an
/// algorithm *cannot* complete on a topology (e.g. any multicast
/// dissemination on a unicast-only fabric) rather than crashing the
/// whole sweep.
pub fn try_run_trial(exp: &Experiment, trial: usize) -> Result<(f64, WorldStats), String> {
    let workload = exp.workload;
    let mut params = exp.fabric.params().with_loss(exp.drop_prob);
    if exp.unicast_only {
        params = params.with_unicast_only();
    }
    let cluster =
        ClusterConfig::new(exp.n, params, exp.seed + trial as u64).with_start_skew(exp.start_skew);
    let mut comm_cfg = SimCommConfig::default();
    if exp.drop_prob > 0.0 || exp.gossip {
        // Reseed the randomized NACK backoff per trial so trials draw
        // decorrelated jitter while each replays exactly.
        let mut rc = RepairConfig::sim_default().with_seed(exp.seed + trial as u64);
        if exp.gossip {
            rc = rc.with_gossip();
        }
        comm_cfg.repair = Some(rc);
    }
    let (report, world) = run_sim_world_stats(&cluster, &comm_cfg, move |c| {
        let mut comm = Communicator::new(c);
        match workload {
            Workload::Bcast { algo, bytes } => {
                let mut buf = if comm.rank() == 0 {
                    vec![0x5A; bytes]
                } else {
                    vec![0u8; bytes]
                };
                expect_coll(comm.bcast_with(algo, 0, &mut buf));
                assert!(buf.iter().all(|&b| b == 0x5A), "bcast corrupted data");
            }
            Workload::Barrier { algo } => {
                expect_coll(comm.barrier_with(algo));
            }
        }
        comm.transport().now()
    })
    .map_err(|e| e.to_string())?;
    let end = report
        .outputs
        .iter()
        .copied()
        .fold(SimTime::ZERO, SimTime::max);
    Ok((end.as_micros_f64(), world))
}

/// Run every trial of an experiment point.
pub fn run_experiment(exp: &Experiment) -> ExperimentResult {
    assert!(exp.trials > 0);
    let mut samples = Vec::with_capacity(exp.trials);
    let mut stats = NetStats::new(exp.n);
    let mut repair = RepairStats::default();
    for t in 0..exp.trials {
        let (lat, world) = run_trial(exp, t);
        samples.push(lat);
        stats.merge(&world.net);
        repair.merge(&world.repair);
    }
    ExperimentResult {
        summary: Summary::from_samples(&samples),
        samples_us: samples,
        stats,
        repair,
    }
}

/// The recovery-effort columns every repair sweep reports, extracted
/// once from an [`ExperimentResult`] so the loss sweep, the scale
/// sweep, their renderers and the CSV writer cannot drift as counters
/// are added.
#[derive(Clone, Copy, Debug)]
pub struct RepairCounters {
    /// Fabric drops summed over the trials (all causes).
    pub drops: u64,
    /// NACK solicits actually sent by the repair loop (summed).
    pub nacks: u64,
    /// Solicits suppressed because a peer's NACK for the same traffic
    /// was overheard first (SRM suppression; summed).
    pub suppressed: u64,
    /// Retransmissions sent (summed).
    pub retransmits: u64,
    /// Retransmissions avoided by the responder-side multicast-repair
    /// window or the requester's missing-range advertisement (summed).
    pub repairs_suppressed: u64,
    /// ACK-horizon session messages multicast (summed); zero unless the
    /// adaptive control plane's horizon cadence is enabled.
    pub horizons: u64,
    /// Retransmit-ring records freed by ACK-horizon reconciliation
    /// rather than capacity eviction (summed).
    pub acked_freed: u64,
    /// Per-peer RTT samples folded into the adaptive timer estimators
    /// (summed).
    pub rtt_samples: u64,
    /// Standalone heartbeat beacons multicast by the membership layer
    /// (summed); zero unless membership is enabled — piggybacked
    /// beacons ride horizons and are not counted here.
    pub heartbeats: u64,
    /// Suspicions opened against silent peers (summed).
    pub suspicions: u64,
    /// Peers confirmed failed by the detector or a shrink vote (summed).
    pub failures: u64,
    /// Highest liveness epoch reached (maxed, not summed): 0 until a
    /// communicator shrink commits a new epoch.
    pub epoch: u64,
    /// Advr digests unicast by the gossip dissemination plane (summed);
    /// zero unless the experiment runs with gossip.
    pub advrs: u64,
    /// Want pull requests unicast by the gossip plane (summed).
    pub wants: u64,
    /// Want requests answered with a unicast payload (summed).
    pub pulls: u64,
    /// Pulls skipped because the advertised payload was already held
    /// (summed) — the epidemic plane's duplicate suppression.
    pub dup_avoided: u64,
}

impl RepairCounters {
    fn from_result(res: &ExperimentResult) -> Self {
        RepairCounters {
            drops: res.stats.total_drops(),
            nacks: res.repair.nacks_sent,
            suppressed: res.repair.nacks_suppressed,
            retransmits: res.repair.retransmits_sent,
            repairs_suppressed: res.repair.repairs_suppressed,
            horizons: res.repair.horizons_sent,
            acked_freed: res.repair.acked_records_freed,
            rtt_samples: res.repair.rtt_samples,
            heartbeats: res.repair.heartbeats_sent,
            suspicions: res.repair.suspicions,
            failures: res.repair.failures_confirmed,
            epoch: res.repair.epoch,
            advrs: res.repair.advrs_sent,
            wants: res.repair.wants_sent,
            pulls: res.repair.pulls_answered,
            dup_avoided: res.repair.duplicate_payloads_avoided,
        }
    }

    /// The aligned table header shared by the sweep renderers.
    fn table_header() -> String {
        format!(
            "{:>8}  {:>8}  {:>10}  {:>12}  {:>15}  {:>9}  {:>11}  {:>11}  {:>10}  {:>10}  {:>8}  {:>5}  {:>8}  {:>8}  {:>8}  {:>11}",
            "drops",
            "nacks",
            "suppressed",
            "retransmits",
            "repairs_suppr",
            "horizons",
            "acked_freed",
            "rtt_samples",
            "heartbeats",
            "suspicions",
            "failures",
            "epoch",
            "advrs",
            "wants",
            "pulls",
            "dup_avoided"
        )
    }

    /// The aligned table cells matching [`RepairCounters::table_header`].
    fn table_cells(&self) -> String {
        format!(
            "{:>8}  {:>8}  {:>10}  {:>12}  {:>15}  {:>9}  {:>11}  {:>11}  {:>10}  {:>10}  {:>8}  {:>5}  {:>8}  {:>8}  {:>8}  {:>11}",
            self.drops,
            self.nacks,
            self.suppressed,
            self.retransmits,
            self.repairs_suppressed,
            self.horizons,
            self.acked_freed,
            self.rtt_samples,
            self.heartbeats,
            self.suspicions,
            self.failures,
            self.epoch,
            self.advrs,
            self.wants,
            self.pulls,
            self.dup_avoided
        )
    }
}

/// One row of a loss sweep: an experiment point re-run at one loss rate.
#[derive(Clone, Debug)]
pub struct LossSweepRow {
    /// Injected per-link drop probability.
    pub loss: f64,
    /// Latency summary across trials (drain excluded).
    pub summary: Summary,
    /// Recovery-effort counters (summed over trials).
    pub counters: RepairCounters,
    /// Frames on the wire (summed).
    pub frames: u64,
}

/// Re-run `base` at each loss rate (e.g. `[0.0, 0.01, 0.10]`) and tally
/// latency against recovery effort — the loss-sweep figure's data.
pub fn loss_sweep(base: &Experiment, rates: &[f64]) -> Vec<LossSweepRow> {
    rates
        .iter()
        .map(|&loss| {
            let res = run_experiment(&base.clone().with_loss(loss));
            LossSweepRow {
                loss,
                summary: res.summary.clone(),
                counters: RepairCounters::from_result(&res),
                frames: res.stats.frames_sent,
            }
        })
        .collect()
}

/// Render a loss sweep as an aligned text table.
pub fn render_loss_table(label: &str, rows: &[LossSweepRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "loss sweep — {label}");
    let _ = writeln!(
        out,
        "{:>8}  {:>12}  {}  {:>8}",
        "loss",
        "median_us",
        RepairCounters::table_header(),
        "frames"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>7.1}%  {:>12.1}  {}  {:>8}",
            r.loss * 100.0,
            r.summary.median,
            r.counters.table_cells(),
            r.frames
        );
    }
    out
}

/// One row of a repair *scale* sweep: the same lossy workload re-run at
/// a growing process count, so the solicit/suppressed/repair counters
/// show how recovery traffic scales with the group (the SRM scale-out's
/// acceptance axis — solicits must grow sub-linearly in N).
#[derive(Clone, Debug)]
pub struct ScaleSweepRow {
    /// Process count of this row.
    pub n: usize,
    /// Latency summary across trials (drain excluded).
    pub summary: Summary,
    /// Recovery-effort counters (summed over trials).
    pub counters: RepairCounters,
}

/// Re-run `base` at each process count, keeping its loss rate. The base
/// experiment must inject loss (otherwise every repair column is zero).
pub fn scale_sweep(base: &Experiment, ns: &[usize]) -> Vec<ScaleSweepRow> {
    ns.iter()
        .map(|&n| {
            let mut exp = base.clone();
            exp.n = n;
            let res = run_experiment(&exp);
            ScaleSweepRow {
                n,
                summary: res.summary.clone(),
                counters: RepairCounters::from_result(&res),
            }
        })
        .collect()
}

/// Render a scale sweep as an aligned text table.
pub fn render_scale_table(label: &str, rows: &[ScaleSweepRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "repair scale sweep — {label}");
    let _ = writeln!(
        out,
        "{:>4}  {:>12}  {}",
        "n",
        "median_us",
        RepairCounters::table_header()
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4}  {:>12.1}  {}",
            r.n,
            r.summary.median,
            r.counters.table_cells()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_experiment_produces_consistent_samples() {
        let exp = Experiment::new(
            4,
            Fabric::Switch,
            Workload::Bcast {
                algo: BcastAlgorithm::McastBinary,
                bytes: 1000,
            },
        )
        .with_trials(5);
        let res = run_experiment(&exp);
        assert_eq!(res.samples_us.len(), 5);
        assert!(res.summary.median > 100.0 && res.summary.median < 5_000.0);
        // Skew makes samples vary but stay in a tight band.
        assert!(res.summary.max - res.summary.min < 500.0);
    }

    #[test]
    fn trials_differ_by_seed_but_rerun_identically() {
        let exp = Experiment::new(
            3,
            Fabric::Hub,
            Workload::Barrier {
                algo: BarrierAlgorithm::Mpich,
            },
        )
        .with_trials(4);
        let a = run_experiment(&exp);
        let b = run_experiment(&exp);
        assert_eq!(a.samples_us, b.samples_us, "same seeds, same results");
        // Different trials see different skews, so not all equal.
        let first = a.samples_us[0];
        assert!(a.samples_us.iter().any(|&s| (s - first).abs() > 1e-9));
    }

    #[test]
    fn loss_sweep_reports_recovery_effort() {
        let base = Experiment::new(
            4,
            Fabric::Switch,
            Workload::Bcast {
                algo: BcastAlgorithm::McastBinary,
                bytes: 3000,
            },
        )
        .with_trials(3)
        .with_seed(1);
        let rows = loss_sweep(&base, &[0.0, 0.10]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].counters.drops, 0, "lossless row stays clean");
        assert_eq!(rows[0].counters.retransmits, 0);
        assert!(rows[1].counters.drops > 0, "10% loss row must drop");
        assert!(rows[1].counters.retransmits > 0, "and recover");
        // The rendered table carries every column.
        let table = render_loss_table("bcast 3000B, 4 procs, switch", &rows);
        assert!(table.contains("retransmits"));
        assert!(table.contains("10.0%"));
    }

    #[test]
    fn lossy_trials_replay_identically() {
        let exp = Experiment::new(
            3,
            Fabric::Switch,
            Workload::Bcast {
                algo: BcastAlgorithm::McastBinary,
                bytes: 2000,
            },
        )
        .with_trials(3)
        .with_loss(0.10);
        let a = run_experiment(&exp);
        let b = run_experiment(&exp);
        assert_eq!(a.samples_us, b.samples_us);
        assert_eq!(a.repair, b.repair, "repair counters replay exactly");
    }

    #[test]
    fn scale_sweep_reports_suppression_up_to_32() {
        let base = Experiment::new(
            4,
            Fabric::Switch,
            Workload::Bcast {
                algo: BcastAlgorithm::McastBinary,
                bytes: 3000,
            },
        )
        .with_trials(2)
        .with_seed(1)
        .with_loss(0.10);
        let rows = scale_sweep(&base, &[4, 16, 32]);
        assert_eq!(rows.len(), 3);
        let r16 = &rows[1];
        let r32 = &rows[2];
        assert_eq!(r32.n, 32);
        assert!(
            r32.counters.drops > 0 && r32.counters.retransmits > 0,
            "lossy and recovering"
        );
        assert!(
            r32.counters.suppressed > 0,
            "at n=32 the SRM suppression must visibly fire"
        );
        // The scale-out's point: solicits grow sub-linearly in N — the
        // per-drop solicit rate must not rise from 16 to 32 ranks (it
        // falls, because more stuck receivers share each overheard NACK
        // and each multicast repair).
        let per_drop = |r: &ScaleSweepRow| r.counters.nacks as f64 / r.counters.drops.max(1) as f64;
        assert!(
            r16.counters.nacks > 0,
            "n=16 must need recovery for the comparison"
        );
        assert!(
            per_drop(r32) <= per_drop(r16) * 1.5,
            "solicits per drop must not explode with N: {} vs {}",
            per_drop(r32),
            per_drop(r16)
        );
        let table = render_scale_table("bcast 3000B, 10% loss, switch", &rows);
        assert!(table.contains("suppressed"));
        assert!(table.contains("32"));
    }

    #[test]
    fn barrier_experiment_runs_all_algorithms() {
        for algo in [
            BarrierAlgorithm::Mpich,
            BarrierAlgorithm::McastBinary,
            BarrierAlgorithm::McastLinear,
        ] {
            let exp = Experiment::new(5, Fabric::Switch, Workload::Barrier { algo }).with_trials(2);
            let res = run_experiment(&exp);
            assert!(res.summary.median > 0.0, "{algo:?}");
        }
    }
}
