//! What one invocation does: repetitions until the time is up, then the
//! metrics — end to end with tracing off, or per layer with one traced
//! repetition and the isolated rungs.

use std::path::PathBuf;

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::ops::{OpKind, Workload};
use crate::rungs;
use crate::stats::{median_f64, percentile, samples_beyond};
use crate::trace::{breakdown, chrome_trace, Class, Span, Tracer};
use crate::workload::{run_rep, setup_cycle, wall_ns, Plan, Ports, Rep};

/// Before each repetition, set-up cycles go on for this long and for at
/// least one cycle (a UDP world spends 0.4 s of wall clock draining on
/// the way down; a small simulated one cycles hundreds of times).
const SETUP_BATCH_NS: u64 = 200_000_000;

/// Untraced/traced pairs of repetitions behind `trace.overhead_share`.
const OVERHEAD_PAIRS: usize = 2;

/// Collectives in the Chrome trace, per rank written.
const TRACE_COLLECTIVES: u64 = 2000;

/// The result of an invocation: what the last output line carries.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// In dictionary order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn result(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]);
                (name.to_owned(), m)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    fn absorb(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.errors.extend(rep.error.clone());
    }
}

/// What an invocation was asked to run.
#[derive(Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
}

/// Seed of repetition `r` of a run: runs with neighbouring `--seed`s
/// share no repetition.
fn rep_seed(seed: u64, r: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(r)
}

impl Spec {
    /// Repetition `r` of this run.
    fn plan(&self, r: u64) -> Plan {
        Plan {
            workload: self.workload,
            seed: rep_seed(self.seed, r),
            measured: self.workload.ops_per_rep() / if self.quick { 4 } else { 1 },
        }
    }
}

/// `p`-th percentile in µs of the samples of `kind` (all kinds if
/// `None`); 0 when there are none.
fn percentile_us(samples: &[(OpKind, u64)], kind: Option<OpKind>, p: f64) -> f64 {
    let mut picked: Vec<u64> = samples
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| *k == want))
        .map(|&(_, ns)| ns)
        .collect();
    if picked.is_empty() {
        return 0.0;
    }
    picked.sort_unstable();
    percentile(&picked, p) as f64 / 1e3
}

/// Pair every dictionary entry with its measured value; a name the
/// dictionary has and `values` lacks is a bug in this file.
fn in_dictionary_order<'a>(
    dictionary: impl Iterator<Item = (&'static str, &'static str)> + 'a,
    values: &'a [(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    dictionary
        .map(|(name, unit)| {
            let (_, v) = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, *v, unit)
        })
        .collect()
}

/// The lowest of `values` (`INFINITY` if there are none).
fn lowest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// The highest of `values` (0 if there are none).
fn highest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, f64::max)
}

/// `--trace 0`: untraced repetitions, each preceded by a batch of set-up
/// cycles, until `seconds` have passed.
///
/// Whatever else runs on the host only ever slows a repetition down — on
/// the reference box by up to a third, for seconds at a time — so every
/// wall-clock metric is taken per repetition and the run reports the
/// *best* repetition. Virtual time is immune to the host, so the
/// simulator's fabric latencies pool the samples of every repetition.
pub fn end_to_end(spec: &Spec, ports: &mut Ports) -> Result<Outcome, String> {
    let Spec {
        workload: w,
        seed,
        seconds,
        quick,
    } = *spec;
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut setups = Vec::new();
    let mut cycles = 0;
    let begun = wall_ns();
    loop {
        let batch_begun = wall_ns();
        let mut batch = Vec::new();
        while batch.is_empty() || (!quick && wall_ns() - batch_begun < SETUP_BATCH_NS) {
            batch.push(setup_cycle(w, seed, ports)?);
        }
        cycles += batch.len();
        setups.push(median_f64(&batch));

        let rep = run_rep(&spec.plan(reps.len() as u64), ports, None);
        out.absorb(&rep);
        reps.push(rep);
        let spent = wall_ns() - begun;
        // Stop where one more repetition would overshoot the time by more
        // than stopping now undershoots it.
        if quick || spent + spent / reps.len() as u64 / 2 >= seconds * 1_000_000_000 {
            break;
        }
    }

    let done: Vec<&Rep> = reps.iter().filter(|r| r.coll_per_s > 0.0).collect();
    if done.is_empty() {
        return Err(format!(
            "no repetition of {} completed: {}",
            w.name(),
            out.errors.join("; ")
        ));
    }
    let pooled: Vec<(OpKind, u64)> = done
        .iter()
        .flat_map(|r| r.fabric_ns.iter().copied())
        .collect();
    let fabric_us = |p: f64| {
        if w.is_sim() {
            percentile_us(&pooled, None, p)
        } else {
            lowest(done.iter().map(|r| percentile_us(&r.fabric_ns, None, p)))
        }
    };
    let peaks: Vec<f64> = done
        .iter()
        .map(|r| r.peak_live_bytes as f64 / 1e6)
        .collect();
    let values = [
        ("setup_s", lowest(setups.iter().copied())),
        ("coll_per_s", highest(done.iter().map(|r| r.coll_per_s))),
        (
            "coll_wall_us_p50",
            lowest(done.iter().map(|r| percentile_us(&r.wall_ns, None, 50.0))),
        ),
        ("fabric_lat_us_p50", fabric_us(50.0)),
        ("fabric_lat_us_p99", fabric_us(99.0)),
        ("peak_live_mb", median_f64(&peaks)),
    ];
    out.metrics = in_dictionary_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values);
    let samples = if w.is_sim() {
        pooled.len()
    } else {
        done[0].fabric_ns.len()
    };
    out.notes = vec![
        format!(
            "{}: {} repetitions of {} collectives, closed loop, {} ranks; {} set-up cycles",
            w.name(),
            reps.len(),
            reps[0].attempted,
            w.ranks(),
            cycles
        ),
        format!(
            "fabric latency: {} samples {}, {} beyond p99",
            samples,
            if w.is_sim() {
                "pooled over the repetitions"
            } else {
                "per repetition"
            },
            samples_beyond(samples, 99.0)
        ),
    ];
    Ok(out)
}

/// `Udp: ... OutDatagrams` of `/proc/net/snmp`: datagrams this host has
/// sent so far. `None` where the file is missing or shaped otherwise.
fn udp_out_datagrams() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/snmp").ok()?;
    let mut lines = text.lines().filter(|l| l.starts_with("Udp:"));
    let (names, values) = (lines.next()?, lines.next()?);
    let at = names.split_whitespace().position(|n| n == "OutDatagrams")?;
    values.split_whitespace().nth(at)?.parse().ok()
}

/// Where traces go: next to the build, `<target dir>/ladder/`.
fn trace_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    // <target dir>/<profile>/ladder
    let target = exe.parent().and_then(|p| p.parent());
    target
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("ladder")
}

fn write_trace(w: Workload, spans: &[Vec<Span>], first_coll: u64) -> Result<PathBuf, String> {
    let coll_time = |rank: &Vec<Span>| -> u64 {
        rank.iter()
            .filter(|s| s.class == Class::Coll)
            .map(Span::wall)
            .sum()
    };
    let slowest = (0..spans.len())
        .max_by_key(|&r| coll_time(&spans[r]))
        .unwrap_or(0);
    let mut ranks = vec![(0, spans[0].as_slice())];
    if slowest != 0 {
        ranks.push((slowest, spans[slowest].as_slice()));
    }
    let dir = trace_dir();
    let path = dir.join(format!("trace_{}.json", w.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                chrome_trace(&ranks, first_coll, TRACE_COLLECTIVES).encode(),
            )
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `--trace 1`: the run's first repetition untraced (boundary counts) and
/// through `TracedComm` (spans), by turns, then the isolated rungs with
/// what is left of `seconds`.
pub fn per_layer(spec: &Spec, ports: &mut Ports) -> Result<Outcome, String> {
    let Spec {
        workload: w,
        seconds,
        quick,
        ..
    } = *spec;
    let begun = wall_ns();
    let plan = spec.plan(0);
    let mut out = Outcome::default();

    // The same repetition, untraced and traced by turns. Counts come from
    // the first untraced one, spans from the first traced one; the
    // overhead compares the best repetition of each kind (see
    // `end_to_end`), because a single pair differs by more than tracing
    // costs.
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut first = None;
    for _ in 0..if quick { 1 } else { OVERHEAD_PAIRS } {
        let sent_before = udp_out_datagrams();
        let plain = run_rep(&plan, ports, None);
        let udp_datagrams = match (w.is_sim(), sent_before, udp_out_datagrams()) {
            (false, Some(before), Some(after)) => (after - before) as f64,
            _ => 0.0,
        };
        let tracer = Tracer::new(w.ranks(), plan.measured as usize * 8);
        let traced = run_rep(&plan, ports, Some(&tracer));
        out.absorb(&plain);
        out.absorb(&traced);
        plain_rates.push(plain.coll_per_s);
        traced_rates.push(traced.coll_per_s);
        first.get_or_insert((plain, udp_datagrams, tracer.into_spans()));
    }
    let (plain, udp_datagrams, spans) = first.expect("at least one pair ran");
    let (plain_rate, traced_rate) = (
        highest(plain_rates.into_iter()),
        highest(traced_rates.into_iter()),
    );
    if plain_rate == 0.0 || traced_rate == 0.0 || plain.coll_per_s == 0.0 {
        return Err(format!(
            "a repetition of {} did not complete: {}",
            w.name(),
            out.errors.join("; ")
        ));
    }

    let issued = plain.issued as f64;
    let per_coll = |count: u64| count as f64 / issued;
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let net = plain.counts.net.clone().unwrap_or_default();
    let rp = plain.counts.repair;
    let b = breakdown(&spans[0]);
    let share = |ns: u64| ratio(ns, b.coll_ns);
    let mut values = vec![
        ("netsim.frames_per_coll", per_coll(net.frames_sent)),
        ("netsim.datagrams_per_coll", per_coll(net.datagrams_sent)),
        (
            "netsim.mcast_datagram_share",
            ratio(net.mcast_datagrams_sent, net.datagrams_sent),
        ),
        ("netsim.drops_per_coll", per_coll(net.total_drops())),
        ("netsim.wire_bytes_per_coll", per_coll(net.wire_bytes_sent)),
        ("netsim.ctx_switches_per_coll", plain.ctx_switches_per_coll),
        ("transport.nacks_per_coll", per_coll(rp.nacks_sent)),
        (
            "transport.nacks_suppressed_ratio",
            ratio(rp.nacks_suppressed, rp.nacks_sent + rp.nacks_suppressed),
        ),
        (
            "transport.retransmits_per_coll",
            per_coll(rp.retransmits_sent),
        ),
        (
            "transport.repairs_suppressed_per_coll",
            per_coll(rp.repairs_suppressed),
        ),
        ("transport.unavailable_sent", rp.unavailable_sent as f64),
        ("transport.advrs_per_coll", per_coll(rp.advrs_sent)),
        ("transport.wants_per_coll", per_coll(rp.wants_sent)),
        ("transport.pulls_per_coll", per_coll(rp.pulls_answered)),
        (
            "transport.dup_payloads_avoided_per_coll",
            per_coll(rp.duplicate_payloads_avoided),
        ),
        ("transport.udp_datagrams_per_coll", udp_datagrams / issued),
        (
            "core.bcast_wall_us_p50",
            percentile_us(&plain.wall_ns, Some(OpKind::Bcast), 50.0),
        ),
        (
            "core.barrier_wall_us_p50",
            percentile_us(&plain.wall_ns, Some(OpKind::Barrier), 50.0),
        ),
        (
            "core.allgather_wall_us_p50",
            percentile_us(&plain.wall_ns, Some(OpKind::Allgather), 50.0),
        ),
        (
            "core.bcast_fabric_us_p50",
            percentile_us(&plain.fabric_ns, Some(OpKind::Bcast), 50.0),
        ),
        (
            "core.barrier_fabric_us_p50",
            percentile_us(&plain.fabric_ns, Some(OpKind::Barrier), 50.0),
        ),
        (
            "core.coll_wall_us_p99",
            percentile_us(&plain.wall_ns, None, 99.0),
        ),
        ("proc.allocs_per_coll", plain.allocs_per_coll),
        ("core.self_share", share(b.self_ns)),
        ("transport.blocked_share", share(b.blocked_ns)),
        ("transport.post_share", share(b.post_ns)),
        ("transport.other_share", share(b.other_ns)),
        ("core.comm_calls_per_coll", ratio(b.comm_calls, b.colls)),
        ("trace.overhead_share", 1.0 - traced_rate / plain_rate),
    ];

    let trace_path = write_trace(w, &spans, plan.warmup())?;

    // The rungs share what is left of the time equally.
    let rung_count = PER_LAYER.len() - values.len();
    let left = (seconds * 1_000_000_000).saturating_sub(wall_ns() - begun);
    let budget = if quick {
        20_000_000
    } else {
        // Four fifths: calibration and set-up of a rung come on top.
        (left * 4 / 5 / rung_count as u64).clamp(20_000_000, 1_000_000_000)
    };
    values.extend(rungs::run_all(budget));

    out.metrics = in_dictionary_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values);
    out.notes = vec![
        format!(
            "{}: boundary counts from one repetition of {} collectives (seed {}), \
             shares from the same repetition traced",
            w.name(),
            plan.measured,
            plan.seed
        ),
        format!(
            "rank 0: {} collective spans, {} Comm-call spans; trace written to {}",
            b.colls,
            b.comm_calls,
            trace_path.display()
        ),
        format!("each isolated rung ran for {} ms", budget / 1_000_000),
    ];
    Ok(out)
}

/// `--check`: the same repetition twice; every fabric latency and every
/// count the simulator makes must come out identical.
pub fn check_determinism(spec: &Spec, ports: &mut Ports) -> Result<bool, String> {
    let w = spec.workload;
    if !w.is_sim() {
        return Err(format!("--check needs a sim_* workload, not {}", w.name()));
    }
    let plan = Spec {
        quick: true,
        ..*spec
    }
    .plan(0);
    let fingerprint = |rep: &Rep| {
        let net = rep.counts.net.clone().unwrap_or_default();
        (
            [
                net.frames_sent,
                net.datagrams_sent,
                net.mcast_datagrams_sent,
                net.total_drops(),
                net.wire_bytes_sent,
            ],
            rep.counts.repair,
            rep.fabric_ns.clone(),
        )
    };
    let first = run_rep(&plan, ports, None);
    let second = run_rep(&plan, ports, None);
    let same = fingerprint(&first) == fingerprint(&second);
    let clean = first.failed + second.failed == 0 && first.error.or(second.error).is_none();
    println!(
        "check {} seed {}: {} collectives twice, fabric latencies and counts {}",
        w.name(),
        plan.seed,
        plan.measured,
        if same { "identical" } else { "DIFFER" }
    );
    Ok(same && clean)
}
