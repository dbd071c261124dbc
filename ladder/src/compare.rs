//! `ladder --compare A B`: two files of captured output (any number of
//! runs each, concatenated), compared workload by workload.
//!
//! A run is its header line followed by its result line. Runs are grouped
//! by workload and `--trace`. Each metric's **median over the group's
//! runs** in B is judged against the median in A: end-to-end metrics get
//! a verdict against the dictionary's bounds (one run on a shared host
//! can sit in a slow spell from start to finish; a median of ten does
//! not). Metrics the simulator's clock or counters produce must, on top,
//! be *identical* in every pair of runs with the same seed (and, for the
//! pooled end-to-end quantiles, the same number of samples).

use crate::json::{parse, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::median_f64;

#[derive(Debug)]
struct Run {
    workload: String,
    trace: bool,
    seed: f64,
    comparable: bool,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Every header + result pair in `text`; other lines are ignored.
fn runs_in(text: &str) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut header: Option<Value> = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = parse(line) else { continue };
        if let Some(h) = v.get("ladder") {
            header = Some(h.clone());
        } else if let (Some(h), Some(metrics)) = (&header, v.get("metrics")) {
            let field = |k: &str| h.get(k).cloned().unwrap_or(Value::Null);
            runs.push(Run {
                workload: field("workload").as_str().unwrap_or("?").to_owned(),
                trace: field("trace").as_bool().unwrap_or(false),
                seed: field("seed").as_f64().unwrap_or(-1.0),
                comparable: field("comparable").as_bool().unwrap_or(false),
                correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
                attempted: v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
                failed: v.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
                metrics: metrics
                    .fields()
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            });
            header = None;
        }
    }
    runs
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Bound (end-to-end metrics only), direction and exactness of `name`.
fn dictionary(name: &str) -> Option<(Better, Option<f64>, bool)> {
    let e2e = END_TO_END.iter().find(|m| m.name == name);
    let layer = PER_LAYER.iter().find(|m| m.name == name);
    match (e2e, layer) {
        (Some(m), _) => Some((m.better, Some(m.bound), m.exact_on_sim)),
        (None, Some(m)) => Some((m.better, None, m.exact_on_sim)),
        (None, None) => None,
    }
}

fn median_of(runs: &[&Run], name: &str) -> Option<f64> {
    let values: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect();
    (!values.is_empty()).then(|| median_f64(&values))
}

/// Compare the runs of one workload and trace mode, printing a row per
/// metric. True = no finding.
fn compare_group(a: &[&Run], b: &[&Run]) -> bool {
    let mut ok = true;
    let first = a[0];
    let failed = |runs: &[&Run]| runs.iter().map(|r| r.failed).sum::<f64>();
    println!(
        "\n{} (trace {}): {} run(s) vs {}, failed collectives {} vs {}",
        first.workload,
        first.trace as u8,
        a.len(),
        b.len(),
        failed(a),
        failed(b)
    );
    if a.iter().chain(b).any(|r| !r.correct || r.failed > 0.0) {
        println!("  FAIL: a run reported failed collectives");
        ok = false;
    }
    let comparable = a.iter().chain(b).all(|r| r.comparable);
    if !comparable {
        println!("  note: a --quick run is not comparable; deltas are shown without verdicts");
    }
    println!(
        "  {:<42} {:>14} {:>14} {:>9} {:>6}  verdict",
        "metric", "median A", "median B", "worse %", "bound"
    );
    for (name, _) in &first.metrics {
        let Some((better, bound, exact)) = dictionary(name) else {
            println!("  {name:<42} not in the dictionary");
            ok = false;
            continue;
        };
        let (Some(va), Some(vb)) = (median_of(a, name), median_of(b, name)) else {
            println!("  {name:<42} missing from B");
            ok = false;
            continue;
        };
        let worse = worse_by(va, vb, better);
        let mut verdict = match bound {
            Some(bound) if comparable && worse > bound => {
                ok = false;
                "REGRESSION".to_owned()
            }
            Some(_) if comparable => "ok".to_owned(),
            _ => String::new(),
        };
        if exact && comparable && first.workload.starts_with("sim_") {
            // Every pair of runs on the same inputs. The pooled end-to-end
            // quantiles repeat only over the same number of samples.
            let pairs = a.iter().flat_map(|ra| {
                b.iter()
                    .filter(move |rb| {
                        rb.seed == ra.seed && (bound.is_none() || rb.attempted == ra.attempted)
                    })
                    .map(move |rb| (*ra, *rb))
            });
            let value = |r: &Run| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (mut same, mut differ) = (0, 0);
            for (ra, rb) in pairs {
                if value(ra) == value(rb) {
                    same += 1;
                } else {
                    differ += 1;
                }
            }
            if differ > 0 {
                ok = false;
                verdict = format!("MISMATCH in {differ} pair(s) at equal seed");
            } else if same > 0 {
                verdict += &format!(" identical in {same} pair(s) at equal seed");
            }
        }
        println!(
            "  {name:<42} {va:>14.4} {vb:>14.4} {:>9.2} {:>6}  {}",
            worse * 100.0,
            bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
            verdict.trim_start()
        );
    }
    ok
}

/// The runs of one workload and trace mode.
fn group_of<'r>(runs: &'r [Run], key: (&str, bool)) -> Vec<&'r Run> {
    runs.iter()
        .filter(|r| (r.workload.as_str(), r.trace) == key)
        .collect()
}

/// Compare every workload and trace mode of `a` with the same in `b`.
fn compare_texts(a: &str, b: &str) -> Result<bool, String> {
    let (runs_a, runs_b) = (runs_in(a), runs_in(b));
    if runs_a.is_empty() {
        return Err("A holds no ladder run (a header line followed by a result line)".to_owned());
    }
    let mut ok = true;
    let mut seen: Vec<(&str, bool)> = Vec::new();
    for ra in &runs_a {
        let key = (ra.workload.as_str(), ra.trace);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (ga, gb) = (group_of(&runs_a, key), group_of(&runs_b, key));
        if gb.is_empty() {
            println!("\n{} (trace {}): missing from B", key.0, key.1 as u8);
            ok = false;
        } else {
            ok &= compare_group(&ga, &gb);
        }
    }
    println!(
        "\nverdict: {}",
        if ok { "within bounds" } else { "FINDINGS" }
    );
    Ok(ok)
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    compare_texts(&read(a)?, &read(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn captured(workload: &str, seed: u64, coll_per_s: f64, fabric_p50: f64) -> String {
        let header = Value::obj([(
            "ladder",
            Value::obj([
                ("workload", Value::str(workload)),
                ("seed", Value::Num(seed as f64)),
                ("trace", Value::Bool(false)),
                ("comparable", Value::Bool(true)),
            ]),
        )]);
        let metric =
            |v: f64, unit: &str| Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))]);
        let result = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(28000.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                Value::obj([
                    ("coll_per_s", metric(coll_per_s, "1/s")),
                    ("fabric_lat_us_p50", metric(fabric_p50, "us")),
                ]),
            ),
        ]);
        format!(
            "{}\n# a note\ncoll_per_s 1 1/s\n{}\n",
            header.encode(),
            result.encode()
        )
    }

    #[test]
    fn results_survive_the_write_parse_round_trip() {
        let runs = runs_in(&captured("sim_paper_n8", 7, 1_803.416_275_9, 843.076));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "sim_paper_n8");
        assert_eq!(runs[0].seed, 7.0);
        assert_eq!(
            runs[0].metrics,
            [
                ("coll_per_s".to_owned(), 1_803.416_275_9),
                ("fabric_lat_us_p50".to_owned(), 843.076)
            ]
        );
    }

    #[test]
    fn wall_clock_metrics_are_judged_against_their_bound() {
        let a = captured("udp_loopback_n2", 1, 18000.0, 60.0);
        assert_eq!(
            compare_texts(&a, &captured("udp_loopback_n2", 2, 17000.0, 63.0)),
            Ok(true)
        );
        // Fewer collectives per second than the bound allows.
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "coll_per_s")
            .unwrap()
            .bound;
        let slower = 18000.0 * (1.0 - bound - 0.02);
        assert_eq!(
            compare_texts(&a, &captured("udp_loopback_n2", 2, slower, 60.0)),
            Ok(false)
        );
        // Getting better is never a finding.
        assert_eq!(
            compare_texts(&a, &captured("udp_loopback_n2", 2, 30000.0, 20.0)),
            Ok(true)
        );
    }

    #[test]
    fn virtual_time_must_be_identical_at_equal_seed() {
        let a = captured("sim_paper_n8", 5, 1800.0, 843.076);
        assert_eq!(
            compare_texts(&a, &captured("sim_paper_n8", 5, 1790.0, 843.076)),
            Ok(true)
        );
        assert_eq!(
            compare_texts(&a, &captured("sim_paper_n8", 5, 1790.0, 843.077)),
            Ok(false)
        );
        // At another seed the bound applies instead.
        assert_eq!(
            compare_texts(&a, &captured("sim_paper_n8", 6, 1790.0, 843.9)),
            Ok(true)
        );
    }

    #[test]
    fn a_missing_workload_is_a_finding() {
        let a = captured("sim_paper_n8", 5, 1800.0, 843.0);
        assert_eq!(
            compare_texts(&a, &captured("sim_lossy_n64", 5, 33.0, 13000.0)),
            Ok(false)
        );
        assert!(compare_texts("no runs here", &a).is_err());
    }
}
