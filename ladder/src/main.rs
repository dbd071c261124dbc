//! `ladder` — the fixed benchmark of this repository. One invocation runs
//! one workload for a set time and prints, as its last line, one JSON
//! object of named metrics. See `README.md` next to `Cargo.toml`.

mod alloc;
mod compare;
mod host;
mod json;
mod metrics;
mod ops;
mod pump;
mod run;
mod rungs;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use json::Value;
use ops::Workload;
use run::Spec;
use workload::Ports;

#[global_allocator]
static GAUGE: alloc::Gauge = alloc::Gauge;

/// A run that has not finished by then is stuck (a lost datagram on real
/// sockets that repair cannot recover, say): better to fail than to hang.
const WATCHDOG: Duration = Duration::from_secs(170);

const USAGE: &str = "\
usage: ladder --workload <name> --seed <u64> --seconds <n> --trace <0|1>
              [--quick] [--check] [--no-pin] [--base-port <u16>]
       ladder --compare <A> <B>

workloads: sim_paper_n8 sim_lossy_n64 sim_gossip_n32 udp_loopback_n2

  --trace 0   end-to-end metrics, tracing off
  --trace 1   per-layer metrics: boundary counts of the first repetition,
              one traced repetition (Chrome trace written under the build
              directory), and the isolated rungs
  --quick     one repetition of a quarter of the operations, rungs at their
              minimum; the output is marked not comparable
  --check     run one repetition of a sim_* workload twice with the same
              seed and require identical fabric latencies and counts
  --no-pin    run even when the process cannot be pinned to one CPU
  --compare   compare two files of captured output, workload by workload";

struct Args {
    spec: Spec,
    trace: bool,
    check: bool,
    pin: bool,
    base_port: Option<u16>,
}

enum Command {
    Run(Args),
    Compare(String, String),
    Help,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut quick, mut check, mut pin, mut base_port) = (false, false, true, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {s}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(number(value("a seed")?)?),
            "--seconds" => seconds = Some(number(value("a duration")?)?),
            "--trace" => trace = Some(number(value("0 or 1")?)? != 0),
            "--base-port" => {
                let port = number(value("a port")?)?;
                base_port = Some(u16::try_from(port).map_err(|_| format!("bad port {port}"))?);
            }
            "--quick" => quick = true,
            "--check" => check = true,
            "--no-pin" => pin = false,
            "--compare" => return Ok(Command::Compare(value("file A")?, value("file B")?)),
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(Args {
        spec: Spec {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            quick,
        },
        trace: trace.ok_or("--trace is required")?,
        check,
        pin,
        base_port,
    }))
}

fn header(args: &Args, facts: &host::HostFacts) -> Value {
    let cpus = |list: &[usize]| Value::Arr(list.iter().map(|&c| Value::Num(c as f64)).collect());
    Value::obj([(
        "ladder",
        Value::obj([
            ("workload", Value::str(args.spec.workload.name())),
            ("seed", Value::Num(args.spec.seed as f64)),
            ("seconds", Value::Num(args.spec.seconds as f64)),
            ("trace", Value::Bool(args.trace)),
            ("comparable", Value::Bool(!args.spec.quick)),
            ("nproc", Value::Num(facts.nproc as f64)),
            ("allowed_cpus", cpus(&facts.allowed_cpus)),
            ("pinned", Value::Bool(facts.pinned_cpu.is_some())),
            ("rustc", Value::str(&facts.rustc)),
            ("git_sha", Value::str(&facts.git_sha)),
        ]),
    )])
}

fn run(args: &Args, facts: &host::HostFacts) -> Result<bool, String> {
    if args.pin && facts.pinned_cpu.is_none() {
        return Err(
            "could not pin to one CPU: un-pinned wall times are bimodal (README); \
             pass --no-pin to run anyway"
                .to_owned(),
        );
    }
    println!("{}", header(args, facts).encode());
    let mut ports = Ports::new(args.base_port);
    let workload = args.spec.workload;
    if !workload.is_sim() && !workload::udp_multicast_available(&mut ports) {
        return Err(format!(
            "{}: IP multicast does not work on loopback here; the workload is not \
             run with another algorithm in its place",
            workload.name()
        ));
    }
    if args.check {
        return run::check_determinism(&args.spec, &mut ports);
    }
    let outcome = if args.trace {
        run::per_layer(&args.spec, &mut ports)?
    } else {
        run::end_to_end(&args.spec, &mut ports)?
    };
    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!("{}", outcome.result().encode());
    if !outcome.correct() {
        eprintln!("ladder: a correctness check failed");
    }
    Ok(outcome.correct())
}

/// [`run`] under a watchdog.
fn run_guarded(args: &Args) -> Result<bool, String> {
    // Pins before the first thread exists (the watchdog is one), so every
    // thread inherits the affinity.
    let facts = host::prepare(args.pin);
    let (done, wait) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if wait.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("ladder: still running after {WATCHDOG:?}; giving up");
            std::process::exit(3);
        }
    });
    let verdict = run(args, &facts);
    drop(done);
    let _ = watchdog.join();
    verdict
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ladder: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = match command {
        Command::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Command::Compare(a, b) => compare::compare_files(&a, &b),
        Command::Run(args) => run_guarded(&args),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::from(2)
        }
    }
}
