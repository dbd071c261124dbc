//! The host side of a run: CPU pinning, context-switch counts and the
//! facts about the machine that go into the output header.
//!
//! `run_cluster` runs one OS thread per rank and passes a baton between
//! them, so where the scheduler puts the threads decides the wall time:
//! un-pinned, the identical run is bimodal on a two-core box (README,
//! "Why the process pins itself"). The harness therefore confines itself
//! to one CPU before it spawns anything.

use std::process::Command;

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the 13th is `ru_nvcsw`.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RU_NVCSW: usize = 12;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPUs this process may run on, lowest first (empty if the call fails).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confine the calling thread — and every thread it spawns afterwards —
/// to the lowest allowed CPU. Returns that CPU, or `None` if the kernel
/// refused.
pub fn pin_to_lowest_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed and is
    // only read; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some(cpu)
}

/// Voluntary context switches of the whole process so far (every thread,
/// finished ones included): one per rank↔driver hand-off that parked.
pub fn voluntary_ctx_switches() -> u64 {
    let mut ru = RUsage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage`-sized buffer with
    // the 64-bit Linux layout described on the type.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc == 0 {
        ru.longs[RU_NVCSW] as u64
    } else {
        0
    }
}

/// First line of a tool's output, or "unknown" when it cannot be run
/// (the driver's checkout is not a git repository, for one).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// What the header records about the machine and the build.
pub struct HostFacts {
    pub nproc: usize,
    pub allowed_cpus: Vec<usize>,
    pub pinned_cpu: Option<usize>,
    pub rustc: String,
    pub git_sha: String,
}

/// Gather the header facts and, unless `pin` is false, pin the process.
/// Must run before any thread is spawned: affinity is inherited at spawn.
pub fn prepare(pin: bool) -> HostFacts {
    // The netsim engine is chosen by `ClusterConfig::new`'s default; an
    // inherited worker count would silently measure another engine.
    std::env::remove_var("MMPI_SIM_WORKERS");
    let allowed = allowed_cpus();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = tool_line("rustc", &["-V"]);
    let git_sha = tool_line("git", &["rev-parse", "HEAD"]);
    let pinned_cpu = if pin { pin_to_lowest_cpu() } else { None };
    HostFacts {
        nproc,
        allowed_cpus: allowed,
        pinned_cpu,
        rustc,
        git_sha,
    }
}
