//! Scriptable topology faults (ISSUE 7): `TopologyScript` schedules
//! `hold` / `release` / `partition` / `heal` ops at sim times, and the
//! world applies them. The lockdown here is
//! the *hold contract*: a held frame is parked, never dropped — every
//! frame that enters a hold leaves it on `release` (or the final
//! `heal`), so `frames_held == frames_released` once the script is
//! done, and an application-level ARQ recovers through an arbitrary
//! mid-run fault schedule exactly as it would have in a fault-free
//! memory exchange.

use mmpi_netsim::cluster::{run_cluster, ClusterConfig};
use mmpi_netsim::ids::{DatagramDst, GroupId, HostId};
use mmpi_netsim::params::{FaultParams, NetParams};
use mmpi_netsim::time::{SimDuration, SimTime};
use mmpi_netsim::topology::TopologyScript;
use proptest::prelude::*;

const PORT: u16 = 4500;
const GROUP: GroupId = GroupId(7);

/// Rank `r`'s allgather contribution: a tagged payload whose byte sum
/// the receivers fold into their digest.
fn contribution(r: usize) -> Vec<u8> {
    let mut p = vec![b'D', r as u8];
    p.extend((0..254).map(|i| (r * 31 + i) as u8));
    p
}

fn payload_sum(p: &[u8]) -> u64 {
    p.iter().map(|&b| b as u64).sum()
}

/// What every rank must end up with: the byte sum of all `n`
/// contributions — the "memory" answer the lossy run has to match.
fn expected_digest(n: usize) -> u64 {
    (0..n).map(|r| payload_sum(&contribution(r))).sum()
}

/// A self-contained ARQ allgather over raw simulated UDP: each rank
/// re-multicasts its contribution every 500 µs until every peer has
/// unicast-acked it, acks every data datagram it sees, and finishes
/// with an ack-serving drain so late retransmitters still converge.
fn arq_allgather(p: &mut mmpi_netsim::process::SimProcess, n: usize) -> u64 {
    let me = p.rank();
    let s = p.bind(PORT);
    p.join_group(s, GROUP);
    let mine = contribution(me);
    let mut have = vec![false; n];
    let mut acked = vec![false; n];
    have[me] = true;
    acked[me] = true;
    let mut digest = payload_sum(&mine);

    let handle = |p: &mut mmpi_netsim::process::SimProcess,
                  d: &mmpi_netsim::frame::Datagram,
                  have: &mut [bool],
                  acked: &mut [bool],
                  digest: &mut u64| {
        match d.payload[0] {
            b'D' => {
                let r = d.payload[1] as usize;
                if !have[r] {
                    have[r] = true;
                    *digest += payload_sum(&d.payload.to_vec());
                }
                // Ack every copy: the sender retransmits until our ack
                // survives the fabric.
                let sock = s;
                p.send(
                    sock,
                    DatagramDst::Unicast(d.src_host),
                    PORT,
                    vec![b'A', me as u8],
                );
            }
            _ => acked[d.payload[1] as usize] = true,
        }
    };

    while !(have.iter().all(|&h| h) && acked.iter().all(|&a| a)) {
        p.send(s, DatagramDst::Multicast(GROUP), PORT, mine.clone());
        let until = p.now() + SimDuration::from_micros(500);
        while p.now() < until {
            let Some(d) = p.recv_timeout(s, until - p.now()) else {
                break;
            };
            handle(p, &d, &mut have, &mut acked, &mut digest);
        }
    }
    // Drain: keep answering data with acks until the fabric goes quiet
    // for 5 ms, so peers still retransmitting can finish too.
    while let Some(d) = p.recv_timeout(s, SimDuration::from_millis(5)) {
        handle(p, &d, &mut have, &mut acked, &mut digest);
    }
    digest
}

/// The headline scenario: an 8-rank ARQ allgather at 10 % loss. At
/// 300 µs the fabric partitions {2,3} off; at 400 µs frames 0→5 start
/// being *held* (parked, not dropped) until their 1.5 ms release; the
/// partition heals at 2 ms — well before anyone can drain, because
/// nobody can finish without the islanded ranks' data. Recovery must
/// produce the exact memory digest on every rank, the cut must have
/// eaten frames, and every held frame must have been released.
#[test]
fn partition_mid_allgather_heals_and_recovers() {
    let n = 8;
    let faults = FaultParams {
        drop_prob: 0.10,
        topology: TopologyScript::new()
            .partition(SimTime::from_micros(300), vec![vec![HostId(2), HostId(3)]])
            .hold(SimTime::from_micros(400), HostId(0), HostId(5))
            .release(SimTime::from_micros(1500), HostId(0), HostId(5))
            .heal(SimTime::from_micros(2000)),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_faults(faults);
    let cfg = ClusterConfig::new(n, params, 0x70F0);
    let report = run_cluster(&cfg, |mut p| arq_allgather(&mut p, n)).unwrap();

    assert_eq!(
        report.outputs,
        vec![expected_digest(n); n],
        "every rank must recover the full allgather digest"
    );
    assert!(
        report.stats.partition_drops > 0,
        "the cut must actually swallow traffic: {:?}",
        report.stats
    );
    assert!(
        report.stats.frames_held > 0,
        "the hold window must actually park frames: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.frames_held, report.stats.frames_released,
        "held frames are released, never dropped: {:?}",
        report.stats
    );
    assert!(
        report.stats.injected_frame_losses > 0,
        "the 10 % loss must also fire, so recovery crossed both fault \
         kinds: {:?}",
        report.stats
    );
}

/// Holds park directionally: while `hold(a, b)` is active, `a`'s frames
/// never reach `b`, and the parked copies arrive after the release —
/// late, in order, not dropped.
#[test]
fn held_frames_arrive_after_release_not_never() {
    let faults = FaultParams {
        topology: TopologyScript::new()
            .hold(SimTime::ZERO, HostId(0), HostId(1))
            .release(SimTime::from_micros(1000), HostId(0), HostId(1)),
        ..Default::default()
    };
    let params = NetParams::fast_ethernet_switch().with_faults(faults);
    let cfg = ClusterConfig::new(2, params, 9);
    let report = run_cluster(&cfg, |mut p| {
        let s = p.bind(PORT);
        if p.rank() == 0 {
            for k in 0..3u8 {
                p.send(s, DatagramDst::Unicast(HostId(1)), PORT, vec![k; 40]);
            }
            (Vec::new(), SimTime::ZERO)
        } else {
            let mut got = Vec::new();
            while let Some(d) = p.recv_timeout(s, SimDuration::from_millis(2)) {
                got.push(d.payload[0]);
            }
            (got, p.now())
        }
    })
    .unwrap();
    let (got, when) = &report.outputs[1];
    assert_eq!(got, &[0, 1, 2], "all parked frames arrive, in order");
    assert!(
        *when >= SimTime::from_micros(1000),
        "and only after the release instant (got them by {when})"
    );
    assert_eq!(report.stats.frames_held, 3);
    assert_eq!(report.stats.frames_released, 3);
    assert_eq!(report.stats.datagrams_delivered, 3);
}

/// Build an arbitrary interleaving of topology ops from a proptest
/// sample, always ending in a `heal` after the traffic window.
fn script_from(ops: &[(u64, u8, u32, u32)], heal_at_us: u64) -> TopologyScript {
    let mut script = TopologyScript::new();
    for &(t_us, kind, a, b) in ops {
        let at = SimTime::from_micros(50 + t_us);
        let (a, b) = (HostId(a), HostId(b));
        script = match kind % 3 {
            0 => script.hold(at, a, b),
            1 => script.release(at, a, b),
            _ => script.partition(at, vec![vec![a]]),
        };
    }
    script.heal(SimTime::from_micros(heal_at_us))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No interleaving of holds, releases and partitions can strand a
    /// frame: whatever the schedule does mid-run, the final heal clears
    /// every outstanding hold, so each parked frame is released — the
    /// run terminates and `frames_held == frames_released`.
    #[test]
    fn no_hold_release_interleaving_strands_a_frame(
        ops in proptest::collection::vec(
            (0u64..2500, any::<u8>(), 0u32..4, 0u32..4),
            0..10,
        ),
        seed in 1u64..1000,
    ) {
        let n = 4;
        let faults = FaultParams {
            topology: script_from(&ops, 4000),
            ..Default::default()
        };
        let params = NetParams::fast_ethernet_switch().with_faults(faults);
        let cfg = ClusterConfig::new(n, params, seed);
        let report = run_cluster(&cfg, |mut p| {
            let s = p.bind(PORT);
            p.join_group(s, GROUP);
            // Three spaced multicasts per rank so frames are in flight
            // across every op instant, then a drain.
            for k in 0..3u8 {
                p.compute(SimDuration::from_micros(400));
                p.send(s, DatagramDst::Multicast(GROUP), PORT, vec![k; 120]);
            }
            let mut got = 0u64;
            while p.recv_timeout(s, SimDuration::from_millis(3)).is_some() {
                got += 1;
            }
            got
        })
        .unwrap();
        prop_assert_eq!(
            report.stats.frames_held,
            report.stats.frames_released,
            "stranded frames after {:?}: {:?}",
            &ops,
            &report.stats
        );
    }
}
