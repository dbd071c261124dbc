//! The metric dictionary: every name the ladder reports, fixed. The same
//! tables are in `BENCHMARK.json` (a unit test keeps the two equal) and,
//! with definitions, in `README.md`.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
    /// Read on the simulator's virtual clock on `sim_*` workloads, so it
    /// repeats exactly for a fixed seed and repetition count.
    pub exact_on_sim: bool,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact_on_sim: false,
    },
    EndToEnd {
        name: "coll_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact_on_sim: false,
    },
    EndToEnd {
        name: "coll_wall_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact_on_sim: false,
    },
    EndToEnd {
        name: "fabric_lat_us_p50",
        unit: "us",
        better: Lower,
        bound: 0.20,
        exact_on_sim: true,
    },
    EndToEnd {
        name: "fabric_lat_us_p99",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact_on_sim: true,
    },
    EndToEnd {
        name: "peak_live_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        exact_on_sim: false,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the simulator makes: identical on `sim_*` workloads for a
    /// fixed seed, whatever the host does.
    pub exact_on_sim: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact_on_sim: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact_on_sim: true,
    }
}

pub const PER_LAYER: [PerLayer; 50] = [
    // Isolated rungs.
    timed("wire.split_assemble_ns_1k", "ns", Lower),
    timed("wire.split_assemble_ns_64k_mtu", "ns", Lower),
    timed("wire.rtx_record_replay_ns_64k", "ns", Lower),
    timed("wire.codec_ns_nack", "ns", Lower),
    timed("wire.codec_ns_horizon", "ns", Lower),
    timed("wire.codec_ns_gossip", "ns", Lower),
    timed("wire.allocs_per_msg_64k_mtu", "count", Lower),
    timed("transport.send_deliver_ns_plain", "ns", Lower),
    timed("transport.send_deliver_ns_srm", "ns", Lower),
    timed("transport.send_deliver_ns_adaptive", "ns", Lower),
    timed("transport.send_deliver_ns_membership", "ns", Lower),
    timed("transport.send_deliver_ns_gossip", "ns", Lower),
    timed("transport.progress_idle_ns_plain", "ns", Lower),
    timed("transport.progress_idle_ns_allplanes", "ns", Lower),
    timed("transport.nack_repair_ns", "ns", Lower),
    timed("transport.allocs_per_send_deliver_srm", "count", Lower),
    timed("netsim.storm_deliveries_per_s_n256", "1/s", Higher),
    timed("netsim.storm_deliveries_per_s_n1024", "1/s", Higher),
    timed("netsim.driver_roundtrip_ns", "ns", Lower),
    timed("netsim.cluster_spawn_us_n64", "us", Lower),
    timed("cluster.trial_wall_ms_n16", "ms", Lower),
    // Counts at the layer boundaries of the workload's first repetition.
    exact("netsim.frames_per_coll", "count", Lower),
    exact("netsim.datagrams_per_coll", "count", Lower),
    exact("netsim.mcast_datagram_share", "ratio", Higher),
    exact("netsim.drops_per_coll", "count", Lower),
    exact("netsim.wire_bytes_per_coll", "B", Lower),
    timed("netsim.ctx_switches_per_coll", "count", Lower),
    exact("transport.nacks_per_coll", "count", Lower),
    exact("transport.nacks_suppressed_ratio", "ratio", Higher),
    exact("transport.retransmits_per_coll", "count", Lower),
    exact("transport.repairs_suppressed_per_coll", "count", Higher),
    exact("transport.unavailable_sent", "count", Lower),
    exact("transport.advrs_per_coll", "count", Lower),
    exact("transport.wants_per_coll", "count", Lower),
    exact("transport.pulls_per_coll", "count", Lower),
    exact("transport.dup_payloads_avoided_per_coll", "count", Higher),
    timed("transport.udp_datagrams_per_coll", "count", Lower),
    timed("core.bcast_wall_us_p50", "us", Lower),
    timed("core.barrier_wall_us_p50", "us", Lower),
    timed("core.allgather_wall_us_p50", "us", Lower),
    exact("core.bcast_fabric_us_p50", "us", Lower),
    exact("core.barrier_fabric_us_p50", "us", Lower),
    timed("core.coll_wall_us_p99", "us", Lower),
    timed("proc.allocs_per_coll", "count", Lower),
    // The traced repetition.
    timed("core.self_share", "ratio", Lower),
    timed("transport.blocked_share", "ratio", Higher),
    timed("transport.post_share", "ratio", Lower),
    timed("transport.other_share", "ratio", Lower),
    timed("core.comm_calls_per_coll", "count", Lower),
    timed("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::ops::Workload;

    fn names(list: &Value) -> Vec<String> {
        let Value::Arr(items) = list else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_owned())
            .collect()
    }

    /// `BENCHMARK.json` at the repository root must describe exactly what
    /// this binary reports.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads = names(doc.get("workloads").unwrap());
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let Some(Value::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end missing")
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(theirs.get("name").unwrap().as_str(), Some(ours.name));
            assert_eq!(theirs.get("unit").unwrap().as_str(), Some(ours.unit));
            assert_eq!(
                theirs.get("better").unwrap().as_str(),
                Some(ours.better.name())
            );
            assert_eq!(theirs.get("bound").unwrap().as_f64(), Some(ours.bound));
        }

        let Some(Value::Arr(layers)) = doc.get("per_layer") else {
            panic!("per_layer missing")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(theirs.get("name").unwrap().as_str(), Some(ours.name));
            assert_eq!(theirs.get("unit").unwrap().as_str(), Some(ours.unit));
            assert_eq!(
                theirs.get("better").unwrap().as_str(),
                Some(ours.better.name())
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a metric name is used twice");
    }
}
