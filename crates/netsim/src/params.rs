//! Model parameters for the simulated testbed.
//!
//! Defaults reproduce the paper's platform: 100 Mbps Fast Ethernet, either a
//! shared hub (one CSMA/CD collision domain) or a store-and-forward managed
//! switch with IGMP multicast awareness, and late-1990s commodity host
//! software overheads (MPICH over UDP sockets on Pentium-III Linux boxes).
//! Absolute host-overhead constants are calibration knobs — the figures the
//! harness regenerates depend on their rough magnitude, not exact values.
//!
//! # Fault-injection knobs
//!
//! [`FaultParams`] turns the lossless testbed into an adversarial one. All
//! probabilities are per *frame arrival on one receiving link* (so a
//! multicast frame crossing a 4-port switch rolls four independent dice),
//! all draws come from a dedicated deterministic RNG stream, and every
//! knob defaults to "off":
//!
//! | knob | unit | default | effect |
//! |---|---|---|---|
//! | `drop_prob` | probability per link-arrival | 0.0 | frame silently lost |
//! | `dup_prob` | probability per delivered frame | 0.0 | frame delivered twice |
//! | `reorder_prob` | probability per delivered frame | 0.0 | frame delayed |
//! | `reorder_max_delay` | virtual time | 500 µs | bound on the extra delay |
//! | `per_link_drop` | list of `(host, prob)` | empty | per-link override of `drop_prob` |
//! | `per_link_extra_delay` | list of `(host, delay)` | empty | extra latency on frames arriving at `host` |
//! | `topology` | scheduled ops | empty | scripted holds / partitions / heals ([`TopologyScript`]) |
//!
//! [`FaultParams`] is the simulator's one loss model: the fabrics
//! themselves are lossless apart from what they model physically
//! (collisions on the hub, tail drop at a switch port).

use crate::ids::HostId;
use crate::time::SimDuration;
use crate::topology::TopologyScript;

/// Ethernet physical/MAC layer constants.
#[derive(Clone, Debug)]
pub struct EthernetParams {
    /// Link bandwidth in bits per second (100 Mbps Fast Ethernet).
    pub bandwidth_bps: u64,
    /// Preamble + start-frame-delimiter bytes (7 + 1).
    pub preamble_bytes: u32,
    /// MAC header bytes (dst 6 + src 6 + ethertype 2).
    pub mac_header_bytes: u32,
    /// Frame check sequence bytes.
    pub fcs_bytes: u32,
    /// Inter-frame gap, expressed in byte-times (12 bytes = 96 bit-times).
    pub ifg_bytes: u32,
    /// Minimum MAC payload (frames are padded up to this).
    pub min_payload_bytes: u32,
    /// Maximum MAC payload (the IP MTU).
    pub mtu_bytes: u32,
    /// One-way propagation delay across a cable segment.
    pub prop_delay: SimDuration,
    /// CSMA/CD slot time (512 bit-times) used for collision backoff.
    pub slot_time: SimDuration,
    /// Cap on the binary-exponential-backoff exponent (IEEE 802.3: 10).
    pub max_backoff_exp: u32,
    /// Attempts before a frame is dropped as undeliverable (IEEE 802.3: 16).
    pub max_attempts: u32,
}

impl Default for EthernetParams {
    fn default() -> Self {
        EthernetParams {
            bandwidth_bps: 100_000_000,
            preamble_bytes: 8,
            mac_header_bytes: 14,
            fcs_bytes: 4,
            ifg_bytes: 12,
            min_payload_bytes: 46,
            mtu_bytes: 1500,
            prop_delay: SimDuration::from_nanos(500),
            // 512 bit-times at 100 Mbps = 5.12 us.
            slot_time: SimDuration::from_nanos(5_120),
            max_backoff_exp: 10,
            max_attempts: 16,
        }
    }
}

impl EthernetParams {
    /// Time to serialize `n` bytes onto the wire.
    #[inline]
    pub fn byte_time(&self, n: u64) -> SimDuration {
        // ns = bytes * 8 bits * 1e9 / bps. For 100 Mbps this is 80 ns/byte.
        SimDuration::from_nanos(n * 8 * 1_000_000_000 / self.bandwidth_bps)
    }

    /// Total wire occupancy of a frame carrying `payload` MAC-payload bytes:
    /// preamble + header + padded payload + FCS, **excluding** the
    /// inter-frame gap (accounted separately so back-to-back frames space
    /// correctly).
    pub fn frame_wire_time(&self, payload: u32) -> SimDuration {
        self.byte_time(u64::from(self.frame_wire_bytes(payload)))
    }

    /// Bytes a frame carrying `payload` MAC-payload bytes puts on the
    /// wire: preamble + header + padded payload + FCS (no gap).
    pub fn frame_wire_bytes(&self, payload: u32) -> u32 {
        let padded = payload.max(self.min_payload_bytes);
        self.preamble_bytes + self.mac_header_bytes + padded + self.fcs_bytes
    }

    /// The inter-frame gap duration.
    #[inline]
    pub fn ifg_time(&self) -> SimDuration {
        self.byte_time(self.ifg_bytes as u64)
    }

    /// Wire time of a frame plus the mandatory gap before the next one.
    pub fn frame_slot(&self, payload: u32) -> SimDuration {
        self.frame_wire_time(payload) + self.ifg_time()
    }
}

/// IP/UDP encapsulation constants.
#[derive(Clone, Debug)]
pub struct IpParams {
    /// IPv4 header bytes (no options).
    pub ip_header_bytes: u32,
    /// UDP header bytes.
    pub udp_header_bytes: u32,
}

impl Default for IpParams {
    fn default() -> Self {
        IpParams {
            ip_header_bytes: 20,
            udp_header_bytes: 8,
        }
    }
}

impl IpParams {
    /// Number of Ethernet frames needed for a UDP payload of `len` bytes
    /// under MTU `mtu`, following IPv4 fragmentation rules (fragment data
    /// sizes are multiples of 8 except the last).
    pub fn fragments_for(&self, len: u32, mtu: u32) -> u32 {
        let ip_payload = len + self.udp_header_bytes;
        let max_frag_data = (mtu - self.ip_header_bytes) & !7; // multiple of 8
        if ip_payload <= mtu - self.ip_header_bytes {
            return 1;
        }
        ip_payload.div_ceil(max_frag_data)
    }

    /// MAC payload length (IP header + fragment data) of fragment `i` of a
    /// UDP payload of `len` bytes, `i` in `0..fragments_for(len, mtu)`.
    pub fn fragment_mac_payload(&self, len: u32, mtu: u32, i: u32) -> u32 {
        let ip_payload = len + self.udp_header_bytes;
        let nfrags = self.fragments_for(len, mtu);
        if nfrags == 1 {
            return self.ip_header_bytes + ip_payload;
        }
        let max_frag_data = (mtu - self.ip_header_bytes) & !7;
        if i + 1 < nfrags {
            self.ip_header_bytes + max_frag_data
        } else {
            self.ip_header_bytes + (ip_payload - max_frag_data * (nfrags - 1))
        }
    }
}

/// Host software model (LogP-style fixed + per-byte costs).
#[derive(Clone, Debug)]
pub struct HostParams {
    /// Fixed CPU cost to post a UDP send (syscall + stack traversal).
    pub o_send: SimDuration,
    /// Fixed CPU cost to complete a UDP receive.
    pub o_recv: SimDuration,
    /// Cost of injecting kernel-generated traffic (the TCP-ack model used
    /// for the MPICH-over-TCP baseline): acks are produced inside the
    /// kernel, far cheaper than an application send.
    pub o_kernel_send: SimDuration,
    /// Per-byte copy cost on send (user -> kernel -> NIC).
    pub send_per_byte: SimDuration,
    /// Per-byte copy cost on receive.
    pub recv_per_byte: SimDuration,
    /// Socket receive buffer capacity in bytes; datagrams arriving when the
    /// buffer is full are dropped (the classic fast-sender overrun).
    pub rx_buffer_bytes: usize,
    /// The paper's loss model (§1/§2): when true a datagram is discarded
    /// unless a receive is already posted on the matching socket — the
    /// behaviour the scout synchronization exists to protect against.
    pub strict_posted_recv: bool,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            o_send: SimDuration::from_micros(55),
            o_recv: SimDuration::from_micros(50),
            o_kernel_send: SimDuration::from_micros(6),
            send_per_byte: SimDuration::from_nanos(12),
            recv_per_byte: SimDuration::from_nanos(12),
            rx_buffer_bytes: 64 * 1024,
            strict_posted_recv: false,
        }
    }
}

/// When the switch may begin forwarding a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchMode {
    /// Receive the complete frame before forwarding (the paper's managed
    /// Fast Ethernet switch; adds one full frame time per hop).
    StoreAndForward,
    /// Begin forwarding after the destination address is in — models the
    /// low-latency fabrics of the paper's future-work section. The value
    /// is the number of bytes that must arrive before cut-through starts
    /// (≥ 14 for the MAC header; 64 models fragment-free cut-through).
    CutThrough {
        /// Bytes received before forwarding starts.
        header_bytes: u32,
    },
}

/// Switch model (store-and-forward or cut-through).
#[derive(Clone, Debug)]
pub struct SwitchParams {
    /// Forwarding start rule.
    pub mode: SwitchMode,
    /// Fixed processing latency between frame receipt (per
    /// [`SwitchMode`]) and the frame entering the output queue (lookup +
    /// switching fabric).
    pub forwarding_latency: SimDuration,
    /// Per-output-port FIFO capacity in bytes; overflowing frames are
    /// dropped (tail drop).
    pub port_buffer_bytes: usize,
    /// When true the fabric forwards **no** multicast frames at all —
    /// they are dropped at the switch and tallied in
    /// [`crate::stats::NetStats::unicast_only_drops`]. Models networks
    /// with multicast routing disabled (most WANs, many cloud fabrics),
    /// the regime the epidemic Advr/Want dissemination plane exists for
    /// (`docs/PROTOCOL.md` §11).
    pub unicast_only: bool,
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams {
            mode: SwitchMode::StoreAndForward,
            forwarding_latency: SimDuration::from_micros(10),
            port_buffer_bytes: 512 * 1024,
            unicast_only: false,
        }
    }
}

/// Fault-injection parameters (see the module docs for the knob table).
///
/// All faults are applied at the receiving end of a link — after the frame
/// has occupied the wire and been forwarded, mirroring where real loss
/// happens (a NIC or port dropping an arrived frame). Draws come from an
/// RNG stream forked *independently* of the backoff/skew streams, so
/// enabling faults never perturbs the timing of the surviving frames, and
/// a lossy run replays byte-identically for a fixed seed.
#[derive(Clone, Debug)]
pub struct FaultParams {
    /// Probability an arriving frame is dropped on a link (per receiver).
    /// Unit: probability in `[0, 1]`. Default `0.0`.
    pub drop_prob: f64,
    /// Probability a delivered frame is delivered a second time, one frame
    /// slot later. Unit: probability in `[0, 1]`. Default `0.0`.
    pub dup_prob: f64,
    /// Probability a delivered frame is held back and re-injected after a
    /// uniform extra delay in `(0, reorder_max_delay]`, letting frames
    /// behind it overtake. Unit: probability in `[0, 1]`. Default `0.0`.
    pub reorder_prob: f64,
    /// Upper bound on the extra delay of a reordered frame.
    /// Unit: virtual time. Default 500 µs (a few large-frame slots).
    pub reorder_max_delay: SimDuration,
    /// Per-receiving-link overrides of `drop_prob`: `(host, prob)` makes
    /// every frame arriving at `host`'s link roll `prob` instead of the
    /// global default. Default: empty.
    pub per_link_drop: Vec<(HostId, f64)>,
    /// Heterogeneous link latency: `(host, delay)` adds `delay` to every
    /// frame arriving at `host`'s link (a slow last hop — longer cable
    /// run, congested edge port, WAN-ish member). Applied *after* the
    /// fault dice with no RNG draw of its own, so turning it on never
    /// perturbs which frames the other knobs hit. Default: empty.
    pub per_link_extra_delay: Vec<(HostId, SimDuration)>,
    /// Scheduled topology faults — holds, partitions, heals (see
    /// [`TopologyScript`]). The old one-shot partition window is
    /// [`TopologyScript::partition_window`]. Default: empty.
    pub topology: TopologyScript,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_max_delay: SimDuration::from_micros(500),
            per_link_drop: Vec::new(),
            per_link_extra_delay: Vec::new(),
            topology: TopologyScript::default(),
        }
    }
}

impl FaultParams {
    /// A uniform-loss preset: every link drops with probability `p`.
    pub fn uniform_loss(p: f64) -> Self {
        FaultParams {
            drop_prob: p,
            ..Default::default()
        }
    }

    /// Effective drop probability for frames arriving at `dst`'s link.
    #[inline]
    pub fn drop_prob_for(&self, dst: HostId) -> f64 {
        self.per_link_drop
            .iter()
            .find(|(h, _)| *h == dst)
            .map(|(_, p)| *p)
            .unwrap_or(self.drop_prob)
    }

    /// Extra latency for frames arriving at `dst`'s link (zero unless
    /// overridden by `per_link_extra_delay`).
    #[inline]
    pub fn extra_delay_for(&self, dst: HostId) -> SimDuration {
        self.per_link_extra_delay
            .iter()
            .find(|(h, _)| *h == dst)
            .map(|(_, d)| *d)
            .unwrap_or(SimDuration::from_nanos(0))
    }

    /// True when no knob is set — the fast path never rolls the RNG.
    #[inline]
    pub fn is_inert(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.reorder_prob <= 0.0
            && self.per_link_drop.is_empty()
            && self.per_link_extra_delay.is_empty()
            && self.topology.is_empty()
    }
}

/// Which fabric connects the hosts.
#[derive(Clone, Debug)]
pub enum FabricKind {
    /// Shared Fast Ethernet hub: one collision domain, physical broadcast.
    Hub,
    /// Managed store-and-forward switch with per-port full-duplex links.
    Switch(SwitchParams),
}

/// Complete parameter set for a simulated cluster.
#[derive(Clone, Debug)]
pub struct NetParams {
    /// Ethernet MAC/PHY constants.
    pub ethernet: EthernetParams,
    /// IP/UDP encapsulation constants.
    pub ip: IpParams,
    /// Host software costs.
    pub host: HostParams,
    /// Hub or switch.
    pub fabric: FabricKind,
    /// Injected faults: per-link loss, duplication, reordering, partitions
    /// (all off by default; see [`FaultParams`]).
    pub faults: FaultParams,
    /// When true, every host tracks which `mcast-mpi` Data chunks have
    /// crossed its receiving link and tallies repeats in
    /// [`crate::stats::LinkStats::duplicate_data_chunks`]. Pure
    /// bookkeeping (no RNG, no timing effect) but off by default to keep
    /// the memory footprint of long runs flat.
    pub track_payload_crossings: bool,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            ethernet: EthernetParams::default(),
            ip: IpParams::default(),
            host: HostParams::default(),
            fabric: FabricKind::Switch(SwitchParams::default()),
            faults: FaultParams::default(),
            track_payload_crossings: false,
        }
    }
}

impl NetParams {
    /// Preset: the paper's shared Fast Ethernet hub.
    pub fn fast_ethernet_hub() -> Self {
        NetParams {
            fabric: FabricKind::Hub,
            ..Default::default()
        }
    }

    /// Preset: the paper's managed Fast Ethernet switch.
    pub fn fast_ethernet_switch() -> Self {
        NetParams {
            fabric: FabricKind::Switch(SwitchParams::default()),
            ..Default::default()
        }
    }

    /// Builder-style: inject uniform per-link frame loss with probability
    /// `p` (the headline fault-injection knob; see [`FaultParams`]).
    pub fn with_loss(mut self, p: f64) -> Self {
        self.faults.drop_prob = p;
        self
    }

    /// Builder-style: replace the whole fault plan.
    pub fn with_faults(mut self, faults: FaultParams) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: disable multicast forwarding on the switch fabric
    /// (see [`SwitchParams::unicast_only`]).
    ///
    /// # Panics
    ///
    /// On a hub fabric — a shared hub is physical broadcast, there is no
    /// switch to filter at.
    #[expect(
        clippy::panic,
        reason = "a builder misuse at setup time, before any simulation runs: a hub has no switch to filter at"
    )]
    pub fn with_unicast_only(mut self) -> Self {
        match &mut self.fabric {
            FabricKind::Switch(sp) => sp.unicast_only = true,
            FabricKind::Hub => panic!("unicast_only needs a switch fabric"),
        }
        self
    }

    /// Does this fabric drop all multicast frames (see
    /// [`SwitchParams::unicast_only`])? A hub is physical broadcast, so it
    /// is never unicast-only. Transports use this to report
    /// multicast capability to algorithm selectors.
    pub fn is_unicast_only(&self) -> bool {
        match &self.fabric {
            FabricKind::Switch(sp) => sp.unicast_only,
            FabricKind::Hub => false,
        }
    }

    /// Builder-style: enable per-link payload-crossing tracking (see
    /// [`NetParams::track_payload_crossings`]).
    pub fn with_payload_tracking(mut self) -> Self {
        self.track_payload_crossings = true;
        self
    }

    /// Preset: the paper's §5 future-work target — a VIA-like low-latency
    /// fabric. Cut-through switching with microsecond forwarding, small
    /// host overheads (user-level networking), and — like VIA's posted
    /// receive descriptors — the strict rule that a multicast is lost
    /// unless a receive is already posted. The scout synchronization is
    /// exactly what makes multicast collectives safe here.
    pub fn via_like() -> Self {
        NetParams {
            ethernet: EthernetParams {
                prop_delay: SimDuration::from_nanos(200),
                ..Default::default()
            },
            host: HostParams {
                o_send: SimDuration::from_micros(5),
                o_recv: SimDuration::from_micros(4),
                o_kernel_send: SimDuration::from_nanos(500),
                send_per_byte: SimDuration::from_nanos(2),
                recv_per_byte: SimDuration::from_nanos(2),
                strict_posted_recv: true,
                ..Default::default()
            },
            fabric: FabricKind::Switch(SwitchParams {
                mode: SwitchMode::CutThrough { header_bytes: 64 },
                forwarding_latency: SimDuration::from_micros(1),
                ..Default::default()
            }),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_time_is_80ns_at_100mbps() {
        let e = EthernetParams::default();
        assert_eq!(e.byte_time(1).as_nanos(), 80);
        assert_eq!(e.byte_time(1500).as_nanos(), 120_000);
    }

    #[test]
    fn min_frame_is_padded() {
        let e = EthernetParams::default();
        // 8 + 14 + 46 + 4 = 72 bytes minimum on the wire.
        assert_eq!(e.frame_wire_time(0).as_nanos(), 72 * 80);
        assert_eq!(e.frame_wire_time(10).as_nanos(), 72 * 80);
        assert_eq!(e.frame_wire_time(46).as_nanos(), 72 * 80);
        assert_eq!(e.frame_wire_time(47).as_nanos(), 73 * 80);
    }

    #[test]
    fn ifg_is_96_bit_times() {
        let e = EthernetParams::default();
        assert_eq!(e.ifg_time().as_nanos(), 960);
    }

    #[test]
    fn single_fragment_small_payload() {
        let ip = IpParams::default();
        assert_eq!(ip.fragments_for(0, 1500), 1);
        assert_eq!(ip.fragments_for(100, 1500), 1);
        // 1472 data + 8 UDP header = 1480 = exactly one MTU of IP payload.
        assert_eq!(ip.fragments_for(1472, 1500), 1);
        assert_eq!(ip.fragments_for(1473, 1500), 2);
    }

    #[test]
    fn paper_frame_count_formula_matches() {
        // Paper: floor(M/T) + 1 frames for an M-byte message, T = MTU.
        // Our IPv4 fragmentation gives the same count for the paper's sizes.
        let ip = IpParams::default();
        for m in [0u32, 500, 1000, 2000, 3000, 4000, 5000] {
            let paper = m / 1500 + 1;
            assert_eq!(ip.fragments_for(m, 1500), paper, "M = {m}");
        }
    }

    #[test]
    fn fragment_payload_sizes_sum_correctly() {
        let ip = IpParams::default();
        for len in [0u32, 1, 1472, 1473, 2960, 5000, 20000] {
            let n = ip.fragments_for(len, 1500);
            let total: u32 = (0..n)
                .map(|i| ip.fragment_mac_payload(len, 1500, i) - ip.ip_header_bytes)
                .sum();
            assert_eq!(total, len + ip.udp_header_bytes, "len = {len}");
            for i in 0..n {
                let mac = ip.fragment_mac_payload(len, 1500, i);
                assert!(mac <= 1500, "fragment over MTU for len = {len}");
            }
        }
    }

    #[test]
    fn fault_defaults_are_inert() {
        let f = FaultParams::default();
        assert!(f.is_inert());
        assert!(!FaultParams::uniform_loss(0.1).is_inert());
        assert!(NetParams::default().faults.is_inert());
        assert!(!NetParams::default().with_loss(0.01).faults.is_inert());
    }

    #[test]
    fn per_link_drop_overrides_global() {
        let f = FaultParams {
            drop_prob: 0.1,
            per_link_drop: vec![(HostId(2), 0.5)],
            ..Default::default()
        };
        assert_eq!(f.drop_prob_for(HostId(0)), 0.1);
        assert_eq!(f.drop_prob_for(HostId(2)), 0.5);
    }

    #[test]
    fn topology_script_makes_faults_non_inert() {
        let f = FaultParams {
            topology: TopologyScript::partition_window(
                crate::time::SimTime::from_micros(10),
                SimDuration::from_micros(5),
                vec![HostId(0), HostId(1)],
            ),
            ..Default::default()
        };
        assert!(!f.is_inert());
    }

    #[test]
    fn presets_pick_fabric() {
        assert!(matches!(
            NetParams::fast_ethernet_hub().fabric,
            FabricKind::Hub
        ));
        assert!(matches!(
            NetParams::fast_ethernet_switch().fabric,
            FabricKind::Switch(_)
        ));
    }
}
