//! [`Comm`] over real UDP and IP multicast sockets.
//!
//! This is the paper's actual data path: unicast UDP for scout messages
//! and one IP multicast send for the payload. Each rank owns
//!
//! * a point-to-point socket bound to `base_port + rank`, and
//! * a multicast socket bound to the shared group port with
//!   `SO_REUSEADDR`/`SO_REUSEPORT` set (the reason this crate needs
//!   `socket2` — std cannot set them before binding), joined to the
//!   communicator's class-D group.
//!
//! Ranks may be threads on one machine (the default: everything on the
//! loopback interface with `IP_MULTICAST_LOOP` enabled) or processes on a
//! LAN (set `iface`/`peers` accordingly).
//!
//! Buffer ownership: each socket read lands in one shared [`Bytes`]
//! buffer that flows to the reader channel, the reassembler, and (for
//! single-chunk messages) the matched [`Message`] itself without another
//! copy; each send concatenates a datagram's header and payload views
//! into one reusable scratch buffer — the sole copy a contiguous socket
//! write requires (kernel-side vectored IO would remove it; see
//! `docs/PERFORMANCE.md`). The NACK/retransmit repair loop policy lives
//! in [`EndpointCore`]; this file provides only the wall-clock
//! [`RepairPump`].

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use mmpi_wire::{Bytes, Datagram, Message, MsgKind, RepairStats};
use socket2::{Domain, Protocol, Socket, Type};

use crate::{
    CancelSink, Comm, EndpointCore, RecvError, RecvReq, RepairConfig, RepairPump, SendReq,
    SendWindowFull, Tag,
};

/// Addressing plan for a UDP world.
#[derive(Clone, Debug)]
pub struct UdpConfig {
    /// Rank `i` binds its point-to-point socket to `base_port + i`.
    pub base_port: u16,
    /// Multicast group address (class D).
    pub mcast_addr: Ipv4Addr,
    /// Port the whole group shares for multicast traffic.
    pub mcast_port: u16,
    /// Local interface address (loopback by default).
    pub iface: Ipv4Addr,
    /// Per-rank host addresses; defaults to `iface` for every rank
    /// (threads on one machine). Index = rank.
    pub peers: Option<Vec<Ipv4Addr>>,
    /// Communicator context id.
    pub context: u32,
    /// Maximum wire chunk per datagram.
    pub max_chunk: usize,
    /// NACK/retransmit repair loop; `None` (default) disables it. With
    /// repair on, blocked receives poll at `nack_timeout` wall-clock
    /// intervals and endpoints drain briefly on drop — never enable it in
    /// quick availability probes, which must give up fast instead of
    /// re-soliciting (see [`multicast_available`]).
    pub repair: Option<RepairConfig>,
    /// What [`Comm::multicast_capable`] reports. Default `true`
    /// (loopback multicast works on every supported platform); set
    /// `false` when the deployment network filters multicast — e.g.
    /// after a failed [`multicast_available`] probe — so algorithm
    /// selectors fall back to gossip dissemination.
    pub multicast_capable: bool,
}

impl UdpConfig {
    /// A loopback world rooted at `base_port` (multicast on
    /// `base_port - 1`).
    pub fn loopback(base_port: u16) -> Self {
        UdpConfig {
            base_port,
            mcast_addr: Ipv4Addr::new(239, 255, 77, 77),
            mcast_port: base_port - 1,
            iface: Ipv4Addr::LOCALHOST,
            peers: None,
            context: 0,
            max_chunk: mmpi_wire::DEFAULT_MAX_CHUNK,
            repair: None,
            multicast_capable: true,
        }
    }

    /// Builder-style: enable the repair loop with UDP defaults.
    pub fn with_repair(mut self) -> Self {
        self.repair = Some(RepairConfig::udp_default());
        self
    }

    fn peer_addr(&self, rank: usize) -> SocketAddrV4 {
        let ip = self.peers.as_ref().map(|p| p[rank]).unwrap_or(self.iface);
        SocketAddrV4::new(ip, self.base_port + rank as u16)
    }
}

fn reader_thread(
    sock: UdpSocket,
    via_mcast: bool,
    out: Sender<(Bytes, bool)>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        // One reusable receive buffer; each datagram is imported into a
        // freshly shared `Bytes` exactly once (the kernel-boundary copy)
        // and never copied again on its way to the application.
        let mut buf = vec![0u8; 65_536];
        while !stop.load(Ordering::Relaxed) {
            match sock.recv_from(&mut buf) {
                Ok((len, _from)) => {
                    if out
                        .send((Bytes::copy_from_slice(&buf[..len]), via_mcast))
                        .is_err()
                    {
                        break;
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
    })
}

/// The socket half of a UDP endpoint. Implements [`RepairPump`] over
/// wall-clock time.
struct UdpIo {
    cfg: UdpConfig,
    /// Used for all sends (unicast and multicast).
    tx: UdpSocket,
    rx: Receiver<(Bytes, bool)>,
    stop: Arc<AtomicBool>,
    readers: Vec<std::thread::JoinHandle<()>>,
    /// Reusable scratch for the contiguous socket write.
    scratch: Vec<u8>,
    /// Epoch of this endpoint's repair clock (wall nanos since creation).
    epoch: Instant,
}

impl UdpIo {
    fn ingest(core: &mut EndpointCore, bytes: &Bytes, via_mcast: bool) {
        // Malformed datagrams (stray traffic on our ports) are ignored.
        let _ = core.inbox.ingest_datagram_via(bytes, via_mcast);
    }

    /// Send encoded datagrams to an explicit address (unicast or the
    /// multicast group). The one copy here is the contiguous write a
    /// plain UDP socket demands.
    fn send_to_addr(&mut self, to: SocketAddrV4, dgs: &[Datagram]) {
        for d in dgs {
            self.scratch.clear();
            d.write_contiguous(&mut self.scratch);
            // UDP semantics: errors (e.g. peer gone) lose the datagram.
            let _ = self.tx.send_to(&self.scratch, to);
        }
    }

    fn mcast_addr(&self) -> SocketAddrV4 {
        SocketAddrV4::new(self.cfg.mcast_addr, self.cfg.mcast_port)
    }

    fn pump_chan(&mut self, core: &mut EndpointCore, timeout: Option<Duration>) -> bool {
        let item = match timeout {
            None => self.rx.recv().ok(),
            Some(t) => match self.rx.recv_timeout(t) {
                Ok(x) => Some(x),
                Err(RecvTimeoutError::Timeout) => return false,
                Err(RecvTimeoutError::Disconnected) => None,
            },
        };
        let Some((bytes, via_mcast)) = item else {
            panic!("UDP reader threads died");
        };
        Self::ingest(core, &bytes, via_mcast);
        true
    }
}

impl RepairPump for UdpIo {
    fn now(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<u64>) {
        match until {
            None => {
                self.pump_chan(core, None);
            }
            Some(at) => {
                let now = self.epoch.elapsed().as_nanos() as u64;
                if at > now {
                    self.pump_chan(core, Some(Duration::from_nanos(at - now)));
                }
            }
        }
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        match self.rx.try_recv() {
            Ok((bytes, via_mcast)) => {
                Self::ingest(core, &bytes, via_mcast);
                true
            }
            Err(_) => false,
        }
    }

    fn pump_drain(&mut self, core: &mut EndpointCore, quiet: Duration) -> bool {
        // Unlike pump_one, tolerate dead reader threads here: a hard
        // socket error must not turn teardown into a panic-in-Drop
        // (which would abort the process).
        match self.rx.recv_timeout(quiet) {
            Ok((bytes, via_mcast)) => {
                Self::ingest(core, &bytes, via_mcast);
                true
            }
            Err(_) => false,
        }
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        let to = self.cfg.peer_addr(dst);
        self.send_to_addr(to, datagrams);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        let to = self.mcast_addr();
        self.send_to_addr(to, datagrams);
    }

    fn send_solicit(&mut self, target: Option<usize>, datagrams: &[Datagram]) {
        // Multicast for suppression, plus a directed unicast so repair
        // still works where the environment silently eats multicast
        // (loopback sandboxes, containers); the target dedups the copy.
        self.send_encoded_mcast(datagrams);
        if let Some(t) = target {
            self.send_encoded(t, datagrams);
        }
    }
}

/// A communicator over real UDP/IP-multicast sockets.
pub struct UdpComm {
    io: UdpIo,
    core: EndpointCore,
}

impl UdpComm {
    /// Create the endpoint for `rank` of an `n`-rank world.
    pub fn new(rank: usize, n: usize, cfg: UdpConfig) -> io::Result<Self> {
        assert!(rank < n);
        // Point-to-point socket: also the sending socket for multicast.
        let p2p = Socket::new(Domain::IPV4, Type::DGRAM, Some(Protocol::UDP))?;
        p2p.set_reuse_address(true)?;
        let p2p_addr = SocketAddrV4::new(cfg.iface, cfg.base_port + rank as u16);
        p2p.bind(&SocketAddr::V4(p2p_addr).into())?;
        p2p.set_multicast_if_v4(&cfg.iface)?;
        p2p.set_multicast_loop_v4(true)?;
        let p2p: UdpSocket = p2p.into();

        // Multicast receive socket: every rank binds the same port.
        let mc = Socket::new(Domain::IPV4, Type::DGRAM, Some(Protocol::UDP))?;
        mc.set_reuse_address(true)?;
        #[cfg(unix)]
        mc.set_reuse_port(true)?;
        let mc_addr = SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, cfg.mcast_port);
        mc.bind(&SocketAddr::V4(mc_addr).into())?;
        mc.join_multicast_v4(&cfg.mcast_addr, &cfg.iface)?;
        let mc: UdpSocket = mc.into();

        let stop = Arc::new(AtomicBool::new(false));
        let (tx_chan, rx_chan) = bounded(4096);
        let p2p_reader = p2p.try_clone()?;
        p2p_reader.set_read_timeout(Some(Duration::from_millis(50)))?;
        mc.set_read_timeout(Some(Duration::from_millis(50)))?;
        let readers = vec![
            reader_thread(p2p_reader, false, tx_chan.clone(), Arc::clone(&stop)),
            reader_thread(mc, true, tx_chan, Arc::clone(&stop)),
        ];

        let core = EndpointCore::new(cfg.context, rank, n, cfg.max_chunk, cfg.repair);
        Ok(UdpComm {
            io: UdpIo {
                cfg,
                tx: p2p,
                rx: rx_chan,
                stop,
                readers,
                scratch: Vec::new(),
                // Real-network backend: the repair pump's time base is
                // wall time by definition (lint.toml carries the budget).
                #[allow(clippy::disallowed_methods)]
                epoch: Instant::now(),
            },
            core,
        })
    }

    /// Repair counters of this endpoint so far.
    pub fn repair_stats(&self) -> RepairStats {
        self.core.repair_stats()
    }
}

impl Drop for UdpComm {
    fn drop(&mut self) {
        // Drain: keep answering NACKs until the sockets have been quiet
        // for the grace period, so peers missing our final message can
        // still recover. Skipped while unwinding (a panicking rank must
        // not linger) — and bounded regardless, so a sandbox that drops
        // everything silently skips out after one quiet grace period.
        if !std::thread::panicking() {
            self.core.drain(&mut self.io);
        }
        self.io.stop.store(true, Ordering::Relaxed);
        for h in self.io.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Comm for UdpComm {
    fn rank(&self) -> usize {
        self.core.rank()
    }

    fn multicast_capable(&self) -> bool {
        self.io.cfg.multicast_capable
    }

    fn size(&self) -> usize {
        self.core.size()
    }

    fn context(&self) -> u32 {
        self.core.context()
    }

    fn send_kind(&mut self, dst: usize, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.core
            .send_message(&mut self.io, dst, tag, kind, payload)
    }

    fn mcast_kind(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes) -> u64 {
        self.core.mcast_message(&mut self.io, tag, kind, payload)
    }

    fn mcast_resend(&mut self, tag: Tag, kind: MsgKind, payload: &Bytes, seq: u64) {
        self.core
            .mcast_resend_message(&mut self.io, tag, kind, payload, seq);
    }

    fn post_recv(&mut self, src: Option<usize>, tag: Tag) -> RecvReq {
        self.core.post_recv(&mut self.io, src, tag)
    }

    fn progress(&mut self) {
        self.core.progress(&mut self.io);
    }

    fn progress_block(&mut self) {
        self.core.progress_block(&mut self.io);
    }

    fn test(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.core.test_req(&mut self.io, req)
    }

    fn test_claimed(&mut self, req: RecvReq) -> Option<Result<Message, RecvError>> {
        self.core.test_claimed(req)
    }

    fn wait(&mut self, req: RecvReq) -> Result<Message, RecvError> {
        self.core.wait_req(&mut self.io, req)
    }

    fn wait_deadline(
        &mut self,
        req: RecvReq,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        self.core.wait_req_deadline(&mut self.io, req, timeout)
    }

    fn wait_any(&mut self, reqs: &[RecvReq]) -> Result<(usize, Message), RecvError> {
        self.core.wait_any_req(&mut self.io, reqs)
    }

    fn wait_ready(&mut self, reqs: &[RecvReq]) {
        self.core.wait_ready(&mut self.io, reqs);
    }

    fn cancel_recv(&mut self, req: RecvReq) {
        self.core.cancel_req(req);
    }

    fn cancel_sink(&self) -> CancelSink {
        self.core.cancel_sink()
    }

    fn try_post_send(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &Bytes,
    ) -> Result<SendReq, SendWindowFull> {
        self.core
            .try_send_message(&mut self.io, dst, tag, payload)
            .map(SendReq::completed)
    }

    fn try_post_mcast(&mut self, tag: Tag, payload: &Bytes) -> Result<SendReq, SendWindowFull> {
        self.core
            .try_mcast_message(&mut self.io, tag, payload)
            .map(SendReq::completed)
    }

    fn compute(&mut self, d: Duration) {
        // Same contract as the simulator: with membership armed, sleep
        // in beacon-sized slices and emit the heartbeats that fall due,
        // so a long compute phase never reads as death to the peers.
        #[allow(clippy::disallowed_methods)] // real-network backend: wall time
        let end = Instant::now() + d;
        loop {
            #[allow(clippy::disallowed_methods)] // real-network backend: wall time
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            let step = match self.core.next_heartbeat_due() {
                Some(hb_at) => {
                    let until_hb = hb_at.saturating_sub(self.io.now()).max(1);
                    left.min(Duration::from_nanos(until_hb))
                }
                None => left,
            };
            std::thread::sleep(step);
            self.core.beacon_tick(&mut self.io);
        }
    }

    fn failed_peers(&self) -> Vec<usize> {
        self.core.failed_peers()
    }

    fn departed_peers(&self) -> Vec<usize> {
        self.core.departed_peers()
    }

    fn epoch(&self) -> u32 {
        self.core.epoch()
    }

    fn leave(&mut self) {
        self.core.leave(&mut self.io);
    }

    fn rebase_epoch(&mut self, epoch: u32) {
        self.core.rebase_epoch(epoch);
    }

    fn declare_failed(&mut self, rank: usize) {
        self.core.force_fail(rank);
    }
}

/// Build all `n` endpoints (so binds race-freely precede any traffic) and
/// run an SPMD closure with one thread per rank.
pub fn run_udp_world<F, R>(n: usize, cfg: &UdpConfig, f: F) -> io::Result<Vec<R>>
where
    F: Fn(UdpComm) -> R + Sync,
    R: Send,
{
    let mut comms = Vec::with_capacity(n);
    for rank in 0..n {
        comms.push(UdpComm::new(rank, n, cfg.clone())?);
    }
    let f = &f;
    Ok(std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| scope.spawn(move || f(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    }))
}

/// Like [`multicast_available`], but probes each `base_port` once per
/// process and caches the answer. Tests that skip-or-run several times
/// should use this so a sandboxed environment pays the probe timeout
/// once per port instead of once per call — while a stray bind conflict
/// on one port cannot poison the answer for a different one.
pub fn multicast_available_cached(base_port: u16) -> bool {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<u16, bool>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *cache
        .entry(base_port)
        .or_insert_with(|| multicast_available(base_port))
}

/// Quick probe: does IP multicast work in this environment (kernel,
/// container, CI)? Used by tests and examples to skip gracefully.
///
/// The probe runs with the repair loop **disabled** (and pins it off even
/// if the loopback default ever changes): in a sandbox where multicast
/// silently goes nowhere, a repair-enabled receive would keep NACKing to
/// its deadline and the endpoints would linger in their drain grace —
/// the probe must give its verdict in one bounded timeout instead.
pub fn multicast_available(base_port: u16) -> bool {
    let mut cfg = UdpConfig::loopback(base_port);
    cfg.repair = None;
    let probe = std::panic::catch_unwind(|| {
        run_udp_world(2, &cfg, |mut c| {
            if c.rank() == 0 {
                c.mcast(1, b"probe");
                // Wait for the ack so rank 1 has time to receive.
                matches!(
                    c.recv_match_timeout(1, 2, Duration::from_millis(500)),
                    Ok(Some(_))
                )
            } else {
                let ok = matches!(
                    c.recv_match_timeout(0, 1, Duration::from_millis(500)),
                    Ok(Some(_))
                );
                c.send(0, 2, b"ok");
                ok
            }
        })
    });
    matches!(probe, Ok(Ok(results)) if results.iter().all(|r| *r))
}
