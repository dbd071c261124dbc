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
//! A rank reads its own sockets, as the paper's processes do: a
//! [`UdpComm`] owns no thread. A blocking wait is one `ppoll(2)` on both
//! descriptors (through the `socket2` shim's `poll`) with the engine's
//! deadline as its timeout, followed by nonblocking reads of whichever
//! socket it reported — which stays marked ready, and is read before the
//! next wait, until a read comes back empty. The kernel's socket buffers
//! are therefore the only receive queue; [`UdpComm::new`] asks for
//! [`RECV_BUFFER_BYTES`] on each.
//!
//! Buffer ownership: each socket read lands in one reusable 64 KiB buffer
//! and is imported into a shared [`Bytes`] exactly once (the
//! kernel-boundary copy), which flows to the reassembler and (for
//! single-chunk messages) the matched [`mmpi_wire::Message`] itself without another
//! copy; each send concatenates a datagram's header and payload views
//! into one reusable scratch buffer — the sole copy a contiguous socket
//! write requires (kernel-side vectored IO would remove it; see
//! `docs/PERFORMANCE.md`). The NACK/retransmit repair loop policy lives
//! in [`EndpointCore`]; this file provides only the wall-clock
//! [`RepairPump`].
//!
//! Errors: UDP semantics throughout. A failed read loses that wake-up, a
//! failed send loses that datagram (the repair loop is what recovers
//! either), and a failed wait degrades to polling the nonblocking sockets
//! every millisecond — nothing here panics or blocks forever on
//! a socket error. The one thing a send never does is turn a *full send
//! buffer* into a drop: it waits for writability and retries.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

use mmpi_wire::{Bytes, Datagram};
use socket2::{Domain, PollFd, Protocol, Socket, Type};

use crate::{Backend, Comm, Endpoint, EndpointCore, Nanos, RepairConfig, RepairPump};

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

/// Kernel receive buffer requested for each socket, best effort (the
/// kernel clamps to `net.core.rmem_max`): room for a burst of a few dozen
/// maximum-size datagrams while the rank is busy elsewhere.
pub const RECV_BUFFER_BYTES: usize = 4 << 20;

/// How long a pump pauses when the readiness wait itself fails (kernel
/// out of memory, in practice) before it polls the sockets directly.
const WAIT_FAILED_PAUSE: Duration = Duration::from_millis(1);

/// The socket half of a UDP endpoint. Implements [`RepairPump`] over
/// wall-clock time.
pub struct UdpIo {
    cfg: UdpConfig,
    /// `[point-to-point, multicast]`, both nonblocking. All sends
    /// (unicast and multicast) leave through the first.
    socks: [UdpSocket; 2],
    /// Per socket: the last wait reported it readable and no read has
    /// come back empty since.
    ready: [bool; 2],
    /// Which socket [`UdpIo::recv_ready`] tries first; alternates per
    /// datagram so a flood on one cannot starve the other.
    turn: usize,
    /// Reusable receive buffer (one maximum-size UDP datagram).
    rx_buf: Vec<u8>,
    /// Reusable scratch for the contiguous socket write.
    scratch: Vec<u8>,
    /// Epoch of this endpoint's repair clock (wall nanos since creation).
    epoch: Instant,
}

impl UdpIo {
    /// Send encoded datagrams to an explicit address (unicast or the
    /// multicast group). The one copy here is the contiguous write a
    /// plain UDP socket demands.
    fn send_to_addr(&mut self, to: SocketAddrV4, dgs: &[Datagram]) {
        let tx = &self.socks[0];
        for d in dgs {
            self.scratch.clear();
            d.write_contiguous(&mut self.scratch);
            loop {
                match tx.send_to(&self.scratch, to) {
                    // Send buffer full: wait for room, never drop.
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if socket2::poll(&mut [PollFd::writable(tx)], None).is_err() {
                            std::thread::sleep(WAIT_FAILED_PAUSE);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // UDP semantics: errors (e.g. peer gone) lose the datagram.
                    _ => break,
                }
            }
        }
    }

    fn mcast_addr(&self) -> SocketAddrV4 {
        SocketAddrV4::new(self.cfg.mcast_addr, self.cfg.mcast_port)
    }

    /// Read one datagram from a socket marked ready into `core`'s inbox.
    /// Returns whether one was ingested; a socket whose read comes back
    /// empty (or failed) loses its mark.
    fn recv_ready(&mut self, core: &mut EndpointCore) -> bool {
        for k in 0..2 {
            let i = (self.turn + k) % 2;
            if !self.ready[i] {
                continue;
            }
            match self.socks[i].recv_from(&mut self.rx_buf) {
                Ok((len, _from)) => {
                    self.turn = 1 - i;
                    let bytes = Bytes::copy_from_slice(&self.rx_buf[..len]);
                    // Malformed datagrams (stray traffic on our ports)
                    // are ignored.
                    let _ = core.inbox.ingest_datagram_via(&bytes, i == 1);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.ready[i] = false,
            }
        }
        false
    }

    /// Wait up to `timeout` (`None`: indefinitely) for either socket to
    /// become readable and mark the ready ones. A wait that fails marks
    /// both after a short pause: the sockets are nonblocking, so reading
    /// them is always safe and the pump degrades to polling.
    fn wait_readable(&mut self, timeout: Option<Duration>) {
        let [p2p, mc] = &self.socks;
        let mut fds = [PollFd::readable(p2p), PollFd::readable(mc)];
        match socket2::poll(&mut fds, timeout) {
            Ok(_) => {
                for (mark, fd) in self.ready.iter_mut().zip(&fds) {
                    *mark |= fd.is_ready();
                }
            }
            Err(_) => {
                std::thread::sleep(timeout.map_or(WAIT_FAILED_PAUSE, |t| t.min(WAIT_FAILED_PAUSE)));
                self.ready = [true; 2];
            }
        }
    }

    /// Receive one datagram into `core`, waiting for it until the repair
    /// clock reads `until` (`None`: as long as it takes). Returns whether
    /// one was ingested.
    fn pump_until(&mut self, core: &mut EndpointCore, until: Option<u64>) -> bool {
        loop {
            if self.recv_ready(core) {
                return true;
            }
            let timeout = match until {
                None => None,
                Some(at) => match at.checked_sub(RepairPump::now(self)) {
                    Some(left) if left > 0 => Some(Duration::from_nanos(left)),
                    _ => return false,
                },
            };
            self.wait_readable(timeout);
        }
    }
}

impl RepairPump for UdpIo {
    fn now(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<u64>) {
        self.pump_until(core, until);
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        if self.recv_ready(core) {
            return true;
        }
        self.wait_readable(Some(Duration::ZERO));
        self.recv_ready(core)
    }

    fn pump_drain(&mut self, core: &mut EndpointCore, quiet: Duration) -> bool {
        let until = RepairPump::now(self).saturating_add(quiet.as_nanos() as u64);
        self.pump_until(core, Some(until))
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

/// The real-socket [`Backend`]: the endpoint and its two sockets, both
/// the rank's own. [`Comm::compute`] sleeps.
pub struct UdpBackend {
    io: UdpIo,
    core: EndpointCore,
    recv_buffer_bytes: usize,
}

impl Backend for UdpBackend {
    type Pump = UdpIo;

    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut UdpIo) -> R) -> R {
        f(&mut self.core, &mut self.io)
    }

    fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R {
        f(&self.core)
    }

    fn multicast_capable(&self) -> bool {
        self.io.cfg.multicast_capable
    }

    fn pass_time(&mut self, nanos: Nanos) -> Nanos {
        let start = self.io.now();
        std::thread::sleep(Duration::from_nanos(nanos));
        self.io.now() - start
    }
}

/// A communicator over real UDP/IP-multicast sockets. Its drop-time drain
/// is bounded, so a sandbox that drops everything silently skips out after
/// one quiet grace period.
pub type UdpComm = Endpoint<UdpBackend>;

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
        // Best effort: a refusal leaves the default-sized buffer.
        let _ = p2p.set_recv_buffer_size(RECV_BUFFER_BYTES);
        let p2p_granted = p2p.recv_buffer_size().unwrap_or(0);
        let p2p: UdpSocket = p2p.into();

        // Multicast receive socket: every rank binds the same port.
        let mc = Socket::new(Domain::IPV4, Type::DGRAM, Some(Protocol::UDP))?;
        mc.set_reuse_address(true)?;
        #[cfg(unix)]
        mc.set_reuse_port(true)?;
        let mc_addr = SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, cfg.mcast_port);
        mc.bind(&SocketAddr::V4(mc_addr).into())?;
        mc.join_multicast_v4(&cfg.mcast_addr, &cfg.iface)?;
        let _ = mc.set_recv_buffer_size(RECV_BUFFER_BYTES);
        let recv_buffer_bytes = p2p_granted.min(mc.recv_buffer_size().unwrap_or(0));
        let mc: UdpSocket = mc.into();
        p2p.set_nonblocking(true)?;
        mc.set_nonblocking(true)?;

        let core = EndpointCore::new(cfg.context, rank, n, cfg.max_chunk, cfg.repair);
        Ok(Endpoint(UdpBackend {
            io: UdpIo {
                cfg,
                socks: [p2p, mc],
                ready: [false; 2],
                turn: 0,
                rx_buf: vec![0u8; 65_536],
                scratch: Vec::new(),
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the real-UDP repair pump is wall time by definition: RTT samples, NACK pacing and readiness-wait timeouts measure the actual network"
                )]
                epoch: Instant::now(),
            },
            core,
            recv_buffer_bytes,
        }))
    }

    /// The smaller of the two sockets' kernel receive buffers, in bytes as
    /// the kernel accounts them — what [`RECV_BUFFER_BYTES`] was granted
    /// as. The kernel buffer is the only receive queue, so this bounds the
    /// burst a rank busy elsewhere can absorb without loss.
    pub fn recv_buffer_bytes(&self) -> usize {
        self.0.recv_buffer_bytes
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
        #[expect(
            clippy::expect_used,
            reason = "reviewed: the world join re-raises a rank thread's panic; socket errors never panic (module docs, \"Errors\")"
        )]
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
            let heard = |c: &mut UdpComm, src, tag| {
                let req = c.post_recv(Some(src), tag);
                matches!(
                    c.wait_deadline(req, Duration::from_millis(500)),
                    Ok(Some(_))
                )
            };
            if c.rank() == 0 {
                c.mcast(1, b"probe");
                // Wait for the ack so rank 1 has time to receive.
                heard(&mut c, 1, 2)
            } else {
                let ok = heard(&mut c, 0, 1);
                c.send(0, 2, b"ok");
                ok
            }
        })
    });
    matches!(probe, Ok(Ok(results)) if results.iter().all(|r| *r))
}
