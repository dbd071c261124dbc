//! [`Comm`] over in-process channels — no network model at all.
//!
//! [`MemComm`] connects ranks with std `mpsc` channels: reliable, ordered,
//! zero latency. It exists so the *correctness* of collective algorithms
//! can be tested quickly and independently of both the simulator and real
//! sockets. It still goes through the wire encode/decode path, so header
//! bugs surface here too.
//!
//! The channels carry [`mmpi_wire::Datagram`] handles: a multicast to
//! `n - 1` peers splits the message once and fans out reference-counted
//! views — every receiver reads the sender's single encode buffer.
//!
//! Like the other backends, [`MemComm`] is an [`Endpoint`]: an
//! [`EndpointCore`] (request table, progress engine, wire bookkeeping)
//! over a thin [`RepairPump`] of channel primitives — mem simply never
//! arms the repair loop, since its fabric is lossless by construction.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use mmpi_wire::Datagram;

#[cfg(doc)]
use crate::Comm;
use crate::{Backend, Endpoint, EndpointCore, Nanos, RepairPump};

/// The channel half of an in-memory endpoint. Implements [`RepairPump`]
/// over wall-clock time (only timeouts ever read the clock — mem has no
/// time model).
pub struct MemIo {
    rank: usize,
    /// `senders[i]` delivers datagrams to rank `i`.
    senders: Vec<Sender<Datagram>>,
    rx: Receiver<Datagram>,
    /// Epoch of the timeout clock (wall nanos since endpoint creation).
    epoch: Instant,
}

impl MemIo {
    fn transmit_to(&self, dst: usize, dgs: &[Datagram]) {
        for d in dgs {
            // A dropped receiver just means that rank exited; UDP
            // semantics say the datagram silently disappears. Cloning a
            // datagram clones two `Bytes` handles, not its bytes.
            let _ = self.senders[dst].send(d.clone());
        }
    }
}

impl RepairPump for MemIo {
    fn now(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn pump_one(&mut self, core: &mut EndpointCore, until: Option<u64>) {
        match until {
            None => {
                // `senders` holds a sender to our own `rx`, so `recv` cannot
                // see every sender gone while this endpoint lives.
                if let Ok(d) = self.rx.recv() {
                    let _ = core.inbox.ingest_wire(&d, false);
                }
            }
            Some(at) => {
                let now = self.epoch.elapsed().as_nanos() as u64;
                if at > now {
                    match self.rx.recv_timeout(Duration::from_nanos(at - now)) {
                        Ok(d) => {
                            let _ = core.inbox.ingest_wire(&d, false);
                        }
                        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {}
                    }
                }
            }
        }
    }

    fn pump_ready(&mut self, core: &mut EndpointCore) -> bool {
        match self.rx.try_recv() {
            Ok(d) => {
                let _ = core.inbox.ingest_wire(&d, false);
                true
            }
            Err(_) => false,
        }
    }

    fn pump_drain(&mut self, core: &mut EndpointCore, quiet: Duration) -> bool {
        // Mem never arms repair, so this is never reached in practice;
        // implemented anyway for trait completeness.
        match self.rx.recv_timeout(quiet) {
            Ok(d) => {
                let _ = core.inbox.ingest_wire(&d, false);
                true
            }
            Err(_) => false,
        }
    }

    fn send_encoded(&mut self, dst: usize, datagrams: &[Datagram]) {
        self.transmit_to(dst, datagrams);
    }

    fn send_encoded_mcast(&mut self, datagrams: &[Datagram]) {
        for dst in 0..self.senders.len() {
            if dst != self.rank {
                self.transmit_to(dst, datagrams);
            }
        }
    }
}

/// The in-memory [`Backend`]: the endpoint and its channels, both the
/// rank's own. No time model, so [`Comm::compute`] is instantaneous.
pub struct MemBackend {
    io: MemIo,
    core: EndpointCore,
}

impl Backend for MemBackend {
    type Pump = MemIo;

    fn with<R>(&mut self, f: impl FnOnce(&mut EndpointCore, &mut MemIo) -> R) -> R {
        f(&mut self.core, &mut self.io)
    }

    fn peek<R>(&self, f: impl FnOnce(&EndpointCore) -> R) -> R {
        f(&self.core)
    }

    fn pass_time(&mut self, nanos: Nanos) -> Nanos {
        nanos
    }
}

/// One rank's endpoint of an in-memory world.
pub type MemComm = Endpoint<MemBackend>;

impl MemComm {
    /// Create a fully-connected world of `n` ranks with context id
    /// `context`. Returns one endpoint per rank (hand them to threads).
    pub fn world(n: usize, context: u32) -> Vec<MemComm> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Endpoint(MemBackend {
                    io: MemIo {
                        rank,
                        senders: senders.clone(),
                        rx,
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "MemComm is a real-threads backend; its recv deadlines are wall-clock waits, not simulated time"
                        )]
                        epoch: Instant::now(),
                    },
                    core: EndpointCore::new(context, rank, n, mmpi_wire::DEFAULT_MAX_CHUNK, None),
                })
            })
            .collect()
    }
}

/// Run an SPMD closure over an in-memory world with one thread per rank;
/// returns the per-rank outputs.
pub fn run_mem_world<F, R>(n: usize, context: u32, f: F) -> Vec<R>
where
    F: Fn(MemComm) -> R + Sync,
    R: Send,
{
    let comms = MemComm::world(n, context);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| scope.spawn(move || f(c)))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "reviewed: the world join re-raises a rank thread's panic"
        )]
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comm, RecvError};
    use mmpi_wire::{Bytes, Message, MsgKind};

    /// A blocking receive: a post, then a wait.
    fn recv(c: &mut MemComm, src: usize, tag: u32) -> Message {
        let req = c.post_recv(Some(src), tag);
        c.wait(req).unwrap()
    }

    /// [`recv`] with a timeout (`Ok(None)` on expiry).
    fn recv_timeout(
        c: &mut MemComm,
        src: usize,
        tag: u32,
        timeout: Duration,
    ) -> Result<Option<Message>, RecvError> {
        let req = c.post_recv(Some(src), tag);
        c.wait_deadline(req, timeout)
    }

    #[test]
    fn two_rank_ping_pong() {
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, b"ping");
                recv(&mut c, 1, 2).into_vec()
            } else {
                let m = recv(&mut c, 0, 1).into_vec();
                assert_eq!(m, b"ping");
                c.send(0, 2, b"pong");
                m
            }
        });
        assert_eq!(out[0], b"pong");
    }

    #[test]
    fn mcast_reaches_all_but_self() {
        let out = run_mem_world(4, 0, |mut c| {
            if c.rank() == 0 {
                c.mcast(9, b"hello");
                b"hello".to_vec()
            } else {
                recv(&mut c, 0, 9).into_vec()
            }
        });
        assert!(out.iter().all(|o| o == b"hello"));
    }

    /// A shrink is one vote round with no barrier, so a survivor that has
    /// already rebased talks to one that has not. Without membership the
    /// rebase must change nothing: under a fresh context that message
    /// would be dropped as foreign, and with repair off never re-sent.
    #[test]
    fn a_rebased_rank_still_reaches_one_that_has_not_rebased() {
        use std::time::Duration;
        let out = run_mem_world(2, 7, |mut c| {
            if c.rank() == 0 {
                c.rebase_epoch(1);
                c.send(1, 5, b"after");
            } else {
                let got = recv_timeout(&mut c, 0, 5, Duration::from_secs(10));
                assert_eq!(got.unwrap().expect("dropped as foreign").payload, b"after");
                c.rebase_epoch(1);
            }
            (c.context(), c.epoch())
        });
        assert_eq!(out, vec![(7, 0); 2]);
    }

    #[test]
    fn mcast_fanout_shares_one_encode_buffer() {
        // The observable guarantee behind the zero-copy fan-out: every
        // receiver gets byte-identical data from one multicast of a
        // shared payload.
        let payload = Bytes::from(vec![42u8; 10_000]);
        let expect = payload.to_vec();
        let out = run_mem_world(5, 0, move |mut c| {
            if c.rank() == 0 {
                c.mcast_kind(9, MsgKind::Data, &payload);
                Vec::new()
            } else {
                recv(&mut c, 0, 9).into_vec()
            }
        });
        assert!(out[1..].iter().all(|o| *o == expect));
    }

    #[test]
    fn recv_timeout_expires() {
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                // Never send.
                true
            } else {
                recv_timeout(&mut c, 0, 1, Duration::from_millis(20))
                    .unwrap()
                    .is_none()
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn resend_is_deduplicated() {
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                let once = Bytes::from(&b"once"[..]);
                let seq = c.mcast(3, once.clone());
                c.mcast_resend(3, MsgKind::Data, &once, seq);
                c.mcast_resend(3, MsgKind::Data, &once, seq);
                // Give the duplicates time to land, then signal done.
                c.send(1, 4, b"done");
                0
            } else {
                recv(&mut c, 0, 3).into_vec();
                recv(&mut c, 0, 4).into_vec();
                // Only the tag-3 original should have matched; duplicates
                // are suppressed, so nothing else with tag 3 is pending.
                usize::from(
                    recv_timeout(&mut c, 0, 3, Duration::from_millis(10))
                        .unwrap()
                        .is_some(),
                )
            }
        });
        assert_eq!(out[1], 0);
    }

    #[test]
    fn large_message_chunks_through_channels() {
        let payload: Vec<u8> = (0..200_000usize).map(|i| i as u8).collect();
        let expect = payload.clone();
        let out = run_mem_world(2, 0, move |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, &payload);
                Vec::new()
            } else {
                recv(&mut c, 0, 1).into_vec()
            }
        });
        assert_eq!(out[1], expect);
    }

    #[test]
    fn out_of_order_tags_buffer() {
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                c.send(1, 10, b"first");
                c.send(1, 20, b"second");
                Vec::new()
            } else {
                // Receive in reverse tag order.
                let b = recv(&mut c, 0, 20).into_vec();
                let a = recv(&mut c, 0, 10).into_vec();
                [a, b].concat()
            }
        });
        assert_eq!(out[1], b"firstsecond");
    }

    #[test]
    fn posted_requests_complete_in_post_order() {
        // Two receives posted for the same matcher: messages claim them
        // FIFO both ways.
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                c.send(1, 7, b"first");
                c.send(1, 7, b"second");
                Vec::new()
            } else {
                let a = c.post_recv(Some(0), 7);
                let b = c.post_recv(Some(0), 7);
                // Wait the *later* one first: it must get the *second*
                // message (post order is the matching priority).
                let mb = c.wait(b).unwrap();
                let ma = c.wait(a).unwrap();
                assert_eq!(ma.payload, b"first");
                assert_eq!(mb.payload, b"second");
                ma.into_vec()
            }
        });
        assert_eq!(out[1], b"first");
    }

    #[test]
    fn wait_any_returns_whichever_completes() {
        let out = run_mem_world(3, 0, |mut c| {
            match c.rank() {
                0 => {
                    // Only rank 0 sends; rank 2's wait_any must complete
                    // via the rank-0 request while the rank-1 request
                    // stays pending (and is then cancelled).
                    c.send(2, 5, b"from-zero");
                    0
                }
                1 => 0,
                _ => {
                    let r0 = c.post_recv(Some(0), 5);
                    let r1 = c.post_recv(Some(1), 5);
                    let (idx, m) = c.wait_any(&[r0, r1]).unwrap();
                    assert_eq!(idx, 0);
                    assert_eq!(m.payload, b"from-zero");
                    c.cancel_recv(r1);
                    idx
                }
            }
        });
        assert_eq!(out[2], 0);
    }

    #[test]
    fn test_claims_and_retires() {
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, b"x");
                true
            } else {
                let req = c.post_recv(Some(0), 3);
                // Poll until the progress engine completes it.
                loop {
                    if let Some(r) = c.test(req) {
                        assert_eq!(r.unwrap().payload, b"x");
                        break;
                    }
                    std::thread::yield_now();
                }
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn cancelled_request_does_not_steal_later_traffic() {
        let out = run_mem_world(2, 0, |mut c| {
            if c.rank() == 0 {
                c.send(1, 9, b"payload");
                true
            } else {
                // Cancel an unfulfilled posted receive, then receive the
                // same traffic through a fresh request: nothing is lost.
                let stale = c.post_recv(Some(0), 9);
                c.cancel_recv(stale);
                let m = recv(&mut c, 0, 9);
                assert_eq!(m.payload, b"payload");
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }
}
