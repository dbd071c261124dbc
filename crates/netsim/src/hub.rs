//! Shared Fast Ethernet hub: one CSMA/CD collision domain.
//!
//! A hub is a physical-layer repeater — every frame reaches every station,
//! and only one transmission can occupy the medium at a time. Stations that
//! find the medium busy defer (1-persistent CSMA); stations that start
//! simultaneously collide, jam, and retry after truncated binary exponential
//! backoff.
//!
//! This module owns the hub's whole frame path: arbitration, the collision
//! backoff (drawn from the hub's own seeded stream) and delivery to every
//! station. The [`World`](crate::world::World) hands it the [`HubEvent`]s
//! and the state every fabric shares; the last hop onto each station's
//! link is the world's.
//!
//! ## Model simplifications (documented deviations)
//!
//! Collisions are detected at arbitration instants: whenever the medium
//! becomes free (or an idle-medium transmission is requested), every station
//! with a pending frame and an expired backoff contends; two or more
//! contenders at the same instant collide. The sub-slot-time race where a
//! second station begins transmitting within one propagation delay of the
//! first is folded into this same-instant rule. This preserves the
//! collision behaviour that matters for the paper — synchronized
//! algorithm steps making several stations transmit at once (its §4
//! six-process anomaly) — while keeping the simulation deterministic.

use crate::event::Event;
use crate::frame::Frame;
use crate::ids::HostId;
use crate::rng::SplitMix64;
use crate::time::SimTime;
use crate::trace::TraceEvent;
use crate::world::Core;

/// A step of the hub's frame path.
#[derive(Debug)]
pub enum HubEvent {
    /// The medium is (about to be) free — pick the next transmitter among
    /// contending NICs, or detect a collision.
    Arbitrate,
    /// The last bit of a frame has propagated to every station.
    FrameDelivered {
        /// The frame that finished.
        frame: Frame,
    },
    /// A NIC's collision backoff expired; it contends again.
    NicRetry {
        /// The backing-off station.
        host: HostId,
    },
}

/// Arbitration outcome at a medium-free instant.
#[derive(Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// Nobody wanted the medium.
    Idle,
    /// A single station acquired the medium and transmits.
    Winner(HostId),
    /// Two or more stations collided.
    Collision(Vec<HostId>),
}

/// Hub medium state.
#[derive(Debug)]
pub struct Hub {
    /// Stations (their NICs) waiting for the medium, in request order.
    waiters: Vec<HostId>,
    /// The medium is occupied (transmission or jam + inter-frame gap)
    /// until this instant.
    busy_until: SimTime,
    /// A [`HubEvent::Arbitrate`] is already scheduled for this instant.
    arbitrate_scheduled_at: Option<SimTime>,
    /// Collision backoff draws.
    rng: SplitMix64,
}

impl Hub {
    /// New idle hub whose collision backoff draws from `seed`.
    pub fn new(seed: u64) -> Self {
        Hub {
            waiters: Vec::new(),
            busy_until: SimTime::ZERO,
            arbitrate_scheduled_at: None,
            rng: SplitMix64::new(seed),
        }
    }

    /// A station requests the medium at time `now`. Returns the instant at
    /// which an arbitration event must fire, or `None` if one is already
    /// scheduled early enough to cover this request.
    pub fn request(&mut self, host: HostId, now: SimTime) -> Option<SimTime> {
        if !self.waiters.contains(&host) {
            self.waiters.push(host);
        }
        let fire_at = now.max(self.busy_until);
        match self.arbitrate_scheduled_at {
            // An arbitration at or after `fire_at` but no later than the
            // medium-free instant will see this waiter; if the scheduled one
            // is earlier than we need, it will simply re-schedule itself.
            Some(t) if t <= fire_at => None,
            _ => {
                self.arbitrate_scheduled_at = Some(fire_at);
                Some(fire_at)
            }
        }
    }

    /// Run arbitration at time `now`. Stations in `waiters` contend; the
    /// caller handles the outcome (start a transmission, or back everyone
    /// off). On a collision all contenders are removed from the wait list —
    /// they re-`request` when their backoff expires.
    pub fn arbitrate(&mut self, now: SimTime) -> Arbitration {
        self.arbitrate_scheduled_at = None;
        if now < self.busy_until {
            // Stale event (a transmission started after this was scheduled);
            // the transmission-complete path schedules a fresh arbitration.
            return Arbitration::Idle;
        }
        match self.waiters[..] {
            [] => Arbitration::Idle,
            [winner] => {
                self.waiters.clear();
                Arbitration::Winner(winner)
            }
            _ => Arbitration::Collision(std::mem::take(&mut self.waiters)),
        }
    }

    /// True if any station is waiting.
    pub fn has_waiters(&self) -> bool {
        !self.waiters.is_empty()
    }

    /// `host`'s NIC was handed frames at `at`: if it was idle it starts
    /// contending for the medium.
    pub(crate) fn enqueue_frames_at(
        &mut self,
        core: &mut Core,
        host: HostId,
        frames: impl IntoIterator<Item = Frame>,
        at: SimTime,
    ) {
        if core.nic_enqueue(host, frames) {
            self.contend(core, host, at);
        }
    }

    /// Handle one step of the frame path.
    pub(crate) fn handle(&mut self, core: &mut Core, event: HubEvent) {
        match event {
            HubEvent::Arbitrate => self.arbitrate_medium(core),
            HubEvent::FrameDelivered { frame } => self.frame_delivered(core, frame),
            HubEvent::NicRetry { host } => {
                let now = core.now;
                self.contend(core, host, now);
            }
        }
    }

    /// `host` wants the medium at `at`: schedule the arbitration that
    /// will see it, unless one already will.
    fn contend(&mut self, core: &mut Core, host: HostId, at: SimTime) {
        if let Some(fire_at) = self.request(host, at) {
            core.queue
                .schedule(fire_at, Event::Hub(HubEvent::Arbitrate));
        }
    }

    fn arbitrate_medium(&mut self, core: &mut Core) {
        let now = core.now;
        match self.arbitrate(now) {
            Arbitration::Idle => {}
            Arbitration::Winner(host) => {
                #[expect(
                    clippy::expect_used,
                    reason = "a station requests the medium only with a frame queued, and only its own win or abandonment takes the frame"
                )]
                let frame = core.hosts[host.index()]
                    .nic
                    .pop_head()
                    .expect("winner must have a queued frame");
                let eth = &core.params.ethernet;
                let wire = eth.frame_wire_time(frame.mac_payload);
                let delivered_at = now + wire + eth.prop_delay;
                self.busy_until = now + wire + eth.ifg_time();
                core.tx_start(host, &frame);
                core.queue
                    .schedule(delivered_at, Event::Hub(HubEvent::FrameDelivered { frame }));
            }
            Arbitration::Collision(hosts) => {
                core.stats.collisions += 1;
                core.trace_push(TraceEvent::Collision {
                    stations: hosts.clone(),
                });
                let eth = &core.params.ethernet;
                // The medium is garbage for one slot (jam).
                let jam_end = now + eth.slot_time;
                self.busy_until = jam_end;
                for host in hosts {
                    let nic = &mut core.hosts[host.index()].nic;
                    nic.attempts += 1;
                    if nic.attempts >= eth.max_attempts {
                        // Excessive collisions: drop the frame.
                        nic.pop_head();
                        core.stats.excessive_collision_drops += 1;
                        if nic.head().is_some() {
                            let retry = Event::Hub(HubEvent::NicRetry { host });
                            core.queue.schedule(jam_end, retry);
                        } else {
                            nic.tx.busy = false;
                        }
                        continue;
                    }
                    let exp = nic.attempts.min(eth.max_backoff_exp);
                    let slots = self.rng.next_below(1u64 << exp);
                    let retry_at = jam_end + eth.slot_time * slots;
                    let retry = Event::Hub(HubEvent::NicRetry { host });
                    core.queue.schedule(retry_at, retry);
                }
            }
        }
    }

    fn frame_delivered(&mut self, core: &mut Core, frame: Frame) {
        let src = frame.src;
        for i in 0..core.hosts.len() {
            let host = HostId(i as u32);
            if host != src && frame.accepted_by(host, |g| core.hosts[i].nic.is_member(g)) {
                core.link_deliver(host, &frame);
            }
        }
        // The sender's NIC contends again if it has more frames.
        let nic = &mut core.hosts[src.index()].nic;
        if nic.head().is_some() {
            let now = core.now;
            self.contend(core, src, now);
            return;
        }
        nic.tx.busy = false;
        // Other stations may be waiting on the medium.
        if self.has_waiters() {
            let fire_at = self.busy_until;
            if self.arbitrate_scheduled_at.is_none_or(|t| t > fire_at) {
                self.arbitrate_scheduled_at = Some(fire_at);
                core.queue
                    .schedule(fire_at, Event::Hub(HubEvent::Arbitrate));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_wins() {
        let mut hub = Hub::new(0);
        let t = SimTime::from_micros(1);
        assert_eq!(hub.request(HostId(0), t), Some(t));
        assert_eq!(hub.arbitrate(t), Arbitration::Winner(HostId(0)));
        assert!(!hub.has_waiters());
    }

    #[test]
    fn simultaneous_requesters_collide() {
        let mut hub = Hub::new(0);
        let t = SimTime::from_micros(1);
        assert_eq!(hub.request(HostId(0), t), Some(t));
        // Second request at the same instant: arbitration already scheduled.
        assert_eq!(hub.request(HostId(1), t), None);
        match hub.arbitrate(t) {
            Arbitration::Collision(hosts) => {
                assert_eq!(hosts, vec![HostId(0), HostId(1)]);
            }
            other => panic!("expected collision, got {other:?}"),
        }
        assert!(!hub.has_waiters(), "colliders leave the wait list");
    }

    #[test]
    fn busy_medium_defers_request() {
        let mut hub = Hub::new(0);
        hub.busy_until = SimTime::from_micros(100);
        let t = SimTime::from_micros(10);
        // Arbitration must fire when the medium frees, not now.
        assert_eq!(hub.request(HostId(2), t), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn stale_arbitration_is_idle() {
        let mut hub = Hub::new(0);
        let t0 = SimTime::from_micros(1);
        hub.request(HostId(0), t0);
        // A transmission claimed the medium after this event was scheduled.
        hub.busy_until = SimTime::from_micros(50);
        assert_eq!(hub.arbitrate(t0), Arbitration::Idle);
        assert!(hub.has_waiters(), "waiter kept for the rescheduled round");
    }

    #[test]
    fn duplicate_request_not_double_counted() {
        let mut hub = Hub::new(0);
        let t = SimTime::from_micros(1);
        hub.request(HostId(0), t);
        hub.request(HostId(0), t);
        assert_eq!(hub.waiters.len(), 1);
    }

    #[test]
    fn empty_arbitration_is_idle() {
        let mut hub = Hub::new(0);
        assert_eq!(hub.arbitrate(SimTime::ZERO), Arbitration::Idle);
    }
}
