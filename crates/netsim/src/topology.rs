//! Scriptable topology faults: holds, releases, partitions, heals.
//!
//! A [`TopologyScript`] is a schedule of [`TopologyOp`]s at virtual
//! times, in the style of turmoil's `hold`/`release`/`partition`
//! surface. It replaces the old one-shot `Partition` window in
//! [`crate::params::FaultParams`]: where the window could only drop
//! frames crossing one cut for one interval, a script can stack any
//! interleaving of directional holds and group partitions mid-run.
//!
//! Semantics (the contract `crates/netsim/tests/topology_script.rs`
//! locks down, and `docs/SIMULATOR.md` documents):
//!
//! * **Hold parks, partition drops.** A frame arriving on a held link
//!   is parked at the receiving link and re-delivered, in arrival
//!   order, at the moment the hold is released — turmoil leaves
//!   hold-vs-drop as a TODO; we resolve it as *release-with-delay*,
//!   never silent loss. A frame crossing a partition cut is dropped
//!   (the old `Partition` behaviour).
//! * **Directional holds.** `hold(a, b)` parks frames from `a`
//!   arriving at `b`'s link only; `b → a` traffic is unaffected.
//! * **`heal()` is total**: it clears the partition *and* releases
//!   every outstanding hold.
//! * Ops at the same instant apply in insertion order.
//!
//! The runtime side is [`TopoCursor`]: a monotone cursor the world
//! advances with event time. The world schedules a wake event at every
//! op time, so releases happen even on otherwise idle links.

use crate::ids::HostId;
use crate::time::{SimDuration, SimTime};

/// One topology operation (see the module docs for semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyOp {
    /// Park frames from the first host arriving at the second host's
    /// link (directional).
    Hold(HostId, HostId),
    /// Undo a [`TopologyOp::Hold`]; parked frames are re-delivered at
    /// the release time in arrival order.
    Release(HostId, HostId),
    /// Split the cluster into isolated groups; hosts in no listed
    /// group form one implicit remainder group. Frames crossing any
    /// cut are dropped. Replaces any partition currently in force.
    Partition(Vec<Vec<HostId>>),
    /// Remove the partition and release every outstanding hold.
    Heal,
    /// Permanently crash a host: from the op time on, every frame
    /// arriving at it is dropped (counted as `crashed_frames`) — frames
    /// already in flight included — and the host process is descheduled.
    /// Unlike [`TopologyOp::Partition`] this is never healed; it is the
    /// fault injector for the membership layer's failure detector.
    Crash(HostId),
}

/// A schedule of topology operations at virtual times.
///
/// Built with the fluent methods and handed to the simulator via
/// [`crate::params::FaultParams::topology`]. Ops may be added in any
/// order; the cursor applies them sorted by time (ties in insertion
/// order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopologyScript {
    ops: Vec<(SimTime, TopologyOp)>,
}

impl TopologyScript {
    /// The empty script (no topology faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an operation at `at`.
    pub fn op(mut self, at: SimTime, op: TopologyOp) -> Self {
        self.ops.push((at, op));
        self
    }

    /// At `at`, start parking frames from `a` arriving at `b`.
    pub fn hold(self, at: SimTime, a: HostId, b: HostId) -> Self {
        self.op(at, TopologyOp::Hold(a, b))
    }

    /// At `at`, release the `a → b` hold (parked frames re-deliver).
    pub fn release(self, at: SimTime, a: HostId, b: HostId) -> Self {
        self.op(at, TopologyOp::Release(a, b))
    }

    /// At `at`, partition the cluster into `groups`.
    pub fn partition(self, at: SimTime, groups: Vec<Vec<HostId>>) -> Self {
        self.op(at, TopologyOp::Partition(groups))
    }

    /// At `at`, clear the partition and release every hold.
    pub fn heal(self, at: SimTime) -> Self {
        self.op(at, TopologyOp::Heal)
    }

    /// At `at`, permanently crash `host` (see [`TopologyOp::Crash`]).
    pub fn crash(self, at: SimTime, host: HostId) -> Self {
        self.op(at, TopologyOp::Crash(host))
    }

    /// The old one-shot `Partition` window: isolate `island` from the
    /// rest during `[start, start + duration)`, then heal.
    pub fn partition_window(start: SimTime, duration: SimDuration, island: Vec<HostId>) -> Self {
        Self::new()
            .partition(start, vec![island])
            .heal(start + duration)
    }

    /// True when the script holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The scheduled operations in insertion order.
    pub fn ops(&self) -> &[(SimTime, TopologyOp)] {
        &self.ops
    }

    /// The distinct times at which operations fire, ascending — the
    /// instants the world schedules wake events for.
    pub fn op_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.ops.iter().map(|(at, _)| *at).collect();
        times.sort_unstable();
        times.dedup();
        times
    }
}

/// Runtime cursor over a [`TopologyScript`]: tracks which ops have
/// applied as event time advances monotonically.
#[derive(Clone, Debug)]
pub struct TopoCursor {
    /// Ops sorted by time, ties in insertion order.
    ops: Vec<(SimTime, TopologyOp)>,
    /// Index of the next unapplied op.
    next: usize,
    /// Holds currently in force (small; linear scans are fine).
    holds: Vec<(HostId, HostId)>,
    /// The partition currently in force, if any.
    partition: Option<Vec<Vec<HostId>>>,
    /// Hosts crashed so far (permanent; small, linear scans are fine).
    crashed: Vec<HostId>,
}

impl TopoCursor {
    /// Cursor at time zero over `script`.
    pub fn new(script: &TopologyScript) -> Self {
        let mut ops = script.ops.clone();
        ops.sort_by_key(|(at, _)| *at); // stable: ties keep insertion order
        TopoCursor {
            ops,
            next: 0,
            holds: Vec::new(),
            partition: None,
            crashed: Vec::new(),
        }
    }

    /// Apply every op with time `<= now`; returns the `(src, dst)`
    /// pairs whose holds were released (each at most once, in apply
    /// order) so the engine can re-deliver parked frames.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<(HostId, HostId)> {
        let mut released = Vec::new();
        while self.next < self.ops.len() && self.ops[self.next].0 <= now {
            let op = self.ops[self.next].1.clone();
            self.next += 1;
            match op {
                TopologyOp::Hold(a, b) => {
                    if !self.holds.contains(&(a, b)) {
                        self.holds.push((a, b));
                    }
                }
                TopologyOp::Release(a, b) => {
                    if let Some(i) = self.holds.iter().position(|&p| p == (a, b)) {
                        self.holds.remove(i);
                        released.push((a, b));
                    }
                }
                TopologyOp::Partition(groups) => self.partition = Some(groups),
                TopologyOp::Heal => {
                    self.partition = None;
                    released.append(&mut self.holds);
                }
                TopologyOp::Crash(h) => {
                    if !self.crashed.contains(&h) {
                        self.crashed.push(h);
                    }
                }
            }
        }
        released
    }

    /// True while frames from `src` arriving at `dst` are parked.
    #[inline]
    pub fn is_held(&self, src: HostId, dst: HostId) -> bool {
        self.holds.contains(&(src, dst))
    }

    /// True once `host` has crashed (permanent).
    #[inline]
    pub fn is_crashed(&self, host: HostId) -> bool {
        self.crashed.contains(&host)
    }

    /// The hosts crashed so far, in crash order.
    pub fn crashed(&self) -> &[HostId] {
        &self.crashed
    }

    /// True when a `src → dst` frame crosses the partition cut.
    #[inline]
    pub fn separated(&self, src: HostId, dst: HostId) -> bool {
        let Some(groups) = &self.partition else {
            return false;
        };
        let group_of = |h: HostId| {
            groups
                .iter()
                .position(|g| g.contains(&h))
                .unwrap_or(usize::MAX) // implicit remainder group
        };
        group_of(src) != group_of(dst)
    }

    /// True when every op has applied and no hold is outstanding —
    /// frames can no longer be parked or released by this script.
    pub fn is_done(&self) -> bool {
        self.next >= self.ops.len() && self.holds.is_empty()
    }

    /// True when the cursor currently affects no traffic at all (no
    /// hold, no partition, no crash) and never will again. A crash is
    /// permanent, so a cursor that has crashed a host is never inert.
    pub fn is_inert_now(&self) -> bool {
        self.is_done() && self.partition.is_none() && self.crashed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_window_matches_old_semantics() {
        let script = TopologyScript::partition_window(
            SimTime::from_micros(10),
            SimDuration::from_micros(5),
            vec![HostId(0), HostId(1)],
        );
        let mut c = TopoCursor::new(&script);
        c.advance_to(SimTime::from_micros(9));
        assert!(!c.separated(HostId(0), HostId(2)));
        c.advance_to(SimTime::from_micros(10));
        assert!(c.separated(HostId(0), HostId(2)));
        assert!(!c.separated(HostId(0), HostId(1)));
        assert!(!c.separated(HostId(2), HostId(3)));
        c.advance_to(SimTime::from_micros(14));
        assert!(c.separated(HostId(0), HostId(2)));
        // The window is half-open: healed exactly at start + duration.
        c.advance_to(SimTime::from_micros(15));
        assert!(!c.separated(HostId(0), HostId(2)));
        assert!(c.is_inert_now());
    }

    #[test]
    fn hold_is_directional_and_release_reports_once() {
        let script = TopologyScript::new()
            .hold(SimTime::from_micros(1), HostId(0), HostId(1))
            .release(SimTime::from_micros(5), HostId(0), HostId(1))
            // Releasing a pair that is not held is a no-op.
            .release(SimTime::from_micros(6), HostId(0), HostId(1));
        let mut c = TopoCursor::new(&script);
        assert!(c.advance_to(SimTime::from_micros(2)).is_empty());
        assert!(c.is_held(HostId(0), HostId(1)));
        assert!(!c.is_held(HostId(1), HostId(0)));
        assert_eq!(
            c.advance_to(SimTime::from_micros(10)),
            vec![(HostId(0), HostId(1))]
        );
        assert!(c.is_done());
    }

    #[test]
    fn heal_releases_every_hold_and_clears_partition() {
        let script = TopologyScript::new()
            .hold(SimTime::from_micros(1), HostId(0), HostId(2))
            .hold(SimTime::from_micros(2), HostId(1), HostId(2))
            .partition(SimTime::from_micros(3), vec![vec![HostId(3)]])
            .heal(SimTime::from_micros(9));
        let mut c = TopoCursor::new(&script);
        c.advance_to(SimTime::from_micros(4));
        assert!(c.separated(HostId(3), HostId(0)));
        let released = c.advance_to(SimTime::from_micros(9));
        assert_eq!(
            released,
            vec![(HostId(0), HostId(2)), (HostId(1), HostId(2))]
        );
        assert!(!c.separated(HostId(3), HostId(0)));
        assert!(c.is_inert_now());
    }

    #[test]
    fn same_instant_ops_apply_in_insertion_order() {
        let at = SimTime::from_micros(7);
        let script = TopologyScript::new()
            .hold(at, HostId(0), HostId(1))
            .release(at, HostId(0), HostId(1));
        let mut c = TopoCursor::new(&script);
        assert_eq!(c.advance_to(at), vec![(HostId(0), HostId(1))]);
        assert!(!c.is_held(HostId(0), HostId(1)));
    }

    #[test]
    fn crash_is_permanent_and_never_inert() {
        let script = TopologyScript::new()
            .crash(SimTime::from_micros(5), HostId(2))
            .heal(SimTime::from_micros(9));
        let mut c = TopoCursor::new(&script);
        c.advance_to(SimTime::from_micros(4));
        assert!(!c.is_crashed(HostId(2)));
        c.advance_to(SimTime::from_micros(5));
        assert!(c.is_crashed(HostId(2)));
        assert!(!c.is_crashed(HostId(0)));
        // Heal clears partitions and holds, never a crash.
        c.advance_to(SimTime::from_micros(20));
        assert!(c.is_crashed(HostId(2)));
        assert!(c.is_done());
        assert!(!c.is_inert_now(), "a crashed host keeps the cursor live");
        assert_eq!(c.crashed(), &[HostId(2)]);
    }

    #[test]
    fn op_times_are_deduped_and_sorted() {
        let script = TopologyScript::new()
            .heal(SimTime::from_micros(9))
            .hold(SimTime::from_micros(1), HostId(0), HostId(1))
            .release(SimTime::from_micros(1), HostId(0), HostId(1));
        assert_eq!(
            script.op_times(),
            vec![SimTime::from_micros(1), SimTime::from_micros(9)]
        );
    }
}
