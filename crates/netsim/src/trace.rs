//! Event tracing for debugging and model validation.
//!
//! A [`Trace`] is a bounded ring buffer of time-stamped records the world
//! appends to when tracing is enabled. It costs nothing when disabled
//! (the default), renders to a human-readable timeline, and lets tests
//! assert fine-grained properties ("the jam really occupied the medium
//! for one slot time") without polluting the statistics counters.

use std::collections::VecDeque;
use std::fmt;

use crate::ids::HostId;
use crate::time::SimTime;

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame began transmission.
    TxStart {
        /// Transmitting station.
        src: HostId,
        /// Frame id.
        frame: u64,
        /// MAC payload length.
        bytes: u32,
    },
    /// A frame was delivered to a station.
    Delivered {
        /// Receiving station.
        dst: HostId,
        /// Frame id.
        frame: u64,
    },
    /// A CSMA/CD collision among the listed stations.
    Collision {
        /// The colliding stations.
        stations: Vec<HostId>,
    },
    /// A datagram was dropped (reason as free text).
    Drop {
        /// Affected station.
        host: HostId,
        /// Why.
        reason: &'static str,
    },
}

/// A bounded, time-stamped event log.
#[derive(Debug)]
pub struct Trace {
    records: VecDeque<(SimTime, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `capacity` records (oldest evicted).
    pub fn new(capacity: usize) -> Self {
        Trace {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append a record.
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back((at, event));
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted due to the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.dropped
    }

    /// Count records matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.records.iter().filter(|(_, e)| pred(e)).count()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(f, "... {} earlier records evicted ...", self.dropped)?;
        }
        for (at, e) in &self.records {
            match e {
                TraceEvent::TxStart { src, frame, bytes } => {
                    writeln!(f, "{at:>14}  {src} tx start frame#{frame} ({bytes} B)")?
                }
                TraceEvent::Delivered { dst, frame } => {
                    writeln!(f, "{at:>14}  {dst} rx frame#{frame}")?
                }
                TraceEvent::Collision { stations } => {
                    let names: Vec<String> = stations.iter().map(|h| h.to_string()).collect();
                    writeln!(f, "{at:>14}  COLLISION [{}]", names.join(", "))?
                }
                TraceEvent::Drop { host, reason } => {
                    writeln!(f, "{at:>14}  {host} DROP: {reason}")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut tr = Trace::new(10);
        tr.push(
            t(1),
            TraceEvent::TxStart {
                src: HostId(0),
                frame: 1,
                bytes: 64,
            },
        );
        tr.push(
            t(2),
            TraceEvent::Delivered {
                dst: HostId(1),
                frame: 1,
            },
        );
        assert_eq!(tr.len(), 2);
        let times: Vec<u64> = tr.records().map(|(at, _)| at.as_nanos()).collect();
        assert_eq!(times, vec![1, 2]);
        assert!(!tr.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut tr = Trace::new(3);
        for i in 0..5u64 {
            tr.push(
                t(i),
                TraceEvent::Delivered {
                    dst: HostId(0),
                    frame: i,
                },
            );
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.evicted(), 2);
        let frames: Vec<u64> = tr
            .records()
            .map(|(_, e)| match e {
                TraceEvent::Delivered { frame, .. } => *frame,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(frames, vec![2, 3, 4]);
    }

    #[test]
    fn count_filters() {
        let mut tr = Trace::new(10);
        tr.push(
            t(0),
            TraceEvent::Collision {
                stations: vec![HostId(0), HostId(1)],
            },
        );
        tr.push(
            t(1),
            TraceEvent::Delivered {
                dst: HostId(0),
                frame: 0,
            },
        );
        tr.push(
            t(2),
            TraceEvent::Collision {
                stations: vec![HostId(2), HostId(3)],
            },
        );
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::Collision { .. })), 2);
    }

    #[test]
    fn display_renders_all_variants() {
        let mut tr = Trace::new(2);
        tr.push(
            t(0),
            TraceEvent::TxStart {
                src: HostId(0),
                frame: 9,
                bytes: 100,
            },
        );
        tr.push(
            t(1),
            TraceEvent::Drop {
                host: HostId(2),
                reason: "buffer full",
            },
        );
        tr.push(
            t(2),
            TraceEvent::Delivered {
                dst: HostId(1),
                frame: 9,
            },
        );
        let s = tr.to_string();
        assert!(s.contains("evicted"));
        assert!(s.contains("DROP: buffer full"));
        assert!(s.contains("rx frame#9"));
    }
}
