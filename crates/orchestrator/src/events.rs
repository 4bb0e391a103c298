//! The deterministic event queue driving the cluster loop.
//!
//! A discrete-event simulation needs one thing above all else here:
//! **reproducible ordering**. Events are ordered by simulated time with
//! a monotone sequence number as the tiebreaker, so two events due at
//! the same instant always fire in scheduling order — the queue never
//! depends on heap internals, hash order or thread schedules.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use uniserver_cloudmgr::PlacementId;
use uniserver_units::Seconds;

/// What can happen at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A placed VM's requested lifetime ends.
    Departure(PlacementId),
    /// A live migration started earlier finishes its final copy round.
    MigrationSettled(PlacementId),
}

#[derive(Debug, Clone)]
struct Scheduled {
    at: Seconds,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (and, at
        // equal times, the first-scheduled) event is popped first.
        other
            .at
            .as_secs()
            .total_cmp(&self.at.as_secs())
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The time-ordered event queue.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at absolute simulated time `at`.
    pub(crate) fn schedule(&mut self, at: Seconds, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pops the next event due at or before `until`, earliest first.
    pub(crate) fn pop_due(&mut self, until: Seconds) -> Option<(Seconds, Event)> {
        if self.heap.peek().is_some_and(|s| s.at <= until) {
            self.heap.pop().map(|s| (s.at, s.event))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(5.0), Event::Departure(PlacementId(1)));
        q.schedule(Seconds::new(2.0), Event::Departure(PlacementId(2)));
        q.schedule(Seconds::new(9.0), Event::Departure(PlacementId(3)));
        let (at, ev) = q.pop_due(Seconds::new(10.0)).unwrap();
        assert_eq!((at, ev), (Seconds::new(2.0), Event::Departure(PlacementId(2))));
        let (at, _) = q.pop_due(Seconds::new(10.0)).unwrap();
        assert_eq!(at, Seconds::new(5.0));
        assert_eq!(q.pop_due(Seconds::new(10.0)).map(|(at, _)| at), Some(Seconds::new(9.0)));
        assert!(q.pop_due(Seconds::new(10.0)).is_none());
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(7.0), Event::Departure(PlacementId(1)));
        assert!(q.pop_due(Seconds::new(6.999)).is_none());
        assert!(q.pop_due(Seconds::new(7.0)).is_some());
        assert!(q.pop_due(Seconds::new(1e9)).is_none());
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.schedule(Seconds::new(3.0), Event::Departure(PlacementId(i)));
        }
        let mut popped = Vec::new();
        while let Some((_, Event::Departure(id))) = q.pop_due(Seconds::new(3.0)) {
            popped.push(id.0);
        }
        assert_eq!(popped, (0..16).collect::<Vec<_>>(), "ties must keep scheduling order");
    }
}
