//! Timestamped event queue with stable ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A min-priority queue of timestamped events.
///
/// Events scheduled for the same instant are delivered in insertion order
/// (FIFO), which keeps simulations deterministic when many events share a
/// timestamp.
///
/// # Example
///
/// ```
/// use des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs_f64(1.0), "first");
/// q.push(SimTime::from_secs_f64(1.0), "second");
/// q.push(SimTime::ZERO, "zeroth");
///
/// assert_eq!(q.pop().unwrap().1, "zeroth");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) wins.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with space for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The earliest pending event and its timestamp, without removing it.
    ///
    /// Lets a caller stop before an event without delivering it — the
    /// simulator's bounded run loop stops before the first event past its
    /// bound, and its audit checkpoints the state while the next event is
    /// still queued.
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The sequence number the next [`EventQueue::push`] will assign.
    ///
    /// Checkpointing must preserve this counter exactly: same-timestamp
    /// delivery order is decided by `(time, seq)`, so a restored queue that
    /// restarted the counter could interleave new events differently.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl<E: Clone> EventQueue<E> {
    /// All pending entries as `(time, seq, event)`, sorted by `(time, seq)`
    /// — i.e. in the exact order [`EventQueue::pop`] would deliver them.
    ///
    /// The canonical order makes checkpoint bytes independent of the heap's
    /// internal layout, so checkpoint → restore → checkpoint is byte-stable.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, E)> {
        let mut entries: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.seq, e.event.clone()))
            .collect();
        entries.sort_by_key(|(time, seq, _)| (*time, *seq));
        entries
    }
}

impl<E> EventQueue<E> {
    /// Rebuilds a queue from checkpointed entries and the saved sequence
    /// counter.  Entries keep their original `seq` values, so FIFO order
    /// among same-timestamp events survives the round trip.
    #[must_use]
    pub fn from_parts(entries: Vec<(SimTime, u64, E)>, next_seq: u64) -> Self {
        let heap = entries
            .into_iter()
            .map(|(time, seq, event)| Entry { time, seq, event })
            .collect();
        EventQueue { heap, next_seq }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<T: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: T) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<T: IntoIterator<Item = (SimTime, E)>>(iter: T) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs_f64(3.0), 3);
        q.push(SimTime::from_secs_f64(1.0), 1);
        q.push(SimTime::from_secs_f64(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs_f64(5.0), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(5.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_exposes_the_head_event_without_removing_it() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs_f64(2.0), "late");
        q.push(SimTime::from_secs_f64(1.0), "early");
        assert_eq!(q.peek(), Some((SimTime::from_secs_f64(1.0), &"early")));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.peek(), Some((SimTime::from_secs_f64(2.0), &"late")));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let q: EventQueue<u8> = vec![
            (SimTime::from_secs_f64(2.0), 2u8),
            (SimTime::from_secs_f64(1.0), 1u8),
        ]
        .into_iter()
        .collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(1.0)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn pop_order_is_nondecreasing(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(SimTime::from_micros(*t), i);
                }
                let mut last = SimTime::ZERO;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }

            #[test]
            fn all_events_are_delivered(times in proptest::collection::vec(0u64..1_000, 0..100)) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(SimTime::from_micros(*t), i);
                }
                let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
            }
        }
    }
}
