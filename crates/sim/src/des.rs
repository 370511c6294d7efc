//! Generic discrete-event simulation primitives.
//!
//! A deterministic event queue ([`EventQueue`]) ordered by simulated time
//! with FIFO tie-breaking, plus a [`FifoResource`] helper for serially-shared
//! resources (the host data loader, a contended link). The cluster and
//! fault replays ([`cluster`](crate::cluster), [`fault`](crate::fault)) run
//! on the queue; the training engine in [`engine`](crate::engine) uses only
//! [`FifoResource`].
//!
//! [`EventQueue`] is a `BinaryHeap`: its callers keep about one pending
//! event per job, arrival or fault, so a queue holds a handful of entries
//! and a heap is all the structure it needs.
//!
//! # Examples
//!
//! ```
//! use mlperf_sim::des::EventQueue;
//! use mlperf_hw::Seconds;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Seconds::new(2.0), "late");
//! q.schedule(Seconds::new(1.0), "early");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t.as_secs(), e), (1.0, "early"));
//! ```

use mlperf_hw::units::Seconds;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued event: ordered by time, then insertion sequence.
struct Entry<E> {
    time: Seconds,
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
        // BinaryHeap is a max-heap: invert for earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are always finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in insertion order, which makes
/// simulations reproducible regardless of payload type.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Seconds,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Seconds::ZERO,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time (causality violation).
    pub fn schedule(&mut self, at: Seconds, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({} < {})",
            at.as_secs(),
            self.now.as_secs()
        );
        self.heap.push(Entry {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: Seconds, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Seconds, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next pending event without popping it.
    pub fn next_time(&self) -> Option<Seconds> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

/// A serially-reusable resource with FIFO service order and busy-time
/// accounting (a socket's loader workers, a shared PCIe uplink).
#[derive(Debug, Clone, PartialEq)]
pub struct FifoResource {
    free_at: Seconds,
    busy: Seconds,
}

impl FifoResource {
    /// A resource idle from time zero.
    pub fn new() -> Self {
        FifoResource {
            free_at: Seconds::ZERO,
            busy: Seconds::ZERO,
        }
    }

    /// Reserve the resource for `service` starting no earlier than
    /// `request`; returns the completion time.
    pub fn serve(&mut self, request: Seconds, service: Seconds) -> Seconds {
        let start = request.max(self.free_at);
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        done
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> Seconds {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy(&self) -> Seconds {
        self.busy
    }
}

impl Default for FifoResource {
    fn default() -> Self {
        FifoResource::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), 'c');
        q.schedule(Seconds::new(1.0), 'a');
        q.schedule(Seconds::new(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(Seconds::new(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(5.0), ());
        assert_eq!(q.now(), Seconds::ZERO);
        q.pop();
        assert_eq!(q.now(), Seconds::new(5.0));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), "first");
        q.pop();
        q.schedule_after(Seconds::new(3.0), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Seconds::new(5.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), ());
        q.pop();
        q.schedule(Seconds::new(1.0), ());
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Seconds::new(1.0), ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_peeks_without_advancing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(Seconds::new(7.0), ());
        q.schedule(Seconds::new(3.0), ());
        assert_eq!(q.next_time(), Some(Seconds::new(3.0)));
        assert_eq!(q.now(), Seconds::ZERO);
    }

    #[test]
    fn fifo_resource_queues_back_to_back() {
        let mut r = FifoResource::new();
        let d1 = r.serve(Seconds::ZERO, Seconds::new(2.0));
        let d2 = r.serve(Seconds::new(1.0), Seconds::new(2.0));
        assert_eq!(d1, Seconds::new(2.0));
        // Second request arrived while busy: starts at 2.0.
        assert_eq!(d2, Seconds::new(4.0));
        assert_eq!(r.busy(), Seconds::new(4.0));
    }

    #[test]
    fn fifo_resource_idles_between_requests() {
        let mut r = FifoResource::new();
        r.serve(Seconds::ZERO, Seconds::new(1.0));
        let d = r.serve(Seconds::new(10.0), Seconds::new(1.0));
        assert_eq!(d, Seconds::new(11.0));
        assert_eq!(r.busy(), Seconds::new(2.0)); // idle time not counted
    }
}
