//! The discrete-event scheduler.
//!
//! Events are opaque to the engine; the consumer supplies the event type
//! and an [`EventHandler`] that reacts to each event and may schedule
//! follow-ups. Events at the same instant are delivered in FIFO order of
//! scheduling (a stable tie-break), which is what makes traces repeatable.
//! [`run`] is the dispatch loop every scenario runs under.
//!
//! [`EventQueue`] is a binary min-heap of `(time, seq, event)`. A testbed
//! run keeps only a few clocks going at once (the camera, the control
//! loop, the OBU poll, the DENM chain), so at most eight events are ever
//! pending and a heap of that size needs no bucketing or cursor. See
//! DESIGN.md §12 for the measured traffic.
//!
//! # Ordering contract
//!
//! Events are dispatched in ascending `(time, seq)` order, where `seq`
//! is the schedule-call counter: same-instant events run in the order
//! they were scheduled (FIFO). Scheduling into the past panics in both
//! debug and release builds. The `seq` counter wraps at `u64::MAX`
//! (~584 years of one-event-per-simulated-nanosecond scheduling); after
//! a wrap, post-wrap events sort *before* still-pending pre-wrap events
//! at the same instant, deterministically (covered by
//! `seq_wrap_orders_post_wrap_first`). The tests hold the heap to a
//! model queue that finds each minimum by a linear scan
//! (`tests/support/model_queue.rs`).

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event, ordered for the max-heap so that the greatest
/// entry is the smallest `(time, seq)`.
#[derive(Debug)]
struct Pending<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Pending<E> {}

/// Event scheduler with stable same-instant ordering. See the
/// crate-level example for end-to-end usage.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Pending<E>>,
    seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`], with room
    /// for twice the largest pending set a testbed run reaches.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::with_capacity(16),
            seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Returns the queue to its freshly-constructed state — no pending
    /// events, time at zero, `seq` restarted — while keeping the heap's
    /// allocation. A recycled queue behaves bit-for-bit like
    /// [`EventQueue::new`]: dispatch order depends only on
    /// `(time, seq)`, and both restart from zero here.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.dispatched = 0;
    }

    /// Current simulation time (the timestamp of the last dispatched
    /// event, or zero before the first).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Events scheduled for the same instant are dispatched in the
    /// order they were scheduled (FIFO): each call consumes a strictly
    /// increasing sequence number that breaks time ties. The counter
    /// wraps at `u64::MAX` — see the module docs for the (documented,
    /// deterministic) post-wrap ordering.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — if `time` is before the queue's
    /// current time: scheduling into the past is always a logic error,
    /// and silently accepting it would let a pending event violate the
    /// monotonic-dispatch invariant the latency accounting relies on.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({} < {})",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.heap.push(Pending { time, seq, event });
    }

    /// Schedules `event` at `base + delay`.
    ///
    /// Same FIFO tie-break contract as [`EventQueue::schedule_at`];
    /// determinism tests rely on it — same-instant handler follow-ups
    /// always run in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `base + delay` is before the queue's current time.
    pub fn schedule_after(&mut self, base: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(base + delay, event);
    }

    /// Pops the next event if one exists at or before `until`.
    ///
    /// Public so the differential tests and perfbench's replay can drive
    /// the queue directly; [`run`] is the usual entry point.
    pub fn pop_next(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.time > until {
            return None;
        }
        let Pending { time, event, .. } = self.heap.pop()?;
        self.now = time;
        self.dispatched += 1;
        Some((time, event))
    }

    /// Pops *every* event sharing the minimal pending timestamp (if it
    /// is at or before `until`), appending them to `out` in FIFO order,
    /// and returns that timestamp. Same order as repeated
    /// [`pop_next`](Self::pop_next) calls; perfbench's queue replay
    /// times this call.
    pub fn pop_batch(&mut self, until: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let (t, e) = self.pop_next(until)?;
        out.push(e);
        while let Some((_, e2)) = self.pop_next(t) {
            out.push(e2);
        }
        Some(t)
    }

    /// Test support: forces the FIFO tie-break counter so harnesses can
    /// exercise the documented wraparound ordering without scheduling
    /// 2^64 events. Not part of the scheduling API.
    #[doc(hidden)]
    // detlint:allow(U1) the queue differential test starts both queues near the seq wrap
    pub fn force_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}

/// Consumer of dispatched events.
pub trait EventHandler {
    /// The event type flowing through the queue.
    type Event;

    /// Reacts to one event; may schedule follow-up events on `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Dispatches events one at a time until the queue is empty or the next
/// event is after `until`, and returns the time of the last dispatched
/// event (or the queue's prior time if nothing ran). A follow-up a
/// handler schedules at its own instant runs after the events already
/// pending at that instant.
pub fn run<H: EventHandler>(
    handler: &mut H,
    queue: &mut EventQueue<H::Event>,
    until: SimTime,
) -> SimTime {
    while let Some((now, event)) = queue.pop_next(until) {
        handler.handle(now, event, queue);
    }
    queue.now()
}

#[cfg(test)]
#[path = "../tests/support/model_queue.rs"]
mod model_queue;

#[cfg(test)]
mod tests {
    use super::model_queue::ModelQueue;
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, &'static str)>,
    }

    impl EventHandler for Recorder {
        type Event = &'static str;
        fn handle(&mut self, now: SimTime, event: &'static str, _q: &mut EventQueue<&'static str>) {
            self.seen.push((now.as_millis(), event));
        }
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let mut r = Recorder::default();
        run(&mut r, &mut q, SimTime::MAX);
        assert_eq!(r.seen, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for name in ["first", "second", "third"] {
            q.schedule_at(SimTime::from_millis(5), name);
        }
        let mut r = Recorder::default();
        run(&mut r, &mut q, SimTime::MAX);
        assert_eq!(r.seen, vec![(5, "first"), (5, "second"), (5, "third")]);
    }

    #[test]
    fn run_respects_until_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "in");
        q.schedule_at(SimTime::from_millis(100), "out");
        let mut r = Recorder::default();
        run(&mut r, &mut q, SimTime::from_millis(50));
        assert_eq!(r.seen, vec![(10, "in")]);
        assert_eq!(q.pending(), 1);
        // Resume later.
        run(&mut r, &mut q, SimTime::MAX);
        assert_eq!(r.seen.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "a");
        let mut r = Recorder::default();
        run(&mut r, &mut q, SimTime::MAX);
        q.schedule_at(SimTime::from_millis(5), "b");
    }

    #[test]
    fn scheduling_at_current_instant_is_allowed() {
        // `time == now` is the boundary the past-scheduling panic must
        // NOT cover: a handler re-scheduling at its own dispatch instant
        // is legal and runs after already-pending same-instant events.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "a");
        let (t, _) = q.pop_next(SimTime::MAX).unwrap();
        q.schedule_at(t, "b");
        assert_eq!(q.pop_next(SimTime::MAX), Some((t, "b")));
    }

    #[test]
    fn handler_scheduled_followups_run() {
        struct Chain(u32);
        impl EventHandler for Chain {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
                self.0 = ev;
                if ev < 5 {
                    q.schedule_after(now, SimDuration::from_millis(1), ev + 1);
                }
            }
        }
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 1);
        let mut c = Chain(0);
        let end = run(&mut c, &mut q, SimTime::MAX);
        assert_eq!(c.0, 5);
        assert_eq!(end, SimTime::from_millis(4));
        assert_eq!(q.dispatched(), 5);
    }

    /// Drains a queue through `pop` into `(millis, event)` pairs.
    fn drain(pop: impl FnMut() -> Option<(SimTime, u32)>) -> Vec<(u64, u32)> {
        std::iter::from_fn(pop)
            .map(|(t, e)| (t.as_millis(), e))
            .collect()
    }

    #[test]
    fn calendar_resize_preserves_order() {
        // 500 pending events in scrambled order, many sharing an
        // instant.
        let mut q = EventQueue::new();
        let mut m = ModelQueue::new();
        for i in 0..500u32 {
            let t = SimTime::from_micros(u64::from((i * 7919) % 997) * 100);
            q.schedule_at(t, i);
            m.schedule_at(t, i);
        }
        assert_eq!(
            drain(|| q.pop_next(SimTime::MAX)),
            drain(|| m.pop_next(SimTime::MAX))
        );
    }

    #[test]
    fn far_future_outlier_pops_after_cursor_jump() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), 1);
        // ~10 s ahead of everything else.
        q.schedule_at(SimTime::from_secs(10), 2);
        q.schedule_at(SimTime::from_millis(2), 3);
        assert_eq!(
            drain(|| q.pop_next(SimTime::MAX)),
            vec![(1, 1), (2, 3), (10_000, 2)]
        );
    }

    #[test]
    fn cursor_rewinds_for_late_near_schedules() {
        // Draining the queue and then scheduling 1 ns after the last
        // dispatch must still find the new event.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), 1);
        assert_eq!(q.pop_next(SimTime::MAX), Some((SimTime::from_secs(5), 1)));
        assert_eq!(q.pop_next(SimTime::MAX), None);
        q.schedule_at(SimTime::from_secs(5) + SimDuration::from_nanos(1), 2);
        assert_eq!(q.pending(), 1);
        assert!(q.pop_next(SimTime::MAX).is_some());
    }

    #[test]
    fn seq_wrap_orders_post_wrap_first() {
        // The documented wraparound contract: after `seq` wraps,
        // same-instant post-wrap events sort before pre-wrap ones.
        let t = SimTime::from_millis(1);
        let mut q = EventQueue::new();
        let mut m = ModelQueue::new();
        q.force_seq(u64::MAX - 1);
        m.force_seq(u64::MAX - 1);
        for ev in [10u32, 11, 12, 13] {
            q.schedule_at(t, ev);
            m.schedule_at(t, ev);
        }
        // Scheduled seqs: MAX-1, MAX, 0, 1 → pop order 12, 13, 10, 11.
        let got = drain(|| q.pop_next(SimTime::MAX));
        assert_eq!(got, vec![(1, 12), (1, 13), (1, 10), (1, 11)]);
        assert_eq!(got, drain(|| m.pop_next(SimTime::MAX)));
    }

    #[test]
    fn pop_batch_groups_one_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), 1);
        q.schedule_at(SimTime::from_millis(5), 2);
        q.schedule_at(SimTime::from_millis(7), 3);
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_batch(SimTime::MAX, &mut batch),
            Some(SimTime::from_millis(5))
        );
        assert_eq!(batch, vec![1, 2]);
        batch.clear();
        assert_eq!(
            q.pop_batch(SimTime::MAX, &mut batch),
            Some(SimTime::from_millis(7))
        );
        assert_eq!(batch, vec![3]);
        batch.clear();
        assert_eq!(q.pop_batch(SimTime::MAX, &mut batch), None);
    }

    #[test]
    fn reset_and_churn_keep_the_heap_capacity() {
        // The scenario's per-thread run scratch recycles one queue
        // across runs; neither `reset` nor steady schedule/pop churn may
        // reallocate its heap.
        let mut q = EventQueue::new();
        for i in 0..8u32 {
            q.schedule_at(SimTime::from_millis(u64::from(i)), i);
        }
        let capacity = q.heap.capacity();
        q.reset();
        assert_eq!(q.heap.capacity(), capacity);
        assert_eq!(
            (q.pending(), q.dispatched(), q.now()),
            (0, 0, SimTime::ZERO)
        );
        for round in 0..1000u64 {
            q.schedule_at(SimTime::from_micros(round * 10), round as u32);
            q.schedule_at(SimTime::from_micros(round * 10 + 5), round as u32);
            let _ = q.pop_next(SimTime::MAX);
            let _ = q.pop_next(SimTime::MAX);
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.dispatched(), 2000);
        assert_eq!(q.heap.capacity(), capacity);
    }
}
