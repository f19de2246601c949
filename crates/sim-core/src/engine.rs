//! The discrete-event scheduler.
//!
//! Events are opaque to the engine; the consumer supplies the event type
//! and an [`EventHandler`] that reacts to each event and may schedule
//! follow-ups. Events at the same instant are delivered in FIFO order of
//! scheduling (a stable tie-break), which is what makes traces repeatable.
//!
//! [`EventQueue`] is a *calendar queue*: a slab of event slots recycled
//! through a free list (no per-schedule allocation in steady state)
//! chained into time-window buckets, with a day cursor that walks the
//! calendar. Schedule and pop are O(1) for the short-horizon
//! schedule-after pattern the testbed generates. See DESIGN.md §12 for
//! the bucket-width choice, the resize policy and the determinism
//! argument.
//!
//! The original `BinaryHeap` queue is kept verbatim as test support
//! (`tests/support/reference_queue.rs`), the executable specification
//! of the ordering contract: this module's unit tests and the
//! differential harness (`tests/queue_differential.rs`) pin the
//! calendar queue's pop order bitwise against it.
//!
//! # Ordering contract (both queues)
//!
//! Events are dispatched in ascending `(time, seq)` order, where `seq`
//! is the schedule-call counter: same-instant events run in the order
//! they were scheduled (FIFO). Scheduling into the past panics in both
//! debug and release builds. The `seq` counter wraps at `u64::MAX`
//! (~584 years of one-event-per-simulated-nanosecond scheduling); after
//! a wrap, post-wrap events sort *before* still-pending pre-wrap events
//! at the same instant — deterministically, and identically in both
//! implementations (covered by `seq_wrap_orders_post_wrap_first`).

use crate::time::{SimDuration, SimTime};

/// Sentinel index terminating slab chains (free list and bucket chains).
const SLOT_NONE: u32 = u32::MAX;

/// log2 of the calendar bucket width in nanoseconds: 2^20 ns ≈ 1.05 ms.
/// The testbed's schedule-after horizon clusters between microseconds
/// (channel access, airtime) and a few hundred milliseconds (camera
/// frames, CAM cadence), so a ~1 ms "day" keeps same-window events in
/// one bucket while bounding the cursor walk across quiet gaps.
const DAY_SHIFT: u32 = 20;

/// Initial bucket count (power of two so `day & mask` is the bucket).
const INITIAL_BUCKETS: usize = 64;

/// Bucket-count ceiling for the doubling resize.
const MAX_BUCKETS: usize = 1 << 14;

/// Consecutive empty days the pop cursor scans before giving up and
/// jumping straight to the minimum pending day via an O(len) slab scan
/// (far-future outliers would otherwise walk the calendar day by day).
const ROTATION_SCAN: u64 = 8;

/// One slab slot: a pending event or a free-list link.
///
/// `next` chains the slot into its bucket while occupied and into the
/// free list while vacant; `time`/`seq` are stale in vacant slots and
/// every consumer filters on `event.is_some()`.
#[derive(Debug)]
struct Slot<E> {
    time: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// Calendar-queue event scheduler with stable same-instant ordering.
///
/// Drop-in replacement for the original heap-based queue (now the
/// tests' `ReferenceQueue`): same API, same panics, bitwise-identical
/// pop order. See the crate-level example for end-to-end usage.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Slab of event slots; vacant slots are threaded on `free_head`.
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Head slot index per bucket; `SLOT_NONE` marks an empty bucket.
    buckets: Vec<u32>,
    /// Cursor: no pending event lives on a day before this one.
    day: u64,
    len: usize,
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
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            slots: Vec::with_capacity(16),
            free_head: SLOT_NONE,
            buckets: vec![SLOT_NONE; INITIAL_BUCKETS],
            day: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// Returns the queue to its freshly-constructed state — no pending
    /// events, time at zero, `seq` restarted — while keeping the slab
    /// and bucket allocations. A recycled queue behaves bit-for-bit
    /// like [`EventQueue::new`]: dispatch order depends only on
    /// `(time, seq)`, and both restart from zero here.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free_head = SLOT_NONE;
        for b in &mut self.buckets {
            *b = SLOT_NONE;
        }
        self.day = 0;
        self.len = 0;
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
        self.len
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
        let t = time.as_nanos();
        let day = t >> DAY_SHIFT;
        // The cursor must never sit past a pending day. An empty queue
        // re-anchors it outright (the cursor may have drifted arbitrarily
        // far forward while draining); otherwise only pull it backward.
        if self.len == 0 || day < self.day {
            self.day = day;
        }
        let idx = self.alloc_slot(t, seq, event);
        let mask = self.buckets.len() as u64 - 1;
        let b = (day & mask) as usize;
        let head = self.buckets.get(b).copied().unwrap_or(SLOT_NONE);
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            slot.next = head;
        }
        if let Some(h) = self.buckets.get_mut(b) {
            *h = idx;
        }
        self.len += 1;
        if self.len > self.buckets.len() * 4 && self.buckets.len() < MAX_BUCKETS {
            self.grow_buckets();
        }
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
    /// Public so the differential harness and batch drivers can drive
    /// the queue directly; [`run_batched`] remains the usual entry point.
    pub fn pop_next(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let until_n = until.as_nanos();
        let until_day = until_n >> DAY_SHIFT;
        let mask = self.buckets.len() as u64 - 1;
        let mut empty_scanned: u64 = 0;
        loop {
            // Invariant: no pending event's day precedes the cursor, so
            // a cursor past `until`'s day proves nothing is due yet.
            if self.day > until_day {
                return None;
            }
            let b = (self.day & mask) as usize;
            // All events of the cursor day share this bucket, so the
            // minimal (time, seq) among them is the global minimum.
            let mut best: Option<(u64, u64)> = None;
            let (mut best_idx, mut best_prev) = (SLOT_NONE, SLOT_NONE);
            let mut prev = SLOT_NONE;
            let mut cur = self.buckets.get(b).copied().unwrap_or(SLOT_NONE);
            while let Some(slot) = self.slots.get(cur as usize) {
                if slot.time >> DAY_SHIFT == self.day {
                    let key = (slot.time, slot.seq);
                    if best.is_none_or(|bk| key < bk) {
                        best = Some(key);
                        best_idx = cur;
                        best_prev = prev;
                    }
                }
                prev = cur;
                cur = slot.next;
            }
            if let Some((t, _)) = best {
                if t > until_n {
                    return None;
                }
                return self.take_slot(b, best_idx, best_prev);
            }
            self.day += 1;
            empty_scanned += 1;
            if empty_scanned >= ROTATION_SCAN {
                // Quiet stretch: jump straight to the next pending day.
                self.jump_to_min_day();
                empty_scanned = 0;
            }
        }
    }

    /// Pops *every* event sharing the minimal pending timestamp (if it
    /// is at or before `until`), appending them to `out` in FIFO order,
    /// and returns that timestamp. Batch drivers use this to dispatch
    /// same-instant events together; follow-ups a handler schedules at
    /// the same instant land in the *next* batch, which preserves the
    /// exact global `(time, seq)` dispatch order of a one-at-a-time
    /// [`pop_next`](Self::pop_next) loop.
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

    /// Takes a slot out of the free list, or grows the slab.
    fn alloc_slot(&mut self, time: u64, seq: u64, event: E) -> u32 {
        let free = self.free_head;
        if let Some(slot) = self.slots.get_mut(free as usize) {
            self.free_head = slot.next;
            slot.time = time;
            slot.seq = seq;
            slot.next = SLOT_NONE;
            slot.event = Some(event);
            free
        } else {
            // Slab indices are u32 with SLOT_NONE reserved; 2^32 − 1
            // *simultaneously pending* events (hundreds of GiB) is out
            // of scope by orders of magnitude, so this is debug-only.
            debug_assert!(self.slots.len() < SLOT_NONE as usize);
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                time,
                seq,
                next: SLOT_NONE,
                event: Some(event),
            });
            idx
        }
    }

    /// Unlinks `idx` (preceded by `prev`, or the bucket head) from
    /// bucket `b`, recycles the slot, and returns its payload.
    fn take_slot(&mut self, b: usize, idx: u32, prev: u32) -> Option<(SimTime, E)> {
        let (next, time, event) = match self.slots.get_mut(idx as usize) {
            Some(s) => (s.next, s.time, s.event.take()),
            // Unreachable: `idx` was just read out of a live chain.
            None => return None,
        };
        if let Some(p) = self.slots.get_mut(prev as usize) {
            p.next = next;
        } else if let Some(h) = self.buckets.get_mut(b) {
            *h = next;
        }
        if let Some(s) = self.slots.get_mut(idx as usize) {
            s.next = self.free_head;
        }
        self.free_head = idx;
        self.len -= 1;
        let t = SimTime::from_nanos(time);
        self.now = t;
        self.dispatched += 1;
        event.map(|e| (t, e))
    }

    /// Advances the cursor straight to the earliest pending day.
    /// O(slab) — only taken after [`ROTATION_SCAN`] empty days, i.e.
    /// across quiet gaps or toward far-future outliers.
    fn jump_to_min_day(&mut self) {
        let mut min_day = u64::MAX;
        for s in &self.slots {
            if s.event.is_some() {
                min_day = min_day.min(s.time >> DAY_SHIFT);
            }
        }
        if min_day != u64::MAX {
            self.day = min_day;
        }
    }

    /// Doubles the bucket count and re-chains every occupied slot.
    /// Chain order within a bucket is irrelevant — pops min-scan on
    /// `(time, seq)` — so the rebuild cannot perturb dispatch order.
    fn grow_buckets(&mut self) {
        let new_len = (self.buckets.len() * 2).min(MAX_BUCKETS);
        self.buckets.clear();
        self.buckets.resize(new_len, SLOT_NONE);
        let mask = new_len as u64 - 1;
        for i in 0..self.slots.len() {
            let (day, occupied) = match self.slots.get(i) {
                Some(s) => (s.time >> DAY_SHIFT, s.event.is_some()),
                None => continue,
            };
            if !occupied {
                // Vacant slots keep their free-list links untouched.
                continue;
            }
            let b = (day & mask) as usize;
            let head = self.buckets.get(b).copied().unwrap_or(SLOT_NONE);
            if let Some(s) = self.slots.get_mut(i) {
                s.next = head;
            }
            if let Some(h) = self.buckets.get_mut(b) {
                *h = i as u32;
            }
        }
    }
}

/// Consumer of dispatched events.
pub trait EventHandler {
    /// The event type flowing through the queue.
    type Event;

    /// Reacts to one event; may schedule follow-up events on `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// The one-at-a-time dispatch loop the tests hold [`run_batched`] to:
/// runs until the queue is empty or the next event is after `until`
/// and returns the time of the last dispatched event.
#[cfg(test)]
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

/// Runs the simulation until the queue is empty or the next event is
/// after `until`, and returns the time of the last dispatched event (or
/// the queue's prior time if nothing ran). Pops every event of one
/// instant in one queue operation, then hands them to the handler in
/// FIFO order. Dispatch order is *identical* to a one-at-a-time
/// [`EventQueue::pop_next`] loop — same-instant follow-ups a
/// handler schedules mid-batch carry higher sequence numbers than the
/// batch, so they run in the next batch exactly where the serial loop
/// would have placed them. `scratch` is the caller-owned batch buffer,
/// drained every iteration and reused so the loop allocates nothing in
/// steady state.
pub fn run_batched<H: EventHandler>(
    handler: &mut H,
    queue: &mut EventQueue<H::Event>,
    until: SimTime,
    scratch: &mut Vec<H::Event>,
) -> SimTime {
    scratch.clear();
    while let Some(now) = queue.pop_batch(until, scratch) {
        for event in scratch.drain(..) {
            handler.handle(now, event, queue);
        }
    }
    queue.now()
}

/// Runs the simulation until no events remain, with a safety cap on the
/// number of dispatches to catch runaway self-scheduling loops.
///
/// # Panics
///
/// Panics if more than `max_events` events are dispatched.
#[cfg(test)]
pub fn run_until_idle<H: EventHandler>(
    handler: &mut H,
    queue: &mut EventQueue<H::Event>,
    max_events: u64,
) -> SimTime {
    let start = queue.dispatched();
    while let Some((now, event)) = queue.pop_next(SimTime::MAX) {
        handler.handle(now, event, queue);
        assert!(
            queue.dispatched() - start <= max_events,
            "event budget exhausted: {} events dispatched",
            max_events
        );
    }
    queue.now()
}

#[cfg(test)]
#[path = "../tests/support/reference_queue.rs"]
mod reference_queue;

#[cfg(test)]
mod tests {
    use super::reference_queue::ReferenceQueue;
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
    #[should_panic(expected = "cannot schedule into the past")]
    fn reference_scheduling_into_past_panics() {
        let mut q = ReferenceQueue::new();
        q.schedule_at(SimTime::from_millis(10), "a");
        let _ = q.pop_next(SimTime::MAX);
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

    struct SelfScheduler;
    impl EventHandler for SelfScheduler {
        type Event = ();
        fn handle(&mut self, now: SimTime, _e: (), q: &mut EventQueue<()>) {
            q.schedule_after(now, SimDuration::from_millis(1), ());
        }
    }

    #[test]
    #[should_panic(expected = "event budget exhausted")]
    fn runaway_loop_is_caught() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, ());
        run_until_idle(&mut SelfScheduler, &mut q, 1000);
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

    /// Drains a queue into `(millis, event)` pairs via `pop_next`.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop_next(SimTime::MAX) {
            out.push((t.as_millis(), e));
        }
        out
    }

    #[test]
    fn calendar_resize_preserves_order() {
        // 500 pending events force two bucket doublings (64 → 256).
        let mut q = EventQueue::new();
        let mut r = ReferenceQueue::new();
        for i in 0..500u32 {
            let t = SimTime::from_micros(u64::from((i * 7919) % 997) * 100);
            q.schedule_at(t, i);
            r.schedule_at(t, i);
        }
        let got = drain(&mut q);
        let mut want = Vec::new();
        while let Some((t, e)) = r.pop_next(SimTime::MAX) {
            want.push((t.as_millis(), e));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_outlier_pops_after_cursor_jump() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1), 1);
        // ~10 s ahead: thousands of empty calendar days to skip.
        q.schedule_at(SimTime::from_secs(10), 2);
        q.schedule_at(SimTime::from_millis(2), 3);
        assert_eq!(drain(&mut q), vec![(1, 1), (2, 3), (10_000, 2)]);
    }

    #[test]
    fn cursor_rewinds_for_late_near_schedules() {
        // Draining past a quiet gap pushes the cursor forward; a
        // subsequent near-term schedule must pull it back.
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
        // same-instant post-wrap events sort before pre-wrap ones —
        // identically in both queues.
        let t = SimTime::from_millis(1);
        let mut q = EventQueue::new();
        let mut r = ReferenceQueue::new();
        q.force_seq(u64::MAX - 1);
        r.force_seq(u64::MAX - 1);
        for ev in [10u32, 11, 12, 13] {
            q.schedule_at(t, ev);
            r.schedule_at(t, ev);
        }
        // Scheduled seqs: MAX-1, MAX, 0, 1 → pop order 12, 13, 10, 11.
        let got = drain(&mut q);
        let mut want = Vec::new();
        while let Some((tt, e)) = r.pop_next(SimTime::MAX) {
            want.push((tt.as_millis(), e));
        }
        assert_eq!(got, vec![(1, 12), (1, 13), (1, 10), (1, 11)]);
        assert_eq!(got, want);
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
    fn run_batched_matches_run_with_same_instant_followups() {
        // A handler that, on its first event of an instant, schedules a
        // follow-up at that same instant — the order-sensitive case.
        #[derive(Default)]
        struct Echo {
            seen: Vec<(u64, u32)>,
        }
        impl EventHandler for Echo {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
                self.seen.push((now.as_millis(), ev));
                if ev < 100 && self.seen.len() % 2 == 1 {
                    q.schedule_at(now, ev + 100);
                }
            }
        }
        let schedule = [(5u64, 1u32), (5, 2), (5, 3), (9, 4), (9, 5)];
        let mut serial = Echo::default();
        let mut qs = EventQueue::new();
        for (ms, ev) in schedule {
            qs.schedule_at(SimTime::from_millis(ms), ev);
        }
        run(&mut serial, &mut qs, SimTime::MAX);

        let mut batched = Echo::default();
        let mut qb = EventQueue::new();
        for (ms, ev) in schedule {
            qb.schedule_at(SimTime::from_millis(ms), ev);
        }
        let mut scratch = Vec::new();
        run_batched(&mut batched, &mut qb, SimTime::MAX, &mut scratch);
        assert_eq!(serial.seen, batched.seen);
        assert_eq!(qs.dispatched(), qb.dispatched());
    }

    #[test]
    fn slab_slots_are_recycled() {
        // Steady-state schedule/pop churn must not grow the slab: the
        // free list recycles every popped slot.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.schedule_at(SimTime::from_micros(round * 10), round as u32);
            let _ = q.pop_next(SimTime::MAX);
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.dispatched(), 1000);
        // One live event at a time → the slab never needed >1 slot, and
        // with_capacity(16) means it never reallocated at all.
        assert!(q.slots.len() <= 1, "slab grew to {}", q.slots.len());
    }
}
