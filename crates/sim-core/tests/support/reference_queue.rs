//! The original min-heap event queue, shared as test support.
//!
//! sim-core's engine unit tests and its `queue_differential` and
//! `fifo_replay` integration tests include this file with `#[path]`;
//! nothing outside tests uses it, so it is not part of the crate's API.
//! Each includer uses a different subset of the queue's methods.
#![allow(dead_code)]

use sim_core::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending event in the reference queue: ordered by time, then by
/// insertion sequence.
#[derive(Debug)]
struct Pending<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The original min-heap event queue, kept as the executable
/// specification of the ordering contract. Same API and same panics as
/// [`EventQueue`]; the differential proptest harness asserts the two
/// produce bitwise-identical pop sequences.
#[derive(Debug)]
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Reverse<Pending<E>>>,
    seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
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
    /// # Panics
    ///
    /// Panics (release builds included) if `time` is before the queue's
    /// current time — scheduling into the past is always a logic error.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({} < {})",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.heap.push(Reverse(Pending { time, seq, event }));
    }

    /// Schedules `event` at `base + delay` (same contract as
    /// [`EventQueue::schedule_after`]).
    ///
    /// # Panics
    ///
    /// Panics if `base + delay` is before the queue's current time.
    pub fn schedule_after(&mut self, base: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(base + delay, event);
    }

    /// Pops the next event if one exists at or before `until`.
    pub fn pop_next(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if let Some(Reverse(head)) = self.heap.peek() {
            if head.time > until {
                return None;
            }
        }
        self.heap.pop().map(|Reverse(p)| {
            self.now = p.time;
            self.dispatched += 1;
            (p.time, p.event)
        })
    }

    /// Batch form of [`ReferenceQueue::pop_next`]; same contract as
    /// [`EventQueue::pop_batch`].
    pub fn pop_batch(&mut self, until: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let (t, e) = self.pop_next(until)?;
        out.push(e);
        while let Some((_, e2)) = self.pop_next(t) {
            out.push(e2);
        }
        Some(t)
    }

    /// Test support: forces the FIFO tie-break counter (see
    /// [`EventQueue::force_seq`]).
    #[doc(hidden)]
    pub fn force_seq(&mut self, seq: u64) {
        self.seq = seq;
    }
}
