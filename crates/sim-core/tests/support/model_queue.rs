//! A model of the event queue's contract, shared as test support.
//!
//! It keeps pending events in a `Vec` and scans it for the smallest
//! `(time, seq)` on every pop: another algorithm than the engine's heap,
//! with the same panics and the same `now`/`pending`/`dispatched`
//! bookkeeping. sim-core's engine unit tests and its `queue_differential`
//! and `fifo_replay` integration tests include this file with `#[path]`;
//! each uses a different subset of its methods.
#![allow(dead_code)]

use sim_core::SimTime;

/// Linear-scan model of `EventQueue`.
#[derive(Debug)]
pub struct ModelQueue<E> {
    pending: Vec<(SimTime, u64, E)>,
    seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> ModelQueue<E> {
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    pub fn force_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({} < {})",
            time,
            self.now
        );
        self.pending.push((time, self.seq, event));
        self.seq = self.seq.wrapping_add(1);
    }

    pub fn pop_next(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        let (i, time) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| (p.0, p.1))
            .map(|(i, p)| (i, p.0))?;
        if time > until {
            return None;
        }
        let (time, _, event) = self.pending.swap_remove(i);
        self.now = time;
        self.dispatched += 1;
        Some((time, event))
    }

    pub fn pop_batch(&mut self, until: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let (t, e) = self.pop_next(until)?;
        out.push(e);
        while let Some((_, e)) = self.pop_next(t) {
            out.push(e);
        }
        Some(t)
    }
}
