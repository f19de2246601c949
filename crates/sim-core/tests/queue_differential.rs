//! Differential harness pinning the calendar [`EventQueue`] against the
//! heap-based [`ReferenceQueue`].
//!
//! The reference queue is the executable specification of the ordering
//! contract (ascending `(time, seq)`, FIFO at equal instants); these
//! properties drive both queues through the same arbitrary interleaving
//! of `schedule_at` and `pop_next`/`pop_batch` calls — same-timestamp
//! bursts, far-future outliers that force a calendar resize and cursor
//! jumps, and a forced seq wraparound — and require every observable
//! (popped events, timestamps, `now`, `pending`, `dispatched`) to match
//! exactly, step by step.

#[path = "support/reference_queue.rs"]
mod reference_queue;

use proptest::prelude::*;
use reference_queue::ReferenceQueue;
use sim_core::{EventQueue, SimDuration, SimTime};

/// One step of a queue program, decoded from `(op, raw)` fuzz words.
#[derive(Debug, Clone, Copy)]
enum Step {
    Schedule(SimDuration),
    Pop(Option<SimDuration>),
}

/// Shapes a raw u64 into a schedule-after delay that exercises the
/// calendar's interesting regimes: same-instant bursts, sub-bucket
/// micro-delays, multi-bucket hops, and far-future outliers (whole
/// seconds ahead — thousands of empty calendar days).
fn shape_delay(raw: u64) -> SimDuration {
    match raw % 4 {
        0 => SimDuration::ZERO,
        1 => SimDuration::from_nanos(raw % 1_000),
        2 => SimDuration::from_nanos(raw % 10_000_000),
        _ => SimDuration::from_nanos((raw % 64) * 1_000_000_000),
    }
}

fn decode(ops: &[(u8, u64)]) -> Vec<Step> {
    ops.iter()
        .map(|&(op, raw)| match op {
            // Biased toward schedules so queues actually fill up (and,
            // at the larger program sizes, cross the resize threshold).
            0..=5 => Step::Schedule(shape_delay(raw)),
            6..=8 => Step::Pop(Some(SimDuration::from_nanos(raw % 20_000_000))),
            _ => Step::Pop(None),
        })
        .collect()
}

/// Runs one program against both queues with single-event pops,
/// asserting every observable matches at every step.
fn run_differential(ops: &[(u8, u64)], start_seq: u64) -> Result<(), TestCaseError> {
    let mut cal: EventQueue<u32> = EventQueue::new();
    let mut rf: ReferenceQueue<u32> = ReferenceQueue::new();
    cal.force_seq(start_seq);
    rf.force_seq(start_seq);
    let mut payload: u32 = 0;
    for step in decode(ops) {
        match step {
            Step::Schedule(delay) => {
                let t = cal.now() + delay;
                cal.schedule_at(t, payload);
                rf.schedule_at(t, payload);
                payload += 1;
            }
            Step::Pop(bound) => {
                let until = match bound {
                    Some(d) => cal.now() + d,
                    None => SimTime::MAX,
                };
                prop_assert_eq!(cal.pop_next(until), rf.pop_next(until));
            }
        }
        prop_assert_eq!(cal.now(), rf.now());
        prop_assert_eq!(cal.pending(), rf.pending());
        prop_assert_eq!(cal.dispatched(), rf.dispatched());
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let (a, b) = (cal.pop_next(SimTime::MAX), rf.pop_next(SimTime::MAX));
        prop_assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn pop_order_matches_reference(
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 0..400)
    ) {
        run_differential(&ops, 0)?;
    }

    #[test]
    fn pop_order_matches_reference_across_seq_wrap(
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 0..200),
        back in 0u64..32
    ) {
        // Start the tie-break counter just short of u64::MAX so the
        // wrap happens mid-program; the documented post-wrap ordering
        // must be identical in both queues.
        run_differential(&ops, u64::MAX - back)?;
    }

    #[test]
    fn batch_pops_match_reference(
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 0..300)
    ) {
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut rf: ReferenceQueue<u32> = ReferenceQueue::new();
        let mut payload: u32 = 0;
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for step in decode(&ops) {
            match step {
                Step::Schedule(delay) => {
                    let t = cal.now() + delay;
                    cal.schedule_at(t, payload);
                    rf.schedule_at(t, payload);
                    payload += 1;
                }
                Step::Pop(bound) => {
                    let until = match bound {
                        Some(d) => cal.now() + d,
                        None => SimTime::MAX,
                    };
                    ba.clear();
                    bb.clear();
                    prop_assert_eq!(cal.pop_batch(until, &mut ba), rf.pop_batch(until, &mut bb));
                    prop_assert_eq!(&ba, &bb);
                }
            }
            prop_assert_eq!(cal.pending(), rf.pending());
        }
    }

    #[test]
    fn resize_burst_matches_reference(
        seed in any::<u64>()
    ) {
        // Deterministically derived burst of ~600 pending events: far
        // past the 4×64-slot initial capacity, so the bucket array
        // doubles (64 → 128 → 256) while everything is still pending,
        // then drains in one go.
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut rf: ReferenceQueue<u32> = ReferenceQueue::new();
        let mut x = seed;
        for i in 0..600u32 {
            // splitmix64 step — cheap, deterministic spread.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let t = SimTime::from_nanos(z % 50_000_000);
            cal.schedule_at(t, i);
            rf.schedule_at(t, i);
        }
        loop {
            let (a, b) = (cal.pop_next(SimTime::MAX), rf.pop_next(SimTime::MAX));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
