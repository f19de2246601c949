//! Differential harness holding the heap [`EventQueue`] to the
//! linear-scan [`ModelQueue`].
//!
//! The model is the executable specification of the ordering contract
//! (ascending `(time, seq)`, FIFO at equal instants); these properties
//! drive both queues through the same arbitrary interleaving of
//! `schedule_at` and `pop_next`/`pop_batch` calls — same-timestamp
//! bursts, far-future outliers, a 600-event burst and a forced seq
//! wraparound — and require every observable (popped events,
//! timestamps, `now`, `pending`, `dispatched`) to match exactly, step by
//! step.

#[path = "support/model_queue.rs"]
mod model_queue;

use model_queue::ModelQueue;
use proptest::prelude::*;
use sim_core::{EventQueue, SimDuration, SimTime};

/// One step of a queue program, decoded from `(op, raw)` fuzz words.
#[derive(Debug, Clone, Copy)]
enum Step {
    Schedule(SimDuration),
    Pop(Option<SimDuration>),
}

/// Shapes a raw u64 into a schedule-after delay in one of four regimes:
/// same-instant bursts, sub-microsecond delays, hops of up to 10 ms,
/// and far-future outliers (whole seconds ahead).
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
            // Biased toward schedules so queues actually fill up.
            0..=5 => Step::Schedule(shape_delay(raw)),
            6..=8 => Step::Pop(Some(SimDuration::from_nanos(raw % 20_000_000))),
            _ => Step::Pop(None),
        })
        .collect()
}

/// Runs one program against both queues with single-event pops,
/// asserting every observable matches at every step.
fn run_differential(ops: &[(u8, u64)], start_seq: u64) -> Result<(), TestCaseError> {
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut model: ModelQueue<u32> = ModelQueue::new();
    heap.force_seq(start_seq);
    model.force_seq(start_seq);
    let mut payload: u32 = 0;
    for step in decode(ops) {
        match step {
            Step::Schedule(delay) => {
                let t = heap.now() + delay;
                heap.schedule_at(t, payload);
                model.schedule_at(t, payload);
                payload += 1;
            }
            Step::Pop(bound) => {
                let until = match bound {
                    Some(d) => heap.now() + d,
                    None => SimTime::MAX,
                };
                prop_assert_eq!(heap.pop_next(until), model.pop_next(until));
            }
        }
        prop_assert_eq!(heap.now(), model.now());
        prop_assert_eq!(heap.pending(), model.pending());
        prop_assert_eq!(heap.dispatched(), model.dispatched());
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let (a, b) = (heap.pop_next(SimTime::MAX), model.pop_next(SimTime::MAX));
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
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut model: ModelQueue<u32> = ModelQueue::new();
        let mut payload: u32 = 0;
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        for step in decode(&ops) {
            match step {
                Step::Schedule(delay) => {
                    let t = heap.now() + delay;
                    heap.schedule_at(t, payload);
                    model.schedule_at(t, payload);
                    payload += 1;
                }
                Step::Pop(bound) => {
                    let until = match bound {
                        Some(d) => heap.now() + d,
                        None => SimTime::MAX,
                    };
                    ba.clear();
                    bb.clear();
                    prop_assert_eq!(heap.pop_batch(until, &mut ba), model.pop_batch(until, &mut bb));
                    prop_assert_eq!(&ba, &bb);
                }
            }
            prop_assert_eq!(heap.pending(), model.pending());
        }
    }

    #[test]
    fn resize_burst_matches_reference(
        seed in any::<u64>()
    ) {
        // Deterministically derived burst of 600 pending events: far
        // past the largest pending set a scenario reaches, so the heap
        // grows while everything is still pending, then drains in one
        // go.
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut model: ModelQueue<u32> = ModelQueue::new();
        let mut x = seed;
        for i in 0..600u32 {
            // splitmix64 step — cheap, deterministic spread.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let t = SimTime::from_nanos(z % 50_000_000);
            heap.schedule_at(t, i);
            model.schedule_at(t, i);
        }
        loop {
            let (a, b) = (heap.pop_next(SimTime::MAX), model.pop_next(SimTime::MAX));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
