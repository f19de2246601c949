//! Deterministic discrete-event simulation (DES) substrate.
//!
//! The paper's testbed is physical hardware: four hosts (edge node, RSU,
//! OBU, vehicle ECU) synchronised over NTP, a radio channel, a camera and a
//! moving vehicle. This crate replaces the physical clock and concurrency
//! with a deterministic event queue so that the *same code paths* (message
//! encoding, MAC access, polling loops, control laws) run in a controlled,
//! reproducible timeline:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] / [`run`] — a binary min-heap event scheduler with a
//!   stable FIFO tie-break for events at the same instant, and its
//!   one-event-at-a-time dispatch loop,
//! * [`SimRng`] — a seedable, forkable random source (xoshiro256++), so
//!   every run is reproducible from a single `u64` seed,
//! * [`NodeClock`] — a per-host wall clock with NTP-style offset and drift,
//!   producing the millisecond-quantised timestamps the paper logs,
//! * [`Trace`] — an event trace with a stable digest, used by the
//!   determinism tests.
//!
//! # Example
//!
//! ```
//! use sim_core::{run, EventHandler, EventQueue, SimDuration, SimTime};
//!
//! struct Counter(u32);
//! impl EventHandler for Counter {
//!     type Event = &'static str;
//!     fn handle(&mut self, now: SimTime, _ev: &'static str,
//!               q: &mut EventQueue<&'static str>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             q.schedule_after(now, SimDuration::from_millis(10), "tick");
//!         }
//!     }
//! }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::ZERO, "tick");
//! let mut c = Counter(0);
//! let end = run(&mut c, &mut q, SimTime::from_secs(1));
//! assert_eq!(c.0, 3);
//! assert_eq!(end, SimTime::from_millis(20));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

// Test-support files shared with the integration tests name this crate
// `sim_core`, as the integration tests do.
#[cfg(test)]
extern crate self as sim_core;

mod clock;
mod engine;
pub mod math;
mod rng;
mod time;
mod trace;

pub use clock::{NodeClock, NtpModel};
pub use engine::{run, EventHandler, EventQueue};
pub use rng::{RngCore, SimRng};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};

// The DES substrate runs inside worker threads of the parallel campaign
// runner (crates/runner): every building block of a simulation must be
// `Send` so a whole seeded run can execute on a worker and its results
// move back to the merging thread. Checked at compile time so a future
// `Rc`/`RefCell` regression fails here with a named type.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SimTime>();
    assert_send::<SimDuration>();
    assert_send::<SimRng>();
    assert_send::<NodeClock>();
    assert_send::<Trace>();
    assert_send::<EventQueue<()>>();
};
