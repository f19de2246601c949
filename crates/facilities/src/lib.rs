//! ETSI ITS Facilities layer: Cooperative Awareness, Decentralized
//! Environmental Notification, and the Local Dynamic Map.
//!
//! These are the services the paper's §II-B singles out: "the Facilities
//! Layer providing some of the most noteworthy services, namely the
//! Cooperative Awareness (CA) and Decentralized Environmental Notification
//! (DEN) services", both connected to the LDM, "a digital map of all
//! dynamic objects and road details".
//!
//! * [`ca::CaService`] — CAM generation with the EN 302 637-2 adaptive
//!   `T_GenCam` trigger rules (heading / position / speed deltas),
//! * [`den::DenService`] — DENM trigger with repetition and validity
//!   handling (EN 302 637-3 `AppDENM_trigger`) and receiver dedupe,
//! * [`cpm::CpService`] — collective perception (TS 103 324 profile):
//!   CPMs carry a station's own detections to receivers past its
//!   sensor range,
//! * [`ldm::Ldm`] — keyed store of CAM-tracked stations and active
//!   DENMs, with a stations-within-radius query.
//!
//! All services are passive state machines driven by `poll`-style calls
//! from the discrete-event loop, so they compose with any scheduler.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod ca;
pub mod cpm;
pub mod den;
pub mod ldm;

pub use ca::{CaService, StationState};
pub use cpm::{CpService, CpServiceConfig, Cpm, CpmPerceivedObject, ObjectClass};
pub use den::{DenRequest, DenService};
pub use ldm::Ldm;
