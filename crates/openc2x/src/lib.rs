//! OpenC2X-style ITS stations: OBU and RSU node glue, the HTTP
//! application API, and the vehicle-side polling model.
//!
//! OpenC2X (paper §III-D) exposes its DEN/CA applications "to the user
//! via an HTTP API": the road-side infrastructure POSTs to
//! `/trigger_denm` on the RSU to send a DENM, and the vehicle's script
//! polls `/request_denm` on the OBU — "If no DENM is found, it only
//! returns an HTTP 200 success status code. If a DENM was received by the
//! OBU, a response to the request is sent and power to the wheels is
//! interrupted."
//!
//! Three layers are provided:
//!
//! * [`http`] — a minimal HTTP/1.1 server and client over `std::net`
//!   TCP, suitable for hardware-in-the-loop style integration tests that
//!   exercise the real socket path,
//! * [`api`] — the OpenC2X endpoint semantics (`/trigger_denm`,
//!   `/request_denm`) with UPER-encoded DENMs in the bodies,
//! * [`node`] — the full per-station stack assembly (facilities +
//!   GeoNetworking + 802.11p MAC parameters) used by the discrete-event
//!   experiments, plus [`node::PollingModel`], the latency model of the
//!   HTTP polling loop that dominates the paper's OBU→actuator interval.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod node;

pub use api::{ObuApi, RsuApi};
pub use http::{poll_with_retry, PollError, PollOutcome, RetryPolicy};
pub use node::{ItsStation, PollingModel, StationConfig, StationRole};
