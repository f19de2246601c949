//! # ETSI ITS-enabled Robotic Scale Testbed
//!
//! A full software reproduction of the testbed of *"An ETSI ITS-enabled
//! Robotic Scale Testbed for Network-Aided Safety-Critical Scenarios"*
//! (DSN 2023): a 1/10-scale autonomous vehicle with an ETSI ITS On-Board
//! Unit, and a road-side infrastructure (camera + edge object detection +
//! Road-Side Unit) that detects an impending collision and issues a DENM
//! that makes the vehicle emergency-brake.
//!
//! Everything the physical testbed contained is implemented as a
//! simulated substrate on a deterministic discrete-event engine: the ETSI
//! ITS stack (UPER-coded CAM/DENM, GeoNetworking + BTP, CA/DEN/LDM
//! facilities), the IEEE 802.11p access layer, the OpenC2X-style HTTP
//! application API, the YOLO-like road-side perception, and the vehicle's
//! line-following control chain down to the ESC.
//!
//! ## Quick start
//!
//! ```
//! use its_testbed::scenario::{Scenario, ScenarioConfig};
//!
//! let record = Scenario::new(ScenarioConfig { seed: 7, ..Default::default() }).run();
//! assert!(record.completed());
//! let total = record.total_delay_ms().unwrap();
//! assert!(total < 100, "paper's headline claim: under 100 ms");
//! ```
//!
//! ## Reproducing the paper's tables and figures
//!
//! The [`experiments`] module regenerates every evaluation artefact:
//! [`experiments::table2`] (per-step intervals), [`experiments::fig11`]
//! (EDF of total delay), [`experiments::table3`] (braking distances),
//! [`experiments::fig10`] (video-frame detection-to-stop), and
//! [`experiments::table1`] (cause-code table). The extension experiments
//! ([`platoon`], the cellular comparison in
//! [`scenario::DenmLink::Cellular`], and the blind-corner ablation in
//! `benches`) implement the paper's §V future work.
//!
//! Campaigns (the `experiments` tables and every `ablation` sweep) are
//! [`campaign::CampaignSpec`]s executed through the generic
//! [`campaign::Executor`] interface: [`campaign::Serial`] (a plain
//! loop), the deterministic thread pool [`Runner`] (crate `runner`,
//! `RUNNER_THREADS` overrides the worker count), or socket worker
//! processes (crate `campaignd`, DESIGN.md §10). All executors share
//! the static-chunk/index-merge contract, so results are bitwise
//! identical however a campaign is run. [`wire`] gives [`RunRecord`] the
//! versioned binary encoding the shard protocol ships between processes.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
mod chain;
pub mod city;
pub mod congestion;
pub mod coopsweep;
pub mod experiments;
pub mod faultsweep;
pub mod intersection;
pub mod metrics;
pub mod platoon;
pub mod scaling;
pub mod scenario;
pub mod station;
pub mod submission;
pub mod wire;

pub use campaign::{CampaignRegistry, CampaignSpec, Executor, SeedSchedule, Serial};
pub use runner::Runner;
pub use scenario::{RunRecord, Scenario, ScenarioConfig};
