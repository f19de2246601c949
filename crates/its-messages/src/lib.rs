//! ETSI ITS message set: CAM and DENM with their full container structure.
//!
//! This crate reproduces the message layer used by the testbed paper:
//!
//! * the common ITS data dictionary elements (reference positions, headings,
//!   speeds, timestamps, station identifiers — ETSI TS 102 894-2),
//! * Cooperative Awareness Messages (CAM, EN 302 637-2),
//! * Decentralized Environmental Notification Messages (DENM, EN 302 637-3)
//!   with Management, Situation, Location and À-la-carte containers
//!   (Figure 2 of the paper),
//! * the cause-code / sub-cause-code tables the paper reproduces as Table I.
//!
//! All messages encode to and decode from compact UPER-style bit streams via
//! the [`uper`] crate, so a DENM put on the simulated air interface has a
//! realistic wire size (a mandatory-only DENM is a few dozen bytes).
//!
//! # Example
//!
//! ```
//! use its_messages::denm::{Denm, ManagementContainer, SituationContainer};
//! use its_messages::common::{ActionId, ReferencePosition, StationId, StationType, TimestampIts};
//! use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
//!
//! # fn main() -> Result<(), uper::UperError> {
//! let denm = Denm::new(
//!     StationId::new(42)?,
//!     ManagementContainer::new(
//!         ActionId::new(StationId::new(42)?, 1),
//!         TimestampIts::new(1_000)?,
//!         TimestampIts::new(1_000)?,
//!         ReferencePosition::from_degrees(41.178, -8.608),
//!         StationType::RoadSideUnit,
//!     ),
//! )
//! .with_situation(SituationContainer::new(
//!     7,
//!     CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
//! )?);
//!
//! let bytes = denm.to_bytes()?;
//! let back = Denm::from_bytes(&bytes)?;
//! assert_eq!(denm, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod cam;
pub mod cause_codes;
pub mod common;
pub mod denm;
pub mod header;

pub use header::{ItsPduHeader, MessageId, PROTOCOL_VERSION};
