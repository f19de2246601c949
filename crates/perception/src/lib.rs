//! Road-side perception: camera, object detection, and hazard
//! advertisement (paper §III-C).
//!
//! The testbed's edge infrastructure is a ZED camera and a Jetson Xavier
//! NX running YOLOv3 on Darknet at ≈ 4 frames per second. This crate
//! models that pipeline faithfully, including the behaviours the paper
//! documents from experiment:
//!
//! * the frame clock (≈ 4 FPS) bounding detection freshness (Fig. 10's
//!   "small error margin on detection"),
//! * YOLO's unreliable classification of the scale vehicle: *motorbike*
//!   when bare, oscillating *car*/*truck* with the Traxxas body shell and
//!   very range/angle-sensitive, and the cardboard *stop sign* that
//!   "proved to be the most resilient option" (Fig. 7),
//! * the distance-estimation quirk: under ≈ 0.75 m the estimated distance
//!   defaults to 1.73 m,
//! * the Hazard Advertisement Service that watches the Region of
//!   Interest, consults the LDM, and triggers a DENM when a road user
//!   crosses the Action Point.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod camera;
pub mod detector;
pub mod hazard;
pub mod tracker;

pub use camera::{GroundTruthTarget, RoadSideCamera, TargetAppearance};
pub use detector::{Detection, YoloModel};
pub use hazard::{HazardAdvertisementService, HazardConfig, HazardDecision};
pub use tracker::{Track, Tracker};
