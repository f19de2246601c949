//! The 1/10-scale robotic vehicle (CopaDrive / F1Tenth-style platform).
//!
//! Reproduces the in-vehicle half of the testbed (paper §III-B): a Traxxas
//! Rally 1/10 chassis whose electric motor is driven by an ESC over PWM, a
//! Jetson running the line-following pipeline (camera → edge detection →
//! probabilistic Hough transform → motion planner → PID steering), and a
//! Teensy MCU bridging the Jetson to motor and servo over USART.
//!
//! Module map (mirrors Figure 5/6 of the paper):
//!
//! * [`dynamics`] — longitudinal model (drive force, rolling resistance,
//!   drag, power-cut coast-down) and the bicycle kinematics,
//! * [`pid`] — the PID controller used for steering,
//! * [`linefollow`] — the Line Detection algorithm: the floor line as a
//!   synthetic camera renders it, row by row, with each row's edge
//!   pixels, a probabilistic Hough vote, and lane-line estimation,
//! * [`actuators`] — ESC/PWM and the Teensy USART link, including the
//!   emergency power-cut path,
//! * [`planner`] — the Motion Planner and Message Handler: line following
//!   in normal operation, stop override when a DENM arrives,
//! * [`sensors`] — wheel-encoder odometry, the measured speed the OBU's
//!   CAMs carry,
//! * [`watchdog`] — the V2X heartbeat watchdog: supervises CAM/DENM
//!   liveness and drives the fail-safe degradation ladder (speed cap,
//!   controlled stop, recovery).
//!
//! Every scenario holds a fixed throttle on approach and sends a fixed
//! CAM heading, so the crate models neither a speed governor nor an IMU.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod actuators;
pub mod dynamics;
pub mod linefollow;
pub mod pid;
pub mod planner;
pub mod sensors;
pub mod watchdog;

pub use actuators::{ActuatorCommand, TeensyLink};
pub use dynamics::{BicycleState, LongitudinalModel, VehicleParams};
pub use linefollow::{LineFollower, Track};
pub use pid::Pid;
pub use planner::{DriveMode, MessageHandler, MotionPlanner};
pub use sensors::WheelOdometry;
pub use watchdog::{DegradationLevel, V2xWatchdog, WatchdogConfig, WatchdogTrips};
