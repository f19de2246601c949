//! IEEE 802.11p (ITS-G5) access-layer simulation: OFDM PHY timing, EDCA
//! medium access, and a wireless channel model.
//!
//! The testbed's OBU/RSU radios are Compex WLE200NX modules in OCB mode on
//! a 10 MHz channel at 5.9 GHz. This crate reproduces the quantities that
//! shape the paper's RSU→OBU delay (Table II row 2, avg 1.6 ms):
//!
//! * [`ofdm`] — frame airtime per IEEE 802.11-2012 Clause 18 with the
//!   10 MHz timing set (8 µs symbols, 32 µs preamble),
//! * [`edca`] — AIFS and the CWmin backoff for the four access categories
//!   (ETSI EN 302 663); broadcast frames are sent once, with no ACK and no
//!   retransmission,
//! * [`channel`] — log-distance path loss with log-normal shadowing, an
//!   NLoS blind-corner obstruction model, and an SNR→frame-error model per
//!   modulation/coding scheme,
//! * [`cellular`] — a 5G-like alternative access interface (paper §V
//!   future work) for the interface-comparison extension experiment,
//! * [`spatial`] — a grid-bucket spatial index so city-scale broadcasts
//!   only evaluate receivers within the channel's cutoff radius.
//!
//! # Example
//!
//! ```
//! use phy80211p::ofdm::{DataRate, airtime};
//!
//! // A 100-byte DENM frame at the 6 Mbit/s default rate:
//! let t = airtime(100, DataRate::Mbps6);
//! assert_eq!(t.as_micros(), 32 + 8 + 8 * 18); // preamble + SIGNAL + data
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod cellular;
pub mod channel;
pub mod dcc;
pub mod edca;
pub mod ofdm;
pub mod spatial;

pub use channel::{Channel, ChannelConfig, FrameLink, Obstacle, Position2D, TransmitOutcome};
pub use edca::{AccessCategory, EdcaParams, Medium};
pub use ofdm::{airtime, DataRate};
pub use spatial::SpatialGrid;
