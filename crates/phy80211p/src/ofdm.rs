//! OFDM PHY timing and rate set for 802.11p (10 MHz channels).
//!
//! With the 10 MHz channelisation of ITS-G5, all 802.11a OFDM timing
//! parameters double: 8 µs symbols, 32 µs PLCP preamble, 8 µs SIGNAL
//! field. The mandatory rate set runs from 3 to 27 Mbit/s; control traffic
//! defaults to 6 Mbit/s (QPSK 1/2), which is what OpenC2X uses.

use sim_core::SimDuration;

/// OFDM symbol duration at 10 MHz.
pub const SYMBOL_US: u64 = 8;
/// PLCP preamble duration at 10 MHz.
pub const PREAMBLE_US: u64 = 32;
/// SIGNAL field duration at 10 MHz (one symbol).
pub const SIGNAL_US: u64 = 8;
/// PLCP SERVICE field bits prepended to the PSDU.
pub const SERVICE_BITS: u64 = 16;
/// Convolutional-coder tail bits appended to the PSDU.
pub const TAIL_BITS: u64 = 6;

/// The eight ITS-G5 data rates (modulation + coding rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataRate {
    /// BPSK 1/2 — 3 Mbit/s.
    Mbps3,
    /// BPSK 3/4 — 4.5 Mbit/s.
    Mbps4_5,
    /// QPSK 1/2 — 6 Mbit/s (the default control rate).
    Mbps6,
    /// QPSK 3/4 — 9 Mbit/s.
    Mbps9,
    /// 16-QAM 1/2 — 12 Mbit/s.
    Mbps12,
    /// 16-QAM 3/4 — 18 Mbit/s.
    Mbps18,
    /// 64-QAM 2/3 — 24 Mbit/s.
    Mbps24,
    /// 64-QAM 3/4 — 27 Mbit/s.
    Mbps27,
}

/// The modulation family of a data rate (drives the error model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying.
    Bpsk,
    /// Quadrature phase-shift keying.
    Qpsk,
    /// 16-point quadrature amplitude modulation.
    Qam16,
    /// 64-point quadrature amplitude modulation.
    Qam64,
}

impl DataRate {
    /// All rates, slowest first.
    pub const ALL: [DataRate; 8] = [
        DataRate::Mbps3,
        DataRate::Mbps4_5,
        DataRate::Mbps6,
        DataRate::Mbps9,
        DataRate::Mbps12,
        DataRate::Mbps18,
        DataRate::Mbps24,
        DataRate::Mbps27,
    ];

    /// Data bits carried per OFDM symbol (N_DBPS).
    pub fn bits_per_symbol(&self) -> u64 {
        match self {
            DataRate::Mbps3 => 24,
            DataRate::Mbps4_5 => 36,
            DataRate::Mbps6 => 48,
            DataRate::Mbps9 => 72,
            DataRate::Mbps12 => 96,
            DataRate::Mbps18 => 144,
            DataRate::Mbps24 => 192,
            DataRate::Mbps27 => 216,
        }
    }

    /// Nominal rate in bits per second.
    pub fn bits_per_second(&self) -> u64 {
        self.bits_per_symbol() * 1_000_000 / SYMBOL_US
    }

    /// Modulation family.
    pub fn modulation(&self) -> Modulation {
        match self {
            DataRate::Mbps3 | DataRate::Mbps4_5 => Modulation::Bpsk,
            DataRate::Mbps6 | DataRate::Mbps9 => Modulation::Qpsk,
            DataRate::Mbps12 | DataRate::Mbps18 => Modulation::Qam16,
            DataRate::Mbps24 | DataRate::Mbps27 => Modulation::Qam64,
        }
    }

    /// Convolutional coding rate as (numerator, denominator).
    pub fn coding_rate(&self) -> (u32, u32) {
        match self {
            DataRate::Mbps3 | DataRate::Mbps6 | DataRate::Mbps12 => (1, 2),
            DataRate::Mbps24 => (2, 3),
            _ => (3, 4),
        }
    }
}

impl std::fmt::Display for DataRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mbps = self.bits_per_second() as f64 / 1e6;
        write!(f, "{mbps} Mbit/s")
    }
}

/// Airtime of a PSDU of `len_bytes` at `rate`: preamble + SIGNAL +
/// `ceil((16 + 8·len + 6) / N_DBPS)` data symbols.
///
/// # Example
///
/// ```
/// use phy80211p::ofdm::{airtime, DataRate};
/// // An empty frame still costs preamble + SIGNAL + one symbol.
/// assert_eq!(airtime(0, DataRate::Mbps27).as_micros(), 32 + 8 + 8);
/// ```
pub fn airtime(len_bytes: usize, rate: DataRate) -> SimDuration {
    let bits = SERVICE_BITS + 8 * len_bytes as u64 + TAIL_BITS;
    let symbols = bits.div_ceil(rate.bits_per_symbol());
    SimDuration::from_micros(PREAMBLE_US + SIGNAL_US + symbols * SYMBOL_US)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nominal_rates() {
        assert_eq!(DataRate::Mbps3.bits_per_second(), 3_000_000);
        assert_eq!(DataRate::Mbps6.bits_per_second(), 6_000_000);
        assert_eq!(DataRate::Mbps27.bits_per_second(), 27_000_000);
        assert_eq!(DataRate::Mbps4_5.bits_per_second(), 4_500_000);
    }

    #[test]
    fn airtime_100_byte_frame_at_6mbps() {
        // 16 + 800 + 6 = 822 bits; ceil(822/48) = 18 symbols = 144 µs.
        let t = airtime(100, DataRate::Mbps6);
        assert_eq!(t.as_micros(), 32 + 8 + 144);
    }

    #[test]
    fn airtime_of_the_documented_gn_frames() {
        // The collision DENM's ~96 B GN frame (EXPERIMENTS.md) and the
        // ~120 B frame of DESIGN.md §4, both charged without MAC
        // header, LLC or FCS: 17 and 21 data symbols.
        assert_eq!(airtime(96, DataRate::Mbps6).as_micros(), 176);
        assert_eq!(airtime(120, DataRate::Mbps6).as_micros(), 208);
    }

    #[test]
    fn airtime_monotone_in_length() {
        for rate in DataRate::ALL {
            let mut prev = SimDuration::ZERO;
            for len in [0usize, 10, 50, 100, 500, 1500] {
                let t = airtime(len, rate);
                assert!(t >= prev, "{rate} len {len}");
                prev = t;
            }
        }
    }

    #[test]
    fn faster_rate_never_slower() {
        for pair in DataRate::ALL.windows(2) {
            let slow = airtime(300, pair[0]);
            let fast = airtime(300, pair[1]);
            assert!(fast <= slow, "{} vs {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn coding_and_modulation_table() {
        assert_eq!(DataRate::Mbps6.modulation(), Modulation::Qpsk);
        assert_eq!(DataRate::Mbps6.coding_rate(), (1, 2));
        assert_eq!(DataRate::Mbps27.modulation(), Modulation::Qam64);
        assert_eq!(DataRate::Mbps27.coding_rate(), (3, 4));
        assert_eq!(DataRate::Mbps24.coding_rate(), (2, 3));
    }

    #[test]
    fn display_format() {
        assert_eq!(DataRate::Mbps6.to_string(), "6 Mbit/s");
        assert_eq!(DataRate::Mbps4_5.to_string(), "4.5 Mbit/s");
    }

    proptest! {
        #[test]
        fn airtime_matches_formula(len in 0usize..4096) {
            // N_DBPS is the nominal rate times the 8 µs symbol, from the
            // literal rates in kbit/s: 3 Mbit/s → 24 … 27 Mbit/s → 216.
            for (rate, kbps) in [
                (DataRate::Mbps3, 3_000),
                (DataRate::Mbps4_5, 4_500),
                (DataRate::Mbps6, 6_000),
                (DataRate::Mbps9, 9_000),
                (DataRate::Mbps12, 12_000),
                (DataRate::Mbps18, 18_000),
                (DataRate::Mbps24, 24_000),
                (DataRate::Mbps27, 27_000),
            ] {
                let n_dbps = kbps * 8 / 1_000;
                let bits = 16 + 8 * len as u64 + 6;
                let syms = bits.div_ceil(n_dbps);
                prop_assert_eq!(
                    airtime(len, rate).as_micros(),
                    32 + 8 + syms * 8,
                    "{} at {} B",
                    rate,
                    len
                );
            }
        }
    }
}
