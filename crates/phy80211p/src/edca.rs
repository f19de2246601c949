//! EDCA medium access for OCB (outside-the-context-of-a-BSS) operation.
//!
//! ITS-G5 stations contend with EDCA: each access category waits AIFS
//! (= SIFS + AIFSN · slot) of idle medium and then, if the medium was busy
//! when the frame arrived, a random backoff drawn from the contention
//! window. Broadcast frames are sent exactly once — no ACK, no
//! retransmission — so the only stochastic component of the access delay
//! is the backoff.
//!
//! Timing set for 10 MHz channels: slot 13 µs, SIFS 32 µs.

use sim_core::{SimDuration, SimRng, SimTime};

/// Slot time at 10 MHz.
pub const SLOT_US: u64 = 13;
/// SIFS at 10 MHz.
pub const SIFS_US: u64 = 32;

/// The four EDCA access categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessCategory {
    /// Voice — highest priority; DENMs (DCC profile DP0) map here.
    Voice,
    /// Video — CAMs (DP2) map here.
    Video,
    /// Best effort.
    BestEffort,
    /// Background — lowest priority.
    Background,
}

impl AccessCategory {
    /// All categories, highest priority first.
    pub const ALL: [AccessCategory; 4] = [
        AccessCategory::Voice,
        AccessCategory::Video,
        AccessCategory::BestEffort,
        AccessCategory::Background,
    ];

    /// Maps a GeoNetworking DCC profile id to an access category
    /// (DP0→AC_VO, DP1→AC_VI, DP2→AC_BE is the textbook mapping, but
    /// OpenC2X maps CAM/DP2 to AC_VI; we follow the ETSI EN 302 663
    /// table: DP0→VO, DP1/DP2→VI, DP3→BE, else BK).
    pub fn from_dcc_profile(dp: u8) -> Self {
        match dp {
            0 => AccessCategory::Voice,
            1 | 2 => AccessCategory::Video,
            3 => AccessCategory::BestEffort,
            _ => AccessCategory::Background,
        }
    }
}

/// EDCA parameter set for one access category.
///
/// # Example
///
/// ```
/// use phy80211p::edca::{AccessCategory, EdcaParams, Medium};
/// use sim_core::{SimRng, SimTime};
///
/// let voice = EdcaParams::for_category(AccessCategory::Voice);
/// let mut rng = SimRng::seed_from(1);
/// let start = voice.access_time(SimTime::ZERO, &Medium::new(), &mut rng);
/// // Idle medium: transmission starts after exactly AIFS(AC_VO) = 58 µs.
/// assert_eq!(start.as_micros(), 32 + 2 * 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdcaParams {
    /// AIFSN — number of slots after SIFS.
    pub aifsn: u8,
    /// Minimum contention window (slots − 1).
    pub cw_min: u16,
}

impl EdcaParams {
    /// Default OCB parameters for an access category (EN 302 663 Table 2,
    /// derived from aCWmin = 15).
    pub fn for_category(ac: AccessCategory) -> Self {
        let (aifsn, cw_min) = match ac {
            AccessCategory::Voice => (2, 3),
            AccessCategory::Video => (3, 7),
            AccessCategory::BestEffort => (6, 15),
            AccessCategory::Background => (9, 15),
        };
        EdcaParams { aifsn, cw_min }
    }

    /// AIFS duration: SIFS + AIFSN · slot.
    pub fn aifs(&self) -> SimDuration {
        SimDuration::from_micros(SIFS_US + u64::from(self.aifsn) * SLOT_US)
    }

    /// The instant transmission may start for a frame that becomes ready
    /// at `now`:
    ///
    /// * medium idle → `now + AIFS` (no backoff, per 802.11 when the
    ///   medium is idle on arrival);
    /// * medium busy → idle instant + AIFS + random backoff in
    ///   `[0, CWmin]` slots.
    pub fn access_time(&self, now: SimTime, medium: &Medium, rng: &mut SimRng) -> SimTime {
        // detlint:allow(R2) modeled CSMA: the busy check reads deterministic medium state, identical across execution modes
        if !medium.is_busy(now) {
            now + self.aifs()
        } else {
            let idle = medium.idle_at(now);
            let backoff_slots = rng.below(u64::from(self.cw_min) + 1);
            idle + self.aifs() + SimDuration::from_micros(backoff_slots * SLOT_US)
        }
    }
}

/// Shared-medium busy tracker.
///
/// All stations hear the same laboratory-scale channel, so a single busy
/// interval suffices; the testbed updates it on every transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Medium {
    busy_until: SimTime,
}

impl Medium {
    /// Creates an idle medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the medium is busy at `now`.
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// The instant the medium becomes idle (never before `now`).
    pub fn idle_at(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    /// Marks the medium busy until `until` (keeps the later of the two).
    pub fn occupy(&mut self, until: SimTime) {
        self.busy_until = self.busy_until.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_table_matches_en302663() {
        let vo = EdcaParams::for_category(AccessCategory::Voice);
        assert_eq!((vo.aifsn, vo.cw_min), (2, 3));
        let vi = EdcaParams::for_category(AccessCategory::Video);
        assert_eq!((vi.aifsn, vi.cw_min), (3, 7));
        let be = EdcaParams::for_category(AccessCategory::BestEffort);
        assert_eq!((be.aifsn, be.cw_min), (6, 15));
        let bk = EdcaParams::for_category(AccessCategory::Background);
        assert_eq!((bk.aifsn, bk.cw_min), (9, 15));
    }

    #[test]
    fn aifs_values() {
        assert_eq!(
            EdcaParams::for_category(AccessCategory::Voice)
                .aifs()
                .as_micros(),
            58
        );
        assert_eq!(
            EdcaParams::for_category(AccessCategory::Video)
                .aifs()
                .as_micros(),
            71
        );
    }

    #[test]
    fn dcc_profile_mapping() {
        assert_eq!(AccessCategory::from_dcc_profile(0), AccessCategory::Voice);
        assert_eq!(AccessCategory::from_dcc_profile(1), AccessCategory::Video);
        assert_eq!(AccessCategory::from_dcc_profile(2), AccessCategory::Video);
        assert_eq!(
            AccessCategory::from_dcc_profile(3),
            AccessCategory::BestEffort
        );
        assert_eq!(
            AccessCategory::from_dcc_profile(7),
            AccessCategory::Background
        );
    }

    #[test]
    fn idle_medium_no_backoff() {
        let voice = EdcaParams::for_category(AccessCategory::Voice);
        let medium = Medium::new();
        let mut rng = SimRng::seed_from(1);
        let t0 = SimTime::from_millis(100);
        let start = voice.access_time(t0, &medium, &mut rng);
        assert_eq!((start - t0).as_micros(), 58);
    }

    #[test]
    fn idle_medium_access_is_aifs_alone_for_every_category() {
        // AIFS = SIFS + AIFSN · slot at 10 MHz (EN 302 663): 32 µs plus
        // {2, 3, 6, 9} × 13 µs, typed in from the standard rather than
        // read from the parameter table.
        let aifs_us = [
            (AccessCategory::Voice, 58),
            (AccessCategory::Video, 71),
            (AccessCategory::BestEffort, 110),
            (AccessCategory::Background, 149),
        ];
        let now = SimTime::from_micros(7_341);
        let mut busy_until_now = Medium::new();
        busy_until_now.occupy(now);
        for (ac, want_us) in aifs_us {
            let params = EdcaParams::for_category(ac);
            // A medium never occupied, and one busy until exactly `now`.
            for medium in [Medium::new(), busy_until_now] {
                let mut rng = SimRng::seed_from(0x1D1E);
                let start = params.access_time(now, &medium, &mut rng);
                assert_eq!((start - now).as_micros(), want_us, "{ac:?}, {medium:?}");
                // No backoff draw: the stream is where a fresh one is.
                assert_eq!(
                    rng.next_u64(),
                    SimRng::seed_from(0x1D1E).next_u64(),
                    "{ac:?}, {medium:?}"
                );
            }
        }
    }

    #[test]
    fn busy_medium_defers_and_backs_off() {
        let voice = EdcaParams::for_category(AccessCategory::Voice);
        let mut medium = Medium::new();
        medium.occupy(SimTime::from_micros(500));
        let mut rng = SimRng::seed_from(2);
        let mut seen_nonzero_backoff = false;
        for _ in 0..50 {
            let start = voice.access_time(SimTime::ZERO, &medium, &mut rng);
            let delay_after_idle = start.as_micros() - 500;
            // AIFS + backoff in {0..3} slots.
            assert!(delay_after_idle >= 58);
            assert!(delay_after_idle <= 58 + 3 * 13);
            assert_eq!((delay_after_idle - 58) % 13, 0);
            if delay_after_idle > 58 {
                seen_nonzero_backoff = true;
            }
        }
        assert!(seen_nonzero_backoff);
    }

    #[test]
    fn busy_medium_backoff_is_uniform_over_the_contention_window() {
        // Pearson's χ² against uniform on {0..CWmin} slots, at p = 0.001.
        // Critical values typed from a χ² table, indexed by the degrees
        // of freedom CWmin (= slots − 1): 3 for AC_VO, 7 for AC_VI, 15
        // for AC_BE and AC_BK.
        const DRAWS: u64 = 4000;
        let critical = |df: u16| match df {
            3 => 16.27,
            7 => 24.32,
            15 => 37.70,
            _ => unreachable!("no EDCA category has CWmin {df}"),
        };
        let mut medium = Medium::new();
        let idle = SimTime::from_micros(500);
        medium.occupy(idle);
        for ac in AccessCategory::ALL {
            let params = EdcaParams::for_category(ac);
            let slots = u64::from(params.cw_min) + 1;
            let mut counts = vec![0u64; slots as usize];
            let mut rng = SimRng::seed_from(0xEDCA);
            for _ in 0..DRAWS {
                let start = params.access_time(SimTime::ZERO, &medium, &mut rng);
                let backoff_us = (start - idle - params.aifs()).as_micros();
                counts[(backoff_us / SLOT_US) as usize] += 1;
            }
            let expected = DRAWS as f64 / slots as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| (c as f64 - expected).powi(2) / expected)
                .sum();
            assert!(
                chi2 < critical(params.cw_min),
                "{ac:?}: χ² = {chi2:.2} over {slots} slots, counts {counts:?}"
            );
        }
    }

    #[test]
    fn higher_priority_accesses_sooner_on_idle() {
        let medium = Medium::new();
        let mut rng = SimRng::seed_from(3);
        let vo = EdcaParams::for_category(AccessCategory::Voice).access_time(
            SimTime::ZERO,
            &medium,
            &mut rng,
        );
        let bk = EdcaParams::for_category(AccessCategory::Background).access_time(
            SimTime::ZERO,
            &medium,
            &mut rng,
        );
        assert!(vo < bk);
    }

    #[test]
    fn medium_occupy_keeps_latest() {
        let mut m = Medium::new();
        m.occupy(SimTime::from_micros(100));
        m.occupy(SimTime::from_micros(50));
        assert_eq!(m.idle_at(SimTime::ZERO), SimTime::from_micros(100));
        assert!(m.is_busy(SimTime::from_micros(99)));
        assert!(!m.is_busy(SimTime::from_micros(100)));
    }

    proptest! {
        #[test]
        fn aifs_ordering_holds_for_arbitrary_seeds(seed in any::<u64>(), now_us in 0u64..10_000_000) {
            let medium = Medium::new();
            let mut rng = SimRng::seed_from(seed);
            let now = SimTime::from_micros(now_us);
            // Idle medium: access time is deterministic (AIFS only), so the
            // priority order Voice < Video < BestEffort < Background must
            // hold whatever the RNG state.
            let times: Vec<SimTime> = AccessCategory::ALL
                .iter()
                .map(|&ac| EdcaParams::for_category(ac).access_time(now, &medium, &mut rng))
                .collect();
            for pair in times.windows(2) {
                prop_assert!(pair[0] < pair[1], "{times:?}");
            }
        }

        #[test]
        fn busy_medium_backoff_is_slot_aligned_within_window(
            seed in any::<u64>(),
            busy_us in 1u64..100_000,
            ac_idx in 0usize..4,
        ) {
            let params = EdcaParams::for_category(AccessCategory::ALL[ac_idx]);
            let mut medium = Medium::new();
            medium.occupy(SimTime::from_micros(busy_us));
            let mut rng = SimRng::seed_from(seed);
            let start = params.access_time(SimTime::ZERO, &medium, &mut rng);
            let after_idle = start.as_micros() - busy_us;
            let aifs = params.aifs().as_micros();
            prop_assert!(after_idle >= aifs);
            let backoff = after_idle - aifs;
            prop_assert_eq!(backoff % SLOT_US, 0, "backoff not slot-aligned: {}", backoff);
            prop_assert!(backoff <= u64::from(params.cw_min) * SLOT_US);
        }
    }
}
