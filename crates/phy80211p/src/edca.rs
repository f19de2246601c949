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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdcaParams {
    /// AIFSN — number of slots after SIFS.
    pub aifsn: u8,
    /// Minimum contention window (slots − 1).
    pub cw_min: u16,
    /// Maximum contention window (slots − 1); the ceiling the
    /// [`BackoffState`] doubling law converges to under repeated retries.
    pub cw_max: u16,
}

impl EdcaParams {
    /// Default OCB parameters for an access category (EN 302 663 Table 2,
    /// derived from aCWmin = 15).
    pub fn for_category(ac: AccessCategory) -> Self {
        match ac {
            AccessCategory::Voice => EdcaParams {
                aifsn: 2,
                cw_min: 3,
                cw_max: 7,
            },
            AccessCategory::Video => EdcaParams {
                aifsn: 3,
                cw_min: 7,
                cw_max: 15,
            },
            AccessCategory::BestEffort => EdcaParams {
                aifsn: 6,
                cw_min: 15,
                cw_max: 1023,
            },
            AccessCategory::Background => EdcaParams {
                aifsn: 9,
                cw_min: 15,
                cw_max: 1023,
            },
        }
    }

    /// AIFS duration: SIFS + AIFSN · slot.
    pub fn aifs(&self) -> SimDuration {
        SimDuration::from_micros(SIFS_US + u64::from(self.aifsn) * SLOT_US)
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

/// EDCA channel access for a single station.
///
/// # Example
///
/// ```
/// use phy80211p::edca::{AccessCategory, EdcaMac, Medium};
/// use sim_core::{SimRng, SimTime};
///
/// let mac = EdcaMac::new();
/// let medium = Medium::new();
/// let mut rng = SimRng::seed_from(1);
/// let start = mac.access_time(
///     SimTime::ZERO, AccessCategory::Voice, &medium, &mut rng);
/// // Idle medium: transmission starts after exactly AIFS(AC_VO) = 58 µs.
/// assert_eq!(start.as_micros(), 32 + 2 * 13);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdcaMac {
    /// Optional override of the per-category parameters.
    overrides: Vec<(AccessCategory, EdcaParams)>,
}

impl EdcaMac {
    /// Creates a MAC with the default OCB parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the parameters of one category.
    pub fn with_params(mut self, ac: AccessCategory, params: EdcaParams) -> Self {
        self.overrides.retain(|(c, _)| *c != ac);
        self.overrides.push((ac, params));
        self
    }

    /// Parameters in effect for `ac`.
    pub fn params(&self, ac: AccessCategory) -> EdcaParams {
        self.overrides
            .iter()
            .find(|(c, _)| *c == ac)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| EdcaParams::for_category(ac))
    }

    /// The instant transmission may start for a frame that becomes ready
    /// at `now`:
    ///
    /// * medium idle and stays idle through AIFS → `now + AIFS`
    ///   (no backoff, per 802.11 when the medium is idle on arrival);
    /// * medium busy → idle instant + AIFS + random backoff in
    ///   `[0, CWmin]` slots.
    pub fn access_time(
        &self,
        now: SimTime,
        ac: AccessCategory,
        medium: &Medium,
        rng: &mut SimRng,
    ) -> SimTime {
        let params = self.params(ac);
        // detlint:allow(R2) modeled CSMA: the busy check reads deterministic medium state, identical across execution modes
        if !medium.is_busy(now) {
            now + params.aifs()
        } else {
            let idle = medium.idle_at(now);
            let backoff_slots = rng.below(u64::from(params.cw_min) + 1);
            idle + params.aifs() + SimDuration::from_micros(backoff_slots * SLOT_US)
        }
    }
}

/// Per-frame contention-window state with the standard 802.11 binary
/// exponential backoff law.
///
/// Broadcast ITS frames are sent exactly once, so [`EdcaMac`] never
/// retries; this state machine models the unicast/retry side of EDCA for
/// ablations of acknowledged hand-offs. Each failed attempt doubles the
/// window (`cw' = min(2·cw + 1, CWmax)`) and a success resets it to
/// CWmin; the drawn backoff is always within `[0, cw]` slots.
///
/// # Example
///
/// ```
/// use phy80211p::edca::{AccessCategory, BackoffState};
///
/// let mut state = BackoffState::new(AccessCategory::Voice);
/// assert_eq!(state.cw(), 3);
/// state.on_retry();
/// assert_eq!(state.cw(), 7); // 2·3 + 1, already at CWmax for AC_VO
/// state.on_retry();
/// assert_eq!(state.cw(), 7); // capped
/// state.on_success();
/// assert_eq!(state.cw(), 3); // reset
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffState {
    params: EdcaParams,
    cw: u16,
    retries: u32,
}

impl BackoffState {
    /// Fresh state for `ac` with the default OCB parameter set.
    pub fn new(ac: AccessCategory) -> Self {
        Self::with_params(EdcaParams::for_category(ac))
    }

    /// Fresh state for an explicit parameter set. The window starts at
    /// `min(CWmin, CWmax)` so a degenerate set (`cw_min > cw_max`) still
    /// respects the ceiling.
    pub fn with_params(params: EdcaParams) -> Self {
        Self {
            params,
            cw: params.cw_min.min(params.cw_max),
            retries: 0,
        }
    }

    /// The parameter set in effect.
    pub fn params(&self) -> EdcaParams {
        self.params
    }

    /// Current contention window (slots − 1).
    pub fn cw(&self) -> u16 {
        self.cw
    }

    /// Consecutive failed attempts since the last success.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Records a failed attempt: the window doubles (`2·cw + 1`) and
    /// saturates at CWmax.
    // detlint:allow(U1) the retry law of BackoffState, an S3 hot-path entry that its doc example and tests drive
    pub fn on_retry(&mut self) {
        self.retries = self.retries.saturating_add(1);
        self.cw = self
            .cw
            .saturating_mul(2)
            .saturating_add(1)
            .min(self.params.cw_max);
    }

    /// Records a delivered frame: the window resets to CWmin and the
    /// retry counter clears.
    // detlint:allow(U1) the reset law of BackoffState, an S3 hot-path entry that its doc example and tests drive
    pub fn on_success(&mut self) {
        self.retries = 0;
        self.cw = self.params.cw_min.min(self.params.cw_max);
    }

    /// Draws a uniform backoff in `[0, cw]` slots.
    pub fn draw_slots(&self, rng: &mut SimRng) -> u16 {
        // below(cw + 1) < cw + 1 ≤ 65_536, so the cast never truncates.
        rng.below(u64::from(self.cw) + 1) as u16
    }

    /// The instant transmission may start for a frame ready at `now`,
    /// with the backoff drawn from the *current* (retry-widened) window:
    /// idle medium → `now + AIFS`; busy medium → idle instant + AIFS +
    /// backoff.
    pub fn access_time(&self, now: SimTime, medium: &Medium, rng: &mut SimRng) -> SimTime {
        if !medium.is_busy(now) {
            now + self.params.aifs()
        } else {
            let slots = u64::from(self.draw_slots(rng));
            medium.idle_at(now) + self.params.aifs() + SimDuration::from_micros(slots * SLOT_US)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_table_matches_en302663() {
        let vo = EdcaParams::for_category(AccessCategory::Voice);
        assert_eq!((vo.aifsn, vo.cw_min, vo.cw_max), (2, 3, 7));
        let vi = EdcaParams::for_category(AccessCategory::Video);
        assert_eq!((vi.aifsn, vi.cw_min, vi.cw_max), (3, 7, 15));
        let be = EdcaParams::for_category(AccessCategory::BestEffort);
        assert_eq!((be.aifsn, be.cw_min, be.cw_max), (6, 15, 1023));
        let bk = EdcaParams::for_category(AccessCategory::Background);
        assert_eq!((bk.aifsn, bk.cw_min, bk.cw_max), (9, 15, 1023));
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
        let mac = EdcaMac::new();
        let medium = Medium::new();
        let mut rng = SimRng::seed_from(1);
        let t0 = SimTime::from_millis(100);
        let start = mac.access_time(t0, AccessCategory::Voice, &medium, &mut rng);
        assert_eq!((start - t0).as_micros(), 58);
    }

    #[test]
    fn busy_medium_defers_and_backs_off() {
        let mac = EdcaMac::new();
        let mut medium = Medium::new();
        medium.occupy(SimTime::from_micros(500));
        let mut rng = SimRng::seed_from(2);
        let mut seen_nonzero_backoff = false;
        for _ in 0..50 {
            let start = mac.access_time(SimTime::ZERO, AccessCategory::Voice, &medium, &mut rng);
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
    fn higher_priority_accesses_sooner_on_idle() {
        let mac = EdcaMac::new();
        let medium = Medium::new();
        let mut rng = SimRng::seed_from(3);
        let vo = mac.access_time(SimTime::ZERO, AccessCategory::Voice, &medium, &mut rng);
        let bk = mac.access_time(SimTime::ZERO, AccessCategory::Background, &medium, &mut rng);
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

    #[test]
    fn params_override() {
        let mac = EdcaMac::new().with_params(
            AccessCategory::Voice,
            EdcaParams {
                aifsn: 1,
                cw_min: 0,
                cw_max: 0,
            },
        );
        assert_eq!(mac.params(AccessCategory::Voice).aifsn, 1);
        // Other categories unaffected.
        assert_eq!(mac.params(AccessCategory::Video).aifsn, 3);
    }

    #[test]
    fn backoff_state_doubles_and_resets() {
        for ac in AccessCategory::ALL {
            let params = EdcaParams::for_category(ac);
            let mut state = BackoffState::new(ac);
            assert_eq!(state.cw(), params.cw_min);
            let mut expected = u64::from(params.cw_min);
            for retry in 1..=12u32 {
                state.on_retry();
                expected = (2 * expected + 1).min(u64::from(params.cw_max));
                assert_eq!(u64::from(state.cw()), expected, "{ac:?} retry {retry}");
                assert_eq!(state.retries(), retry);
            }
            assert_eq!(state.cw(), params.cw_max, "{ac:?} must reach CWmax");
            state.on_success();
            assert_eq!(state.cw(), params.cw_min);
            assert_eq!(state.retries(), 0);
        }
    }

    proptest! {
        #[test]
        fn backoff_never_exceeds_cw_bounds(
            seed in any::<u64>(),
            ac_idx in 0usize..4,
            retries in 0u32..12,
            draws in 1usize..16,
        ) {
            let ac = AccessCategory::ALL[ac_idx];
            let params = EdcaParams::for_category(ac);
            let mut state = BackoffState::new(ac);
            for _ in 0..retries {
                state.on_retry();
            }
            prop_assert!(state.cw() >= params.cw_min);
            prop_assert!(state.cw() <= params.cw_max);
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..draws {
                let slots = state.draw_slots(&mut rng);
                prop_assert!(slots <= state.cw(), "drew {slots} with cw {}", state.cw());
            }
        }

        #[test]
        fn cw_law_is_min_of_doubling_and_cap(retries in 0u32..20, ac_idx in 0usize..4) {
            let ac = AccessCategory::ALL[ac_idx];
            let params = EdcaParams::for_category(ac);
            let mut state = BackoffState::new(ac);
            for _ in 0..retries {
                state.on_retry();
            }
            // Closed form: after k retries cw = min(2^k·(CWmin+1) − 1, CWmax).
            let doubled = (u64::from(params.cw_min) + 1)
                .saturating_mul(1u64 << retries.min(32))
                .saturating_sub(1);
            prop_assert_eq!(
                u64::from(state.cw()),
                doubled.min(u64::from(params.cw_max))
            );
        }

        #[test]
        fn aifs_ordering_holds_for_arbitrary_seeds(seed in any::<u64>(), now_us in 0u64..10_000_000) {
            let mac = EdcaMac::new();
            let medium = Medium::new();
            let mut rng = SimRng::seed_from(seed);
            let now = SimTime::from_micros(now_us);
            // Idle medium: access time is deterministic (AIFS only), so the
            // priority order Voice < Video < BestEffort < Background must
            // hold whatever the RNG state.
            let times: Vec<SimTime> = AccessCategory::ALL
                .iter()
                .map(|&ac| mac.access_time(now, ac, &medium, &mut rng))
                .collect();
            for pair in times.windows(2) {
                prop_assert!(pair[0] < pair[1], "{times:?}");
            }
        }

        #[test]
        fn busy_medium_backoff_is_slot_aligned_within_window(
            seed in any::<u64>(),
            busy_us in 1u64..100_000,
            retries in 0u32..8,
            ac_idx in 0usize..4,
        ) {
            let ac = AccessCategory::ALL[ac_idx];
            let mut state = BackoffState::new(ac);
            for _ in 0..retries {
                state.on_retry();
            }
            let mut medium = Medium::new();
            medium.occupy(SimTime::from_micros(busy_us));
            let mut rng = SimRng::seed_from(seed);
            let start = state.access_time(SimTime::ZERO, &medium, &mut rng);
            let after_idle = start.as_micros() - busy_us;
            let aifs = state.params().aifs().as_micros();
            prop_assert!(after_idle >= aifs);
            let backoff = after_idle - aifs;
            prop_assert_eq!(backoff % SLOT_US, 0, "backoff not slot-aligned: {}", backoff);
            prop_assert!(backoff <= u64::from(state.cw()) * SLOT_US);
        }
    }
}
