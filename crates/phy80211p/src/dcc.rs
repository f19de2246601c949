//! Decentralized Congestion Control (DCC), reactive approach of
//! ETSI TS 102 687 — the gatekeeper between the facilities layer and the
//! 802.11p MAC.
//!
//! OpenC2X (the stack the paper deploys on its OBUs/RSUs) includes a DCC
//! component: it measures the channel busy ratio (CBR) over 100 ms
//! probes and walks a state machine — `Relaxed`, a ladder of `Active`
//! states, and `Restrictive` — whose current state dictates the minimum
//! gap between a station's own transmissions (`T_off`). Under the
//! paper's two-station laboratory load DCC stays in `Relaxed` and adds
//! no delay; this module lets the testbed also explore loaded channels
//! (e.g. the platoon extension, where every vehicle beacons CAMs).

use crate::edca::AccessCategory;
use sim_core::{SimDuration, SimTime};

/// DCC states of the reactive approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DccState {
    /// Channel under-loaded: minimum constraints.
    Relaxed,
    /// First active level.
    Active1,
    /// Second active level.
    Active2,
    /// Third active level.
    Active3,
    /// Channel saturated: strongest throttling.
    Restrictive,
}

impl DccState {
    /// All states, least to most restrictive.
    pub const ALL: [DccState; 5] = [
        DccState::Relaxed,
        DccState::Active1,
        DccState::Active2,
        DccState::Active3,
        DccState::Restrictive,
    ];

    /// Minimum time between a station's own transmissions in this state
    /// (`T_off` of TS 102 687 Table A.2, reactive approach).
    pub fn t_off(&self) -> SimDuration {
        match self {
            DccState::Relaxed => SimDuration::from_millis(60),
            DccState::Active1 => SimDuration::from_millis(100),
            DccState::Active2 => SimDuration::from_millis(200),
            DccState::Active3 => SimDuration::from_millis(400),
            DccState::Restrictive => SimDuration::from_millis(1000),
        }
    }

    /// CBR threshold above which the *next more restrictive* state is
    /// entered (hysteresis handled by [`DccGatekeeper`]).
    fn up_threshold(&self) -> f64 {
        match self {
            DccState::Relaxed => 0.30,
            DccState::Active1 => 0.40,
            DccState::Active2 => 0.50,
            DccState::Active3 => 0.65,
            DccState::Restrictive => f64::INFINITY,
        }
    }

    /// CBR threshold below which the *next less restrictive* state is
    /// entered.
    fn down_threshold(&self) -> f64 {
        match self {
            DccState::Relaxed => f64::NEG_INFINITY,
            DccState::Active1 => 0.20,
            DccState::Active2 => 0.30,
            DccState::Active3 => 0.40,
            DccState::Restrictive => 0.50,
        }
    }

    fn more_restrictive(&self) -> DccState {
        match self {
            DccState::Relaxed => DccState::Active1,
            DccState::Active1 => DccState::Active2,
            DccState::Active2 => DccState::Active3,
            _ => DccState::Restrictive,
        }
    }

    fn less_restrictive(&self) -> DccState {
        match self {
            DccState::Restrictive => DccState::Active3,
            DccState::Active3 => DccState::Active2,
            DccState::Active2 => DccState::Active1,
            _ => DccState::Relaxed,
        }
    }
}

/// One reactive-DCC ladder transition for a completed CBR measurement —
/// the pure step [`DccGatekeeper::update_state`] applies, exposed so
/// structure-of-arrays station state (the city-scale fleets) can run
/// the identical state machine over contiguous arrays without a
/// per-station gatekeeper object.
pub fn step_state(state: DccState, cbr: f64) -> DccState {
    if cbr > state.up_threshold() {
        state.more_restrictive()
    } else if cbr < state.down_threshold() {
        state.less_restrictive()
    } else {
        state
    }
}

/// Sliding channel-busy-ratio probe.
///
/// CBR = fraction of the probe interval the medium was sensed busy.
#[derive(Debug, Clone)]
pub struct CbrProbe {
    interval: SimDuration,
    /// Busy intervals recorded in the current probe window.
    busy_in_window: SimDuration,
    window_start: SimTime,
    /// Last completed measurement.
    last_cbr: f64,
}

impl CbrProbe {
    /// Creates a probe with the standard 100 ms interval.
    pub fn new() -> Self {
        Self::with_interval(SimDuration::from_millis(100))
    }

    /// Creates a probe with a custom interval.
    pub fn with_interval(interval: SimDuration) -> Self {
        Self {
            interval,
            busy_in_window: SimDuration::ZERO,
            window_start: SimTime::ZERO,
            last_cbr: 0.0,
        }
    }

    /// Records that the medium was busy for `duration` (e.g. one frame's
    /// airtime) at `now`. Rolls the window if the probe interval has
    /// elapsed.
    pub fn record_busy(&mut self, now: SimTime, duration: SimDuration) {
        self.roll(now);
        self.busy_in_window += duration;
    }

    /// Completes any elapsed probe windows and returns the latest CBR.
    pub fn cbr(&mut self, now: SimTime) -> f64 {
        self.roll(now);
        self.last_cbr
    }

    fn roll(&mut self, now: SimTime) {
        while now.saturating_duration_since(self.window_start) >= self.interval {
            let busy = self.busy_in_window.as_secs_f64();
            self.last_cbr = (busy / self.interval.as_secs_f64()).min(1.0);
            self.busy_in_window = SimDuration::ZERO;
            self.window_start += self.interval;
        }
    }
}

impl Default for CbrProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// The DCC gatekeeper of one station.
///
/// # Example
///
/// ```
/// use phy80211p::dcc::{DccGatekeeper, DccState};
/// use sim_core::SimTime;
///
/// let mut dcc = DccGatekeeper::new();
/// assert_eq!(dcc.state(), DccState::Relaxed);
/// // First packet may go immediately; the next is gated by T_off.
/// assert!(dcc.may_transmit(SimTime::ZERO));
/// dcc.on_transmitted(SimTime::ZERO);
/// assert!(!dcc.may_transmit(SimTime::from_millis(30)));
/// assert!(dcc.may_transmit(SimTime::from_millis(60)));
/// ```
#[derive(Debug, Clone)]
pub struct DccGatekeeper {
    state: DccState,
    probe: CbrProbe,
    last_tx: Option<SimTime>,
}

impl DccGatekeeper {
    /// Creates a gatekeeper in `Relaxed`.
    pub fn new() -> Self {
        Self {
            state: DccState::Relaxed,
            probe: CbrProbe::new(),
            last_tx: None,
        }
    }

    /// Current DCC state.
    pub fn state(&self) -> DccState {
        self.state
    }

    /// Feeds a busy-medium observation (a frame heard or sent on the
    /// channel).
    pub fn observe_busy(&mut self, now: SimTime, airtime: SimDuration) {
        self.probe.record_busy(now, airtime);
    }

    /// Advances the state machine from the latest CBR measurement.
    /// Returns the (possibly new) state.
    pub fn update_state(&mut self, now: SimTime) -> DccState {
        let cbr = self.probe.cbr(now);
        self.state = step_state(self.state, cbr);
        self.state
    }

    /// Whether a (non-exempt) packet may be handed to the MAC at `now`.
    pub fn may_transmit(&self, now: SimTime) -> bool {
        match self.last_tx {
            None => true,
            Some(last) => now.saturating_duration_since(last) >= self.state.t_off(),
        }
    }

    /// Gate decision for a packet of the given access category:
    /// high-priority AC_VO traffic (DP0, the DENMs) passes immediately,
    /// since congestion control must not delay it; everything else waits
    /// out `T_off`.
    pub fn gate(&self, now: SimTime, ac: AccessCategory) -> bool {
        ac == AccessCategory::Voice || self.may_transmit(now)
    }

    /// Records that a packet was transmitted at `now`.
    pub fn on_transmitted(&mut self, now: SimTime) {
        self.last_tx = Some(now);
    }
}

impl Default for DccGatekeeper {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_off_ladder_monotone() {
        let mut prev = SimDuration::ZERO;
        for s in DccState::ALL {
            assert!(s.t_off() > prev, "{s:?}");
            prev = s.t_off();
        }
        assert_eq!(DccState::Relaxed.t_off().as_millis(), 60);
        assert_eq!(DccState::Restrictive.t_off().as_millis(), 1000);
    }

    #[test]
    fn cbr_probe_measures_fraction() {
        let mut probe = CbrProbe::new();
        // 30 ms busy within the first 100 ms window.
        probe.record_busy(SimTime::from_millis(10), SimDuration::from_millis(10));
        probe.record_busy(SimTime::from_millis(50), SimDuration::from_millis(20));
        // Window completes at 100 ms.
        let cbr = probe.cbr(SimTime::from_millis(120));
        assert!((cbr - 0.30).abs() < 1e-9, "cbr {cbr}");
        // A quiet second window resets to zero.
        let cbr = probe.cbr(SimTime::from_millis(230));
        assert_eq!(cbr, 0.0);
    }

    #[test]
    fn cbr_saturates_at_one() {
        let mut probe = CbrProbe::new();
        probe.record_busy(SimTime::from_millis(10), SimDuration::from_millis(500));
        assert_eq!(probe.cbr(SimTime::from_millis(150)), 1.0);
    }

    #[test]
    fn state_walks_up_under_load_and_back_down() {
        let mut dcc = DccGatekeeper::new();
        // Load the channel ~45% for several windows.
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            for k in 0..9 {
                dcc.observe_busy(
                    t + SimDuration::from_millis(k * 10),
                    SimDuration::from_millis(5),
                );
            }
            t += SimDuration::from_millis(100);
            dcc.update_state(t);
        }
        // 45% CBR crosses Relaxed (0.30) and Active1 (0.40) thresholds
        // but not Active2's (0.50).
        assert_eq!(dcc.state(), DccState::Active2);
        // Quiet channel: walk back down.
        for _ in 0..5 {
            t += SimDuration::from_millis(100);
            dcc.update_state(t);
        }
        assert_eq!(dcc.state(), DccState::Relaxed);
    }

    #[test]
    fn hysteresis_holds_state_in_the_dead_band() {
        let mut dcc = DccGatekeeper::new();
        // Drive to Active1.
        let mut t = SimTime::ZERO;
        for k in 0..7 {
            dcc.observe_busy(
                t + SimDuration::from_millis(k * 10),
                SimDuration::from_millis(5),
            );
        }
        t += SimDuration::from_millis(100);
        dcc.update_state(t);
        assert_eq!(dcc.state(), DccState::Active1);
        // 25% CBR: below Active1's up (0.40), above its down (0.20):
        // state holds.
        for _ in 0..3 {
            for k in 0..5 {
                dcc.observe_busy(
                    t + SimDuration::from_millis(k * 10),
                    SimDuration::from_millis(5),
                );
            }
            t += SimDuration::from_millis(100);
            dcc.update_state(t);
            assert_eq!(dcc.state(), DccState::Active1);
        }
    }

    #[test]
    fn step_state_matches_gatekeeper_transitions() {
        // The pure ladder step and the gatekeeper must agree on every
        // (state, cbr) combination — the arena path depends on it.
        for state in DccState::ALL {
            for cbr10 in 0..=10u64 {
                let cbr = cbr10 as f64 / 10.0;
                let busy = SimDuration::from_secs_f64(0.1 * cbr);
                let mut dcc = DccGatekeeper::new();
                dcc.state = state;
                // Feed one full window of busy time, then update. Compare
                // against `step_state` applied to the CBR an identical
                // probe measures, so duration round-trip rounding at the
                // threshold values cannot skew the comparison.
                let mut probe = CbrProbe::new();
                probe.record_busy(SimTime::ZERO, busy);
                let measured = probe.cbr(SimTime::from_millis(100));
                dcc.observe_busy(SimTime::ZERO, busy);
                let via_gatekeeper = dcc.update_state(SimTime::from_millis(100));
                assert_eq!(
                    via_gatekeeper,
                    step_state(state, measured),
                    "state {state:?} cbr {cbr}"
                );
            }
        }
    }

    #[test]
    fn gate_enforces_t_off() {
        let mut dcc = DccGatekeeper::new();
        dcc.on_transmitted(SimTime::from_millis(100));
        assert!(!dcc.gate(SimTime::from_millis(130), AccessCategory::Video));
        assert!(dcc.gate(SimTime::from_millis(160), AccessCategory::Video));
    }

    #[test]
    fn voice_exemption_bypasses_gate() {
        let mut dcc = DccGatekeeper::new();
        dcc.on_transmitted(SimTime::from_millis(100));
        // DENM (AC_VO) passes right away; CAM (AC_VI) waits.
        assert!(dcc.gate(SimTime::from_millis(101), AccessCategory::Voice));
        assert!(!dcc.gate(SimTime::from_millis(101), AccessCategory::Video));
    }

    #[test]
    fn restrictive_throttles_to_1hz() {
        let mut dcc = DccGatekeeper::new();
        // Saturate for many windows.
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            dcc.observe_busy(t, SimDuration::from_millis(90));
            t += SimDuration::from_millis(100);
            dcc.update_state(t);
        }
        assert_eq!(dcc.state(), DccState::Restrictive);
        dcc.on_transmitted(t);
        assert!(!dcc.may_transmit(t + SimDuration::from_millis(999)));
        assert!(dcc.may_transmit(t + SimDuration::from_millis(1000)));
    }
}
