//! Structure-of-arrays station state for city-scale fleets.
//!
//! The congestion and city experiments tick thousands of stations per
//! 100 ms. Keeping each station's hot state (position, heading, speed,
//! DCC probe window, transmit counters) in its own `ItsStation` object
//! scatters that state across the heap, so a per-tick pass chases one
//! pointer per station. [`StationArena`] stores each field in its own
//! contiguous `Vec` instead, so the kinematics pass, the channel-busy
//! accounting, and the DCC window roll each walk flat `f64`/`u64`
//! arrays in index order.
//!
//! The DCC ladder itself is the *same* state machine the per-station
//! [`phy80211p::dcc::DccGatekeeper`] runs: the arena calls the pure
//! [`phy80211p::dcc::step_state`] transition on every completed CBR
//! window (the gatekeeper's `update_state` is a thin wrapper over the
//! same function, pinned by a phy80211p unit test), so arena-driven
//! fleets and object-driven fleets throttle identically.
//!
//! Every accessor here is panic-free (checked `get`s, saturating
//! arithmetic) — the methods are listed in `detlint.toml`'s S3
//! panic-reachability roots.

use phy80211p::dcc::{step_state, DccState};
use phy80211p::Position2D;
use sim_core::{SimDuration, SimTime};

/// Contiguous per-station hot state, indexed by dense station index
/// (`0..len`, assigned by [`StationArena::push_station`] order — the
/// same indices a [`phy80211p::SpatialGrid`] hands out when stations
/// are inserted in the same order).
#[derive(Debug, Clone)]
pub struct StationArena {
    /// CBR probe window length (ETSI TS 102 687 uses 100 ms).
    probe_window: SimDuration,
    // --- kinematics ---
    xs: Vec<f64>,
    ys: Vec<f64>,
    headings_deg: Vec<f64>,
    speeds_mps: Vec<f64>,
    // --- DCC probe + ladder ---
    dcc_states: Vec<DccState>,
    busy_in_window_ns: Vec<u64>,
    window_start: Vec<SimTime>,
    last_cbr: Vec<f64>,
    last_tx: Vec<Option<SimTime>>,
    // --- counters ---
    tx_counts: Vec<u64>,
    rx_counts: Vec<u64>,
    // --- run-wide CBR statistics (sum over completed windows) ---
    cbr_sum: f64,
    cbr_windows: u64,
}

impl StationArena {
    /// An empty arena whose CBR probes use `probe_window` (100 ms in
    /// the ETSI DCC spec).
    pub fn new(probe_window: SimDuration) -> Self {
        Self {
            probe_window,
            xs: Vec::new(),
            ys: Vec::new(),
            headings_deg: Vec::new(),
            speeds_mps: Vec::new(),
            dcc_states: Vec::new(),
            busy_in_window_ns: Vec::new(),
            window_start: Vec::new(),
            last_cbr: Vec::new(),
            last_tx: Vec::new(),
            tx_counts: Vec::new(),
            rx_counts: Vec::new(),
            cbr_sum: 0.0,
            cbr_windows: 0,
        }
    }

    /// Appends a station; returns its dense index.
    pub fn push_station(&mut self, pos: Position2D, heading_deg: f64, speed_mps: f64) -> u32 {
        let idx = self.xs.len() as u32;
        self.xs.push(pos.x);
        self.ys.push(pos.y);
        self.headings_deg.push(heading_deg);
        self.speeds_mps.push(speed_mps);
        self.dcc_states.push(DccState::Relaxed);
        self.busy_in_window_ns.push(0);
        self.window_start.push(SimTime::ZERO);
        self.last_cbr.push(0.0);
        self.last_tx.push(None);
        self.tx_counts.push(0);
        self.rx_counts.push(0);
        idx
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.xs.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Position of station `idx`, if it exists.
    pub fn position_of(&self, idx: u32) -> Option<Position2D> {
        let i = idx as usize;
        match (self.xs.get(i), self.ys.get(i)) {
            (Some(&x), Some(&y)) => Some(Position2D::new(x, y)),
            _ => None,
        }
    }

    /// All x coordinates, index order (contiguous kinematics reads).
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// All y coordinates, index order.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Mutable x coordinates for a contiguous kinematics pass.
    pub fn xs_mut(&mut self) -> &mut [f64] {
        &mut self.xs
    }

    /// Mutable y coordinates for a contiguous kinematics pass.
    pub fn ys_mut(&mut self) -> &mut [f64] {
        &mut self.ys
    }

    /// Both coordinate arrays at once (split borrow), for kinematics
    /// passes that write x and y in a single contiguous walk.
    pub fn coords_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.xs, &mut self.ys)
    }

    /// Heading (degrees) per station, index order.
    pub fn headings_deg(&self) -> &[f64] {
        &self.headings_deg
    }

    /// Mutable headings for a contiguous kinematics pass.
    pub fn headings_deg_mut(&mut self) -> &mut [f64] {
        &mut self.headings_deg
    }

    /// Speed (m/s) per station, index order.
    pub fn speeds_mps(&self) -> &[f64] {
        &self.speeds_mps
    }

    /// DCC ladder state of station `idx` (Relaxed for unknown indices,
    /// matching a station that never saw a busy channel).
    #[cfg(test)]
    pub fn dcc_state_of(&self, idx: u32) -> DccState {
        self.dcc_states
            .get(idx as usize)
            .copied()
            .unwrap_or(DccState::Relaxed)
    }

    /// Most recently completed CBR window value for station `idx`.
    #[cfg(test)]
    pub fn last_cbr_of(&self, idx: u32) -> f64 {
        self.last_cbr.get(idx as usize).copied().unwrap_or(0.0)
    }

    /// Adds observed channel-busy time to station `idx`'s current CBR
    /// probe window. Unknown indices are ignored.
    pub fn note_busy(&mut self, idx: u32, busy: SimDuration) {
        if let Some(acc) = self.busy_in_window_ns.get_mut(idx as usize) {
            *acc = acc.saturating_add(busy.as_nanos());
        }
    }

    /// Whether station `idx`'s DCC gate is open at `now` (its ladder
    /// state's `t_off` has elapsed since its last transmission).
    /// Unknown indices never gate open.
    pub fn gate_open(&self, idx: u32, now: SimTime) -> bool {
        let i = idx as usize;
        let (Some(last), Some(state)) = (self.last_tx.get(i), self.dcc_states.get(i)) else {
            return false;
        };
        match last {
            None => true,
            Some(t) => now.saturating_duration_since(*t) >= state.t_off(),
        }
    }

    /// Records a transmission by station `idx` at `now` (restarts its
    /// `t_off` clock, bumps its tx counter).
    pub fn record_tx(&mut self, idx: u32, now: SimTime) {
        let i = idx as usize;
        if let Some(slot) = self.last_tx.get_mut(i) {
            *slot = Some(now);
        }
        if let Some(c) = self.tx_counts.get_mut(i) {
            *c = c.saturating_add(1);
        }
    }

    /// Records a reception by station `idx`.
    pub fn record_rx(&mut self, idx: u32) {
        if let Some(c) = self.rx_counts.get_mut(idx as usize) {
            *c = c.saturating_add(1);
        }
    }

    /// Completes every CBR probe window that ends at or before `now`:
    /// for each station, each elapsed window yields one CBR sample that
    /// drives the pure DCC ladder step ([`step_state`]). Walks the
    /// busy/state/window arrays contiguously in index order.
    pub fn roll_windows(&mut self, now: SimTime) {
        let window = self.probe_window;
        if window.is_zero() {
            return;
        }
        let window_secs = window.as_secs_f64();
        for (((busy, start), state), cbr_out) in self
            .busy_in_window_ns
            .iter_mut()
            .zip(self.window_start.iter_mut())
            .zip(self.dcc_states.iter_mut())
            .zip(self.last_cbr.iter_mut())
        {
            while now.saturating_duration_since(*start) >= window {
                let cbr = (SimDuration::from_nanos(*busy).as_secs_f64() / window_secs).min(1.0);
                *state = step_state(*state, cbr);
                *cbr_out = cbr;
                *busy = 0;
                *start = *start + window;
                self.cbr_sum += cbr;
                self.cbr_windows += 1;
            }
        }
    }

    /// Total transmissions across the fleet.
    pub fn tx_total(&self) -> u64 {
        self.tx_counts
            .iter()
            .fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Total receptions across the fleet.
    #[cfg(test)]
    pub fn rx_total(&self) -> u64 {
        self.rx_counts
            .iter()
            .fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Transmission count of station `idx` (0 for unknown indices).
    #[cfg(test)]
    pub fn tx_count_of(&self, idx: u32) -> u64 {
        self.tx_counts.get(idx as usize).copied().unwrap_or(0)
    }

    /// Mean CBR over every completed probe window of every station.
    pub fn mean_cbr(&self) -> f64 {
        if self.cbr_windows == 0 {
            0.0
        } else {
            self.cbr_sum / self.cbr_windows as f64
        }
    }

    /// The most restrictive DCC state any station currently holds.
    pub fn worst_dcc_state(&self) -> DccState {
        self.dcc_states
            .iter()
            .copied()
            .fold(DccState::Relaxed, DccState::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phy80211p::dcc::DccGatekeeper;

    const WINDOW: SimDuration = SimDuration::from_millis(100);

    #[test]
    fn arena_ladder_matches_gatekeeper_over_a_busy_trace() {
        // Drive the arena's SoA ladder and a real DccGatekeeper with an
        // identical busy trace; their states must agree tick for tick.
        let mut arena = StationArena::new(WINDOW);
        let idx = arena.push_station(Position2D::default(), 0.0, 0.0);
        let mut dcc = DccGatekeeper::new();
        // Busy ramps up, holds, then fades: exercises up and down moves.
        let busy_ms = [2u64, 10, 30, 55, 70, 70, 70, 40, 20, 5, 0, 0, 0, 0];
        let mut now = SimTime::ZERO;
        for (k, &b) in busy_ms.iter().enumerate() {
            let busy = SimDuration::from_millis(b);
            arena.note_busy(idx, busy);
            dcc.observe_busy(now, busy);
            now = SimTime::from_millis(100 * (k as u64 + 1));
            arena.roll_windows(now);
            let gatekeeper_state = dcc.update_state(now);
            assert_eq!(arena.dcc_state_of(idx), gatekeeper_state, "window {k}");
        }
    }

    #[test]
    fn gate_respects_t_off() {
        let mut arena = StationArena::new(WINDOW);
        let idx = arena.push_station(Position2D::default(), 0.0, 0.0);
        assert!(
            arena.gate_open(idx, SimTime::ZERO),
            "fresh station gates open"
        );
        arena.record_tx(idx, SimTime::from_millis(100));
        // Relaxed t_off is 60 ms.
        assert!(!arena.gate_open(idx, SimTime::from_millis(130)));
        assert!(arena.gate_open(idx, SimTime::from_millis(160)));
        assert_eq!(arena.tx_count_of(idx), 1);
    }

    #[test]
    fn unknown_indices_are_inert() {
        let mut arena = StationArena::new(WINDOW);
        arena.note_busy(7, SimDuration::from_millis(50));
        arena.record_tx(7, SimTime::ZERO);
        arena.record_rx(7);
        assert!(!arena.gate_open(7, SimTime::from_secs(1)));
        assert_eq!(arena.position_of(7), None);
        assert_eq!(arena.tx_total(), 0);
        assert_eq!(arena.rx_total(), 0);
    }

    #[test]
    fn mean_cbr_averages_completed_windows() {
        let mut arena = StationArena::new(WINDOW);
        let a = arena.push_station(Position2D::default(), 0.0, 0.0);
        let b = arena.push_station(Position2D::new(10.0, 0.0), 0.0, 0.0);
        arena.note_busy(a, SimDuration::from_millis(40));
        arena.note_busy(b, SimDuration::from_millis(20));
        arena.roll_windows(SimTime::from_millis(100));
        assert!(
            (arena.mean_cbr() - 0.3).abs() < 1e-12,
            "{}",
            arena.mean_cbr()
        );
        assert!((arena.last_cbr_of(a) - 0.4).abs() < 1e-12);
        assert!((arena.last_cbr_of(b) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn kinematics_slices_are_contiguous_and_writable() {
        let mut arena = StationArena::new(WINDOW);
        for i in 0..8 {
            arena.push_station(Position2D::new(i as f64, 0.0), 90.0, 5.0);
        }
        for x in arena.xs_mut() {
            *x += 1.0;
        }
        assert_eq!(arena.position_of(3), Some(Position2D::new(4.0, 0.0)));
        assert_eq!(arena.xs().len(), 8);
        assert_eq!(arena.station_count(), 8);
    }
}
