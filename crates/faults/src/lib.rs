//! Deterministic fault-injection plane for the testbed.
//!
//! A [`FaultPlan`] is plain data inside `ScenarioConfig`: a list of
//! typed faults, each active during a `[from, until)` window of
//! simulated time. The scenario threads one [`FaultInjector`] through
//! its event handlers; every stochastic decision the injector makes is
//! drawn from a dedicated fork of the scenario RNG, so fault campaigns
//! stay bitwise reproducible at any thread or worker count.
//!
//! Two invariants matter more than the fault classes themselves:
//!
//! * **Empty plan ⇒ strict no-op.** When the plan has no faults, no
//!   injector method ever touches its RNG or changes control flow, so a
//!   faultless run is byte-identical to a run built before this crate
//!   existed (the tracked campaign fingerprints pin this).
//! * **Faults corrupt inputs, not code paths.** Bit corruption hands
//!   back mutated frame bytes that the real UPER + GeoNetworking
//!   decoders must then reject (or survive); nothing is short-circuited
//!   around the production parsers.
//!
//! # Example
//!
//! ```
//! use faults::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
//! use sim_core::{SimRng, SimTime};
//!
//! let plan = FaultPlan::new(vec![FaultKind::CameraFrameDrop { prob: 1.0 }
//!     .during(FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(2)))]);
//! let mut inj = FaultInjector::new(plan, SimRng::seed_from(7).fork("faults"));
//! assert!(!inj.drop_camera_frame(SimTime::from_millis(500))); // before window
//! assert!(inj.drop_camera_frame(SimTime::from_millis(1500))); // inside window
//! assert_eq!(inj.stats().injected, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use sim_core::{SimDuration, SimRng, SimTime};

/// A simulated node the fault plane can target.
///
/// Mirrors the four stations of the paper's testbed: the edge server
/// running the camera + detector, the road-side unit, the on-board
/// unit, and the vehicle's ECU (Teensy + HTTP poller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNode {
    /// Edge server: camera frames and YOLO detections.
    Edge,
    /// Road-side unit: DENM/CAM transmission and the trigger API.
    Rsu,
    /// On-board unit: V2X reception.
    Obu,
    /// Vehicle ECU: the HTTP poll loop and actuation.
    Ecu,
    /// Platoon member `i` (0 = the leader). Targets the V2V radio of
    /// one vehicle in a string, so silencing `Platoon(0)` starves every
    /// follower's heartbeat relay downstream.
    Platoon(u8),
}

/// A half-open activation window `[from, until)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant at which the fault is active.
    pub from: SimTime,
    /// First instant at which the fault is no longer active.
    pub until: SimTime,
}

impl FaultWindow {
    /// A window covering `[from, until)`.
    pub fn new(from: SimTime, until: SimTime) -> Self {
        Self { from, until }
    }

    /// A window covering the entire run.
    pub fn always() -> Self {
        Self {
            from: SimTime::ZERO,
            until: SimTime::MAX,
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// One typed fault. Probabilities are per *opportunity* (frame,
/// detection, transmission, poll attempt), evaluated only while the
/// window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The camera loses each frame with probability `prob`.
    CameraFrameDrop {
        /// Per-frame drop probability in `[0, 1]`.
        prob: f64,
    },
    /// The detector misses each true detection with probability `prob`.
    DetectorMiss {
        /// Per-detection miss probability in `[0, 1]`.
        prob: f64,
    },
    /// The radio medium silently loses each frame (any transmitter)
    /// with probability `prob`; `1.0` is total radio silence.
    RadioSilence {
        /// Per-frame loss probability in `[0, 1]`.
        prob: f64,
    },
    /// `node`'s transmitter is stuck: every frame it sends during the
    /// window is lost (deterministic, no RNG draw).
    StuckTransmitter {
        /// The transmitter that is stuck.
        node: FaultNode,
    },
    /// Each byte of each transmitted frame has one random bit flipped
    /// with probability `per_byte_prob`. Corrupted frames are handed to
    /// the real UPER/GeoNetworking decoders, which must reject (or
    /// survive) them.
    BitCorruption {
        /// Per-byte flip probability in `[0, 1]`.
        per_byte_prob: f64,
    },
    /// Each HTTP poll attempt stalls (times out) with probability
    /// `prob`; the poller's bounded retry/backoff schedule decides what
    /// happens next.
    HttpStall {
        /// Per-attempt stall probability in `[0, 1]`.
        prob: f64,
    },
    /// `node` is crashed for the whole window and reboots when it ends;
    /// every event the node would have handled is suppressed.
    NodeCrash {
        /// The node that is down.
        node: FaultNode,
    },
}

impl FaultKind {
    /// Pairs the kind with an activation window.
    pub fn during(self, window: FaultWindow) -> FaultSpec {
        FaultSpec { kind: self, window }
    }
}

/// One scheduled fault: a kind plus its activation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// When it goes wrong.
    pub window: FaultWindow,
}

/// The full fault schedule for one scenario run.
///
/// The default plan is empty, which the injector treats as a strict
/// no-op (no RNG draws, no control-flow changes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled faults, evaluated in order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with the given faults.
    pub fn new(faults: Vec<FaultSpec>) -> Self {
        Self { faults }
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Derives a pseudo-random plan from a seeded RNG: up to four
    /// faults with random classes, windows inside `[0, horizon)` and
    /// intensities. Intended for determinism tests that need "an
    /// arbitrary plan" without depending on any ambient randomness.
    // detlint:allow(U1) tests/fault_plane.rs draws random plans for its no-op and determinism properties
    pub fn sample(rng: &mut SimRng, horizon: SimDuration) -> Self {
        let n = rng.below(5) as usize;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let from_ns = rng.below(horizon.as_nanos().max(1));
            let len_ns = rng.below(horizon.as_nanos().max(1));
            let window = FaultWindow::new(
                SimTime::from_nanos(from_ns),
                SimTime::from_nanos(from_ns.saturating_add(len_ns)),
            );
            let prob = rng.uniform(0.05, 1.0);
            let node = match rng.below(6) {
                0 => FaultNode::Edge,
                1 => FaultNode::Rsu,
                2 => FaultNode::Obu,
                3 => FaultNode::Ecu,
                4 => FaultNode::Platoon(0),
                _ => FaultNode::Platoon(1 + rng.below(3) as u8),
            };
            let kind = match rng.below(7) {
                0 => FaultKind::CameraFrameDrop { prob },
                1 => FaultKind::DetectorMiss { prob },
                2 => FaultKind::RadioSilence { prob },
                3 => FaultKind::StuckTransmitter { node },
                4 => FaultKind::BitCorruption {
                    per_byte_prob: prob * 0.05,
                },
                5 => FaultKind::HttpStall { prob },
                _ => FaultKind::NodeCrash { node },
            };
            faults.push(kind.during(window));
        }
        Self { faults }
    }
}

/// Fault and degradation counters for one run.
///
/// Injection-side counters are maintained by the [`FaultInjector`];
/// the watchdog/outcome fields are filled in by the scenario. The
/// struct rides along in `RunRecord` and its versioned wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Fault activations that changed behaviour (dropped frame, lost
    /// transmission, stalled poll, suppressed event, corrupted frame).
    pub injected: u64,
    /// Transmitted frames that had at least one bit flipped.
    pub frames_corrupted: u64,
    /// Corrupted frames (or payloads) the real decoders rejected.
    pub corrupted_rejected: u64,
    /// HTTP poll attempts that stalled.
    pub http_stalls: u64,
    /// HTTP polls that exhausted their whole retry budget.
    pub http_giveups: u64,
    /// Watchdog transitions into the fail-safe speed cap.
    pub watchdog_speed_caps: u64,
    /// Watchdog transitions into the controlled stop.
    pub watchdog_stops: u64,
    /// Watchdog recoveries back to nominal driving.
    pub watchdog_recoveries: u64,
    /// The run ended in a watchdog-commanded controlled stop.
    pub failsafe_stop: bool,
    /// The vehicle overran the camera position (the collision/overrun
    /// outcome: the hazard was never braked for in time).
    pub overran_camera: bool,
}

impl FaultStats {
    /// Accumulates another node's counters into this one. Scenarios with
    /// several injectors (one per platoon member) merge them into the
    /// single `FaultStats` that rides in the record; the boolean
    /// outcomes OR together.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.frames_corrupted += other.frames_corrupted;
        self.corrupted_rejected += other.corrupted_rejected;
        self.http_stalls += other.http_stalls;
        self.http_giveups += other.http_giveups;
        self.watchdog_speed_caps += other.watchdog_speed_caps;
        self.watchdog_stops += other.watchdog_stops;
        self.watchdog_recoveries += other.watchdog_recoveries;
        self.failsafe_stop |= other.failsafe_stop;
        self.overran_camera |= other.overran_camera;
    }
}

/// Cooperative-scenario outcome counters for one run.
///
/// Where [`FaultStats`] counts what the fault plane *did*, `CoopStats`
/// counts what the cooperative layer *achieved (or lost)* under it:
/// how far a degradation cascaded down a platoon string, how many
/// perceived objects reached a vehicle only through collective
/// perception, and how many stations ended in a fail-safe stop. The
/// struct rides along in `RunRecord` as the wire-v3 append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoopStats {
    /// Followers whose watchdog left nominal driving at least once —
    /// the depth a leader-side failure cascaded down the string.
    pub cascade_depth: u64,
    /// Perceived objects that entered a vehicle's LDM via CPM while
    /// beyond its own sensor range.
    pub cpm_extended_detections: u64,
    /// Stations that ended the run in a fail-safe controlled stop.
    pub failsafe_stops: u64,
}

/// The runtime fault plane: evaluates a [`FaultPlan`] at the
/// scenario's injection points, drawing only from its own RNG stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds the injector. `rng` must be a dedicated fork of the
    /// scenario root RNG (conventionally `root.fork("faults")`) so
    /// fault draws never perturb other streams.
    pub fn new(plan: FaultPlan, rng: SimRng) -> Self {
        Self {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// Whether the plan schedules nothing (the strict no-op case).
    pub fn is_noop(&self) -> bool {
        self.plan.is_empty()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Mutable counter access, for outcome fields owned by the caller
    /// (watchdog trips, give-ups, overrun).
    pub fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    /// Should the camera frame completing at `now` be lost?
    pub fn drop_camera_frame(&mut self, now: SimTime) -> bool {
        let mut hit = false;
        for spec in &self.plan.faults {
            if let FaultKind::CameraFrameDrop { prob } = spec.kind {
                if spec.window.contains(now) && self.rng.bernoulli(prob) {
                    hit = true;
                }
            }
        }
        if hit {
            self.stats.injected += 1;
        }
        hit
    }

    /// Should a true detection decided at `now` be missed?
    pub fn drop_detection(&mut self, now: SimTime) -> bool {
        let mut hit = false;
        for spec in &self.plan.faults {
            if let FaultKind::DetectorMiss { prob } = spec.kind {
                if spec.window.contains(now) && self.rng.bernoulli(prob) {
                    hit = true;
                }
            }
        }
        if hit {
            self.stats.injected += 1;
        }
        hit
    }

    /// Should a radio frame sent by `node` at `now` be lost before it
    /// reaches the channel model?
    pub fn radio_drop(&mut self, now: SimTime, node: FaultNode) -> bool {
        let mut hit = false;
        for spec in &self.plan.faults {
            match spec.kind {
                FaultKind::RadioSilence { prob }
                    if spec.window.contains(now) && self.rng.bernoulli(prob) =>
                {
                    hit = true;
                }
                FaultKind::StuckTransmitter { node: stuck }
                    if stuck == node && spec.window.contains(now) =>
                {
                    hit = true;
                }
                _ => {}
            }
        }
        if hit {
            self.stats.injected += 1;
        }
        hit
    }

    /// Applies per-byte bit corruption to a frame sent at `now`.
    ///
    /// Returns `Some(corrupted)` when at least one bit flipped (the
    /// caller must feed those bytes through the real decode path) and
    /// `None` when the frame is untouched.
    pub fn corrupt_frame(&mut self, now: SimTime, frame: &[u8]) -> Option<Vec<u8>> {
        let mut corrupted: Option<Vec<u8>> = None;
        for spec in &self.plan.faults {
            if let FaultKind::BitCorruption { per_byte_prob } = spec.kind {
                if spec.window.contains(now) {
                    let bytes = corrupted.get_or_insert_with(|| frame.to_vec());
                    let mut flipped = false;
                    for b in bytes.iter_mut() {
                        if self.rng.bernoulli(per_byte_prob) {
                            *b ^= 1 << self.rng.below(8);
                            flipped = true;
                        }
                    }
                    if !flipped {
                        corrupted = None;
                    }
                }
            }
        }
        if corrupted.is_some() {
            self.stats.injected += 1;
            self.stats.frames_corrupted += 1;
        }
        corrupted
    }

    /// Records that a corrupted frame or payload was rejected by a
    /// decoder (the intended failure path).
    pub fn note_rejected(&mut self) {
        self.stats.corrupted_rejected += 1;
    }

    /// Does the HTTP poll attempt starting at `now` stall?
    pub fn http_stall(&mut self, now: SimTime) -> bool {
        let mut hit = false;
        for spec in &self.plan.faults {
            if let FaultKind::HttpStall { prob } = spec.kind {
                if spec.window.contains(now) && self.rng.bernoulli(prob) {
                    hit = true;
                }
            }
        }
        if hit {
            self.stats.injected += 1;
            self.stats.http_stalls += 1;
        }
        hit
    }

    /// Is `node` crashed at `now`? A `true` suppresses the event the
    /// node would have handled and counts as one injection.
    pub fn node_down(&mut self, now: SimTime, node: FaultNode) -> bool {
        let mut down = false;
        for spec in &self.plan.faults {
            if let FaultKind::NodeCrash { node: crashed } = spec.kind {
                if crashed == node && spec.window.contains(now) {
                    down = true;
                }
            }
        }
        if down {
            self.stats.injected += 1;
        }
        down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(42).fork("faults")
    }

    #[test]
    fn window_is_half_open() {
        let w = FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(!w.contains(SimTime::from_millis(999)));
        assert!(w.contains(SimTime::from_secs(1)));
        assert!(w.contains(SimTime::from_millis(1999)));
        assert!(!w.contains(SimTime::from_secs(2)));
    }

    #[test]
    fn empty_plan_draws_nothing_and_injects_nothing() {
        let a = rng();
        let mut inj = FaultInjector::new(FaultPlan::default(), a.fork("x"));
        let t = SimTime::from_secs(1);
        assert!(!inj.drop_camera_frame(t));
        assert!(!inj.drop_detection(t));
        assert!(!inj.radio_drop(t, FaultNode::Rsu));
        assert!(inj.corrupt_frame(t, &[1, 2, 3]).is_none());
        assert!(!inj.http_stall(t));
        assert!(!inj.node_down(t, FaultNode::Edge));
        assert_eq!(inj.stats(), FaultStats::default());
        // The injector's RNG stream was never advanced: it still
        // produces the same next value as a fresh fork.
        let b = rng();
        assert_eq!(inj.rng.next_u64(), b.fork("x").next_u64());
    }

    #[test]
    fn faults_outside_window_are_inert() {
        let plan = FaultPlan::new(vec![FaultKind::CameraFrameDrop { prob: 1.0 }.during(
            FaultWindow::new(SimTime::from_secs(5), SimTime::from_secs(6)),
        )]);
        let mut inj = FaultInjector::new(plan, rng());
        assert!(!inj.drop_camera_frame(SimTime::from_secs(1)));
        assert!(inj.drop_camera_frame(SimTime::from_millis(5500)));
        assert!(!inj.drop_camera_frame(SimTime::from_secs(7)));
        assert_eq!(inj.stats().injected, 1);
    }

    #[test]
    fn stuck_transmitter_is_deterministic_and_per_node() {
        let plan = FaultPlan::new(vec![FaultKind::StuckTransmitter {
            node: FaultNode::Rsu,
        }
        .during(FaultWindow::always())]);
        let mut inj = FaultInjector::new(plan, rng());
        let t = SimTime::from_secs(1);
        assert!(inj.radio_drop(t, FaultNode::Rsu));
        assert!(!inj.radio_drop(t, FaultNode::Obu));
        assert_eq!(inj.stats().injected, 1);
    }

    #[test]
    fn corruption_flips_bits_and_counts_frames() {
        let plan = FaultPlan::new(vec![
            FaultKind::BitCorruption { per_byte_prob: 1.0 }.during(FaultWindow::always())
        ]);
        let mut inj = FaultInjector::new(plan, rng());
        let frame = vec![0u8; 64];
        let corrupted = inj.corrupt_frame(SimTime::ZERO, &frame).expect("corrupted");
        assert_eq!(corrupted.len(), frame.len());
        assert_ne!(corrupted, frame);
        // Exactly one bit flipped per byte at prob 1.0.
        for (a, b) in frame.iter().zip(&corrupted) {
            assert_eq!((a ^ b).count_ones(), 1);
        }
        assert_eq!(inj.stats().frames_corrupted, 1);
    }

    #[test]
    fn zero_prob_corruption_leaves_frame_untouched() {
        let plan = FaultPlan::new(vec![
            FaultKind::BitCorruption { per_byte_prob: 0.0 }.during(FaultWindow::always())
        ]);
        let mut inj = FaultInjector::new(plan, rng());
        assert!(inj.corrupt_frame(SimTime::ZERO, &[9u8; 16]).is_none());
        assert_eq!(inj.stats().frames_corrupted, 0);
    }

    #[test]
    fn node_crash_targets_one_node() {
        let plan = FaultPlan::new(vec![FaultKind::NodeCrash {
            node: FaultNode::Obu,
        }
        .during(FaultWindow::new(SimTime::ZERO, SimTime::from_secs(3)))]);
        let mut inj = FaultInjector::new(plan, rng());
        assert!(inj.node_down(SimTime::from_secs(1), FaultNode::Obu));
        assert!(!inj.node_down(SimTime::from_secs(1), FaultNode::Ecu));
        // Reboot after the window.
        assert!(!inj.node_down(SimTime::from_secs(4), FaultNode::Obu));
    }

    #[test]
    fn platoon_members_are_distinct_targets() {
        let plan = FaultPlan::new(vec![FaultKind::StuckTransmitter {
            node: FaultNode::Platoon(0),
        }
        .during(FaultWindow::always())]);
        let mut inj = FaultInjector::new(plan, rng());
        let t = SimTime::from_secs(1);
        assert!(inj.radio_drop(t, FaultNode::Platoon(0)));
        assert!(!inj.radio_drop(t, FaultNode::Platoon(1)));
        assert!(!inj.radio_drop(t, FaultNode::Rsu));
        assert_eq!(inj.stats().injected, 1);
    }

    #[test]
    fn sampled_plans_are_seed_deterministic() {
        let mut a = SimRng::seed_from(1234).fork("plan");
        let mut b = SimRng::seed_from(1234).fork("plan");
        let horizon = SimDuration::from_secs(10);
        assert_eq!(
            FaultPlan::sample(&mut a, horizon),
            FaultPlan::sample(&mut b, horizon)
        );
    }

    #[test]
    fn sampled_plans_cover_every_fault_kind() {
        // One flag per kind, set through a match with no wildcard arm, so
        // a new kind does not compile here until this test expects it.
        let mut seen = [false; 7];
        for seed in 0..64 {
            let mut rng = SimRng::seed_from(seed).fork("plan");
            for spec in FaultPlan::sample(&mut rng, SimDuration::from_secs(10)).faults {
                let k = match spec.kind {
                    FaultKind::CameraFrameDrop { .. } => 0,
                    FaultKind::DetectorMiss { .. } => 1,
                    FaultKind::RadioSilence { .. } => 2,
                    FaultKind::StuckTransmitter { .. } => 3,
                    FaultKind::BitCorruption { .. } => 4,
                    FaultKind::HttpStall { .. } => 5,
                    FaultKind::NodeCrash { .. } => 6,
                };
                seen[k] = true;
            }
        }
        assert_eq!(seen, [true; 7], "kinds sampled: {seen:?}");
    }

    #[test]
    fn injection_sequence_is_reproducible() {
        let plan = FaultPlan::new(vec![
            FaultKind::RadioSilence { prob: 0.4 }.during(FaultWindow::always()),
            FaultKind::HttpStall { prob: 0.3 }.during(FaultWindow::always()),
        ]);
        let run = || {
            let mut inj = FaultInjector::new(plan.clone(), rng());
            let mut out = Vec::new();
            for i in 0..200u64 {
                let t = SimTime::from_millis(i * 10);
                out.push(inj.radio_drop(t, FaultNode::Obu));
                out.push(inj.http_stall(t));
            }
            (out, inj.stats())
        };
        assert_eq!(run(), run());
    }
}
