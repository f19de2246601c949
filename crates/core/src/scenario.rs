//! The ETSI ITS Collision Avoidance scenario (paper Figures 3, 4 and 8).
//!
//! One run reproduces the experiment of §IV: the vehicle line-follows
//! toward the road-side camera; when it crosses the Action Point the
//! edge node's YOLO pipeline detects it, the Hazard Advertisement Service
//! POSTs `trigger_denm` to the RSU, the RSU broadcasts a DENM over
//! 802.11p, the OBU receives it, the vehicle's polling script picks it up
//! on `request_denm`, and the control logic cuts power to the wheels.
//!
//! Timestamps are collected at the paper's six steps:
//!
//! 1. vehicle reaches the Action Point (ground truth),
//! 2. YOLO outputs the identification (edge-node wall clock),
//! 3. the RSU sends the DENM (RSU wall clock),
//! 4. the OBU receives the DENM (OBU wall clock),
//! 5. the power-cut command is issued to the actuators (ECU wall clock),
//! 6. the vehicle comes to a halt (ground truth).
//!
//! Each of the four hosts has its own NTP-disciplined clock with
//! millisecond log resolution, so the per-step intervals include the same
//! measurement noise as the paper's Table II.

use crate::chain::{Chain, ChainBuffers, ChainEvent, GEO_ORIGIN};
use facilities::ldm::PerceivedObject;
use faults::{CoopStats, FaultNode, FaultPlan, FaultStats};
use its_messages::common::{ReferencePosition, StationId};
use openc2x::node::{lab_to_geo, FrameOutcome, ItsStation, PollingModel, StationConfig};
use perception::camera::{GroundTruthTarget, RoadSideCamera, TargetAppearance};
use perception::detector::{Detection, YoloModel};
use perception::hazard::{HazardAdvertisementService, HazardConfig, HazardDecision};
use perception::tracker::{Tracker, TrackerConfig};
use phy80211p::cellular::CellularProfile;
use phy80211p::channel::{Channel, ChannelConfig};
use phy80211p::Position2D;
use sim_core::{
    EventHandler, EventQueue, NodeClock, NtpModel, SimDuration, SimRng, SimTime, Trace,
};
use vehicle::dynamics::{BicycleState, LongitudinalModel, VehicleParams};
use vehicle::linefollow::{LineFollower, Track};
use vehicle::planner::{MotionPlanner, StopPolicy};
use vehicle::sensors::WheelOdometry;
use vehicle::watchdog::{DegradationLevel, V2xWatchdog, WatchdogConfig};

/// How the hazard service decides to trigger the DENM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HazardRule {
    /// The paper's rule: estimated distance at/below the Action Point.
    ActionPoint,
    /// Track-based rule: confirmed track closing with TTC below the
    /// threshold (uses the perception tracker's motion vector).
    TimeToCollision {
        /// TTC threshold, seconds.
        ttc_s: f64,
        /// Minimum detections before a track is acted on.
        min_hits: u32,
    },
}

/// How the DENM travels from RSU to OBU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DenmLink {
    /// Direct IEEE 802.11p broadcast (the paper's setup).
    Its80211p,
    /// Via a cellular network (the paper's §V future-work comparison).
    Cellular(CellularProfile),
}

/// Mean YOLO inference latency (capture → output), s.
pub(crate) const INFERENCE_MEAN_S: f64 = 0.180;
/// Std-dev of the inference latency, s.
pub(crate) const INFERENCE_STD_S: f64 = 0.020;

/// Full configuration of one collision-avoidance run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed; every stochastic component derives from it.
    pub seed: u64,
    /// Vehicle start distance from the camera along the approach, m.
    pub start_distance_m: f64,
    /// Initial vehicle speed (the run starts mid-cruise), m/s.
    pub cruise_speed_mps: f64,
    /// Throttle holding the cruise speed.
    pub cruise_throttle: f64,
    /// Action Point distance from the camera, m (paper: 1.52 m).
    pub action_point_m: f64,
    /// Road-side camera model.
    pub camera: RoadSideCamera,
    /// Object-detector model.
    pub yolo: YoloModel,
    /// Appearance of the vehicle for the detector.
    pub appearance: TargetAppearance,
    /// DENM repetition: `(interval, duration)`. The paper's application
    /// sends one shot (`None`); repetition makes the warning robust to
    /// frame loss on obstructed channels.
    pub denm_repetition: Option<(SimDuration, SimDuration)>,
    /// Vehicle-side polling of the OBU HTTP API.
    pub polling: PollingModel,
    /// Wireless channel configuration.
    pub channel: ChannelConfig,
    /// RSU antenna position in the lab frame, m.
    pub rsu_position: Position2D,
    /// NTP synchronisation quality across the four hosts.
    pub ntp: NtpModel,
    /// Vehicle control-loop period.
    pub control_period: SimDuration,
    /// Vehicle dynamics parameters.
    pub vehicle: VehicleParams,
    /// Hazard trigger rule at the edge node.
    pub hazard_rule: HazardRule,
    /// RSU→OBU link for DENMs.
    pub denm_link: DenmLink,
    /// Give-up horizon for a run.
    pub timeout: SimDuration,
    /// Fault schedule for the run. The default (empty) plan is a strict
    /// no-op: the injector draws no randomness and changes no control
    /// flow, so faultless runs stay byte-identical to the baseline.
    pub fault_plan: FaultPlan,
    /// V2X heartbeat watchdog at the vehicle. `Some` makes the RSU
    /// beacon CAMs at the watchdog's heartbeat period and the planner
    /// honour the degradation ladder; `None` (the default) leaves the
    /// baseline event schedule untouched.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            start_distance_m: 4.0,
            cruise_speed_mps: 1.5,
            cruise_throttle: 0.214,
            action_point_m: 1.52,
            camera: RoadSideCamera::default(),
            yolo: YoloModel::default(),
            appearance: TargetAppearance::WithStopSign,
            denm_repetition: None,
            polling: PollingModel::default(),
            channel: ChannelConfig::default(),
            rsu_position: Position2D::new(0.0, 1.0),
            ntp: NtpModel::default(),
            control_period: SimDuration::from_millis(20),
            vehicle: VehicleParams::default(),
            hazard_rule: HazardRule::ActionPoint,
            denm_link: DenmLink::Its80211p,
            timeout: SimDuration::from_secs(30),
            fault_plan: FaultPlan::default(),
            watchdog: None,
        }
    }
}

/// Result of one run: the six step timestamps plus derived quantities.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Step 1 — true Action Point crossing (simulation time).
    pub step1_crossing: Option<SimTime>,
    /// Step 2 — YOLO detection output (simulation time).
    pub step2_detection: Option<SimTime>,
    /// Step 2 wall-clock timestamp (edge node), ms.
    pub step2_wall_ms: Option<u64>,
    /// Step 3 — RSU hands the DENM to the MAC (simulation time).
    pub step3_rsu_send: Option<SimTime>,
    /// Step 3 wall-clock timestamp (RSU), ms.
    pub step3_wall_ms: Option<u64>,
    /// Step 4 — OBU registers DENM reception (simulation time).
    pub step4_obu_recv: Option<SimTime>,
    /// Step 4 wall-clock timestamp (OBU), ms.
    pub step4_wall_ms: Option<u64>,
    /// Step 5 — power-cut command issued (simulation time).
    pub step5_actuation: Option<SimTime>,
    /// Step 5 wall-clock timestamp (vehicle ECU), ms.
    pub step5_wall_ms: Option<u64>,
    /// Step 6 — vehicle at a standstill (simulation time).
    pub step6_halt: Option<SimTime>,
    /// Odometer reading at step 2, m.
    pub odometer_at_detection_m: Option<f64>,
    /// Odometer reading at halt, m.
    pub odometer_at_halt_m: Option<f64>,
    /// Speed when the detection fired, m/s.
    pub speed_at_detection_mps: f64,
    /// Distance between the halted vehicle and the camera, m — the
    /// safety margin left after the whole chain acted.
    pub halt_distance_to_camera_m: Option<f64>,
    /// Estimated distance reported by the triggering detection, m.
    pub detection_distance_m: Option<f64>,
    /// Whether the DENM made it to the OBU.
    pub denm_delivered: bool,
    /// Number of CAMs the RSU received during the run.
    pub cams_received: u64,
    /// Discrete events dispatched over the whole run — performance
    /// accounting for the campaign-throughput bench (`BENCH_campaign.json`
    /// reports ns/event from it); not part of any paper table.
    pub events_dispatched: u64,
    /// Fault-injection and degradation counters (all zero on a
    /// faultless run; wire version 2 appends them to the frame).
    pub fault: FaultStats,
    /// Cooperative-scenario outcome counters (wire version 3 appends
    /// them; the single-vehicle DES only ever fills `failsafe_stops`).
    pub coop: CoopStats,
    /// Event trace of the run.
    pub trace: Trace,
}

impl RunRecord {
    fn wall_diff(later: Option<u64>, earlier: Option<u64>) -> Option<i64> {
        Some(later? as i64 - earlier? as i64)
    }

    /// Table II row 1: detection → RSU send, ms (wall clocks).
    pub fn interval_2_3_ms(&self) -> Option<i64> {
        Self::wall_diff(self.step3_wall_ms, self.step2_wall_ms)
    }

    /// Table II row 2: RSU send → OBU receive, ms (wall clocks).
    pub fn interval_3_4_ms(&self) -> Option<i64> {
        Self::wall_diff(self.step4_wall_ms, self.step3_wall_ms)
    }

    /// Table II row 3: OBU receive → actuator command, ms (wall clocks).
    pub fn interval_4_5_ms(&self) -> Option<i64> {
        Self::wall_diff(self.step5_wall_ms, self.step4_wall_ms)
    }

    /// Table II bottom row: total delay step 2 → step 5, ms.
    pub fn total_delay_ms(&self) -> Option<i64> {
        Self::wall_diff(self.step5_wall_ms, self.step2_wall_ms)
    }

    /// Table III: distance travelled from detection to halt, m.
    pub fn braking_distance_m(&self) -> Option<f64> {
        Some(self.odometer_at_halt_m? - self.odometer_at_detection_m?)
    }

    /// Whether the emergency pipeline completed end to end.
    pub fn completed(&self) -> bool {
        self.step6_halt.is_some() && self.step5_actuation.is_some()
    }
}

// The parallel campaign runner shares the base `ScenarioConfig` across
// worker threads and moves each `RunRecord` back to the index-ordered
// merge; pin those auto-trait bounds here so a future non-thread-safe
// field fails at this definition, not at a distant runner call site.
// The event queue's heap stores events inline, so pin the event size too.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScenarioConfig>();
    assert_send_sync::<RunRecord>();
    assert!(std::mem::size_of::<Event>() <= 56);
};

/// Discrete events of the scenario (public because [`Scenario`]
/// implements [`EventHandler`]; not constructible by users — runs are
/// driven through [`Scenario::run`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Event {
    /// Vehicle control loop: physics, line following, CAM polling.
    ControlTick,
    /// Camera frame capture instant.
    CameraFrame,
    /// YOLO output for a captured frame.
    DetectionOutput(Detection),
    /// A CAM frame arrives at the RSU.
    RsuCamRx {
        /// Wire bytes of the full GN frame. The buffer comes from the
        /// chain's frame pool and returns to it after delivery, so the
        /// steady-state beacon loop allocates nothing.
        frame: Vec<u8>,
    },
    /// The RSU beacons a liveness CAM (only scheduled when the vehicle's
    /// V2X watchdog is configured).
    RsuHeartbeat,
    /// A CAM frame arrives at the OBU (the watchdog's heartbeat path).
    ObuCamRx {
        /// Wire bytes of the full GN frame (pooled, like `RsuCamRx`).
        frame: Vec<u8>,
    },
    /// A step of the detection-to-action chain (trigger POST to power
    /// cut).
    Chain(ChainEvent),
}

impl From<ChainEvent> for Event {
    fn from(event: ChainEvent) -> Self {
        Self::Chain(event)
    }
}

/// Recycled per-run buffers: the event queue's heap, the chain's frame
/// pool and queues, and the detection scratch. A campaign runs
/// thousands of scenarios back to back on each worker thread; recycling
/// makes every run after the first reuse the previous run's capacity
/// instead of re-growing it.
/// Everything here is emptied before storage and reset on reuse
/// ([`EventQueue::reset`] restarts time and the FIFO `seq` at zero),
/// so a recycled run is bit-for-bit identical to a fresh one.
#[derive(Default)]
struct RunScratch {
    queue: EventQueue<Event>,
    detections: Vec<Detection>,
    chain: ChainBuffers,
}

thread_local! {
    /// Per-thread scratch slot — thread-local keeps campaign workers
    /// (threads or shard processes) fully independent.
    static RUN_SCRATCH: std::cell::RefCell<Option<RunScratch>> =
        const { std::cell::RefCell::new(None) };
}

/// The assembled scenario state.
pub struct Scenario {
    config: ScenarioConfig,
    rng_detector: SimRng,
    // Stations, air, timing/channel streams and fault plane.
    chain: Chain,
    // Edge perception.
    hazard: HazardAdvertisementService,
    tracker: Tracker,
    edge_clock: NodeClock,
    // Vehicle.
    car: LongitudinalModel,
    pose: BicycleState,
    follower: LineFollower,
    planner: MotionPlanner,
    track: Track,
    odometry: WheelOdometry,
    detect_scratch: Vec<Detection>,
    watchdog: Option<V2xWatchdog>,
    // Bookkeeping.
    record: RunRecord,
    done: bool,
    next_object_id: u32,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("seed", &self.config.seed)
            .field("done", &self.done)
            .finish()
    }
}

impl Scenario {
    /// Builds a scenario from its configuration.
    pub fn new(config: ScenarioConfig) -> Self {
        let root = SimRng::seed_from(config.seed);
        let mut rng_clocks = root.fork("clocks");
        let edge_clock = NodeClock::sample(&config.ntp, &mut rng_clocks, 0);
        let rsu_clock = NodeClock::sample(&config.ntp, &mut rng_clocks, 0);
        let obu_clock = NodeClock::sample(&config.ntp, &mut rng_clocks, 0);
        let ecu_clock = NodeClock::sample(&config.ntp, &mut rng_clocks, 0);

        let mut rsu = ItsStation::new(
            StationConfig::rsu(StationId::new(15).expect("static id")), // detlint:allow(S3) static id 15 is always in the station-id range
            rsu_clock,
        );
        rsu.set_position(config.rsu_position);
        let mut obu = ItsStation::new(
            StationConfig::obu(StationId::new(7).expect("static id")), // detlint:allow(S3) static id 7 is always in the station-id range
            obu_clock,
        );
        obu.set_position(Position2D::new(config.start_distance_m, 0.0));

        let (ev_lat, ev_lon) = lab_to_geo(GEO_ORIGIN, Position2D::new(0.0, 0.0));
        let hazard_cfg = HazardConfig {
            action_point_m: config.action_point_m,
            ..HazardConfig::paper_setup(ReferencePosition::from_degrees(ev_lat, ev_lon))
        };

        // Per-run physical variability: tire/drivetrain state and the
        // exact approach speed differ slightly between the paper's runs
        // (Table III spans 0.31–0.43 m).
        let mut rng_vehicle = root.fork("vehicle");
        let mut params = config.vehicle;
        params.drivetrain_drag_n_per_mps *= rng_vehicle.normal(1.0, 0.07).clamp(0.8, 1.2);
        params.rolling_resistance *= rng_vehicle.normal(1.0, 0.05).clamp(0.85, 1.15);
        let speed = config.cruise_speed_mps * rng_vehicle.normal(1.0, 0.04).clamp(0.9, 1.1);
        let mut car = LongitudinalModel::new(params);
        car.set_speed(speed);
        let pose = BicycleState {
            x: config.start_distance_m,
            y: 0.0,
            theta: std::f64::consts::PI, // driving toward the camera (-x)
        };
        let channel = Channel::new(config.channel.clone());
        let plan = config.fault_plan.clone();

        Self {
            chain: Chain::new(&root, (&config).into(), plan, rsu, obu, ecu_clock, channel),
            rng_detector: root.fork("detector"),
            hazard: HazardAdvertisementService::new(hazard_cfg),
            tracker: Tracker::new(TrackerConfig::default()),
            edge_clock,
            car,
            pose,
            follower: LineFollower::new(),
            planner: MotionPlanner::new(config.cruise_throttle, StopPolicy::AnyDenm),
            track: Track::straight(config.start_distance_m + 2.0),
            odometry: WheelOdometry::new(3480.0),
            detect_scratch: Vec::new(),
            watchdog: config.watchdog.map(V2xWatchdog::new),
            record: RunRecord::default(),
            done: false,
            next_object_id: 1,
            config,
        }
    }

    /// Builds and runs the scenario whose seed is `base.seed + index`.
    ///
    /// This is the `Send`-safe per-job entry point the parallel campaign
    /// runner executes: it takes the shared base configuration by
    /// reference and every piece of run state lives on the worker's own
    /// stack, so runs on different threads cannot interact.
    pub fn run_seeded(base: &ScenarioConfig, index: u64) -> RunRecord {
        Scenario::new(ScenarioConfig {
            seed: base.seed + index,
            ..base.clone()
        })
        .run()
    }

    /// Runs the scenario to completion (or timeout) and returns the
    /// record.
    pub fn run(mut self) -> RunRecord {
        let scratch = RUN_SCRATCH
            .with(|s| s.borrow_mut().take())
            .unwrap_or_default();
        let mut queue = scratch.queue;
        self.chain.buffers = scratch.chain;
        self.detect_scratch = scratch.detections;
        queue.schedule_at(SimTime::ZERO, Event::ControlTick);
        queue.schedule_at(
            self.config.camera.next_frame_completion(SimTime::ZERO),
            Event::CameraFrame,
        );
        self.chain.start(&mut queue);
        // The heartbeat stream only exists when the watchdog does, so a
        // watchdog-less run keeps the baseline event schedule bit for bit.
        if let Some(wcfg) = self.config.watchdog {
            queue.schedule_at(SimTime::ZERO + wcfg.heartbeat_period, Event::RsuHeartbeat);
        }
        let timeout = SimTime::ZERO + self.config.timeout;
        sim_core::run(&mut self, &mut queue, timeout);
        self.record.events_dispatched = queue.dispatched();
        // Return the run's buffers to the thread's scratch slot, empty.
        queue.reset();
        self.detect_scratch.clear();
        let scratch = RunScratch {
            queue,
            detections: std::mem::take(&mut self.detect_scratch),
            chain: self.chain.take_buffers(),
        };
        RUN_SCRATCH.with(|s| *s.borrow_mut() = Some(scratch));
        let steps = self.chain.steps;
        (self.record.step3_rsu_send, self.record.step3_wall_ms) = steps.rsu_send.unzip();
        (self.record.step4_obu_recv, self.record.step4_wall_ms) = steps.obu_recv.unzip();
        (self.record.step5_actuation, self.record.step5_wall_ms) = steps.actuation.unzip();
        self.record.denm_delivered = steps.obu_recv.is_some();
        let mut fault = self.chain.injector.stats();
        if let Some(wd) = &self.watchdog {
            let trips = wd.trips();
            fault.watchdog_speed_caps = trips.speed_caps;
            fault.watchdog_stops = trips.stops;
            fault.watchdog_recoveries = trips.recoveries;
        }
        self.record.coop.failsafe_stops = u64::from(fault.failsafe_stop);
        self.record.fault = fault;
        self.record
    }

    /// True distance from the camera to the vehicle front.
    fn camera_distance(&self) -> f64 {
        // Camera sits at the origin; the approach is along +x. The stop
        // sign rides over the front of the car.
        self.pose.x.max(0.0)
    }

    fn on_control_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let dt = self.config.control_period.as_secs_f64();
        // Watchdog: re-judge V2X liveness each control period and hand
        // the degradation level to the planner (pure arithmetic).
        if let Some(wd) = self.watchdog.as_mut() {
            let level = wd.assess(now);
            self.planner.set_degradation(level);
        }
        // Perception + steering at the control rate.
        // The follower works in the vehicle frame, so it is valid for any
        // heading, including this scenario's -x approach.
        let steer = self
            .follower
            .steering(&self.pose, &self.track, dt, &mut self.rng_detector);
        let cmd = self.planner.plan(steer);
        // The physical cut is what stops the car; until it lands, the
        // old throttle stays active.
        let throttle = match cmd {
            _ if self.chain.steps.power_cut => 0.0,
            vehicle::actuators::ActuatorCommand::Drive { throttle, .. } => throttle,
            vehicle::actuators::ActuatorCommand::CutPower => self.config.cruise_throttle,
        };
        let steer_cmd = match cmd {
            vehicle::actuators::ActuatorCommand::Drive { steering_rad, .. } => steering_rad,
            vehicle::actuators::ActuatorCommand::CutPower => 0.0,
        };
        let ds = self.car.step(dt, throttle);
        self.pose
            .advance(ds, steer_cmd, self.config.vehicle.wheelbase_m);

        // Step 1: ground-truth Action Point crossing.
        if self.record.step1_crossing.is_none()
            && self.camera_distance() <= self.config.action_point_m
        {
            self.record.step1_crossing = Some(now);
            self.record.trace.record_fmt(
                now,
                "world",
                "action_point",
                format_args!("x={:.3}", self.pose.x),
            );
        }

        // Step 6: standstill after the power cut.
        let commanded = self.chain.steps.actuation.is_some();
        if self.record.step6_halt.is_none() && commanded && self.car.speed_mps() <= 0.0 {
            self.record.step6_halt = Some(now);
            self.record.odometer_at_halt_m = Some(self.car.distance_m());
            self.record.halt_distance_to_camera_m = Some(self.pose.x);
            self.record.trace.record_fmt(
                now,
                "world",
                "halt",
                format_args!("odo={:.3}", self.car.distance_m()),
            );
            self.done = true;
            return;
        }

        // Fail-safe halt: the watchdog commanded a controlled stop and
        // the vehicle came to rest without the DENM pipeline completing.
        // Step 6 stays unset — the paper's chain did not act — but the
        // halt position is recorded as the safety outcome.
        if self.record.step6_halt.is_none()
            && !commanded
            && self.car.speed_mps() <= 0.0
            && self
                .watchdog
                .as_ref()
                .is_some_and(|wd| wd.level() == DegradationLevel::ControlledStop)
        {
            self.chain.injector.stats_mut().failsafe_stop = true;
            self.record.odometer_at_halt_m = Some(self.car.distance_m());
            self.record.halt_distance_to_camera_m = Some(self.pose.x);
            self.record.trace.record_fmt(
                now,
                "vehicle",
                "failsafe_stop",
                format_args!("odo={:.3}", self.car.distance_m()),
            );
            self.done = true;
            return;
        }

        // Overrun: under faults the emergency chain can fail outright;
        // driving past the camera is the collision outcome and ends the
        // run. Never evaluated on the baseline path (no fault plan, no
        // watchdog).
        let fault_active = !self.chain.injector.is_noop() || self.watchdog.is_some();
        if fault_active && self.pose.x <= 0.0 {
            self.chain.injector.stats_mut().overran_camera = true;
            self.record.trace.record_fmt(
                now,
                "world",
                "overrun",
                format_args!("x={:.3}", self.pose.x),
            );
            self.done = true;
            return;
        }

        // Keep the OBU position in sync and beacon its CAM to the RSU.
        // Speed comes from the wheel encoder (what the real OBU would
        // see), not from ground truth.
        let ticks = self.odometry.advance(ds);
        let measured_speed = self.odometry.speed_from_window(ticks, dt);
        let obu = &mut self.chain.obu;
        obu.set_position(Position2D::new(self.pose.x, self.pose.y));
        obu.set_motion(measured_speed, 270.0 /* heading -x ≈ west */);
        if !self.chain.injector.node_down(now, FaultNode::Obu) {
            let mut frame = self.chain.take_frame();
            let sent = self
                .chain
                .obu
                .poll_cam_frame(now, &mut frame)
                .unwrap_or(false)
                && !self.chain.injector.radio_drop(now, FaultNode::Obu);
            if !sent {
                self.chain.recycle_frame(frame);
            } else if let Some((arrival, frame)) = self.chain.air_frame(now, false, frame) {
                // A frame corrupted on the air goes to the RSU's real
                // GeoNetworking decoder to reject (or survive).
                queue.schedule_at(arrival, Event::RsuCamRx { frame });
            }
        }

        queue.schedule_after(now, self.config.control_period, Event::ControlTick);
    }

    fn on_camera_frame(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        // A crashed edge node captures nothing (frames resume on
        // reboot); a dropped frame is lost but the pipeline keeps going.
        let injector = &mut self.chain.injector;
        let edge_down = injector.node_down(now, FaultNode::Edge);
        let frame_lost = !edge_down && injector.drop_camera_frame(now);
        // Capture the world now; the detection output appears after the
        // inference latency.
        let target = GroundTruthTarget {
            id: self.next_object_id,
            distance_m: self.camera_distance(),
            bearing_deg: (self.pose.y / self.camera_distance().max(0.1))
                .atan()
                .to_degrees(),
            appearance: self.config.appearance,
        };
        if !edge_down && !frame_lost && self.config.camera.sees(&target) {
            let inference = self
                .chain
                .timing
                .normal(INFERENCE_MEAN_S, INFERENCE_STD_S)
                .clamp(0.05, 0.249);
            let output_at = now + SimDuration::from_secs_f64(inference);
            let mut detections = std::mem::take(&mut self.detect_scratch);
            detections.clear();
            self.config.yolo.process_frame_into(
                output_at,
                &[target],
                &mut self.rng_detector,
                &mut detections,
            );
            for d in detections.drain(..) {
                if self.chain.injector.drop_detection(now) {
                    continue;
                }
                queue.schedule_at(output_at, Event::DetectionOutput(d));
            }
            self.detect_scratch = detections;
        }
        // Detector hallucination: a phantom object independent of any
        // real target, emitted after the nominal inference latency.
        if !edge_down && !frame_lost {
            if let Some((distance, confidence)) = self.chain.injector.phantom_detection(now) {
                let output_at = now + SimDuration::from_secs_f64(INFERENCE_MEAN_S);
                let phantom = Detection {
                    target_id: self.next_object_id,
                    label: "phantom",
                    confidence,
                    estimated_distance_m: distance,
                    frame_time: output_at,
                };
                queue.schedule_at(output_at, Event::DetectionOutput(phantom));
            }
        }
        queue.schedule_at(
            self.config.camera.next_frame_completion(now),
            Event::CameraFrame,
        );
    }

    fn on_detection_output(
        &mut self,
        now: SimTime,
        detection: Detection,
        queue: &mut EventQueue<Event>,
    ) {
        // The edge node crashed between capture and inference output.
        if self.chain.injector.node_down(now, FaultNode::Edge) {
            return;
        }
        // Record the object in the (RSU-hosted) LDM like OpenC2X does.
        let (lat, lon) = lab_to_geo(
            GEO_ORIGIN,
            Position2D::new(detection.estimated_distance_m, 0.0),
        );
        let obj = PerceivedObject {
            id: detection.target_id,
            position: ReferencePosition::from_degrees(lat, lon),
            distance_m: detection.estimated_distance_m,
            class_label: detection.label,
            confidence: detection.confidence,
        };
        self.next_object_id += 1;
        self.chain.rsu.ldm_mut().insert_object(now, obj);

        let wall = its_messages::common::TimestampIts::new(
            self.edge_clock.wall_millis(now) & ((1 << 42) - 1),
        )
        .expect("edge wall clock in range"); // detlint:allow(S3) masked to 42 bits on the line above, always in range
        let chain = &mut self.chain;
        let decision = match self.config.hazard_rule {
            HazardRule::ActionPoint => {
                self.hazard
                    .assess(&detection, chain.rsu.ldm(), wall, &mut chain.timing)
            }
            HazardRule::TimeToCollision { ttc_s, min_hits } => {
                self.tracker.update(now, std::slice::from_ref(&detection));
                match self.tracker.most_urgent(min_hits) {
                    Some(track) => {
                        let track = track.clone();
                        self.hazard.assess_track(
                            &track,
                            min_hits,
                            ttc_s,
                            chain.rsu.ldm(),
                            wall,
                            now,
                            &mut chain.timing,
                        )
                    }
                    None => HazardDecision::OutsideActionPoint,
                }
            }
        };
        if let HazardDecision::TriggerDenm { decided_at, .. } = decision {
            // Step 2: "the YOLO software registers the time the vehicle
            // is crossing the Action Point".
            self.record.step2_detection = Some(now);
            let wall = self.edge_clock.wall_millis(now);
            self.record.step2_wall_ms = Some(self.chain.skewed_wall(wall, now, FaultNode::Edge));
            self.record.odometer_at_detection_m = Some(self.car.distance_m());
            self.record.speed_at_detection_mps = self.car.speed_mps();
            self.record.detection_distance_m = Some(detection.estimated_distance_m);
            self.record.trace.record_fmt(
                now,
                "edge",
                "detect",
                format_args!(
                    "d={:.2} label={}",
                    detection.estimated_distance_m, detection.label
                ),
            );
            self.chain.post_trigger(decided_at, queue);
        }
    }

    /// The RSU's liveness beacon (only scheduled with a watchdog): a
    /// forced CAM through the real MAC + channel + decode path, so every
    /// radio fault class also starves the heartbeat.
    fn on_rsu_heartbeat(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let Some(period) = self
            .watchdog
            .as_ref()
            .map(|wd| wd.config().heartbeat_period)
        else {
            return;
        };
        queue.schedule_after(now, period, Event::RsuHeartbeat);
        if self.chain.injector.node_down(now, FaultNode::Rsu)
            || self.chain.injector.radio_drop(now, FaultNode::Rsu)
        {
            return;
        }
        let mut frame = self.chain.take_frame();
        if self.chain.rsu.heartbeat_cam(now, &mut frame).is_err() {
            self.chain.recycle_frame(frame);
        } else if let Some((arrival, frame)) = self.chain.air_frame(now, true, frame) {
            queue.schedule_at(arrival, Event::ObuCamRx { frame });
        }
    }

    fn on_rsu_cam_rx(&mut self, now: SimTime, frame: Vec<u8>) {
        match geonet::GnFrame::parse(&frame) {
            Ok(f) => {
                if !self.chain.injector.node_down(now, FaultNode::Rsu)
                    && self.chain.rsu.on_frame(now, &f) != FrameOutcome::Ignored
                {
                    self.record.cams_received += 1;
                }
            }
            Err(_) => self.chain.injector.note_rejected(),
        }
        self.chain.recycle_frame(frame);
    }

    fn on_obu_cam_rx(&mut self, now: SimTime, frame: Vec<u8>) {
        if self.chain.injector.node_down(now, FaultNode::Obu) {
            self.chain.recycle_frame(frame);
            return;
        }
        match geonet::GnFrame::parse(&frame) {
            Ok(f) => {
                // Only a CAM the full stack accepted counts as liveness.
                if self.chain.obu.on_frame(now, &f) != FrameOutcome::Ignored {
                    if let Some(wd) = self.watchdog.as_mut() {
                        wd.heartbeat(now);
                    }
                }
            }
            Err(_) => self.chain.injector.note_rejected(),
        }
        self.chain.recycle_frame(frame);
    }
}

impl EventHandler for Scenario {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        if self.done {
            return;
        }
        match event {
            Event::ControlTick => self.on_control_tick(now, queue),
            Event::CameraFrame => self.on_camera_frame(now, queue),
            Event::DetectionOutput(d) => self.on_detection_output(now, d, queue),
            Event::RsuCamRx { frame } => self.on_rsu_cam_rx(now, frame),
            Event::RsuHeartbeat => self.on_rsu_heartbeat(now, queue),
            Event::ObuCamRx { frame } => self.on_obu_cam_rx(now, frame),
            Event::Chain(event) => self.chain.handle(
                now,
                event,
                queue,
                &mut self.record.trace,
                &mut self.planner,
                self.watchdog.as_mut(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_completes_the_pipeline() {
        let record = Scenario::new(ScenarioConfig::default()).run();
        assert!(record.completed(), "record: {record:?}");
        assert!(record.denm_delivered);
        assert!(record.step1_crossing.is_some());
        // Causality in simulation time.
        let s2 = record.step2_detection.unwrap();
        let s3 = record.step3_rsu_send.unwrap();
        let s4 = record.step4_obu_recv.unwrap();
        let s5 = record.step5_actuation.unwrap();
        let s6 = record.step6_halt.unwrap();
        assert!(s2 < s3 && s3 < s4 && s4 < s5 && s5 < s6);
    }

    #[test]
    fn total_delay_under_100ms() {
        for seed in 1..=10 {
            let record = Scenario::new(ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            })
            .run();
            let total = record.total_delay_ms().expect("completed run");
            assert!(total > 0 && total < 100, "seed {seed}: total {total} ms");
        }
    }

    #[test]
    fn braking_distance_in_table_iii_band() {
        for seed in 1..=10 {
            let record = Scenario::new(ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            })
            .run();
            let d = record.braking_distance_m().expect("completed run");
            assert!((0.25..=0.50).contains(&d), "seed {seed}: braking {d} m");
        }
    }

    #[test]
    fn rsu_tracks_vehicle_via_cams() {
        let record = Scenario::new(ScenarioConfig::default()).run();
        assert!(record.cams_received > 0, "CAMs flowed to the RSU");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ScenarioConfig {
            seed: 42,
            ..ScenarioConfig::default()
        };
        let a = Scenario::new(cfg.clone()).run();
        let b = Scenario::new(cfg).run();
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_eq!(a.total_delay_ms(), b.total_delay_ms());
        assert_eq!(a.braking_distance_m(), b.braking_distance_m());
    }

    #[test]
    fn different_seeds_vary() {
        let a = Scenario::new(ScenarioConfig {
            seed: 1,
            ..ScenarioConfig::default()
        })
        .run();
        let b = Scenario::new(ScenarioConfig {
            seed: 2,
            ..ScenarioConfig::default()
        })
        .run();
        assert_ne!(a.trace.digest(), b.trace.digest());
    }

    #[test]
    fn ttc_rule_completes_pipeline_and_triggers_earlier() {
        // A generous TTC threshold fires while the car is still farther
        // out than the 1.52 m action point.
        let ttc = Scenario::new(ScenarioConfig {
            seed: 8,
            hazard_rule: HazardRule::TimeToCollision {
                ttc_s: 2.0,
                min_hits: 3,
            },
            ..ScenarioConfig::default()
        })
        .run();
        assert!(ttc.completed(), "{ttc:?}");
        let ap = Scenario::new(ScenarioConfig {
            seed: 8,
            ..ScenarioConfig::default()
        })
        .run();
        // TTC 2 s at 1.5 m/s ≈ 3 m range: earlier than the 1.52 m point.
        assert!(
            ttc.step2_detection.unwrap() < ap.step2_detection.unwrap(),
            "ttc {:?} vs action point {:?}",
            ttc.step2_detection,
            ap.step2_detection
        );
    }

    #[test]
    fn cellular_link_slower_than_80211p() {
        let direct = Scenario::new(ScenarioConfig {
            seed: 3,
            ..ScenarioConfig::default()
        })
        .run();
        let cellular = Scenario::new(ScenarioConfig {
            seed: 3,
            denm_link: DenmLink::Cellular(CellularProfile::lte_uu()),
            ..ScenarioConfig::default()
        })
        .run();
        let d34_direct = direct.interval_3_4_ms().unwrap();
        let d34_cell = cellular.interval_3_4_ms().unwrap();
        assert!(
            d34_cell > d34_direct,
            "cellular {d34_cell} ms vs direct {d34_direct} ms"
        );
    }
}
