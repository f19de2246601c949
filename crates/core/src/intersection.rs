//! The paper's intended use-case (Figure 1): **two** vehicles meet at a
//! blind-corner intersection.
//!
//! A protagonist vehicle (ETSI ITS-capable, broadcasting CAMs) approaches
//! on one leg; a non-ETSI road user approaches on the crossing leg.
//! Neither has visual or wireless line of sight to the other. The
//! road-side camera watches the road user's leg; when it enters the
//! region of interest the Hazard Advertisement Service *correlates the
//! detection with the protagonist's CAM track in the LDM*, predicts a
//! conflict at the crossing, and issues the DENM that stops the
//! protagonist. (The paper's experiment used a single vehicle in both
//! roles "for convenience"; this module implements the full two-vehicle
//! arrangement.)

use crate::chain::{Chain, ChainEvent, ChainParams, GEO_ORIGIN};
use crate::scenario::{ScenarioConfig, INFERENCE_MEAN_S, INFERENCE_STD_S};
use facilities::cpm::{CpService, CpServiceConfig, Cpm, CpmPerceivedObject, ObjectClass};
use facilities::ldm::PerceivedObject;
use faults::{FaultNode, FaultPlan, FaultStats};
use its_messages::common::{ReferencePosition, StationId, StationType};
use openc2x::node::{lab_to_geo, ItsStation, StationConfig};
use perception::camera::{GroundTruthTarget, RoadSideCamera, TargetAppearance};
use perception::detector::YoloModel;
use phy80211p::channel::{Channel, ChannelConfig, Obstacle};
use phy80211p::Position2D;
use sim_core::{
    EventHandler, EventQueue, NodeClock, NtpModel, SimDuration, SimRng, SimTime, Trace,
};
use vehicle::dynamics::{LongitudinalModel, VehicleParams};
use vehicle::planner::{MotionPlanner, StopPolicy};

/// Approach speed of both vehicles, m/s: the speed the fixed 0.214
/// throttle holds.
const SPEED_MPS: f64 = 1.5;
/// Throttle that holds [`SPEED_MPS`] against drag and rolling
/// resistance.
const CRUISE_THROTTLE: f64 = 0.214;
/// The camera's Action Point on the road user's leg, m from the
/// conflict point.
const ACTION_POINT_M: f64 = 4.0;
/// Separation below which the run counts as a collision, m
/// (half-lengths of two 1/10-scale cars).
const COLLISION_DISTANCE_M: f64 = 0.5;
/// Extra attenuation of the corner building, dB (blocks the diagonal).
const CORNER_LOSS_DB: f64 = 40.0;
/// Control-loop period of both vehicles.
const CONTROL_PERIOD: SimDuration = SimDuration::from_millis(20);
/// Give-up horizon of a run.
const TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// A second, simultaneous hazard: a stalled obstacle on the
/// protagonist's exit leg, just past the blind corner. The road-side
/// camera sees it from the start; the protagonist's own forward sensor
/// only picks it up once the corner building no longer occludes it —
/// far inside its braking distance. Only cooperative perception (the
/// RSU's CPMs) warns the protagonist early enough to stop clear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondHazard {
    /// Obstacle position past the conflict point along the
    /// protagonist's leg, m.
    pub past_crossing_m: f64,
    /// Range of the protagonist's own forward sensing once it rounds
    /// the corner, m. Deliberately shorter than a braking distance:
    /// the blind corner is what makes the hazard a hazard.
    pub own_sensor_range_m: f64,
    /// Distance at which the protagonist brakes for an obstacle it
    /// knows about through a CPM, m.
    pub coop_brake_range_m: f64,
}

impl Default for SecondHazard {
    fn default() -> Self {
        Self {
            past_crossing_m: 1.0,
            own_sensor_range_m: 0.4,
            coop_brake_range_m: 2.5,
        }
    }
}

/// Configuration of the two-vehicle intersection scenario.
#[derive(Debug, Clone)]
pub struct IntersectionConfig {
    /// RNG seed.
    pub seed: u64,
    /// Protagonist's start distance from the conflict point, m.
    pub protagonist_start_m: f64,
    /// Road user's start distance from the conflict point, m. The road
    /// user never brakes: it is not ETSI-capable.
    pub road_user_start_m: f64,
    /// Predicted-conflict window: a DENM is sent when the two predicted
    /// arrival times at the crossing differ by less than this, s.
    pub conflict_window_s: f64,
    /// Whether the road-side infrastructure is present (ablation:
    /// without it the protagonist sails through).
    pub with_infrastructure: bool,
    /// Fault schedule for the run. The default (empty) plan is a
    /// strict no-op: the injector draws no randomness and changes no
    /// control flow, so faultless runs stay byte-identical.
    pub fault_plan: FaultPlan,
    /// Collective perception: `Some` makes the RSU package its camera
    /// detections as CPMs that extend the protagonist's LDM beyond its
    /// own sensors; `None` (the default) leaves the baseline event
    /// schedule and RNG sequence untouched.
    pub cpm: Option<CpServiceConfig>,
    /// The blind-corner second hazard. `None` (the default) keeps the
    /// classic single-hazard geometry.
    pub second_hazard: Option<SecondHazard>,
}

impl Default for IntersectionConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            protagonist_start_m: 6.0,
            road_user_start_m: 6.0,
            conflict_window_s: 1.5,
            with_infrastructure: true,
            fault_plan: FaultPlan::default(),
            cpm: None,
            second_hazard: None,
        }
    }
}

/// Outcome of one intersection run.
#[derive(Debug, Clone, Default)]
pub struct IntersectionRecord {
    /// Whether the hazard service sent a DENM.
    pub denm_sent: bool,
    /// Whether it reached the protagonist's OBU.
    pub denm_delivered: bool,
    /// When the protagonist's ECU commanded the power cut (the chain's
    /// step 5; the cut itself lands after the Teensy/ESC latency).
    pub actuation: Option<SimTime>,
    /// Whether the protagonist came to a stop before the crossing.
    pub protagonist_stopped: bool,
    /// Protagonist's halt distance from the conflict point, m (negative
    /// = it entered the crossing).
    pub halt_margin_m: Option<f64>,
    /// Minimum separation between the two vehicles over the run, m.
    pub min_separation_m: f64,
    /// Whether the run ended in a collision.
    pub collision: bool,
    /// CPMs the RSU generated.
    pub cpm_sent: u64,
    /// CPMs the protagonist's OBU decoded.
    pub cpm_delivered: u64,
    /// Perceived objects that entered the protagonist's LDM via CPM
    /// while beyond its own sensor range — the cooperative-perception
    /// payoff counter.
    pub cpm_extended_detections: u64,
    /// The protagonist braked for the second hazard.
    pub second_hazard_braked: bool,
    /// That braking decision came from a CPM-known obstacle, not the
    /// protagonist's own (too-late) sensor.
    pub second_hazard_via_cpm: bool,
    /// Fault-injection counters for the run.
    pub fault: FaultStats,
    /// Event trace.
    pub trace: Trace,
}

/// Events of the intersection scenario.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Event {
    /// Physics + CAM tick for both vehicles.
    ControlTick,
    /// Camera frame on the road user's leg.
    CameraFrame,
    /// YOLO output reaches the hazard service.
    DetectionOutput {
        /// Estimated distance of the road user from the conflict point.
        estimated_distance_m: f64,
    },
    /// A CAM frame from the protagonist arrives at the RSU.
    RsuCamRx {
        /// Wire bytes of the GN frame (possibly corrupted on the air),
        /// in a buffer from the chain's frame pool.
        frame: Vec<u8>,
    },
    /// A CPM frame arrives at the protagonist's OBU.
    CpmRx {
        /// UPER bytes of the CPM (possibly corrupted on the air).
        bytes: Vec<u8>,
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

/// The assembled intersection scenario.
pub struct IntersectionScenario {
    config: IntersectionConfig,
    /// The camera watching the road user's leg.
    camera: RoadSideCamera,
    /// The detector's stream (YOLO draws).
    rng: SimRng,
    // Stations, air, timing/channel streams and fault plane.
    chain: Chain,
    protagonist: LongitudinalModel,
    road_user: LongitudinalModel,
    planner: MotionPlanner,
    throttle_on: bool,
    // Cooperative perception.
    cp: Option<CpService>,
    rsu_ref: ReferencePosition,
    obstacle_known: Option<SimTime>,
    record: IntersectionRecord,
    done: bool,
}

impl std::fmt::Debug for IntersectionScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntersectionScenario")
            .field("seed", &self.config.seed)
            .finish()
    }
}

impl IntersectionScenario {
    /// Builds the scenario.
    pub fn new(config: IntersectionConfig) -> Self {
        let root = SimRng::seed_from(config.seed);
        let mut rng_clocks = root.fork("clocks");
        let ntp = NtpModel::default();
        let rsu_clock = NodeClock::sample(&ntp, &mut rng_clocks, 0);
        let obu_clock = NodeClock::sample(&ntp, &mut rng_clocks, 0);
        let ecu_clock = NodeClock::sample(&ntp, &mut rng_clocks, 0);

        let mut rsu = ItsStation::new(
            StationConfig::rsu(StationId::new(15).expect("static id")), // detlint:allow(S3) static id 15 is always in the station-id range
            rsu_clock,
        );
        // The RSU hangs over the corner with LoS down both legs.
        rsu.set_position(Position2D::new(-1.0, -1.0));
        let mut obu = ItsStation::new(
            StationConfig::obu(StationId::new(7).expect("static id")), // detlint:allow(S3) static id 7 is always in the station-id range
            obu_clock,
        );
        obu.set_position(Position2D::new(config.protagonist_start_m, 0.0));

        let mut channel_cfg = ChannelConfig::default();
        // The corner building occupies the inner quadrant between the
        // two legs; it blocks the diagonal but not leg↔RSU.
        channel_cfg.obstacles.push(Obstacle {
            min: Position2D::new(0.5, 0.5),
            max: Position2D::new(50.0, 50.0),
            extra_loss_db: CORNER_LOSS_DB,
        });

        let mut protagonist = LongitudinalModel::new(VehicleParams::default());
        protagonist.set_speed(SPEED_MPS);
        let mut road_user = LongitudinalModel::new(VehicleParams::default());
        road_user.set_speed(SPEED_MPS);

        let cp = config.cpm.map(|cfg| {
            CpService::new(
                StationId::new(15).expect("static id"), // detlint:allow(S3) static id 15 is always in the station-id range
                StationType::RoadSideUnit,
                cfg,
            )
        });
        let (rsu_lat, rsu_lon) = lab_to_geo(GEO_ORIGIN, rsu.position());
        let rsu_ref = ReferencePosition::from_degrees(rsu_lat, rsu_lon);
        let chain_params = ChainParams::from(&ScenarioConfig::default());
        let channel = Channel::new(channel_cfg);
        let plan = config.fault_plan.clone();

        Self {
            chain: Chain::new(&root, chain_params, plan, rsu, obu, ecu_clock, channel),
            camera: RoadSideCamera {
                max_range_m: 8.0,
                ..RoadSideCamera::default()
            },
            rng: root.fork("detector"),
            protagonist,
            road_user,
            planner: MotionPlanner::new(CRUISE_THROTTLE, StopPolicy::AnyDenm),
            throttle_on: true,
            cp,
            rsu_ref,
            obstacle_known: None,
            record: IntersectionRecord {
                min_separation_m: f64::INFINITY,
                ..IntersectionRecord::default()
            },
            done: false,
            config,
        }
    }

    /// Protagonist's distance to the conflict point (can go negative
    /// once it enters the crossing). It approaches along +x.
    fn protagonist_distance(&self) -> f64 {
        self.config.protagonist_start_m - self.protagonist.distance_m()
    }

    /// Road user's distance to the conflict point (approaches along +y).
    fn road_user_distance(&self) -> f64 {
        self.config.road_user_start_m - self.road_user.distance_m()
    }

    fn protagonist_position(&self) -> Position2D {
        Position2D::new(self.protagonist_distance(), 0.0)
    }

    fn road_user_position(&self) -> Position2D {
        Position2D::new(0.0, self.road_user_distance())
    }

    /// Runs the scenario and returns the outcome.
    pub fn run(mut self) -> IntersectionRecord {
        let mut queue: EventQueue<Event> = EventQueue::new();
        queue.schedule_at(SimTime::ZERO, Event::ControlTick);
        if self.config.with_infrastructure {
            queue.schedule_at(
                self.camera.next_frame_completion(SimTime::ZERO),
                Event::CameraFrame,
            );
            self.chain.start(&mut queue);
        }
        let timeout = SimTime::ZERO + TIMEOUT;
        sim_core::run(&mut self, &mut queue, timeout);
        self.record.denm_delivered = self.chain.steps.obu_recv.is_some();
        self.record.actuation = self.chain.steps.actuation.map(|(t, _)| t);
        self.record.fault = self.chain.injector.stats();
        self.record
    }

    fn on_control_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        let dt = CONTROL_PERIOD.as_secs_f64();
        self.throttle_on &= !self.chain.steps.power_cut;
        let throttle = if self.throttle_on {
            CRUISE_THROTTLE
        } else {
            0.0
        };
        self.protagonist.step(dt, throttle);
        self.road_user.step(dt, CRUISE_THROTTLE);

        // Track separation and collisions.
        let sep = self
            .protagonist_position()
            .distance(self.road_user_position());
        if sep < self.record.min_separation_m {
            self.record.min_separation_m = sep;
        }
        if sep <= COLLISION_DISTANCE_M && !self.record.collision {
            self.record.collision = true;
            self.record.trace.record_fmt(
                now,
                "world",
                "collision",
                format_args!("separation {sep:.2} m"),
            );
        }

        // Protagonist halted after a power cut?
        if !self.throttle_on
            && self.protagonist.speed_mps() <= 0.0
            && !self.record.protagonist_stopped
        {
            self.record.protagonist_stopped = true;
            self.record.halt_margin_m = Some(self.protagonist_distance());
            self.record.trace.record_fmt(
                now,
                "world",
                "halt",
                format_args!("margin {:.2} m", self.protagonist_distance()),
            );
        }

        // Second hazard: the stalled obstacle past the corner. The
        // protagonist brakes early for a CPM-known obstacle, late (and
        // usually too late) on its own corner-occluded sensor.
        if let Some(h) = self.config.second_hazard {
            let gap = self.protagonist_distance() + h.past_crossing_m;
            if self.throttle_on {
                let via_own = gap <= h.own_sensor_range_m;
                let via_cpm = self.obstacle_known.is_some() && gap <= h.coop_brake_range_m;
                if via_own || via_cpm {
                    self.throttle_on = false;
                    self.planner.force_stop();
                    self.record.second_hazard_braked = true;
                    self.record.second_hazard_via_cpm = via_cpm && !via_own;
                    self.record.trace.record_fmt(
                        now,
                        "ecu",
                        "obstacle_brake",
                        format_args!(
                            "gap {gap:.2} m via {}",
                            if via_cpm && !via_own {
                                "cpm"
                            } else {
                                "own sensor"
                            }
                        ),
                    );
                }
            }
            if gap <= COLLISION_DISTANCE_M && !self.record.collision {
                self.record.collision = true;
                self.record.trace.record_fmt(
                    now,
                    "world",
                    "collision",
                    format_args!("obstacle gap {gap:.2} m"),
                );
            }
        }

        // End when the road user has cleared the crossing and either the
        // protagonist stopped or also cleared it.
        let ru_cleared = self.road_user_distance() < -2.0;
        let pr_done = self.record.protagonist_stopped || self.protagonist_distance() < -2.0;
        if ru_cleared && pr_done {
            self.done = true;
            return;
        }

        // Protagonist CAM beaconing feeds the RSU's LDM.
        self.chain.obu.set_position(self.protagonist_position());
        self.chain
            .obu
            .set_motion(self.protagonist.speed_mps(), 270.0);
        if self.config.with_infrastructure {
            let mut frame = self.chain.take_frame();
            let sent = self
                .chain
                .obu
                .poll_cam_frame(now, &mut frame)
                .unwrap_or(false);
            // Fault plane: a silenced OBU transmitter (or crashed OBU)
            // keeps the CAM off the air; the CA service already consumed
            // its cadence, so the next CAM is unaffected.
            let injector = &mut self.chain.injector;
            let on_air = sent
                && !injector.node_down(now, FaultNode::Obu)
                && !injector.radio_drop(now, FaultNode::Obu);
            if !on_air {
                self.chain.recycle_frame(frame);
            } else if let Some((arrival, frame)) = self.chain.air_frame(now, false, frame) {
                queue.schedule_at(arrival, Event::RsuCamRx { frame });
            }
        }

        if !self.done {
            queue.schedule_after(now, CONTROL_PERIOD, Event::ControlTick);
        }
    }

    fn on_camera_frame(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        // Fault plane: a crashed edge host or a dropped frame skips this
        // period's processing entirely; the camera cadence is untouched.
        let injector = &mut self.chain.injector;
        let frame_lost =
            injector.node_down(now, FaultNode::Edge) || injector.drop_camera_frame(now);
        // The camera watches the road user's leg (+y).
        let distance = self.road_user_distance();
        let mut road_user_seen = false;
        if !frame_lost && distance > 0.0 {
            let target = GroundTruthTarget {
                id: 2,
                distance_m: distance,
                bearing_deg: 0.0,
                appearance: TargetAppearance::WithStopSign,
            };
            if self.camera.sees(&target) {
                road_user_seen = true;
                let inference = self
                    .chain
                    .timing
                    .normal(INFERENCE_MEAN_S, INFERENCE_STD_S)
                    .clamp(0.05, 0.249);
                let detections = YoloModel::default().process_frame(
                    now,
                    std::slice::from_ref(&target),
                    &mut self.rng,
                );
                if let Some(d) = detections.first() {
                    // Detector-miss faults discard the output *after*
                    // the legacy RNG draws, so the faultless sequence is
                    // untouched.
                    if !self.chain.injector.drop_detection(now) {
                        queue.schedule_after(
                            now,
                            SimDuration::from_secs_f64(inference),
                            Event::DetectionOutput {
                                estimated_distance_m: d.estimated_distance_m,
                            },
                        );
                    }
                }
            }
        }
        if !frame_lost {
            // A hallucinated detection feeds the hazard service a target
            // that is not there (drawn from the injector's own stream).
            if let Some((phantom_m, _confidence)) = self.chain.injector.phantom_detection(now) {
                queue.schedule_after(
                    now,
                    SimDuration::from_millis(180),
                    Event::DetectionOutput {
                        estimated_distance_m: phantom_m,
                    },
                );
            }
            self.generate_cpm(now, road_user_seen, distance, queue);
        }
        if !self.done {
            queue.schedule_at(self.camera.next_frame_completion(now), Event::CameraFrame);
        }
    }

    /// Collective perception: the RSU packages what its camera currently
    /// sees as a CPM and broadcasts it toward the protagonist. Object
    /// geometry is the ground truth the camera model already vetted, so
    /// building the message draws no randomness — with `cpm: None`
    /// (the default) this method returns before touching any stream and
    /// the event/RNG sequence is byte-identical. The CPM goes straight to
    /// the channel, without EDCA access.
    fn generate_cpm(
        &mut self,
        now: SimTime,
        road_user_seen: bool,
        road_user_distance: f64,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(cp) = self.cp.as_mut() else {
            return;
        };
        let rsu_pos = self.chain.rsu.position();
        let mut objects = Vec::with_capacity(2);
        if road_user_seen {
            objects.push(CpmPerceivedObject::from_planar(
                2,
                0.0 - rsu_pos.x,
                road_user_distance - rsu_pos.y,
                ObjectClass::Person,
                85,
            ));
        }
        if let Some(h) = self.config.second_hazard {
            // The stalled obstacle on the protagonist's exit leg; the
            // elevated camera always has line of sight to it.
            objects.push(CpmPerceivedObject::from_planar(
                3,
                -h.past_crossing_m - rsu_pos.x,
                0.0 - rsu_pos.y,
                ObjectClass::Obstacle,
                92,
            ));
        }
        let Some(cpm) = cp.poll(now, self.rsu_ref, &objects) else {
            return;
        };
        let Ok(bytes) = cpm.to_bytes() else {
            return; // from_planar saturates, so the encode cannot fail
        };
        self.record.cpm_sent += 1;
        // Fault plane: a crashed or silenced RSU keeps the CPM off the
        // air (the CP service already consumed its cadence).
        let chain = &mut self.chain;
        if chain.injector.node_down(now, FaultNode::Rsu)
            || chain.injector.radio_drop(now, FaultNode::Rsu)
        {
            return;
        }
        let outcome = chain.channel.transmit(
            now,
            rsu_pos,
            chain.obu.position(),
            bytes.len(),
            chain.rsu.config().data_rate,
            &mut chain.radio,
        );
        if outcome.delivered {
            let wire = match chain.injector.corrupt_frame(now, &bytes) {
                Some(corrupted) => corrupted,
                None => bytes,
            };
            queue.schedule_at(outcome.arrival.max(now), Event::CpmRx { bytes: wire });
        }
    }

    /// The protagonist's CAM reaches the RSU, which decodes it through
    /// the real GeoNetworking stack into the LDM the conflict
    /// prediction reads. A crashed RSU hears nothing.
    fn on_rsu_cam_rx(&mut self, now: SimTime, frame: Vec<u8>) {
        if !self.chain.injector.node_down(now, FaultNode::Rsu) {
            match geonet::GnFrame::parse(&frame) {
                Ok(f) => {
                    self.chain.rsu.on_frame(now, &f);
                }
                Err(_) => self.chain.injector.note_rejected(),
            }
        }
        self.chain.recycle_frame(frame);
    }

    /// A CPM frame reaches the protagonist's OBU: decode it and fold the
    /// carried objects into the OBU's LDM. Objects beyond the
    /// protagonist's own sensor reach are the cooperative-perception
    /// payoff; an `Obstacle`-class object arms the second-hazard brake.
    fn on_cpm_rx(&mut self, now: SimTime, bytes: &[u8]) {
        // A crashed OBU never decodes the frame.
        if self.chain.injector.node_down(now, FaultNode::Obu) {
            return;
        }
        let cpm = match Cpm::from_bytes(bytes) {
            Ok(cpm) => cpm,
            Err(_) => {
                // Corrupted on the air and rejected by the real decoder.
                self.chain.injector.note_rejected();
                return;
            }
        };
        self.record.cpm_delivered += 1;
        let own_range = self
            .config
            .second_hazard
            .map_or(0.0, |h| h.own_sensor_range_m);
        let rsu_pos = self.chain.rsu.position();
        let protagonist = self.protagonist_position();
        for object in &cpm.perceived_objects {
            let (dx, dy) = object.offset_m();
            let lab = Position2D::new(rsu_pos.x + dx, rsu_pos.y + dy);
            let range_m = protagonist.distance(lab);
            let (lat, lon) = lab_to_geo(GEO_ORIGIN, lab);
            let class_label = match object.class {
                ObjectClass::Unknown => "unknown",
                ObjectClass::Vehicle => "vehicle",
                ObjectClass::Person => "person",
                ObjectClass::Obstacle => "obstacle",
            };
            self.chain.obu.ldm_mut().insert_object(
                now,
                PerceivedObject {
                    id: u32::from(object.object_id),
                    position: ReferencePosition::from_degrees(lat, lon),
                    distance_m: range_m,
                    class_label,
                    confidence: f64::from(object.confidence_pct) / 100.0,
                },
            );
            if range_m > own_range {
                self.record.cpm_extended_detections += 1;
            }
            if object.class == ObjectClass::Obstacle && self.obstacle_known.is_none() {
                self.obstacle_known = Some(now);
                self.record.trace.record_fmt(
                    now,
                    "obu",
                    "cpm_obstacle",
                    format_args!("obstacle known via CPM at {range_m:.2} m"),
                );
            }
        }
    }

    fn on_detection_output(
        &mut self,
        now: SimTime,
        estimated_distance_m: f64,
        queue: &mut EventQueue<Event>,
    ) {
        if self.record.denm_sent || estimated_distance_m > ACTION_POINT_M {
            return;
        }
        // Conflict prediction: correlate the camera track with the
        // protagonist's CAM in the LDM.
        let (lat, lon) = lab_to_geo(GEO_ORIGIN, Position2D::new(0.0, 0.0));
        let conflict_point = ReferencePosition::from_degrees(lat, lon);
        let Some(protagonist_cam) = self
            .chain
            .rsu
            .ldm()
            .stations_within(&conflict_point, 100.0)
            .first()
            .copied()
            .cloned()
        else {
            return; // no protagonist known: nothing to warn
        };
        let pr_position = protagonist_cam.basic.reference_position;
        let pr_distance = conflict_point.planar_distance_m(&pr_position);
        // Direction check: the warning only concerns a vehicle still
        // *approaching* the crossing. Compare the CAM heading with the
        // bearing from the vehicle to the conflict point.
        let approaching = {
            let (Some(lat_v), Some(lon_v), Some(lat_c), Some(lon_c)) = (
                pr_position.latitude.as_degrees(),
                pr_position.longitude.as_degrees(),
                conflict_point.latitude.as_degrees(),
                conflict_point.longitude.as_degrees(),
            ) else {
                return;
            };
            let east = (lon_c - lon_v) * lat_v.to_radians().cos();
            let north = lat_c - lat_v;
            // Bearing clockwise from North.
            let bearing = east.atan2(north).to_degrees().rem_euclid(360.0);
            let heading = protagonist_cam
                .high_frequency
                .heading
                .as_degrees()
                .unwrap_or(bearing);
            let diff = (bearing - heading).rem_euclid(360.0);
            diff.min(360.0 - diff) < 90.0
        };
        if !approaching {
            self.record.trace.record(
                now,
                "edge",
                "no_conflict",
                "protagonist already past the crossing",
            );
            return;
        }
        let pr_speed = protagonist_cam
            .high_frequency
            .speed
            .as_mps()
            .unwrap_or(0.0)
            .max(0.05);
        let t_protagonist = pr_distance / pr_speed;
        let t_road_user = estimated_distance_m / SPEED_MPS;
        if (t_protagonist - t_road_user).abs() > self.config.conflict_window_s {
            self.record.trace.record_fmt(
                now,
                "edge",
                "no_conflict",
                format_args!("tA={t_protagonist:.2}s tB={t_road_user:.2}s"),
            );
            return;
        }
        self.record.denm_sent = true;
        self.record.trace.record_fmt(
            now,
            "edge",
            "conflict",
            format_args!("tA={t_protagonist:.2}s tB={t_road_user:.2}s -> DENM"),
        );
        // The edge node's assessment, then the trigger POST.
        let assess = self.chain.timing.normal(0.003, 0.001).max(0.0005);
        let decided_at = now + SimDuration::from_secs_f64(assess);
        self.chain.post_trigger(decided_at, queue);
    }
}

impl EventHandler for IntersectionScenario {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        if self.done {
            return;
        }
        match event {
            Event::ControlTick => self.on_control_tick(now, queue),
            Event::CameraFrame => self.on_camera_frame(now, queue),
            Event::DetectionOutput {
                estimated_distance_m,
            } => self.on_detection_output(now, estimated_distance_m, queue),
            Event::RsuCamRx { frame } => self.on_rsu_cam_rx(now, frame),
            Event::CpmRx { bytes } => self.on_cpm_rx(now, &bytes),
            Event::Chain(event) => self.chain.handle(
                now,
                event,
                queue,
                &mut self.record.trace,
                &mut self.planner,
                None,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infrastructure_prevents_the_collision() {
        // Both vehicles timed to meet at the crossing.
        let with = IntersectionScenario::new(IntersectionConfig {
            seed: 1,
            ..IntersectionConfig::default()
        })
        .run();
        assert!(with.denm_sent, "conflict predicted");
        assert!(with.denm_delivered);
        assert!(with.protagonist_stopped, "{with:?}");
        assert!(!with.collision, "min separation {}", with.min_separation_m);
        assert!(with.halt_margin_m.unwrap() > 0.0, "stopped before the box");
    }

    #[test]
    fn without_infrastructure_the_vehicles_collide() {
        let without = IntersectionScenario::new(IntersectionConfig {
            seed: 1,
            with_infrastructure: false,
            ..IntersectionConfig::default()
        })
        .run();
        assert!(!without.denm_sent);
        assert!(!without.protagonist_stopped);
        assert!(
            without.collision,
            "min separation {}",
            without.min_separation_m
        );
    }

    #[test]
    fn no_denm_when_timings_do_not_conflict() {
        // The road user crosses long before the protagonist arrives.
        let record = IntersectionScenario::new(IntersectionConfig {
            seed: 2,
            protagonist_start_m: 12.0,
            road_user_start_m: 5.0,
            conflict_window_s: 0.8,
            ..IntersectionConfig::default()
        })
        .run();
        assert!(!record.denm_sent, "{record:?}");
        assert!(!record.collision, "they genuinely miss each other");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = IntersectionConfig {
            seed: 5,
            ..IntersectionConfig::default()
        };
        let a = IntersectionScenario::new(cfg.clone()).run();
        let b = IntersectionScenario::new(cfg).run();
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_eq!(a.min_separation_m, b.min_separation_m);
    }

    #[test]
    fn trace_records_conflict_reasoning() {
        let record = IntersectionScenario::new(IntersectionConfig::default()).run();
        assert!(record.trace.first_of_kind("conflict").is_some());
        assert!(record.trace.first_of_kind("denm_tx").is_some());
        assert!(record.trace.first_of_kind("power_cut").is_some());
    }

    #[test]
    fn empty_fault_plan_is_a_strict_noop() {
        // The injector hooks and the CPM/second-hazard plumbing must
        // leave a default-config run byte-identical: same trace digest,
        // same outcome, zero fault activity.
        let cfg = IntersectionConfig {
            seed: 1,
            ..IntersectionConfig::default()
        };
        let record = IntersectionScenario::new(cfg).run();
        assert_eq!(record.fault, FaultStats::default());
        assert_eq!(record.cpm_sent, 0);
        assert_eq!(record.cpm_delivered, 0);
        assert!(!record.second_hazard_braked);
    }

    fn blind_corner_config(cpm_on: bool) -> IntersectionConfig {
        IntersectionConfig {
            seed: 1,
            // The road user crosses early so the classic conflict does
            // not fire; the second hazard is the only threat.
            protagonist_start_m: 12.0,
            road_user_start_m: 5.0,
            conflict_window_s: 0.8,
            second_hazard: Some(SecondHazard::default()),
            cpm: cpm_on.then(CpServiceConfig::default),
            ..IntersectionConfig::default()
        }
    }

    #[test]
    fn cpm_sees_the_second_hazard_the_own_sensor_misses() {
        let on = IntersectionScenario::new(blind_corner_config(true)).run();
        assert!(on.cpm_sent > 0, "{on:?}");
        assert!(on.cpm_delivered > 0, "{on:?}");
        assert!(on.cpm_extended_detections > 0, "{on:?}");
        assert!(on.second_hazard_braked, "{on:?}");
        assert!(on.second_hazard_via_cpm, "cpm warned before the corner");
        assert!(!on.collision, "{on:?}");

        let off = IntersectionScenario::new(blind_corner_config(false)).run();
        assert_eq!(off.cpm_sent, 0);
        assert_eq!(off.cpm_extended_detections, 0);
        assert!(!off.second_hazard_via_cpm, "no CPM, no cooperative warning");
        assert!(
            off.collision,
            "own sensing alone is too late past the blind corner: {off:?}"
        );
    }

    #[test]
    fn rsu_radio_silence_suppresses_the_denm() {
        use faults::{FaultKind, FaultSpec, FaultWindow};
        let record = IntersectionScenario::new(IntersectionConfig {
            seed: 1,
            fault_plan: FaultPlan::new(vec![FaultSpec {
                kind: FaultKind::StuckTransmitter {
                    node: FaultNode::Rsu,
                },
                window: FaultWindow::always(),
            }]),
            ..IntersectionConfig::default()
        })
        .run();
        assert!(record.denm_sent, "the edge still predicts the conflict");
        assert!(!record.denm_delivered, "but nothing leaves the RSU");
        assert!(record.collision, "{record:?}");
        assert!(record.fault.injected > 0);
    }

    #[test]
    fn obu_crash_ignores_a_delivered_cpm() {
        use faults::{FaultKind, FaultSpec, FaultWindow};
        let mut cfg = blind_corner_config(true);
        cfg.fault_plan = FaultPlan::new(vec![FaultSpec {
            kind: FaultKind::NodeCrash {
                node: FaultNode::Obu,
            },
            window: FaultWindow::always(),
        }]);
        let record = IntersectionScenario::new(cfg).run();
        assert_eq!(record.cpm_delivered, 0, "{record:?}");
        assert!(!record.second_hazard_via_cpm);
    }
}
