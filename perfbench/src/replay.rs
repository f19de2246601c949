//! Layer replay of one collision-avoidance run.
//!
//! `Scenario::run` calls its layers internally, out of the benchmark's
//! reach. The traced run therefore replays those calls through the same
//! public functions, on the same geometry and configuration, at the
//! run's own call counts: control ticks and camera frames from the
//! record's halt time, dispatched events and trace records from the
//! record's counters, and one DENM when the record says the RSU sent
//! one. Every call is timed into a [`Ledger`] span named after its
//! layer. The replay draws from its own RNG stream, so its CAM
//! deliveries may differ from the run's; its costs per call are what
//! the ledger reports.

use crate::ledger::{now_ns, Ledger};
use facilities::den::DenRequest;
use geonet::{GnFrame, GnPacket};
use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::{ReferencePosition, StationId};
use its_messages::denm::Denm;
use its_testbed::scenario::{RunRecord, ScenarioConfig};
use openc2x::node::{lab_to_geo, ItsStation, StationConfig};
use perception::detector::Detection;
use perception::{GroundTruthTarget, HazardAdvertisementService, HazardConfig, HazardDecision};
use phy80211p::channel::LinkCache;
use phy80211p::{airtime, Channel, Medium, Position2D};
use sim_core::{EventQueue, NodeClock, SimRng, SimTime, Trace};
use vehicle::dynamics::{BicycleState, LongitudinalModel};
use vehicle::linefollow::{LineFollower, Track};

/// The scenario's geographic anchor for the laboratory origin.
const GEO_ORIGIN: (f64, f64) = (41.178, -8.608);

/// Span names the replay records; the per-layer reduction reads them.
pub mod names {
    /// `LineFollower::steering`.
    pub const STEERING: &str = "vehicle.steering";
    /// `RoadSideCamera::sees` + `YoloModel::process_frame_into` +
    /// `HazardAdvertisementService::assess`.
    pub const FRAME: &str = "perception.frame";
    /// `ItsStation::poll_cam_frame`.
    pub const CAM_TX: &str = "facilities.poll_cam_frame";
    /// `GnFrame::parse` + `ItsStation::on_frame`.
    pub const CAM_RX: &str = "geonet.cam_rx";
    /// `ItsStation::trigger_denm` + `poll_denm_into`.
    pub const DENM_TX: &str = "facilities.denm_tx";
    /// `Denm::from_bytes`.
    pub const DENM_DECODE: &str = "its-messages.denm_decode";
    /// `GnFrame::parse` + `ItsStation::channel_access_frame`.
    pub const ACCESS: &str = "openc2x.channel_access";
    /// `Channel::transmit_cached`.
    pub const CHANNEL: &str = "phy80211p.transmit_cached";
    /// `EventQueue::schedule_at` + `pop_batch`.
    pub const QUEUE: &str = "sim-core.queue";
    /// `Trace::record_fmt`.
    pub const TRACE: &str = "sim-core.record_fmt";
    /// Every name above, for summing the replay's layer time.
    pub const ALL: [&str; 10] = [
        STEERING,
        FRAME,
        CAM_TX,
        CAM_RX,
        DENM_TX,
        DENM_DECODE,
        ACCESS,
        CHANNEL,
        QUEUE,
        TRACE,
    ];
}

/// Call counts a record implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Control ticks (one `LineFollower::steering` and one CAM poll each).
    pub ticks: u64,
    /// Road-side camera frames completed.
    pub frames: u64,
    /// Events the run dispatched.
    pub events: u64,
    /// Records in the run's trace.
    pub trace_records: u64,
    /// Whether the RSU sent the DENM.
    pub denm: bool,
}

impl Counts {
    /// Derives the counts from `record`: the run ends at the halt (or
    /// the timeout), control ticks fall on multiples of the control
    /// period from t = 0, camera frames complete on multiples of the
    /// frame period.
    pub fn of(config: &ScenarioConfig, record: &RunRecord) -> Self {
        let end = record
            .step6_halt
            .map_or(config.timeout.as_nanos(), |t| t.as_nanos());
        let period = config.control_period.as_nanos().max(1);
        let frame = config.camera.frame_period().as_nanos().max(1);
        Self {
            ticks: end / period + 1,
            frames: end / frame,
            events: record.events_dispatched,
            trace_records: record.trace.len() as u64,
            denm: record.step3_rsu_send.is_some(),
        }
    }
}

/// What one replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Control ticks replayed.
    pub ticks: u64,
    /// Camera frames replayed.
    pub frames: u64,
    /// DENMs sent.
    pub denms: u64,
    /// `Channel::transmit_cached` calls.
    pub evals: u64,
    /// FER lookups that found their entry already cached.
    pub cache_hits: u64,
}

/// Replays `record`'s layer calls into `ledger` under span `parent`.
pub fn replay_run(
    config: &ScenarioConfig,
    record: &RunRecord,
    id: u64,
    ledger: &mut Ledger,
    parent: u32,
) -> Replayed {
    let counts = Counts::of(config, record);
    let mut rng = SimRng::seed_from(config.seed).fork("perfbench/replay");
    let mut clocks = rng.fork("clocks");
    let mut rsu = ItsStation::new(
        StationConfig::rsu(StationId::new(15).expect("15 is a valid station id")),
        NodeClock::sample(&config.ntp, &mut clocks, 0),
    );
    rsu.set_position(config.rsu_position);
    let mut obu = ItsStation::new(
        StationConfig::obu(StationId::new(7).expect("7 is a valid station id")),
        NodeClock::sample(&config.ntp, &mut clocks, 0),
    );
    obu.set_position(Position2D::new(config.start_distance_m, 0.0));
    let (lat, lon) = lab_to_geo(GEO_ORIGIN, Position2D::new(0.0, 0.0));
    let event_position = ReferencePosition::from_degrees(lat, lon);
    let mut hazard = HazardAdvertisementService::new(HazardConfig {
        action_point_m: config.action_point_m,
        ..HazardConfig::paper_setup(event_position)
    });
    let mut follower = LineFollower::new();
    let track = Track::straight(config.start_distance_m + 2.0);
    let mut pose = BicycleState {
        x: config.start_distance_m,
        y: 0.0,
        theta: std::f64::consts::PI,
    };
    let mut car = LongitudinalModel::new(config.vehicle);
    car.set_speed(config.cruise_speed_mps);
    let channel = Channel::new(config.channel.clone());
    let mut cache = LinkCache::new();
    let mut medium = Medium::new();
    let dt = config.control_period.as_secs_f64();
    let period = config.control_period.as_nanos();
    let frame_period = config.camera.frame_period().as_nanos();

    let slot = |l: &mut Ledger, name| l.open(name, id, parent);
    let s_steer = slot(ledger, names::STEERING);
    let s_frame = slot(ledger, names::FRAME);
    let s_cam_tx = slot(ledger, names::CAM_TX);
    let s_cam_rx = slot(ledger, names::CAM_RX);
    let s_access = slot(ledger, names::ACCESS);
    let s_channel = slot(ledger, names::CHANNEL);

    let mut out = Replayed::default();
    let mut frame = Vec::new();
    let mut detections: Vec<Detection> = Vec::new();
    let mut packets: Vec<GnPacket> = Vec::new();
    let mut trigger = false;
    let mut braking = false;
    let mut transmit = |start: SimTime,
                        from: Position2D,
                        to: Position2D,
                        len: usize,
                        rate,
                        rng: &mut SimRng,
                        ledger: &mut Ledger,
                        out: &mut Replayed| {
        let before = cache.fer_entries();
        let t0 = now_ns();
        let outcome = channel.transmit_cached(start, from, to, len, rate, rng, &mut cache);
        ledger.add(s_channel, t0, now_ns());
        out.evals += 1;
        // A miss inserts one FER entry (or clears a full map); a hit
        // leaves the count unchanged.
        if cache.fer_entries() == before && before > 0 {
            out.cache_hits += 1;
        }
        outcome
    };

    for k in 0..counts.ticks {
        let now = SimTime::from_nanos(k * period);
        let t0 = now_ns();
        let steer = follower.steering(&pose, &track, dt, &mut rng);
        ledger.add(s_steer, t0, now_ns());
        out.ticks += 1;
        let throttle = if braking { 0.0 } else { config.cruise_throttle };
        let ds = car.step(dt, throttle);
        pose.advance(ds, steer.unwrap_or(0.0), config.vehicle.wheelbase_m);
        obu.set_position(Position2D::new(pose.x, pose.y));
        obu.set_motion(car.speed_mps(), 270.0);

        let t0 = now_ns();
        let cam_due = obu.poll_cam_frame(now, &mut frame).unwrap_or(false);
        ledger.add(s_cam_tx, t0, now_ns());
        if cam_due {
            let t0 = now_ns();
            let start = GnFrame::parse(&frame).map_or(now, |f| {
                obu.channel_access_frame(now, &f, &medium, &mut rng)
            });
            ledger.add(s_access, t0, now_ns());
            medium.occupy(start + airtime(frame.len(), obu.config().data_rate));
            let outcome = transmit(
                start,
                obu.position(),
                rsu.position(),
                frame.len(),
                obu.config().data_rate,
                &mut rng,
                ledger,
                &mut out,
            );
            if outcome.delivered {
                let t0 = now_ns();
                if let Ok(f) = GnFrame::parse(&frame) {
                    std::hint::black_box(rsu.on_frame(outcome.arrival, &f));
                }
                ledger.add(s_cam_rx, t0, now_ns());
            }
        }

        // Camera frames completing up to this tick.
        while out.frames < counts.frames && (out.frames + 1) * frame_period <= k * period {
            out.frames += 1;
            let at = SimTime::from_nanos(out.frames * frame_period);
            let target = GroundTruthTarget {
                id: 1,
                distance_m: pose.x.max(0.0),
                bearing_deg: (pose.y / pose.x.max(0.1)).atan().to_degrees(),
                appearance: config.appearance,
            };
            let t0 = now_ns();
            if config.camera.sees(&target) {
                detections.clear();
                config
                    .yolo
                    .process_frame_into(at, &[target], &mut rng, &mut detections);
                for d in &detections {
                    let wall = rsu.wall(at);
                    if let HazardDecision::TriggerDenm { .. } =
                        hazard.assess(d, rsu.ldm(), wall, &mut rng)
                    {
                        trigger = true;
                    }
                }
            }
            ledger.add(s_frame, t0, now_ns());
        }

        // The run's one DENM: when the replay's own detection fires, or
        // at the last tick if it never did.
        let last = k + 1 == counts.ticks;
        if counts.denm && out.denms == 0 && (trigger || last) {
            let t0 = now_ns();
            let request = DenRequest::one_shot(
                rsu.wall(now),
                event_position,
                CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
            );
            rsu.trigger_denm(now, request);
            packets.clear();
            let polled = rsu.poll_denm_into(now, &mut packets);
            ledger.record(names::DENM_TX, id, parent, t0, now_ns());
            if polled.is_ok() {
                for packet in &packets {
                    frame.clear();
                    packet.as_frame().write_to(&mut frame);
                    let t0 = now_ns();
                    let start = rsu.channel_access(now, packet, &medium, &mut rng);
                    ledger.add(s_access, t0, now_ns());
                    medium.occupy(start + airtime(frame.len(), rsu.config().data_rate));
                    transmit(
                        start,
                        rsu.position(),
                        obu.position(),
                        frame.len(),
                        rsu.config().data_rate,
                        &mut rng,
                        ledger,
                        &mut out,
                    );
                    let t0 = now_ns();
                    let decoded = Denm::from_bytes(&packet.payload);
                    ledger.record(names::DENM_DECODE, id, parent, t0, now_ns());
                    std::hint::black_box(decoded.is_ok());
                    out.denms += 1;
                }
            }
            braking = true;
        }
    }

    // The event engine, at the run's dispatched-event count.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut batch = Vec::with_capacity(8);
    let s_queue = slot(ledger, names::QUEUE);
    let t0 = now_ns();
    for i in 0..counts.events {
        let at = SimTime::from_nanos(i * 1_000_000);
        queue.schedule_at(at, i);
        std::hint::black_box(queue.pop_batch(at, &mut batch));
        batch.clear();
    }
    ledger.add_n(s_queue, t0, now_ns(), counts.events);

    // The trace, at the run's record count.
    let mut trace = Trace::new();
    let s_trace = slot(ledger, names::TRACE);
    let t0 = now_ns();
    for i in 0..counts.trace_records {
        trace.record_fmt(
            SimTime::from_nanos(i),
            "edge",
            "detect",
            format_args!("d={:.2} label={}", pose.x, "stop_sign"),
        );
    }
    ledger.add_n(s_trace, t0, now_ns(), counts.trace_records);
    std::hint::black_box(trace.digest());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_testbed::scenario::Scenario;

    #[test]
    fn replay_matches_the_record_counts() {
        let config = ScenarioConfig {
            seed: 20_230_627,
            ..ScenarioConfig::default()
        };
        let record = Scenario::new(config.clone()).run();
        let counts = Counts::of(&config, &record);
        let mut ledger = Ledger::new();
        let r = replay_run(&config, &record, 0, &mut ledger, crate::ledger::ROOT);
        assert_eq!(r.ticks, counts.ticks);
        assert_eq!(r.frames, counts.frames);
        assert_eq!(r.denms, 1);
        assert!(counts.ticks + counts.frames <= counts.events);
        assert_eq!(ledger.total(names::STEERING).0, counts.ticks);
        assert_eq!(ledger.total(names::QUEUE).0, counts.events);
        assert_eq!(ledger.total(names::TRACE).0, counts.trace_records);
        assert!(r.evals >= 2, "at least one CAM and the DENM go on the air");
    }
}
