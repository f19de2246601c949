//! The detection-to-action chain every scenario shares: the DENM leg
//! from the edge node's `trigger_denm` POST to the physical power cut
//! (paper Figures 3 and 4).
//!
//! | stage | Table II interval |
//! |---|---|
//! | edge → RSU POST, DENM build | #2 → #3 (after the edge's own assessment) |
//! | EDCA access, airtime, channel, OBU RX chain | #3 → #4 |
//! | poll wait, HTTP retry/backoff and RTT, ECU decode and issue | #4 → #5 |
//! | Jetson → Teensy → ESC | after #5, before the physical cut |
//!
//! The collision and the intersection scenarios drive it event by event
//! through [`Chain::handle`]. The platoon works its GeoBroadcast/relay
//! propagation out in closed form and then calls the OBU → actuator
//! stage directly ([`ChainParams::obu_to_actuator`]). Steps 3–5 are
//! stamped here and nowhere else, and every draw keeps the collision
//! scenario's historical order on its `timing` and `channel` streams.

use crate::scenario::{DenmLink, ScenarioConfig};
use facilities::den::DenRequest;
use faults::{FaultInjector, FaultNode, FaultPlan};
use geonet::{GnFrame, GnPacket};
use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::ReferencePosition;
use its_messages::denm::Denm;
use openc2x::http::{poll_with_retry, RetryPolicy};
use openc2x::node::{lab_to_geo, ItsStation, PollingModel, GEO_ORIGIN, HTTP_BASE};
use phy80211p::cellular::CellularLink;
use phy80211p::channel::Channel;
use phy80211p::edca::Medium;
use phy80211p::ofdm::airtime;
use phy80211p::Position2D;
use sim_core::{EventQueue, NodeClock, SimDuration, SimRng, SimTime, Trace};
use std::sync::Arc;
use vehicle::actuators::TeensyLink;
use vehicle::planner::MotionPlanner;
use vehicle::watchdog::V2xWatchdog;

/// Fixed part of the edge → RSU `trigger_denm` POST latency.
const TRIGGER_HTTP_BASE: SimDuration = SimDuration::from_millis(12);
/// Mean of the exponential jitter on that POST.
const TRIGGER_HTTP_JITTER_MEAN: SimDuration = SimDuration::from_millis(9);
/// Mean DENM build/encode time at the RSU, s.
const DENM_BUILD_MEAN_S: f64 = 0.002;

/// The chain's parameters: the collision scenario's, from its
/// configuration. The other scenarios take those of the default
/// configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainParams {
    /// DENM repetition `(interval, duration)`; `None` sends one shot.
    pub(crate) denm_repetition: Option<(SimDuration, SimDuration)>,
    pub(crate) denm_link: DenmLink,
    pub(crate) polling: PollingModel,
}

impl From<&ScenarioConfig> for ChainParams {
    fn from(config: &ScenarioConfig) -> Self {
        Self {
            denm_repetition: config.denm_repetition,
            denm_link: config.denm_link,
            polling: config.polling,
        }
    }
}

impl ChainParams {
    /// RX-chain processing (kernel + OpenC2X stack) between a frame's
    /// arrival and the OBU application's reception stamp.
    fn rx_delay(rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.normal(0.0012, 0.0004).max(0.0002))
    }

    /// One poll of the OBU's HTTP API with a DENM pending. The blocking
    /// GET runs the bounded retry/backoff schedule, each injected stall
    /// judged at the instant its attempt would start; then comes the
    /// localhost RTT with its tail truncated at 4× the base. `None` when
    /// the budget runs out: the give-up is counted and the DENM stays
    /// queued for the next poll period.
    fn poll_once(
        &self,
        now: SimTime,
        injector: &mut FaultInjector,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        match poll_with_retry(&RetryPolicy::default(), |_, offset| {
            injector.http_stall(now + offset)
        }) {
            Ok(outcome) => {
                let rtt = self.polling.sample_http_rtt(rng).min(HTTP_BASE * 4);
                Some(outcome.delay + rtt)
            }
            Err(_) => {
                injector.stats_mut().http_giveups += 1;
                None
            }
        }
    }

    /// The ECU's issue delay, then the Jetson → Teensy → ESC path:
    /// returns the command instant (step 5) and the instant the power
    /// cut takes effect.
    fn issue_and_cut(&self, now: SimTime, rng: &mut SimRng) -> (SimTime, SimTime) {
        let issue = SimDuration::from_secs_f64(rng.normal(0.0003, 0.0001).max(0.00005));
        let at = now + issue;
        (at, at + TeensyLink.sample_latency(rng))
    }

    /// The OBU → actuator stage in closed form for a DENM frame reaching
    /// the OBU at `arrival`: the RX chain, then the first poll of the
    /// loop started at `phase` that gets through (a give-up retries at
    /// the next period), then the ECU and the Teensy. Returns the command
    /// and physical-cut instants, or `None` when no poll gets through by
    /// `horizon`.
    pub(crate) fn obu_to_actuator(
        &self,
        arrival: SimTime,
        phase: SimDuration,
        horizon: SimTime,
        injector: &mut FaultInjector,
        rng: &mut SimRng,
    ) -> Option<(SimTime, SimTime)> {
        let mut poll = self.polling.next_poll(arrival + Self::rx_delay(rng), phase);
        while poll <= horizon {
            if let Some(delay) = self.poll_once(poll, injector, rng) {
                return Some(self.issue_and_cut(poll + delay, rng));
            }
            poll = self
                .polling
                .next_poll(poll + SimDuration::from_nanos(1), phase);
        }
        None
    }
}

/// Events of the chain. Each scenario wraps them in its own event type,
/// so they share one queue, and one `(time, seq)` order, with the rest
/// of the run.
#[derive(Debug, Clone)]
pub enum ChainEvent {
    /// The `trigger_denm` POST arrives at the RSU.
    TriggerArrives,
    /// The encoded DENM is handed to the RSU MAC.
    RsuMacHandoff,
    /// The DENM (802.11p frame or cellular message) reaches the OBU
    /// application.
    ObuRx {
        /// Shared bytes of the DENM payload (encoded once at the RSU;
        /// every hop and repetition clones the `Arc`, not the bytes).
        denm_bytes: Arc<[u8]>,
    },
    /// The vehicle's polling script fires.
    VehiclePoll,
    /// The poll response (carrying a DENM) reaches the control logic.
    PlannerNotified {
        /// Shared bytes of the DENM payload.
        denm_bytes: Arc<[u8]>,
    },
    /// The physical power cut takes effect at the ESC.
    PowerCutApplied,
}

/// The paper's steps 3–5 as the chain stamped them: the simulation
/// instant and the host's wall clock (ms).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Steps {
    /// Step 3: the RSU hands the first DENM copy to the MAC.
    pub(crate) rsu_send: Option<(SimTime, u64)>,
    /// Step 4: the OBU application registers the first DENM copy.
    pub(crate) obu_recv: Option<(SimTime, u64)>,
    /// Step 5: the ECU commands the power cut.
    pub(crate) actuation: Option<(SimTime, u64)>,
    /// The power cut has taken effect at the ESC.
    pub(crate) power_cut: bool,
}

/// Buffers the chain recycles; a campaign worker hands them from one
/// run to the next so the steady-state beacon and DENM paths allocate
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct ChainBuffers {
    /// Frame buffers, cleared and returned after each transmission.
    frames: Vec<Vec<u8>>,
    /// DENMs the OBU holds until the vehicle polls them.
    pending: Vec<Arc<[u8]>>,
    /// The due DENM packets of one MAC handoff.
    packets: Vec<GnPacket>,
}

/// The RSU, the OBU, the air between them, the fault hooks, and the
/// chain's per-run state. A scenario owns one and reaches the stations,
/// the streams and the injector through it.
pub(crate) struct Chain {
    pub(crate) rsu: ItsStation,
    pub(crate) obu: ItsStation,
    pub(crate) channel: Channel,
    medium: Medium,
    /// The `timing` stream: MAC backoff, DENM build, RX chain, RTT,
    /// ECU and Teensy, plus the caller's own latency draws.
    pub(crate) timing: SimRng,
    /// The `channel` stream: fading and frame loss.
    pub(crate) radio: SimRng,
    pub(crate) injector: FaultInjector,
    pub(crate) steps: Steps,
    pub(crate) buffers: ChainBuffers,
    params: ChainParams,
    ecu_clock: NodeClock,
    poll_phase: SimDuration,
}

impl Chain {
    /// Builds the chain of a run whose root stream is `root`: forks the
    /// `timing`, `channel` and `faults` streams (forking never draws
    /// from the parent) and draws the polling loop's phase.
    pub(crate) fn new(
        root: &SimRng,
        params: ChainParams,
        plan: FaultPlan,
        rsu: ItsStation,
        obu: ItsStation,
        ecu_clock: NodeClock,
        channel: Channel,
    ) -> Self {
        let mut timing = root.fork("timing");
        let poll_phase =
            SimDuration::from_secs_f64(timing.f64() * params.polling.period.as_secs_f64());
        Self {
            rsu,
            obu,
            channel,
            medium: Medium::new(),
            timing,
            radio: root.fork("channel"),
            injector: FaultInjector::new(plan, root.fork("faults")),
            steps: Steps::default(),
            buffers: ChainBuffers::default(),
            params,
            ecu_clock,
            poll_phase,
        }
    }

    /// Schedules the vehicle's first poll of the OBU.
    pub(crate) fn start<E: From<ChainEvent>>(&self, queue: &mut EventQueue<E>) {
        let first = self
            .params
            .polling
            .next_poll(SimTime::ZERO, self.poll_phase);
        queue.schedule_at(first, ChainEvent::VehiclePoll.into());
    }

    /// Empties the pending queue and hands the buffers back for the
    /// next run.
    pub(crate) fn take_buffers(&mut self) -> ChainBuffers {
        self.buffers.pending.clear();
        std::mem::take(&mut self.buffers)
    }

    /// A cleared frame buffer from the pool (or a fresh one).
    pub(crate) fn take_frame(&mut self) -> Vec<u8> {
        self.buffers.frames.pop().unwrap_or_default()
    }

    /// Returns a frame buffer to the pool for reuse.
    pub(crate) fn recycle_frame(&mut self, mut frame: Vec<u8>) {
        frame.clear();
        self.buffers.frames.push(frame);
    }

    /// The edge node POSTs `trigger_denm` at `decided_at`. The jitter
    /// tail is truncated at 3× its mean: on an otherwise idle LAN the TCP
    /// exchange has a bounded worst case (the paper's five runs show
    /// #2→#3 spanning only 21–34 ms).
    pub(crate) fn post_trigger<E: From<ChainEvent>>(
        &mut self,
        decided_at: SimTime,
        queue: &mut EventQueue<E>,
    ) {
        let jitter_mean = TRIGGER_HTTP_JITTER_MEAN.as_secs_f64().max(1e-9);
        let jitter = self.timing.exponential(jitter_mean).min(3.0 * jitter_mean);
        let http = TRIGGER_HTTP_BASE + SimDuration::from_secs_f64(jitter);
        queue.schedule_at(decided_at + http, ChainEvent::TriggerArrives.into());
    }

    /// Puts the GN frame `bytes` on the air from the RSU (`from_rsu`) or
    /// the OBU to the other station: EDCA access, airtime on the shared
    /// medium, both radios' DCC busy time, the channel, then bit
    /// corruption on the air. Returns the arrival instant of a delivered
    /// frame and, when corruption hit it, the damaged copy the receiver's
    /// decoder gets instead. A frame that does not parse stays off the air.
    pub(crate) fn on_air(
        &mut self,
        now: SimTime,
        from_rsu: bool,
        bytes: &[u8],
    ) -> Option<(SimTime, Option<Vec<u8>>)> {
        let frame = GnFrame::parse(bytes).ok()?;
        let (tx, rx) = if from_rsu {
            (&mut self.rsu, &mut self.obu)
        } else {
            (&mut self.obu, &mut self.rsu)
        };
        let rate = tx.config().data_rate;
        let start = tx.channel_access_frame(now, &frame, &self.medium, &mut self.timing);
        let at = airtime(bytes.len(), rate);
        self.medium.occupy(start + at);
        tx.observe_channel_busy(now, at);
        rx.observe_channel_busy(now, at);
        let (from, to) = (tx.position(), rx.position());
        let outcome = self
            .channel
            .transmit(start, from, to, bytes.len(), rate, &mut self.radio);
        if !outcome.delivered {
            return None;
        }
        Some((outcome.arrival, self.injector.corrupt_frame(now, bytes)))
    }

    /// [`on_air`](Self::on_air) for a pooled frame buffer: returns the
    /// arrival instant and the buffer the receiver decodes (the damaged
    /// copy when corruption hit it), or recycles the frame when nothing
    /// arrives.
    pub(crate) fn air_frame(
        &mut self,
        now: SimTime,
        from_rsu: bool,
        mut frame: Vec<u8>,
    ) -> Option<(SimTime, Vec<u8>)> {
        match self.on_air(now, from_rsu, &frame) {
            Some((arrival, corrupted)) => {
                if let Some(corrupted) = corrupted {
                    self.recycle_frame(std::mem::replace(&mut frame, corrupted));
                }
                Some((arrival, frame))
            }
            None => {
                self.recycle_frame(frame);
                None
            }
        }
    }

    /// Dispatches one chain event. The chain's records go to `trace`,
    /// `planner` decodes the warning at the ECU, and a `watchdog` (when
    /// the vehicle has one) takes every decodable DENM as a heartbeat.
    pub(crate) fn handle<E: From<ChainEvent>>(
        &mut self,
        now: SimTime,
        event: ChainEvent,
        queue: &mut EventQueue<E>,
        trace: &mut Trace,
        planner: &mut MotionPlanner,
        watchdog: Option<&mut V2xWatchdog>,
    ) {
        match event {
            ChainEvent::TriggerArrives => self.on_trigger_arrives(now, queue),
            ChainEvent::RsuMacHandoff => self.on_rsu_mac_handoff(now, queue, trace),
            ChainEvent::ObuRx { denm_bytes } => self.on_obu_rx(now, denm_bytes, trace, watchdog),
            ChainEvent::VehiclePoll => self.on_vehicle_poll(now, queue),
            ChainEvent::PlannerNotified { denm_bytes } => {
                self.on_planner_notified(now, &denm_bytes, queue, trace, planner)
            }
            ChainEvent::PowerCutApplied => {
                self.steps.power_cut = true;
                trace.record(now, "ecu", "power_cut", "ESC output disabled");
            }
        }
    }

    fn on_trigger_arrives<E: From<ChainEvent>>(&mut self, now: SimTime, queue: &mut EventQueue<E>) {
        // A crashed RSU never sees the POST; its volatile DEN state is
        // gone, so the trigger is simply lost.
        if self.injector.node_down(now, FaultNode::Rsu) {
            return;
        }
        // The RSU's DEN app builds and encodes the DENM.
        let mean = DENM_BUILD_MEAN_S;
        let build = SimDuration::from_secs_f64(self.timing.normal(mean, mean / 4.0).max(0.0002));
        let (lat, lon) = lab_to_geo(GEO_ORIGIN, Position2D::new(0.0, 0.0));
        let mut request = DenRequest::one_shot(
            self.rsu.wall(now),
            ReferencePosition::from_degrees(lat, lon),
            CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
        );
        if let Some((interval, duration)) = self.params.denm_repetition {
            request.repetition_interval = Some(interval);
            request.repetition_duration = Some(duration);
        }
        self.rsu.trigger_denm(now, request);
        queue.schedule_after(now, build, ChainEvent::RsuMacHandoff.into());
    }

    fn on_rsu_mac_handoff<E: From<ChainEvent>>(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<E>,
        trace: &mut Trace,
    ) {
        if self.injector.node_down(now, FaultNode::Rsu) {
            return;
        }
        let mut packets = std::mem::take(&mut self.buffers.packets);
        packets.clear();
        if self.rsu.poll_denm_into(now, &mut packets).is_err() {
            self.buffers.packets = packets;
            return;
        }
        for packet in &packets {
            // Step 3: the RSU registers the send time (first copy only —
            // repetitions do not rewrite the measurement).
            if self.steps.rsu_send.is_none() {
                let wall = self.rsu.wall(now).millis();
                self.steps.rsu_send = Some((now, wall));
            }
            trace.record_fmt(
                now,
                "rsu",
                "denm_tx",
                format_args!("{} bytes", packet.wire_size()),
            );
            // Radio faults sit between the MAC and the channel model: the
            // RSU believes it sent (step 3 stands) but nothing is ever on
            // the air.
            if self.injector.radio_drop(now, FaultNode::Rsu) {
                continue;
            }
            let received = match self.params.denm_link {
                DenmLink::Cellular(profile) => {
                    let outcome = CellularLink::new(profile).send(now, &mut self.timing);
                    outcome
                        .delivered
                        .then(|| (outcome.arrival, packet.payload.clone()))
                }
                DenmLink::Its80211p => self.denm_over_air(now, packet),
            };
            if let Some((at, denm_bytes)) = received {
                queue.schedule_at(at, ChainEvent::ObuRx { denm_bytes }.into());
            }
        }
        packets.clear();
        self.buffers.packets = packets;
        // Repetitions: poll again when the DEN service next has one due.
        if let Some(next) = self.rsu.next_denm_due() {
            queue.schedule_at(next.max(now), ChainEvent::RsuMacHandoff.into());
        }
    }

    /// The DENM's 802.11p hop: on the air, through the OBU's RX chain,
    /// and through the real GeoNetworking decoder when the frame was
    /// corrupted on the air (the facilities layer then re-judges whatever
    /// payload survives). Returns when and what the OBU application
    /// receives.
    fn denm_over_air(&mut self, now: SimTime, packet: &GnPacket) -> Option<(SimTime, Arc<[u8]>)> {
        let mut bytes = self.take_frame();
        packet.as_frame().write_to(&mut bytes);
        let delivered = self.on_air(now, true, &bytes);
        self.recycle_frame(bytes);
        let (arrival, corrupted) = delivered?;
        let at = arrival + ChainParams::rx_delay(&mut self.timing);
        match corrupted.map(|c| GnPacket::from_bytes(&c)) {
            None => Some((at, packet.payload.clone())),
            Some(Ok(p)) => Some((at, p.payload)),
            Some(Err(_)) => {
                self.injector.note_rejected();
                None
            }
        }
    }

    fn on_obu_rx(
        &mut self,
        now: SimTime,
        denm_bytes: Arc<[u8]>,
        trace: &mut Trace,
        watchdog: Option<&mut V2xWatchdog>,
    ) {
        if self.injector.node_down(now, FaultNode::Obu) {
            return;
        }
        // With the fault plane active the OBU's facilities layer
        // re-validates the payload (corruption may have survived the GN
        // header): a mangled DENM is rejected before the application
        // ever sees it, and a decodable one doubles as a watchdog
        // heartbeat. Skipped entirely on the baseline path.
        if !self.injector.is_noop() || watchdog.is_some() {
            if Denm::from_bytes(&denm_bytes).is_err() {
                self.injector.note_rejected();
                return;
            }
            if let Some(wd) = watchdog {
                wd.heartbeat(now);
            }
        }
        // Step 4: the OBU registers DENM reception (first copy only).
        if self.steps.obu_recv.is_none() {
            let wall = self.obu.wall(now).millis();
            self.steps.obu_recv = Some((now, wall));
            trace.record_fmt(
                now,
                "obu",
                "denm_rx",
                format_args!("{} bytes", denm_bytes.len()),
            );
        }
        self.buffers.pending.push(denm_bytes);
    }

    fn on_vehicle_poll<E: From<ChainEvent>>(&mut self, now: SimTime, queue: &mut EventQueue<E>) {
        // A crashed ECU skips this poll period but keeps the schedule:
        // the polling script restarts with the node and resumes below.
        let ecu_down = self.injector.node_down(now, FaultNode::Ecu);
        if !ecu_down && !self.buffers.pending.is_empty() {
            if let Some(delay) = self
                .params
                .poll_once(now, &mut self.injector, &mut self.timing)
            {
                let denm_bytes = self.buffers.pending.remove(0);
                queue.schedule_after(
                    now,
                    delay,
                    ChainEvent::PlannerNotified { denm_bytes }.into(),
                );
            }
        }
        if self.steps.actuation.is_none() {
            let next = self
                .params
                .polling
                .next_poll(now + SimDuration::from_nanos(1), self.poll_phase);
            queue.schedule_at(next, ChainEvent::VehiclePoll.into());
        }
    }

    fn on_planner_notified<E: From<ChainEvent>>(
        &mut self,
        now: SimTime,
        denm_bytes: &[u8],
        queue: &mut EventQueue<E>,
        trace: &mut Trace,
        planner: &mut MotionPlanner,
    ) {
        if self.injector.node_down(now, FaultNode::Ecu) {
            return;
        }
        let Ok(denm) = Denm::from_bytes(denm_bytes) else {
            self.injector.note_rejected();
            return;
        };
        if planner.on_denm(&denm) && self.steps.actuation.is_none() {
            // Step 5: the ECU registers the command to the actuators; the
            // physical cut lands after the Teensy/ESC path.
            let (at, cut) = self.params.issue_and_cut(now, &mut self.timing);
            let wall = self.ecu_clock.wall_millis(at);
            self.steps.actuation = Some((at, wall));
            trace.record(at, "ecu", "cut_cmd", "power cut commanded");
            queue.schedule_at(cut, ChainEvent::PowerCutApplied.into());
        }
    }
}
