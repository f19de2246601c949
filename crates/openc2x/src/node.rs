//! Full per-station stack assembly: facilities + GeoNetworking + MAC
//! parameters, plus the vehicle-side HTTP polling model.
//!
//! An [`ItsStation`] is the software content of one OpenC2X box (OBU or
//! RSU): its CA and DEN services, its LDM, its GeoNetworking source
//! address, its DCC gatekeeper and its EDCA channel access. Stations are
//! passive — the discrete-event scenario drives them (`poll_*`,
//! `on_frame`) and carries the produced GeoNetworking frames over the
//! [`phy80211p`] channel.

use facilities::ca::{CaService, StationState};
use facilities::den::{DenRequest, DenService};
use facilities::ldm::Ldm;
use geonet::btp::BtpPort;
use geonet::headers::{ExtendedHeader, TrafficClass};
use geonet::loctable::LocationTable;
use geonet::{GeoArea, GnAddress, GnFrame, GnPacket, LongPositionVector};
use its_messages::cam::Cam;
use its_messages::common::{ActionId, StationId, StationType, TimestampIts};
use its_messages::denm::Denm;
use phy80211p::dcc::DccGatekeeper;
use phy80211p::edca::{AccessCategory, EdcaParams};
use phy80211p::ofdm::DataRate;
use phy80211p::Position2D;
use sim_core::{NodeClock, SimDuration, SimRng, SimTime};

/// Whether a station is vehicle-mounted or road-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StationRole {
    /// On-Board Unit on the protagonist vehicle.
    Obu,
    /// Road-Side Unit of the infrastructure.
    Rsu,
}

impl StationRole {
    /// The CDD station type corresponding to the role.
    pub fn station_type(&self) -> StationType {
        match self {
            StationRole::Obu => StationType::PassengerCar,
            StationRole::Rsu => StationType::RoadSideUnit,
        }
    }
}

/// Static configuration of a station.
#[derive(Debug, Clone)]
pub struct StationConfig {
    /// Station identifier.
    pub station_id: StationId,
    /// OBU or RSU.
    pub role: StationRole,
    /// Data rate used for transmissions.
    pub data_rate: DataRate,
}

/// Geographic anchor of the laboratory origin (lab metres are offsets
/// from here), where the hazard sits.
pub const GEO_ORIGIN: (f64, f64) = (41.178, -8.608);

/// Relevance-area radius for outgoing DENMs, metres.
const DENM_AREA_RADIUS_M: f64 = 100.0;

impl StationConfig {
    /// Defaults for an OBU.
    pub fn obu(station_id: StationId) -> Self {
        Self {
            station_id,
            role: StationRole::Obu,
            data_rate: DataRate::Mbps6,
        }
    }

    /// Defaults for an RSU.
    pub fn rsu(station_id: StationId) -> Self {
        Self {
            role: StationRole::Rsu,
            ..Self::obu(station_id)
        }
    }
}

/// Metres per degree of latitude (used for the lab → geo mapping).
const M_PER_DEG_LAT: f64 = 111_194.9;

/// Converts a lab-frame position (metres) to degrees around the origin.
pub fn lab_to_geo(origin: (f64, f64), pos: Position2D) -> (f64, f64) {
    let lat = origin.0 + pos.y / M_PER_DEG_LAT;
    let lon = origin.1 + pos.x / (M_PER_DEG_LAT * origin.0.to_radians().cos());
    (lat, lon)
}

/// One assembled ITS station.
///
/// # Example
///
/// ```
/// use openc2x::node::{ItsStation, StationConfig};
/// use its_messages::common::StationId;
/// use phy80211p::Position2D;
/// use sim_core::{NodeClock, SimTime};
///
/// let mut obu = ItsStation::new(
///     StationConfig::obu(StationId::new(7).unwrap()),
///     NodeClock::perfect(0),
/// );
/// obu.set_position(Position2D::new(1.0, 0.0));
/// assert_eq!(obu.wall(SimTime::from_millis(5)).millis(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ItsStation {
    config: StationConfig,
    clock: NodeClock,
    ca: CaService,
    den: DenService,
    ldm: Ldm,
    loc_table: LocationTable,
    dcc: DccGatekeeper,
    position: Position2D,
    speed_mps: f64,
    heading_deg: f64,
    gbc_sequence: u16,
    /// CAMs/DENMs transmitted (for diagnostics).
    tx_count: u64,
    rx_count: u64,
    /// Reusable UPER encode buffer for the frame-based TX path.
    cam_scratch: Vec<u8>,
}

/// Outcome of processing one received frame ([`ItsStation::on_frame`]).
///
/// A stored CAM is reported without a copy: callers that only count
/// beacons (the common case) stay allocation-free, and the CAM itself is
/// in the LDM.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameOutcome {
    /// Filtered out: not addressed to us, our own echo, a GBC
    /// duplicate, or an undecodable payload.
    Ignored,
    /// A CAM was stored into the LDM.
    CamStored,
    /// A new (non-duplicate) DENM is delivered to the application.
    DenmDelivered(Box<Denm>),
}

impl ItsStation {
    /// Assembles a station from its configuration and wall clock.
    pub fn new(config: StationConfig, clock: NodeClock) -> Self {
        let ca = CaService::new(config.station_id, config.role.station_type());
        let den = DenService::new(config.station_id, config.role.station_type());
        Self {
            config,
            clock,
            ca,
            den,
            ldm: Ldm::new(),
            loc_table: LocationTable::new(),
            dcc: DccGatekeeper::new(),
            position: Position2D::default(),
            speed_mps: 0.0,
            heading_deg: 0.0,
            gbc_sequence: 0,
            tx_count: 0,
            rx_count: 0,
            cam_scratch: Vec::new(),
        }
    }

    /// The station's configuration.
    pub fn config(&self) -> &StationConfig {
        &self.config
    }

    /// The LDM (application view).
    pub fn ldm(&self) -> &Ldm {
        &self.ldm
    }

    /// The GeoNetworking location table (neighbour view).
    #[cfg(test)]
    pub fn location_table(&self) -> &LocationTable {
        &self.loc_table
    }

    /// Current lab-frame position.
    pub fn position(&self) -> Position2D {
        self.position
    }

    /// Updates the station's kinematic state.
    pub fn set_position(&mut self, position: Position2D) {
        self.position = position;
    }

    /// Updates speed and heading (OBUs only, but harmless on RSUs).
    pub fn set_motion(&mut self, speed_mps: f64, heading_deg: f64) {
        self.speed_mps = speed_mps;
        self.heading_deg = heading_deg;
    }

    /// This station's wall-clock reading (NTP-synced, ms granularity).
    pub fn wall(&self, now: SimTime) -> TimestampIts {
        TimestampIts::new(self.clock.wall_millis(now) & ((1 << 42) - 1))
            .expect("wall clock within TimestampIts range")
    }

    /// Frames transmitted so far.
    #[cfg(test)]
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// Frames received so far.
    #[cfg(test)]
    pub fn rx_count(&self) -> u64 {
        self.rx_count
    }

    /// Geographic position (degrees) of the station.
    pub fn geo_position(&self) -> (f64, f64) {
        lab_to_geo(GEO_ORIGIN, self.position)
    }

    fn position_vector(&self, now: SimTime) -> LongPositionVector {
        let (lat, lon) = self.geo_position();
        LongPositionVector::new(
            GnAddress::new(u64::from(self.config.station_id.value())),
            self.wall(now).millis(),
            lat,
            lon,
            self.speed_mps,
            self.heading_deg,
        )
    }

    /// Station state fed to the CA service.
    fn station_state(&self) -> StationState {
        let (lat, lon) = self.geo_position();
        StationState {
            position: its_messages::common::ReferencePosition::from_degrees(lat, lon),
            heading_deg: self.heading_deg,
            speed_mps: self.speed_mps,
        }
    }

    /// The DCC gatekeeper (for congestion feedback from the channel).
    pub fn dcc(&self) -> &DccGatekeeper {
        &self.dcc
    }

    /// Feeds a busy-channel observation (any frame heard on the medium)
    /// into the DCC probe and advances its state machine.
    pub fn observe_channel_busy(&mut self, now: SimTime, airtime: SimDuration) {
        self.dcc.observe_busy(now, airtime);
        self.dcc.update_state(now);
    }

    /// Polls the CA service and, if a CAM is due, writes its SHB frame
    /// into `frame` (cleared first); returns whether a CAM went out.
    /// Encoding reuses an internal scratch buffer, so the steady-state
    /// beacon loop allocates nothing.
    ///
    /// A due CAM is dropped (not queued) when the DCC gatekeeper is
    /// closed for its access category — the OpenC2X gatekeeper's
    /// behaviour for stale beacons. DENMs ride AC_VO and are exempt.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if the CAM violates a constraint
    /// (cannot happen for states produced by `set_motion`).
    pub fn poll_cam_frame(&mut self, now: SimTime, frame: &mut Vec<u8>) -> uper::Result<bool> {
        frame.clear();
        let Some(cam) = self.cam_due(now) else {
            return Ok(false);
        };
        self.write_cam_frame(now, &cam, frame).map(|()| true)
    }

    /// Encodes `cam` through the scratch buffer and appends its SHB
    /// frame to `frame`; on an encoding error `frame` is left untouched.
    fn write_cam_frame(
        &mut self,
        now: SimTime,
        cam: &Cam,
        frame: &mut Vec<u8>,
    ) -> uper::Result<()> {
        let mut payload = std::mem::take(&mut self.cam_scratch);
        if payload.capacity() == 0 {
            // One up-front reservation instead of doubling through the
            // first CAM encode; LF-container CAMs fit comfortably.
            payload.reserve(192);
        }
        let encoded = uper::encode_into(cam, &mut payload);
        if encoded.is_ok() {
            GnFrame::single_hop(
                self.position_vector(now),
                TrafficClass::dp2(),
                BtpPort::CAM,
                &payload,
            )
            .write_to(frame);
        }
        self.cam_scratch = payload;
        encoded
    }

    /// CA-service poll plus the DCC gate: the CAM to transmit now, if
    /// one is due and congestion control lets it through.
    fn cam_due(&mut self, now: SimTime) -> Option<Cam> {
        let state = self.station_state();
        let cam = self.ca.poll(now, &state)?;
        if !self.dcc.gate(now, AccessCategory::Video) {
            return None; // throttled by congestion control
        }
        self.tx_count += 1;
        self.dcc.on_transmitted(now);
        Some(cam)
    }

    /// Generates one CAM *now*, bypassing both the EN 302 637-2 trigger
    /// rules and the DCC gate, and writes its SHB frame into `frame`
    /// (cleared first).
    ///
    /// This is the liveness-beacon path: a stationary RSU would
    /// otherwise only beacon at `T_GenCamMax` (1 s), far too slow for a
    /// vehicle-side heartbeat watchdog with sub-second deadlines. The
    /// scenario drives this at the watchdog's heartbeat period when one
    /// is configured; it is never called on the baseline path.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if the CAM violates a constraint
    /// (cannot happen for states produced by `set_motion`).
    pub fn heartbeat_cam(&mut self, now: SimTime, frame: &mut Vec<u8>) -> uper::Result<()> {
        frame.clear();
        let state = self.station_state();
        let cam = self.ca.generate(now, &state);
        self.write_cam_frame(now, &cam, frame)?;
        self.tx_count += 1;
        self.dcc.on_transmitted(now);
        Ok(())
    }

    /// Application trigger: registers a DENM request with the DEN
    /// service. Returns the allocated action id.
    pub fn trigger_denm(&mut self, now: SimTime, request: DenRequest) -> ActionId {
        let wall = self.wall(now);
        self.den.trigger(now, wall, request)
    }

    /// The next instant the DEN service has a (re)transmission due, for
    /// scheduling repetition polls.
    pub fn next_denm_due(&self) -> Option<SimTime> {
        self.den.next_due()
    }

    /// Polls the DEN service and appends a GBC packet for every DENM due
    /// to `out`.
    ///
    /// # Errors
    ///
    /// Returns an encoding error if a DENM violates a constraint; `out`
    /// is left cleared in that case.
    pub fn poll_denm_into(&mut self, now: SimTime, out: &mut Vec<GnPacket>) -> uper::Result<()> {
        let denms = self.den.poll(now, self.wall(now));
        let result = self.packetize_denms(now, &denms, out);
        if result.is_err() {
            out.clear();
        }
        result
    }

    fn packetize_denms(
        &mut self,
        now: SimTime,
        denms: &[Denm],
        out: &mut Vec<GnPacket>,
    ) -> uper::Result<()> {
        let mut wire = Vec::new();
        for denm in denms {
            let (lat, lon) = {
                let p = denm.management.event_position;
                (
                    p.latitude.as_degrees().unwrap_or(GEO_ORIGIN.0),
                    p.longitude.as_degrees().unwrap_or(GEO_ORIGIN.1),
                )
            };
            if wire.capacity() == 0 {
                wire.reserve(128);
            }
            uper::encode_into(denm, &mut wire)?;
            let payload: std::sync::Arc<[u8]> = wire.as_slice().into();
            let area = GeoArea::circle(lat, lon, DENM_AREA_RADIUS_M);
            let seq = self.gbc_sequence;
            self.gbc_sequence = self.gbc_sequence.wrapping_add(1);
            self.tx_count += 1;
            out.push(GnPacket::geo_broadcast(
                self.position_vector(now),
                seq,
                area,
                TrafficClass::dp0(),
                BtpPort::DENM,
                payload,
            ));
        }
        Ok(())
    }

    /// Computes when this station's MAC puts `packet` on the air, given
    /// the shared medium state.
    pub fn channel_access(
        &self,
        now: SimTime,
        packet: &GnPacket,
        medium: &phy80211p::Medium,
        rng: &mut SimRng,
    ) -> SimTime {
        self.channel_access_frame(now, &packet.as_frame(), medium, rng)
    }

    /// [`channel_access`](Self::channel_access) for a borrowed frame.
    pub fn channel_access_frame(
        &self,
        now: SimTime,
        frame: &GnFrame<'_>,
        medium: &phy80211p::Medium,
        rng: &mut SimRng,
    ) -> SimTime {
        let ac = AccessCategory::from_dcc_profile(frame.common.traffic_class.dcc_profile);
        EdcaParams::for_category(ac).access_time(now, medium, rng)
    }

    /// Processes a received frame: geo-addressing check, location table
    /// and GBC de-duplication, BTP dispatch, LDM update, DENM
    /// de-duplication. The steady-state beacon RX path allocates nothing
    /// beyond the LDM entry itself.
    pub fn on_frame(&mut self, now: SimTime, frame: &GnFrame<'_>) -> FrameOutcome {
        let (lat, lon) = self.geo_position();
        if !frame.addresses_position(lat, lon) {
            return FrameOutcome::Ignored;
        }
        // Ignore our own broadcasts echoed back.
        if frame.extended.source().address
            == GnAddress::new(u64::from(self.config.station_id.value()))
        {
            return FrameOutcome::Ignored;
        }
        // GeoNetworking router duties: learn the neighbour's position and
        // drop GBC duplicates by (source, sequence).
        let source = *frame.extended.source();
        self.loc_table.update(source, self.wall(now).millis());
        if let ExtendedHeader::GeoBroadcast(gbc) = &frame.extended {
            if self
                .loc_table
                .is_duplicate(source.address, gbc.sequence_number)
            {
                return FrameOutcome::Ignored;
            }
        }
        self.rx_count += 1;
        match frame.btp.destination_port {
            BtpPort::CAM => match Cam::from_bytes(frame.payload) {
                Ok(cam) => {
                    self.ldm.insert_cam(cam);
                    FrameOutcome::CamStored
                }
                Err(_) => FrameOutcome::Ignored,
            },
            BtpPort::DENM => match Denm::from_bytes(frame.payload) {
                Ok(denm) => {
                    if self.den.receive(&denm) {
                        self.ldm.insert_denm(now, denm.clone());
                        FrameOutcome::DenmDelivered(Box::new(denm))
                    } else {
                        FrameOutcome::Ignored
                    }
                }
                Err(_) => FrameOutcome::Ignored,
            },
            _ => FrameOutcome::Ignored,
        }
    }
}

/// The vehicle-side HTTP polling loop model.
///
/// The paper's Python script "is constantly communicating with the
/// OpenC2X's HTTP API hosted at the OBU, through POST requests" — the
/// wait for the next poll plus the HTTP round-trip dominates the
/// OBU→actuator interval (Table II row 3, avg 29.2 ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollingModel {
    /// Poll period of the script.
    pub period: SimDuration,
}

impl Default for PollingModel {
    fn default() -> Self {
        Self {
            period: SimDuration::from_millis(50),
        }
    }
}

/// Fixed part of the HTTP request round trip (TCP connect + parse).
pub const HTTP_BASE: SimDuration = SimDuration::from_millis(2);
/// Mean of the exponential jitter on the HTTP round trip.
const HTTP_JITTER_MEAN: SimDuration = SimDuration::from_millis(1);

impl PollingModel {
    /// The first poll instant at or after `now`, given the loop started
    /// at `phase` (uniformly random phase decorrelates poll and event).
    pub fn next_poll(&self, now: SimTime, phase: SimDuration) -> SimTime {
        let p = self.period.as_nanos();
        let base = phase.as_nanos() % p;
        let t = now.as_nanos();
        let k = if t <= base { 0 } else { (t - base).div_ceil(p) };
        SimTime::from_nanos(base + k * p)
    }

    /// Samples one HTTP request round-trip time.
    pub fn sample_http_rtt(&self, rng: &mut SimRng) -> SimDuration {
        HTTP_BASE
            + SimDuration::from_secs_f64(rng.exponential(HTTP_JITTER_MEAN.as_secs_f64().max(1e-9)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facilities::den::DenRequest;
    use geonet::headers::ExtendedHeader;
    use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
    use its_messages::common::ReferencePosition;

    fn obu() -> ItsStation {
        let mut s = ItsStation::new(
            StationConfig::obu(StationId::new(7).unwrap()),
            NodeClock::perfect(0),
        );
        s.set_position(Position2D::new(2.0, 0.0));
        s.set_motion(1.5, 90.0);
        s
    }

    fn rsu() -> ItsStation {
        let mut s = ItsStation::new(
            StationConfig::rsu(StationId::new(15).unwrap()),
            NodeClock::perfect(0),
        );
        s.set_position(Position2D::new(0.0, 3.0));
        s
    }

    fn collision_request(station: &ItsStation, now: SimTime) -> DenRequest {
        let (lat, lon) = station.geo_position();
        DenRequest::one_shot(
            station.wall(now),
            ReferencePosition::from_degrees(lat, lon),
            CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
        )
    }

    /// The station's due CAM as wire bytes.
    fn cam_frame(station: &mut ItsStation, now: SimTime) -> Vec<u8> {
        let mut frame = Vec::new();
        assert!(station.poll_cam_frame(now, &mut frame).unwrap(), "CAM due");
        frame
    }

    /// The station's due DENM packets.
    fn denm_packets(station: &mut ItsStation, now: SimTime) -> Vec<GnPacket> {
        let mut packets = Vec::new();
        station.poll_denm_into(now, &mut packets).unwrap();
        packets
    }

    /// Hands wire bytes to the station's frame RX path.
    fn receive(station: &mut ItsStation, now: SimTime, bytes: &[u8]) -> FrameOutcome {
        station.on_frame(now, &GnFrame::parse(bytes).unwrap())
    }

    #[test]
    fn cam_packet_assembly() {
        let mut obu = obu();
        let bytes = cam_frame(&mut obu, SimTime::ZERO);
        let frame = GnFrame::parse(&bytes).unwrap();
        assert!(matches!(frame.extended, ExtendedHeader::SingleHop(_)));
        assert_eq!(frame.btp.destination_port, BtpPort::CAM);
        let cam = Cam::from_bytes(frame.payload).unwrap();
        assert_eq!(cam.header.station_id.value(), 7);
        assert_eq!(obu.tx_count(), 1);
    }

    #[test]
    fn denm_packet_assembly_and_priority() {
        let mut rsu = rsu();
        let req = collision_request(&rsu, SimTime::ZERO);
        rsu.trigger_denm(SimTime::ZERO, req);
        let packets = denm_packets(&mut rsu, SimTime::ZERO);
        assert_eq!(packets.len(), 1);
        let p = &packets[0];
        assert!(matches!(p.extended, ExtendedHeader::GeoBroadcast(_)));
        assert_eq!(p.btp.destination_port, BtpPort::DENM);
        assert_eq!(p.common.traffic_class.dcc_profile, 0, "DENMs ride DP0");
        assert_eq!(
            AccessCategory::from_dcc_profile(p.common.traffic_class.dcc_profile),
            AccessCategory::Voice
        );
    }

    #[test]
    fn end_to_end_rsu_to_obu_over_packets() {
        let mut rsu = rsu();
        let mut obu = obu();
        // OBU CAM → RSU LDM.
        let cam = cam_frame(&mut obu, SimTime::ZERO);
        assert_eq!(
            receive(&mut rsu, SimTime::ZERO, &cam),
            FrameOutcome::CamStored
        );
        assert_eq!(rsu.ldm().station_count(), 1);
        // RSU DENM → OBU application.
        let req = collision_request(&rsu, SimTime::ZERO);
        rsu.trigger_denm(SimTime::ZERO, req);
        let denm = denm_packets(&mut rsu, SimTime::ZERO).remove(0).to_bytes();
        match receive(&mut obu, SimTime::from_millis(1), &denm) {
            FrameOutcome::DenmDelivered(d) => {
                assert_eq!(d.event_type().unwrap().cause_code(), 97)
            }
            other => panic!("unexpected {other:?}"),
        }
        // A duplicate is dropped.
        assert_eq!(
            receive(&mut obu, SimTime::from_millis(2), &denm),
            FrameOutcome::Ignored
        );
    }

    #[test]
    fn own_packets_ignored() {
        let mut obu = obu();
        let cam = cam_frame(&mut obu, SimTime::ZERO);
        assert_eq!(
            receive(&mut obu, SimTime::ZERO, &cam),
            FrameOutcome::Ignored
        );
        assert_eq!(obu.rx_count(), 0);
    }

    #[test]
    fn geo_addressing_filters_far_receivers() {
        let mut rsu = rsu();
        let req = collision_request(&rsu, SimTime::ZERO);
        rsu.trigger_denm(SimTime::ZERO, req);
        let denm = denm_packets(&mut rsu, SimTime::ZERO).remove(0).to_bytes();
        // A station 10 km away is outside the 100 m relevance circle.
        let mut far = obu();
        far.set_position(Position2D::new(10_000.0, 0.0));
        assert_eq!(
            receive(&mut far, SimTime::ZERO, &denm),
            FrameOutcome::Ignored
        );
    }

    #[test]
    fn garbage_payload_inside_valid_gn_packet_is_dropped() {
        let mut rsu = rsu();
        let mut obu = obu();
        let garbage = [0xFF; 7]; // not a CAM
        let cam = cam_frame(&mut obu, SimTime::ZERO);
        let mut frame = GnFrame::parse(&cam).unwrap();
        frame.payload = &garbage;
        frame.common.payload_length = (garbage.len() + 4) as u16;
        assert_eq!(rsu.on_frame(SimTime::ZERO, &frame), FrameOutcome::Ignored);
        assert_eq!(rsu.ldm().station_count(), 0);
    }

    #[test]
    fn denm_exempt_from_dcc_even_when_saturated() {
        // Safety property: congestion control must never delay the
        // emergency DENM (AC_VO exemption).
        let mut rsu = rsu();
        for k in 0..10u64 {
            rsu.observe_channel_busy(SimTime::from_millis(100 * k), SimDuration::from_millis(90));
        }
        assert_eq!(rsu.dcc().state(), phy80211p::dcc::DccState::Restrictive);
        let t = SimTime::from_secs(2);
        rsu.trigger_denm(t, collision_request(&rsu, t));
        let packets = denm_packets(&mut rsu, t);
        assert_eq!(
            packets.len(),
            1,
            "the DENM goes out despite Restrictive DCC"
        );
    }

    #[test]
    fn dcc_throttles_cams_on_saturated_channel() {
        let mut obu = obu();
        // Saturate the DCC probe: 90% busy for a second.
        for k in 0..10u64 {
            obu.observe_channel_busy(SimTime::from_millis(100 * k), SimDuration::from_millis(90));
        }
        assert_eq!(
            obu.dcc().state(),
            phy80211p::dcc::DccState::Restrictive,
            "probe saturated"
        );
        // Drive for 5 s with strong dynamics; Restrictive allows at most
        // one CAM per second.
        let mut cams = 0;
        let mut frame = Vec::new();
        for ms in (0..5000u64).step_by(20) {
            let t = SimTime::from_millis(1000 + ms);
            obu.set_position(Position2D::new(2.0 + 6.0 * ms as f64 / 1000.0, 0.0));
            obu.set_motion(6.0, 90.0);
            if obu.poll_cam_frame(t, &mut frame).unwrap() {
                cams += 1;
            }
        }
        assert!(cams <= 6, "restrictive DCC caps the CAM rate: {cams}");
    }

    #[test]
    fn location_table_learns_neighbours_and_drops_gbc_duplicates() {
        let mut rsu = rsu();
        let mut obu = obu();
        // A CAM teaches the RSU about the OBU.
        let cam = cam_frame(&mut obu, SimTime::ZERO);
        receive(&mut rsu, SimTime::ZERO, &cam);
        assert_eq!(rsu.location_table().len(), 1);
        let entry = rsu
            .location_table()
            .entry(geonet::GnAddress::new(7))
            .expect("OBU learnt");
        assert!((entry.position.speed_mps() - 1.5).abs() < 1e-9);

        // The same GBC frame replayed (same sequence number) is dropped
        // at the GeoNetworking layer, before facilities-level dedupe.
        rsu.trigger_denm(SimTime::ZERO, collision_request(&rsu, SimTime::ZERO));
        let denm = denm_packets(&mut rsu, SimTime::ZERO).remove(0).to_bytes();
        assert!(matches!(
            receive(&mut obu, SimTime::from_millis(1), &denm),
            FrameOutcome::DenmDelivered(_)
        ));
        let rx_before = obu.rx_count();
        assert_eq!(
            receive(&mut obu, SimTime::from_millis(2), &denm),
            FrameOutcome::Ignored
        );
        assert_eq!(
            obu.rx_count(),
            rx_before,
            "duplicate not counted as received"
        );
    }

    #[test]
    fn lab_to_geo_roundtrip_distance() {
        let origin = (41.178, -8.608);
        let (lat, lon) = lab_to_geo(origin, Position2D::new(3.0, 4.0));
        let a = ReferencePosition::from_degrees(origin.0, origin.1);
        let b = ReferencePosition::from_degrees(lat, lon);
        let d = a.planar_distance_m(&b);
        assert!((d - 5.0).abs() < 0.05, "distance {d}");
    }

    #[test]
    fn polling_model_next_poll_grid() {
        let m = PollingModel::default();
        let phase = SimDuration::from_millis(13);
        // Polls at 13, 63, 113, ...
        assert_eq!(m.next_poll(SimTime::from_millis(0), phase).as_millis(), 13);
        assert_eq!(m.next_poll(SimTime::from_millis(13), phase).as_millis(), 13);
        assert_eq!(m.next_poll(SimTime::from_millis(14), phase).as_millis(), 63);
        assert_eq!(m.next_poll(SimTime::from_millis(63), phase).as_millis(), 63);
    }

    #[test]
    fn polling_http_rtt_positive_and_jittered() {
        let m = PollingModel::default();
        let mut rng = SimRng::seed_from(1);
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for _ in 0..1000 {
            let rtt = m.sample_http_rtt(&mut rng).as_secs_f64();
            min = min.min(rtt);
            max = max.max(rtt);
        }
        assert!(min >= 0.002);
        assert!(max > min, "jitter present");
    }

    #[test]
    fn wall_clock_quantised_to_ms() {
        let obu = obu();
        assert_eq!(obu.wall(SimTime::from_micros(1_900)).millis(), 1);
    }
}
