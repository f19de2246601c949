//! Cross-crate stack integration: facilities messages through the UPER
//! codec, GeoNetworking/BTP encapsulation, the 802.11p channel, and the
//! station glue — without the full scenario around them.

use geonet::btp::BtpPort;
use geonet::{GnFrame, GnPacket};
use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::{ReferencePosition, StationId};
use its_messages::denm::Denm;
use openc2x::node::{FrameOutcome, ItsStation, StationConfig};
use phy80211p::channel::{Channel, ChannelConfig};
use phy80211p::ofdm::{airtime, DataRate};
use phy80211p::Position2D;
use sim_core::{NodeClock, SimRng, SimTime};

fn obu_at(x: f64) -> ItsStation {
    let mut s = ItsStation::new(
        StationConfig::obu(StationId::new(7).unwrap()),
        NodeClock::perfect(0),
    );
    s.set_position(Position2D::new(x, 0.0));
    s.set_motion(1.5, 270.0);
    s
}

fn rsu() -> ItsStation {
    let mut s = ItsStation::new(
        StationConfig::rsu(StationId::new(15).unwrap()),
        NodeClock::perfect(0),
    );
    s.set_position(Position2D::new(0.0, 1.0));
    s
}

fn collision_request(station: &ItsStation, now: SimTime) -> facilities::den::DenRequest {
    let (lat, lon) = station.geo_position();
    facilities::den::DenRequest::one_shot(
        station.wall(now),
        ReferencePosition::from_degrees(lat, lon),
        CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
    )
}

/// The station's due CAM as wire bytes, if one is due.
fn cam_frame(station: &mut ItsStation, now: SimTime) -> Option<Vec<u8>> {
    let mut frame = Vec::new();
    station
        .poll_cam_frame(now, &mut frame)
        .unwrap()
        .then_some(frame)
}

/// The station's first due DENM packet.
fn first_denm(station: &mut ItsStation, now: SimTime) -> GnPacket {
    let mut packets = Vec::new();
    station.poll_denm_into(now, &mut packets).unwrap();
    packets.remove(0)
}

#[test]
fn cam_travels_obu_to_rsu_over_channel() {
    let mut obu = obu_at(3.0);
    let mut rsu = rsu();
    let channel = Channel::new(ChannelConfig::default());
    let mut rng = SimRng::seed_from(1);

    let bytes = cam_frame(&mut obu, SimTime::ZERO).expect("first CAM due");
    let outcome = channel.transmit(
        SimTime::ZERO,
        obu.position(),
        rsu.position(),
        bytes.len(),
        DataRate::Mbps6,
        &mut rng,
    );
    assert!(outcome.delivered, "lab-scale CAM must be delivered");
    // Reparse on the receiving side, as the real radio does.
    let rx_frame = GnFrame::parse(&bytes).unwrap();
    assert_eq!(
        rsu.on_frame(outcome.arrival, &rx_frame),
        FrameOutcome::CamStored
    );
    assert_eq!(rsu.ldm().station_count(), 1);
    let cam = rsu.ldm().station(StationId::new(7).unwrap()).unwrap();
    assert_eq!(cam.high_frequency.speed.as_mps(), Some(1.5));
}

#[test]
fn denm_survives_full_encapsulation() {
    let mut rsu = rsu();
    let mut obu = obu_at(2.0);
    rsu.trigger_denm(SimTime::ZERO, collision_request(&rsu, SimTime::ZERO));
    let packet = first_denm(&mut rsu, SimTime::ZERO);

    // Round-trip through the real wire bytes.
    let wire = packet.to_bytes();
    let parsed = GnFrame::parse(&wire).unwrap();
    assert_eq!(parsed.btp.destination_port, BtpPort::DENM);

    match obu.on_frame(SimTime::from_millis(1), &parsed) {
        FrameOutcome::DenmDelivered(denm) => {
            let cause = denm.event_type().unwrap();
            assert_eq!(cause.cause_code(), 97);
            assert_eq!(cause.sub_cause_code(), 2);
            assert!(cause.requires_emergency_brake());
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn denm_airtime_at_6mbps_is_sub_millisecond() {
    let mut rsu = rsu();
    rsu.trigger_denm(SimTime::ZERO, collision_request(&rsu, SimTime::ZERO));
    let packet = first_denm(&mut rsu, SimTime::ZERO);
    let t = airtime(packet.to_bytes().len(), DataRate::Mbps6);
    assert!(
        t.as_micros() < 400,
        "DENM frame airtime {t} — Table II's 1.6 ms hop is mostly stack overhead"
    );
}

#[test]
fn duplicate_denm_suppressed_but_update_passes() {
    let mut rsu = rsu();
    let mut obu = obu_at(2.0);
    let action = rsu.trigger_denm(SimTime::ZERO, collision_request(&rsu, SimTime::ZERO));
    let first = first_denm(&mut rsu, SimTime::ZERO);
    assert_ne!(
        obu.on_frame(SimTime::from_millis(1), &first.as_frame()),
        FrameOutcome::Ignored
    );
    assert_eq!(
        obu.on_frame(SimTime::from_millis(2), &first.as_frame()),
        FrameOutcome::Ignored
    );

    // An update produces a fresh referenceTime (facilities layer) and a
    // fresh GeoNetworking sequence number (each transmission is a new GN
    // packet) — it passes both dedupe layers.
    let mut denm = Denm::from_bytes(&first.payload).unwrap();
    denm.management.reference_time =
        its_messages::common::TimestampIts::new(denm.management.reference_time.millis() + 100)
            .unwrap();
    let mut updated = first.clone();
    if let geonet::headers::ExtendedHeader::GeoBroadcast(ref mut gbc) = updated.extended {
        gbc.sequence_number += 1;
    }
    updated.payload = denm.to_bytes().unwrap().into();
    updated.common.payload_length = (updated.payload.len() + 4) as u16;
    assert_ne!(
        obu.on_frame(SimTime::from_millis(3), &updated.as_frame()),
        FrameOutcome::Ignored
    );

    // Same GN sequence with different facilities content is still dropped
    // at the GeoNetworking layer (duplicate packet detection).
    let mut replay = updated.clone();
    let mut denm2 = Denm::from_bytes(&replay.payload).unwrap();
    denm2.management.reference_time =
        its_messages::common::TimestampIts::new(denm2.management.reference_time.millis() + 100)
            .unwrap();
    replay.payload = denm2.to_bytes().unwrap().into();
    replay.common.payload_length = (replay.payload.len() + 4) as u16;
    assert_eq!(
        obu.on_frame(SimTime::from_millis(4), &replay.as_frame()),
        FrameOutcome::Ignored
    );
    let _ = action;
}

#[test]
fn ldm_reflects_both_cams_and_denms() {
    let mut rsu = rsu();
    let mut obu = obu_at(2.5);
    // CAM up.
    let cam = cam_frame(&mut obu, SimTime::ZERO).unwrap();
    rsu.on_frame(SimTime::ZERO, &GnFrame::parse(&cam).unwrap());
    // DENM down.
    rsu.trigger_denm(SimTime::ZERO, collision_request(&rsu, SimTime::ZERO));
    let denm_packet = first_denm(&mut rsu, SimTime::ZERO);
    obu.on_frame(SimTime::from_millis(1), &denm_packet.as_frame());

    assert_eq!(rsu.ldm().station_count(), 1);
    assert_eq!(obu.ldm().event_count(), 1);
    assert_eq!(obu.ldm().active_events(SimTime::from_millis(10)).len(), 1);
}

#[test]
fn geobroadcast_respects_relevance_area() {
    let mut rsu = rsu();
    rsu.trigger_denm(SimTime::ZERO, collision_request(&rsu, SimTime::ZERO));
    let packet = first_denm(&mut rsu, SimTime::ZERO);
    // Inside the 100 m default relevance circle.
    let mut near = obu_at(50.0);
    assert_ne!(
        near.on_frame(SimTime::ZERO, &packet.as_frame()),
        FrameOutcome::Ignored
    );
    // Outside it.
    let mut far = obu_at(500.0);
    assert_eq!(
        far.on_frame(SimTime::ZERO, &packet.as_frame()),
        FrameOutcome::Ignored
    );
}

#[test]
fn cam_generation_follows_dynamics_over_a_drive() {
    // Drive the OBU along the lab and let the CA service decide: the
    // stream should be bounded between 1 Hz and 10 Hz.
    let count_at = |speed_mps: f64| {
        let mut obu = obu_at(100.0);
        let mut cams = 0;
        for ms in (0..=10_000u64).step_by(20) {
            let t = SimTime::from_millis(ms);
            let x = 100.0 - speed_mps * ms as f64 / 1000.0;
            obu.set_position(Position2D::new(x, 0.0));
            obu.set_motion(speed_mps, 270.0);
            if cam_frame(&mut obu, t).is_some() {
                cams += 1;
            }
        }
        cams
    };
    // At 1.5 m/s the car moves only 1.5 m per max-period CAM — below the
    // 4 m position trigger, so the stream sits at the 1 Hz floor.
    let slow = count_at(1.5);
    assert!((10..=12).contains(&slow), "1 Hz floor: {slow}");
    // At 6 m/s the 4 m trigger fires between max-period CAMs and the
    // rate rises (position delta 4 m every ~0.67 s).
    let fast = count_at(6.0);
    assert!(fast > slow, "dynamics raise the CAM rate: {fast} vs {slow}");
    assert!(fast <= 101, "bounded by T_GenCamMin (10 Hz): {fast}");
}
