//! Golden UPER bytes for the three messages the stations exchange.
//!
//! Every CAM, DENM and CPM below is encoded and compared with its
//! pinned hex, and the pinned hex is decoded back to the message. A
//! round-trip test cannot see an encoder and decoder that renumber an
//! enumeration consistently; these pins can. Between them the cases
//! carry every odd wire index of every positional enumeration (and
//! every `ObjectClass`), so swapping any two adjacent variants of one
//! enumeration moves at least one pinned byte.

use facilities::cpm::{Cpm, CpmManagementContainer, CpmPerceivedObject, ObjectClass};
use its_messages::cam::{
    BasicContainer, Cam, DriveDirection, HighFrequencyContainer, LowFrequencyContainer, VehicleRole,
};
use its_messages::cause_codes::{
    CauseCode, CollisionRiskSubCause as Collision, DangerousSituationSubCause as Danger,
    StationaryVehicleSubCause as Stationary,
};
use its_messages::common::{
    ActionId, DeltaReferencePosition, Heading, PathHistory, PathPoint, ReferencePosition,
    RelevanceDistance as Distance, RelevanceTrafficDirection as Direction, Speed, StationId,
    StationType, TimestampIts,
};
use its_messages::denm::{
    AlacarteContainer, Denm, LocationContainer, ManagementContainer, RoadType, SituationContainer,
    StationarySince as Since, StationaryVehicleContainer, Termination,
};
use its_messages::{ItsPduHeader, MessageId};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn path() -> PathHistory {
    let mut path = PathHistory::default();
    path.push(PathPoint {
        delta: DeltaReferencePosition::new(120, -340, 15).unwrap(),
        delta_time: Some(25),
    });
    path.push(PathPoint {
        delta: DeltaReferencePosition::new(-7, 88, 0).unwrap(),
        delta_time: None,
    });
    path
}

/// A CAM with both the high- and the low-frequency container.
fn cam(role: VehicleRole, direction: DriveDirection) -> Cam {
    Cam {
        header: ItsPduHeader::new(MessageId::Cam, StationId::new(77).unwrap()),
        generation_delta_time: 4321,
        basic: BasicContainer {
            station_type: StationType::PassengerCar,
            reference_position: ReferencePosition::from_degrees(41.1784, -8.6081),
        },
        high_frequency: HighFrequencyContainer {
            heading: Heading::from_degrees(93.5),
            speed: Speed::from_mps(1.5),
            drive_direction: direction,
            vehicle_length: 45,
            vehicle_width: 19,
            longitudinal_acceleration: -12,
            yaw_rate: 150,
        },
        low_frequency: Some(LowFrequencyContainer {
            vehicle_role: role,
            exterior_lights: 0b1000_0001,
            path_history: path(),
        }),
    }
}

/// The enumerated fields of one DENM case, in container order.
type DenmCase = (
    Termination,
    Distance,
    Direction,
    [CauseCode; 2],
    RoadType,
    Since,
    StationType,
);

/// A DENM with every container: Management, Situation (with a linked
/// cause), Location and À-la-carte (with the stationary-vehicle
/// container).
fn denm(case: DenmCase) -> Denm {
    let (termination, distance, direction, [event, linked], road, since, station_type) = case;
    let mut management = ManagementContainer::new(
        ActionId::new(StationId::new(15).unwrap(), 3),
        TimestampIts::new(1_000_000).unwrap(),
        TimestampIts::new(1_000_005).unwrap(),
        ReferencePosition::from_degrees(41.1784, -8.6081),
        station_type,
    );
    management.termination = Some(termination);
    management.relevance_distance = Some(distance);
    management.relevance_traffic_direction = Some(direction);
    management.transmission_interval_ms = Some(100);
    let mut situation = SituationContainer::new(6, event).unwrap();
    situation.linked_cause = Some(linked);
    Denm {
        header: ItsPduHeader::new(MessageId::Denm, StationId::new(15).unwrap()),
        management,
        situation: Some(situation),
        location: Some(LocationContainer {
            event_speed: Some(Speed::from_mps(0.5)),
            event_position_heading: Some(Heading::from_degrees(270.0)),
            traces: vec![path()],
            road_type: Some(road),
        }),
        alacarte: Some(AlacarteContainer {
            lane_position: Some(-1),
            external_temperature: Some(21),
            stationary_vehicle: Some(StationaryVehicleContainer {
                stationary_since: Some(since),
                carrying_dangerous_goods: Some(true),
                number_of_occupants: Some(2),
            }),
            annotation: None,
        }),
    }
}

/// A CPM carrying one object of every class, in declaration order.
fn cpm() -> Cpm {
    let classes = [
        ObjectClass::Unknown,
        ObjectClass::Vehicle,
        ObjectClass::Person,
        ObjectClass::Obstacle,
    ];
    Cpm {
        header: ItsPduHeader::new(MessageId::Cpm, StationId::new(15).unwrap()),
        generation_delta_time: 1234,
        management: CpmManagementContainer {
            station_type: StationType::RoadSideUnit,
            reference_position: ReferencePosition::from_degrees(41.178, -8.608),
        },
        perceived_objects: classes
            .iter()
            .zip(0i32..)
            .map(|(&class, i)| CpmPerceivedObject {
                object_id: i as u16,
                x_distance_cm: 350 - 40 * i,
                y_distance_cm: -120 + 17 * i,
                x_speed_cm_s: 150,
                y_speed_cm_s: -42,
                confidence_pct: 88,
                class,
            })
            .collect(),
    }
}

/// Checks one message against its pin in both directions; a mismatch
/// is reported with the bytes the encoder wrote.
fn check<M: PartialEq + std::fmt::Debug>(
    failures: &mut Vec<String>,
    label: &str,
    message: &M,
    encoded: uper::Result<Vec<u8>>,
    decode: fn(&[u8]) -> uper::Result<M>,
    pin: &str,
) {
    let got = hex(&encoded.unwrap());
    if got != pin {
        failures.push(format!("{label}: pinned {pin}\n{label}: encoded {got}"));
    }
    match decode(&unhex(pin)) {
        Ok(back) if back == *message => {}
        other => failures.push(format!("{label}: pin decodes to {other:?}")),
    }
}

#[test]
fn cam_denm_and_cpm_keep_their_wire_bytes() {
    let mut failures = Vec::new();
    let cams = [
        (VehicleRole::SafetyCar, DriveDirection::Unavailable, "01020000004d887082ce303c4066285418dbba13a7025a0b124a404a7810b003bbfd56c6ac0060fffc400aec6700"),
        (VehicleRole::PublicTransport, DriveDirection::Forward, "01020000004d887082ce303c4066285418dbba13a702580b124a404a1810b003bbfd56c6ac0060fffc400aec6700"),
        (VehicleRole::DangerousGoods, DriveDirection::Backward, "01020000004d887082ce303c4066285418dbba13a702590b124a404a3810b003bbfd56c6ac0060fffc400aec6700"),
        (VehicleRole::Rescue, DriveDirection::Unavailable, "01020000004d887082ce303c4066285418dbba13a7025a0b124a404a5810b003bbfd56c6ac0060fffc400aec6700"),
    ];
    for (k, (role, direction, pin)) in cams.into_iter().enumerate() {
        let m = cam(role, direction);
        check(
            &mut failures,
            &format!("cam {k}"),
            &m,
            m.to_bytes(),
            Cam::from_bytes,
            pin,
        );
    }
    let denms: [(DenmCase, &str); 5] = [
        (
            (
                Termination::IsNegation,
                Distance::Over10km,
                Direction::OppositeTraffic,
                [
                    CauseCode::StationaryVehicle(Stationary::CarryingDangerousGoods),
                    CauseCode::CollisionRisk(Collision::VulnerableRoadUser),
                ],
                RoadType::NonUrbanWithSeparation,
                Since::EqualOrGreater15Minutes,
                StationType::RoadSideUnit,
            ),
            "01010000000ffe0000001e0006000007a120000001e848b9c607880cc50a831b7743f012c00c61fcbc0ac209c032a8c01600777faad8d5800c1fff88015d8ce7c147f040",
        ),
        (
            (
                Termination::IsNegation,
                Distance::LessThan100m,
                Direction::UpstreamTraffic,
                [
                    CauseCode::DangerousSituation(Danger::CollisionRiskWarningActivated),
                    CauseCode::CollisionRisk(Collision::LongitudinalCollisionRisk),
                ],
                RoadType::UrbanWithSeparation,
                Since::LessThan2Minutes,
                StationType::Unknown(200),
            ),
            "01010000000ffe0000001e0006000007a120000001e848b9c607880cc50a831b77425012c00c791cc60ec203c032a8c01600777faad8d5800c1fff88015d8ce3c147b040",
        ),
        (
            (
                Termination::IsCancellation,
                Distance::LessThan500m,
                Direction::AllTrafficDirections,
                [
                    CauseCode::DangerousSituation(Danger::AebActivated),
                    CauseCode::StationaryVehicle(Stationary::HumanProblem),
                ],
                RoadType::UrbanNoSeparation,
                Since::LessThan1Minute,
                StationType::RoadSideUnit,
            ),
            "01010000000ffe0000001e0006000007a120000001e848a9c607880cc50a831b7742c012c00c61fcc60abc03c032a8c01600777faad8d5800c1fff88015d8ce1c1479040",
        ),
        (
            (
                Termination::IsNegation,
                Distance::LessThan5km,
                Direction::DownstreamTraffic,
                [
                    CauseCode::DangerousSituation(Danger::EspActivated),
                    CauseCode::StationaryVehicle(Stationary::PostCrash),
                ],
                RoadType::NonUrbanNoSeparation,
                Since::LessThan15Minutes,
                StationType::RoadSideUnit,
            ),
            "01010000000ffe0000001e0006000007a120000001e848b9c607880cc50a831b77436012c00c61fcc606bc07c032a8c01600777faad8d5800c1fff88015d8ce5c147d040",
        ),
        (
            (
                Termination::IsNegation,
                Distance::LessThan50m,
                Direction::OppositeTraffic,
                [
                    CauseCode::DangerousSituation(Danger::EmergencyElectronicBrakeLights),
                    CauseCode::CollisionRisk(Collision::LateralCollisionRisk),
                ],
                RoadType::NonUrbanWithSeparation,
                Since::EqualOrGreater15Minutes,
                StationType::RoadSideUnit,
            ),
            "01010000000ffe0000001e0006000007a120000001e848b9c607880cc50a831b77423012c00c61fcc602c207c032a8c01600777faad8d5800c1fff88015d8ce7c147f040",
        ),
    ];
    for (k, (case, pin)) in denms.into_iter().enumerate() {
        let m = denm(case);
        check(
            &mut failures,
            &format!("denm {k}"),
            &m,
            m.to_bytes(),
            Denm::from_bytes,
            pin,
        );
    }
    let m = cpm();
    check(&mut failures, "cpm", &m, m.to_bytes(), Cpm::from_bytes, "010e0000000f04d20f9c605940cc50b001b774208000081ff9031440957fab60000140fac818e604abfd5b08001207ae40c950255fead88000d03c32065b812aff56c6");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
