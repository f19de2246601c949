//! DENM on the wire: build the exact message of the paper's use-case
//! (cause code 97, *collision risk*, sub-cause 2, *crossing collision
//! risk*), push it through the real OpenC2X-style HTTP API over TCP and
//! through the GeoNetworking/BTP encapsulation, and show every byte
//! level of the stack, with the vehicle's CAM size beside the DENM's.
//!
//! ```sh
//! cargo run --example denm_wire
//! ```

use std::sync::Arc;

use geonet::btp::BtpPort;
use geonet::headers::TrafficClass;
use geonet::{GeoArea, GnAddress, GnPacket, LongPositionVector};
use its_messages::cam::Cam;
use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::{
    ActionId, Heading, ReferencePosition, RelevanceDistance, Speed, StationId, StationType,
    TimestampIts,
};
use its_messages::denm::{Denm, ManagementContainer, SituationContainer};
use openc2x::api::{ObuApi, RsuApi};
use openc2x::http::post;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Facilities layer: the DENM itself. ---
    let rsu_id = StationId::new(15)?;
    let event_position = ReferencePosition::from_degrees(41.178, -8.608);
    let mut management = ManagementContainer::new(
        ActionId::new(rsu_id, 1),
        TimestampIts::new(1_000)?,
        TimestampIts::new(1_005)?,
        event_position,
        StationType::RoadSideUnit,
    );
    management.relevance_distance = Some(RelevanceDistance::LessThan50m);
    let denm = Denm::new(rsu_id, management).with_situation(SituationContainer::new(
        7,
        CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
    )?);

    let denm_bytes = denm.to_bytes()?;
    println!("UPER-encoded DENM ({} bytes):", denm_bytes.len());
    println!("  {}\n", hex(&denm_bytes));

    // --- Transport + network: BTP-B on GeoBroadcast. ---
    let source = LongPositionVector::new(GnAddress::new(15), 1_005, 41.178, -8.608, 0.0, 0.0);
    let area = GeoArea::circle(41.178, -8.608, 100.0);
    let packet = GnPacket::geo_broadcast(
        source,
        1,
        area,
        TrafficClass::dp0(),
        BtpPort::DENM,
        denm_bytes.clone(),
    );
    let wire = packet.to_bytes();
    println!(
        "GeoNetworking GBC + BTP-B frame ({} bytes, DCC profile DP0 -> AC_VO):",
        wire.len()
    );
    println!("  {}\n", hex(&wire));

    let at = phy80211p::ofdm::airtime(wire.len(), phy80211p::ofdm::DataRate::Mbps6);
    println!("802.11p airtime at 6 Mbit/s: {at}");

    // The protagonist's CAM beacon (1.5 m/s, heading 270°) for scale.
    let cam = Cam::basic(
        StationId::new(7)?,
        4321,
        StationType::PassengerCar,
        event_position,
    )
    .with_dynamics(Heading::from_degrees(270.0), Speed::from_mps(1.5));
    println!(
        "wire sizes: DENM {} bytes, CAM {} bytes\n",
        denm_bytes.len(),
        cam.to_bytes()?.len()
    );

    // --- Application API over real TCP, like the testbed's HTTP flow. ---
    let rsu_api = Arc::new(RsuApi::new());
    let rsu_server = rsu_api.serve("127.0.0.1:0")?;
    let obu_api = Arc::new(ObuApi::new());
    let obu_server = obu_api.serve("127.0.0.1:0")?;

    // Edge node -> RSU: POST /trigger_denm.
    let resp = post(rsu_server.addr(), "/trigger_denm", &denm_bytes)?;
    println!("edge -> RSU  POST /trigger_denm  -> HTTP {}", resp.status);

    // RSU stack takes the DENM off the outbox and "transmits" it; here we
    // hand it straight to the OBU's pending queue.
    for d in rsu_api.take_outbox() {
        obu_api.deliver(d);
    }

    // Vehicle -> OBU: POST /request_denm (the polling script's request).
    let empty_then_full = post(obu_server.addr(), "/request_denm", b"")?;
    println!(
        "vehicle -> OBU POST /request_denm -> HTTP {} with {} bytes",
        empty_then_full.status,
        empty_then_full.body.len()
    );
    let received = Denm::from_bytes(&empty_then_full.body)?;
    println!(
        "vehicle decoded DENM: {} (requires emergency brake: {})",
        received.event_type().expect("situation present"),
        received
            .event_type()
            .map(|c| c.requires_emergency_brake())
            .unwrap_or(false)
    );

    // A second poll finds nothing: HTTP 200, empty body (paper §III-D2).
    let empty = post(obu_server.addr(), "/request_denm", b"")?;
    println!(
        "second poll -> HTTP {} with {} bytes (no DENM pending)",
        empty.status,
        empty.body.len()
    );

    rsu_server.shutdown();
    obu_server.shutdown();
    Ok(())
}

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}
