//! Hardware-in-the-loop flavour: the OpenC2X HTTP application API over
//! real TCP sockets, exercising the exact `trigger_denm` /
//! `request_denm` flow of paper §III-D2.

use std::sync::Arc;

use its_messages::cause_codes::{CauseCode, CollisionRiskSubCause};
use its_messages::common::{ActionId, ReferencePosition, StationId, StationType, TimestampIts};
use its_messages::denm::{Denm, ManagementContainer, SituationContainer};
use openc2x::api::{ObuApi, RsuApi};
use openc2x::http::{post, request};

fn collision_denm(seq: u16) -> Denm {
    let rsu = StationId::new(15).unwrap();
    Denm::new(
        rsu,
        ManagementContainer::new(
            ActionId::new(rsu, seq),
            TimestampIts::new(1_000).unwrap(),
            TimestampIts::new(1_005).unwrap(),
            ReferencePosition::from_degrees(41.178, -8.608),
            StationType::RoadSideUnit,
        ),
    )
    .with_situation(
        SituationContainer::new(
            7,
            CauseCode::CollisionRisk(CollisionRiskSubCause::CrossingCollisionRisk),
        )
        .unwrap(),
    )
}

#[test]
fn trigger_denm_roundtrip_over_tcp() {
    let rsu = Arc::new(RsuApi::new());
    let server = rsu.serve("127.0.0.1:0").unwrap();
    let denm = collision_denm(1);
    let resp = post(server.addr(), "/trigger_denm", &denm.to_bytes().unwrap()).unwrap();
    assert_eq!(resp.status, 200);
    let outbox = rsu.take_outbox();
    assert_eq!(outbox, vec![denm]);
    server.shutdown();
}

#[test]
fn request_denm_empty_then_delivers_in_order() {
    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();

    // "If no DENM is found, it only returns an HTTP 200 success status
    // code."
    let r = post(server.addr(), "/request_denm", b"").unwrap();
    assert_eq!((r.status, r.body.len()), (200, 0));

    obu.deliver(collision_denm(1));
    obu.deliver(collision_denm(2));

    let r1 = post(server.addr(), "/request_denm", b"").unwrap();
    let d1 = Denm::from_bytes(&r1.body).unwrap();
    assert_eq!(d1.management.action_id.sequence_number, 1);
    let r2 = post(server.addr(), "/request_denm", b"").unwrap();
    let d2 = Denm::from_bytes(&r2.body).unwrap();
    assert_eq!(d2.management.action_id.sequence_number, 2);
    let r3 = post(server.addr(), "/request_denm", b"").unwrap();
    assert!(r3.body.is_empty());
    server.shutdown();
}

#[test]
fn full_edge_to_vehicle_http_chain() {
    // edge --POST trigger_denm--> RSU --stack--> OBU --POST
    // request_denm--> vehicle control logic.
    let rsu = Arc::new(RsuApi::new());
    let rsu_server = rsu.serve("127.0.0.1:0").unwrap();
    let obu = Arc::new(ObuApi::new());
    let obu_server = obu.serve("127.0.0.1:0").unwrap();

    let denm = collision_denm(9);
    assert_eq!(
        post(
            rsu_server.addr(),
            "/trigger_denm",
            &denm.to_bytes().unwrap()
        )
        .unwrap()
        .status,
        200
    );
    // The "stack": RSU outbox → air → OBU pending.
    for d in rsu.take_outbox() {
        obu.deliver(d);
    }
    let resp = post(obu_server.addr(), "/request_denm", b"").unwrap();
    let received = Denm::from_bytes(&resp.body).unwrap();
    assert!(received.event_type().unwrap().requires_emergency_brake());

    // The vehicle-side reaction (paper: any DENM response → cut power).
    let mut planner = vehicle::planner::MotionPlanner::new(0.25);
    assert!(planner.on_denm(&received));
    assert_eq!(
        planner.plan(None),
        vehicle::actuators::ActuatorCommand::CutPower
    );

    rsu_server.shutdown();
    obu_server.shutdown();
}

#[test]
fn malformed_denm_rejected_with_400() {
    let rsu = Arc::new(RsuApi::new());
    let server = rsu.serve("127.0.0.1:0").unwrap();
    let resp = post(server.addr(), "/trigger_denm", &[0xDE, 0xAD]).unwrap();
    assert_eq!(resp.status, 400);
    assert!(rsu.take_outbox().is_empty());
    server.shutdown();
}

/// Sends a `POST` head declaring `content_length` body bytes, sends no
/// body, and returns the raw reply.
fn post_head_only(addr: std::net::SocketAddr, content_length: u64) -> String {
    use std::io::{Read, Write};

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let head = format!(
        "POST /request_denm HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {content_length}\r\n\r\n"
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn oversized_body_is_refused_with_413_and_the_server_keeps_serving() {
    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    // A 1 TiB body used to be allocated up front, aborting the process.
    // The server must answer from the head alone.
    let over_cap = openc2x::http::MAX_BODY_BYTES as u64 + 1;
    for content_length in [1_099_511_627_776, over_cap] {
        let reply = post_head_only(server.addr(), content_length);
        assert!(reply.starts_with("HTTP/1.1 413 "), "reply: {reply}");
    }
    // The same server still answers a normal request.
    let r = post(server.addr(), "/request_denm", b"").unwrap();
    assert_eq!((r.status, r.body.len()), (200, 0));
    server.shutdown();
}

/// Sends `head` raw, half-closes the connection when `close` is set
/// (otherwise leaves it open), and returns the raw reply.
fn send_raw_head(addr: std::net::SocketAddr, head: &[u8], close: bool) -> String {
    use std::io::{Read, Write};

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    stream.write_all(head).unwrap();
    if close {
        stream.shutdown(std::net::Shutdown::Write).unwrap();
    }
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn oversized_or_truncated_heads_are_refused_and_the_server_keeps_serving() {
    use openc2x::http::{MAX_HEADERS, MAX_HEAD_BYTES};

    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    let request_line = "POST /request_denm HTTP/1.1\r\n";

    // A header line that takes the head one byte past the byte cap and
    // never ends: the server reads exactly that far, then answers.
    let mut long = request_line.to_owned();
    long.push_str("X-Pad: ");
    long.push_str(&"a".repeat(MAX_HEAD_BYTES + 1 - long.len()));
    assert_eq!(long.len(), MAX_HEAD_BYTES + 1);
    // One complete header line more than the count cap, no blank line.
    let mut many = request_line.to_owned();
    for i in 0..=MAX_HEADERS {
        many.push_str(&format!("X-H{i}: v\r\n"));
    }
    assert!(many.len() < MAX_HEAD_BYTES);
    // A head cut off before its blank line is malformed, not complete.
    let cut = format!("{request_line}Host: testbed\r\nContent-Length: 0\r\n");
    for (head, half_close, status) in [(long, false, 431), (many, false, 431), (cut, true, 400)] {
        let reply = send_raw_head(server.addr(), head.as_bytes(), half_close);
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status} ")),
            "reply: {reply}"
        );
        // The same server still answers a normal request.
        let r = post(server.addr(), "/request_denm", b"").unwrap();
        assert_eq!((r.status, r.body.len()), (200, 0));
    }
    server.shutdown();
}

/// A client that sends one byte a second never trips a per-read
/// timeout; the deadline for the whole request answers it with 408
/// anyway, and the server goes on serving.
#[test]
fn trickled_request_gets_408_at_the_deadline_and_the_server_keeps_serving() {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let mut stream = stream.try_clone().unwrap();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for byte in b"POST /request_denm HTTP/1.1\r\nHost: testbed\r\n\r\n" {
                if done.load(Ordering::Relaxed) || stream.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        })
    };
    // detlint:allow(D1) times how long the real server takes to answer
    let started = std::time::Instant::now();
    let mut reply = Vec::new();
    let mut chunk = [0u8; 256];
    while !reply.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
        }
    }
    let waited = started.elapsed();
    done.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 408 "), "reply: {reply}");
    let deadline = openc2x::http::REQUEST_DEADLINE;
    assert!(
        waited >= deadline - Duration::from_millis(500)
            && waited < deadline + Duration::from_secs(1),
        "answered after {waited:?}"
    );
    // The same server still answers a normal request.
    let r = post(server.addr(), "/request_denm", b"").unwrap();
    assert_eq!((r.status, r.body.len()), (200, 0));
    server.shutdown();
}

/// Idle connections hold the server's handler threads up to the
/// request deadline; past `MAX_CONNECTIONS` of them the accept loop
/// answers 503 at once, and a closed one frees its place.
#[test]
fn connections_past_the_cap_get_503_until_one_closes() {
    use openc2x::http::MAX_CONNECTIONS;
    use std::time::Duration;

    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    // The accept loop counts connections in arrival order, so these all
    // hold a place before the next one is accepted.
    let mut idle: Vec<_> = (0..MAX_CONNECTIONS)
        .map(|_| std::net::TcpStream::connect(addr).unwrap())
        .collect();
    let r = post(addr, "/request_denm", b"").unwrap();
    assert_eq!(r.status, 503);
    assert_eq!(r.body, b"too many connections");
    // Closing one ends its thread, which frees its place; until the
    // thread has ended, a request may still meet the cap.
    drop(idle.pop());
    let mut statuses = Vec::new();
    for _ in 0..100 {
        let status = post(addr, "/request_denm", b"").unwrap().status;
        statuses.push(status);
        if status != 503 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(statuses.last(), Some(&200), "statuses: {statuses:?}");
    drop(idle);
    server.shutdown();
}

#[test]
fn wrong_method_or_path_is_404() {
    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    assert_eq!(
        request(server.addr(), "GET", "/request_denm", b"")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        post(server.addr(), "/request_denm/extra", b"")
            .unwrap()
            .status,
        404
    );
    server.shutdown();
}

#[test]
fn concurrent_polls_take_each_denm_once() {
    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    for seq in 0..16 {
        obu.deliver(collision_denm(seq));
    }
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    let r = post(addr, "/request_denm", b"").unwrap();
                    if r.body.is_empty() {
                        break;
                    }
                    got.push(
                        Denm::from_bytes(&r.body)
                            .unwrap()
                            .management
                            .action_id
                            .sequence_number,
                    );
                }
                got
            })
        })
        .collect();
    let mut all: Vec<u16> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..16).collect::<Vec<u16>>(), "each DENM exactly once");
    server.shutdown();
}

#[test]
fn poll_rate_sustained() {
    // The paper's script polls continuously; make sure the server
    // sustains a realistic poll rate without dropping requests.
    let obu = Arc::new(ObuApi::new());
    let server = obu.serve("127.0.0.1:0").unwrap();
    for _ in 0..200 {
        let r = post(server.addr(), "/request_denm", b"").unwrap();
        assert_eq!(r.status, 200);
    }
    server.shutdown();
}
