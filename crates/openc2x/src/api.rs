//! The OpenC2X application API endpoints.
//!
//! Two endpoints matter to the collision-avoidance system (§III-D2):
//!
//! * RSU side — `POST /trigger_denm`: the edge node's Hazard
//!   Advertisement Service posts here; the body is a UPER-encoded DENM
//!   that the station transmits.
//! * OBU side — `POST /request_denm`: the vehicle's script polls here;
//!   an empty 200 means no DENM, otherwise the body carries the oldest
//!   undelivered UPER-encoded DENM.
//!
//! State is shared behind mutexes so the HTTP handler threads and the
//! stack thread can touch it concurrently. A poisoned lock (a handler
//! thread panicked mid-update) degrades to serving the last-written
//! state rather than cascading the panic.

use crate::http::{HttpServer, Response, RunningServer};
use its_messages::denm::Denm;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the inner state if a previous holder panicked.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared state of an OBU's application API.
#[derive(Debug, Default)]
pub struct ObuApi {
    /// DENMs received over the air, waiting for the vehicle's poll.
    pending: Mutex<VecDeque<Denm>>,
    /// Total DENMs ever enqueued.
    received_total: Mutex<u64>,
}

impl ObuApi {
    /// Creates an empty API state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called by the stack when a DENM arrives over the air.
    pub fn deliver(&self, denm: Denm) {
        locked(&self.pending).push_back(denm);
        *locked(&self.received_total) += 1;
    }

    /// The `request_denm` semantics: pops the oldest pending DENM.
    pub fn take_pending(&self) -> Option<Denm> {
        locked(&self.pending).pop_front()
    }

    /// DENMs currently waiting.
    #[cfg(test)]
    pub fn pending_count(&self) -> usize {
        locked(&self.pending).len()
    }

    /// Total DENMs delivered to this API since start.
    pub fn received_total(&self) -> u64 {
        *locked(&self.received_total)
    }

    /// Serves the OBU HTTP API (`POST /request_denm`) on `addr`.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve(self: &Arc<Self>, addr: &str) -> std::io::Result<RunningServer> {
        let state = Arc::clone(self);
        let mut server = HttpServer::new();
        server.route("POST", "/request_denm", move |_req| {
            match state.take_pending() {
                Some(denm) => match denm.to_bytes() {
                    Ok(bytes) => Response::ok(bytes),
                    Err(_) => Response::bad_request("denm encode failed"),
                },
                None => Response::ok_empty(),
            }
        });
        server.serve(addr)
    }
}

/// Shared state of an RSU's application API.
#[derive(Debug, Default)]
pub struct RsuApi {
    /// DENMs posted by the edge node, waiting for the stack to transmit.
    outbox: Mutex<VecDeque<Denm>>,
    /// Total trigger calls accepted.
    triggered_total: Mutex<u64>,
}

impl RsuApi {
    /// Creates an empty API state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a DENM for transmission (the `trigger_denm` semantics).
    pub fn trigger(&self, denm: Denm) {
        locked(&self.outbox).push_back(denm);
        *locked(&self.triggered_total) += 1;
    }

    /// Called by the stack: drains DENMs to put on the air.
    pub fn take_outbox(&self) -> Vec<Denm> {
        locked(&self.outbox).drain(..).collect()
    }

    /// Trigger calls accepted since start.
    pub fn triggered_total(&self) -> u64 {
        *locked(&self.triggered_total)
    }

    /// Serves the RSU HTTP API (`POST /trigger_denm`, body = UPER DENM)
    /// on `addr`.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve(self: &Arc<Self>, addr: &str) -> std::io::Result<RunningServer> {
        let state = Arc::clone(self);
        let mut server = HttpServer::new();
        server.route("POST", "/trigger_denm", move |req| {
            match Denm::from_bytes(&req.body) {
                Ok(denm) => {
                    state.trigger(denm);
                    Response::ok_empty()
                }
                Err(e) => Response::bad_request(&format!("invalid denm: {e}")),
            }
        });
        server.serve(addr)
    }
}

/// The OpenC2X "Server/Web Interface" (paper §III-D): "represents
/// graphically the georeferenced information contained in the LDM … and
/// allows the sending of DENMs and CAMs".
///
/// The stack publishes a textual LDM snapshot; the web server serves it
/// on `GET /ldm`. Combined with an [`RsuApi`] route set, this covers the
/// manual `trigger_denm` path the web UI exposes.
#[derive(Debug, Default)]
pub struct WebInterface {
    snapshot: Mutex<String>,
}

impl WebInterface {
    /// Creates an empty interface.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a fresh LDM snapshot (the stack calls this after LDM
    /// updates).
    // detlint:allow(U1) tests/http_api.rs serves an LDM snapshot through the web interface
    pub fn publish(&self, snapshot: impl Into<String>) {
        *locked(&self.snapshot) = snapshot.into();
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> String {
        locked(&self.snapshot).clone()
    }

    /// Serves `GET /ldm` on `addr`.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve(self: &Arc<Self>, addr: &str) -> std::io::Result<crate::http::RunningServer> {
        let state = Arc::clone(self);
        let mut server = HttpServer::new();
        server.route("GET", "/ldm", move |_req| {
            let mut resp = Response::ok(state.snapshot().into_bytes());
            resp.content_type = "text/plain".to_owned();
            resp
        });
        server.serve(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{post, request};
    use its_messages::common::{ActionId, ReferencePosition, StationId, StationType, TimestampIts};
    use its_messages::denm::ManagementContainer;

    fn denm(seq: u16) -> Denm {
        Denm::new(
            StationId::new(15).unwrap(),
            ManagementContainer::new(
                ActionId::new(StationId::new(15).unwrap(), seq),
                TimestampIts::new(1000).unwrap(),
                TimestampIts::new(1000).unwrap(),
                ReferencePosition::from_degrees(41.178, -8.608),
                StationType::RoadSideUnit,
            ),
        )
    }

    #[test]
    fn obu_queue_fifo() {
        let api = ObuApi::new();
        api.deliver(denm(1));
        api.deliver(denm(2));
        assert_eq!(api.pending_count(), 2);
        assert_eq!(
            api.take_pending()
                .unwrap()
                .management
                .action_id
                .sequence_number,
            1
        );
        assert_eq!(
            api.take_pending()
                .unwrap()
                .management
                .action_id
                .sequence_number,
            2
        );
        assert!(api.take_pending().is_none());
        assert_eq!(api.received_total(), 2);
    }

    #[test]
    fn obu_http_request_denm_flow() {
        let api = Arc::new(ObuApi::new());
        let server = api.serve("127.0.0.1:0").unwrap();
        // No DENM yet: empty 200, exactly as OpenC2X behaves.
        let r = post(server.addr(), "/request_denm", b"").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.is_empty());
        // Deliver one over "the air", poll again.
        api.deliver(denm(7));
        let r = post(server.addr(), "/request_denm", b"").unwrap();
        assert_eq!(r.status, 200);
        let got = Denm::from_bytes(&r.body).unwrap();
        assert_eq!(got.management.action_id.sequence_number, 7);
        server.shutdown();
    }

    #[test]
    fn rsu_http_trigger_denm_flow() {
        let api = Arc::new(RsuApi::new());
        let server = api.serve("127.0.0.1:0").unwrap();
        let d = denm(3);
        let r = post(server.addr(), "/trigger_denm", &d.to_bytes().unwrap()).unwrap();
        assert_eq!(r.status, 200);
        let out = api.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], d);
        assert_eq!(api.triggered_total(), 1);
        server.shutdown();
    }

    #[test]
    fn web_interface_serves_ldm_snapshot() {
        let web = Arc::new(WebInterface::new());
        let server = web.serve("127.0.0.1:0").unwrap();
        web.publish("stations: 1\nevents: 0\n");
        let r = request(server.addr(), "GET", "/ldm", b"").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(
            String::from_utf8(r.body).unwrap(),
            "stations: 1\nevents: 0\n"
        );
        // Updates are visible on the next poll.
        web.publish("stations: 2\nevents: 1\n");
        let r = request(server.addr(), "GET", "/ldm", b"").unwrap();
        assert!(String::from_utf8(r.body).unwrap().contains("events: 1"));
        server.shutdown();
    }

    #[test]
    fn rsu_rejects_garbage() {
        let api = Arc::new(RsuApi::new());
        let server = api.serve("127.0.0.1:0").unwrap();
        let r = post(server.addr(), "/trigger_denm", b"\xFF\xFF").unwrap();
        assert_eq!(r.status, 400);
        assert!(api.take_outbox().is_empty());
        server.shutdown();
    }
}
