//! The campaign server: submissions in, result streams out.
//!
//! Reuses [`openc2x::http::HttpServer`] — the same std-net HTTP/1.1
//! server the simulated OBU polls — as the front door for campaign
//! execution as a service:
//!
//! * `GET /campaigns` — newline-separated [`CampaignRegistry`] names,
//!   in registration order.
//! * `POST /submit` — a [`CampaignSubmission`] frame
//!   ([`its_testbed::submission`]). The server answers 400 for frames
//!   that don't decode, 404 for unknown campaign names, 409 Conflict
//!   when the client's expected shape/fingerprint does not match the
//!   server's own derivation, 503 Service Unavailable when the bounded
//!   submission queue is full, and otherwise a 200 whose body is the
//!   complete `"SHRS"`…`"SHRE"` result stream
//!   ([`shard::protocol::encode_results`]) of the whole campaign.
//!
//! Handler threads only validate and enqueue; a single executor thread
//! drains the FIFO [`SubmissionQueue`] and runs each campaign through
//! [`SocketFanout`]. One campaign executes at a time, in arrival order,
//! so concurrent clients get complete, unmixed result streams that are
//! byte-identical to serial execution at any worker count.

use crate::fanout::SocketFanout;
use crate::queue::SubmissionQueue;
use its_testbed::campaign::{CampaignRegistry, CampaignSpec};
use its_testbed::submission::{decode_submission, CampaignSubmission};
use openc2x::http::{HttpServer, Response, RunningServer};
use shard::protocol::encode_results;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// One accepted submission waiting for the executor thread.
struct Job {
    campaign: String,
    grid: Vec<CampaignSpec>,
    reply: mpsc::Sender<Vec<u8>>,
}

/// Fallback counters aggregated across every executed submission.
#[derive(Debug, Default)]
struct ServerStats {
    fallback_chunks: AtomicUsize,
    timed_out_chunks: AtomicUsize,
}

/// Builder for a campaign server bound to one registry.
#[derive(Debug)]
pub struct CampaignServer {
    registry: CampaignRegistry,
    workers: Vec<SocketAddr>,
    queue_depth: usize,
    timeout: Duration,
}

impl CampaignServer {
    /// A server offering `registry`'s campaigns, initially with no
    /// socket workers (submissions execute in-process) and a queue
    /// depth of 32.
    pub fn new(registry: CampaignRegistry) -> Self {
        Self {
            registry,
            workers: Vec::new(),
            queue_depth: 32,
            timeout: Duration::from_secs(120),
        }
    }

    /// Sets the socket workers to fan chunks out to — typically
    /// [`WorkerPool::workers`](crate::pool::WorkerPool::workers) after
    /// the expected count registered.
    #[must_use]
    pub fn with_workers(mut self, workers: Vec<SocketAddr>) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the maximum number of submissions waiting behind the one
    /// being executed; an arrival beyond it is answered 503. Zero
    /// refuses every submission.
    #[must_use]
    // detlint:allow(U1) tests/campaignd_determinism.rs drives a zero-depth queue into its 503 back-pressure path
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-chunk worker timeout (default 120 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving on
    /// background threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve(self, addr: &str) -> std::io::Result<RunningCampaignServer> {
        let registry = Arc::new(self.registry);
        let queue: Arc<SubmissionQueue<Job>> = Arc::new(SubmissionQueue::new(self.queue_depth));
        let stats = Arc::new(ServerStats::default());

        let executor = {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let workers = self.workers;
            let timeout = self.timeout;
            std::thread::spawn(move || {
                while let Some(job) = queue.next_job() {
                    let fanout = SocketFanout::new(&job.campaign, job.grid).with_timeout(timeout);
                    let flat = fanout.run_flat(&workers);
                    stats
                        .fallback_chunks
                        .fetch_add(fanout.fallback_chunks(), Ordering::Relaxed);
                    stats
                        .timed_out_chunks
                        .fetch_add(fanout.timed_out_chunks(), Ordering::Relaxed);
                    // A gone receiver just means the client hung up.
                    let _ = job.reply.send(encode_results(&flat));
                }
            })
        };

        let mut http = HttpServer::new();
        {
            let names = registry.names().collect::<Vec<_>>().join("\n");
            http.route("GET", "/campaigns", move |_| {
                Response::ok(names.clone().into_bytes())
            });
        }
        {
            let registry = Arc::clone(&registry);
            let queue = Arc::clone(&queue);
            http.route("POST", "/submit", move |req| {
                submit_route(&registry, &queue, &req.body)
            });
        }

        Ok(RunningCampaignServer {
            http: Some(http.serve(addr)?),
            queue,
            executor: Some(executor),
            stats,
        })
    }
}

/// The `POST /submit` handler body: validate, enqueue, await the
/// executor's result stream.
fn submit_route(
    registry: &CampaignRegistry,
    queue: &SubmissionQueue<Job>,
    body: &[u8],
) -> Response {
    let submission: CampaignSubmission = match decode_submission(body) {
        Ok(s) => s,
        Err(e) => return Response::bad_request(&e.to_string()),
    };
    let Some(grid) = registry.derive(&submission.campaign) else {
        return Response::not_found();
    };
    if !submission.matches(&grid) {
        return Response::with_status(
            409,
            "submission shape or fingerprint does not match the server's derivation",
        );
    }
    let (reply, result) = mpsc::channel();
    let job = Job {
        campaign: submission.campaign,
        grid,
        reply,
    };
    if queue.try_enqueue(job).is_err() {
        return Response::with_status(503, "campaign queue is full");
    }
    match result.recv() {
        Ok(bytes) => Response::ok(bytes),
        Err(_) => Response::with_status(503, "campaign server is shutting down"),
    }
}

/// Handle to a running campaign server; dropping it shuts everything
/// down (HTTP listener, queue, executor thread).
#[derive(Debug)]
pub struct RunningCampaignServer {
    http: Option<RunningServer>,
    queue: Arc<SubmissionQueue<Job>>,
    executor: Option<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("campaign", &self.campaign)
            .field("jobs", &self.grid.iter().map(|s| s.runs).sum::<usize>())
            .finish()
    }
}

impl RunningCampaignServer {
    /// The bound HTTP address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        // http is Some until shutdown consumes self.
        self.http
            .as_ref()
            .map(RunningServer::addr)
            .unwrap_or_else(|| {
                // Unreachable in practice; a parseable placeholder keeps
                // this path panic-free.
                SocketAddr::from(([127, 0, 0, 1], 0))
            })
    }

    /// Chunks any submission so far re-executed in-process because a
    /// worker failed ([`SocketFanout::fallback_chunks`] summed over
    /// submissions), asserted by the worker-kill recovery test.
    pub fn fallback_chunks(&self) -> usize {
        self.stats.fallback_chunks.load(Ordering::Relaxed)
    }

    /// The subset of [`Self::fallback_chunks`] caused by the per-chunk
    /// worker timeout.
    pub fn timed_out_chunks(&self) -> usize {
        self.stats.timed_out_chunks.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains nothing further, and joins the executor.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
        self.queue.close();
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RunningCampaignServer {
    fn drop(&mut self) {
        if self.executor.is_some() {
            self.stop_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, SubmitError};
    use its_testbed::campaign::{Executor, Serial};
    use its_testbed::submission::encode_submission;
    use its_testbed::{RunRecord, ScenarioConfig};
    use shard::transport::serve_connections;
    use std::net::TcpListener;

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![CampaignSpec::new(
            ScenarioConfig {
                seed: 7300,
                ..ScenarioConfig::default()
            },
            4,
        )]
    }

    fn other_grid() -> Vec<CampaignSpec> {
        vec![CampaignSpec::with_seed_offset(
            ScenarioConfig {
                seed: 7300,
                ..ScenarioConfig::default()
            },
            100,
            2,
        )]
    }

    fn registry() -> CampaignRegistry {
        CampaignRegistry::new()
            .register("demo", demo_grid)
            .register("other", other_grid)
    }

    fn spawn_worker() -> SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind worker");
        let addr = listener.local_addr().expect("worker addr");
        std::thread::spawn(move || serve_connections(&listener, &registry()));
        addr
    }

    fn serial_flat(grid: &[CampaignSpec]) -> Vec<RunRecord> {
        Serial.execute_grid(grid).into_iter().flatten().collect()
    }

    #[test]
    fn lists_campaigns_in_registration_order() {
        let server = CampaignServer::new(registry())
            .serve("127.0.0.1:0")
            .expect("serve");
        let names = client::list_campaigns(server.addr()).expect("list");
        assert_eq!(names, vec!["demo", "other"]);
        server.shutdown();
    }

    #[test]
    fn submission_body_is_exactly_the_result_stream() {
        let worker = spawn_worker();
        let server = CampaignServer::new(registry())
            .with_workers(vec![worker])
            .serve("127.0.0.1:0")
            .expect("serve");
        let frame = encode_submission(&CampaignSubmission::for_grid("demo", &demo_grid()));
        let resp = client::submit_raw(server.addr(), &frame).expect("post");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, encode_results(&serial_flat(&demo_grid())));
        assert_eq!(server.fallback_chunks(), 0);
        server.shutdown();
    }

    #[test]
    fn rejects_bad_frame_unknown_name_and_stale_fingerprint() {
        let server = CampaignServer::new(registry())
            .serve("127.0.0.1:0")
            .expect("serve");
        let addr = server.addr();

        let resp = client::submit_raw(addr, b"garbage").expect("post");
        assert_eq!(resp.status, 400);

        assert!(matches!(
            client::submit(addr, "nope", &demo_grid()),
            Err(SubmitError::Status(404, _))
        ));

        // Client derives "other"'s grid but names "demo": shapes and
        // fingerprints disagree with the server's derivation.
        let stale = CampaignSubmission::for_grid("demo", &other_grid());
        let resp = client::submit_raw(addr, &encode_submission(&stale)).expect("post");
        assert_eq!(resp.status, 409);
        server.shutdown();
    }

    #[test]
    fn zero_queue_depth_answers_503_and_retry_reports_it() {
        let server = CampaignServer::new(registry())
            .with_queue_depth(0)
            .serve("127.0.0.1:0")
            .expect("serve");
        let err = client::submit(server.addr(), "demo", &demo_grid()).unwrap_err();
        assert!(matches!(err, SubmitError::Status(503, _)));
        // The retry path exhausts its attempts against a permanently
        // full queue and surfaces the same 503.
        let policy = openc2x::http::RetryPolicy {
            max_attempts: 2,
            backoff_base: sim_core::SimDuration::from_millis(1),
            ..openc2x::http::RetryPolicy::default()
        };
        let err =
            client::submit_with_retry(server.addr(), "demo", &demo_grid(), &policy).unwrap_err();
        assert!(matches!(err, SubmitError::Status(503, _)));
        server.shutdown();
    }

    #[test]
    fn dead_worker_degrades_to_identical_stream() {
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let server = CampaignServer::new(registry())
            .with_workers(vec![dead])
            .serve("127.0.0.1:0")
            .expect("serve");
        let records = client::submit(server.addr(), "demo", &demo_grid()).expect("submit");
        assert_eq!(records, serial_flat(&demo_grid()));
        assert!(server.fallback_chunks() > 0);
        server.shutdown();
    }
}
