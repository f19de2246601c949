//! Chunk fan-out over socket workers.
//!
//! [`SocketFanout::run_flat`] is the workspace's one chunk coordinator:
//! chunks come from the shared [`runner::chunk_bounds`] math over the
//! grid's [`FlatGrid`], every assignment is sent eagerly over a
//! [`TcpTransport`] so workers compute concurrently, chunks are
//! collected and merged strictly in chunk order, and any chunk whose
//! worker fails, stalls, or refuses is re-executed in-process
//! ([`shard::protocol::compute_chunk`]) for identical bytes. Worker
//! count, worker death, and worker order therefore never change a
//! single output byte.

use its_testbed::campaign::{grid_fingerprint, CampaignSpec, FlatGrid};
use its_testbed::RunRecord;
use shard::protocol::{compute_chunk, encode_assignment, Assignment, FLAT_GRID};
use shard::transport::{collect_chunk, ChunkFailure, TcpTransport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Fans one campaign grid out across socket workers and merges the
/// chunks deterministically.
#[derive(Debug)]
pub struct SocketFanout {
    campaign: String,
    grid: Vec<CampaignSpec>,
    grid_fp: u64,
    timeout: Duration,
    fallback_chunks: AtomicUsize,
    timed_out_chunks: AtomicUsize,
}

impl SocketFanout {
    /// A fan-out for `campaign`'s derived `grid`. The fingerprint sent
    /// in every assignment is computed here, from the server's own
    /// derivation.
    pub fn new(campaign: &str, grid: Vec<CampaignSpec>) -> Self {
        let grid_fp = grid_fingerprint(&grid);
        Self {
            campaign: campaign.to_owned(),
            grid,
            grid_fp,
            timeout: Duration::from_secs(120),
            fallback_chunks: AtomicUsize::new(0),
            timed_out_chunks: AtomicUsize::new(0),
        }
    }

    /// Replaces the per-chunk result timeout (default 120 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Chunks re-executed in-process because a worker failed, timed
    /// out, or refused its assignment.
    pub fn fallback_chunks(&self) -> usize {
        self.fallback_chunks.load(Ordering::Relaxed)
    }

    /// The subset of [`Self::fallback_chunks`] caused by the per-chunk
    /// timeout specifically.
    pub fn timed_out_chunks(&self) -> usize {
        self.timed_out_chunks.load(Ordering::Relaxed)
    }

    /// Runs the whole flattened grid across `workers` and returns the
    /// flat records in job order — byte-identical to serial execution
    /// at any worker count, including zero (pure local execution).
    pub fn run_flat(&self, workers: &[SocketAddr]) -> Vec<RunRecord> {
        let jobs = FlatGrid::new(&self.grid).jobs();
        if jobs == 0 {
            return Vec::new();
        }
        if workers.is_empty() {
            // No workers is a configuration, not a failure: serve
            // in-process without touching the fallback counters.
            return self.local(0, jobs);
        }
        let n = workers.len().min(jobs);
        let chunks: Vec<(usize, usize)> =
            (0..n).map(|w| runner::chunk_bounds(jobs, n, w)).collect();

        // Assign every worker its chunk up front — each TcpTransport
        // starts its reader at send_frame, so workers compute
        // concurrently while we collect in chunk order below.
        let links: Vec<Option<TcpTransport>> = chunks
            .iter()
            .enumerate()
            .map(|(w, &(lo, hi))| {
                let addr = workers.get(w).copied()?;
                let mut link = TcpTransport::connect(addr).ok()?;
                let frame = encode_assignment(&Assignment {
                    worker_index: w as u32,
                    campaign: self.campaign.clone(),
                    grid_fp: self.grid_fp,
                    spec_index: FLAT_GRID,
                    lo: lo as u64,
                    hi: hi as u64,
                });
                link.send_frame(&frame, hi - lo).ok()?;
                Some(link)
            })
            .collect();

        let mut out = Vec::with_capacity(jobs);
        for (link, &(lo, hi)) in links.into_iter().zip(&chunks) {
            let collected = match link {
                Some(mut link) => collect_chunk(&mut link, hi - lo, self.timeout),
                None => Err(ChunkFailure::Failed("worker unreachable".into())),
            };
            match collected {
                Ok(records) => out.extend(records),
                Err(failure) => {
                    if failure == ChunkFailure::TimedOut {
                        self.timed_out_chunks.fetch_add(1, Ordering::Relaxed);
                    }
                    self.fallback_chunks.fetch_add(1, Ordering::Relaxed);
                    out.extend(self.local(lo, hi));
                }
            }
        }
        out
    }

    /// In-process execution of flat jobs `lo..hi` — the worker's exact
    /// compute step, used for zero-worker serving and chunk fallback.
    fn local(&self, lo: usize, hi: usize) -> Vec<RunRecord> {
        // The bounds come from the FlatGrid of this same grid, so the
        // error arm is unreachable; an empty chunk (not a panic) is the
        // contained failure mode if that invariant ever broke.
        compute_chunk(&self.grid, FLAT_GRID, lo, hi).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use its_testbed::campaign::{CampaignRegistry, Executor, Serial};
    use its_testbed::ScenarioConfig;
    use shard::protocol::max_result_stream;
    use shard::transport::serve_connections;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn demo_grid() -> Vec<CampaignSpec> {
        vec![
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 7200,
                    ..ScenarioConfig::default()
                },
                3,
            ),
            CampaignSpec::with_seed_offset(
                ScenarioConfig {
                    seed: 7200,
                    ..ScenarioConfig::default()
                },
                500,
                2,
            ),
        ]
    }

    fn spawn_worker() -> SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind worker");
        let addr = listener.local_addr().expect("worker addr");
        std::thread::spawn(move || {
            let registry = CampaignRegistry::new().register("demo", demo_grid);
            serve_connections(&listener, &registry);
        });
        addr
    }

    fn serial_flat() -> Vec<RunRecord> {
        Serial
            .execute_grid(&demo_grid())
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn zero_workers_serve_locally_without_fallback() {
        let fanout = SocketFanout::new("demo", demo_grid());
        assert_eq!(fanout.run_flat(&[]), serial_flat());
        assert_eq!(fanout.fallback_chunks(), 0);
    }

    #[test]
    fn socket_workers_match_serial_at_one_and_three() {
        for n in [1, 3] {
            let workers: Vec<SocketAddr> = (0..n).map(|_| spawn_worker()).collect();
            let fanout = SocketFanout::new("demo", demo_grid());
            assert_eq!(fanout.run_flat(&workers), serial_flat(), "{n} workers");
            assert_eq!(fanout.fallback_chunks(), 0, "{n} workers");
        }
    }

    #[test]
    fn dead_worker_falls_back_to_identical_bytes() {
        // One live worker, one address nobody listens on.
        let live = spawn_worker();
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let fanout = SocketFanout::new("demo", demo_grid());
        assert_eq!(fanout.run_flat(&[live, dead]), serial_flat());
        assert_eq!(fanout.fallback_chunks(), 1);
        assert_eq!(fanout.timed_out_chunks(), 0);
    }

    #[test]
    fn oversized_result_stream_fails_the_chunk_before_the_timeout() {
        // A worker that sends one MiB past the chunk's result-stream cap
        // and then holds the connection open.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let flood = max_result_stream(FlatGrid::new(&demo_grid()).jobs()) + (1 << 20);
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut assignment = Vec::new();
            conn.read_to_end(&mut assignment).expect("read assignment");
            let _ = conn.write_all(&vec![0u8; flood]);
            // Hold the connection open until the test is done.
            let _ = release_rx.recv();
        });
        let fanout = SocketFanout::new("demo", demo_grid()).with_timeout(Duration::from_secs(2));
        assert_eq!(fanout.run_flat(&[addr]), serial_flat());
        assert_eq!(fanout.fallback_chunks(), 1);
        assert_eq!(fanout.timed_out_chunks(), 0);
        drop(release);
        worker.join().expect("fake worker");
    }

    #[test]
    fn foreign_grid_is_refused_and_recovered() {
        // Worker derives "demo"; we ask for a different campaign name
        // it does not know — every chunk is refused and recovered.
        let worker = spawn_worker();
        let grid = vec![CampaignSpec::new(
            ScenarioConfig {
                seed: 9999,
                ..ScenarioConfig::default()
            },
            2,
        )];
        let fanout = SocketFanout::new("unknown", grid.clone());
        let flat: Vec<RunRecord> = Serial.execute_grid(&grid).into_iter().flatten().collect();
        assert_eq!(fanout.run_flat(&[worker]), flat);
        assert_eq!(fanout.fallback_chunks(), 1);
    }
}
