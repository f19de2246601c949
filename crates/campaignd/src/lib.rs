//! Campaign-as-a-service: socket workers and an HTTP campaign server
//! over the shard protocol (DESIGN.md §14).
//!
//! Crate `shard` defines the worker protocol and its socket carrier;
//! this crate coordinates it. Workers are long-lived socket servers
//! ([`shard::transport::serve_connections`], started with the hidden
//! `--shard-listen` flag or as in-process threads) that register with a
//! coordinator's [`WorkerPool`], and campaigns arrive over HTTP as
//! [`its_testbed::submission`] frames naming a
//! [`CampaignRegistry`](its_testbed::campaign::CampaignRegistry) entry.
//! The [`CampaignServer`] validates each submission against its own
//! derivation (404 unknown, 409 fingerprint mismatch, 503 queue
//! overflow), queues it FIFO, fans the flattened grid out to the
//! workers with the exact `runner::chunk_bounds` math every executor
//! shares, and streams back one `"SHRS"`…`"SHRE"` result stream —
//! byte-identical to [`its_testbed::campaign::Serial`] at any worker
//! count, under any concurrency, with any number of worker deaths.
//!
//! # The pieces
//!
//! * [`pool::WorkerPool`] — control port collecting `"SHRG"` worker
//!   registrations.
//! * [`queue::SubmissionQueue`] — bounded FIFO making concurrent
//!   submissions execute one at a time, in arrival order.
//! * [`fanout::SocketFanout`] — the chunk coordinator over
//!   `TcpTransport` links, with degraded-never-wrong chunk fallback.
//! * [`server::CampaignServer`] — the HTTP front door, reusing
//!   [`openc2x::http::HttpServer`].
//! * [`client`] — submit-by-name helpers, including
//!   [`client::submit_with_retry`] on the OBU poll path's
//!   [`openc2x::http::RetryPolicy`].
//!
//! # Example
//!
//! ```no_run
//! use campaignd::{CampaignServer, WorkerPool};
//! use its_testbed::campaign::{CampaignRegistry, CampaignSpec};
//! use its_testbed::ScenarioConfig;
//! use std::time::Duration;
//!
//! fn demo_grid() -> Vec<CampaignSpec> {
//!     vec![CampaignSpec::new(ScenarioConfig::default(), 16)]
//! }
//!
//! fn main() -> std::io::Result<()> {
//!     let registry = CampaignRegistry::new().register("demo", demo_grid);
//!     // Re-exec'd children enter worker mode here and never return.
//!     campaignd::socket_worker_main_if_requested(&registry);
//!
//!     let pool = WorkerPool::bind()?;
//!     let workers = campaignd::spawn_socket_workers(2, pool.ctrl_addr())?;
//!     assert!(pool.wait_for(2, Duration::from_secs(10)));
//!
//!     let server = CampaignServer::new(registry)
//!         .with_workers(pool.workers())
//!         .serve("127.0.0.1:0")?;
//!     let records = campaignd::client::submit(server.addr(), "demo", &demo_grid())
//!         .expect("submit");
//!     assert_eq!(records.len(), 16);
//!     drop(workers);
//!     server.shutdown();
//!     Ok(())
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod client;
pub mod fanout;
pub mod pool;
pub mod queue;
pub mod server;

pub use fanout::SocketFanout;
pub use pool::WorkerPool;
pub use queue::SubmissionQueue;
pub use server::{CampaignServer, RunningCampaignServer};
// The worker-mode entry points live in shard; re-exported so a campaign
// server binary needs only this crate.
pub use shard::transport::{socket_worker_main_if_requested, LISTEN_FLAG};

use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

/// Guard over re-exec'd socket worker processes: killed and reaped on
/// drop so tests and examples cannot leak children.
#[derive(Debug)]
pub struct WorkerProcs {
    children: Vec<Child>,
}

impl Drop for WorkerProcs {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Re-execs the current binary `n` times in `--shard-listen` socket
/// worker mode, each announcing itself to `ctrl` (a
/// [`WorkerPool::ctrl_addr`]). The host binary must call
/// [`socket_worker_main_if_requested`] first thing in `main`.
///
/// # Errors
///
/// Returns the first spawn error; already-spawned workers are reaped by
/// the returned guard's drop in that case.
pub fn spawn_socket_workers(n: usize, ctrl: SocketAddr) -> std::io::Result<WorkerProcs> {
    let exe = std::env::current_exe()?;
    let mut procs = WorkerProcs {
        children: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let child = Command::new(&exe)
            .arg(LISTEN_FLAG)
            .arg(ctrl.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        procs.children.push(child);
    }
    Ok(procs)
}
