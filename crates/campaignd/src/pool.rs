//! Worker registration: the coordinator's control port.
//!
//! Socket workers are started *somewhere* (a re-exec'd `--shard-listen`
//! child, an in-process thread in tests, in principle another machine)
//! and dial home: each one binds its own ephemeral listener and
//! announces that address to the coordinator's control port with the
//! `"SHRG"` registration frame
//! ([`shard::transport::announce_worker`]). The [`WorkerPool`] owns the
//! control listener, collects announcements on a background accept
//! thread, and hands the campaign server a stable, arrival-ordered
//! worker list.

use shard::transport::read_announcement;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Collects socket-worker registrations on a control port.
#[derive(Debug)]
pub struct WorkerPool {
    ctrl_addr: SocketAddr,
    workers: Arc<Mutex<Vec<SocketAddr>>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Binds a loopback control port and starts accepting
    /// registrations.
    ///
    /// # Errors
    ///
    /// Returns the bind error when no ephemeral port is available.
    pub fn bind() -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let ctrl_addr = listener.local_addr()?;
        let workers = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let workers = Arc::clone(&workers);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // A malformed announcement is that worker's
                    // problem, not the pool's: skip it, keep accepting.
                    let Ok(addr) = read_announcement(&mut stream) else {
                        continue;
                    };
                    if let Ok(mut list) = workers.lock() {
                        list.push(addr);
                    }
                }
            })
        };
        Ok(Self {
            ctrl_addr,
            workers,
            stop,
            accept: Some(accept),
        })
    }

    /// The control address workers announce themselves to — the value
    /// to pass as `--shard-listen <addr>`.
    pub fn ctrl_addr(&self) -> SocketAddr {
        self.ctrl_addr
    }

    /// Registers a worker directly, bypassing the control port — for
    /// in-process workers in tests.
    #[cfg(test)]
    pub fn register(&self, worker: SocketAddr) {
        if let Ok(mut list) = self.workers.lock() {
            list.push(worker);
        }
    }

    /// Snapshot of the registered workers, in arrival order.
    pub fn workers(&self) -> Vec<SocketAddr> {
        self.workers
            .lock()
            .map(|list| list.clone())
            .unwrap_or_default()
    }

    /// Polls until at least `n` workers have registered, sleeping
    /// between checks; `false` when `timeout` elapses first. (Pure
    /// sleep-loop accounting — the deterministic codebase bans wall
    /// clocks, and registration waits don't need them.)
    pub fn wait_for(&self, n: usize, timeout: Duration) -> bool {
        let poll = Duration::from_millis(10);
        let mut waited = Duration::ZERO;
        loop {
            if self.workers().len() >= n {
                return true;
            }
            if waited >= timeout {
                return false;
            }
            std::thread::sleep(poll);
            waited += poll;
        }
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Kick the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.ctrl_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard::transport::announce_worker;

    #[test]
    fn announced_workers_arrive_in_order() {
        let pool = WorkerPool::bind().expect("bind pool");
        let a: SocketAddr = "127.0.0.1:40001".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:40002".parse().unwrap();
        announce_worker(pool.ctrl_addr(), a).expect("announce a");
        assert!(pool.wait_for(1, Duration::from_secs(5)));
        announce_worker(pool.ctrl_addr(), b).expect("announce b");
        assert!(pool.wait_for(2, Duration::from_secs(5)));
        assert_eq!(pool.workers(), vec![a, b]);
    }

    #[test]
    fn direct_registration_and_timeout() {
        let pool = WorkerPool::bind().expect("bind pool");
        assert!(!pool.wait_for(1, Duration::from_millis(30)));
        pool.register("127.0.0.1:40003".parse().unwrap());
        assert!(pool.wait_for(1, Duration::from_secs(5)));
    }

    #[test]
    fn garbage_on_the_control_port_is_ignored() {
        use std::io::Write;
        let pool = WorkerPool::bind().expect("bind pool");
        let mut s = TcpStream::connect(pool.ctrl_addr()).expect("connect");
        s.write_all(b"not a registration").expect("write");
        drop(s);
        let real: SocketAddr = "127.0.0.1:40004".parse().unwrap();
        announce_worker(pool.ctrl_addr(), real).expect("announce");
        assert!(pool.wait_for(1, Duration::from_secs(5)));
        assert_eq!(pool.workers(), vec![real]);
    }
}
