//! Tier-1 regression test for campaigns on socket worker processes
//! (DESIGN.md §10/§14). Over 1/2/4 re-exec'd socket workers, table2,
//! table3 and the fault-sweep campaign (DESIGN.md §11) run through
//! [`FanoutExecutor`] to **byte-identical** output, and table2, table3
//! and a multi-spec city-style sweep submitted to the HTTP campaign
//! server stream the serial bytes — both with no chunk falling back.
//! Output stays identical when workers are killed mid-chunk (executor
//! and server), when a worker hangs until the executor's per-chunk
//! timeout shuts its connection, and when two clients submit
//! concurrently. Queue overflow answers a deterministic 503. The
//! 8-thread in-process runner is checked against the same references.
//!
//! `harness = false`: the workers are this very binary re-exec'd, so
//! `main` must dispatch `--shard-listen` before anything else instead of
//! handing control to libtest.

use campaignd::{client, CampaignServer, FanoutExecutor, RunningCampaignServer, WorkerPool};
use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Executor, Serial};
use its_testbed::experiments::{table2, table3, Table3};
use its_testbed::faultsweep::{fault_sweep, fault_sweep_specs};
use its_testbed::scenario::ScenarioConfig;
use its_testbed::submission::{encode_submission, CampaignSubmission};
use its_testbed::{RunRecord, Runner};
use shard::protocol::encode_results;
use shard::{HANG_ENV, KILL_ENV};
use std::net::SocketAddr;
use std::time::Duration;

/// Runs per table campaign: enough that 4 workers each get a multi-run
/// chunk.
const RUNS: usize = 24;

fn base() -> ScenarioConfig {
    ScenarioConfig {
        seed: 5000,
        ..ScenarioConfig::default()
    }
}

fn table2_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::new(base(), RUNS)]
}

fn table3_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::with_seed_offset(base(), 1000, RUNS)]
}

/// A city-style multi-spec sweep: cruise speed × 4 seeds each, so the
/// flattened grid crosses spec boundaries inside worker chunks.
fn city_sweep_grid() -> Vec<CampaignSpec> {
    [4.0f64, 6.0, 8.0]
        .iter()
        .map(|&v| {
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 5000,
                    cruise_speed_mps: v,
                    ..ScenarioConfig::default()
                },
                4,
            )
        })
        .collect()
}

/// Seeds per fault-sweep cell: the grid is 18 cells, so 2 seeds give 36
/// flat jobs — enough for every worker count here to get real chunks.
const FS_RUNS: usize = 2;

fn fs_base() -> ScenarioConfig {
    ScenarioConfig {
        seed: 6000,
        ..ScenarioConfig::default()
    }
}

fn faultsweep_grid() -> Vec<CampaignSpec> {
    fault_sweep_specs(&fs_base(), FS_RUNS)
}

// The table2/table3/faultsweep derivations mirror exactly what
// `experiments::table2`/`table3` and `fault_sweep` build internally, so
// the executor recognises their specs by fingerprint and fans them out
// instead of falling back.
fn registry() -> CampaignRegistry {
    CampaignRegistry::new()
        .register("table2", table2_grid)
        .register("table3", table3_grid)
        .register("city_sweep", city_sweep_grid)
        .register("faultsweep", faultsweep_grid)
}

const CAMPAIGNS: [(&str, fn() -> Vec<CampaignSpec>); 3] = [
    ("table2", table2_grid),
    ("table3", table3_grid),
    ("city_sweep", city_sweep_grid),
];

fn serial_stream(grid: &[CampaignSpec]) -> Vec<u8> {
    let flat: Vec<RunRecord> = Serial.execute_grid(grid).into_iter().flatten().collect();
    encode_results(&flat)
}

fn braking_bits(t: &Table3) -> Vec<u64> {
    t.braking_m.iter().map(|b| b.to_bits()).collect()
}

fn check(name: &str, ok: bool, failures: &mut usize) {
    if ok {
        println!("ok   {name}");
    } else {
        println!("FAIL {name}");
        *failures += 1;
    }
}

/// Re-execs `n` socket workers and waits for them to register. Workers
/// inherit the environment at spawn, so injection variables must be set
/// before this call.
fn spawn_workers(n: usize) -> (campaignd::WorkerProcs, Vec<SocketAddr>) {
    let pool = WorkerPool::bind().expect("bind worker control port");
    let procs = campaignd::spawn_socket_workers(n, pool.ctrl_addr()).expect("spawn workers");
    assert!(
        pool.wait_for(n, Duration::from_secs(30)),
        "{n} workers failed to register"
    );
    (procs, pool.workers())
}

/// A campaign server fanning out to `workers`.
fn serve(workers: &[SocketAddr]) -> RunningCampaignServer {
    CampaignServer::new(registry())
        .with_workers(workers.to_vec())
        .with_timeout(Duration::from_secs(300))
        .serve("127.0.0.1:0")
        .expect("bind campaign server")
}

/// The socket-worker executor bound to one registered campaign.
fn executor(campaign: &str, workers: &[SocketAddr]) -> FanoutExecutor {
    let grid = registry().derive(campaign).expect("registered");
    FanoutExecutor::new(campaign, grid, workers.to_vec()).with_timeout(Duration::from_secs(300))
}

/// No chunk was re-run in-process and the grid was the bound one, so
/// every record crossed a socket.
fn no_fallback(exec: &FanoutExecutor) -> bool {
    exec.fallback_chunks() == 0 && exec.fallback_grids() == 0
}

fn main() {
    let registry = registry();
    // Re-exec'd children take this exit and never reach the assertions.
    campaignd::socket_worker_main_if_requested(&registry);

    let mut failures = 0usize;

    // Reference streams and tables from the plain serial loop.
    let serial: Vec<(&str, Vec<u8>)> = CAMPAIGNS
        .iter()
        .map(|&(name, grid)| (name, serial_stream(&grid())))
        .collect();
    let t2_serial = table2(&Serial, &base(), RUNS).render();
    let t3_serial = braking_bits(&table3(&Serial, &base(), RUNS));
    let fs_serial = fault_sweep(&Serial, &fs_base(), FS_RUNS);

    // In-process thread pool at 8 workers (oversubscription is fine).
    let threaded = Runner::new(8);
    check(
        "table2: 8-thread runner matches serial",
        table2(&threaded, &base(), RUNS).render() == t2_serial,
        &mut failures,
    );
    check(
        "table3: 8-thread runner matches serial (bitwise)",
        braking_bits(&table3(&threaded, &base(), RUNS)) == t3_serial,
        &mut failures,
    );
    check(
        "faultsweep: 8-thread runner matches serial",
        fault_sweep(&threaded, &fs_base(), FS_RUNS) == fs_serial,
        &mut failures,
    );

    // The server's catalogue is the registry, in registration order.
    {
        let (procs, workers) = spawn_workers(1);
        let server = serve(&workers);
        let names = client::list_campaigns(server.addr()).expect("list campaigns");
        check(
            "GET /campaigns lists the registry in order",
            names == vec!["table2", "table3", "city_sweep", "faultsweep"],
            &mut failures,
        );
        drop(procs);
        server.shutdown();
    }

    // Byte identity at every worker count, with no chunk falling back
    // in-process: the executor's tables must equal serial, and the raw
    // HTTP body must equal the serial result stream.
    for workers in [1usize, 2, 4] {
        let (procs, addrs) = spawn_workers(workers);

        let exec = executor("table2", &addrs);
        check(
            &format!("table2: {workers}-worker executor matches serial, no fallback"),
            table2(&exec, &base(), RUNS).render() == t2_serial && no_fallback(&exec),
            &mut failures,
        );
        let exec = executor("table3", &addrs);
        check(
            &format!("table3: {workers}-worker executor matches serial (bitwise), no fallback"),
            braking_bits(&table3(&exec, &base(), RUNS)) == t3_serial && no_fallback(&exec),
            &mut failures,
        );
        let exec = executor("faultsweep", &addrs);
        let sweep = fault_sweep(&exec, &fs_base(), FS_RUNS);
        check(
            &format!("faultsweep: {workers}-worker executor matches serial, no fallback"),
            sweep == fs_serial
                && sweep.fingerprint() == fs_serial.fingerprint()
                && no_fallback(&exec),
            &mut failures,
        );

        let server = serve(&addrs);
        for (name, expected) in &serial {
            let grid = registry.derive(name).expect("registered");
            let frame = encode_submission(&CampaignSubmission::for_grid(name, &grid));
            let resp = client::submit_raw(server.addr(), &frame).expect("submit");
            check(
                &format!("{name}: {workers}-worker server streams serial bytes"),
                resp.status == 200 && &resp.body == expected,
                &mut failures,
            );
        }
        check(
            &format!("{workers}-worker server took no fallback"),
            server.fallback_chunks() == 0,
            &mut failures,
        );
        drop(procs);
        server.shutdown();
    }

    // Kill injection: chunks 0 and 2 of 4 die mid-chunk (result magic
    // written, records missing, connection dropped). The executor and
    // the server must detect both truncations, re-run those chunks
    // in-process, and still produce the exact serial bytes.
    std::env::set_var(KILL_ENV, "0,2");
    {
        let (procs, addrs) = spawn_workers(4);
        let exec = executor("table2", &addrs);
        check(
            "table2: 4-worker executor with killed chunks 0,2 matches serial, 2 fell back",
            table2(&exec, &base(), RUNS).render() == t2_serial && exec.fallback_chunks() == 2,
            &mut failures,
        );
        let exec = executor("table3", &addrs);
        check(
            "table3: 4-worker executor with killed chunks 0,2 matches serial, 2 fell back",
            braking_bits(&table3(&exec, &base(), RUNS)) == t3_serial && exec.fallback_chunks() == 2,
            &mut failures,
        );

        let server = serve(&addrs);
        let grid = table2_grid();
        let frame = encode_submission(&CampaignSubmission::for_grid("table2", &grid));
        let resp = client::submit_raw(server.addr(), &frame).expect("submit");
        check(
            "table2: 4-worker server with killed chunks 0,2 streams serial bytes",
            resp.status == 200 && resp.body == serial_stream(&grid),
            &mut failures,
        );
        check(
            "kill injection actually exercised the fallback",
            server.fallback_chunks() == 2,
            &mut failures,
        );
        drop(procs);
        server.shutdown();
    }
    std::env::remove_var(KILL_ENV);

    // Hang injection: chunk 1 of 4 reads its assignment and then never
    // writes a byte. The executor's result timeout must shut the
    // connection, count the chunk as timed out, re-run it in-process,
    // and still merge to the exact serial bytes.
    std::env::set_var(HANG_ENV, "1");
    {
        let (procs, addrs) = spawn_workers(4);
        let exec = executor("table2", &addrs).with_timeout(Duration::from_secs(5));
        check(
            "table2: 4-worker executor with hung chunk 1 matches serial",
            table2(&exec, &base(), RUNS).render() == t2_serial,
            &mut failures,
        );
        check(
            "hang injection tripped the chunk timeout",
            exec.timed_out_chunks() == 1 && exec.fallback_chunks() == 1,
            &mut failures,
        );
        drop(procs);
    }
    std::env::remove_var(HANG_ENV);

    // Two concurrent clients: submissions are queued FIFO and executed
    // one at a time, so each client's stream is complete, unmixed, and
    // byte-identical to its own serial reference.
    {
        let (procs, addrs) = spawn_workers(2);
        let server = serve(&addrs);
        let addr = server.addr();
        let handles: Vec<_> = [("table2", table2_grid()), ("table3", table3_grid())]
            .into_iter()
            .map(|(name, grid)| {
                std::thread::spawn(move || {
                    let expected = serial_stream(&grid);
                    let frame = encode_submission(&CampaignSubmission::for_grid(name, &grid));
                    (0..3).all(|_| {
                        let resp = client::submit_raw(addr, &frame).expect("submit");
                        resp.status == 200 && resp.body == expected
                    })
                })
            })
            .collect();
        let all_ok = handles
            .into_iter()
            .all(|h| h.join().expect("client thread"));
        check(
            "two concurrent clients each get their own serial bytes, thrice",
            all_ok,
            &mut failures,
        );
        drop(procs);
        server.shutdown();
    }

    // Queue overflow: a zero-depth queue refuses every submission with
    // a deterministic 503, and the retry client surfaces it after its
    // backoff schedule is exhausted.
    {
        let server = CampaignServer::new(registry.clone())
            .with_queue_depth(0)
            .serve("127.0.0.1:0")
            .expect("bind campaign server");
        let grid = table2_grid();
        let err = client::submit(server.addr(), "table2", &grid).unwrap_err();
        check(
            "zero queue depth answers 503",
            matches!(err, client::SubmitError::Status(503, _)),
            &mut failures,
        );
        let policy = openc2x::http::RetryPolicy {
            max_attempts: 2,
            backoff_base: sim_core::SimDuration::from_millis(1),
            ..openc2x::http::RetryPolicy::default()
        };
        let err = client::submit_with_retry(server.addr(), "table2", &grid, &policy).unwrap_err();
        check(
            "submit_with_retry exhausts its attempts against a full queue",
            matches!(err, client::SubmitError::Status(503, _)),
            &mut failures,
        );
        server.shutdown();
    }

    if failures > 0 {
        eprintln!("campaignd_determinism: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("campaignd_determinism: all checks passed");
}
