//! `campaign_service`: the `campaignd` HTTP campaign server with
//! `nproc` re-exec'd socket workers, driven by `nproc` closed-loop
//! clients (each waits for its result stream before submitting again).
//!
//! Every submission is a 2-run campaign of the paper scenario, one of
//! [`BLOCKS`] registered seed blocks; client `c` cycles through blocks
//! `c, c + clients, …` so concurrent clients never submit the same
//! block. The workers derive the registry themselves, so they receive
//! the workload seed through the environment ([`SEED_ENV`]); a worker
//! that derived a different seed refuses its chunk, and the refusal
//! shows up as a fallback chunk, which fails the run.

use crate::catalogue::SERVICE;
use crate::ledger::{now_ns, secs, Ledger, ROOT};
use crate::paper::{base_config, replay_all, replay_layer_ns, run_configs, set_replay_metrics};
use crate::{median, nproc, peak_rss_mib, quantile, Args, HostUse, Outcome};
use campaignd::{CampaignServer, RunningCampaignServer, SocketFanout, WorkerPool, LISTEN_FLAG};
use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Executor, Serial};
use its_testbed::submission::{encode_submission, CampaignSubmission};
use its_testbed::RunRecord;
use runner::Runner;
use shard::protocol::{compute_chunk, decode_result_stream, encode_results, FLAT_GRID};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Environment variable carrying the workload seed to socket workers.
pub const SEED_ENV: &str = "PERFBENCH_SEED";
/// Registered seed blocks.
pub const BLOCKS: usize = 16;
/// Runs per submission.
pub const RUNS_PER_SUBMISSION: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Marks "no seed known" (a worker started without [`SEED_ENV`]).
const UNSET: u64 = u64::MAX;

/// The workload seed the registry derives from; set before any server
/// thread or worker process exists.
static SEED: AtomicU64 = AtomicU64::new(UNSET);

fn block<const K: usize>() -> Vec<CampaignSpec> {
    let seed = SEED.load(Ordering::SeqCst);
    if seed == UNSET {
        // No seed, no campaign: the fingerprint handshake then refuses.
        return Vec::new();
    }
    vec![CampaignSpec::with_seed_offset(
        base_config(seed),
        (K * RUNS_PER_SUBMISSION) as u64,
        RUNS_PER_SUBMISSION,
    )]
}

const BLOCK_NAMES: [&str; BLOCKS] = [
    "paper-block-00",
    "paper-block-01",
    "paper-block-02",
    "paper-block-03",
    "paper-block-04",
    "paper-block-05",
    "paper-block-06",
    "paper-block-07",
    "paper-block-08",
    "paper-block-09",
    "paper-block-10",
    "paper-block-11",
    "paper-block-12",
    "paper-block-13",
    "paper-block-14",
    "paper-block-15",
];

type Derive = fn() -> Vec<CampaignSpec>;

const BLOCK_FNS: [Derive; BLOCKS] = [
    block::<0>,
    block::<1>,
    block::<2>,
    block::<3>,
    block::<4>,
    block::<5>,
    block::<6>,
    block::<7>,
    block::<8>,
    block::<9>,
    block::<10>,
    block::<11>,
    block::<12>,
    block::<13>,
    block::<14>,
    block::<15>,
];

/// The seed blocks as a campaign registry.
pub fn registry() -> CampaignRegistry {
    BLOCK_NAMES
        .iter()
        .zip(BLOCK_FNS)
        .fold(CampaignRegistry::new(), |r, (name, f)| r.register(name, f))
}

/// Enters socket-worker mode — and never returns — when the binary was
/// re-exec'd as a worker; the seed comes from [`SEED_ENV`].
pub fn worker_main_if_requested() {
    let worker = std::env::args().any(|a| a == LISTEN_FLAG || a.starts_with("--shard-listen="));
    if !worker {
        return;
    }
    if let Some(seed) = std::env::var(SEED_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        SEED.store(seed, Ordering::SeqCst);
    }
    campaignd::socket_worker_main_if_requested(&registry());
}

/// Re-exec'd socket workers, killed and reaped on drop. Spawned here
/// rather than with `campaignd::spawn_socket_workers` because the
/// benchmark needs the child pids (peak RSS) and passes the seed
/// explicitly in each child's environment.
struct Workers {
    children: Vec<Child>,
}

impl Workers {
    fn spawn(n: usize, ctrl: SocketAddr, seed: u64) -> std::io::Result<Workers> {
        let exe = std::env::current_exe()?;
        let mut w = Workers {
            children: Vec::new(),
        };
        for _ in 0..n {
            w.children.push(
                Command::new(&exe)
                    .arg(LISTEN_FLAG)
                    .arg(ctrl.to_string())
                    .env(SEED_ENV, seed.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()?,
            );
        }
        Ok(w)
    }

    fn peak_rss_mib(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| peak_rss_mib(&c.id().to_string()))
            .sum()
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running server with its workers.
struct Service {
    server: RunningCampaignServer,
    addr: SocketAddr,
    workers: Workers,
    worker_addrs: Vec<SocketAddr>,
    _pool: WorkerPool,
}

impl Service {
    /// Binds the control port, spawns and registers `n` workers, and
    /// starts the HTTP server.
    fn start(n: usize, seed: u64) -> Result<Service, String> {
        let pool = WorkerPool::bind().map_err(|e| format!("bind control port: {e}"))?;
        let workers =
            Workers::spawn(n, pool.ctrl_addr(), seed).map_err(|e| format!("spawn workers: {e}"))?;
        let t0 = now_ns();
        while pool.workers().len() < n {
            if secs(t0, now_ns()) > 30.0 {
                return Err(format!(
                    "only {} of {n} workers registered",
                    pool.workers().len()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let worker_addrs = pool.workers();
        let server = CampaignServer::new(registry())
            .with_workers(worker_addrs.clone())
            .with_timeout(Duration::from_secs(60))
            .serve("127.0.0.1:0")
            .map_err(|e| format!("bind server: {e}"))?;
        let addr = server.addr();
        Ok(Service {
            server,
            addr,
            workers,
            worker_addrs,
            _pool: pool,
        })
    }

    fn stop(self) {
        self.server.shutdown();
        drop(self.workers);
    }
}

/// What a client knows: each block's grid, its serial result stream,
/// its per-run configurations and its simulated seconds.
struct Blocks {
    grids: Vec<Vec<CampaignSpec>>,
    expected: Vec<Vec<u8>>,
    records: Vec<Vec<RunRecord>>,
    sim_s: Vec<f64>,
}

fn blocks() -> Blocks {
    let reg = registry();
    let grids: Vec<Vec<CampaignSpec>> = BLOCK_NAMES
        .iter()
        .map(|n| reg.derive(n).expect("every block is registered"))
        .collect();
    let records: Vec<Vec<RunRecord>> = grids
        .iter()
        .map(|g| Serial.execute_grid(g).into_iter().flatten().collect())
        .collect();
    Blocks {
        expected: records.iter().map(|r| encode_results(r)).collect(),
        sim_s: records
            .iter()
            .map(|rs| {
                rs.iter()
                    .map(|r| r.step6_halt.map_or(30.0, |t| t.as_nanos() as f64 / 1e9))
                    .sum()
            })
            .collect(),
        grids,
        records,
    }
}

/// One submission's outcome.
struct Submitted {
    block: usize,
    latency_s: f64,
    /// Completion time, seconds after the closed loop started.
    end_s: f64,
    error: Option<String>,
}

/// Submits block `k` and checks the served bytes; spans go to `ledger`
/// when given.
fn submit(
    addr: SocketAddr,
    k: usize,
    b: &Blocks,
    ledger: Option<&mut Ledger>,
    id: u64,
) -> Submitted {
    let t0 = now_ns();
    let frame = encode_submission(&CampaignSubmission::for_grid(BLOCK_NAMES[k], &b.grids[k]));
    let t1 = now_ns();
    let resp = campaignd::client::submit_raw(addr, &frame);
    let t2 = now_ns();
    let (decoded, body) = match resp {
        Ok(r) if r.status == 200 => (
            decode_result_stream(&r.body).map_err(|e| e.to_string()),
            r.body,
        ),
        Ok(r) => (Err(format!("HTTP {}", r.status)), Vec::new()),
        Err(e) => (Err(e.to_string()), Vec::new()),
    };
    let t3 = now_ns();
    if let Some(l) = ledger {
        let s = l.record("service.submission", id, ROOT, t0, t3);
        l.record("core.encode_submission", id, s, t0, t1);
        l.record("openc2x.post_submit", id, s, t1, t2);
        l.record("shard.decode_result_stream", id, s, t2, t3);
    }
    let error = match decoded {
        Err(e) => Some(e),
        Ok(records) if records.len() != RUNS_PER_SUBMISSION => {
            Some(format!("{} records", records.len()))
        }
        Ok(_) if body != b.expected[k] => {
            Some("served bytes differ from the serial result stream".into())
        }
        Ok(_) => None,
    };
    Submitted {
        block: k,
        latency_s: secs(t0, t3),
        end_s: 0.0,
        error,
    }
}

/// `clients` closed-loop clients for `seconds`; returns every
/// submission, the wall time, and the clients' ledgers when traced.
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    seconds: f64,
    b: &Blocks,
    traced: bool,
) -> (Vec<Submitted>, f64, Ledger) {
    let t0 = now_ns();
    let parts: Vec<(Vec<Submitted>, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut ledger = Ledger::new();
                    let mut out = Vec::new();
                    let mut i = 0usize;
                    while secs(t0, now_ns()) < seconds || out.is_empty() {
                        let k = (c + clients * i) % BLOCKS;
                        let id = (c * 1_000_000 + i) as u64;
                        let mut sub = submit(addr, k, b, traced.then_some(&mut ledger), id);
                        sub.end_s = secs(t0, now_ns());
                        out.push(sub);
                        i += 1;
                    }
                    (out, ledger)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(t0, now_ns());
    let mut all = Vec::new();
    let mut ledger = Ledger::new();
    for (subs, l) in parts {
        all.extend(subs);
        ledger.absorb(l);
    }
    (all, wall, ledger)
}

/// Windows the end-to-end metrics are medians over: the host's speed
/// drifts over seconds and steal comes in bursts, so a median over
/// about one-second windows resists both better than whole-run figures.
struct Windows {
    /// Window length, seconds.
    length_s: f64,
    /// Runs completed per second, one entry per window.
    runs_per_s: Vec<f64>,
    /// Simulated seconds completed per host second, per window.
    realtime_factor: Vec<f64>,
    /// Median latency of the submissions completed in each window that
    /// has any, ms.
    p50_ms: Vec<f64>,
    /// 90th-percentile latency of the same, ms.
    p90_ms: Vec<f64>,
}

impl Windows {
    /// Splits `[0, seconds)` into whole windows of about one second and
    /// reduces the successful submissions `ok` that completed in each.
    /// A window's rates count the submissions after its first completion
    /// over the time from that completion to its last, so they are not
    /// quantised to whole submissions per window. Submissions still in
    /// flight when the time was up are left out.
    fn of(ok: &[&Submitted], b: &Blocks, seconds: f64) -> Windows {
        let count = (seconds.floor() as usize).max(1);
        let length_s = seconds / count as f64;
        let mut bins: Vec<Vec<&Submitted>> = vec![Vec::new(); count];
        for s in ok {
            let w = (s.end_s / length_s).floor() as usize;
            if w < count {
                bins[w].push(s);
            }
        }
        let mut w = Windows {
            length_s,
            runs_per_s: Vec::with_capacity(count),
            realtime_factor: Vec::with_capacity(count),
            p50_ms: Vec::with_capacity(count),
            p90_ms: Vec::with_capacity(count),
        };
        for bin in &mut bins {
            bin.sort_by(|x, y| x.end_s.total_cmp(&y.end_s));
            let (runs, sim_s, span_s) = match (bin.first(), bin.last()) {
                (Some(first), Some(last)) if bin.len() > 1 && last.end_s > first.end_s => (
                    (bin.len() - 1) * RUNS_PER_SUBMISSION,
                    bin[1..].iter().map(|s| b.sim_s[s.block]).sum::<f64>(),
                    last.end_s - first.end_s,
                ),
                _ => (
                    bin.len() * RUNS_PER_SUBMISSION,
                    bin.iter().map(|s| b.sim_s[s.block]).sum::<f64>(),
                    length_s,
                ),
            };
            w.runs_per_s.push(runs as f64 / span_s);
            w.realtime_factor.push(sim_s / span_s);
            if !bin.is_empty() {
                let lat: Vec<f64> = bin.iter().map(|s| s.latency_s * 1e3).collect();
                w.p50_ms.push(median(&lat));
                w.p90_ms.push(quantile(&lat, 0.9));
            }
        }
        if w.p50_ms.is_empty() {
            // Every submission outlasted the run: whole-run quantiles.
            let all: Vec<f64> = ok.iter().map(|s| s.latency_s * 1e3).collect();
            w.p50_ms.push(median(&all));
            w.p90_ms.push(quantile(&all, 0.9));
        }
        w
    }
}

/// Counts failed submissions into `o`; returns the latencies in ms.
fn account(o: &mut Outcome, subs: &[Submitted]) -> Vec<f64> {
    o.attempted += subs.len() as u64;
    let mut lat = Vec::with_capacity(subs.len());
    for s in subs {
        match &s.error {
            Some(e) => o.fail(1, format!("block {}: {e}", s.block)),
            None => lat.push(s.latency_s * 1e3),
        }
    }
    lat
}

/// Fails the run when any chunk fell back to in-process execution.
fn check_fallbacks(o: &mut Outcome, fallback: usize, timed_out: usize) {
    if fallback > 0 || timed_out > 0 {
        o.fail(
            fallback as u64,
            format!("{fallback} chunks fell back in-process ({timed_out} timed out): a worker refused or failed"),
        );
    }
}

fn prepare(args: &Args) -> (usize, Blocks, Outcome) {
    SEED.store(args.seed, Ordering::SeqCst);
    let n = nproc();
    let o = Outcome {
        host: HostUse {
            threads: 0,
            workers: n,
            clients: n,
        },
        ..Outcome::default()
    };
    (n, blocks(), o)
}

/// The untraced run: end-to-end metrics.
pub fn measure(args: &Args) -> Outcome {
    let (n, b, mut o) = prepare(args);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut service = None;
    for _ in 0..SETUPS {
        if let Some(s) = service.take() {
            Service::stop(s);
        }
        let t0 = now_ns();
        let s = match Service::start(n, args.seed) {
            Ok(s) => s,
            Err(e) => {
                o.fail(1, e);
                return o;
            }
        };
        let warm = submit(s.addr, 0, &b, None, 0);
        setups.push(secs(t0, now_ns()));
        if let Some(e) = warm.error {
            o.fail(1, format!("warm-up submission: {e}"));
        }
        service = Some(s);
    }
    let Some(service) = service else { return o };

    let (subs, wall, _) = closed_loop(service.addr, n, args.seconds as f64, &b, false);
    let lat = account(&mut o, &subs);
    check_fallbacks(
        &mut o,
        service.server.fallback_chunks(),
        service.server.timed_out_chunks(),
    );
    let ok: Vec<&Submitted> = subs.iter().filter(|s| s.error.is_none()).collect();
    let w = Windows::of(&ok, &b, args.seconds as f64);
    o.notes.push(format!(
        "{} submissions of {RUNS_PER_SUBMISSION} runs by {n} closed-loop clients over {n} socket workers in {wall:.2} s; latency samples = {}; medians over {} windows of {:.2} s",
        subs.len(),
        lat.len(),
        w.runs_per_s.len(),
        w.length_s
    ));
    o.set("runs_per_s", median(&w.runs_per_s), "1/s");
    o.set("realtime_factor", median(&w.realtime_factor), "ratio");
    o.set("latency_p50_ms", median(&w.p50_ms), "ms");
    o.set("latency_p90_ms", median(&w.p90_ms), "ms");
    o.set("setup_s", median(&setups), "s");
    let rss = peak_rss_mib("self").unwrap_or(0.0) + service.workers.peak_rss_mib();
    o.set("peak_rss_mb", rss, "MiB");
    service.stop();
    o
}

/// The traced run: per-layer metrics. Phases, each a share of
/// `--seconds`: two clients untraced (overhead baseline), one client
/// traced, the fan-out without HTTP, each chunk computed in-process,
/// HTTP round trips with a trivial handler, and two clients traced.
pub fn trace(args: &Args) -> Outcome {
    let (n, b, mut o) = prepare(args);
    let service = match Service::start(n, args.seed) {
        Ok(s) => s,
        Err(e) => {
            o.fail(1, e);
            return o;
        }
    };
    let phase = args.seconds as f64 / 5.0;
    let mut ledger = Ledger::new();
    std::hint::black_box(submit(service.addr, 0, &b, None, 0));

    let (plain2, _, _) = closed_loop(service.addr, n, phase, &b, false);
    let plain2 = account(&mut o, &plain2);
    let (one, _, l1) = closed_loop(service.addr, 1, phase, &b, true);
    let one = account(&mut o, &one);
    let encode_ms = l1.per_call("core.encode_submission", 1e6);
    let decode_ms = l1.per_call("shard.decode_result_stream", 1e6);
    ledger.absorb(l1);

    // The fan-out alone, with the result stream encoded as the server
    // would, and every chunk computed in-process.
    let (mut fallback, mut timed_out) = (0, 0);
    let mut slowest_chunk_ms = Vec::new();
    let mut wire_bytes = 0usize;
    let t0 = now_ns();
    let mut i = 0usize;
    while secs(t0, now_ns()) < phase || i == 0 {
        let k = i % BLOCKS;
        let id = i as u64;
        let fanout = SocketFanout::new(BLOCK_NAMES[k], b.grids[k].clone());
        let flat = ledger.time("campaignd.run_flat", id, ROOT, || {
            fanout.run_flat(&service.worker_addrs)
        });
        fallback += fanout.fallback_chunks();
        timed_out += fanout.timed_out_chunks();
        let bytes = ledger.time("shard.encode_results", id, ROOT, || encode_results(&flat));
        o.attempted += 1;
        if bytes != b.expected[k] {
            o.fail(
                1,
                format!("fan-out of block {k} differs from the serial result stream"),
            );
        }
        wire_bytes += bytes.len();
        let mut slowest = 0.0f64;
        for w in 0..n.min(RUNS_PER_SUBMISSION) {
            let (lo, hi) = runner::chunk_bounds(RUNS_PER_SUBMISSION, n.min(RUNS_PER_SUBMISSION), w);
            let t = now_ns();
            let chunk = compute_chunk(&b.grids[k], FLAT_GRID, lo, hi);
            let end = now_ns();
            ledger.record("shard.compute_chunk", id, ROOT, t, end);
            std::hint::black_box(chunk.is_ok());
            slowest = slowest.max(secs(t, end) * 1e3);
        }
        slowest_chunk_ms.push(slowest);
        i += 1;
    }
    let fanouts = i;

    let t0 = now_ns();
    let mut round_trips = 0u64;
    while secs(t0, now_ns()) < phase / 4.0 || round_trips == 0 {
        let t = now_ns();
        let listed = campaignd::client::list_campaigns(service.addr);
        ledger.record("openc2x.http_roundtrip", round_trips, ROOT, t, now_ns());
        if listed.map_or(true, |names| names.len() != BLOCKS) {
            o.fail(0, "GET /campaigns did not list every block".into());
        }
        round_trips += 1;
    }

    let (two, _, l2) = closed_loop(service.addr, n, phase, &b, true);
    let two = account(&mut o, &two);
    ledger.absorb(l2);
    check_fallbacks(
        &mut o,
        service.server.fallback_chunks() + fallback,
        service.server.timed_out_chunks() + timed_out,
    );

    let fanout_ms = ledger.per_call("campaignd.run_flat", 1e6);
    let slowest_ms = slowest_chunk_ms.iter().sum::<f64>() / slowest_chunk_ms.len().max(1) as f64;
    // The ledger sums means, so it reconciles against the mean latency.
    let one_mean = one.iter().sum::<f64>() / one.len().max(1) as f64;
    let http_rt_ms = ledger.per_call("openc2x.http_roundtrip", 1e6);
    let records_per = RUNS_PER_SUBMISSION as f64;
    o.set("core.submission_encode_us", encode_ms * 1e3, "us");
    o.set("campaignd.fanout_ms", fanout_ms, "ms");
    o.set(
        "shard.chunk_compute_ms",
        ledger.per_call("shard.compute_chunk", 1e6),
        "ms",
    );
    o.set("shard.transport_ms", fanout_ms - slowest_ms, "ms");
    o.set(
        "openc2x.http_ms",
        one_mean - encode_ms - fanout_ms - decode_ms,
        "ms",
    );
    o.set("campaignd.queue_wait_ms", median(&two) - median(&one), "ms");
    o.set(
        "shard.encode_us_per_record",
        ledger.per_call("shard.encode_results", 1e3) / records_per,
        "us",
    );
    o.set(
        "shard.decode_us_per_record",
        decode_ms * 1e3 / records_per,
        "us",
    );
    o.set(
        "core.wire_bytes_per_record",
        wire_bytes as f64 / (fanouts as f64 * records_per),
        "bytes",
    );
    o.set(
        "campaignd.fanout_efficiency",
        slowest_ms / fanout_ms.max(1e-9),
        "ratio",
    );
    o.set(
        "campaignd.fallback_chunks",
        (service.server.fallback_chunks() + fallback) as f64,
        "count",
    );
    o.set(
        "campaignd.timed_out_chunks",
        (service.server.timed_out_chunks() + timed_out) as f64,
        "count",
    );
    let attributed = encode_ms + http_rt_ms + fanout_ms + decode_ms;
    o.set(
        "core.unattributed_share",
        1.0 - attributed / one_mean.max(1e-9),
        "ratio",
    );
    o.set(
        "core.tracing_overhead_share",
        median(&two) / median(&plain2).max(1e-9) - 1.0,
        "ratio",
    );
    o.notes.push(format!(
        "ledger: one-client mean {one_mean:.3} ms = encode {encode_ms:.4} + HTTP round trip {http_rt_ms:.3} + fan-out {fanout_ms:.3} \
         (slowest chunk {slowest_ms:.3}) + decode {decode_ms:.4} + unattributed; {} one-client, {} two-client submissions, {fanouts} direct fan-outs",
        one.len(),
        two.len()
    ));

    // The paper layers behind every block's runs, replayed in-process.
    let configs = run_configs(&b.grids.concat());
    let records: Vec<RunRecord> = b.records.iter().flatten().cloned().collect();
    let (replayed_ledger, replayed) = replay_all(&Runner::new(n), &configs, &records, 0);
    set_replay_metrics(&mut o, &replayed_ledger, records.len() as u64, &replayed);
    o.notes.push(format!(
        "replayed paper layers of {} block runs: {:.1} ms",
        records.len(),
        replay_layer_ns(&replayed_ledger) as f64 / 1e6
    ));
    ledger.absorb(replayed_ledger);
    service.stop();
    crate::write_spans(SERVICE, args.seed, &ledger);
    o
}
