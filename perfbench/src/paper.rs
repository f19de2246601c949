//! `paper_campaign`: the paper's Table II + Table III Monte-Carlo (256
//! runs per table) on the in-process thread runner at `nproc` threads.
//!
//! The two tables' campaigns run through [`CampaignSpec::execute`], the
//! call `experiments::table2`/`table3` make, rather than through those
//! functions: they panic when a run of the block does not complete (a
//! missed detection, as at scenario seed 262573973800), while the
//! campaign returns that run's record like any other. Every record is
//! checked against the serial reference either way.

use crate::catalogue::PAPER;
use crate::ledger::{now_ns, secs, Ledger, ROOT};
use crate::replay::{names, replay_run, Replayed};
use crate::{
    median, nproc, peak_rss_mib, quantile, scenario_base_seed, AllocCounter, Args, Outcome,
};
use its_testbed::campaign::{CampaignSpec, Serial};
use its_testbed::scenario::{RunRecord, Scenario, ScenarioConfig};
use runner::Runner;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs per table, as in the tracked fingerprints.
pub const RUNS_PER_TABLE: usize = 256;
/// Runs of the warm-up campaign timed as set-up.
const WARMUP_RUNS: usize = 32;

/// The bench base configuration at workload seed `seed`.
pub fn base_config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed: scenario_base_seed(seed),
        ..ScenarioConfig::default()
    }
}

/// The two campaigns: Table II's consecutive block and Table III's
/// `+1000` block.
pub fn specs(base: &ScenarioConfig) -> [CampaignSpec; 2] {
    [
        CampaignSpec::new(base.clone(), RUNS_PER_TABLE),
        CampaignSpec::with_seed_offset(base.clone(), 1000, RUNS_PER_TABLE),
    ]
}

/// The serial reference both tables are checked against.
struct Reference {
    /// Wire-encoded records of Table II and of Table III.
    encoded: [Vec<Vec<u8>>; 2],
    /// Records of both tables, Table II first.
    records: Vec<RunRecord>,
    /// Simulated seconds of both tables together.
    sim_s: f64,
}

fn reference(base: &ScenarioConfig) -> Reference {
    let [s2, s3] = specs(base);
    let r2 = s2.execute(&Serial);
    let r3 = s3.execute(&Serial);
    let sim_s = r2
        .iter()
        .chain(&r3)
        .map(|r| {
            r.step6_halt
                .map_or(base.timeout.as_secs_f64(), |t| t.as_nanos() as f64 / 1e9)
        })
        .sum();
    Reference {
        encoded: [
            r2.iter().map(RunRecord::encode).collect(),
            r3.iter().map(RunRecord::encode).collect(),
        ],
        records: r2.into_iter().chain(r3).collect(),
        sim_s,
    }
}

/// Notes the reference runs that did not complete end to end; they are
/// valid records, checked like the rest.
fn note_incomplete(reference: &Reference, o: &mut Outcome) {
    let incomplete = reference.records.iter().filter(|r| !r.completed()).count();
    if incomplete > 0 {
        o.notes.push(format!(
            "{incomplete} of {} reference runs did not complete (experiments::table2/table3 would panic on this block)",
            reference.records.len()
        ));
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// At the default seed, the tracked fingerprints: Table II mean total
/// delay 53.6602 ms and Table III mean braking distance 0.376621 m.
fn check_fingerprints(seed: u64, reference: &Reference, o: &mut Outcome) {
    if seed != 0 {
        return;
    }
    let totals: Vec<f64> = reference.records[..RUNS_PER_TABLE]
        .iter()
        .map(|r| r.total_delay_ms().map_or(f64::NAN, |d| d as f64))
        .collect();
    let braking: Vec<f64> = reference.records[RUNS_PER_TABLE..]
        .iter()
        .map(|r| r.braking_distance_m().unwrap_or(f64::NAN))
        .collect();
    let t2 = format!("{:.4}", mean(&totals));
    let t3 = format!("{:.6}", mean(&braking));
    if t2 != "53.6602" || t3 != "0.376621" {
        o.fail(
            (2 * RUNS_PER_TABLE) as u64,
            format!(
                "fingerprints moved: table2 {t2} ms (want 53.6602), table3 {t3} m (want 0.376621)"
            ),
        );
    }
    o.notes
        .push(format!("fingerprints table2 {t2} ms, table3 {t3} m"));
}

/// One table's campaign on `runner`; returns its host seconds and the
/// runs that failed their check.
fn timed_table(spec: &CampaignSpec, runner: &Runner, want: &[Vec<u8>]) -> (f64, u64) {
    let t0 = now_ns();
    let out = catch_unwind(AssertUnwindSafe(|| spec.execute(runner)));
    let elapsed = secs(t0, now_ns());
    let failed = match out {
        Ok(records) if records.len() == want.len() => records
            .iter()
            .zip(want)
            .filter(|(r, want)| r.encode() != **want)
            .count(),
        Ok(_) | Err(_) => want.len(),
    };
    (elapsed, failed as u64)
}

/// The untraced run: end-to-end metrics.
pub fn measure(args: &Args) -> Outcome {
    let threads = nproc();
    let base = base_config(args.seed);
    let mut o = Outcome::default();
    o.host.threads = threads;
    let reference = reference(&base);
    check_fingerprints(args.seed, &reference, &mut o);
    note_incomplete(&reference, &mut o);
    let tables = specs(&base);

    // A set-up is a fresh runner plus a short warm-up campaign; the
    // runner then serves the next timed pair. One set-up precedes every
    // pair, so the `setup_s` median spans the whole run and not only
    // its first second.
    let warmup = CampaignSpec::new(base.clone(), WARMUP_RUNS);
    let mut setups = Vec::new();

    // Whole Table II + Table III pairs until the time is up, so both
    // tables weigh equally in every statistic.
    let mut latencies = Vec::new();
    let start = now_ns();
    while secs(start, now_ns()) < args.seconds as f64 || latencies.is_empty() {
        let t0 = now_ns();
        let runner = Runner::new(threads);
        std::hint::black_box(warmup.execute(&runner));
        setups.push(secs(t0, now_ns()));
        for (which, spec) in tables.iter().enumerate() {
            let (elapsed, failed) = timed_table(spec, &runner, &reference.encoded[which]);
            latencies.push(elapsed * 1e3);
            o.attempted += RUNS_PER_TABLE as u64;
            if failed > 0 {
                o.fail(
                    failed,
                    format!(
                        "{failed} runs of table {} differ from the serial reference",
                        which + 2
                    ),
                );
            }
        }
    }
    o.notes.push(format!(
        "{} table campaigns of {RUNS_PER_TABLE} runs at {threads} threads; campaign latencies ms {:.1?}; {} set-ups",
        latencies.len(),
        latencies,
        setups.len()
    ));
    // Throughput from the median table campaign: the host's speed
    // drifts by ±10% over seconds, and the median resists that drift
    // better than a mean.
    let runs_per_s = RUNS_PER_TABLE as f64 * 1e3 / median(&latencies);
    let sim_s_per_run = reference.sim_s / reference.records.len() as f64;
    o.set("runs_per_s", runs_per_s, "1/s");
    o.set("realtime_factor", sim_s_per_run * runs_per_s, "ratio");
    o.set("latency_p50_ms", median(&latencies), "ms");
    o.set("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    o.set("setup_s", median(&setups), "s");
    o.set("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
    o
}

/// The paper layers' per-layer metrics from a ledger holding replays of
/// `runs` runs.
pub fn set_replay_metrics(o: &mut Outcome, ledger: &Ledger, runs: u64, replayed: &Replayed) {
    let runs_f = runs.max(1) as f64;
    let (steer_calls, _) = ledger.total(names::STEERING);
    o.set(
        "vehicle.linefollow_us",
        ledger.per_call(names::STEERING, 1e3),
        "us",
    );
    o.set(
        "vehicle.linefollow_calls",
        steer_calls as f64 / runs_f,
        "count",
    );
    o.set(
        "perception.frame_us",
        ledger.per_call(names::FRAME, 1e3),
        "us",
    );
    o.set(
        "facilities.cam_tx_us",
        ledger.per_call(names::CAM_TX, 1e3),
        "us",
    );
    o.set(
        "geonet.cam_rx_us",
        ledger.per_call(names::CAM_RX, 1e3),
        "us",
    );
    o.set(
        "facilities.denm_tx_us",
        ledger.per_call(names::DENM_TX, 1e3),
        "us",
    );
    o.set(
        "its-messages.denm_decode_us",
        ledger.per_call(names::DENM_DECODE, 1e3),
        "us",
    );
    o.set(
        "openc2x.channel_access_us",
        ledger.per_call(names::ACCESS, 1e3),
        "us",
    );
    o.set(
        "sim-core.queue_ns",
        ledger.per_call(names::QUEUE, 1.0),
        "ns",
    );
    o.set(
        "sim-core.trace_ns",
        ledger.per_call(names::TRACE, 1.0),
        "ns",
    );
    o.set(
        "phy80211p.channel_ns",
        ledger.per_call(names::CHANNEL, 1.0),
        "ns",
    );
    o.set(
        "phy80211p.link_cache_hit_ratio",
        replayed.cache_hits as f64 / replayed.evals.max(1) as f64,
        "ratio",
    );
    o.set(
        "phy80211p.evals_per_run",
        replayed.evals as f64 / runs_f,
        "count",
    );
}

/// Host ns spent in the replayed layers.
pub fn replay_layer_ns(ledger: &Ledger) -> u64 {
    names::ALL.iter().map(|n| ledger.total(n).1).sum()
}

fn add(a: Replayed, b: Replayed) -> Replayed {
    Replayed {
        ticks: a.ticks + b.ticks,
        frames: a.frames + b.frames,
        denms: a.denms + b.denms,
        evals: a.evals + b.evals,
        cache_hits: a.cache_hits + b.cache_hits,
    }
}

/// Replays `records` (run `j` configured by `configs[j]`) on `runner`
/// and merges the ledgers in run order.
pub fn replay_all(
    runner: &Runner,
    configs: &[ScenarioConfig],
    records: &[RunRecord],
    first_id: u64,
) -> (Ledger, Replayed) {
    let parts = runner.run(records.len(), |j| {
        let mut ledger = Ledger::new();
        let id = first_id + j as u64;
        let t0 = now_ns();
        let job = ledger.open("replay.run", id, ROOT);
        let r = replay_run(&configs[j], &records[j], id, &mut ledger, job);
        ledger.add(job, t0, now_ns());
        (ledger, r)
    });
    let mut ledger = Ledger::new();
    let mut total = Replayed::default();
    for (l, r) in parts {
        ledger.absorb(l);
        total = add(total, r);
    }
    (ledger, total)
}

/// Per-run configurations of `specs`, in run order.
pub fn run_configs(specs: &[CampaignSpec]) -> Vec<ScenarioConfig> {
    specs
        .iter()
        .flat_map(|spec| {
            (0..spec.runs).map(move |i| ScenarioConfig {
                seed: spec.base.seed + spec.seeds.seed_index(i),
                ..spec.base.clone()
            })
        })
        .collect()
}

/// The traced run: per-layer metrics.
pub fn trace(args: &Args, allocs: AllocCounter) -> Outcome {
    let threads = nproc();
    let base = base_config(args.seed);
    let mut o = Outcome::default();
    o.host.threads = threads;
    let reference = reference(&base);
    check_fingerprints(args.seed, &reference, &mut o);
    note_incomplete(&reference, &mut o);
    let configs = run_configs(&specs(&base));
    let runs = configs.len() as u64;
    let runner = Runner::new(threads);
    let untraced = || runner.run(configs.len(), |j| Scenario::new(configs[j].clone()).run());
    // One full untraced pass first, so neither timed pass pays for
    // cold caches.
    std::hint::black_box(untraced());

    // Untraced: the same jobs with no spans, for the overhead baseline.
    let a0 = allocs();
    let t0 = now_ns();
    let plain = untraced();
    let untraced_s = secs(t0, now_ns());
    let allocs_per_run = (allocs() - a0) as f64 / runs as f64;
    std::hint::black_box(plain);

    // Traced: one span per job, children around Scenario::new and run.
    let t0 = now_ns();
    let parts = runner.run(configs.len(), |j| {
        let mut ledger = Ledger::new();
        let id = j as u64;
        let start = now_ns();
        let job = ledger.open("runner.job", id, ROOT);
        let scenario = ledger.time("core.scenario_new", id, job, || {
            Scenario::new(configs[j].clone())
        });
        let record = ledger.time("core.scenario_run", id, job, || scenario.run());
        ledger.add(job, start, now_ns());
        (ledger, record)
    });
    let traced_s = secs(t0, now_ns());
    let mut ledger = Ledger::new();
    let mut mismatched = 0u64;
    for (j, (l, record)) in parts.into_iter().enumerate() {
        ledger.absorb(l);
        if record.encode() != reference.records[j].encode() {
            mismatched += 1;
        }
    }
    o.attempted = runs;
    if mismatched > 0 {
        o.fail(
            mismatched,
            format!("{mismatched} traced runs differ from the serial reference"),
        );
    }

    let (replayed_ledger, replayed) = replay_all(&runner, &configs, &reference.records, 0);
    if replayed.denms
        != reference
            .records
            .iter()
            .filter(|r| r.step3_rsu_send.is_some())
            .count() as u64
    {
        o.fail(
            0,
            "replay sent a different number of DENMs than the runs".into(),
        );
    }
    let layer_ns = replay_layer_ns(&replayed_ledger);
    set_replay_metrics(&mut o, &replayed_ledger, runs, &replayed);

    let (_, new_ns) = ledger.total("core.scenario_new");
    let (_, run_ns) = ledger.total("core.scenario_run");
    let (_, job_ns) = ledger.total("runner.job");
    let events: u64 = reference.records.iter().map(|r| r.events_dispatched).sum();
    let evals_per_run = replayed.evals as f64 / runs as f64;
    o.set(
        "core.scenario_new_us",
        ledger.per_call("core.scenario_new", 1e3),
        "us",
    );
    o.set(
        "core.host_ns_per_event",
        run_ns as f64 / events.max(1) as f64,
        "ns",
    );
    o.set("core.allocs_per_run", allocs_per_run, "count");
    o.set(
        "runner.busy_share",
        job_ns as f64 / 1e9 / (threads as f64 * traced_s),
        "ratio",
    );
    o.set(
        "phy80211p.host_ns_per_eval",
        untraced_s * 1e9 * threads as f64 / runs as f64 / evals_per_run.max(1e-9),
        "ns",
    );
    o.set(
        "core.allocs_per_eval",
        allocs_per_run / evals_per_run.max(1e-9),
        "count",
    );
    let measured_ns = (new_ns + run_ns) as f64;
    o.set(
        "core.unattributed_share",
        1.0 - layer_ns as f64 / measured_ns.max(1.0),
        "ratio",
    );
    o.set(
        "core.tracing_overhead_share",
        traced_s / untraced_s - 1.0,
        "ratio",
    );
    o.notes.push(format!(
        "ledger: replayed layers {:.1} ms vs Scenario::new + run {:.1} ms over {runs} runs; untraced {:.3} s, traced {:.3} s",
        layer_ns as f64 / 1e6,
        measured_ns / 1e6,
        untraced_s,
        traced_s
    ));
    ledger.absorb(replayed_ledger);
    crate::write_spans(PAPER, args.seed, &ledger);
    o
}
