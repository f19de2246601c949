//! End-to-end benchmark and per-layer ledger for the ITS scale testbed.
//!
//! One binary runs three workloads (see [`catalogue::WORKLOADS`]):
//!
//! * `paper_campaign` — Table II + Table III, 256 runs each, on the
//!   in-process thread runner ([`paper`]);
//! * `city_2000` — `run_city` at N = 2000 ([`city`]);
//! * `campaign_service` — the `campaignd` HTTP server with re-exec'd
//!   socket workers and closed-loop clients ([`service`]).
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that times the benchmark's own calls into each layer's
//! public functions with [`ledger`] spans and reduces them to the
//! per-layer metrics of [`catalogue::LAYERS`]. Each workload checks its
//! outputs against a serial reference computed outside the timed
//! region; a failed check fails the run it belongs to.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod city;
pub mod ledger;
pub mod paper;
pub mod replay;
pub mod service;

use catalogue::{END_TO_END, LAYERS, WORKLOADS};
use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed; 0 is the default and also checks the tracked
    /// fingerprints.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str =
    "usage: perfbench --workload <paper_campaign|city_2000|campaign_service|all> \
     [--seed N] [--seconds N] [--trace 0|1]";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// Returns a message for unknown flags, missing or malformed values,
/// unknown workloads and a zero `--seconds`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload `{}`", out.workload));
    }
    if out.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(out)
}

/// What the process actually used, reported with every result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostUse {
    /// Runner threads computing scenario runs.
    pub threads: usize,
    /// Socket worker processes.
    pub workers: usize,
    /// Concurrent client connections.
    pub clients: usize,
}

/// One workload's result before printing.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Runs (or submissions) attempted in the measured region.
    pub attempted: u64,
    /// Attempts that panicked, were refused, or failed an output check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Measured metrics by name: `(value, unit)`.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Threads, workers and clients used.
    pub host: HostUse,
    /// Extra facts printed before the result line (sample counts,
    /// reconciliation details).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records a failed check; `failed` counts the attempts it spoils.
    pub fn fail(&mut self, failed: u64, problem: String) {
        self.failed += failed;
        self.problems.push(problem);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), MiB; `None` when `/proc` does not say.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time the hypervisor took from this machine, summed over CPUs, in
/// 1/100 s ticks (`steal` in `/proc/stat`). Printed with every result
/// because it moves every wall-clock metric and no code change does.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Maps `--seed` onto the scenario seed space: seed 0 is the bench base
/// seed 20230627 behind the tracked fingerprints, and each further seed
/// moves a whole 2000-seed block so Table II (`+0..256`) and Table III
/// (`+1000..1256`) never overlap another seed's runs.
pub fn scenario_base_seed(seed: u64) -> u64 {
    20_230_627 + (seed % 1_000_000_000) * 2000
}

/// Directory, relative to the checkout root, the traced run writes its
/// spans to.
pub const SPAN_DIR: &str = "perfbench/out";

/// Writes the traced run's spans to
/// `perfbench/out/spans-<workload>-seed<seed>.tsv`; a write failure is
/// reported on stderr and does not fail the run.
pub fn write_spans(workload: &str, seed: u64, ledger: &ledger::Ledger) {
    let path = format!("{SPAN_DIR}/spans-{workload}-seed{seed}.tsv");
    let written = std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            ledger.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {path}",
            ledger.spans().len()
        ),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}

/// Allocation counter supplied by the binary's global allocator.
pub type AllocCounter = fn() -> u64;

/// Runs one workload and returns its outcome.
pub fn run_workload(name: &str, args: &Args, allocs: AllocCounter) -> Outcome {
    match (name, args.trace) {
        (catalogue::PAPER, false) => paper::measure(args),
        (catalogue::PAPER, true) => paper::trace(args, allocs),
        (catalogue::CITY, false) => city::measure(args),
        (catalogue::CITY, true) => city::trace(args, allocs),
        (catalogue::SERVICE, false) => service::measure(args),
        (catalogue::SERVICE, true) => service::trace(args),
        _ => unreachable!("parse_args accepts only catalogued workloads"),
    }
}

/// Checks that `outcome` carries every metric its mode must report and
/// fills the per-layer metrics of layers the workload never calls with
/// 0. Returns the metric list in catalogue order.
pub fn complete_metrics(
    workload: &str,
    trace: bool,
    outcome: &mut Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = Vec::new();
    if trace {
        for layer in &LAYERS {
            let value = match outcome.metrics.get(layer.name) {
                Some(&(v, _)) => v,
                None if !layer.on.contains(&workload) => 0.0,
                None => {
                    outcome.fail(0, format!("{workload} did not measure {}", layer.name));
                    0.0
                }
            };
            out.push((layer.name, value, layer.unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match outcome.metrics.get(name) {
                Some(&(v, _)) => v,
                None => {
                    outcome.fail(0, format!("{workload} did not measure {name}"));
                    0.0
                }
            };
            out.push((name, value, unit));
        }
    }
    out
}

/// Renders the result line: one JSON object with `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Host facts line: cores, what the workload used, build profile and
/// compiler.
pub fn host_json(workload: &str, host: &HostUse) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"nproc\": {}, \"threads\": {}, \"workers\": {}, \"clients\": {}, \"profile\": \"{}\", \"rustc\": \"{}\"}}",
        nproc(),
        host.threads,
        host.workers,
        host.clients,
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Entry point after worker-mode dispatch: runs the workload(s) named
/// by `args`, prints notes and host facts, then the result line last.
/// Returns the process exit code.
pub fn main_with(args: &Args, allocs: AllocCounter) -> i32 {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let prefix = names.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    for name in names {
        let steal_before = steal_ticks();
        let mut outcome = run_workload(name, args, allocs);
        if let (Some(before), Some(after)) = (steal_before, steal_ticks()) {
            outcome.notes.push(format!(
                "hypervisor steal during the workload: {} ticks of 1/100 s across all CPUs",
                after.saturating_sub(before)
            ));
        }
        let parallel = name != catalogue::CITY;
        if parallel && outcome.host.threads.max(outcome.host.workers) < 2 {
            eprintln!(
                "perfbench: {name} ran on {} thread(s) and {} worker(s); a parallel workload measured \
                 on fewer than 2 is not reported (nproc = {})",
                outcome.host.threads,
                outcome.host.workers,
                nproc()
            );
            return 3;
        }
        let list = complete_metrics(name, args.trace, &mut outcome);
        for note in &outcome.notes {
            println!("# {name}: {note}");
        }
        for problem in &outcome.problems {
            println!("# {name}: CHECK FAILED: {problem}");
        }
        println!("# host {}", host_json(name, &outcome.host));
        println!(
            "# {name}: output check {}",
            if outcome.correct() {
                "passed"
            } else {
                "FAILED"
            }
        );
        for (metric, value, unit) in &list {
            println!("#   {metric:<34} {value:>14.6} {unit}");
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.correct();
        metrics.extend(list.into_iter().map(|(m, v, u)| {
            let key = if prefix {
                format!("{name}.{m}")
            } else {
                m.to_owned()
            };
            (key, v, u)
        }));
    }
    // A fallback chunk fails its run without being an attempt of its
    // own, so failures are capped at the attempts they spoil.
    let attempted = attempted.max(1);
    let failed = failed.min(attempted);
    println!("{}", result_json(correct, attempted, failed, &metrics));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(argv("--workload city_2000 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, "city_2000");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(argv("--workload nope")).is_err());
        assert!(parse_args(argv("--workload all --trace 2")).is_err());
        assert!(parse_args(argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(argv("--workload all --seed")).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn seed_blocks_never_overlap() {
        assert_eq!(scenario_base_seed(0), 20_230_627);
        assert_eq!(scenario_base_seed(1) - scenario_base_seed(0), 2000);
        assert!(scenario_base_seed(u64::MAX) < u64::MAX / 2);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
