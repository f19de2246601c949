//! Shared helpers for the benchmark harness.
//!
//! Every bench regenerates one table or figure of the paper: it first
//! prints the artefact (so `cargo bench` output contains the same rows
//! the paper reports) and then measures the underlying computation with
//! Criterion.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use its_testbed::scenario::ScenarioConfig;
use runner::Runner;

/// The base configuration used by every table/figure bench, seeded so
/// that all benches report from the same simulated campaign.
pub fn base_config() -> ScenarioConfig {
    ScenarioConfig {
        seed: 20230627,
        ..ScenarioConfig::default()
    }
}

/// The campaign runner every bench executes its Monte-Carlo loops on:
/// worker count from `RUNNER_THREADS` or the machine. Thread count
/// never changes the reported numbers (see DESIGN.md §8), only how fast
/// they arrive.
pub fn campaign_runner() -> Runner {
    Runner::from_env()
}

/// One timed side (serial or parallel) of the campaign-throughput bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSide {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole (Table II + Table III) campaign.
    pub seconds: f64,
    /// Completed scenario runs per second of wall-clock time.
    pub runs_per_sec: f64,
    /// Wall-clock nanoseconds per dispatched simulation event (measured
    /// over the Table II sub-campaign, whose records carry event counts).
    pub ns_per_event: f64,
    /// Heap allocations per scenario run (counting-allocator proxy).
    pub allocs_per_run: f64,
    /// Heap bytes requested per scenario run (counting-allocator proxy).
    pub alloc_bytes_per_run: f64,
}

/// Logical CPUs available to this process: the `nproc` host fact of
/// every tracked bench file.
pub fn host_nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of the bench binary (`"release"` or `"debug"`): the
/// `profile` host fact of every tracked bench file.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The full campaign-throughput measurement written to
/// `BENCH_campaign.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignMeasurement {
    /// Logical CPUs available to the bench process.
    pub nproc: usize,
    /// Build profile of the bench binary (`"release"` or `"debug"`).
    pub profile: &'static str,
    /// Runs per table (the campaign executes `2 × runs` scenarios).
    pub runs: usize,
    /// Mean events dispatched per Table II run (workload fingerprint).
    pub events_per_run: f64,
    /// Serial (1-thread) measurement.
    pub serial: CampaignSide,
    /// Parallel (N-thread) measurement.
    pub parallel: CampaignSide,
    /// Table II mean total delay, ms — an aggregate fingerprint so any
    /// seed-schedule or model drift is visible next to the perf numbers.
    pub table2_total_avg_ms: f64,
    /// Table III mean braking distance, m (same purpose).
    pub table3_braking_avg_m: f64,
}

fn side_json(side: &CampaignSide) -> String {
    format!(
        "{{\n    \"threads\": {},\n    \"seconds\": {:.6},\n    \"runs_per_sec\": {:.3},\n    \"ns_per_event\": {:.1},\n    \"allocs_per_run\": {:.1},\n    \"alloc_bytes_per_run\": {:.1}\n  }}",
        side.threads,
        side.seconds,
        side.runs_per_sec,
        side.ns_per_event,
        side.allocs_per_run,
        side.alloc_bytes_per_run
    )
}

/// Renders the measurement as the `BENCH_campaign.json` document.
pub fn campaign_json(m: &CampaignMeasurement) -> String {
    format!(
        "{{\n  \"bench\": \"campaign_throughput\",\n  \"nproc\": {},\n  \"profile\": \"{}\",\n  \"runs_per_table\": {},\n  \"events_per_run\": {:.1},\n  \"serial\": {},\n  \"parallel\": {},\n  \"table2_total_avg_ms\": {:.4},\n  \"table3_braking_avg_m\": {:.6}\n}}\n",
        m.nproc,
        m.profile,
        m.runs,
        m.events_per_run,
        side_json(&m.serial),
        side_json(&m.parallel),
        m.table2_total_avg_ms,
        m.table3_braking_avg_m
    )
}

/// Path of the tracked benchmark baseline at the repository root.
pub fn campaign_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json")
}

/// Keys every valid `BENCH_campaign.json` must carry (with finite,
/// non-negative numeric values).
pub const CAMPAIGN_JSON_REQUIRED_KEYS: [&str; 8] = [
    "runs_per_table",
    "events_per_run",
    "threads",
    "seconds",
    "runs_per_sec",
    "ns_per_event",
    "allocs_per_run",
    "alloc_bytes_per_run",
];

/// Extracts every `"key": <number>` pair from a (flat or nested) JSON
/// document — a dependency-free scanner sufficient for validating the
/// bench artefacts this crate writes. Duplicate keys appear once per
/// occurrence, in document order.
pub fn json_number_fields(src: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let Some(end) = src[i + 1..].find('"').map(|e| i + 1 + e) else {
            break;
        };
        let key = &src[i + 1..end];
        let mut j = end + 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b':' {
            j += 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let num_start = j;
            while j < bytes.len()
                && (bytes[j].is_ascii_digit()
                    || matches!(bytes[j], b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                j += 1;
            }
            if let Ok(v) = src[num_start..j].parse::<f64>() {
                out.push((key.to_owned(), v));
            }
        }
        i = j.max(end + 1);
    }
    out
}

/// Fewest worker threads the `parallel` side of `BENCH_campaign.json`
/// may be measured at: a parallel speed-up measured on one thread is
/// noise, not a result.
pub const CAMPAIGN_MIN_PARALLEL_THREADS: usize = 2;

/// Checks the host facts every tracked bench file records: an `nproc`
/// of at least 1 and a non-empty build `"profile"` string.
fn validate_host_facts(src: &str) -> Result<(), String> {
    let nproc: Vec<f64> = json_number_fields(src)
        .into_iter()
        .filter(|(k, _)| k == "nproc")
        .map(|(_, v)| v)
        .collect();
    if nproc.is_empty() {
        return Err("missing numeric field \"nproc\"".to_owned());
    }
    if let Some(v) = nproc.into_iter().find(|&v| v < 1.0) {
        return Err(format!("host fact \"nproc\" is {v}, expected at least 1"));
    }
    let profile = src
        .split_once("\"profile\"")
        .and_then(|(_, rest)| rest.trim_start().strip_prefix(':'))
        .and_then(|rest| rest.trim_start().strip_prefix('"'))
        .and_then(|rest| rest.split_once('"'))
        .map(|(value, _)| value);
    match profile {
        Some(p) if !p.is_empty() => Ok(()),
        _ => Err("missing the build \"profile\" string".to_owned()),
    }
}

/// Validates a `BENCH_campaign.json` document: non-empty, every
/// required key present with a finite, non-negative value, the host
/// facts (`nproc`, `profile`) filled in, and the `parallel` side
/// measured at [`CAMPAIGN_MIN_PARALLEL_THREADS`] or more.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_campaign_json(src: &str) -> Result<(), String> {
    let trimmed = src.trim();
    if trimmed.is_empty() {
        return Err("document is empty".to_owned());
    }
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("document is not a JSON object (truncated?)".to_owned());
    }
    let opens = trimmed.matches('{').count();
    let closes = trimmed.matches('}').count();
    if opens != closes {
        return Err(format!("unbalanced braces ({opens} open, {closes} close)"));
    }
    let fields = json_number_fields(src);
    for key in CAMPAIGN_JSON_REQUIRED_KEYS {
        let hits: Vec<f64> = fields
            .iter()
            .filter(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .collect();
        if hits.is_empty() {
            return Err(format!("missing numeric field {key:?}"));
        }
        for v in hits {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("field {key:?} has invalid value {v}"));
            }
        }
    }
    validate_host_facts(src)?;
    // The first "threads" after the "parallel" key is that side's.
    let parallel_threads = src
        .find("\"parallel\"")
        .and_then(|at| {
            json_number_fields(&src[at..])
                .into_iter()
                .find(|(k, _)| k == "threads")
        })
        .map(|(_, v)| v);
    match parallel_threads {
        None => Err("missing the \"parallel\" side's \"threads\"".to_owned()),
        Some(t) if t < CAMPAIGN_MIN_PARALLEL_THREADS as f64 => Err(format!(
            "parallel side measured at {t} thread(s); a speed-up needs at least {CAMPAIGN_MIN_PARALLEL_THREADS}"
        )),
        Some(_) => Ok(()),
    }
}

/// One node-count row of the city-scale benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityBenchRow {
    /// Stations simulated.
    pub nodes: usize,
    /// Wall-clock seconds for the (culled) run.
    pub seconds: f64,
    /// Per-receiver channel evaluations the run performed.
    pub events: u64,
    /// Channel evaluations per second of wall-clock time.
    pub events_per_sec: f64,
    /// Wall-clock nanoseconds per channel evaluation.
    pub ns_per_event: f64,
    /// Heap allocations for the run (counting-allocator proxy).
    pub allocs_per_run: f64,
    /// In-cutoff CAM delivery ratio (model fingerprint).
    pub cam_delivery_ratio: f64,
    /// Mean channel busy ratio (model fingerprint).
    pub mean_cbr: f64,
    /// Mean DENM reception latency, ms (model fingerprint).
    pub denm_latency_ms: f64,
}

/// The full city-scale measurement written to `BENCH_city.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CityMeasurement {
    /// Logical CPUs available to the bench process.
    pub nproc: usize,
    /// Worker threads the runs used.
    pub threads: usize,
    /// Build profile of the bench binary (`"release"` or `"debug"`).
    pub profile: &'static str,
    /// One row per node count, in sweep order.
    pub rows: Vec<CityBenchRow>,
    /// Wall-clock speedup of the culled channel over the exhaustive
    /// O(N²) reference at the smallest node count.
    pub culled_speedup: f64,
}

fn city_row_json(row: &CityBenchRow) -> String {
    format!(
        "  {{\n    \"nodes\": {},\n    \"seconds\": {:.6},\n    \"events\": {},\n    \"events_per_sec\": {:.1},\n    \"ns_per_event\": {:.2},\n    \"allocs_per_run\": {:.1},\n    \"cam_delivery_ratio\": {:.6},\n    \"mean_cbr\": {:.6},\n    \"denm_latency_ms\": {:.4}\n  }}",
        row.nodes,
        row.seconds,
        row.events,
        row.events_per_sec,
        row.ns_per_event,
        row.allocs_per_run,
        row.cam_delivery_ratio,
        row.mean_cbr,
        row.denm_latency_ms
    )
}

/// Renders the measurement as the `BENCH_city.json` document.
pub fn city_json(m: &CityMeasurement) -> String {
    let rows: Vec<String> = m.rows.iter().map(city_row_json).collect();
    format!(
        "{{\n  \"bench\": \"city_scale\",\n  \"nproc\": {},\n  \"threads\": {},\n  \"profile\": \"{}\",\n  \"rows\": [\n{}\n  ],\n  \"culled_speedup\": {:.3}\n}}\n",
        m.nproc,
        m.threads,
        m.profile,
        rows.join(",\n"),
        m.culled_speedup
    )
}

/// Path of the tracked city benchmark baseline at the repository root.
pub fn city_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_city.json")
}

/// Keys every valid `BENCH_city.json` must carry (with finite,
/// non-negative numeric values). The host facts `nproc` and `threads`
/// must also be at least 1, and a non-empty `"profile"` string must
/// name the build profile.
pub const CITY_JSON_REQUIRED_KEYS: [&str; 12] = [
    "nproc",
    "threads",
    "nodes",
    "seconds",
    "events",
    "events_per_sec",
    "ns_per_event",
    "allocs_per_run",
    "cam_delivery_ratio",
    "mean_cbr",
    "denm_latency_ms",
    "culled_speedup",
];

/// Node counts the *tracked* baseline must cover, in order.
pub const CITY_BASELINE_NODE_COUNTS: [usize; 3] = [100, 500, 2000];

/// Largest tolerated per-event cost growth between the largest and the
/// smallest tracked node count: the spatial grid makes per-event cost
/// nearly flat, so N=2000 must cost at most 4× N=100 per event.
pub const CITY_MAX_NS_PER_EVENT_RATIO: f64 = 4.0;

/// Minimum tracked speedup of culled over exhaustive at N=100.
pub const CITY_MIN_CULLED_SPEEDUP: f64 = 5.0;

/// Validates the *schema* of a `BENCH_city.json` document: non-empty,
/// brace-balanced, every required key present with finite non-negative
/// values, and the host facts filled in. Quick (`BENCH_QUICK=1`) runs
/// produce documents that pass this but not necessarily
/// [`validate_city_baseline`].
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_city_json(src: &str) -> Result<(), String> {
    let trimmed = src.trim();
    if trimmed.is_empty() {
        return Err("document is empty".to_owned());
    }
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("document is not a JSON object (truncated?)".to_owned());
    }
    let opens = trimmed.matches('{').count();
    let closes = trimmed.matches('}').count();
    if opens != closes {
        return Err(format!("unbalanced braces ({opens} open, {closes} close)"));
    }
    let fields = json_number_fields(src);
    for key in CITY_JSON_REQUIRED_KEYS {
        let hits: Vec<f64> = fields
            .iter()
            .filter(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .collect();
        if hits.is_empty() {
            return Err(format!("missing numeric field {key:?}"));
        }
        for v in hits {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("field {key:?} has invalid value {v}"));
            }
            if key == "threads" && v < 1.0 {
                return Err(format!("host fact {key:?} is {v}, expected at least 1"));
            }
        }
    }
    validate_host_facts(src)
}

/// Validates the tracked `BENCH_city.json` baseline: the schema checks
/// of [`validate_city_json`] plus the acceptance bars — the exact
/// [`CITY_BASELINE_NODE_COUNTS`] rows, per-event cost at the largest
/// count within [`CITY_MAX_NS_PER_EVENT_RATIO`]× the smallest, and a
/// culled-over-exhaustive speedup of at least
/// [`CITY_MIN_CULLED_SPEEDUP`]×.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_city_baseline(src: &str) -> Result<(), String> {
    validate_city_json(src)?;
    let fields = json_number_fields(src);
    let nodes: Vec<f64> = fields
        .iter()
        .filter(|(k, _)| k == "nodes")
        .map(|&(_, v)| v)
        .collect();
    let expected: Vec<f64> = CITY_BASELINE_NODE_COUNTS
        .iter()
        .map(|&n| n as f64)
        .collect();
    if nodes != expected {
        return Err(format!(
            "baseline node counts {nodes:?}, expected {expected:?}"
        ));
    }
    let ns_per_event: Vec<f64> = fields
        .iter()
        .filter(|(k, _)| k == "ns_per_event")
        .map(|&(_, v)| v)
        .collect();
    match (ns_per_event.first(), ns_per_event.last()) {
        (Some(&smallest), Some(&largest)) if smallest > 0.0 => {
            let ratio = largest / smallest;
            if ratio > CITY_MAX_NS_PER_EVENT_RATIO {
                return Err(format!(
                    "per-event cost grew {ratio:.2}× from N={} to N={} (limit {CITY_MAX_NS_PER_EVENT_RATIO}×)",
                    CITY_BASELINE_NODE_COUNTS[0],
                    CITY_BASELINE_NODE_COUNTS[CITY_BASELINE_NODE_COUNTS.len() - 1]
                ));
            }
        }
        _ => return Err("baseline has no usable ns_per_event rows".to_owned()),
    }
    let speedup = fields
        .iter()
        .find(|(k, _)| k == "culled_speedup")
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    if speedup < CITY_MIN_CULLED_SPEEDUP {
        return Err(format!(
            "culled speedup {speedup:.2}× below the {CITY_MIN_CULLED_SPEEDUP}× bar"
        ));
    }
    Ok(())
}

/// Formats a mean/sd/min/max line for the bench reports.
pub fn stat_line(name: &str, xs: &[f64]) -> String {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    format!(
        "{name}: mean {mean:.2}, sd {:.2}, min {:.2}, max {:.2} (n={})",
        var.sqrt(),
        xs.iter().copied().fold(f64::INFINITY, f64::min),
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        xs.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_is_paper_shaped() {
        let c = base_config();
        assert_eq!(c.action_point_m, 1.52);
    }

    #[test]
    fn stat_line_formats() {
        let s = stat_line("x", &[1.0, 2.0, 3.0]);
        assert!(s.contains("mean 2.00"));
        assert!(s.contains("n=3"));
    }

    fn sample_measurement() -> CampaignMeasurement {
        let side = |threads: usize, secs: f64| CampaignSide {
            threads,
            seconds: secs,
            runs_per_sec: 512.0 / secs,
            ns_per_event: 420.0,
            allocs_per_run: 12_000.0,
            alloc_bytes_per_run: 850_000.0,
        };
        CampaignMeasurement {
            nproc: 8,
            profile: "release",
            runs: 256,
            events_per_run: 9_000.0,
            serial: side(1, 40.0),
            parallel: side(8, 7.5),
            table2_total_avg_ms: 58.4,
            table3_braking_avg_m: 0.36,
        }
    }

    #[test]
    fn campaign_json_round_trips_through_validator() {
        let json = campaign_json(&sample_measurement());
        assert!(validate_campaign_json(&json).is_ok(), "{json}");
        // Both sides are present: "threads" appears once per side.
        let threads: Vec<f64> = json_number_fields(&json)
            .into_iter()
            .filter(|(k, _)| k == "threads")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(threads, vec![1.0, 8.0]);
    }

    #[test]
    fn validator_rejects_empty_and_truncated_documents() {
        assert!(validate_campaign_json("").is_err());
        assert!(validate_campaign_json("   \n").is_err());
        assert!(validate_campaign_json("{}").is_err());
        let json = campaign_json(&sample_measurement());
        let truncated = &json[..json.len() / 2];
        assert!(validate_campaign_json(truncated).is_err());
    }

    #[test]
    fn validator_rejects_a_parallel_side_below_two_threads() {
        let mut m = sample_measurement();
        m.parallel.threads = 1;
        let err = validate_campaign_json(&campaign_json(&m)).unwrap_err();
        assert!(err.contains("parallel side measured at 1 thread"), "{err}");
        // The serial side is one thread by definition.
        m.parallel.threads = 2;
        assert!(validate_campaign_json(&campaign_json(&m)).is_ok());
        // A document without a parallel side is rejected too.
        let serial_only = campaign_json(&m).replace("\"parallel\"", "\"other\"");
        assert!(validate_campaign_json(&serial_only).is_err());
    }

    #[test]
    fn campaign_validator_requires_host_facts() {
        let json = campaign_json(&sample_measurement());
        assert!(json.contains("\"nproc\": 8"), "{json}");
        assert!(json.contains("\"profile\": \"release\""), "{json}");
        // Each host fact's line removed in turn.
        for fact in ["\"nproc\"", "\"profile\""] {
            let without: String = json
                .lines()
                .filter(|line| !line.contains(fact))
                .map(|line| format!("{line}\n"))
                .collect();
            let err = validate_campaign_json(&without).unwrap_err();
            assert!(err.contains(fact.trim_matches('"')), "{fact}: {err}");
        }
        // Present but empty or zero.
        let mut m = sample_measurement();
        m.profile = "";
        let err = validate_campaign_json(&campaign_json(&m)).unwrap_err();
        assert!(err.contains("profile"), "{err}");
        let mut m = sample_measurement();
        m.nproc = 0;
        let err = validate_campaign_json(&campaign_json(&m)).unwrap_err();
        assert!(err.contains("nproc"), "{err}");
    }

    #[test]
    fn json_number_scanner_handles_nesting_and_exponents() {
        let fields =
            json_number_fields("{\"a\": 1.5, \"nested\": {\"b\": -2e-3}, \"s\": \"no\", \"c\": 7}");
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0], ("a".to_owned(), 1.5));
        assert_eq!(fields[1].0, "b");
        assert!((fields[1].1 - -0.002).abs() < 1e-12);
        assert_eq!(fields[2], ("c".to_owned(), 7.0));
    }

    fn sample_city_measurement() -> CityMeasurement {
        let row = |nodes: usize, ns: f64| CityBenchRow {
            nodes,
            seconds: 0.5,
            events: 100_000,
            events_per_sec: 200_000.0,
            ns_per_event: ns,
            allocs_per_run: 5_000.0,
            cam_delivery_ratio: 0.08,
            mean_cbr: 0.02,
            denm_latency_ms: 0.4,
        };
        CityMeasurement {
            nproc: 2,
            threads: 1,
            profile: "release",
            rows: vec![row(100, 120.0), row(500, 130.0), row(2000, 150.0)],
            culled_speedup: 9.0,
        }
    }

    #[test]
    fn city_validator_requires_host_facts() {
        let json = city_json(&sample_city_measurement());
        assert!(json.contains("\"nproc\": 2"), "{json}");
        assert!(json.contains("\"threads\": 1"), "{json}");
        assert!(json.contains("\"profile\": \"release\""), "{json}");
        // Each host fact's line removed in turn.
        for fact in ["\"nproc\"", "\"threads\"", "\"profile\""] {
            let without: String = json
                .lines()
                .filter(|line| !line.contains(fact))
                .map(|line| format!("{line}\n"))
                .collect();
            let err = validate_city_json(&without).unwrap_err();
            assert!(err.contains(fact.trim_matches('"')), "{fact}: {err}");
        }
        // Present but empty or zero.
        let mut m = sample_city_measurement();
        m.profile = "";
        assert!(validate_city_json(&city_json(&m)).is_err());
        let mut m = sample_city_measurement();
        m.threads = 0;
        let err = validate_city_json(&city_json(&m)).unwrap_err();
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn city_json_round_trips_through_both_validators() {
        let json = city_json(&sample_city_measurement());
        assert!(validate_city_json(&json).is_ok(), "{json}");
        assert!(validate_city_baseline(&json).is_ok(), "{json}");
        let nodes: Vec<f64> = json_number_fields(&json)
            .into_iter()
            .filter(|(k, _)| k == "nodes")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(nodes, vec![100.0, 500.0, 2000.0]);
    }

    #[test]
    fn city_baseline_validator_enforces_the_acceptance_bars() {
        // Wrong node counts.
        let mut m = sample_city_measurement();
        m.rows[1].nodes = 400;
        assert!(validate_city_baseline(&city_json(&m)).is_err());
        // Per-event cost blowing up with N.
        let mut m = sample_city_measurement();
        m.rows[2].ns_per_event = 1000.0;
        let err = validate_city_baseline(&city_json(&m)).unwrap_err();
        assert!(err.contains("per-event cost"), "{err}");
        // Speedup under the bar.
        let mut m = sample_city_measurement();
        m.culled_speedup = 3.0;
        let err = validate_city_baseline(&city_json(&m)).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
        // Schema-only validation still accepts all three: quick runs
        // are allowed to miss the bars, not the shape.
        let mut m = sample_city_measurement();
        m.rows[0].nodes = 10;
        m.culled_speedup = 1.0;
        assert!(validate_city_json(&city_json(&m)).is_ok());
    }

    /// The tracked city baseline must carry the N=100/500/2000 rows and
    /// meet the flat-per-event-cost and culling-speedup bars —
    /// `scripts/check.sh` runs this as part of the bench smoke step.
    #[test]
    fn tracked_bench_city_baseline_is_valid() {
        let path = city_json_path();
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
        validate_city_baseline(&src)
            .unwrap_or_else(|e| panic!("invalid baseline {}: {e}", path.display()));
    }

    /// The tracked baseline at the repository root must stay parseable
    /// and non-empty — `scripts/check.sh` runs this as part of the bench
    /// smoke step.
    #[test]
    fn tracked_bench_campaign_baseline_is_valid() {
        let path = campaign_json_path();
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing baseline {}: {e}", path.display()));
        validate_campaign_json(&src)
            .unwrap_or_else(|e| panic!("invalid baseline {}: {e}", path.display()));
    }
}
