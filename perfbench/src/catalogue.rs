//! Every metric the benchmark reports, with the prediction attached to
//! each per-layer metric: which end-to-end metric it should move, on
//! which workload. `BENCHMARK.json` lists the same names; the self-test
//! in `tests/selftest.rs` keeps the two in step.

/// The paper's Table II + Table III Monte-Carlo on the thread runner.
pub const PAPER: &str = "paper_campaign";
/// `run_city` at N = 2000.
pub const CITY: &str = "city_2000";
/// The HTTP campaign server with socket workers and closed-loop clients.
pub const SERVICE: &str = "campaign_service";
/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = [PAPER, CITY, SERVICE];

/// An end-to-end metric: `(name, unit)`.
pub type EndToEnd = (&'static str, &'static str);

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [EndToEnd; 6] = [
    ("runs_per_s", "1/s"),
    ("realtime_factor", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// A per-layer metric and the prediction it carries.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<crate or layer>.<quantity>_<unit>`.
    pub name: &'static str,
    /// Unit string as printed.
    pub unit: &'static str,
    /// What the metric times or counts.
    pub measures: &'static str,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
    /// Workloads whose traced run calls the layer; on the others the
    /// metric is reported as 0 (the layer is never called there).
    pub on: &'static [&'static str],
}

const PS: &[&str] = &[PAPER, SERVICE];
const P: &[&str] = &[PAPER];
const C: &[&str] = &[CITY];
const S: &[&str] = &[SERVICE];
const PC: &[&str] = &[PAPER, CITY];
const ALL: &[&str] = &[PAPER, CITY, SERVICE];

const PAPER_MOVES: &str =
    "runs_per_s on paper_campaign; runs_per_s, latency_p50_ms on campaign_service";
const CITY_MOVES: &str = "realtime_factor, peak_rss_mb on city_2000";
const SERVICE_MOVES: &str = "latency_p50_ms, latency_p90_ms, runs_per_s on campaign_service";

/// Per-layer metrics, reported by every workload's traced run.
pub const LAYERS: [Layer; 38] = [
    Layer { name: "vehicle.linefollow_us", unit: "us", measures: "LineFollower::steering per call", moves: PAPER_MOVES, on: PS },
    Layer { name: "vehicle.linefollow_calls", unit: "count", measures: "LineFollower::steering calls per run", moves: PAPER_MOVES, on: PS },
    Layer { name: "perception.frame_us", unit: "us", measures: "RoadSideCamera::sees + YoloModel::process_frame_into + HazardAdvertisementService::assess per frame", moves: PAPER_MOVES, on: PS },
    Layer { name: "core.scenario_new_us", unit: "us", measures: "Scenario::new per run", moves: PAPER_MOVES, on: P },
    Layer { name: "facilities.cam_tx_us", unit: "us", measures: "ItsStation::poll_cam_frame per control tick", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "geonet.cam_rx_us", unit: "us", measures: "GnFrame::parse + ItsStation::on_frame per delivered CAM", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "facilities.denm_tx_us", unit: "us", measures: "ItsStation::trigger_denm + poll_denm_into per DENM", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "its-messages.denm_decode_us", unit: "us", measures: "Denm::from_bytes per DENM", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "openc2x.channel_access_us", unit: "us", measures: "GnFrame::parse + ItsStation::channel_access_frame per frame sent", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "sim-core.queue_ns", unit: "ns", measures: "EventQueue::schedule_at + pop_batch per dispatched event", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "sim-core.trace_ns", unit: "ns", measures: "Trace::record_fmt per trace record", moves: "runs_per_s on paper_campaign", on: PS },
    Layer { name: "core.host_ns_per_event", unit: "ns", measures: "Scenario::run host time per dispatched event", moves: "runs_per_s on paper_campaign", on: P },
    Layer { name: "core.allocs_per_run", unit: "count", measures: "heap allocations per scenario run on the runner", moves: "runs_per_s on paper_campaign", on: P },
    Layer { name: "runner.busy_share", unit: "ratio", measures: "per-job spans inside Runner::run / (threads x wall)", moves: "runs_per_s on paper_campaign", on: P },
    Layer { name: "phy80211p.channel_ns", unit: "ns", measures: "Channel::transmit_cached per evaluation", moves: CITY_MOVES, on: ALL },
    Layer { name: "phy80211p.link_cache_hit_ratio", unit: "ratio", measures: "LinkCache FER lookups that did not grow fer_entries", moves: CITY_MOVES, on: ALL },
    Layer { name: "phy80211p.grid_relocate_ns", unit: "ns", measures: "SpatialGrid::relocate per call", moves: CITY_MOVES, on: C },
    Layer { name: "phy80211p.grid_query_us", unit: "us", measures: "SpatialGrid::candidates_within per query", moves: CITY_MOVES, on: C },
    Layer { name: "phy80211p.candidates_per_query", unit: "count", measures: "candidates returned per grid query", moves: CITY_MOVES, on: C },
    Layer { name: "sim-core.fork_ns", unit: "ns", measures: "SimRng::fork_u64 per receiver", moves: CITY_MOVES, on: C },
    Layer { name: "core.arena_us_per_tick", unit: "us", measures: "StationArena gate_open/record_tx/note_busy/record_rx/roll_windows per tick", moves: CITY_MOVES, on: C },
    Layer { name: "phy80211p.evals_per_run", unit: "count", measures: "per-receiver channel evaluations per run", moves: CITY_MOVES, on: ALL },
    Layer { name: "phy80211p.host_ns_per_eval", unit: "ns", measures: "untraced run host time per channel evaluation", moves: CITY_MOVES, on: PC },
    Layer { name: "core.allocs_per_eval", unit: "count", measures: "heap allocations per channel evaluation", moves: CITY_MOVES, on: PC },
    Layer { name: "core.submission_encode_us", unit: "us", measures: "encode_submission per submission", moves: SERVICE_MOVES, on: S },
    Layer { name: "campaignd.fanout_ms", unit: "ms", measures: "SocketFanout::run_flat per 2-run grid, no HTTP", moves: SERVICE_MOVES, on: S },
    Layer { name: "shard.chunk_compute_ms", unit: "ms", measures: "compute_chunk in-process per chunk", moves: SERVICE_MOVES, on: S },
    Layer { name: "shard.transport_ms", unit: "ms", measures: "fan-out minus its slowest chunk's compute", moves: SERVICE_MOVES, on: S },
    Layer { name: "openc2x.http_ms", unit: "ms", measures: "one-client submit latency minus encode, fan-out and decode", moves: SERVICE_MOVES, on: S },
    Layer { name: "campaignd.queue_wait_ms", unit: "ms", measures: "two-client minus one-client median latency", moves: SERVICE_MOVES, on: S },
    Layer { name: "shard.encode_us_per_record", unit: "us", measures: "encode_results per record", moves: SERVICE_MOVES, on: S },
    Layer { name: "shard.decode_us_per_record", unit: "us", measures: "decode_result_stream per record", moves: SERVICE_MOVES, on: S },
    Layer { name: "core.wire_bytes_per_record", unit: "bytes", measures: "result-stream bytes per record", moves: SERVICE_MOVES, on: S },
    Layer { name: "campaignd.fanout_efficiency", unit: "ratio", measures: "slowest chunk compute / fan-out time", moves: SERVICE_MOVES, on: S },
    Layer { name: "campaignd.fallback_chunks", unit: "count", measures: "chunks re-run in-process (must stay 0)", moves: SERVICE_MOVES, on: S },
    Layer { name: "campaignd.timed_out_chunks", unit: "count", measures: "chunks whose worker timed out (must stay 0)", moves: SERVICE_MOVES, on: S },
    Layer { name: "core.unattributed_share", unit: "ratio", measures: "1 - sum of layer time / measured time", moves: "none: how far the ledger reconciles", on: ALL },
    Layer { name: "core.tracing_overhead_share", unit: "ratio", measures: "traced / untraced end-to-end time - 1", moves: "none: the cost of the spans", on: ALL },
];
