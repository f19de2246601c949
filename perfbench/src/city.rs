//! `city_2000`: `run_city` at N = 2000 on the default `CityConfig`
//! (10 s simulated in 100 ms ticks), one run at a time.
//!
//! The traced run re-executes the city through the same public layer
//! functions `run_city` calls — `SpatialGrid`, `SimRng::fork_u64`,
//! `Channel::transmit_cached` and `StationArena` — and must reproduce
//! `run_city`'s `CityRecord` exactly, evaluation count included. The
//! street layout and kinematics are private to `run_city`, so
//! [`Streets`] restates them; any drift shows as a record mismatch.
//! Within one frame the replay groups the receiver forks, the channel
//! evaluations and the arena updates so each group is timed as one
//! interval; the groups touch disjoint state, so the record is
//! unchanged by the grouping.

use crate::catalogue::CITY;
use crate::ledger::{now_ns, secs, Ledger, ROOT};
use crate::{median, peak_rss_mib, quantile, AllocCounter, Args, Outcome};
use its_testbed::campaign::Serial;
use its_testbed::city::{
    run_city, sweep_city_records, urban_channel_config, CityConfig, CityRecord,
};
use its_testbed::station::StationArena;
use phy80211p::channel::LinkCache;
use phy80211p::{airtime, Channel, Position2D, SpatialGrid, TransmitOutcome};
use sim_core::{SimDuration, SimRng, SimTime};

/// Stations in the measured city.
pub const NODES: usize = 2000;
/// Stations in the warm-up city timed as set-up.
const WARMUP_NODES: usize = 100;

/// The measured configuration at workload seed `seed`; seed 0 is the
/// default `CityConfig` seed behind `BENCH_city.json`.
pub fn config(seed: u64, nodes: usize) -> CityConfig {
    let base = CityConfig::default();
    CityConfig {
        seed: base.seed + seed % 1_000_000_000,
        n_stations: nodes,
        ..base
    }
}

/// Byte-level comparison key of a record (floats by bits).
fn key(r: &CityRecord) -> String {
    format!(
        "{} {} {:x} {:x} {} {:x} {} {:?}",
        r.n_stations,
        r.cams_transmitted,
        r.cam_delivery_ratio.to_bits(),
        r.mean_cbr.to_bits(),
        r.denm_receptions,
        r.mean_denm_latency_ms.to_bits(),
        r.events,
        r.worst_dcc_state
    )
}

/// The serial reference, plus the tracked N = 2000 record at seed 0.
fn reference(args: &Args, cfg: &CityConfig, o: &mut Outcome) -> CityRecord {
    let reference = sweep_city_records(&Serial, cfg, &[cfg.n_stations])
        .pop()
        .expect("one count yields one record");
    if args.seed == 0 && cfg.n_stations == NODES {
        let got = format!(
            "{} {:.6} {:.6} {:.4}",
            reference.events,
            reference.cam_delivery_ratio,
            reference.mean_cbr,
            reference.mean_denm_latency_ms
        );
        if got != "1453630 0.084971 0.015214 2.0113" {
            o.fail(
                1,
                format!("CityRecord moved: {got} (want 1453630 0.084971 0.015214 2.0113)"),
            );
        }
        o.notes
            .push(format!("CityRecord events/delivery/cbr/denm_ms {got}"));
    }
    reference
}

/// The untraced run: end-to-end metrics.
pub fn measure(args: &Args) -> Outcome {
    let cfg = config(args.seed, NODES);
    let mut o = Outcome::default();
    o.host.threads = 1;
    let reference = reference(args, &cfg, &mut o);
    let reference_events = reference.events;
    let want = key(&reference);

    // A warm-up city precedes every timed run, so the `setup_s` median
    // spans the whole run and not only its first second.
    let warmup = config(args.seed, WARMUP_NODES);
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let start = now_ns();
    while secs(start, now_ns()) < args.seconds as f64 || latencies.is_empty() {
        let t0 = now_ns();
        std::hint::black_box(run_city(&warmup));
        setups.push(secs(t0, now_ns()));
        let t0 = now_ns();
        let record = run_city(&cfg);
        latencies.push(secs(t0, now_ns()));
        o.attempted += 1;
        if key(&record) != want {
            o.fail(
                1,
                format!("run {} differs from the serial reference", latencies.len()),
            );
        }
    }
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    // Throughput from the median run: the host's speed drifts by ±10%
    // over seconds, and the median resists that drift better than a mean.
    let runs_per_s = 1e3 / median(&ms);
    o.notes.push(format!(
        "{} city runs of N = {NODES}, {} evaluations each; run latencies ms {:.1?}",
        ms.len(),
        reference_events,
        ms
    ));
    o.set("runs_per_s", runs_per_s, "1/s");
    o.set(
        "realtime_factor",
        cfg.duration.as_secs_f64() * runs_per_s,
        "ratio",
    );
    o.set("latency_p50_ms", median(&ms), "ms");
    o.set("latency_p90_ms", quantile(&ms, 0.9), "ms");
    o.set("setup_s", median(&setups), "s");
    o.set("peak_rss_mb", peak_rss_mib("self").unwrap_or(0.0), "MiB");
    o
}

/// Span names of the city replay.
pub mod names {
    /// `SpatialGrid::relocate`.
    pub const RELOCATE: &str = "phy80211p.grid_relocate";
    /// `SpatialGrid::candidates_within`.
    pub const QUERY: &str = "phy80211p.grid_query";
    /// `SimRng::fork_u64` (with the receiver's `position_of`).
    pub const FORK: &str = "sim-core.fork_u64";
    /// `Channel::transmit_cached`.
    pub const CHANNEL: &str = "phy80211p.transmit_cached";
    /// `StationArena` gate_open / record_tx / note_busy / record_rx /
    /// roll_windows.
    pub const ARENA: &str = "core.arena";
    /// Every layer name above.
    pub const ALL: [&str; 5] = [RELOCATE, QUERY, FORK, CHANNEL, ARENA];
}

/// `run_city`'s street layout and kinematics, restated.
struct Streets {
    side_m: f64,
    along: Vec<f64>,
    axis: Vec<u8>,
    cross: Vec<f64>,
    dir_speed: Vec<f64>,
}

impl Streets {
    fn layout(config: &CityConfig, rng: &mut SimRng) -> Streets {
        let n = config.n_stations;
        let area_km2 = n as f64 / config.density_per_km2.max(1e-9);
        let side_m = (area_km2.max(1e-9).sqrt() * 1000.0).max(config.street_spacing_m);
        let n_streets = (side_m / config.street_spacing_m).floor().max(1.0) as u64;
        let mut s = Streets {
            side_m,
            along: Vec::with_capacity(n),
            axis: Vec::with_capacity(n),
            cross: Vec::with_capacity(n),
            dir_speed: Vec::with_capacity(n),
        };
        for i in 0..n {
            let street = (rng.next_u64() % n_streets) as f64 * config.street_spacing_m;
            // detlint:allow(R2) RSU-vs-vehicle follows from station index and config, constant per run
            if config.rsu_every > 0 && i % config.rsu_every == 0 {
                let other = (rng.next_u64() % n_streets) as f64 * config.street_spacing_m;
                s.along.push(other);
                s.axis.push(0);
                s.cross.push(street);
                s.dir_speed.push(0.0);
            } else {
                let axis = (rng.next_u64() % 2) as u8;
                let along = rng.uniform(0.0, side_m);
                let speed = rng.uniform(6.0, 14.0);
                let sign = if rng.next_u64().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                s.along.push(along);
                s.axis.push(axis);
                s.cross.push(street);
                s.dir_speed.push(sign * speed);
            }
        }
        s
    }

    fn advance_into(&mut self, dt: SimDuration, arena: &mut StationArena) {
        let dt_s = dt.as_secs_f64();
        for (along, speed) in self.along.iter_mut().zip(&self.dir_speed) {
            *along = (*along + speed * dt_s).rem_euclid(self.side_m);
        }
        let (xs, ys) = arena.coords_mut();
        for i in 0..self.along.len() {
            let (along, cross) = (self.along[i], self.cross[i]);
            let (x, y) = if self.axis[i] == 0 {
                (along, cross)
            } else {
                (cross, along)
            };
            xs[i] = x;
            ys[i] = y;
        }
    }

    fn position_of(&self, i: usize) -> Position2D {
        if self.axis[i] == 0 {
            Position2D::new(self.along[i], self.cross[i])
        } else {
            Position2D::new(self.cross[i], self.along[i])
        }
    }
}

/// What the replay measured besides its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CityReplayStats {
    /// Ticks replayed.
    pub ticks: u64,
    /// Grid queries.
    pub queries: u64,
    /// Candidates those queries returned.
    pub candidates: u64,
    /// FER lookups that hit the link cache.
    pub cache_hits: u64,
}

/// Ledger slots of one tick.
struct Slots {
    relocate: u32,
    query: u32,
    fork: u32,
    channel: u32,
    arena: u32,
}

/// Per-receiver scratch of one frame.
#[derive(Default)]
struct FrameScratch {
    candidates: Vec<u32>,
    receivers: Vec<(u32, Position2D, SimRng)>,
    outcomes: Vec<TransmitOutcome>,
}

/// One frame's broadcast, as `run_city`'s `broadcast`: returns the
/// evaluations performed and hands each in-cutoff receiver's outcome to
/// `on_in_cutoff`.
#[allow(clippy::too_many_arguments)]
fn broadcast(
    w: &mut World,
    frame_id: u64,
    tx: u32,
    tx_pos: Position2D,
    len: usize,
    air: SimDuration,
    start: SimTime,
    ledger: &mut Ledger,
    slots: &Slots,
    mut on_in_cutoff: impl FnMut(u32, &TransmitOutcome, &mut StationArena),
) -> u64 {
    let s = &mut w.scratch;
    let t0 = now_ns();
    w.grid
        .candidates_within(tx_pos, w.cutoff, &mut s.candidates);
    ledger.add(slots.query, t0, now_ns());
    w.stats.queries += 1;
    w.stats.candidates += s.candidates.len() as u64;

    let t0 = now_ns();
    s.receivers.clear();
    for &rx in &s.candidates {
        if rx == tx {
            continue;
        }
        if let Some(rx_pos) = w.arena.position_of(rx) {
            s.receivers.push((
                rx,
                rx_pos,
                w.root.fork_u64((frame_id << 32) | u64::from(rx)),
            ));
        }
    }
    let n = s.receivers.len() as u64;
    ledger.add_n(slots.fork, t0, now_ns(), n);

    let t0 = now_ns();
    s.outcomes.clear();
    for (_, rx_pos, rng) in &mut s.receivers {
        let before = w.cache.fer_entries();
        s.outcomes.push(w.channel.transmit_cached(
            start,
            tx_pos,
            *rx_pos,
            len,
            w.rate,
            rng,
            &mut w.cache,
        ));
        if w.cache.fer_entries() == before {
            w.stats.cache_hits += 1;
        }
    }
    ledger.add_n(slots.channel, t0, now_ns(), n);

    let t0 = now_ns();
    w.arena.note_busy(tx, air);
    let cutoff2 = w.cutoff * w.cutoff;
    for ((rx, rx_pos, _), outcome) in s.receivers.iter().zip(&s.outcomes) {
        let (dx, dy) = (rx_pos.x - tx_pos.x, rx_pos.y - tx_pos.y);
        if dx * dx + dy * dy <= cutoff2 {
            w.arena.note_busy(*rx, air);
            on_in_cutoff(*rx, outcome, &mut w.arena);
        }
    }
    ledger.add(slots.arena, t0, now_ns());
    n
}

/// The replayed city's state.
struct World {
    root: SimRng,
    channel: Channel,
    cache: LinkCache,
    grid: SpatialGrid,
    arena: StationArena,
    cutoff: f64,
    rate: phy80211p::DataRate,
    scratch: FrameScratch,
    stats: CityReplayStats,
}

/// Re-executes `run_city(config)` with every layer call timed into
/// `ledger`; returns the record it computed.
pub fn replay_city(
    config: &CityConfig,
    ledger: &mut Ledger,
    id: u64,
) -> (CityRecord, CityReplayStats) {
    let root = SimRng::seed_from(config.seed);
    let mut setup_rng = root.fork("city/setup");
    let channel = Channel::new(urban_channel_config());
    let cutoff = channel
        .cutoff_radius_m(config.cam_len_bytes, config.data_rate)
        .max(channel.cutoff_radius_m(config.denm_len_bytes, config.data_rate));
    let cutoff2 = cutoff * cutoff;
    let mut streets = Streets::layout(config, &mut setup_rng);
    let mut w = World {
        root,
        channel,
        cache: LinkCache::new(),
        grid: SpatialGrid::new((cutoff / 2.0).clamp(10.0, 500.0)),
        arena: StationArena::new(SimDuration::from_millis(100)),
        cutoff,
        rate: config.data_rate,
        scratch: FrameScratch::default(),
        stats: CityReplayStats::default(),
    };
    for i in 0..config.n_stations {
        let pos = streets.position_of(i);
        let heading = if streets.axis[i] == 0 { 90.0 } else { 0.0 };
        w.arena
            .push_station(pos, heading, streets.dir_speed[i].abs());
        w.grid.insert(pos);
    }
    let rsus: Vec<u32> = (0..config.n_stations as u32)
        .filter(|i| config.rsu_every > 0 && (*i as usize).is_multiple_of(config.rsu_every))
        .collect();
    let cam_air = airtime(config.cam_len_bytes, config.data_rate);
    let denm_air = airtime(config.denm_len_bytes, config.data_rate);

    let (mut frame_id, mut events) = (0u64, 0u64);
    let (mut cam_deliveries, mut cam_opportunities) = (0u64, 0u64);
    let (mut denm_receptions, mut denm_latency_ns) = (0u64, 0u128);
    let mut next_denm = SimTime::ZERO + config.denm_period;
    let (mut denm_round, mut denms_sent) = (0usize, 0u64);
    let mut open: Vec<u32> = Vec::with_capacity(config.n_stations);
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + config.duration;
    while now < end {
        let tick_start = now_ns();
        let tick = ledger.open("city.tick", id, ROOT);
        let slots = Slots {
            relocate: ledger.open(names::RELOCATE, id, tick),
            query: ledger.open(names::QUERY, id, tick),
            fork: ledger.open(names::FORK, id, tick),
            channel: ledger.open(names::CHANNEL, id, tick),
            arena: ledger.open(names::ARENA, id, tick),
        };
        streets.advance_into(config.tick, &mut w.arena);
        let t0 = now_ns();
        for idx in 0..w.arena.station_count() as u32 {
            if let Some(pos) = w.arena.position_of(idx) {
                w.grid.relocate(idx, pos);
            }
        }
        ledger.add_n(slots.relocate, t0, now_ns(), w.arena.station_count() as u64);

        let denm_due = next_denm <= now + config.tick;
        let denm_rsu = rsus.get(denm_round % rsus.len().max(1)).copied();
        let denm_rsu_pos = denm_rsu.and_then(|r| w.arena.position_of(r));
        let mut denm_queue_ns: u64 = 0;

        // Gates depend only on each station's own last transmission and
        // its DCC state (rolled at tick end), so one pass decides them.
        let t0 = now_ns();
        open.clear();
        for tx in 0..config.n_stations as u32 {
            if w.arena.gate_open(tx, now) && w.arena.position_of(tx).is_some() {
                w.arena.record_tx(tx, now);
                open.push(tx);
            }
        }
        ledger.add(slots.arena, t0, now_ns());

        for &tx in &open {
            let Some(tx_pos) = w.arena.position_of(tx) else {
                continue;
            };
            frame_id += 1;
            if let (true, Some(rsu_pos)) = (denm_due, denm_rsu_pos) {
                let (dx, dy) = (tx_pos.x - rsu_pos.x, tx_pos.y - rsu_pos.y);
                if dx * dx + dy * dy <= cutoff2 {
                    denm_queue_ns = denm_queue_ns.saturating_add(cam_air.as_nanos());
                }
            }
            events += broadcast(
                &mut w,
                frame_id,
                tx,
                tx_pos,
                config.cam_len_bytes,
                cam_air,
                now,
                ledger,
                &slots,
                |rx, outcome, arena| {
                    cam_opportunities += 1;
                    if outcome.delivered {
                        cam_deliveries += 1;
                        arena.record_rx(rx);
                    }
                },
            );
        }

        if denm_due {
            if let (Some(rsu), Some(rsu_pos)) = (denm_rsu, denm_rsu_pos) {
                frame_id += 1;
                let t0 = now_ns();
                w.arena.record_tx(rsu, now);
                ledger.add(slots.arena, t0, now_ns());
                denms_sent += 1;
                let start = now + SimDuration::from_nanos(denm_queue_ns);
                events += broadcast(
                    &mut w,
                    frame_id,
                    rsu,
                    rsu_pos,
                    config.denm_len_bytes,
                    denm_air,
                    start,
                    ledger,
                    &slots,
                    |rx, outcome, arena| {
                        if outcome.delivered {
                            denm_receptions += 1;
                            denm_latency_ns += u128::from(
                                outcome.arrival.saturating_duration_since(now).as_nanos(),
                            );
                            arena.record_rx(rx);
                        }
                    },
                );
            }
            denm_round += 1;
            next_denm += config.denm_period;
        }

        now += config.tick;
        let t0 = now_ns();
        w.arena.roll_windows(now);
        ledger.add(slots.arena, t0, now_ns());
        ledger.add(tick, tick_start, now_ns());
        w.stats.ticks += 1;
    }

    let record = CityRecord {
        n_stations: config.n_stations,
        cams_transmitted: w.arena.tx_total().saturating_sub(denms_sent),
        cam_delivery_ratio: if cam_opportunities == 0 {
            0.0
        } else {
            cam_deliveries as f64 / cam_opportunities as f64
        },
        mean_cbr: w.arena.mean_cbr(),
        denm_receptions,
        mean_denm_latency_ms: if denm_receptions == 0 {
            0.0
        } else {
            denm_latency_ns as f64 / denm_receptions as f64 / 1e6
        },
        events,
        worst_dcc_state: w.arena.worst_dcc_state(),
    };
    (record, w.stats)
}

/// The traced run: per-layer metrics.
pub fn trace(args: &Args, allocs: AllocCounter) -> Outcome {
    let cfg = config(args.seed, NODES);
    let mut o = Outcome::default();
    o.host.threads = 1;
    let reference = reference(args, &cfg, &mut o);
    std::hint::black_box(run_city(&config(args.seed, WARMUP_NODES)));

    let a0 = allocs();
    let t0 = now_ns();
    let plain = run_city(&cfg);
    let untraced_s = secs(t0, now_ns());
    let run_allocs = allocs() - a0;

    let mut ledger = Ledger::new();
    let t0 = now_ns();
    let (replayed, stats) = replay_city(&cfg, &mut ledger, 0);
    let traced_s = secs(t0, now_ns());
    o.attempted = 2;
    if key(&plain) != key(&reference) {
        o.fail(1, "run_city differs from the serial reference".into());
    }
    if replayed.events != plain.events {
        o.fail(
            1,
            format!(
                "replay evaluated {} receivers, run_city {}",
                replayed.events, plain.events
            ),
        );
    } else if key(&replayed) != key(&plain) {
        o.fail(1, "replayed CityRecord differs from run_city's".into());
    }

    let evals = plain.events.max(1) as f64;
    let ticks = stats.ticks.max(1) as f64;
    let layer_ns: u64 = names::ALL.iter().map(|n| ledger.total(n).1).sum();
    o.set(
        "phy80211p.channel_ns",
        ledger.per_call(names::CHANNEL, 1.0),
        "ns",
    );
    o.set(
        "phy80211p.link_cache_hit_ratio",
        stats.cache_hits as f64 / evals,
        "ratio",
    );
    o.set(
        "phy80211p.grid_relocate_ns",
        ledger.per_call(names::RELOCATE, 1.0),
        "ns",
    );
    o.set(
        "phy80211p.grid_query_us",
        ledger.per_call(names::QUERY, 1e3),
        "us",
    );
    o.set(
        "phy80211p.candidates_per_query",
        stats.candidates as f64 / stats.queries.max(1) as f64,
        "count",
    );
    o.set("sim-core.fork_ns", ledger.per_call(names::FORK, 1.0), "ns");
    o.set(
        "core.arena_us_per_tick",
        ledger.total(names::ARENA).1 as f64 / 1e3 / ticks,
        "us",
    );
    o.set("phy80211p.evals_per_run", plain.events as f64, "count");
    o.set("phy80211p.host_ns_per_eval", untraced_s * 1e9 / evals, "ns");
    o.set("core.allocs_per_eval", run_allocs as f64 / evals, "count");
    o.set(
        "core.unattributed_share",
        1.0 - layer_ns as f64 / (traced_s * 1e9),
        "ratio",
    );
    o.set(
        "core.tracing_overhead_share",
        traced_s / untraced_s - 1.0,
        "ratio",
    );
    o.notes.push(format!(
        "ledger: layers {:.1} ms of a {:.1} ms traced replay ({} evaluations, {} ticks); untraced run_city {:.1} ms",
        layer_ns as f64 / 1e6,
        traced_s * 1e3,
        replayed.events,
        stats.ticks,
        untraced_s * 1e3
    ));
    crate::write_spans(CITY, args.seed, &ledger);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_run_city_at_small_n() {
        for (seed, nodes) in [(0, 120), (5, 300)] {
            let cfg = config(seed, nodes);
            let mut ledger = Ledger::new();
            let (replayed, stats) = replay_city(&cfg, &mut ledger, 0);
            let direct = run_city(&cfg);
            assert_eq!(
                replayed.events, direct.events,
                "evaluation count at N = {nodes}"
            );
            assert_eq!(key(&replayed), key(&direct), "record at N = {nodes}");
            assert_eq!(ledger.total(names::CHANNEL).0, direct.events);
            assert_eq!(stats.ticks, 100);
        }
    }
}
