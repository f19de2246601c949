//! City-scale beaconing scenario: an urban Manhattan grid of CAM-ing
//! vehicles plus DENM-issuing RSUs, with spatial-grid receiver culling.
//!
//! This is the paper's §V scaling question pushed to city size: what
//! does the ITS access layer do when hundreds-to-thousands of stations
//! share the channel? A naive broadcast evaluates shadowing and
//! frame-error draws for every one of N receivers, making each tick
//! O(N²). Here a [`phy80211p::SpatialGrid`] culls receivers beyond the
//! channel's [`cutoff radius`](phy80211p::channel::Channel::cutoff_radius_m),
//! where the total delivery probability is provably below
//! `2 × CULL_EPS` (DESIGN.md §13) — so culled receivers are not
//! evaluated *at all* and consume **zero** RNG draws.
//!
//! Determinism under culling: per-receiver randomness comes from a
//! stream forked per `(frame, receiver)` label
//! ([`sim_core::SimRng::fork_u64`]), never from a shared sequential
//! stream. Whether a receiver is evaluated therefore cannot perturb any
//! other receiver's draws, and the [`exhaustive`](CityConfig::exhaustive)
//! reference mode (which evaluates every receiver, O(N²)) produces the
//! *bit-identical* [`CityRecord`] — pinned by `tests/culling_differential.rs`
//! and re-asserted by the `city_scale` benchmark.
//!
//! Fleet state lives in a [`StationArena`]
//! structure-of-arrays, so the kinematics pass, busy accounting, and
//! DCC window rolls walk contiguous arrays.

use crate::station::StationArena;
use phy80211p::dcc::DccState;
use phy80211p::{Channel, ChannelConfig, DataRate, FrameLink, Position2D, SpatialGrid};
use sim_core::{SimDuration, SimRng, SimTime};

/// Configuration of a city-scale run.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of stations (vehicles + RSUs).
    pub n_stations: usize,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Tick length (one kinematics + beaconing pass per tick).
    pub tick: SimDuration,
    /// Manhattan street spacing, metres.
    pub street_spacing_m: f64,
    /// Station density, stations per km². The map area scales with the
    /// station count so density — and therefore the neighbour count a
    /// transmission must evaluate — stays constant across the sweep.
    pub density_per_km2: f64,
    /// CAM frame length, bytes.
    pub cam_len_bytes: usize,
    /// DENM frame length, bytes.
    pub denm_len_bytes: usize,
    /// PHY data rate.
    pub data_rate: DataRate,
    /// How often an RSU issues a DENM (round-robin over the RSUs).
    pub denm_period: SimDuration,
    /// One station in `rsu_every` is a static RSU at an intersection.
    pub rsu_every: usize,
    /// Evaluate every receiver (O(N²) reference) instead of culling.
    /// Produces the bit-identical record; only the cost differs.
    pub exhaustive: bool,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            seed: 20230627,
            n_stations: 100,
            duration: SimDuration::from_secs(10),
            tick: SimDuration::from_millis(100),
            street_spacing_m: 50.0,
            density_per_km2: 120.0,
            cam_len_bytes: 100,
            denm_len_bytes: 120,
            data_rate: DataRate::Mbps6,
            denm_period: SimDuration::from_secs(1),
            rsu_every: 20,
            exhaustive: false,
        }
    }
}

/// The urban channel profile the city scenario uses: reduced transmit
/// power (10 dBm — dense deployments cannot run class C 23 dBm) and a
/// street-canyon path-loss exponent of 3.2. With the default CAM length
/// this puts the cutoff radius near 140 m, so a constant-density city
/// keeps each broadcast's neighbourhood small.
pub fn urban_channel_config() -> ChannelConfig {
    ChannelConfig {
        tx_power_dbm: 10.0,
        path_loss_exponent: 3.2,
        ..ChannelConfig::default()
    }
}

/// Result of one city run.
#[derive(Debug, Clone, PartialEq)]
pub struct CityRecord {
    /// Stations in the run.
    pub n_stations: usize,
    /// CAM frames that reached the air.
    pub cams_transmitted: u64,
    /// Delivered CAM receptions over in-cutoff reception opportunities.
    pub cam_delivery_ratio: f64,
    /// Mean channel busy ratio over all stations' completed probe
    /// windows (each station only hears in-cutoff transmissions).
    pub mean_cbr: f64,
    /// DENM frames delivered to some receiver.
    pub denm_receptions: u64,
    /// Mean DENM reception latency (queueing behind same-tick CAM
    /// airtime near the RSU, plus airtime and propagation), ms.
    pub mean_denm_latency_ms: f64,
    /// Per-receiver channel evaluations performed: one
    /// [`phy80211p::Channel::deliver`] call each, which forks the
    /// receiver's stream and draws its shadowing, and runs the FER math
    /// and the delivery draw only above the frame's saturation SNR. The
    /// benchmark's events/s denominator.
    pub events: u64,
    /// The most restrictive DCC state any station reached.
    pub worst_dcc_state: DccState,
}

/// Street-topology state for the Manhattan kinematics pass, kept as
/// parallel arrays so the per-tick update is one contiguous walk.
struct Streets {
    /// Map edge length, metres.
    side_m: f64,
    /// Progress along the street, metres (wraps at `side_m`).
    along: Vec<f64>,
    /// 0 = horizontal street (y fixed), 1 = vertical street (x fixed).
    axis: Vec<u8>,
    /// The fixed cross coordinate (the street's position), metres.
    cross: Vec<f64>,
    /// Signed speed along the street, m/s (0 for RSUs).
    dir_speed: Vec<f64>,
}

impl Streets {
    /// Lays out `n` stations on the grid: every `rsu_every`-th is a
    /// static RSU parked at an intersection, the rest are vehicles on
    /// random streets.
    fn layout(config: &CityConfig, rng: &mut SimRng) -> Streets {
        let n = config.n_stations;
        let area_km2 = n as f64 / config.density_per_km2.max(1e-9);
        let side_m = (area_km2.max(1e-9).sqrt() * 1000.0).max(config.street_spacing_m);
        let n_streets = (side_m / config.street_spacing_m).floor().max(1.0) as u64;
        let mut streets = Streets {
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
                // RSU: parked at an intersection of two streets.
                let other = (rng.next_u64() % n_streets) as f64 * config.street_spacing_m;
                streets.along.push(other);
                streets.axis.push(0);
                streets.cross.push(street);
                streets.dir_speed.push(0.0);
            } else {
                let axis = (rng.next_u64() % 2) as u8;
                let along = rng.uniform(0.0, side_m);
                let speed = rng.uniform(6.0, 14.0);
                let sign = if rng.next_u64().is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                streets.along.push(along);
                streets.axis.push(axis);
                streets.cross.push(street);
                streets.dir_speed.push(sign * speed);
            }
        }
        streets
    }

    /// Advances every station `dt` along its street (wrapping at the
    /// map edge) and writes the resulting positions into the arena's
    /// coordinate arrays — contiguous passes over flat `f64` slices.
    fn advance_into(&mut self, dt: SimDuration, arena: &mut StationArena) {
        let dt_s = dt.as_secs_f64();
        let side = self.side_m;
        for (along, speed) in self.along.iter_mut().zip(self.dir_speed.iter()) {
            *along = (*along + speed * dt_s).rem_euclid(side);
        }
        for (((x, axis), along), cross) in arena
            .xs_mut()
            .iter_mut()
            .zip(self.axis.iter())
            .zip(self.along.iter())
            .zip(self.cross.iter())
        {
            *x = if *axis == 0 { *along } else { *cross };
        }
        for (((y, axis), along), cross) in arena
            .ys_mut()
            .iter_mut()
            .zip(self.axis.iter())
            .zip(self.along.iter())
            .zip(self.cross.iter())
        {
            *y = if *axis == 0 { *cross } else { *along };
        }
    }

    fn position_of(&self, i: usize) -> Position2D {
        let along = self.along.get(i).copied().unwrap_or(0.0);
        let cross = self.cross.get(i).copied().unwrap_or(0.0);
        if self.axis.get(i).copied().unwrap_or(0) == 0 {
            Position2D::new(along, cross)
        } else {
            Position2D::new(cross, along)
        }
    }
}

/// Runs one city-scale simulation.
///
/// # Panics
///
/// Panics if the configuration has no stations or a zero tick.
pub fn run_city(config: &CityConfig) -> CityRecord {
    assert!(config.n_stations > 0, "need at least one station");
    assert!(!config.tick.is_zero(), "tick must be positive");
    let root = SimRng::seed_from(config.seed);
    let mut setup_rng = root.fork("city/setup");

    let channel = Channel::new(urban_channel_config());
    // The grid query radius must bound *both* frame types; the shorter
    // frame has the lower delivery floor and therefore the larger
    // cutoff, but compute both rather than assuming.
    let cutoff = channel
        .cutoff_radius_m(config.cam_len_bytes, config.data_rate)
        .max(channel.cutoff_radius_m(config.denm_len_bytes, config.data_rate));
    let cutoff2 = cutoff * cutoff;
    let cell_m = (cutoff / 2.0).clamp(10.0, 500.0);

    let mut streets = Streets::layout(config, &mut setup_rng);
    let mut arena = StationArena::new(SimDuration::from_millis(100));
    let mut grid = SpatialGrid::new(cell_m);
    for i in 0..config.n_stations {
        let pos = streets.position_of(i);
        let heading = if streets.axis.get(i).copied().unwrap_or(0) == 0 {
            90.0
        } else {
            0.0
        };
        let speed = streets.dir_speed.get(i).copied().unwrap_or(0.0).abs();
        arena.push_station(pos, heading, speed);
        grid.insert(pos);
    }
    let rsus: Vec<u32> = (0..config.n_stations as u32)
        .filter(|i| config.rsu_every > 0 && (*i as usize).is_multiple_of(config.rsu_every))
        .collect();

    let cam_link = channel.frame_link(config.cam_len_bytes, config.data_rate);
    let denm_link = channel.frame_link(config.denm_len_bytes, config.data_rate);

    let mut frame_id: u64 = 0;
    let mut events: u64 = 0;
    let mut cam_deliveries: u64 = 0;
    let mut cam_opportunities: u64 = 0;
    let mut denm_receptions: u64 = 0;
    let mut denm_latency_ns_sum: u128 = 0;
    let mut next_denm = SimTime::ZERO + config.denm_period;
    let mut denm_round: usize = 0;
    let mut denms_sent: u64 = 0;

    let mut candidates: Vec<u32> = Vec::new();
    let mut now = SimTime::ZERO;
    let end = SimTime::ZERO + config.duration;
    while now < end {
        // 1. Kinematics: contiguous SoA pass, then refresh the grid.
        streets.advance_into(config.tick, &mut arena);
        for idx in 0..arena.station_count() as u32 {
            if let Some(pos) = arena.position_of(idx) {
                grid.relocate(idx, pos);
            }
        }

        let denm_due = next_denm <= now + config.tick;
        let denm_rsu = rsus.get(denm_round % rsus.len().max(1)).copied();
        let denm_rsu_pos = denm_rsu.and_then(|r| arena.position_of(r));
        // Airtime queued ahead of this tick's DENM by CAMs near the RSU.
        let mut denm_queue_ns: u64 = 0;

        // 2. CAM pass, station index order.
        for tx in 0..config.n_stations as u32 {
            if !arena.gate_open(tx, now) {
                continue;
            }
            let Some(tx_pos) = arena.position_of(tx) else {
                continue;
            };
            frame_id += 1;
            arena.record_tx(tx, now);
            if denm_due {
                if let Some(rsu_pos) = denm_rsu_pos {
                    let dx = tx_pos.x - rsu_pos.x;
                    let dy = tx_pos.y - rsu_pos.y;
                    if dx * dx + dy * dy <= cutoff2 {
                        denm_queue_ns = denm_queue_ns.saturating_add(cam_link.airtime().as_nanos());
                    }
                }
            }
            events += broadcast(
                &channel,
                &root,
                &grid,
                BroadcastFrame {
                    frame_id,
                    tx,
                    tx_pos,
                    link: cam_link,
                    start: now,
                    cutoff,
                    exhaustive: config.exhaustive,
                    n_stations: config.n_stations as u32,
                },
                &mut candidates,
                |rx, arrival, arena: &mut StationArena| {
                    cam_opportunities += 1;
                    if arrival.is_some() {
                        cam_deliveries += 1;
                        arena.record_rx(rx);
                    }
                },
                &mut arena,
            );
        }

        // 3. DENM pass: the due RSU broadcasts after this tick's CAMs.
        if denm_due {
            if let (Some(rsu), Some(rsu_pos)) = (denm_rsu, denm_rsu_pos) {
                frame_id += 1;
                arena.record_tx(rsu, now);
                denms_sent += 1;
                let start = now + SimDuration::from_nanos(denm_queue_ns);
                events += broadcast(
                    &channel,
                    &root,
                    &grid,
                    BroadcastFrame {
                        frame_id,
                        tx: rsu,
                        tx_pos: rsu_pos,
                        link: denm_link,
                        start,
                        cutoff,
                        exhaustive: config.exhaustive,
                        n_stations: config.n_stations as u32,
                    },
                    &mut candidates,
                    |rx, arrival, arena: &mut StationArena| {
                        if let Some(arrival) = arrival {
                            denm_receptions += 1;
                            denm_latency_ns_sum +=
                                u128::from(arrival.saturating_duration_since(now).as_nanos());
                            arena.record_rx(rx);
                        }
                    },
                    &mut arena,
                );
            }
            denm_round += 1;
            next_denm += config.denm_period;
        }

        // 4. Roll every station's CBR window (contiguous SoA pass).
        now += config.tick;
        arena.roll_windows(now);
    }

    let cams_transmitted = arena.tx_total().saturating_sub(denms_sent);
    CityRecord {
        n_stations: config.n_stations,
        cams_transmitted,
        cam_delivery_ratio: if cam_opportunities == 0 {
            0.0
        } else {
            cam_deliveries as f64 / cam_opportunities as f64
        },
        mean_cbr: arena.mean_cbr(),
        denm_receptions,
        mean_denm_latency_ms: if denm_receptions == 0 {
            0.0
        } else {
            denm_latency_ns_sum as f64 / denm_receptions as f64 / 1e6
        },
        events,
        worst_dcc_state: arena.worst_dcc_state(),
    }
}

/// One frame's broadcast parameters (bundled to keep `broadcast` small).
struct BroadcastFrame {
    frame_id: u64,
    tx: u32,
    tx_pos: Position2D,
    link: FrameLink,
    start: SimTime,
    cutoff: f64,
    exhaustive: bool,
    n_stations: u32,
}

/// Evaluates one broadcast frame against its receiver set and returns
/// the number of per-receiver channel evaluations performed.
///
/// Culled mode asks the grid for the in-cutoff candidates; exhaustive
/// mode walks every station. In both modes, only in-cutoff receivers
/// observe busy airtime and count toward delivery metrics, and each
/// evaluated receiver's randomness comes from a stream forked on the
/// `(frame, receiver)` label — so the two modes produce bit-identical
/// records and differ only in evaluations performed. `on_in_cutoff`
/// gets the arrival time of a delivered frame, `None` otherwise.
fn broadcast<F>(
    channel: &Channel,
    root: &SimRng,
    grid: &SpatialGrid,
    frame: BroadcastFrame,
    candidates: &mut Vec<u32>,
    mut on_in_cutoff: F,
    arena: &mut StationArena,
) -> u64
where
    F: FnMut(u32, Option<SimTime>, &mut StationArena),
{
    let cutoff2 = frame.cutoff * frame.cutoff;
    let airtime = frame.link.airtime();
    let mut evaluations: u64 = 0;
    // The transmitter's own radio is busy for the frame duration too.
    arena.note_busy(frame.tx, airtime);
    if frame.exhaustive {
        candidates.clear();
        candidates.extend(0..frame.n_stations);
    } else {
        grid.candidates_within(frame.tx_pos, frame.cutoff, candidates);
    }
    // Walk by index so the arena stays mutable inside the loop.
    for k in 0..candidates.len() {
        let Some(&rx) = candidates.get(k) else {
            continue;
        };
        if rx == frame.tx {
            continue;
        }
        let Some(rx_pos) = arena.position_of(rx) else {
            continue;
        };
        let label = (frame.frame_id << 32) | u64::from(rx);
        let arrival = channel.deliver(
            &frame.link,
            frame.start,
            frame.tx_pos,
            rx_pos,
            root.fork_u64(label),
        );
        evaluations += 1;
        let dx = rx_pos.x - frame.tx_pos.x;
        let dy = rx_pos.y - frame.tx_pos.y;
        if dx * dx + dy * dy <= cutoff2 {
            arena.note_busy(rx, airtime);
            on_in_cutoff(rx, arrival, arena);
        }
    }
    evaluations
}

/// Renders a node-count sweep as a table, one whole simulated city per
/// job on `exec` (via [`crate::campaign::Executor::run_indexed`] — city
/// jobs are not scenario runs, so multi-process executors fall back to
/// their in-process path). Rows render in `counts` order, so the table
/// is identical for every executor.
pub fn sweep_city(
    exec: &impl crate::campaign::Executor,
    base: &CityConfig,
    counts: &[usize],
) -> String {
    let records = sweep_city_records(exec, base, counts);
    let mut out = String::from(
        "nodes   CAM delivery   mean CBR   DENM latency (ms)   events   worst DCC state\n",
    );
    for record in &records {
        out.push_str(&format!(
            "{:>5}   {:>12.4}   {:>8.4}   {:>17.4}   {:>6}   {:?}\n",
            record.n_stations,
            record.cam_delivery_ratio,
            record.mean_cbr,
            record.mean_denm_latency_ms,
            record.events,
            record.worst_dcc_state
        ));
    }
    out
}

/// The records behind [`sweep_city`], in `counts` order.
pub fn sweep_city_records(
    exec: &impl crate::campaign::Executor,
    base: &CityConfig,
    counts: &[usize],
) -> Vec<CityRecord> {
    exec.run_indexed(counts.len(), |i| {
        run_city(&CityConfig {
            n_stations: counts.get(i).copied().unwrap_or(1),
            ..base.clone()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(n: usize) -> CityConfig {
        CityConfig {
            n_stations: n,
            duration: SimDuration::from_secs(2),
            ..CityConfig::default()
        }
    }

    #[test]
    fn deterministic() {
        let a = run_city(&quick(60));
        let b = run_city(&quick(60));
        assert_eq!(a, b);
    }

    #[test]
    fn culled_matches_exhaustive_bitwise() {
        let culled = run_city(&quick(80));
        let exhaustive = run_city(&CityConfig {
            exhaustive: true,
            ..quick(80)
        });
        // Same record, more work: the exhaustive reference evaluates
        // every receiver, culling only the metrics.
        assert!(exhaustive.events > culled.events);
        assert_eq!(
            CityRecord {
                events: culled.events,
                ..exhaustive
            },
            culled
        );
    }

    #[test]
    fn city_delivers_cams_and_denms() {
        let record = run_city(&quick(100));
        assert!(record.cams_transmitted > 0);
        // The cutoff circle is conservative: its outer annulus (between
        // the reliable range and the shadowing-margin cutoff) delivers
        // rarely, so the in-cutoff delivery ratio sits well below 1 but
        // must be clearly nonzero.
        assert!(
            record.cam_delivery_ratio > 0.02 && record.cam_delivery_ratio < 1.0,
            "in-cutoff delivery ratio out of range: {}",
            record.cam_delivery_ratio
        );
        assert!(record.denm_receptions > 0);
        assert!(record.mean_denm_latency_ms > 0.0);
        assert!(record.mean_cbr > 0.0);
    }

    #[test]
    fn constant_density_keeps_per_event_cost_flat() {
        // events ∝ N · neighbours; with constant density, events/N stays
        // near-constant as N grows (the whole point of culling).
        let small = run_city(&quick(50));
        let large = run_city(&quick(200));
        let per_node_small = small.events as f64 / small.n_stations as f64;
        let per_node_large = large.events as f64 / large.n_stations as f64;
        assert!(
            per_node_large < 2.5 * per_node_small,
            "per-node events should not grow with N: {per_node_small} vs {per_node_large}"
        );
    }

    #[test]
    fn sweep_renders_one_row_per_count() {
        let s = sweep_city(
            &crate::Runner::from_env(),
            &CityConfig {
                duration: SimDuration::from_secs(1),
                ..CityConfig::default()
            },
            &[20, 40],
        );
        assert!(s.starts_with("nodes"));
        assert_eq!(s.lines().count(), 3);
    }
}
