//! Platoon extension (paper §V): "extend the testbed to support connected
//! platoons (i.e., more robotic vehicles that are following each other),
//! and evaluate the detection-to-action delay for the entire platoon."
//!
//! Also implements the multi-technology arrangement sketched there: "the
//! platoon leader is 5G-capable while intra-platoon message forwarding is
//! based on IEEE 802.11p".
//!
//! The platoon drives in single file toward the hazard; the RSU emits
//! one DENM. Per vehicle we compute the DENM arrival (directly over the
//! GeoBroadcast, or leader-first + hop-by-hop forwarding), then run the
//! shared chain's OBU → actuator stage (RX chain, polling with
//! retry/backoff, ECU, Teensy) and the resulting stop profile; the
//! whole-platoon detection-to-action delay is the worst vehicle's, and
//! the minimum inter-vehicle gap tells whether the platoon stayed safe.

use crate::chain::ChainParams;
use crate::scenario::ScenarioConfig;
use faults::{FaultInjector, FaultNode, FaultPlan, FaultStats};
use openc2x::node::GEO_ORIGIN;
use phy80211p::cellular::{CellularLink, CellularProfile};
use phy80211p::channel::{Channel, ChannelConfig};
use phy80211p::edca::{AccessCategory, EdcaParams, Medium};
use phy80211p::ofdm::{airtime, DataRate};
use phy80211p::Position2D;
use sim_core::{SimDuration, SimRng, SimTime};
use vehicle::dynamics::{LongitudinalModel, VehicleParams};
use vehicle::watchdog::{
    DegradationLevel, V2xWatchdog, WatchdogConfig, FAILSAFE_THROTTLE_SCALE, HEARTBEAT_PERIOD,
};

/// Cruise speed, m/s: the speed the fixed 0.214 throttle holds.
const SPEED_MPS: f64 = 1.5;
/// Leader's distance from the RSU at DENM send, m.
const LEADER_DISTANCE_M: f64 = 3.0;
/// Overall length of each scale vehicle, m (paper: ≈ 0.53 m).
const VEHICLE_LENGTH_M: f64 = 0.53;
/// DENM frame size on the air, bytes.
const FRAME_BYTES: usize = 110;
/// Data rate of the 802.11p transmissions.
const DATA_RATE: DataRate = DataRate::Mbps6;
/// Per-hop forwarding processing delay (decode + re-encode), s.
const FORWARD_PROCESSING_S: f64 = 0.004;

/// How the DENM reaches the platoon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlatoonLink {
    /// Every vehicle receives the RSU's GeoBroadcast directly.
    DirectGbc,
    /// Only the leader receives (over a cellular link); each vehicle
    /// forwards to its follower over 802.11p.
    LeaderCellularRelay(CellularProfile),
}

/// Platoon experiment configuration.
#[derive(Debug, Clone)]
pub struct PlatoonConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of vehicles (leader + followers).
    pub n_vehicles: usize,
    /// Bumper-to-bumper gap at cruise, m.
    pub gap_m: f64,
    /// DENM delivery arrangement.
    pub link: PlatoonLink,
    /// Emergency-braking-as-fail-safe variant: the leader brakes
    /// immediately on its own sensors (at the RSU send instant), while
    /// the followers still depend on the (relayed) DENM — the classic
    /// platoon emergency-brake hazard where late delivery closes gaps.
    pub leader_brakes_on_detection: bool,
    /// Fault schedule threaded through the run. The empty plan is a
    /// strict no-op: no injector method draws, so every legacy RNG
    /// stream — and therefore the whole record — stays byte-identical.
    pub fault_plan: FaultPlan,
    /// Per-follower V2V heartbeat watchdog. `Some` enables the leader's
    /// CAM heartbeat, its hop-by-hop relay down the string, and the
    /// fail-safe degradation cascade (DESIGN.md §15); `None` keeps the
    /// legacy open-loop stop profiles untouched.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for PlatoonConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            n_vehicles: 4,
            gap_m: 1.2,
            link: PlatoonLink::DirectGbc,
            leader_brakes_on_detection: false,
            fault_plan: FaultPlan::default(),
            watchdog: None,
        }
    }
}

/// Result of one platoon run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatoonRecord {
    /// Per-vehicle DENM arrival time after the RSU send, ms.
    pub denm_rx_ms: Vec<f64>,
    /// Per-vehicle detection-to-action (RSU send → power-cut command,
    /// the chain's step 5), ms. Braking starts at the physical cut,
    /// after the Teensy/ESC latency.
    pub action_ms: Vec<f64>,
    /// Per-vehicle stopping distance from actuation, m.
    pub braking_m: Vec<f64>,
    /// Minimum bumper gap between consecutive vehicles while stopping, m.
    pub min_gap_m: f64,
    /// Whole-platoon detection-to-action delay (worst vehicle), ms.
    pub platoon_action_ms: f64,
    /// Vehicles that never received the DENM.
    pub undelivered: usize,
    /// Followers that left nominal driving under the heartbeat-relay
    /// degradation cascade (0 when the watchdog is off).
    pub cascade_depth: usize,
    /// Followers that latched the watchdog's controlled stop.
    pub failsafe_stops: usize,
    /// Relayed leader heartbeats delivered across all followers.
    pub heartbeats_delivered: u64,
    /// Fault-plane counters (injections plus watchdog trips).
    pub fault: FaultStats,
}

impl PlatoonRecord {
    /// Whether every vehicle received and acted on the DENM.
    pub fn all_acted(&self) -> bool {
        self.undelivered == 0
    }

    /// Whether any two vehicles closed to a zero gap (collision).
    pub fn collision(&self) -> bool {
        self.min_gap_m <= 0.0
    }
}

/// Runs the platoon experiment.
///
/// # Panics
///
/// Panics if `n_vehicles` is zero.
pub fn run_platoon(config: &PlatoonConfig) -> PlatoonRecord {
    assert!(config.n_vehicles > 0, "platoon needs at least one vehicle");
    let mut rng = SimRng::seed_from(config.seed);
    // Forking is draw-free on the parent, so carving out the fault
    // stream and one stream per platoon member leaves every legacy draw
    // below byte-identical — the empty-plan no-op invariant.
    let mut injector = FaultInjector::new(config.fault_plan.clone(), rng.fork("faults"));
    let member_root = rng.fork("member-faults");
    let mut member_injectors: Vec<FaultInjector> = (0..config.n_vehicles)
        .map(|i| FaultInjector::new(config.fault_plan.clone(), member_root.fork_u64(i as u64)))
        .collect();
    let channel = Channel::new(ChannelConfig::default());
    let vehicle = VehicleParams::default();
    // Every vehicle polls its own OBU through the chain's OBU →
    // actuator stage.
    let stage = ChainParams::from(&ScenarioConfig::default());
    let voice = EdcaParams::for_category(AccessCategory::Voice);
    let mut medium = Medium::new();
    let rsu_pos = Position2D::new(0.0, 1.0);

    // Vehicle i cruises at x = leader_distance + i·(gap + length).
    let spacing = config.gap_m + VEHICLE_LENGTH_M;
    let positions: Vec<Position2D> = (0..config.n_vehicles)
        .map(|i| Position2D::new(LEADER_DISTANCE_M + i as f64 * spacing, 0.0))
        .collect();

    // Phase of each vehicle's polling loop.
    let phases: Vec<SimDuration> = (0..config.n_vehicles)
        .map(|_| SimDuration::from_secs_f64(rng.f64() * stage.polling.period.as_secs_f64()))
        .collect();

    // --- DENM propagation: arrival time per vehicle (None = lost). ---
    let send = SimTime::from_millis(10);
    let mut arrivals: Vec<Option<SimTime>> = vec![None; config.n_vehicles];
    match config.link {
        PlatoonLink::DirectGbc => {
            let start = voice.access_time(send, &medium, &mut rng);
            let at = airtime(FRAME_BYTES, DATA_RATE);
            medium.occupy(start + at);
            for (i, pos) in positions.iter().enumerate() {
                // Fault plane: the medium loses this receiver's copy
                // (radio silence / stuck RSU transmitter) or the
                // receiving member is crashed. Plans targeting member i
                // draw only from member i's forked stream.
                if injector.radio_drop(start, FaultNode::Rsu)
                    || member_injectors[i].node_down(start, FaultNode::Platoon(i as u8))
                {
                    continue;
                }
                let out = channel.transmit(start, rsu_pos, *pos, FRAME_BYTES, DATA_RATE, &mut rng);
                if out.delivered {
                    arrivals[i] = Some(out.arrival);
                }
            }
        }
        PlatoonLink::LeaderCellularRelay(profile) => {
            let link = CellularLink::new(profile);
            // Fault plane: the cellular downlink counts as an RSU-side
            // transmission; a crashed leader cannot receive it.
            let leg_lost = injector.radio_drop(send, FaultNode::Rsu)
                || member_injectors[0].node_down(send, FaultNode::Platoon(0));
            let out = link.send(send, &mut rng);
            if out.delivered && !leg_lost {
                arrivals[0] = Some(out.arrival);
                // Hop-by-hop forward i → i+1 over 802.11p, using the real
                // GeoNetworking GBC forwarding rules (hop-limit decrement
                // + area containment) on an actual packet.
                let area_centre = openc2x::node::lab_to_geo(
                    GEO_ORIGIN,
                    Position2D::new(
                        LEADER_DISTANCE_M + spacing * (config.n_vehicles as f64) / 2.0,
                        0.0,
                    ),
                );
                let source = geonet::LongPositionVector::new(
                    geonet::GnAddress::new(15),
                    send.as_millis(),
                    GEO_ORIGIN.0,
                    GEO_ORIGIN.1,
                    0.0,
                    0.0,
                );
                let area = geonet::GeoArea::circle(area_centre.0, area_centre.1, 100.0);
                let mut packet = geonet::GnPacket::geo_broadcast(
                    source,
                    1,
                    area,
                    geonet::headers::TrafficClass::dp0(),
                    geonet::btp::BtpPort::DENM,
                    vec![0u8; FRAME_BYTES.saturating_sub(60)],
                );
                let mut t = out.arrival;
                for i in 1..config.n_vehicles {
                    let (lat, lon) = openc2x::node::lab_to_geo(GEO_ORIGIN, positions[i - 1]);
                    match geonet::forwarding::gbc_forward_decision(&packet, lat, lon) {
                        geonet::forwarding::ForwardDecision::Rebroadcast(next) => {
                            packet = next;
                        }
                        geonet::forwarding::ForwardDecision::Discard(_) => break,
                    }
                    t += SimDuration::from_secs_f64(FORWARD_PROCESSING_S);
                    // Fault plane: hop i−1 → i dies when the forwarding
                    // member's transmitter is silenced or the receiving
                    // member is crashed; the rest of the chain starves.
                    if member_injectors[i - 1].radio_drop(t, FaultNode::Platoon((i - 1) as u8))
                        || member_injectors[i].node_down(t, FaultNode::Platoon(i as u8))
                    {
                        break;
                    }
                    let start = voice.access_time(t, &medium, &mut rng);
                    let at = airtime(FRAME_BYTES, DATA_RATE);
                    medium.occupy(start + at);
                    let hop = channel.transmit(
                        start,
                        positions[i - 1],
                        positions[i],
                        FRAME_BYTES,
                        DATA_RATE,
                        &mut rng,
                    );
                    if !hop.delivered {
                        break; // chain broken: rest of platoon unreached
                    }
                    arrivals[i] = Some(hop.arrival);
                    t = hop.arrival;
                }
            }
        }
    }

    // --- Per-vehicle OBU → actuator stage of the shared chain: the RX
    // chain, the poll loop with its retry/backoff, the ECU and the
    // Teensy. Each entry is (command, physical cut). ---
    let horizon = SimTime::from_millis(2 * 30_000);
    let mut action_times: Vec<Option<(SimTime, SimTime)>> = vec![None; config.n_vehicles];
    for (i, arrival) in arrivals.iter().enumerate() {
        if i == 0 && config.leader_brakes_on_detection {
            // The leader's own sensors see the hazard: it cuts power at
            // the send instant, no network in the loop.
            action_times[0] = Some((send, send));
        } else if let Some(arrival) = *arrival {
            let injector = &mut member_injectors[i];
            action_times[i] =
                stage.obu_to_actuator(arrival, phases[i], horizon, injector, &mut rng);
        }
    }

    // --- V2V heartbeat relay + fail-safe degradation cascade. ---
    //
    // With the watchdog enabled, the leader originates a CAM heartbeat
    // every `HEARTBEAT_PERIOD` and each member relays it to its
    // follower, so silencing one transmitter starves every watchdog
    // downstream — the cascading failure this scenario exists to show.
    let mut dogs: Vec<V2xWatchdog> = Vec::new();
    let mut hb_times: Vec<Vec<SimTime>> = vec![Vec::new(); config.n_vehicles];
    let mut heartbeats_delivered = 0u64;
    if let Some(wcfg) = config.watchdog {
        dogs = (0..config.n_vehicles)
            .map(|_| V2xWatchdog::new(wcfg))
            .collect();
        let mut t = SimTime::ZERO + HEARTBEAT_PERIOD;
        while t <= horizon {
            let mut reached = true;
            for k in 1..config.n_vehicles {
                if !reached {
                    break; // nothing left to relay downstream
                }
                let tx = k - 1;
                let lost = member_injectors[tx].radio_drop(t, FaultNode::Platoon(tx as u8))
                    || member_injectors[k].node_down(t, FaultNode::Platoon(k as u8));
                if lost {
                    reached = false;
                } else {
                    hb_times[k].push(t);
                    heartbeats_delivered += 1;
                }
            }
            t += HEARTBEAT_PERIOD;
        }
    }

    // --- Stop profiles and minimum gaps. ---
    let mut braking = Vec::with_capacity(config.n_vehicles);
    let mut stop_profiles: Vec<Vec<(f64, f64)>> = Vec::with_capacity(config.n_vehicles);
    let mut latched_stops = 0usize;
    for (i, action_time) in action_times.iter().take(config.n_vehicles).enumerate() {
        let mut car = LongitudinalModel::new(vehicle);
        car.set_speed(SPEED_MPS);
        // Position along the travel direction (vehicles drive in −x).
        let cut_at = action_time.map(|(_, cut)| cut.as_secs_f64());
        let mut profile = Vec::new();
        let dt = 0.002;
        let mut t = 0.0;
        let mut travelled = 0.0;
        let mut brake_start_odo = None;
        // Cascade state (watchdog enabled, followers only): the next
        // relayed heartbeat to feed, and whether a controlled stop has
        // latched (a stopped member stays stopped even on recovery).
        let mut hb_next = 0usize;
        let mut latched_stop = false;
        let scale = config
            .watchdog
            .map(|_| FAILSAFE_THROTTLE_SCALE)
            .unwrap_or(1.0);
        for step in 0..30_000u64 {
            let throttle = match cut_at {
                Some(cut) if t >= cut => {
                    if brake_start_odo.is_none() {
                        brake_start_odo = Some(car.distance_m());
                    }
                    0.0
                }
                // Hold speed with the throttle that balances resistance.
                _ => 0.214,
            };
            // Degradation ladder: when the watchdog is off `dogs` is
            // empty and this branch never runs, so the legacy float
            // sequence is untouched.
            let throttle = match dogs.get_mut(i).filter(|_| i > 0) {
                None => throttle,
                Some(dog) => {
                    let now = SimTime::from_millis(step * 2);
                    while hb_times[i].get(hb_next).is_some_and(|hb| *hb <= now) {
                        dog.heartbeat(hb_times[i][hb_next]);
                        hb_next += 1;
                    }
                    match dog.assess(now) {
                        _ if latched_stop => 0.0,
                        DegradationLevel::Nominal => throttle,
                        DegradationLevel::SpeedCap => throttle * scale,
                        DegradationLevel::ControlledStop => {
                            latched_stop = true;
                            0.0
                        }
                    }
                }
            };
            travelled = car.distance_m();
            profile.push((t, travelled));
            if cut_at.is_some_and(|c| t > c) && car.speed_mps() <= 0.0 {
                break;
            }
            car.step(dt, throttle);
            t += dt;
        }
        let _ = travelled;
        if latched_stop {
            latched_stops += 1;
        }
        braking.push(match brake_start_odo {
            Some(start) => car.distance_m() - start,
            None => f64::NAN,
        });
        stop_profiles.push(profile);
    }

    // Minimum gap between consecutive vehicles: vehicle i+1 starts
    // `spacing` behind i and both travel forward; gap(t) = spacing −
    // (travel_{i+1}(t) − travel_i(t)).
    let mut min_gap = f64::INFINITY;
    if config.n_vehicles > 1 {
        let steps = stop_profiles.iter().map(Vec::len).min().unwrap_or(0);
        for pair in stop_profiles.windows(2) {
            for (front, rear) in pair[0].iter().zip(&pair[1]).take(steps) {
                let gap = config.gap_m - (rear.1 - front.1);
                min_gap = min_gap.min(gap);
            }
        }
        // After the shortest profile ends, positions are final; compare
        // final travel too.
        for i in 0..config.n_vehicles - 1 {
            let fa = stop_profiles[i].last().map(|p| p.1).unwrap_or(0.0);
            let fb = stop_profiles[i + 1].last().map(|p| p.1).unwrap_or(0.0);
            min_gap = min_gap.min(config.gap_m - (fb - fa));
        }
    }

    let ms_after_send = |t: Option<SimTime>| {
        t.map_or(f64::NAN, |t| {
            (t.as_nanos() as f64 - send.as_nanos() as f64) / 1e6
        })
    };
    let denm_rx_ms: Vec<f64> = arrivals.iter().map(|&a| ms_after_send(a)).collect();
    let action_ms: Vec<f64> = action_times
        .iter()
        .map(|a| ms_after_send(a.map(|(command, _)| command)))
        .collect();
    let undelivered = arrivals.iter().filter(|a| a.is_none()).count();
    let platoon_action_ms = action_ms
        .iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(0.0f64, f64::max);

    // Cascade depth: how many followers the heartbeat starvation pushed
    // out of nominal driving (the leader's dog is never consulted, so
    // only indices 1.. can trip).
    let mut cascade_depth = 0usize;
    let mut fault = injector.stats();
    for inj in &member_injectors {
        fault.absorb(&inj.stats());
    }
    for dog in dogs.iter().skip(1) {
        let trips = dog.trips();
        if trips.speed_caps + trips.stops > 0 {
            cascade_depth += 1;
        }
        fault.watchdog_speed_caps += trips.speed_caps;
        fault.watchdog_stops += trips.stops;
        fault.watchdog_recoveries += trips.recoveries;
    }
    fault.failsafe_stop |= latched_stops > 0;

    PlatoonRecord {
        denm_rx_ms,
        action_ms,
        braking_m: braking,
        min_gap_m: min_gap,
        platoon_action_ms,
        undelivered,
        cascade_depth,
        failsafe_stops: latched_stops,
        heartbeats_delivered,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_gbc_reaches_all_vehicles() {
        let record = run_platoon(&PlatoonConfig::default());
        assert!(record.all_acted(), "undelivered: {}", record.undelivered);
        assert_eq!(record.denm_rx_ms.len(), 4);
        for rx in &record.denm_rx_ms {
            assert!(*rx < 5.0, "direct delivery is sub-5 ms: {rx}");
        }
    }

    #[test]
    fn platoon_action_delay_bounded_by_polling() {
        let record = run_platoon(&PlatoonConfig::default());
        // Worst vehicle's power-cut command: direct rx (<2 ms) + the RX
        // chain (N(1.2, 0.4) ms, < 3 ms) + up to one poll period (50) +
        // the HTTP RTT (capped at 4 × 2 ms) + the ECU issue delay
        // (N(0.3, 0.1) ms) ≈ 63 ms. The Teensy latency comes after the
        // command, so it is not part of the bound.
        assert!(
            record.platoon_action_ms < 65.0,
            "{}",
            record.platoon_action_ms
        );
        assert!(record.platoon_action_ms > 1.0);
    }

    #[test]
    fn relay_chain_adds_per_hop_delay() {
        let mut cfg = PlatoonConfig {
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::nsa_5g()),
            ..PlatoonConfig::default()
        };
        cfg.seed = 7;
        let record = run_platoon(&cfg);
        assert!(record.all_acted());
        // Arrival times strictly increase along the chain.
        for w in record.denm_rx_ms.windows(2) {
            assert!(w[1] > w[0], "relay ordering: {:?}", record.denm_rx_ms);
        }
        // Leader's arrival includes the cellular floor (≥ 8 ms).
        assert!(record.denm_rx_ms[0] >= 8.0);
    }

    #[test]
    fn comfortable_gap_avoids_collision() {
        let record = run_platoon(&PlatoonConfig {
            gap_m: 1.2,
            ..PlatoonConfig::default()
        });
        assert!(!record.collision(), "min gap {}", record.min_gap_m);
        assert!(record.min_gap_m > 0.5);
    }

    #[test]
    fn tight_gap_with_slow_relay_shrinks_margin() {
        let roomy = run_platoon(&PlatoonConfig {
            seed: 3,
            ..PlatoonConfig::default()
        });
        let tight = run_platoon(&PlatoonConfig {
            seed: 3,
            gap_m: 0.3,
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
            ..PlatoonConfig::default()
        });
        assert!(tight.min_gap_m < roomy.min_gap_m);
    }

    #[test]
    fn braking_distances_match_single_vehicle_band() {
        let record = run_platoon(&PlatoonConfig::default());
        for b in &record.braking_m {
            assert!((0.2..=0.4).contains(b), "braking {b}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_platoon(&PlatoonConfig::default());
        let b = run_platoon(&PlatoonConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn leader_emergency_brake_closes_gaps() {
        // Fail-safe variant: the leader stops on its own sensors while
        // followers wait for the relayed DENM — gaps close by the
        // notification delay × speed.
        let passive = run_platoon(&PlatoonConfig {
            seed: 21,
            gap_m: 0.5,
            ..PlatoonConfig::default()
        });
        let emergency = run_platoon(&PlatoonConfig {
            seed: 21,
            gap_m: 0.5,
            leader_brakes_on_detection: true,
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
            ..PlatoonConfig::default()
        });
        assert!(
            emergency.min_gap_m < passive.min_gap_m,
            "{} vs {}",
            emergency.min_gap_m,
            passive.min_gap_m
        );
        // The leader acts immediately.
        assert!(emergency.action_ms[0] <= 0.01, "{:?}", emergency.action_ms);
    }

    #[test]
    fn tight_gap_plus_slow_relay_collides() {
        let crash = run_platoon(&PlatoonConfig {
            seed: 22,
            gap_m: 0.08,
            leader_brakes_on_detection: true,
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
            ..PlatoonConfig::default()
        });
        assert!(crash.collision(), "min gap {}", crash.min_gap_m);
    }

    #[test]
    #[should_panic(expected = "at least one vehicle")]
    fn empty_platoon_panics() {
        let _ = run_platoon(&PlatoonConfig {
            n_vehicles: 0,
            ..PlatoonConfig::default()
        });
    }
}
