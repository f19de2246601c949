//! A cellular (5G-like) alternative access interface.
//!
//! The paper's future work (§V) plans a 5G module on the robotic vehicles
//! "to compare the same detection-to-action delay over a different
//! interface and network". This module provides that comparison interface
//! for the extension experiment: instead of a broadcast medium, delivery
//! goes through a base station / core hop with a latency distribution and
//! an independent loss probability.
//!
//! The default profile models a commercial 5G NSA uplink+downlink path:
//! ~12 ms median one-way latency with a long exponential tail — an order
//! of magnitude above the direct 802.11p hop, which is exactly the
//! contrast the comparison experiment is after.

use sim_core::{SimDuration, SimRng, SimTime};

/// Latency/loss profile of a cellular link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellularProfile {
    /// Fixed one-way latency floor (radio + core processing), seconds.
    pub base_latency_s: f64,
    /// Mean of the exponential jitter component, seconds.
    pub jitter_mean_s: f64,
    /// Probability that a message is lost end-to-end.
    pub loss_probability: f64,
}

impl CellularProfile {
    /// A commercial 5G (NSA) profile: 8 ms floor + 4 ms mean jitter.
    pub fn nsa_5g() -> Self {
        Self {
            base_latency_s: 0.008,
            jitter_mean_s: 0.004,
            loss_probability: 0.001,
        }
    }

    /// An ideal 5G URLLC profile: 1 ms floor + 0.5 ms mean jitter.
    pub fn urllc_5g() -> Self {
        Self {
            base_latency_s: 0.001,
            jitter_mean_s: 0.0005,
            loss_probability: 0.0001,
        }
    }

    /// An LTE-V2X (Uu) style profile: 25 ms floor + 15 ms mean jitter.
    pub fn lte_uu() -> Self {
        Self {
            base_latency_s: 0.025,
            jitter_mean_s: 0.015,
            loss_probability: 0.005,
        }
    }
}

/// Outcome of a cellular message delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellularOutcome {
    /// Whether the message arrived.
    pub delivered: bool,
    /// Arrival instant (meaningful when `delivered`).
    pub arrival: SimTime,
}

/// A cellular link instance.
#[derive(Debug, Clone)]
pub struct CellularLink {
    profile: CellularProfile,
}

impl CellularLink {
    /// Creates a link with the given profile.
    pub fn new(profile: CellularProfile) -> Self {
        Self { profile }
    }

    /// Sends one message at `now`; latency and loss are sampled from the
    /// profile. Message size is ignored (small ITS messages are far below
    /// a 5G TB size).
    pub fn send(&self, now: SimTime, rng: &mut SimRng) -> CellularOutcome {
        if rng.bernoulli(self.profile.loss_probability) {
            return CellularOutcome {
                delivered: false,
                arrival: now,
            };
        }
        let latency =
            self.profile.base_latency_s + rng.exponential(self.profile.jitter_mean_s.max(1e-9));
        CellularOutcome {
            delivered: true,
            arrival: now + SimDuration::from_secs_f64(latency),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_at_least_base() {
        let link = CellularLink::new(CellularProfile::nsa_5g());
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let out = link.send(SimTime::ZERO, &mut rng);
            if out.delivered {
                assert!(out.arrival.as_secs_f64() >= 0.008);
            }
        }
    }

    #[test]
    fn mean_latency_close_to_profile() {
        let link = CellularLink::new(CellularProfile::nsa_5g());
        let mut rng = SimRng::seed_from(2);
        let mut sum = 0.0;
        let mut n = 0;
        for _ in 0..20_000 {
            let out = link.send(SimTime::ZERO, &mut rng);
            if out.delivered {
                sum += out.arrival.as_secs_f64();
                n += 1;
            }
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.012).abs() < 0.0005, "mean {mean}");
    }

    #[test]
    fn loss_probability_respected() {
        let link = CellularLink::new(CellularProfile {
            base_latency_s: 0.001,
            jitter_mean_s: 0.001,
            loss_probability: 0.2,
        });
        let mut rng = SimRng::seed_from(3);
        let lost = (0..10_000)
            .filter(|_| !link.send(SimTime::ZERO, &mut rng).delivered)
            .count();
        let p = lost as f64 / 10_000.0;
        assert!((p - 0.2).abs() < 0.02, "loss {p}");
    }

    #[test]
    fn urllc_beats_nsa_beats_lte() {
        let mut rng = SimRng::seed_from(4);
        let mean = |profile: CellularProfile, rng: &mut SimRng| {
            let link = CellularLink::new(profile);
            (0..5000)
                .filter_map(|_| {
                    let o = link.send(SimTime::ZERO, rng);
                    o.delivered.then(|| o.arrival.as_secs_f64())
                })
                .sum::<f64>()
                / 5000.0
        };
        let urllc = mean(CellularProfile::urllc_5g(), &mut rng);
        let nsa = mean(CellularProfile::nsa_5g(), &mut rng);
        let lte = mean(CellularProfile::lte_uu(), &mut rng);
        assert!(urllc < nsa && nsa < lte, "{urllc} {nsa} {lte}");
    }
}
