//! Scale-to-full-size braking extrapolation (paper §IV-B outlook).
//!
//! "Using parameters of the full-size vehicles, such as stopping power,
//! weight and frontal area, models can be drawn to map braking distances
//! observed in the testbed to real-world ones." This module provides that
//! model: both vehicles are described by the same longitudinal force
//! balance (constant friction/brake deceleration + speed-proportional
//! drag + aerodynamic term), and a measured scale braking distance is
//! mapped to a full-size prediction via the ratio of their
//! characteristic stopping distances at dynamically similar speeds.

/// Longitudinal braking description of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrakingProfile {
    /// Vehicle mass, kg.
    pub mass_kg: f64,
    /// Constant braking force (friction-limited or power-cut drag), N.
    pub brake_force_n: f64,
    /// Speed-proportional drag, N per (m/s).
    pub linear_drag: f64,
    /// Aerodynamic drag, N per (m/s)².
    pub quadratic_drag: f64,
}

impl BrakingProfile {
    /// The 1/10-scale vehicle under a power cut (matches
    /// [`vehicle::dynamics::VehicleParams::default`]).
    pub fn scale_power_cut() -> Self {
        Self {
            mass_kg: 3.2,
            brake_force_n: 0.08 * 3.2 * 9.81,
            linear_drag: 12.0,
            quadratic_drag: 0.02,
        }
    }

    /// A full-size passenger car under moderate service braking
    /// (~0.45 g), 1500 kg, typical drag area.
    pub fn full_size_service_brake() -> Self {
        Self {
            mass_kg: 1500.0,
            brake_force_n: 0.45 * 1500.0 * 9.81,
            linear_drag: 30.0,
            quadratic_drag: 0.4,
        }
    }

    /// A full-size car under emergency AEB braking (~0.8 g).
    pub fn full_size_emergency_brake() -> Self {
        Self {
            brake_force_n: 0.8 * 1500.0 * 9.81,
            ..Self::full_size_service_brake()
        }
    }

    /// Stopping distance from `v0` by integrating
    /// `m·dv/dt = −(F + c₁·v + c₂·v²)`.
    ///
    /// # Panics
    ///
    /// Panics if `v0` is negative.
    pub fn stopping_distance(&self, v0: f64) -> f64 {
        assert!(v0 >= 0.0, "speed must be non-negative");
        let mut v = v0;
        let mut d = 0.0;
        let dt = 1e-4;
        while v > 0.0 {
            let force = self.brake_force_n + self.linear_drag * v + self.quadratic_drag * v * v;
            let a = force / self.mass_kg;
            let v_next = (v - a * dt).max(0.0);
            d += 0.5 * (v + v_next) * dt;
            v = v_next;
        }
        d
    }

    /// Stopping time from `v0`, seconds.
    #[cfg(test)]
    pub fn stopping_time(&self, v0: f64) -> f64 {
        let mut v = v0;
        let mut t = 0.0;
        let dt = 1e-4;
        while v > 0.0 {
            let force = self.brake_force_n + self.linear_drag * v + self.quadratic_drag * v * v;
            v = (v - force / self.mass_kg * dt).max(0.0);
            t += dt;
        }
        t
    }
}

/// Maps a braking distance observed on the scale testbed to the
/// predicted full-size distance.
///
/// `scale_speed` is the scale vehicle's speed at braking onset;
/// `full_speed` the full-size speed of interest. The measured scale
/// distance is corrected by the model ratio so systematic measurement
/// bias carries over proportionally.
pub fn extrapolate_braking_distance(
    measured_scale_m: f64,
    scale: &BrakingProfile,
    scale_speed: f64,
    full: &BrakingProfile,
    full_speed: f64,
) -> f64 {
    let model_scale = scale.stopping_distance(scale_speed);
    let model_full = full.stopping_distance(full_speed);
    measured_scale_m * (model_full / model_scale.max(f64::MIN_POSITIVE))
}

/// Adds the reaction/latency travel to a braking distance: the distance
/// covered at `speed` during `latency_s` before the brakes act.
#[cfg(test)]
pub fn total_stopping_distance(braking_m: f64, speed: f64, latency_s: f64) -> f64 {
    braking_m + speed * latency_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_profile_matches_measured_band() {
        // The paper's Table III measures ~0.27 m of pure braking after
        // the latency travel is removed (0.36 m − 1.5 m/s × 58 ms).
        let d = BrakingProfile::scale_power_cut().stopping_distance(1.5);
        assert!((0.2..=0.36).contains(&d), "scale braking {d} m");
    }

    #[test]
    fn full_size_braking_from_50_kmh() {
        // ~0.45 g from 13.9 m/s: v²/(2a) ≈ 21.9 m (plus drag, slightly
        // less).
        let d = BrakingProfile::full_size_service_brake().stopping_distance(50.0 / 3.6);
        assert!((15.0..=23.0).contains(&d), "full-size braking {d} m");
    }

    #[test]
    fn emergency_brake_shorter_than_service_brake() {
        let v = 100.0 / 3.6;
        let service = BrakingProfile::full_size_service_brake().stopping_distance(v);
        let emergency = BrakingProfile::full_size_emergency_brake().stopping_distance(v);
        assert!(emergency < service * 0.7, "{emergency} vs {service}");
    }

    #[test]
    fn stopping_distance_monotone_in_speed() {
        let p = BrakingProfile::full_size_service_brake();
        let mut prev = 0.0;
        for kmh in [10.0, 30.0, 50.0, 80.0, 120.0] {
            let d = p.stopping_distance(kmh / 3.6);
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn extrapolation_is_proportional_to_measurement() {
        let scale = BrakingProfile::scale_power_cut();
        let full = BrakingProfile::full_size_service_brake();
        let a = extrapolate_braking_distance(0.27, &scale, 1.5, &full, 13.9);
        let b = extrapolate_braking_distance(0.54, &scale, 1.5, &full, 13.9);
        assert!((b / a - 2.0).abs() < 1e-9);
        // A 0.27 m scale stop maps to roughly the model's full-size
        // distance since the model matches the measurement.
        let model = full.stopping_distance(13.9);
        assert!((a - model).abs() / model < 0.35, "a={a}, model={model}");
    }

    #[test]
    fn latency_travel_added_linearly() {
        let total = total_stopping_distance(20.0, 13.9, 0.1);
        assert!((total - 21.39).abs() < 1e-9);
    }

    #[test]
    fn stopping_time_consistent_with_distance() {
        let p = BrakingProfile::scale_power_cut();
        let t = p.stopping_time(1.5);
        let d = p.stopping_distance(1.5);
        // Mean speed during the stop is below the initial speed.
        assert!(d / t < 1.5);
        assert!(t > 0.1 && t < 2.0, "t = {t}");
    }
}
