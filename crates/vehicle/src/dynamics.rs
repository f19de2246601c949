//! Vehicle dynamics: longitudinal force balance and bicycle kinematics.
//!
//! The scale vehicle stops by *cutting power to the wheels* (paper §III-D2
//! — "power to the wheels is interrupted by the control logic at the
//! Jetson, stopping the car"), so the braking model is a coast-down:
//! rolling resistance + drivetrain drag + aerodynamic drag, no active
//! brake. The parameters below are tuned so that a 1.5 m/s approach stops
//! in roughly the 0.31–0.43 m band the paper measures (Table III).

/// Physical parameters of the 1/10-scale vehicle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleParams {
    /// Total mass, kg (Traxxas chassis + Jetson + battery ≈ 3.2 kg).
    pub mass_kg: f64,
    /// Peak drive force at full throttle, N.
    pub max_drive_force_n: f64,
    /// Rolling-resistance coefficient (dimensionless, × m·g).
    pub rolling_resistance: f64,
    /// Drivetrain drag when unpowered, N per (m/s) — the dominant
    /// stopping force after a power cut (the brushed motor's back-EMF
    /// loading through the ESC plus gear friction). Only applied while
    /// the throttle is zero.
    pub drivetrain_drag_n_per_mps: f64,
    /// Aerodynamic drag coefficient × frontal area × ½ρ, N per (m/s)².
    pub aero_drag_n_per_mps2: f64,
    /// Wheelbase, m (F1Tenth ≈ 0.32 m).
    pub wheelbase_m: f64,
    /// Overall vehicle length, m (paper: ≈ 0.53 m).
    pub length_m: f64,
    /// Top speed, m/s (paper: up to 60 km/h ≈ 16.7 m/s).
    pub top_speed_mps: f64,
    /// Maximum steering angle, radians.
    pub max_steer_rad: f64,
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self {
            mass_kg: 3.2,
            max_drive_force_n: 12.0,
            rolling_resistance: 0.08,
            drivetrain_drag_n_per_mps: 12.0,
            aero_drag_n_per_mps2: 0.02,
            wheelbase_m: 0.32,
            length_m: 0.53,
            top_speed_mps: 60.0 / 3.6,
            max_steer_rad: 0.35,
        }
    }
}

/// Gravitational acceleration, m/s².
const G: f64 = 9.81;

/// Longitudinal state integrator.
///
/// # Example
///
/// ```
/// use vehicle::dynamics::{LongitudinalModel, VehicleParams};
///
/// let mut car = LongitudinalModel::new(VehicleParams::default());
/// // Accelerate for 2 s at half throttle, 1 kHz integration.
/// for _ in 0..2000 {
///     car.step(0.001, 0.5);
/// }
/// assert!(car.speed_mps() > 1.0);
/// // Cut power: the car coasts to a stop.
/// let v0 = car.speed_mps();
/// for _ in 0..5000 {
///     car.step(0.001, 0.0);
/// }
/// assert_eq!(car.speed_mps(), 0.0);
/// assert!(car.distance_m() > 0.0);
/// # let _ = v0;
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongitudinalModel {
    params: VehicleParams,
    speed_mps: f64,
    distance_m: f64,
}

impl LongitudinalModel {
    /// Creates a stationary vehicle.
    pub fn new(params: VehicleParams) -> Self {
        Self {
            params,
            speed_mps: 0.0,
            distance_m: 0.0,
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Current speed, m/s.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Odometer: distance travelled since construction, m.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// Sets the current speed (test/scenario setup).
    pub fn set_speed(&mut self, speed_mps: f64) {
        self.speed_mps = speed_mps.clamp(0.0, self.params.top_speed_mps);
    }

    /// Advances the model by `dt` seconds with throttle `u ∈ [0, 1]`
    /// (0 = power cut). Returns the distance covered in this step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn step(&mut self, dt: f64, throttle: f64) -> f64 {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        let u = throttle.clamp(0.0, 1.0);
        let p = &self.params;
        let v = self.speed_mps;
        let drive = u * p.max_drive_force_n;
        let resistive = if v > 0.0 {
            let coast_drag = if u <= 0.0 {
                p.drivetrain_drag_n_per_mps * v
            } else {
                0.0
            };
            p.rolling_resistance * p.mass_kg * G + coast_drag + p.aero_drag_n_per_mps2 * v * v
        } else {
            0.0
        };
        let accel = (drive - resistive) / p.mass_kg;
        let mut v_next = v + accel * dt;
        if u <= 0.0 && v_next < 0.0 {
            v_next = 0.0; // resistive forces cannot reverse the car
        }
        v_next = v_next.clamp(0.0, p.top_speed_mps);
        // Trapezoidal distance update.
        let ds = 0.5 * (v + v_next) * dt;
        self.speed_mps = v_next;
        self.distance_m += ds;
        ds
    }

    /// Convenience: simulate a power-cut from the current speed and
    /// return the stopping distance (does not mutate `self`).
    pub fn coast_down_distance(&self) -> f64 {
        let mut copy = *self;
        let start = copy.distance_m;
        let mut guard = 0;
        while copy.speed_mps > 0.0 {
            copy.step(0.001, 0.0);
            guard += 1;
            assert!(guard < 1_000_000, "coast-down failed to converge");
        }
        copy.distance_m - start
    }
}

/// Pose of the vehicle in the laboratory plane (bicycle kinematics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BicycleState {
    /// X position, m.
    pub x: f64,
    /// Y position, m.
    pub y: f64,
    /// Heading, radians (0 = +x axis, counter-clockwise positive).
    pub theta: f64,
}

impl BicycleState {
    /// Advances the pose by `ds` metres of travel with steering angle
    /// `delta` (radians), using the kinematic bicycle model with
    /// wheelbase `l`.
    pub fn advance(&mut self, ds: f64, delta: f64, l: f64) {
        if delta.abs() < 1e-9 {
            self.x += ds * self.theta.cos();
            self.y += ds * self.theta.sin();
        } else {
            let radius = l / delta.tan();
            let dtheta = ds / radius;
            // Exact arc integration.
            self.x += radius * ((self.theta + dtheta).sin() - self.theta.sin());
            self.y -= radius * ((self.theta + dtheta).cos() - self.theta.cos());
            self.theta += dtheta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accelerates_under_throttle() {
        let mut car = LongitudinalModel::new(VehicleParams::default());
        for _ in 0..1000 {
            car.step(0.001, 1.0);
        }
        assert!(car.speed_mps() > 1.0);
        assert!(car.distance_m() > 0.5);
    }

    #[test]
    fn power_cut_from_1_5_mps_stops_within_table_iii_band() {
        // Table III: braking distance 0.31–0.43 m includes ~0.09 m of
        // latency travel; the pure coast-down from 1.5 m/s should be
        // roughly 0.22–0.34 m.
        let mut car = LongitudinalModel::new(VehicleParams::default());
        car.set_speed(1.5);
        let d = car.coast_down_distance();
        assert!((0.20..=0.36).contains(&d), "coast-down {d} m");
    }

    #[test]
    fn coast_down_monotone_in_initial_speed() {
        let params = VehicleParams::default();
        let mut prev = 0.0;
        for v0 in [0.5, 1.0, 1.5, 2.0, 3.0] {
            let mut car = LongitudinalModel::new(params);
            car.set_speed(v0);
            let d = car.coast_down_distance();
            assert!(d > prev, "v0={v0} d={d}");
            prev = d;
        }
    }

    #[test]
    fn heavier_drivetrain_drag_stops_shorter() {
        let mut hard = VehicleParams::default();
        hard.drivetrain_drag_n_per_mps *= 2.0;
        let mut a = LongitudinalModel::new(VehicleParams::default());
        let mut b = LongitudinalModel::new(hard);
        a.set_speed(1.5);
        b.set_speed(1.5);
        assert!(b.coast_down_distance() < a.coast_down_distance());
    }

    #[test]
    fn speed_capped_at_top_speed() {
        let mut car = LongitudinalModel::new(VehicleParams::default());
        for _ in 0..60_000 {
            car.step(0.001, 1.0);
        }
        assert!(car.speed_mps() <= car.params().top_speed_mps + 1e-9);
    }

    #[test]
    fn stationary_car_stays_put_without_throttle() {
        let mut car = LongitudinalModel::new(VehicleParams::default());
        car.step(0.01, 0.0);
        assert_eq!(car.speed_mps(), 0.0);
        assert_eq!(car.distance_m(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let mut car = LongitudinalModel::new(VehicleParams::default());
        car.step(0.0, 0.5);
    }

    #[test]
    fn bicycle_straight_line() {
        let mut s = BicycleState::default();
        s.advance(1.0, 0.0, 0.32);
        assert!((s.x - 1.0).abs() < 1e-12);
        assert_eq!(s.y, 0.0);
        assert_eq!(s.theta, 0.0);
    }

    #[test]
    fn bicycle_full_circle_returns_home() {
        let l = 0.32;
        let delta: f64 = 0.2;
        let radius = l / delta.tan();
        let circumference = std::f64::consts::TAU * radius;
        let mut s = BicycleState::default();
        let steps = 10_000;
        for _ in 0..steps {
            s.advance(circumference / steps as f64, delta, l);
        }
        assert!(s.x.abs() < 1e-6, "x = {}", s.x);
        assert!(s.y.abs() < 1e-6, "y = {}", s.y);
        assert!((s.theta - std::f64::consts::TAU).abs() < 1e-6);
    }

    #[test]
    fn bicycle_turns_left_for_positive_steer() {
        let mut s = BicycleState::default();
        s.advance(0.5, 0.2, 0.32);
        assert!(s.y > 0.0);
        assert!(s.theta > 0.0);
    }

    /// Closed-form coast-down stopping distance. With
    /// m·v' = −(c0 + c1·v + c2·v²) and dx = v·dt,
    /// x(v0) = m·∫₀^v0 v dv / (c0 + c1·v + c2·v²), and with D = b² − 4ac > 0
    /// the antiderivative of v / (a·v² + b·v + c) is
    /// ln(a·v² + b·v + c) / 2a − b / (2a·√D) · ln((2a·v + b − √D) / (2a·v + b + √D)).
    fn closed_form_stop_m(p: &VehicleParams, v0: f64) -> f64 {
        let (a, b, c) = (
            p.aero_drag_n_per_mps2,
            p.drivetrain_drag_n_per_mps,
            p.rolling_resistance * p.mass_kg * 9.81,
        );
        let root_d = (b * b - 4.0 * a * c).sqrt();
        let f = |v: f64| {
            (a * v * v + b * v + c).ln() / (2.0 * a)
                - b / (2.0 * a * root_d)
                    * ((2.0 * a * v + b - root_d) / (2.0 * a * v + b + root_d)).ln()
        };
        p.mass_kg * (f(v0) - f(0.0))
    }

    fn integrated_stop_m(p: &VehicleParams, v0: f64, dt: f64) -> f64 {
        let mut car = LongitudinalModel::new(*p);
        car.set_speed(v0);
        while car.speed_mps() > 0.0 {
            car.step(dt, 0.0);
        }
        car.distance_m()
    }

    #[test]
    fn coast_down_matches_the_closed_form_stopping_distance() {
        let p = VehicleParams::default();
        // 0.282469 m from 1.5 m/s, the paper's approach speed.
        assert!((closed_form_stop_m(&p, 1.5) - 0.282_469).abs() < 1e-6);
        for v0 in [0.5, 1.0, 1.5, 3.0] {
            let exact = closed_form_stop_m(&p, v0);
            // 1 ms, and the platoon's 2 ms step.
            let err_1ms = integrated_stop_m(&p, v0, 0.001) / exact - 1.0;
            let err_2ms = integrated_stop_m(&p, v0, 0.002) / exact - 1.0;
            assert!(err_1ms.abs() < 0.005, "v0 {v0}: {err_1ms:+.4} at 1 ms");
            assert!(err_2ms.abs() < 0.005, "v0 {v0}: {err_2ms:+.4} at 2 ms");
            // Explicit Euler in velocity converges at first order.
            let order = err_2ms / err_1ms;
            assert!((1.8..=2.2).contains(&order), "v0 {v0}: ratio {order}");
        }
    }

    proptest! {
        #[test]
        fn speed_never_negative(v0 in 0.0f64..5.0, throttle in 0.0f64..1.0) {
            let mut car = LongitudinalModel::new(VehicleParams::default());
            car.set_speed(v0);
            for _ in 0..100 {
                car.step(0.005, throttle);
                prop_assert!(car.speed_mps() >= 0.0);
            }
        }

        #[test]
        fn distance_monotone(v0 in 0.1f64..5.0) {
            let mut car = LongitudinalModel::new(VehicleParams::default());
            car.set_speed(v0);
            let mut prev = car.distance_m();
            for _ in 0..200 {
                car.step(0.002, 0.0);
                prop_assert!(car.distance_m() >= prev);
                prev = car.distance_m();
            }
        }
    }
}
