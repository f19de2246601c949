//! On-board sensing: wheel-encoder odometry and an IMU yaw-rate/heading
//! model (paper Figure 5 lists an IMU and odometry among the vehicle's
//! sensors). The CAMs a real OBU broadcasts carry *measured* speed and
//! heading, not ground truth; these models supply that measurement noise.

use sim_core::SimRng;

/// Quadrature wheel encoder → speed/odometry estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WheelOdometry {
    /// Encoder ticks per metre of travel (ticks/rev ÷ wheel
    /// circumference; F1Tenth ≈ 3480 ticks/m).
    pub ticks_per_m: f64,
    /// Accumulated ticks.
    ticks: u64,
    /// Fractional tick carry.
    carry: f64,
}

impl WheelOdometry {
    /// Creates an odometer.
    pub fn new(ticks_per_m: f64) -> Self {
        Self {
            ticks_per_m,
            ticks: 0,
            carry: 0.0,
        }
    }

    /// Feeds `ds` metres of true travel; returns the ticks emitted.
    pub fn advance(&mut self, ds: f64) -> u64 {
        let exact = ds.max(0.0) * self.ticks_per_m + self.carry;
        let whole = exact.floor();
        self.carry = exact - whole;
        self.ticks += whole as u64;
        whole as u64
    }

    /// Total ticks so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Odometry distance estimate, metres (quantised to tick
    /// resolution).
    pub fn distance_m(&self) -> f64 {
        self.ticks as f64 / self.ticks_per_m
    }

    /// Speed estimate from ticks over a window of `dt` seconds.
    pub fn speed_from_window(&self, window_ticks: u64, dt: f64) -> f64 {
        assert!(dt > 0.0, "window must have positive duration");
        window_ticks as f64 / self.ticks_per_m / dt
    }
}

/// IMU yaw-rate gyro with bias and white noise; integrates to a heading
/// estimate.
#[derive(Debug, Clone)]
pub struct ImuModel {
    /// Constant gyro bias, rad/s.
    pub bias_rad_s: f64,
    /// White-noise standard deviation, rad/s.
    pub noise_std_rad_s: f64,
    /// Integrated heading estimate, radians.
    heading_rad: f64,
}

impl ImuModel {
    /// Creates an IMU with a bias sampled from ±`bias_spread` (typical
    /// MEMS gyro: a few mrad/s) and the given noise floor.
    pub fn sample(bias_spread_rad_s: f64, noise_std_rad_s: f64, rng: &mut SimRng) -> Self {
        Self {
            bias_rad_s: rng.uniform(-bias_spread_rad_s, bias_spread_rad_s),
            noise_std_rad_s,
            heading_rad: 0.0,
        }
    }

    /// Measures a true yaw rate over `dt` seconds, integrating the
    /// (noisy, biased) reading into the heading estimate. Returns the
    /// measured rate.
    pub fn measure(&mut self, true_rate_rad_s: f64, dt: f64, rng: &mut SimRng) -> f64 {
        let measured = true_rate_rad_s + self.bias_rad_s + rng.normal(0.0, self.noise_std_rad_s);
        self.heading_rad += measured * dt;
        measured
    }

    /// Current heading estimate, radians.
    pub fn heading_rad(&self) -> f64 {
        self.heading_rad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn odometry_counts_ticks_exactly() {
        let mut odo = WheelOdometry::new(1000.0);
        assert_eq!(odo.advance(0.5), 500);
        assert_eq!(odo.advance(0.0015), 1);
        assert_eq!(odo.ticks(), 501);
        assert!((odo.distance_m() - 0.501).abs() < 1e-12);
    }

    #[test]
    fn odometry_carry_accumulates_sub_tick_motion() {
        let mut odo = WheelOdometry::new(1000.0);
        // 10 steps of 0.00015 m = 1.5 ticks total.
        let mut ticks = 0;
        for _ in 0..10 {
            ticks += odo.advance(0.00015);
        }
        assert_eq!(ticks, 1);
        assert_eq!(odo.ticks(), 1);
    }

    #[test]
    fn odometry_ignores_reverse() {
        let mut odo = WheelOdometry::new(1000.0);
        assert_eq!(odo.advance(-1.0), 0);
    }

    #[test]
    fn speed_estimate_from_tick_window() {
        let odo = WheelOdometry::new(3480.0);
        // 1.5 m/s for 20 ms = 0.03 m = ~104 ticks.
        let v = odo.speed_from_window(104, 0.02);
        assert!((v - 1.494).abs() < 0.02, "v = {v}");
    }

    #[test]
    fn imu_bias_accumulates_heading_drift() {
        let mut rng = SimRng::seed_from(1);
        let mut imu = ImuModel {
            bias_rad_s: 0.01,
            noise_std_rad_s: 0.0,
            heading_rad: 0.0,
        };
        for _ in 0..1000 {
            imu.measure(0.0, 0.01, &mut rng);
        }
        // 0.01 rad/s for 10 s = 0.1 rad of drift.
        assert!((imu.heading_rad() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn imu_tracks_true_rotation_on_average() {
        let mut rng = SimRng::seed_from(2);
        let mut imu = ImuModel::sample(0.002, 0.01, &mut rng);
        // Quarter turn at 0.5 rad/s over ~3.14 s.
        let dt = 0.001;
        let steps = (std::f64::consts::FRAC_PI_2 / 0.5 / dt) as usize;
        for _ in 0..steps {
            imu.measure(0.5, dt, &mut rng);
        }
        assert!(
            (imu.heading_rad() - std::f64::consts::FRAC_PI_2).abs() < 0.03,
            "{}",
            imu.heading_rad()
        );
    }

    proptest! {
        #[test]
        fn odometry_distance_close_to_truth(steps in proptest::collection::vec(0.0f64..0.1, 1..200)) {
            let mut odo = WheelOdometry::new(3480.0);
            let mut truth = 0.0;
            for ds in steps {
                odo.advance(ds);
                truth += ds;
            }
            // Quantisation error bounded by one tick.
            prop_assert!((odo.distance_m() - truth).abs() <= 1.0 / 3480.0 + 1e-9);
        }
    }
}
