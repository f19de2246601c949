//! On-board sensing: wheel-encoder odometry (paper Figure 5 lists
//! odometry among the vehicle's sensors). The CAMs a real OBU broadcasts
//! carry *measured* speed, not ground truth; the collision scenario takes
//! it from this model's tick counts. Every scenario sends a fixed CAM
//! heading, so no heading sensor is modelled.

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
    #[cfg(test)]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Odometry distance estimate, metres (quantised to tick
    /// resolution).
    #[cfg(test)]
    pub fn distance_m(&self) -> f64 {
        self.ticks as f64 / self.ticks_per_m
    }

    /// Speed estimate from ticks over a window of `dt` seconds.
    pub fn speed_from_window(&self, window_ticks: u64, dt: f64) -> f64 {
        assert!(dt > 0.0, "window must have positive duration");
        window_ticks as f64 / self.ticks_per_m / dt
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
