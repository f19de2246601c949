//! PID controller (paper §III-B: "In order to calculate the steering
//! angle … a Proportional-Integral-Derivative (PID) controller is
//! implemented").
//!
//! A straightforward positional PID with clamped integral (anti-windup)
//! and clamped output, suitable for the line follower's steering loop and
//! reusable for speed holding in the scenarios.

/// A PID controller.
///
/// # Example
///
/// ```
/// use vehicle::pid::Pid;
///
/// let mut pid = Pid::new(2.0, 0.1, 0.05).with_output_limit(0.35);
/// // Error of 0.1 m to the left produces a bounded steering command.
/// let u = pid.update(0.1, 0.02);
/// assert!(u > 0.0 && u <= 0.35);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pid {
    kp: f64,
    ki: f64,
    kd: f64,
    integral: f64,
    prev_error: Option<f64>,
    integral_limit: f64,
    output_limit: f64,
}

impl Pid {
    /// Creates a controller with the given gains, unlimited output and a
    /// generous integral clamp.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        Self {
            kp,
            ki,
            kd,
            integral: 0.0,
            prev_error: None,
            integral_limit: f64::INFINITY,
            output_limit: f64::INFINITY,
        }
    }

    /// Clamps the integral term to `±limit` (anti-windup).
    pub fn with_integral_limit(mut self, limit: f64) -> Self {
        self.integral_limit = limit.abs();
        self
    }

    /// Clamps the output to `±limit`.
    pub fn with_output_limit(mut self, limit: f64) -> Self {
        self.output_limit = limit.abs();
        self
    }

    /// The accumulated integral term.
    #[cfg(test)]
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Advances the controller with the current `error` over timestep
    /// `dt` seconds and returns the control output.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        self.integral =
            (self.integral + error * dt).clamp(-self.integral_limit, self.integral_limit);
        let derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.prev_error = Some(error);
        let raw = self.kp * error + self.ki * self.integral + self.kd * derivative;
        raw.clamp(-self.output_limit, self.output_limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn proportional_only() {
        let mut pid = Pid::new(2.0, 0.0, 0.0);
        assert_eq!(pid.update(0.5, 0.01), 1.0);
        assert_eq!(pid.update(-0.5, 0.01), -1.0);
    }

    #[test]
    fn integral_accumulates_and_clamps() {
        let mut pid = Pid::new(0.0, 1.0, 0.0).with_integral_limit(0.1);
        for _ in 0..100 {
            pid.update(1.0, 0.01);
        }
        assert!((pid.integral() - 0.1).abs() < 1e-12);
        let out = pid.update(1.0, 0.01);
        assert!((out - 0.1).abs() < 1e-12);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut pid = Pid::new(0.0, 0.0, 1.0);
        assert_eq!(pid.update(0.0, 0.1), 0.0); // no previous error
        let out = pid.update(0.5, 0.1);
        assert!((out - 5.0).abs() < 1e-12);
    }

    #[test]
    fn output_limit_applies() {
        let mut pid = Pid::new(100.0, 0.0, 0.0).with_output_limit(0.35);
        assert_eq!(pid.update(1.0, 0.01), 0.35);
        assert_eq!(pid.update(-1.0, 0.01), -0.35);
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: x' = u; controller drives x to the 1.0 setpoint.
        let mut pid = Pid::new(4.0, 0.5, 0.2).with_output_limit(5.0);
        let mut x = 0.0;
        let dt = 0.01;
        for _ in 0..2000 {
            let u = pid.update(1.0 - x, dt);
            x += u * dt;
        }
        assert!((x - 1.0).abs() < 0.01, "x = {x}");
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn negative_dt_panics() {
        let mut pid = Pid::new(1.0, 0.0, 0.0);
        pid.update(1.0, -0.01);
    }

    proptest! {
        #[test]
        fn output_always_within_limit(errors in proptest::collection::vec(-10.0f64..10.0, 1..100)) {
            let mut pid = Pid::new(3.0, 1.0, 0.5).with_output_limit(0.35);
            for e in errors {
                let u = pid.update(e, 0.02);
                prop_assert!(u.abs() <= 0.35 + 1e-12);
            }
        }
    }
}
