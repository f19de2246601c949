//! Actuator path: Jetson → Teensy (USART) → ESC (PWM) / steering servo.
//!
//! The paper's Figure 5/6: the Control module "uses Universal
//! Synchronous/Asynchronous Receiver Transmitter (USART) to make a PWM
//! signal reach the DC motor and servo through the Teensy module". This
//! module models the small but real latency of that path — USART frame
//! time plus the MCU's control-loop pickup plus the ESC's PWM refresh —
//! which is part of the paper's step 5 timestamp ("the vehicle ECU
//! registers the time at which a command is sent to the physical
//! actuators").

use sim_core::{SimDuration, SimRng};

/// A command sent over the Teensy link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActuatorCommand {
    /// Set throttle `[0, 1]` and steering angle (radians).
    Drive {
        /// Throttle fraction.
        throttle: f64,
        /// Steering angle, radians.
        steering_rad: f64,
    },
    /// Emergency: cut all power to the wheels.
    CutPower,
}

/// Latency model of the Jetson→Teensy→ESC path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeensyLink {
    /// USART baud rate (115200 default).
    pub baud: u64,
    /// Command frame length on the wire, bytes.
    pub frame_bytes: u64,
    /// MCU control-loop period — the command waits for the next loop
    /// iteration, uniformly distributed.
    pub mcu_loop_period: SimDuration,
    /// PWM refresh period of the ESC/servo (50 Hz hobby PWM default).
    pub pwm_period: SimDuration,
}

impl Default for TeensyLink {
    fn default() -> Self {
        Self {
            baud: 115_200,
            frame_bytes: 8,
            mcu_loop_period: SimDuration::from_millis(1),
            pwm_period: SimDuration::from_millis(20),
        }
    }
}

impl TeensyLink {
    /// Time to shift one command frame over USART (10 bit-times per byte:
    /// start + 8 data + stop).
    pub fn usart_time(&self) -> SimDuration {
        let bits = self.frame_bytes * 10;
        SimDuration::from_secs_f64(bits as f64 / self.baud as f64)
    }

    /// Samples the total command-to-actuator latency: USART transfer +
    /// wait for the MCU loop + wait for the next PWM edge.
    pub fn sample_latency(&self, rng: &mut SimRng) -> SimDuration {
        let mcu_wait = SimDuration::from_secs_f64(rng.f64() * self.mcu_loop_period.as_secs_f64());
        let pwm_wait = SimDuration::from_secs_f64(rng.f64() * self.pwm_period.as_secs_f64());
        self.usart_time() + mcu_wait + pwm_wait
    }

    /// Worst-case latency (full MCU loop + full PWM period).
    #[cfg(test)]
    pub fn worst_case_latency(&self) -> SimDuration {
        self.usart_time() + self.mcu_loop_period + self.pwm_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usart_time_at_115200() {
        let link = TeensyLink::default();
        // 8 bytes × 10 bits / 115200 baud ≈ 694 µs.
        let t = link.usart_time();
        assert!((t.as_secs_f64() - 80.0 / 115_200.0).abs() < 1e-9);
        assert!(t.as_micros() >= 690 && t.as_micros() <= 700);
    }

    #[test]
    fn sampled_latency_within_bounds() {
        let link = TeensyLink::default();
        let mut rng = SimRng::seed_from(1);
        let usart = link.usart_time();
        let worst = link.worst_case_latency();
        for _ in 0..1000 {
            let l = link.sample_latency(&mut rng);
            assert!(l >= usart);
            assert!(l <= worst);
        }
    }

    #[test]
    fn mean_latency_is_usart_plus_half_periods() {
        let link = TeensyLink::default();
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| link.sample_latency(&mut rng).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        let expected = link.usart_time().as_secs_f64() + 0.0005 + 0.010;
        assert!((mean - expected).abs() < 0.0005, "mean {mean}");
    }

    #[test]
    fn command_variants_compare() {
        let a = ActuatorCommand::Drive {
            throttle: 0.3,
            steering_rad: 0.1,
        };
        assert_ne!(a, ActuatorCommand::CutPower);
    }
}
