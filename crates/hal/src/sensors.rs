//! Navio2-class sensors: GPS, IMU, barometer, magnetometer.
//!
//! Each sensor samples the shared [`TruthBus`](crate::truth::TruthBus)
//! and corrupts it with device-appropriate noise, so the estimator in
//! the flight stack has honest work to do.

use rand::Rng;

use crate::geo::{GeoPoint, Vec3};
use crate::truth::VehicleTruth;

/// Standard gravity, m/s².
pub const G: f64 = 9.80665;

/// A GPS fix as reported by the receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Reported position.
    pub position: GeoPoint,
    /// Ground speed, m/s.
    pub ground_speed: f64,
    /// Course over ground, radians from north.
    pub course: f64,
    /// Satellites visible.
    pub satellites: u8,
    /// Whether the fix is 3-D valid.
    pub valid: bool,
}

/// The u-blox-class GPS receiver on the Navio2.
#[derive(Debug, Clone)]
pub struct Gps {
    /// Horizontal 1-sigma noise, meters.
    pub horiz_noise_m: f64,
    /// Vertical 1-sigma noise, meters.
    pub vert_noise_m: f64,
}

impl Default for Gps {
    fn default() -> Self {
        Gps {
            horiz_noise_m: 1.2,
            vert_noise_m: 2.0,
        }
    }
}

impl Gps {
    /// Produces a fix from the current truth.
    pub fn fix(&self, truth: &VehicleTruth, rng: &mut impl Rng) -> GpsFix {
        let n = gauss(rng) * self.horiz_noise_m;
        let e = gauss(rng) * self.horiz_noise_m;
        let u = gauss(rng) * self.vert_noise_m;
        GpsFix {
            position: truth.position.offset_m(n, e, u),
            ground_speed: truth.velocity.norm_xy(),
            course: truth.velocity.y.atan2(truth.velocity.x),
            satellites: 11,
            valid: true,
        }
    }
}

/// One IMU sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Specific force in the body frame, m/s².
    pub accel: Vec3,
    /// Body angular rates, rad/s.
    pub gyro: Vec3,
}

/// The MPU9250-class IMU.
#[derive(Debug, Clone)]
pub struct Imu {
    /// Accelerometer 1-sigma noise, m/s².
    pub accel_noise: f64,
    /// Gyro 1-sigma noise, rad/s.
    pub gyro_noise: f64,
    /// Gyro bias, rad/s (constant per power-up).
    pub gyro_bias: Vec3,
}

impl Default for Imu {
    fn default() -> Self {
        Imu {
            accel_noise: 0.08,
            gyro_noise: 0.002,
            gyro_bias: Vec3::new(0.001, -0.0006, 0.0004),
        }
    }
}

impl Imu {
    /// Produces a sample from the current truth.
    pub fn sample(&self, truth: &VehicleTruth, rng: &mut impl Rng) -> ImuSample {
        ImuSample {
            accel: truth.specific_force + noise3(rng, self.accel_noise),
            gyro: truth.body_rates + self.gyro_bias + noise3(rng, self.gyro_noise),
        }
    }
}

/// The MS5611-class barometer.
#[derive(Debug, Clone)]
pub struct Barometer {
    /// Altitude-equivalent 1-sigma noise, meters.
    pub alt_noise_m: f64,
}

impl Default for Barometer {
    fn default() -> Self {
        Barometer { alt_noise_m: 0.35 }
    }
}

impl Barometer {
    /// Pressure in pascals at the vehicle's true altitude (ISA model),
    /// with sensor noise folded in as altitude error.
    pub fn pressure_pa(&self, truth: &VehicleTruth, rng: &mut impl Rng) -> f64 {
        let alt = truth.position.altitude + gauss(rng) * self.alt_noise_m;
        // International Standard Atmosphere, troposphere.
        101_325.0 * (1.0 - 2.25577e-5 * alt).powf(5.25588)
    }

    /// Altitude in meters derived from a pressure reading (the inverse
    /// of [`Barometer::pressure_pa`]).
    pub fn altitude_from_pressure(pressure_pa: f64) -> f64 {
        (1.0 - (pressure_pa / 101_325.0).powf(1.0 / 5.25588)) / 2.25577e-5
    }
}

/// The magnetometer (heading reference).
#[derive(Debug, Clone)]
pub struct Magnetometer {
    /// Heading 1-sigma noise, radians.
    pub heading_noise: f64,
}

impl Default for Magnetometer {
    fn default() -> Self {
        Magnetometer {
            heading_noise: 0.015,
        }
    }
}

impl Magnetometer {
    /// Measured heading (yaw) in radians.
    pub fn heading(&self, truth: &VehicleTruth, rng: &mut impl Rng) -> f64 {
        truth.attitude.yaw + gauss(rng) * self.heading_noise
    }
}

/// A 3-vector of independent zero-mean Gaussian noise with sigma `s`.
fn noise3(rng: &mut impl Rng, s: f64) -> Vec3 {
    Vec3::new(gauss(rng) * s, gauss(rng) * s, gauss(rng) * s)
}

/// Standard normal draw via Box-Muller.
fn gauss(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_simkern::stream_rng;

    fn truth() -> VehicleTruth {
        let mut t = VehicleTruth::at_rest(GeoPoint::new(43.6, -85.8, 0.0));
        t.position.altitude = 50.0;
        t.velocity = Vec3::new(3.0, 4.0, 0.0);
        t
    }

    #[test]
    fn gps_noise_is_bounded_and_unbiased() {
        let gps = Gps::default();
        let t = truth();
        let mut rng = stream_rng(1);
        let mut sum_n = 0.0;
        for _ in 0..2_000 {
            let fix = gps.fix(&t, &mut rng);
            let err = fix.position.ned_from(&t.position);
            assert!(err.norm_xy() < 10.0, "GPS error unreasonable");
            sum_n += err.x;
        }
        assert!((sum_n / 2_000.0).abs() < 0.2, "bias {}", sum_n / 2_000.0);
    }

    #[test]
    fn gps_reports_ground_speed() {
        let gps = Gps::default();
        let t = truth();
        let mut rng = stream_rng(2);
        let fix = gps.fix(&t, &mut rng);
        assert!((fix.ground_speed - 5.0).abs() < 1e-9);
        assert!(fix.valid);
    }

    #[test]
    fn imu_at_rest_reads_gravity() {
        let imu = Imu::default();
        let t = VehicleTruth::at_rest(GeoPoint::new(0.0, 0.0, 0.0));
        let mut rng = stream_rng(3);
        let mut z = 0.0;
        for _ in 0..1_000 {
            z += imu.sample(&t, &mut rng).accel.z;
        }
        assert!((z / 1_000.0 + G).abs() < 0.05, "mean z {}", z / 1_000.0);
    }

    #[test]
    fn barometer_round_trips_altitude() {
        let t = truth();
        let baro = Barometer { alt_noise_m: 0.0 };
        let mut rng = stream_rng(4);
        let p = baro.pressure_pa(&t, &mut rng);
        let alt = Barometer::altitude_from_pressure(p);
        assert!((alt - 50.0).abs() < 0.01, "alt {alt}");
    }

    #[test]
    fn pressure_decreases_with_altitude() {
        let baro = Barometer { alt_noise_m: 0.0 };
        let mut rng = stream_rng(5);
        let mut low = truth();
        low.position.altitude = 0.0;
        let mut high = truth();
        high.position.altitude = 100.0;
        assert!(baro.pressure_pa(&low, &mut rng) > baro.pressure_pa(&high, &mut rng));
    }

    #[test]
    fn magnetometer_tracks_yaw() {
        let mag = Magnetometer::default();
        let mut t = truth();
        t.attitude.yaw = 1.0;
        let mut rng = stream_rng(6);
        let h = mag.heading(&t, &mut rng);
        assert!((h - 1.0).abs() < 0.1);
    }
}
