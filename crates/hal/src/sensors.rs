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
        let [n, e, u] = normals(rng);
        GpsFix {
            position: truth.position.offset_m(
                n * self.horiz_noise_m,
                e * self.horiz_noise_m,
                u * self.vert_noise_m,
            ),
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
        let [ax, ay, az, gx, gy, gz] = normals(rng);
        let (a, g) = (self.accel_noise, self.gyro_noise);
        ImuSample {
            accel: truth.specific_force + Vec3::new(ax * a, ay * a, az * a),
            gyro: truth.body_rates + self.gyro_bias + Vec3::new(gx * g, gy * g, gz * g),
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
        let [z] = normals(rng);
        Self::pressure_at_altitude(truth.position.altitude + z * self.alt_noise_m)
    }

    /// Pressure in pascals at `alt` meters (International Standard
    /// Atmosphere, troposphere).
    pub fn pressure_at_altitude(alt: f64) -> f64 {
        101_325.0 * (1.0 - 2.25577e-5 * alt).powf(5.25588)
    }

    /// Altitude in meters derived from a pressure reading (the inverse
    /// of [`Barometer::pressure_at_altitude`]).
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
        let [z] = normals(rng);
        truth.attitude.yaw + z * self.heading_noise
    }
}

/// `N` independent standard normal draws by Marsaglia's polar method.
///
/// Each pair rejects points of the square [-1, 1)² until one lands
/// strictly inside the unit disc (0 < s < 1), then scales both
/// coordinates by sqrt(-2 ln s / s): one `ln` and one `sqrt` per two
/// normals, no trig. An odd `N` drops its last pair's second half.
/// No spare normal is carried to the next call, so a sensor that
/// skips a sample (dropout, stuck) skips exactly its own draws.
fn normals<const N: usize>(rng: &mut impl Rng) -> [f64; N] {
    let mut out = [0.0; N];
    for pair in out.chunks_mut(2) {
        let (x, y, s) = loop {
            let x = 2.0 * rng.gen::<f64>() - 1.0;
            let y = 2.0 * rng.gen::<f64>() - 1.0;
            let s = x * x + y * y;
            if s > 0.0 && s < 1.0 {
                break (x, y, s);
            }
        };
        let f = (-2.0 * s.ln() / s).sqrt();
        for (z, u) in pair.iter_mut().zip([x, y]) {
            *z = u * f;
        }
    }
    out
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

    /// Draws used by the sampler's statistical tests.
    const DRAWS: usize = 200_000;

    /// Mean and variance of `xs`.
    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    fn draws(seed: u64) -> Vec<f64> {
        let mut rng = stream_rng(seed);
        (0..DRAWS / 2)
            .flat_map(|_| normals::<2>(&mut rng))
            .collect()
    }

    #[test]
    fn normals_have_zero_mean_and_unit_variance() {
        let (mean, var) = moments(&draws(10));
        // Standard errors at 200k draws: 0.0022 (mean), 0.0032 (var).
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn normal_tails_match_the_gaussian() {
        let zs = draws(11);
        let share = |k: f64| zs.iter().filter(|z| z.abs() > k).count() as f64 / zs.len() as f64;
        // P(|z| > 2) = 0.0455 (se 0.0005); P(|z| > 3) = 0.0027 (se 0.0001).
        let (two, three) = (share(2.0), share(3.0));
        assert!((two - 0.0455).abs() < 0.003, "|z| > 2 share {two}");
        assert!((three - 0.0027).abs() < 0.0008, "|z| > 3 share {three}");
    }

    #[test]
    fn halves_of_a_pair_are_uncorrelated() {
        let mut rng = stream_rng(12);
        let pairs: Vec<[f64; 2]> = (0..DRAWS / 2).map(|_| normals(&mut rng)).collect();
        let n = pairs.len() as f64;
        let (mx, my) = pairs
            .iter()
            .fold((0.0, 0.0), |(a, b), [x, y]| (a + x / n, b + y / n));
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for [x, y] in &pairs {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
        }
        let r = sxy / (sxx * syy).sqrt();
        // Standard error of r at 100k pairs: 0.0032.
        assert!(r.abs() < 0.015, "pair correlation {r}");
    }

    /// Asserts the sample sigma of `xs` is within 3% of `sigma`.
    fn assert_sigma(what: &str, sigma: f64, xs: impl Iterator<Item = f64>) {
        let got = moments(&xs.collect::<Vec<_>>()).1.sqrt();
        assert!(
            (got / sigma - 1.0).abs() < 0.03,
            "{what}: sigma {got}, configured {sigma}"
        );
    }

    /// [`assert_sigma`] on each axis of `vs`.
    fn assert_axes(what: &str, sigmas: [f64; 3], vs: &[Vec3]) {
        for (axis, sigma) in sigmas.into_iter().enumerate() {
            let xs = vs.iter().map(|v| [v.x, v.y, v.z][axis]);
            assert_sigma(&format!("{what} axis {axis}"), sigma, xs);
        }
    }

    #[test]
    fn each_sensor_draws_its_configured_sigma() {
        const READS: usize = 20_000;
        let t = truth();
        let mut rng = stream_rng(13);

        let imu = Imu::default();
        let samples: Vec<ImuSample> = (0..READS).map(|_| imu.sample(&t, &mut rng)).collect();
        let accel: Vec<Vec3> = samples.iter().map(|s| s.accel - t.specific_force).collect();
        let gyro: Vec<Vec3> = samples.iter().map(|s| s.gyro - imu.gyro_bias).collect();
        assert_axes("accel", [imu.accel_noise; 3], &accel);
        assert_axes("gyro", [imu.gyro_noise; 3], &gyro);

        let gps = Gps::default();
        let offsets: Vec<Vec3> = (0..READS)
            .map(|_| gps.fix(&t, &mut rng).position.ned_from(&t.position))
            .collect();
        let (h, v) = (gps.horiz_noise_m, gps.vert_noise_m);
        assert_axes("gps", [h, h, v], &offsets);

        let baro = Barometer::default();
        let alts =
            (0..READS).map(|_| Barometer::altitude_from_pressure(baro.pressure_pa(&t, &mut rng)));
        assert_sigma("baro altitude", baro.alt_noise_m, alts);

        let mag = Magnetometer::default();
        let headings = (0..READS).map(|_| mag.heading(&t, &mut rng));
        assert_sigma("magnetometer", mag.heading_noise, headings);
    }

    #[test]
    fn boards_on_one_seed_stay_in_lockstep() {
        use crate::board::HardwareBoard;
        use rand::RngCore;
        let home = GeoPoint::new(43.6, -85.8, 0.0);
        let mut a = HardwareBoard::new(home, 14);
        let mut b = HardwareBoard::new(home, 14);
        let t = truth();
        // The 400 Hz loop's mix: IMU every step, baro every 40th,
        // GPS every 80th. Rejections vary the draws per call; both
        // boards must still read the same values and end on the same
        // stream position.
        for step in 1..=4_000u64 {
            assert_eq!(a.imu.sample(&t, &mut a.rng), b.imu.sample(&t, &mut b.rng));
            if step % 40 == 0 {
                let (pa, pb) = (
                    a.barometer.pressure_pa(&t, &mut a.rng),
                    b.barometer.pressure_pa(&t, &mut b.rng),
                );
                assert_eq!(pa.to_bits(), pb.to_bits());
            }
            if step % 80 == 0 {
                assert_eq!(a.gps.fix(&t, &mut a.rng), b.gps.fix(&t, &mut b.rng));
            }
        }
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
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
