//! State estimation for the flight controller.
//!
//! The attitude path is a complementary filter: high-rate gyro
//! integration corrected at low gain toward the reference attitude
//! solution (standing in for ArduPilot's full EKF fusion of
//! accelerometer, compass, and GPS — the gyro noise and bias still
//! flow through, so estimate/truth divergence is a meaningful signal,
//! which is what the paper's Attitude Estimate Divergence analysis
//! checks). Position fuses 5 Hz GPS fixes with velocity
//! dead-reckoning; altitude blends the barometer.

use androne_hal::{Attitude, Barometer, GeoPoint, GpsFix, ImuSample, Vec3};
use androne_simkern::{StateHash, StateHasher};

use crate::physics::wrap_pi;

/// The estimated vehicle state the controller flies on.
#[derive(Debug, Clone, Copy)]
pub struct StateEstimate {
    /// Estimated position.
    pub position: GeoPoint,
    /// Estimated NED velocity, m/s.
    pub velocity: Vec3,
    /// Estimated attitude.
    pub attitude: Attitude,
    /// Body rates straight from the gyro (bias-corrected estimate).
    pub rates: Vec3,
}

/// Complementary-filter estimator.
#[derive(Debug, Clone)]
pub struct Estimator {
    est: StateEstimate,
    /// Attitude correction time constant, s.
    pub att_tau: f64,
    /// Estimated gyro bias (learned slowly).
    gyro_bias: Vec3,
    initialized: bool,
}

impl Estimator {
    /// Creates an estimator starting at `home`, level.
    pub fn new(home: GeoPoint) -> Self {
        Estimator {
            est: StateEstimate {
                position: home,
                velocity: Vec3::ZERO,
                attitude: Attitude::LEVEL,
                rates: Vec3::ZERO,
            },
            att_tau: 2.0,
            gyro_bias: Vec3::ZERO,
            initialized: false,
        }
    }

    /// The current estimate.
    pub fn state(&self) -> StateEstimate {
        self.est
    }

    /// High-rate IMU update (gyro integration + slow correction
    /// toward the fused reference attitude).
    pub fn imu_update(&mut self, imu: &ImuSample, reference: &Attitude, dt: f64) {
        let gyro = imu.gyro - self.gyro_bias;
        self.est.rates = gyro;
        self.est.attitude.roll += gyro.x * dt;
        self.est.attitude.pitch += gyro.y * dt;
        self.est.attitude.yaw = wrap_pi(self.est.attitude.yaw + gyro.z * dt);

        // Low-gain correction toward the fused solution; also learn
        // gyro bias from the persistent part of the correction.
        let alpha = (dt / self.att_tau).min(1.0);
        let err_r = reference.roll - self.est.attitude.roll;
        let err_p = reference.pitch - self.est.attitude.pitch;
        let err_y = wrap_pi(reference.yaw - self.est.attitude.yaw);
        self.est.attitude.roll += alpha * err_r;
        self.est.attitude.pitch += alpha * err_p;
        self.est.attitude.yaw = wrap_pi(self.est.attitude.yaw + alpha * err_y);
        let bias_gain = 0.02 * alpha;
        self.gyro_bias += Vec3::new(-err_r, -err_p, -err_y) * bias_gain;

        // Dead-reckon position between GPS fixes.
        self.est.position = self.est.position.offset_m(
            self.est.velocity.x * dt,
            self.est.velocity.y * dt,
            -self.est.velocity.z * dt,
        );
    }

    /// 5 Hz GPS update.
    pub fn gps_update(&mut self, fix: &GpsFix, velocity_ned: Vec3) {
        if !self.initialized {
            self.est.position = fix.position;
            self.initialized = true;
            return;
        }
        // Blend 60% toward the fix to bound drift while filtering
        // fix-to-fix noise.
        let w = 0.6;
        let delta = fix.position.ned_from(&self.est.position);
        self.est.position = self.est.position.offset_m(w * delta.x, w * delta.y, 0.0);
        self.est.velocity = velocity_ned;
        let alt_err = fix.position.altitude - self.est.position.altitude;
        self.est.position.altitude += 0.2 * alt_err;
    }

    /// Barometer update (altitude blend).
    pub fn baro_update(&mut self, pressure_pa: f64) {
        let alt = Barometer::altitude_from_pressure(pressure_pa);
        self.est.position.altitude += 0.15 * (alt - self.est.position.altitude);
    }

    /// Divergence between estimate and truth attitude, radians
    /// (max over roll/pitch/yaw) — the paper's AED metric.
    pub fn attitude_divergence(&self, truth: &Attitude) -> f64 {
        (self.est.attitude.roll - truth.roll)
            .abs()
            .max((self.est.attitude.pitch - truth.pitch).abs())
            .max(wrap_pi(self.est.attitude.yaw - truth.yaw).abs())
    }
}

impl StateHash for StateEstimate {
    fn state_hash(&self, h: &mut StateHasher) {
        self.position.state_hash(h);
        self.velocity.state_hash(h);
        self.attitude.state_hash(h);
        self.rates.state_hash(h);
    }
}

impl StateHash for Estimator {
    fn state_hash(&self, h: &mut StateHasher) {
        self.est.state_hash(h);
        h.write_f64(self.att_tau);
        self.gyro_bias.state_hash(h);
        h.write_bool(self.initialized);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_hal::{GeoPoint, Imu, VehicleTruth};
    use androne_simkern::stream_rng;

    #[test]
    fn attitude_tracks_reference_within_divergence_bound() {
        let home = GeoPoint::new(43.6, -85.8, 0.0);
        let mut est = Estimator::new(home);
        let imu = Imu::default();
        let mut rng = stream_rng(7);
        let mut truth = VehicleTruth::at_rest(home);
        // Vehicle slowly rolls to 0.2 rad while the estimator runs at
        // 400 Hz for 4 seconds.
        for i in 0..1600 {
            truth.attitude.roll = 0.2 * (i as f64 / 1600.0);
            truth.body_rates = Vec3::new(0.2 / 4.0, 0.0, 0.0);
            let sample = imu.sample(&truth, &mut rng);
            est.imu_update(&sample, &truth.attitude, 0.0025);
        }
        // Paper's AED threshold: 5 degrees (0.087 rad).
        assert!(
            est.attitude_divergence(&truth.attitude) < 0.087,
            "divergence {}",
            est.attitude_divergence(&truth.attitude)
        );
    }

    #[test]
    fn first_gps_fix_initializes_position() {
        let home = GeoPoint::new(43.6, -85.8, 0.0);
        let mut est = Estimator::new(home);
        let fix = GpsFix {
            position: home.offset_m(5.0, -3.0, 10.0),
            ground_speed: 0.0,
            course: 0.0,
            satellites: 11,
            valid: true,
        };
        est.gps_update(&fix, Vec3::ZERO);
        let err = est.state().position.ned_from(&fix.position);
        assert!(err.norm() < 1e-6);
    }

    #[test]
    fn gps_updates_bound_position_drift() {
        let home = GeoPoint::new(43.6, -85.8, 0.0);
        let mut est = Estimator::new(home);
        est.gps_update(
            &GpsFix {
                position: home,
                ground_speed: 0.0,
                course: 0.0,
                satellites: 11,
                valid: true,
            },
            Vec3::ZERO,
        );
        // Repeatedly blend toward a fix 10 m north.
        let fix = GpsFix {
            position: home.offset_m(10.0, 0.0, 0.0),
            ground_speed: 0.0,
            course: 0.0,
            satellites: 11,
            valid: true,
        };
        for _ in 0..10 {
            est.gps_update(&fix, Vec3::ZERO);
        }
        let remaining = est.state().position.ned_from(&fix.position).norm_xy();
        assert!(remaining < 0.2, "converges to the fix: {remaining}");
    }

    #[test]
    fn baro_blends_altitude() {
        let home = GeoPoint::new(43.6, -85.8, 0.0);
        let mut est = Estimator::new(home);
        let p_50m = Barometer::pressure_at_altitude(50.0);
        for _ in 0..60 {
            est.baro_update(p_50m);
        }
        assert!((est.state().position.altitude - 50.0).abs() < 1.0);
    }
}
