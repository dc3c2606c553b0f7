//! Injectable sensor fault modes.
//!
//! Each sensor channel on the [`HardwareBoard`](crate::HardwareBoard)
//! carries a [`SensorFaultMode`] that the fault injector flips at
//! scheduled ticks. The SITL loop consults these modes when sampling:
//!
//! - `Dropout` skips the sample entirely — and, critically, skips the
//!   noise RNG draws too, so the fault is visible in the RNG stream
//!   only through the draws it *removes*, never through extra ones.
//! - `Stuck` replays the last good sample without drawing noise.
//! - `Bias` samples normally and adds a constant offset.
//!
//! The modes are plain data; the gating logic lives in
//! `androne-flight`'s SITL step where the samples are consumed.

use androne_simkern::{StateHash, StateHasher};

/// Fault mode of one sensor channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum SensorFaultMode {
    /// Healthy: sample normally.
    #[default]
    Nominal,
    /// No samples produced at all.
    Dropout,
    /// The last good sample is repeated.
    Stuck,
    /// Samples carry a constant additive bias (m/s² for the IMU,
    /// metres of position/altitude for GPS and baro).
    Bias(f64),
}

impl StateHash for SensorFaultMode {
    fn state_hash(&self, h: &mut StateHasher) {
        match self {
            SensorFaultMode::Nominal => h.write_u8(0),
            SensorFaultMode::Dropout => h.write_u8(1),
            SensorFaultMode::Stuck => h.write_u8(2),
            SensorFaultMode::Bias(b) => {
                h.write_u8(3);
                h.write_f64(*b);
            }
        }
    }
}

/// Fault modes of every sensor the estimator consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SensorFaults {
    /// IMU fault mode (bias applies to the accelerometer, m/s²).
    pub imu: SensorFaultMode,
    /// GPS fault mode (bias shifts the fix north, metres).
    pub gps: SensorFaultMode,
    /// Barometer fault mode (bias shifts altitude, metres).
    pub baro: SensorFaultMode,
}

impl StateHash for SensorFaults {
    fn state_hash(&self, h: &mut StateHasher) {
        self.imu.state_hash(h);
        self.gps.state_hash(h);
        self.baro.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_nominal() {
        let f = SensorFaults::default();
        assert_eq!(f.imu, SensorFaultMode::Nominal);
        assert_eq!(f.gps, SensorFaultMode::Nominal);
        assert_eq!(f.baro, SensorFaultMode::Nominal);
    }

    #[test]
    fn fault_modes_hash_distinctly() {
        let modes = [
            SensorFaultMode::Nominal,
            SensorFaultMode::Dropout,
            SensorFaultMode::Stuck,
            SensorFaultMode::Bias(1.0),
            SensorFaultMode::Bias(2.0),
        ];
        for (i, a) in modes.iter().enumerate() {
            for b in modes.iter().skip(i + 1) {
                assert_ne!(a.hash_value(), b.hash_value(), "{a:?} vs {b:?}");
            }
        }
    }
}
