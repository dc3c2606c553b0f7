//! Miscellaneous devices: audio, motors, battery monitor, gimbal.

use bytes::Bytes;

use crate::truth::VehicleTruth;

/// The microphone: produces synthetic PCM chunks.
#[derive(Debug, Default)]
pub struct Microphone {
    seq: u64,
}

impl Microphone {
    /// Records one audio chunk.
    pub fn record_chunk(&mut self) -> Bytes {
        self.seq += 1;
        Bytes::from(format!("PCM16:chunk={}", self.seq))
    }
}

/// The speaker: swallows PCM chunks, counting playback.
#[derive(Debug, Default)]
pub struct Speaker {
    chunks_played: u64,
}

impl Speaker {
    /// Plays one chunk.
    pub fn play(&mut self, _chunk: &Bytes) {
        self.chunks_played += 1;
    }

    /// Chunks played so far.
    pub fn chunks_played(&self) -> u64 {
        self.chunks_played
    }
}

/// The four ESC/motor outputs. Commands are clamped to `0.0..=1.0`
/// and written to the truth bus for the physics to consume.
#[derive(Debug, Default)]
pub struct Motors;

impl Motors {
    /// Applies normalized motor commands.
    pub fn set_outputs(&self, truth: &mut VehicleTruth, outputs: [f64; 4]) {
        truth.motor_outputs = outputs.map(|o| {
            if o.is_finite() {
                o.clamp(0.0, 1.0)
            } else {
                0.0
            }
        });
    }
}

/// The battery monitor (Navio2 power module): reads voltage/current
/// from the truth bus.
#[derive(Debug, Default)]
pub struct BatteryMonitor;

impl BatteryMonitor {
    /// Instantaneous current, amps.
    pub fn current(&self, truth: &VehicleTruth) -> f64 {
        truth.battery_current
    }

    /// Cumulative energy drawn, joules.
    pub fn energy_consumed_j(&self, truth: &VehicleTruth) -> f64 {
        truth.energy_consumed_j
    }
}

/// A 2-axis camera gimbal.
#[derive(Debug, Default)]
pub struct Gimbal {
    /// Commanded pitch, radians (negative looks down).
    pub pitch: f64,
    /// Commanded yaw relative to the airframe, radians.
    pub yaw: f64,
}

impl Gimbal {
    /// Points the gimbal, clamping pitch to `[-pi/2, 0]` (straight
    /// down to level).
    pub fn point(&mut self, pitch: f64, yaw: f64) {
        self.pitch = pitch.clamp(-std::f64::consts::FRAC_PI_2, 0.0);
        self.yaw = yaw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;

    #[test]
    fn motors_clamp_commands() {
        let motors = Motors;
        let mut truth = VehicleTruth::at_rest(GeoPoint::new(0.0, 0.0, 0.0));
        motors.set_outputs(&mut truth, [1.5, -0.2, f64::NAN, 0.6]);
        assert_eq!(truth.motor_outputs, [1.0, 0.0, 0.0, 0.6]);
    }

    #[test]
    fn gimbal_clamps_pitch() {
        let mut g = Gimbal::default();
        g.point(-10.0, 0.5);
        assert_eq!(g.pitch, -std::f64::consts::FRAC_PI_2);
        g.point(1.0, 0.0);
        assert_eq!(g.pitch, 0.0);
    }

    #[test]
    fn audio_devices_count_traffic() {
        let mut mic = Microphone::default();
        let mut spk = Speaker::default();
        let chunk = mic.record_chunk();
        spk.play(&chunk);
        assert_eq!(spk.chunks_played(), 1);
    }
}
