//! The assembled hardware board: all devices plus the claim table.

use rand::rngs::SmallRng;

use crate::camera::Camera;
use crate::device::{AlreadyClaimed, ClaimTable, DeviceKind};
use crate::faults::SensorFaults;
use crate::geo::GeoPoint;
use crate::misc::{BatteryMonitor, Gimbal, Microphone, Motors, Speaker};
use crate::sensors::{Barometer, Gps, Imu, Magnetometer};
use crate::truth::{new_truth_bus, TruthBus};

/// Everything soldered onto the prototype (RPi3 + Navio2 + camera).
pub struct HardwareBoard {
    /// Shared ground-truth bus.
    pub truth: TruthBus,
    /// The camera module.
    pub camera: Camera,
    /// GPS receiver.
    pub gps: Gps,
    /// Inertial measurement unit.
    pub imu: Imu,
    /// Barometer.
    pub barometer: Barometer,
    /// Magnetometer.
    pub magnetometer: Magnetometer,
    /// Microphone.
    pub microphone: Microphone,
    /// Speaker.
    pub speaker: Speaker,
    /// ESC/motor outputs.
    pub motors: Motors,
    /// Battery monitor.
    pub battery: BatteryMonitor,
    /// Camera gimbal.
    pub gimbal: Gimbal,
    /// Exclusive device claims.
    pub claims: ClaimTable,
    /// Injected sensor fault modes (all nominal by default).
    pub faults: SensorFaults,
    /// Sensor-noise RNG (deterministic per seed).
    pub rng: SmallRng,
}

impl HardwareBoard {
    /// Builds a board resting at `home` with a deterministic sensor
    /// noise seed.
    pub fn new(home: GeoPoint, seed: u64) -> Self {
        HardwareBoard {
            truth: new_truth_bus(home),
            camera: Camera::default(),
            gps: Gps::default(),
            imu: Imu::default(),
            barometer: Barometer::default(),
            magnetometer: Magnetometer::default(),
            microphone: Microphone::default(),
            speaker: Speaker::default(),
            motors: Motors,
            battery: BatteryMonitor,
            gimbal: Gimbal::default(),
            claims: ClaimTable::new(),
            faults: SensorFaults::default(),
            rng: androne_simkern::stream_rng(seed),
        }
    }

    /// Claims every physical device for one owner (what the device
    /// container does at boot).
    pub fn claim_all(&mut self, owner: &str) -> Result<(), AlreadyClaimed> {
        for kind in DeviceKind::ALL {
            if !kind.trivially_virtualizable() {
                self.claims.claim(kind, owner)?;
            }
        }
        Ok(())
    }
}

/// A board shared between the physics loop and the device services.
pub type SharedBoard = std::rc::Rc<std::cell::RefCell<HardwareBoard>>;

/// Wraps a board in a shared handle.
pub fn share(board: HardwareBoard) -> SharedBoard {
    std::rc::Rc::new(std::cell::RefCell::new(board))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_container_claims_everything_but_framebuffer() {
        let mut board = HardwareBoard::new(GeoPoint::new(0.0, 0.0, 0.0), 1);
        board.claim_all("device-container").unwrap();
        assert_eq!(
            board.claims.holder(DeviceKind::Camera),
            Some("device-container")
        );
        assert_eq!(board.claims.holder(DeviceKind::Framebuffer), None);
        // A virtual drone cannot grab the raw camera afterwards.
        assert!(board.claims.claim(DeviceKind::Camera, "vdrone-1").is_err());
    }

    #[test]
    fn sensors_read_through_the_bus() {
        let mut board = HardwareBoard::new(GeoPoint::new(43.6, -85.8, 10.0), 2);
        let truth = *board.truth.borrow();
        let fix = board.gps.fix(&truth, &mut board.rng);
        assert!(fix.valid);
        let frame = board.camera.capture(&truth);
        assert_eq!(frame.geotag.latitude, 43.6);
    }
}
