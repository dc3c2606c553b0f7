//! The Raspberry Pi Camera Module v2.
//!
//! Frames are synthetic but geotagged from the truth bus, so tests
//! and examples can assert *where* footage was captured — which is
//! exactly what AnDrone's waypoint device-access policy is about.

use bytes::Bytes;

use crate::geo::{Attitude, GeoPoint};
use crate::truth::VehicleTruth;

/// One captured frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Monotonic frame sequence number.
    pub seq: u64,
    /// Position at capture time.
    pub geotag: GeoPoint,
    /// Attitude at capture time.
    pub attitude: Attitude,
    /// Encoded frame payload (synthetic).
    pub data: Bytes,
}

/// The physical camera device. Single-opener hardware: multiplexing
/// happens above it, in the device container's CameraService.
#[derive(Debug)]
pub struct Camera {
    /// Horizontal resolution.
    pub width: u32,
    /// Vertical resolution.
    pub height: u32,
    seq: u64,
}

impl Default for Camera {
    fn default() -> Self {
        // Camera Module v2 1080p30 mode.
        Camera {
            width: 1920,
            height: 1080,
            seq: 0,
        }
    }
}

impl Camera {
    /// Captures one frame geotagged from the truth bus.
    pub fn capture(&mut self, truth: &VehicleTruth) -> Frame {
        self.seq += 1;
        // A compact synthetic payload: header bytes encoding the
        // frame number; real pixel data is irrelevant to the system
        // behaviour under test.
        let data = Bytes::from(format!(
            "JPEG:{}x{}:seq={}:lat={:.7}:lon={:.7}",
            self.width, self.height, self.seq, truth.position.latitude, truth.position.longitude
        ));
        Frame {
            seq: self.seq,
            geotag: truth.position,
            attitude: truth.attitude,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_sequenced_and_geotagged() {
        let mut cam = Camera::default();
        let mut truth = VehicleTruth::at_rest(GeoPoint::new(43.6, -85.8, 15.0));
        let f1 = cam.capture(&truth);
        truth.position.latitude += 0.001;
        let f2 = cam.capture(&truth);
        assert_eq!(f1.seq, 1);
        assert_eq!(f2.seq, 2);
        assert_ne!(f1.geotag.latitude, f2.geotag.latitude);
        assert!(std::str::from_utf8(&f2.data).unwrap().contains("seq=2"));
    }
}
