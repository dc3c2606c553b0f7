//! Device identity and exclusive-claim semantics.
//!
//! Drone device stacks are "often not designed to support
//! multiplexing" (paper Section 1): each physical device supports one
//! opener. The device container works precisely because it is the
//! *only* claimant of every physical device, multiplexing access at
//! the Android-service level above. [`ClaimTable`] enforces the
//! one-claimant rule so that property is testable.

use std::collections::BTreeMap;
use std::fmt;

/// The kinds of physical devices on the prototype drone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// Raspberry Pi Camera Module v2.
    Camera,
    /// Navio2 GPS receiver.
    Gps,
    /// Navio2 IMU (accelerometer + gyroscope).
    Imu,
    /// Navio2 barometer.
    Barometer,
    /// Navio2 magnetometer.
    Magnetometer,
    /// Microphone.
    Microphone,
    /// Speaker.
    Speaker,
    /// Framebuffer (virtualizable: drones are headless).
    Framebuffer,
    /// The four ESC/motor outputs.
    Motors,
    /// Battery monitor (voltage/current sense).
    Battery,
    /// Camera gimbal.
    Gimbal,
}

impl DeviceKind {
    /// Every device on the prototype.
    pub const ALL: [DeviceKind; 11] = [
        DeviceKind::Camera,
        DeviceKind::Gps,
        DeviceKind::Imu,
        DeviceKind::Barometer,
        DeviceKind::Magnetometer,
        DeviceKind::Microphone,
        DeviceKind::Speaker,
        DeviceKind::Framebuffer,
        DeviceKind::Motors,
        DeviceKind::Battery,
        DeviceKind::Gimbal,
    ];

    /// Whether the device can be trivially virtualized per container
    /// (a dummy suffices, e.g. the framebuffer on a headless drone).
    pub fn trivially_virtualizable(self) -> bool {
        matches!(self, DeviceKind::Framebuffer)
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::Camera => "camera",
            DeviceKind::Gps => "gps",
            DeviceKind::Imu => "imu",
            DeviceKind::Barometer => "barometer",
            DeviceKind::Magnetometer => "magnetometer",
            DeviceKind::Microphone => "microphone",
            DeviceKind::Speaker => "speaker",
            DeviceKind::Framebuffer => "framebuffer",
            DeviceKind::Motors => "motors",
            DeviceKind::Battery => "battery",
            DeviceKind::Gimbal => "gimbal",
        };
        f.write_str(s)
    }
}

/// Error returned when claiming an already-claimed device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlreadyClaimed {
    /// The device in question.
    pub device: DeviceKind,
    /// Who holds it.
    pub holder: String,
}

impl fmt::Display for AlreadyClaimed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} already claimed by {}",
            self.device, self.holder
        )
    }
}

impl std::error::Error for AlreadyClaimed {}

/// Tracks which single owner has claimed each physical device.
#[derive(Debug, Default)]
pub struct ClaimTable {
    claims: BTreeMap<DeviceKind, String>,
}

impl ClaimTable {
    /// Creates an empty claim table.
    pub fn new() -> Self {
        ClaimTable::default()
    }

    /// Claims a device exclusively for `owner`.
    pub fn claim(
        &mut self,
        device: DeviceKind,
        owner: impl Into<String>,
    ) -> Result<(), AlreadyClaimed> {
        let owner = owner.into();
        match self.claims.get(&device) {
            Some(holder) if *holder != owner => Err(AlreadyClaimed {
                device,
                holder: holder.clone(),
            }),
            _ => {
                self.claims.insert(device, owner);
                Ok(())
            }
        }
    }

    /// Releases a device if held by `owner`.
    pub fn release(&mut self, device: DeviceKind, owner: &str) {
        if self.claims.get(&device).is_some_and(|h| h == owner) {
            self.claims.remove(&device);
        }
    }

    /// Current holder of a device.
    pub fn holder(&self, device: DeviceKind) -> Option<&str> {
        self.claims.get(&device).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_one_claimant_per_device() {
        let mut t = ClaimTable::new();
        t.claim(DeviceKind::Camera, "device-container").unwrap();
        let err = t.claim(DeviceKind::Camera, "vdrone-1").unwrap_err();
        assert_eq!(err.holder, "device-container");
        // Re-claim by the same owner is idempotent.
        t.claim(DeviceKind::Camera, "device-container").unwrap();
    }

    #[test]
    fn release_requires_matching_owner() {
        let mut t = ClaimTable::new();
        t.claim(DeviceKind::Gps, "device-container").unwrap();
        t.release(DeviceKind::Gps, "someone-else");
        assert_eq!(t.holder(DeviceKind::Gps), Some("device-container"));
        t.release(DeviceKind::Gps, "device-container");
        assert_eq!(t.holder(DeviceKind::Gps), None);
    }

    #[test]
    fn framebuffer_is_the_trivially_virtualizable_one() {
        for d in DeviceKind::ALL {
            assert_eq!(
                d.trivially_virtualizable(),
                d == DeviceKind::Framebuffer,
                "{d}"
            );
        }
    }
}
