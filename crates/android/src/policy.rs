//! Device classes and the VDC policy hook.
//!
//! AnDrone extends Android's service permission model so that the
//! `checkPermission()` path a device service takes "also queries the
//! VDC" (paper Section 4.4). Device services are handed a
//! [`DevicePolicy`] implementation; in the full system that is the
//! VDC, which answers based on the virtual drone definition and the
//! flight's current waypoint.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use androne_simkern::ContainerId;

/// User-facing device classes as they appear in virtual drone
/// definitions (`continuous-devices` / `waypoint-devices`, paper
/// Figure 2) and AnDrone manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// The camera.
    Camera,
    /// Microphone capture.
    Microphone,
    /// Speaker output.
    Speakers,
    /// GPS / location.
    Gps,
    /// Motion and environmental sensors.
    Sensors,
    /// The camera gimbal.
    Gimbal,
    /// Drone flight control (waypoint-only; never continuous).
    FlightControl,
}

impl DeviceClass {
    /// All device classes.
    pub const ALL: [DeviceClass; 7] = [
        DeviceClass::Camera,
        DeviceClass::Microphone,
        DeviceClass::Speakers,
        DeviceClass::Gps,
        DeviceClass::Sensors,
        DeviceClass::Gimbal,
        DeviceClass::FlightControl,
    ];

    /// Parses the spec-file spelling.
    pub fn parse(s: &str) -> Option<DeviceClass> {
        Some(match s {
            "camera" => DeviceClass::Camera,
            "microphone" => DeviceClass::Microphone,
            "speakers" => DeviceClass::Speakers,
            "gps" => DeviceClass::Gps,
            "sensors" => DeviceClass::Sensors,
            "gimbal" => DeviceClass::Gimbal,
            "flight-control" => DeviceClass::FlightControl,
            _ => return None,
        })
    }

    /// The Android permission string guarding this device class.
    pub fn android_permission(self) -> &'static str {
        match self {
            DeviceClass::Camera => "android.permission.CAMERA",
            DeviceClass::Microphone => "android.permission.RECORD_AUDIO",
            DeviceClass::Speakers => "android.permission.MODIFY_AUDIO_SETTINGS",
            DeviceClass::Gps => "android.permission.ACCESS_FINE_LOCATION",
            DeviceClass::Sensors => "android.permission.BODY_SENSORS",
            DeviceClass::Gimbal => "androne.permission.GIMBAL",
            DeviceClass::FlightControl => "androne.permission.FLIGHT_CONTROL",
        }
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Camera => "camera",
            DeviceClass::Microphone => "microphone",
            DeviceClass::Speakers => "speakers",
            DeviceClass::Gps => "gps",
            DeviceClass::Sensors => "sensors",
            DeviceClass::Gimbal => "gimbal",
            DeviceClass::FlightControl => "flight-control",
        };
        f.write_str(s)
    }
}

/// The VDC-side policy consulted on every device-service permission
/// check.
pub trait DevicePolicy {
    /// Whether `container` currently has access to `device`.
    fn allows(&self, container: ContainerId, device: DeviceClass) -> bool;
}

/// Shared policy handle.
pub type PolicyRef = Rc<RefCell<dyn DevicePolicy>>;

/// Permissive policy for tests and the device container itself.
#[derive(Debug, Default)]
pub struct AllowAll;

impl DevicePolicy for AllowAll {
    fn allows(&self, _container: ContainerId, _device: DeviceClass) -> bool {
        true
    }
}

/// Deny-everything policy.
#[derive(Debug, Default)]
pub struct DenyAll;

impl DevicePolicy for DenyAll {
    fn allows(&self, _container: ContainerId, _device: DeviceClass) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_round_trip() {
        for d in DeviceClass::ALL {
            assert_eq!(DeviceClass::parse(&d.to_string()), Some(d));
        }
        assert_eq!(DeviceClass::parse("warp-drive"), None);
    }

    #[test]
    fn android_permissions_round_trip() {
        // Grants and checks match on the permission string, so no two
        // classes may share one.
        let perms: std::collections::BTreeSet<&str> = DeviceClass::ALL
            .iter()
            .map(|d| d.android_permission())
            .collect();
        assert_eq!(perms.len(), DeviceClass::ALL.len());
    }
}
