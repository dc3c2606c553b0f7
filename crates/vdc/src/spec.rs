//! Virtual drone definitions.
//!
//! "AnDrone defines a virtual drone as a JSON specification in
//! combination with an Android Things container image" (paper
//! Section 3). The JSON schema here matches the paper's Figure 2:
//! waypoints (latitude/longitude/altitude/max-radius), max-duration,
//! energy-allotted, continuous-devices, waypoint-devices, apps, and
//! app-args.

use std::collections::BTreeMap;

use androne_android::DeviceClass;
use androne_hal::GeoPoint;
use serde::{Deserialize, Serialize, Value};

/// One waypoint in a virtual drone definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointSpec {
    /// Latitude, degrees.
    pub latitude: f64,
    /// Longitude, degrees.
    pub longitude: f64,
    /// Altitude, meters.
    pub altitude: f64,
    /// Radius of the spherical operating volume / geofence, meters.
    /// Serialized as `max-radius`, the paper's field name.
    pub max_radius: f64,
}

impl WaypointSpec {
    /// The waypoint's position.
    pub fn position(&self) -> GeoPoint {
        GeoPoint::new(self.latitude, self.longitude, self.altitude)
    }
}

/// A full virtual drone definition (paper Figure 2).
///
/// JSON field names follow the paper's hyphenated spelling
/// (`max-duration`, `energy-allotted`, …); the device lists, `apps`,
/// and `app-args` fields default to empty when absent.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualDroneSpec {
    /// Waypoints the virtual drone is to visit.
    pub waypoints: Vec<WaypointSpec>,
    /// Maximum operating time across all waypoints, seconds.
    pub max_duration: f64,
    /// Maximum energy across all waypoints, joules.
    pub energy_allotted: f64,
    /// Devices held continuously from the first waypoint to the
    /// last (suspendable at other parties' waypoints).
    pub continuous_devices: Vec<String>,
    /// Devices held only while operating at waypoints.
    pub waypoint_devices: Vec<String>,
    /// APKs to install in the container.
    pub apps: Vec<String>,
    /// Per-app arguments, keyed by package name.
    pub app_args: BTreeMap<String, serde_json::Value>,
}

impl Serialize for WaypointSpec {
    fn serialize_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("latitude".to_string(), self.latitude.serialize_value());
        obj.insert("longitude".to_string(), self.longitude.serialize_value());
        obj.insert("altitude".to_string(), self.altitude.serialize_value());
        obj.insert("max-radius".to_string(), self.max_radius.serialize_value());
        Value::Object(obj)
    }
}

impl Deserialize for WaypointSpec {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(WaypointSpec {
            latitude: field(v, "latitude")?,
            longitude: field(v, "longitude")?,
            altitude: field(v, "altitude")?,
            max_radius: field(v, "max-radius")?,
        })
    }
}

impl Serialize for VirtualDroneSpec {
    fn serialize_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("waypoints".to_string(), self.waypoints.serialize_value());
        obj.insert(
            "max-duration".to_string(),
            self.max_duration.serialize_value(),
        );
        obj.insert(
            "energy-allotted".to_string(),
            self.energy_allotted.serialize_value(),
        );
        obj.insert(
            "continuous-devices".to_string(),
            self.continuous_devices.serialize_value(),
        );
        obj.insert(
            "waypoint-devices".to_string(),
            self.waypoint_devices.serialize_value(),
        );
        obj.insert("apps".to_string(), self.apps.serialize_value());
        obj.insert("app-args".to_string(), self.app_args.serialize_value());
        Value::Object(obj)
    }
}

impl Deserialize for VirtualDroneSpec {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(VirtualDroneSpec {
            waypoints: field(v, "waypoints")?,
            max_duration: field(v, "max-duration")?,
            energy_allotted: field(v, "energy-allotted")?,
            continuous_devices: field_or_default(v, "continuous-devices")?,
            waypoint_devices: field_or_default(v, "waypoint-devices")?,
            apps: field_or_default(v, "apps")?,
            app_args: field_or_default(v, "app-args")?,
        })
    }
}

/// Reads a required object field.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, serde::Error> {
    match v.get(name) {
        Some(inner) => T::deserialize_value(inner),
        None => Err(serde::Error::msg(format!("missing field '{name}'"))),
    }
}

/// Reads an optional object field, defaulting when absent.
fn field_or_default<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, serde::Error> {
    match v.get(name) {
        Some(inner) => T::deserialize_value(inner),
        None => Ok(T::default()),
    }
}

/// Spec validation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// No waypoints.
    NoWaypoints,
    /// Non-positive duration or energy.
    NonPositiveBudget(&'static str),
    /// Unknown device name.
    UnknownDevice(String),
    /// Flight control requested as a continuous device ("flight
    /// control can only be specified as a waypoint device").
    ContinuousFlightControl,
    /// A waypoint radius is non-positive.
    BadRadius(usize),
    /// A latitude/longitude is out of range.
    BadCoordinates(usize),
    /// JSON parse failure.
    Json(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoWaypoints => write!(f, "spec has no waypoints"),
            SpecError::NonPositiveBudget(which) => write!(f, "{which} must be positive"),
            SpecError::UnknownDevice(d) => write!(f, "unknown device '{d}'"),
            SpecError::ContinuousFlightControl => {
                write!(f, "flight-control cannot be a continuous device")
            }
            SpecError::BadRadius(i) => write!(f, "waypoint {i} has a non-positive max-radius"),
            SpecError::BadCoordinates(i) => write!(f, "waypoint {i} has invalid coordinates"),
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl VirtualDroneSpec {
    /// Parses and validates a JSON definition.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        let spec: VirtualDroneSpec =
            serde_json::from_str(json).map_err(|e| SpecError::Json(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes back to JSON.
    pub fn to_json(&self) -> String {
        // dronelint:allow(R3, infallible: the spec is a plain data struct with no map keys or non-finite floats rejected by validate)
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Validates the definition's invariants.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.waypoints.is_empty() {
            return Err(SpecError::NoWaypoints);
        }
        for (i, wp) in self.waypoints.iter().enumerate() {
            if wp.max_radius <= 0.0 {
                return Err(SpecError::BadRadius(i));
            }
            if !(-90.0..=90.0).contains(&wp.latitude)
                || !(-180.0..=180.0).contains(&wp.longitude)
                || !wp.altitude.is_finite()
            {
                return Err(SpecError::BadCoordinates(i));
            }
        }
        if self.max_duration <= 0.0 || self.max_duration.is_nan() {
            return Err(SpecError::NonPositiveBudget("max-duration"));
        }
        if self.energy_allotted <= 0.0 || self.energy_allotted.is_nan() {
            return Err(SpecError::NonPositiveBudget("energy-allotted"));
        }
        for d in &self.continuous_devices {
            let device =
                DeviceClass::parse(d).ok_or_else(|| SpecError::UnknownDevice(d.clone()))?;
            if device == DeviceClass::FlightControl {
                return Err(SpecError::ContinuousFlightControl);
            }
        }
        for d in &self.waypoint_devices {
            DeviceClass::parse(d).ok_or_else(|| SpecError::UnknownDevice(d.clone()))?;
        }
        Ok(())
    }

    /// Parsed continuous device classes.
    pub fn continuous_classes(&self) -> Vec<DeviceClass> {
        self.continuous_devices
            .iter()
            .filter_map(|d| DeviceClass::parse(d))
            .collect()
    }

    /// Parsed waypoint device classes.
    pub fn waypoint_classes(&self) -> Vec<DeviceClass> {
        self.waypoint_devices
            .iter()
            .filter_map(|d| DeviceClass::parse(d))
            .collect()
    }

    /// Whether flight control is requested (always waypoint-typed).
    pub fn wants_flight_control(&self) -> bool {
        self.waypoint_classes()
            .contains(&DeviceClass::FlightControl)
    }

    /// The paper's Figure 2 example definition (construction-site
    /// survey).
    pub fn example_survey() -> Self {
        VirtualDroneSpec {
            waypoints: vec![
                WaypointSpec {
                    latitude: 43.6084298,
                    longitude: -85.8110359,
                    altitude: 15.0,
                    max_radius: 30.0,
                },
                WaypointSpec {
                    latitude: 43.6076409,
                    longitude: -85.8154457,
                    altitude: 15.0,
                    max_radius: 20.0,
                },
            ],
            max_duration: 600.0,
            energy_allotted: 45_000.0,
            continuous_devices: vec![],
            waypoint_devices: vec!["camera".into(), "flight-control".into()],
            apps: vec!["com.example.survey.apk".into()],
            app_args: {
                let mut m = BTreeMap::new();
                m.insert(
                    "com.example.survey".to_string(),
                    serde_json::json!({
                        "survey-areas": {
                            "43.6084298,-85.8110359": [
                                [43.6087619, -85.8104110],
                                [43.6087968, -85.8109877],
                                [43.6084570, -85.8110225],
                                [43.6084240, -85.8104646]
                            ]
                        }
                    }),
                );
                m
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_example_round_trips_through_json() {
        let spec = VirtualDroneSpec::example_survey();
        spec.validate().unwrap();
        let json = spec.to_json();
        assert!(json.contains("\"max-radius\""), "paper field names kept");
        assert!(json.contains("\"energy-allotted\""));
        let back = VirtualDroneSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = VirtualDroneSpec::example_survey();
        s.waypoints.clear();
        assert_eq!(s.validate(), Err(SpecError::NoWaypoints));

        let mut s = VirtualDroneSpec::example_survey();
        s.energy_allotted = 0.0;
        assert!(matches!(s.validate(), Err(SpecError::NonPositiveBudget(_))));

        let mut s = VirtualDroneSpec::example_survey();
        s.waypoints[0].max_radius = -1.0;
        assert_eq!(s.validate(), Err(SpecError::BadRadius(0)));

        let mut s = VirtualDroneSpec::example_survey();
        s.waypoints[1].latitude = 123.0;
        assert_eq!(s.validate(), Err(SpecError::BadCoordinates(1)));

        let mut s = VirtualDroneSpec::example_survey();
        s.waypoint_devices.push("tractor-beam".into());
        assert!(matches!(s.validate(), Err(SpecError::UnknownDevice(_))));
    }

    #[test]
    fn continuous_flight_control_is_rejected() {
        let mut s = VirtualDroneSpec::example_survey();
        s.continuous_devices.push("flight-control".into());
        assert_eq!(s.validate(), Err(SpecError::ContinuousFlightControl));
    }

    #[test]
    fn device_class_accessors() {
        let s = VirtualDroneSpec::example_survey();
        assert!(s.wants_flight_control());
        assert_eq!(
            s.waypoint_classes(),
            vec![DeviceClass::Camera, DeviceClass::FlightControl]
        );
        assert!(s.continuous_classes().is_empty());
    }

    #[test]
    fn malformed_json_is_reported() {
        assert!(matches!(
            VirtualDroneSpec::from_json("{not json"),
            Err(SpecError::Json(_))
        ));
    }
}
