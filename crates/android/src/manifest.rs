//! AnDrone app manifests.
//!
//! Every AnDrone app ships an XML manifest alongside the Android one
//! (paper Section 5), declaring the device permissions it needs —
//! with a `type` of `waypoint` or `continuous` — and the arguments it
//! expects from the user at ordering time. The portal uses the
//! manifest to prompt for arguments; the flight planner uses it to
//! avoid device conflicts.

use std::collections::BTreeMap;

use crate::policy::DeviceClass;

/// When an app needs access to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    /// Only while operating at the virtual drone's waypoints.
    Waypoint,
    /// Also between waypoints (suspendable near other parties'
    /// waypoints).
    Continuous,
}

/// One declared device permission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DevicePermission {
    /// The device class.
    pub device: DeviceClass,
    /// Requested access type.
    pub access: AccessType,
}

/// One declared user argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgumentDecl {
    /// Argument name.
    pub name: String,
    /// Free-form type label shown by the portal ("geo-list",
    /// "string", "int").
    pub arg_type: String,
    /// Whether ordering requires a value.
    pub required: bool,
}

/// A parsed AnDrone manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AndroneManifest {
    /// The app's package name.
    pub package: String,
    /// Declared device permissions.
    pub permissions: Vec<DevicePermission>,
    /// Declared user arguments.
    pub arguments: Vec<ArgumentDecl>,
}

/// Manifest parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Structural XML problem.
    Malformed(String),
    /// Unknown device name in a `<uses-permission>`.
    UnknownDevice(String),
    /// Unknown access type.
    UnknownAccessType(String),
    /// Missing required attribute.
    MissingAttribute(&'static str),
    /// Flight control declared as a continuous device (forbidden:
    /// "flight control can only be specified as a waypoint device").
    ContinuousFlightControl,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Malformed(why) => write!(f, "malformed manifest: {why}"),
            ManifestError::UnknownDevice(d) => write!(f, "unknown device '{d}'"),
            ManifestError::UnknownAccessType(t) => write!(f, "unknown access type '{t}'"),
            ManifestError::MissingAttribute(a) => write!(f, "missing attribute '{a}'"),
            ManifestError::ContinuousFlightControl => {
                write!(f, "flight-control cannot be a continuous device")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl AndroneManifest {
    /// Parses a manifest from its XML text.
    pub fn parse(xml: &str) -> Result<Self, ManifestError> {
        let mut manifest = AndroneManifest::default();
        let mut saw_root = false;
        for tag in iter_tags(xml)? {
            let (name, attrs) = tag;
            match name.as_str() {
                "androne-manifest" => {
                    saw_root = true;
                    manifest.package = attrs
                        .get("package")
                        .cloned()
                        .ok_or(ManifestError::MissingAttribute("package"))?;
                }
                "uses-permission" => {
                    let dev_name = attrs
                        .get("name")
                        .ok_or(ManifestError::MissingAttribute("name"))?;
                    let device = DeviceClass::parse(dev_name)
                        .ok_or_else(|| ManifestError::UnknownDevice(dev_name.clone()))?;
                    let access = match attrs.get("type").map(String::as_str) {
                        Some("waypoint") | None => AccessType::Waypoint,
                        Some("continuous") => AccessType::Continuous,
                        Some(other) => {
                            return Err(ManifestError::UnknownAccessType(other.to_string()))
                        }
                    };
                    if device == DeviceClass::FlightControl && access == AccessType::Continuous {
                        return Err(ManifestError::ContinuousFlightControl);
                    }
                    manifest
                        .permissions
                        .push(DevicePermission { device, access });
                }
                "argument" => {
                    let name = attrs
                        .get("name")
                        .cloned()
                        .ok_or(ManifestError::MissingAttribute("name"))?;
                    let arg_type = attrs
                        .get("type")
                        .cloned()
                        .unwrap_or_else(|| "string".into());
                    let required = attrs.get("required").map(String::as_str) == Some("true");
                    manifest.arguments.push(ArgumentDecl {
                        name,
                        arg_type,
                        required,
                    });
                }
                _ => {}
            }
        }
        if !saw_root {
            return Err(ManifestError::Malformed(
                "missing <androne-manifest> root".into(),
            ));
        }
        Ok(manifest)
    }

    /// Device classes requested at waypoints.
    pub fn waypoint_devices(&self) -> Vec<DeviceClass> {
        self.permissions
            .iter()
            .filter(|p| p.access == AccessType::Waypoint)
            .map(|p| p.device)
            .collect()
    }

    /// Device classes requested continuously.
    pub fn continuous_devices(&self) -> Vec<DeviceClass> {
        self.permissions
            .iter()
            .filter(|p| p.access == AccessType::Continuous)
            .map(|p| p.device)
            .collect()
    }
}

/// A parsed tag: name plus attribute map.
type Tag = (String, BTreeMap<String, String>);

/// Iterates `(tag_name, attributes)` over a simple XML subset
/// (no nesting semantics needed; attribute values are quoted).
fn iter_tags(xml: &str) -> Result<Vec<Tag>, ManifestError> {
    let mut out = Vec::new();
    let mut rest = xml;
    while let Some(start) = rest.find('<') {
        let Some(end_rel) = rest[start..].find('>') else {
            return Err(ManifestError::Malformed("unterminated tag".into()));
        };
        let inner = &rest[start + 1..start + end_rel];
        rest = &rest[start + end_rel + 1..];
        let inner = inner.trim().trim_end_matches('/').trim();
        if inner.starts_with('/') || inner.starts_with('?') || inner.starts_with('!') {
            continue; // Closing tags, declarations, comments.
        }
        let mut parts = inner.splitn(2, char::is_whitespace);
        let name = parts.next().unwrap_or("").to_string();
        if name.is_empty() {
            return Err(ManifestError::Malformed("empty tag".into()));
        }
        let mut attrs = BTreeMap::new();
        if let Some(attr_str) = parts.next() {
            let mut s = attr_str.trim();
            while !s.is_empty() {
                let Some(eq) = s.find('=') else {
                    return Err(ManifestError::Malformed(format!(
                        "attribute without value near '{s}'"
                    )));
                };
                let key = s[..eq].trim().to_string();
                let after = s[eq + 1..].trim_start();
                let Some(q) = after.strip_prefix('"') else {
                    return Err(ManifestError::Malformed("unquoted attribute value".into()));
                };
                let Some(close) = q.find('"') else {
                    return Err(ManifestError::Malformed("unterminated attribute".into()));
                };
                attrs.insert(key, q[..close].to_string());
                s = q[close + 1..].trim_start();
            }
        }
        out.push((name, attrs));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SURVEY: &str = r#"
        <?xml version="1.0"?>
        <androne-manifest package="com.example.survey">
            <uses-permission name="camera" type="waypoint"/>
            <uses-permission name="flight-control" type="waypoint"/>
            <uses-permission name="gps" type="continuous"/>
            <argument name="survey-areas" type="geo-list" required="true"/>
            <argument name="overlap" type="int" required="false"/>
        </androne-manifest>
    "#;

    #[test]
    fn parses_the_survey_manifest() {
        let m = AndroneManifest::parse(SURVEY).unwrap();
        assert_eq!(m.package, "com.example.survey");
        assert_eq!(
            m.waypoint_devices(),
            vec![DeviceClass::Camera, DeviceClass::FlightControl]
        );
        assert_eq!(m.continuous_devices(), vec![DeviceClass::Gps]);
        assert_eq!(m.arguments.len(), 2);
        assert_eq!(m.arguments[0].name, "survey-areas");
        assert!(m.arguments[0].required && !m.arguments[1].required);
        assert_eq!(m.arguments[1].arg_type, "int");
    }

    #[test]
    fn type_defaults_to_waypoint() {
        let xml =
            r#"<androne-manifest package="p"><uses-permission name="camera"/></androne-manifest>"#;
        let m = AndroneManifest::parse(xml).unwrap();
        assert_eq!(m.permissions[0].access, AccessType::Waypoint);
    }

    #[test]
    fn continuous_flight_control_is_rejected() {
        let xml = r#"<androne-manifest package="p">
            <uses-permission name="flight-control" type="continuous"/>
        </androne-manifest>"#;
        assert_eq!(
            AndroneManifest::parse(xml),
            Err(ManifestError::ContinuousFlightControl)
        );
    }

    #[test]
    fn unknown_device_is_rejected() {
        let xml =
            r#"<androne-manifest package="p"><uses-permission name="laser"/></androne-manifest>"#;
        assert!(matches!(
            AndroneManifest::parse(xml),
            Err(ManifestError::UnknownDevice(_))
        ));
    }

    #[test]
    fn missing_root_is_rejected() {
        assert!(matches!(
            AndroneManifest::parse("<uses-permission name=\"camera\"/>"),
            Err(ManifestError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_attributes_are_rejected() {
        assert!(AndroneManifest::parse("<androne-manifest package=p/>").is_err());
        assert!(AndroneManifest::parse("<androne-manifest package=\"p\"").is_err());
    }
}
