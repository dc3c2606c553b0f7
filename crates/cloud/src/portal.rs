//! The AnDrone web portal: ordering virtual drones.
//!
//! Implements the paper's Section 2 ordering workflow: pick
//! waypoints, a time window, and a drone type; select apps from the
//! store (the portal prompts for each argument the app's AnDrone
//! manifest declares); set a maximum billing charge (which becomes
//! the energy allotment); optionally request direct access with
//! extra device grants.

use std::collections::BTreeMap;

use androne_android::AccessType;
use androne_energy::PriceSchedule;
use androne_vdc::{SpecError, VirtualDroneSpec, WaypointSpec};

use crate::appstore::AppStore;

/// A drone type offered by the provider.
#[derive(Debug, Clone)]
pub struct DroneType {
    /// Catalog name ("video", "multispectral", ...).
    pub name: String,
    /// Description shown to users.
    pub description: String,
    /// Devices physically present on this drone type.
    pub devices: Vec<String>,
}

/// An app selection within an order.
#[derive(Debug, Clone)]
pub struct AppSelection {
    /// Package from the app store.
    pub package: String,
    /// Arguments the user supplied for it.
    pub args: BTreeMap<String, serde_json::Value>,
}

/// A portal order.
#[derive(Debug, Clone)]
pub struct OrderRequest {
    /// Ordering user.
    pub user: String,
    /// Waypoints to visit.
    pub waypoints: Vec<WaypointSpec>,
    /// Catalog drone type.
    pub drone_type: String,
    /// Apps to install.
    pub apps: Vec<AppSelection>,
    /// Extra devices for direct (advanced) access, spec spelling.
    pub extra_waypoint_devices: Vec<String>,
    /// Extra continuous devices for direct access.
    pub extra_continuous_devices: Vec<String>,
    /// Maximum billing charge, cents (converted to the energy
    /// allotment).
    pub max_charge_cents: f64,
    /// Maximum operating duration, seconds.
    pub max_duration_s: f64,
    /// Whether the user launches immediately or is flexible (drives
    /// when the operating-window estimate is sent).
    pub flexible_schedule: bool,
}

/// Ordering errors.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderError {
    /// Drone type not in the catalog.
    UnknownDroneType(String),
    /// App not in the store.
    UnknownApp(String),
    /// A required manifest argument was not supplied.
    MissingArgument {
        /// The app needing the argument.
        package: String,
        /// The argument name.
        argument: String,
    },
    /// The assembled definition failed validation.
    Spec(SpecError),
    /// A waypoint requests a geofence beyond the provider's cap.
    GeofenceTooLarge {
        /// Waypoint index.
        waypoint: usize,
        /// Requested radius, m.
        requested: f64,
        /// Provider cap, m.
        max: f64,
    },
    /// The order needs a device the selected drone type lacks.
    DeviceNotOnDroneType {
        /// The missing device.
        device: String,
        /// The drone type.
        drone_type: String,
    },
    /// An app's launch arguments could not be serialized into the
    /// order manifest.
    ArgsUnserializable {
        /// The app whose arguments failed to serialize.
        package: String,
    },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::UnknownDroneType(t) => write!(f, "unknown drone type '{t}'"),
            OrderError::UnknownApp(p) => write!(f, "unknown app '{p}'"),
            OrderError::MissingArgument { package, argument } => {
                write!(f, "app '{package}' requires argument '{argument}'")
            }
            OrderError::Spec(e) => write!(f, "invalid order: {e}"),
            OrderError::GeofenceTooLarge {
                waypoint,
                requested,
                max,
            } => write!(
                f,
                "waypoint {waypoint} requests a {requested} m geofence (provider max {max} m)"
            ),
            OrderError::DeviceNotOnDroneType { device, drone_type } => {
                write!(f, "device '{device}' is not on drone type '{drone_type}'")
            }
            OrderError::ArgsUnserializable { package } => {
                write!(f, "arguments for app '{package}' cannot be serialized")
            }
        }
    }
}

impl std::error::Error for OrderError {}

/// A successfully placed order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedOrder {
    /// Order id.
    pub order_id: u64,
    /// Ordering user.
    pub user: String,
    /// Name the virtual drone will run under.
    pub vd_name: String,
    /// The assembled virtual drone definition.
    pub spec: VirtualDroneSpec,
    /// Whether the schedule is flexible.
    pub flexible_schedule: bool,
}

/// The portal.
pub struct Portal {
    /// Drone-type catalog.
    pub catalog: Vec<DroneType>,
    /// Price schedule for the energy conversion.
    pub prices: PriceSchedule,
    /// Provider cap on per-waypoint geofence radius, meters ("up to
    /// a maximum size", paper Section 2).
    pub max_geofence_radius_m: f64,
    /// Default geofence radius applied when a waypoint requests none
    /// (radius 0).
    pub default_geofence_radius_m: f64,
    next_order: u64,
}

impl Portal {
    /// Creates a portal with the default catalog and prices.
    pub fn new() -> Self {
        Portal {
            catalog: vec![
                DroneType {
                    name: "video".into(),
                    description: "Drones specializing in obtaining video".into(),
                    devices: vec!["camera".into(), "gimbal".into(), "gps".into()],
                },
                DroneType {
                    name: "sensor".into(),
                    description: "Drones equipped with specialized sensors".into(),
                    devices: vec!["sensors".into(), "gps".into()],
                },
            ],
            prices: PriceSchedule::default_schedule(),
            max_geofence_radius_m: 100.0,
            default_geofence_radius_m: 30.0,
            next_order: 1,
        }
    }

    /// Places an order, assembling and validating the virtual drone
    /// definition.
    pub fn place_order(
        &mut self,
        store: &AppStore,
        req: OrderRequest,
    ) -> Result<PlacedOrder, OrderError> {
        let Some(drone_type) = self.catalog.iter().find(|t| t.name == req.drone_type) else {
            return Err(OrderError::UnknownDroneType(req.drone_type));
        };

        // Geofence sizing: apply the default where none was given,
        // cap at the provider maximum.
        let mut waypoints = req.waypoints;
        for (i, wp) in waypoints.iter_mut().enumerate() {
            if wp.max_radius <= 0.0 {
                wp.max_radius = self.default_geofence_radius_m;
            }
            if wp.max_radius > self.max_geofence_radius_m {
                return Err(OrderError::GeofenceTooLarge {
                    waypoint: i,
                    requested: wp.max_radius,
                    max: self.max_geofence_radius_m,
                });
            }
        }

        let mut waypoint_devices = req.extra_waypoint_devices.clone();
        let mut continuous_devices = req.extra_continuous_devices.clone();
        let mut apps = Vec::new();
        let mut app_args = BTreeMap::new();

        for selection in &req.apps {
            let listing = store
                .get(&selection.package)
                .ok_or_else(|| OrderError::UnknownApp(selection.package.clone()))?;
            // The portal prompts for each declared argument; required
            // ones must be present.
            for arg in &listing.manifest.arguments {
                if arg.required && !selection.args.contains_key(&arg.name) {
                    return Err(OrderError::MissingArgument {
                        package: selection.package.clone(),
                        argument: arg.name.clone(),
                    });
                }
            }
            for perm in &listing.manifest.permissions {
                let name = perm.device.to_string();
                match perm.access {
                    AccessType::Waypoint => {
                        if !waypoint_devices.contains(&name) {
                            waypoint_devices.push(name);
                        }
                    }
                    AccessType::Continuous => {
                        if !continuous_devices.contains(&name) {
                            continuous_devices.push(name);
                        }
                    }
                }
            }
            apps.push(format!("{}.apk", selection.package));
            let args = serde_json::to_value(&selection.args).map_err(|_| {
                OrderError::ArgsUnserializable {
                    package: selection.package.clone(),
                }
            })?;
            app_args.insert(selection.package.clone(), args);
        }

        // The selected drone type must physically carry every device
        // ordered (flight control is on every drone).
        for device in waypoint_devices.iter().chain(&continuous_devices) {
            if device != "flight-control" && !drone_type.devices.contains(device) {
                return Err(OrderError::DeviceNotOnDroneType {
                    device: device.clone(),
                    drone_type: drone_type.name.clone(),
                });
            }
        }

        let spec = VirtualDroneSpec {
            waypoints,
            max_duration: req.max_duration_s,
            energy_allotted: self.prices.energy_cap_j(req.max_charge_cents),
            continuous_devices,
            waypoint_devices,
            apps,
            app_args,
        };
        spec.validate().map_err(OrderError::Spec)?;

        let order_id = self.next_order;
        self.next_order += 1;
        Ok(PlacedOrder {
            order_id,
            user: req.user.clone(),
            vd_name: format!("vd-{}-{}", req.user, order_id),
            spec,
            flexible_schedule: req.flexible_schedule,
        })
    }
}

impl Default for Portal {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) const SURVEY_MANIFEST: &str = r#"<androne-manifest package="com.example.survey">
        <uses-permission name="camera" type="waypoint"/>
        <uses-permission name="flight-control" type="waypoint"/>
        <argument name="survey-areas" type="geo-list" required="true"/>
    </androne-manifest>"#;

    pub(super) fn store() -> AppStore {
        let mut s = AppStore::new();
        s.publish(SURVEY_MANIFEST, "Field surveying").unwrap();
        s
    }

    pub(super) fn base_request() -> OrderRequest {
        OrderRequest {
            user: "alice".into(),
            waypoints: vec![WaypointSpec {
                latitude: 43.6084298,
                longitude: -85.8110359,
                altitude: 15.0,
                max_radius: 30.0,
            }],
            drone_type: "video".into(),
            apps: vec![AppSelection {
                package: "com.example.survey".into(),
                args: [(
                    "survey-areas".to_string(),
                    serde_json::json!([[43.60, -85.81]]),
                )]
                .into_iter()
                .collect(),
            }],
            extra_waypoint_devices: vec![],
            extra_continuous_devices: vec![],
            max_charge_cents: 112.5,
            max_duration_s: 600.0,
            flexible_schedule: true,
        }
    }

    #[test]
    fn order_assembles_spec_from_manifest() {
        let mut portal = Portal::new();
        let placed = portal.place_order(&store(), base_request()).unwrap();
        assert_eq!(
            placed.spec.waypoint_devices,
            vec!["camera", "flight-control"]
        );
        assert!((placed.spec.energy_allotted - 45_000.0).abs() < 1.0);
        assert_eq!(placed.spec.apps, vec!["com.example.survey.apk"]);
        assert!(placed.vd_name.contains("alice"));
    }

    #[test]
    fn missing_required_argument_is_rejected() {
        let mut portal = Portal::new();
        let mut req = base_request();
        req.apps[0].args.clear();
        assert!(matches!(
            portal.place_order(&store(), req),
            Err(OrderError::MissingArgument { .. })
        ));
    }

    #[test]
    fn unknown_app_and_type_are_rejected() {
        let mut portal = Portal::new();
        let mut req = base_request();
        req.apps[0].package = "com.ghost".into();
        assert!(matches!(
            portal.place_order(&store(), req),
            Err(OrderError::UnknownApp(_))
        ));
        let mut req = base_request();
        req.drone_type = "submarine".into();
        assert!(matches!(
            portal.place_order(&store(), req),
            Err(OrderError::UnknownDroneType(_))
        ));
    }

    #[test]
    fn order_ids_increment() {
        let mut portal = Portal::new();
        let s = store();
        let a = portal.place_order(&s, base_request()).unwrap();
        let b = portal.place_order(&s, base_request()).unwrap();
        assert!(b.order_id > a.order_id);
        assert_ne!(a.vd_name, b.vd_name);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::tests::{base_request, store};
    use super::*;

    #[test]
    fn oversized_geofence_is_rejected() {
        let mut portal = Portal::new();
        let mut req = base_request();
        req.waypoints[0].max_radius = 500.0;
        assert!(matches!(
            portal.place_order(&store(), req),
            Err(OrderError::GeofenceTooLarge { waypoint: 0, .. })
        ));
    }

    #[test]
    fn zero_radius_gets_the_provider_default() {
        let mut portal = Portal::new();
        let mut req = base_request();
        req.waypoints[0].max_radius = 0.0;
        let placed = portal.place_order(&store(), req).unwrap();
        assert_eq!(
            placed.spec.waypoints[0].max_radius,
            portal.default_geofence_radius_m
        );
    }

    #[test]
    fn device_missing_from_drone_type_is_rejected() {
        let mut portal = Portal::new();
        let mut req = base_request();
        // The "sensor" drone type carries no camera, but the survey
        // app's manifest requires one.
        req.drone_type = "sensor".into();
        assert!(matches!(
            portal.place_order(&store(), req),
            Err(OrderError::DeviceNotOnDroneType { ref device, .. }) if device == "camera"
        ));
    }

    #[test]
    fn flight_control_is_available_on_every_type() {
        let mut portal = Portal::new();
        let mut req = base_request();
        req.apps.clear();
        req.drone_type = "sensor".into();
        req.extra_waypoint_devices = vec!["flight-control".into(), "sensors".into()];
        portal
            .place_order(&store(), req)
            .expect("flight control is universal");
    }
}
