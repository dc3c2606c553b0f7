//! The assembled cloud service and flight orchestration.
//!
//! Ties together the portal, app store, VDR, storage, and billing,
//! and drives the workflow of paper Figure 4: orders → flight
//! planning (via the Dorling VRP) → per-drone flight plans →
//! post-flight offload and notification.

use androne_energy::{BatteryPack, BillingLedger, DorlingModel};
use androne_hal::GeoPoint;
use androne_planner::{FlightPlan, VrpProblem, WaypointTask};
use androne_simkern::BoardMemoryProfile;

/// How many virtual drones one physical drone can host per flight —
/// derived from the board memory profile, not hardcoded.
///
/// The 880 MiB board (Figure 12) less the host OS + VDC (95 MiB),
/// device container (110 MiB), and flight container (40 MiB) leaves
/// 635 MiB — room for three 185 MiB virtual-drone containers but not
/// four. An energy-feasible route carrying a fourth tenant would OOM
/// at deploy, so the planner treats this as a hard route capacity.
/// [`BoardMemoryProfile::rpi3`] itemizes exactly that budget, and
/// the division evaluates to 3 at compile time; a different board
/// profile reflows the cap without touching the planner.
pub const MAX_VDRONES_PER_FLIGHT: usize = BoardMemoryProfile::rpi3().max_vdrones();

use crate::appstore::AppStore;
use crate::portal::{PlacedOrder, Portal};
use crate::storage::CloudStorage;
use crate::vdr::VirtualDroneRepository;

/// How a user is notified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotificationKind {
    /// Email.
    Email,
    /// Text message.
    Text,
}

/// One outbound notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Recipient account.
    pub user: String,
    /// Channel.
    pub kind: NotificationKind,
    /// Message body.
    pub message: String,
}

/// The cloud service.
pub struct CloudService {
    /// The web portal.
    pub portal: Portal,
    /// The app store.
    pub app_store: AppStore,
    /// The virtual drone repository.
    pub vdr: VirtualDroneRepository,
    /// General flight-data storage.
    pub storage: CloudStorage,
    /// Usage billing.
    pub billing: BillingLedger,
    /// Outbound notifications (the mail/SMS queue).
    pub notifications: Vec<Notification>,
    next_flight_id: u64,
}

impl CloudService {
    /// Creates a fresh cloud service.
    pub fn new() -> Self {
        CloudService::with_shards(1)
    }

    /// Creates a fresh cloud service with a VDR sharded `shards` ways.
    pub fn with_shards(shards: usize) -> Self {
        CloudService {
            portal: Portal::new(),
            app_store: AppStore::new(),
            vdr: VirtualDroneRepository::with_shards(shards),
            storage: CloudStorage::new(),
            billing: BillingLedger::new(),
            notifications: Vec::new(),
            next_flight_id: 1,
        }
    }

    /// Allocates a flight id.
    pub fn new_flight_id(&mut self) -> u64 {
        let id = self.next_flight_id;
        self.next_flight_id += 1;
        id
    }

    /// Plans flights for a set of placed orders from `base` with a
    /// fleet of `fleet_size` drones. Per-waypoint allotments split
    /// each order's budget evenly across its waypoints (the planner
    /// needs a per-stop cost; enforcement during flight uses the
    /// aggregate budget).
    pub fn plan_flights(
        &mut self,
        orders: &[PlacedOrder],
        base: GeoPoint,
        fleet_size: usize,
    ) -> Vec<FlightPlan> {
        let model = DorlingModel::f450_prototype();
        let battery = BatteryPack::turnigy_3s_5000();
        let mut tasks = Vec::new();
        let mut radii = Vec::new();
        for order in orders {
            let n = order.spec.waypoints.len().max(1) as f64;
            for wp in &order.spec.waypoints {
                tasks.push(WaypointTask {
                    owner: order.vd_name.clone(),
                    position: wp.position(),
                    service_energy_j: order.spec.energy_allotted / n,
                    service_time_s: order.spec.max_duration / n,
                });
                radii.push(wp.max_radius);
            }
        }
        let problem = VrpProblem {
            depot: base,
            tasks,
            fleet_size,
            battery_budget_j: battery.plannable_j(),
            model,
            // A route carries at most MAX_VDRONES_PER_FLIGHT of the
            // ordering virtual drones, its tasks' owners.
            party_cap: Some(MAX_VDRONES_PER_FLIGHT),
        };
        let solution = problem.solve(20_000, 0xA17D);
        let plans = FlightPlan::from_solution(&problem, &solution, |i| radii[i]);

        // Send each user their estimated operating window (paper
        // Section 2: a day in advance for flexible schedules).
        for order in orders {
            for plan in &plans {
                if let Some((start, end)) = plan.operating_window(&order.vd_name) {
                    self.notify(
                        &order.user,
                        NotificationKind::Email,
                        format!(
                            "Estimated operating window for {}: {:.0}s-{:.0}s after launch",
                            order.vd_name, start, end
                        ),
                    );
                }
            }
        }
        plans
    }

    /// Records a notification.
    pub fn notify(&mut self, user: &str, kind: NotificationKind, message: String) {
        self.notifications.push(Notification {
            user: user.to_string(),
            kind,
            message,
        });
    }

    /// Post-flight: offloads marked files, bills energy, and emails
    /// the user their links (paper Figure 4's final steps).
    pub fn complete_flight(
        &mut self,
        user: &str,
        flight_id: u64,
        energy_used_j: f64,
        files: Vec<(String, bytes::Bytes)>,
    ) {
        self.billing.charge_energy(user, energy_used_j);
        let mut links = Vec::new();
        for (path, data) in files {
            self.billing.charge_storage(user, data.len() as f64 / 1e9);
            links.push(self.storage.offload(user, flight_id, path, data));
        }
        let message = if links.is_empty() {
            format!("Flight {flight_id} complete.")
        } else {
            format!(
                "Flight {flight_id} complete. Your files: {}",
                links.join(", ")
            )
        };
        self.notify(user, NotificationKind::Email, message);
    }
}

impl Default for CloudService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portal::{AppSelection, OrderRequest};
    use androne_vdc::WaypointSpec;

    const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    const MANIFEST: &str = r#"<androne-manifest package="com.example.survey">
        <uses-permission name="camera" type="waypoint"/>
        <uses-permission name="flight-control" type="waypoint"/>
    </androne-manifest>"#;

    fn order(cloud: &mut CloudService, user: &str, north: f64, east: f64) -> PlacedOrder {
        let req = OrderRequest {
            user: user.into(),
            waypoints: vec![{
                let p = BASE.offset_m(north, east, 15.0);
                WaypointSpec {
                    latitude: p.latitude,
                    longitude: p.longitude,
                    altitude: 15.0,
                    max_radius: 30.0,
                }
            }],
            drone_type: "video".into(),
            apps: vec![AppSelection {
                package: "com.example.survey".into(),
                args: Default::default(),
            }],
            extra_waypoint_devices: vec![],
            extra_continuous_devices: vec![],
            max_charge_cents: 50.0,
            max_duration_s: 120.0,
            flexible_schedule: true,
        };
        cloud.portal.place_order(&cloud.app_store, req).unwrap()
    }

    #[test]
    fn derived_party_cap_matches_the_paper_prototype() {
        // The profile-derived capacity must reproduce the historical
        // hardcoded 3-cap exactly on the default (RPi3) board.
        assert_eq!(MAX_VDRONES_PER_FLIGHT, 3);
    }

    #[test]
    fn end_to_end_order_plan_complete() {
        let mut cloud = CloudService::new();
        cloud.app_store.publish(MANIFEST, "survey").unwrap();
        let a = order(&mut cloud, "alice", 300.0, 0.0);
        let b = order(&mut cloud, "bob", -250.0, 150.0);
        let plans = cloud.plan_flights(&[a.clone(), b.clone()], BASE, 1);
        assert_eq!(plans.len(), 1, "one drone serves both");
        assert_eq!(plans[0].legs.len(), 2);
        assert!(
            cloud.notifications.iter().any(|n| n.user == "alice"),
            "operating window emailed"
        );

        let fid = cloud.new_flight_id();
        cloud.complete_flight(
            "alice",
            fid,
            12_000.0,
            vec![(
                "/data/out/ortho.tif".into(),
                bytes::Bytes::from_static(b"t"),
            )],
        );
        assert!(cloud
            .storage
            .fetch("alice", "/data/out/ortho.tif")
            .is_some());
        assert!(cloud.billing.bill("alice").energy_j > 0.0);
        assert!(cloud
            .notifications
            .last()
            .unwrap()
            .message
            .contains("Your files"));
    }
}
