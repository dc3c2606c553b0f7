//! Full-system integration tests: boot, deployment, device-access
//! windows, memory ceiling, and the VDR save/resume cycle.

use androne::android::{AndroneManifest, DeviceClass};
use androne::cloud::{AppSelection, OrderRequest};
use androne::flight_exec::execute_flight;
use androne::hal::GeoPoint;
use androne::simkern::MIB;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Androne;
use androne::{Drone, DroneError, FlightLog};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

const SURVEY_MANIFEST: &str = r#"<androne-manifest package="com.example.survey">
    <uses-permission name="camera" type="waypoint"/>
    <uses-permission name="flight-control" type="waypoint"/>
    <argument name="survey-areas" type="geo-list" required="true"/>
</androne-manifest>"#;

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn spec(waypoints: Vec<WaypointSpec>) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints,
        max_duration: 120.0,
        energy_allotted: 40_000.0,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec!["com.example.survey.apk".into()],
        app_args: Default::default(),
    }
}

fn manifest() -> AndroneManifest {
    AndroneManifest::parse(SURVEY_MANIFEST).unwrap()
}

#[test]
fn drone_boots_with_device_and_flight_containers() {
    let drone = Drone::boot(BASE, 1).unwrap();
    // Base + device + flight memory matches Figure 12's shape.
    let used = drone.memory_used();
    assert_eq!(used, (95 + 110 + 40) * MIB);
    // The device container holds every hardware claim.
    assert_eq!(
        drone
            .board
            .borrow()
            .claims
            .holder(androne::hal::DeviceKind::Camera),
        Some("device-container")
    );
}

#[test]
fn three_vdrones_fit_a_fourth_ooms() {
    let mut drone = Drone::boot(BASE, 2).unwrap();
    for i in 1..=3 {
        drone
            .deploy_vdrone(&format!("vd{i}"), spec(vec![wp(50.0, 0.0, 30.0)]), &[])
            .unwrap();
    }
    assert_eq!(drone.memory_used(), (95 + 110 + 40 + 3 * 185) * MIB);
    let err = drone
        .deploy_vdrone("vd4", spec(vec![wp(50.0, 0.0, 30.0)]), &[])
        .unwrap_err();
    assert!(matches!(err, DroneError::Container(_)), "{err}");
    // The three running virtual drones are untouched.
    assert_eq!(drone.vdrones.len(), 3);
}

#[test]
fn device_access_follows_the_flight() {
    let mut drone = Drone::boot(BASE, 3).unwrap();
    let vd_spec = spec(vec![wp(60.0, 0.0, 40.0)]);
    drone.deploy_vdrone("vd1", vd_spec, &[manifest()]).unwrap();

    assert!(
        !drone.allows("vd1", DeviceClass::Camera),
        "no access pre-flight"
    );

    let plan = androne::planner::FlightPlan {
        base: BASE,
        legs: vec![androne::planner::Leg {
            owner: "vd1".into(),
            position: BASE.offset_m(60.0, 0.0, 15.0),
            max_radius_m: 40.0,
            service_energy_j: 10_000.0,
            service_time_s: 8.0,
            eta_s: 20.0,
        }],
        estimated_duration_s: 120.0,
        estimated_energy_j: 40_000.0,
    };
    let outcome = execute_flight(&mut drone, plan, 240.0, None);
    assert!(outcome.completed, "log: {:?}", outcome.log);

    // Handover happened with flight control, then the service window
    // ended (time allotment expiry at the waypoint).
    assert!(outcome.log.iter().any(|e| matches!(
        e,
        FlightLog::WaypointHandover { owner, flight_control: true, .. } if owner == "vd1"
    )));
    assert!(outcome.log.iter().any(|e| matches!(
        e,
        FlightLog::WaypointEnd { owner, .. } if owner == "vd1"
    )));
    assert!(
        !drone.allows("vd1", DeviceClass::Camera),
        "revoked after the waypoint"
    );
    // Energy was charged to the virtual drone while it held the
    // waypoint.
    assert!(*outcome.vdrone_energy_j.get("vd1").unwrap() > 500.0);
}

#[test]
fn full_order_to_flight_workflow() {
    let mut androne = Androne::new(BASE, 1, 42);
    androne
        .cloud
        .app_store
        .publish(SURVEY_MANIFEST, "Construction surveys")
        .unwrap();

    let order = androne
        .cloud
        .portal
        .place_order(
            &androne.cloud.app_store,
            OrderRequest {
                user: "alice".into(),
                waypoints: vec![wp(60.0, 20.0, 30.0)],
                drone_type: "video".into(),
                apps: vec![AppSelection {
                    package: "com.example.survey".into(),
                    args: [(
                        "survey-areas".to_string(),
                        serde_json::json!([[43.6087, -85.8104]]),
                    )]
                    .into_iter()
                    .collect(),
                }],
                extra_waypoint_devices: vec![],
                extra_continuous_devices: vec![],
                max_charge_cents: 100.0,
                max_duration_s: 10.0,
                flexible_schedule: true,
            },
        )
        .unwrap();

    let outcomes = androne
        .execute_orders(std::slice::from_ref(&order), 300.0)
        .unwrap();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].completed);

    // Billing, VDR, and notifications all reflect the flight.
    assert!(androne.cloud.billing.bill("alice").energy_j > 0.0);
    assert!(androne.cloud.vdr.get(&order.vd_name).is_some());
    assert!(androne
        .cloud
        .notifications
        .iter()
        .any(|n| n.message.contains("complete")));
}

#[test]
fn vdr_save_resume_preserves_app_state() {
    let mut drone = Drone::boot(BASE, 7).unwrap();
    drone
        .deploy_vdrone("vd1", spec(vec![wp(50.0, 0.0, 30.0)]), &[manifest()])
        .unwrap();

    // The app saves lifecycle state (e.g. interrupted mid-mission).
    {
        let vd = drone.vdrones.get_mut("vd1").unwrap();
        let mut bundle = androne::android::Bundle::new();
        bundle.insert("frames-captured".into(), "117".into());
        vd.apps.save_instance_state("com.example.survey", bundle);
    }
    // Also write container-private data.
    drone
        .runtime
        .get_mut("vd1")
        .unwrap()
        .fs
        .write("/data/media/video0.mp4", "frames");

    let (archive, app_state) = drone.save_vdrone("vd1").unwrap();
    assert!(!drone.vdrones.contains_key("vd1"));
    assert!(archive.stored_bytes() > 0);

    // Resume on a *different* physical drone.
    let mut other = Drone::boot(BASE, 8).unwrap();
    other
        .deploy_from_archive(
            &archive,
            spec(vec![wp(50.0, 0.0, 30.0)]),
            &[manifest()],
            &app_state,
        )
        .unwrap();
    let vd = other.vdrones.get("vd1").unwrap();
    assert_eq!(
        vd.apps.restore_bundle("com.example.survey")["frames-captured"],
        "117"
    );
    assert_eq!(
        other
            .runtime
            .get("vd1")
            .unwrap()
            .fs
            .read("/data/media/video0.mp4")
            .unwrap(),
        bytes::Bytes::from("frames")
    );
}

#[test]
fn vdrone_app_reaches_camera_only_at_waypoint() {
    // The full stack check: Binder + device container + VDC policy.
    use androne::android::{svc_codes, svc_names};
    use androne::binder::{get_service, Parcel};
    use androne::container::DeviceNamespaceId;
    use androne::simkern::SchedPolicy;

    let mut drone = Drone::boot(BASE, 9).unwrap();
    drone
        .deploy_vdrone("vd1", spec(vec![wp(40.0, 0.0, 30.0)]), &[manifest()])
        .unwrap();
    let vd = drone.vdrones.get("vd1").unwrap();
    let container = vd.container;
    let euid = vd.apps.get("com.example.survey").unwrap().euid;

    // Spawn the app's process.
    let app_pid = {
        let mut k = drone.kernel.borrow_mut();
        k.tasks
            .spawn("survey-app", euid, container, SchedPolicy::DEFAULT)
            .unwrap()
    };
    drone
        .driver
        .open(app_pid, euid, container, DeviceNamespaceId(container.0));

    let cam = get_service(&mut drone.driver, app_pid, svc_names::CAMERA).unwrap();
    // Before the waypoint: denied by the VDC.
    assert!(drone
        .driver
        .transact(app_pid, cam, svc_codes::OP, Parcel::new())
        .is_err());

    // Simulate arrival.
    drone.vdc.borrow_mut().on_waypoint_arrived("vd1", 0);
    let frame = drone
        .driver
        .transact(app_pid, cam, svc_codes::OP, Parcel::new())
        .unwrap();
    assert!(frame.blob_at(4).is_ok(), "camera frame delivered");

    // Departure revokes again.
    drone.vdc.borrow_mut().on_waypoint_departed("vd1", 0);
    assert!(drone
        .driver
        .transact(app_pid, cam, svc_codes::OP, Parcel::new())
        .is_err());
}

#[test]
fn vdr_storage_scales_with_diffs_not_images() {
    // Paper Section 3: "each virtual drone container image consists
    // only of its differences from a base virtual drone image,
    // allowing for minimal storage requirements when running multiple
    // virtual drones and storing them offline."
    let mut drone = Drone::boot(BASE, 11).unwrap();
    let mut androne = Androne::new(BASE, 1, 11);
    let mut total_diffs = 0u64;
    for i in 1..=3 {
        let name = format!("vd{i}");
        drone
            .deploy_vdrone(&name, spec(vec![wp(40.0, 0.0, 30.0)]), &[])
            .unwrap();
        // Each virtual drone writes a differently sized private blob.
        drone
            .runtime
            .get_mut(&name)
            .unwrap()
            .fs
            .write("/data/out.bin", vec![0u8; i * 1000]);
        let (archive, app_state) = drone.save_vdrone(&name).unwrap();
        total_diffs += archive.stored_bytes();
        let stored_spec = spec(vec![wp(40.0, 0.0, 30.0)]);
        androne.cloud.vdr.store(androne::cloud::SavedVirtualDrone {
            name: name.clone(),
            owner: "user".into(),
            remaining_energy_j: stored_spec.energy_allotted,
            remaining_time_s: stored_spec.max_duration,
            waypoints_completed: 1,
            flights_flown: 1,
            spec: stored_spec,
            archive,
            app_state,
            reason: androne::cloud::SaveReason::Completed,
        });
    }
    assert_eq!(androne.cloud.vdr.stored_bytes(), total_diffs);
    // The diffs are small: far below even one 185 MB container image.
    assert!(androne.cloud.vdr.stored_bytes() < MIB);
}
