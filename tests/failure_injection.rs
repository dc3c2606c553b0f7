//! Failure injection: inclement-weather aborts with VDR resume,
//! revocation enforcement against misbehaving apps, energy
//! exhaustion mid-task, and lossy-link control.

use androne::android::{svc_codes, svc_names};
use androne::binder::{get_service, Parcel};
use androne::cloud::SaveReason;
use androne::container::DeviceNamespaceId;
use androne::flight_exec::{execute_flight, EndReason, FlightLog};
use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::simkern::{LinkModel, SchedPolicy, SimTime, TaskState};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{Androne, Drone};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn spec(waypoints: Vec<WaypointSpec>, energy: f64, duration: f64) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints,
        max_duration: duration,
        energy_allotted: energy,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec![],
        app_args: Default::default(),
    }
}

fn one_leg_plan(owner: &str, north: f64, east: f64, time_s: f64) -> FlightPlan {
    FlightPlan {
        base: BASE,
        legs: vec![Leg {
            owner: owner.into(),
            position: BASE.offset_m(north, east, 15.0),
            max_radius_m: 40.0,
            service_energy_j: 50_000.0,
            service_time_s: time_s,
            eta_s: 15.0,
        }],
        estimated_duration_s: 200.0,
        estimated_energy_j: 60_000.0,
    }
}

#[test]
fn weather_abort_interrupts_and_flight_returns() {
    let mut drone = Drone::boot(BASE, 31).unwrap();
    drone
        .deploy_vdrone("vd1", spec(vec![wp(80.0, 0.0, 40.0)], 50_000.0, 600.0), &[])
        .unwrap();
    // Weather turns at t=40s, well before the 120 s service window
    // would expire.
    let outcome = execute_flight(
        &mut drone,
        one_leg_plan("vd1", 80.0, 0.0, 120.0),
        400.0,
        Some(Box::new(|t| t >= 40.0)),
    );
    assert!(!outcome.completed, "aborted flights do not complete");
    assert!(outcome.log.contains(&FlightLog::Aborted));
    assert!(
        outcome.log.iter().any(|e| matches!(
            e,
            FlightLog::WaypointEnd {
                reason: EndReason::Aborted,
                ..
            }
        )),
        "{:?}",
        outcome.log
    );
    assert!(matches!(outcome.log.last(), Some(FlightLog::Landed)));
    assert!(drone.sitl.on_ground(), "returned to base despite the abort");
}

/// `(VDR digest, alice's billed energy bits)` after each flight of
/// [`interrupted_vdrone_resumes_on_a_later_flight`]: the fresh deploy
/// and aborted flight, then the resume from the VDR. Captured before
/// the facade and the fleet island shared one deploy/harvest path;
/// they pin that the facade's cloud-visible effects did not move.
const FACADE_PINS: [(u64, u64); 2] = [
    (0xe636_b9f7_5614_532e, 0x0),
    (0x692f_97ca_6fbb_f30e, 0x40b2_fd9a_55b5_d0c0),
];

fn facade_pin(androne: &Androne) -> (u64, u64) {
    (
        androne.cloud.vdr.digest(),
        androne.cloud.billing.bill("alice").energy_j.to_bits(),
    )
}

#[test]
fn interrupted_vdrone_resumes_on_a_later_flight() {
    let mut androne = Androne::new(BASE, 1, 77);
    const MANIFEST: &str = r#"<androne-manifest package="com.example.survey">
        <uses-permission name="camera" type="waypoint"/>
        <uses-permission name="flight-control" type="waypoint"/>
    </androne-manifest>"#;
    androne.cloud.app_store.publish(MANIFEST, "survey").unwrap();
    let order = androne
        .cloud
        .portal
        .place_order(
            &androne.cloud.app_store,
            androne::cloud::OrderRequest {
                user: "alice".into(),
                waypoints: vec![wp(60.0, 0.0, 30.0)],
                drone_type: "video".into(),
                apps: vec![androne::cloud::AppSelection {
                    package: "com.example.survey".into(),
                    args: Default::default(),
                }],
                extra_waypoint_devices: vec![],
                extra_continuous_devices: vec![],
                max_charge_cents: 200.0,
                max_duration_s: 30.0,
                flexible_schedule: true,
            },
        )
        .unwrap();

    // First flight: aborted by weather before reaching the waypoint.
    let plans = androne
        .cloud
        .plan_flights(std::slice::from_ref(&order), BASE, 1);
    let outcome = androne
        .execute_one_flight(
            std::slice::from_ref(&order),
            plans[0].clone(),
            400.0,
            Some(Box::new(|t| t >= 5.0)),
        )
        .unwrap();
    assert!(!outcome.completed);
    assert_eq!(
        facade_pin(&androne),
        FACADE_PINS[0],
        "after the aborted flight"
    );
    let saved = androne.cloud.vdr.get(&order.vd_name).unwrap();
    assert_eq!(
        saved.reason,
        SaveReason::Interrupted,
        "saved for resumption"
    );

    // Second flight: the same virtual drone is pulled from the VDR
    // and completes.
    let plans = androne
        .cloud
        .plan_flights(std::slice::from_ref(&order), BASE, 1);
    let outcome = androne
        .execute_one_flight(std::slice::from_ref(&order), plans[0].clone(), 400.0, None)
        .unwrap();
    assert!(outcome.completed, "log: {:?}", outcome.log);
    assert_eq!(
        facade_pin(&androne),
        FACADE_PINS[1],
        "after the resumed flight"
    );
    assert_eq!(
        androne.cloud.vdr.get(&order.vd_name).unwrap().reason,
        SaveReason::Completed
    );
}

#[test]
fn app_ignoring_revocation_is_terminated() {
    let mut drone = Drone::boot(BASE, 33).unwrap();
    const MANIFEST: &str = r#"<androne-manifest package="com.example.hog">
        <uses-permission name="camera" type="waypoint"/>
    </androne-manifest>"#;
    let manifest = androne::android::AndroneManifest::parse(MANIFEST).unwrap();
    drone
        .deploy_vdrone(
            "vd1",
            spec(vec![wp(40.0, 0.0, 30.0)], 50_000.0, 600.0),
            &[manifest],
        )
        .unwrap();
    let vd = drone.vdrones.get("vd1").unwrap();
    let container = vd.container;
    let euid = vd.apps.get("com.example.hog").unwrap().euid;

    // The app opens a camera session at the waypoint...
    let app_pid = {
        let mut k = drone.kernel.borrow_mut();
        k.tasks
            .spawn("hog", euid, container, SchedPolicy::DEFAULT)
            .unwrap()
    };
    drone
        .driver
        .open(app_pid, euid, container, DeviceNamespaceId(container.0));
    drone.vdc.borrow_mut().on_waypoint_arrived("vd1", 0);
    let cam = get_service(&mut drone.driver, app_pid, svc_names::CAMERA).unwrap();
    drone
        .driver
        .transact(app_pid, cam, svc_codes::CONNECT, Parcel::new())
        .unwrap();

    // ...and ignores the revocation notification at departure.
    drone.vdc.borrow_mut().on_waypoint_departed("vd1", 0);
    let killed = drone.enforce_revocation("vd1");
    assert_eq!(killed, vec![app_pid], "the holdout process is terminated");
    let k = drone.kernel.borrow();
    assert_eq!(k.tasks.get(app_pid).unwrap().state, TaskState::Dead);
}

#[test]
fn energy_exhaustion_ends_the_waypoint_window() {
    let mut drone = Drone::boot(BASE, 34).unwrap();
    // Tiny energy allotment: a few seconds of hover burns it.
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)], 900.0, 600.0), &[])
        .unwrap();
    let outcome = execute_flight(
        &mut drone,
        one_leg_plan("vd1", 60.0, 0.0, 300.0),
        400.0,
        None,
    );
    assert!(outcome.completed);
    assert!(
        outcome.log.iter().any(|e| matches!(
            e,
            FlightLog::WaypointEnd {
                reason: EndReason::EnergyExhausted,
                ..
            }
        )),
        "{:?}",
        outcome.log
    );
}

#[test]
fn cellular_loss_does_not_wedge_the_command_stream() {
    // Drive MAVLink traffic through a deliberately lossy cellular
    // link: lost packets vanish but every delivered frame decodes.
    use androne::mavlink::{channel, FlightMode, Message};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let lossy = LinkModel {
        loss_prob: 0.2,
        ..LinkModel::cellular_lte()
    };
    let (mut ground, mut drone_end) = channel(lossy, 255, 1);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut t = SimTime::ZERO;
    let mut delivered = 0;
    for _ in 0..2_000 {
        ground.send(
            Message::Heartbeat {
                mode: FlightMode::Guided,
                armed: true,
                system_status: 4,
            },
            t,
            &mut rng,
        );
        t += androne::simkern::SimDuration::from_millis(100);
        delivered += drone_end.recv(t).len();
    }
    // Drain stragglers.
    t += androne::simkern::SimDuration::from_secs(2);
    delivered += drone_end.recv(t).len();
    let lost = ground.packets_lost() as usize;
    assert!(lost > 200, "loss model active: {lost}");
    assert_eq!(delivered + lost, 2_000, "no frame corrupted or duplicated");
    assert_eq!(drone_end.frames_dropped(), 0);
}

#[test]
fn kernel_crash_on_shared_hardware_cuts_the_motors() {
    // Paper Section 4.3: "when sharing hardware with the flight
    // controller, a bug or intentional kernel crash can result in
    // loss of control of the drone".
    let mut drone = Drone::boot(BASE, 35).unwrap();
    assert!(drone
        .sitl
        .arm_and_takeoff(20.0, androne::simkern::SimDuration::from_secs(30)));
    drone.inject_kernel_panic();
    assert!(drone.host_crashed());
    // Binder is dead: device services are unreachable.
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    assert!(
        hal_bridge.gps_fix(driver).is_err(),
        "Binder died with the kernel"
    );
    // The unpowered airframe comes down.
    drone
        .sitl
        .run_for(androne::simkern::SimDuration::from_secs(30));
    assert!(drone.sitl.on_ground(), "uncontrolled descent to ground");
    assert!(!drone.sitl.fc.armed());
}

#[test]
fn separate_flight_hardware_survives_a_kernel_crash() {
    // The paper's mitigation: "this risk can be removed by running
    // the flight controller on separate hardware if desired."
    let mut drone = Drone::boot(BASE, 36).unwrap();
    drone.flight_on_separate_hardware = true;
    assert!(drone
        .sitl
        .arm_and_takeoff(20.0, androne::simkern::SimDuration::from_secs(30)));
    drone.inject_kernel_panic();
    // Virtual drones and device services are gone...
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    assert!(hal_bridge.gps_fix(driver).is_err());
    // ...but the flight controller keeps flying and returns home.
    assert!(drone.sitl.fc.armed(), "fast loop unaffected");
    drone
        .sitl
        .handle_message(&androne::mavlink::Message::CommandLong {
            command: androne::mavlink::MavCmd::NavReturnToLaunch,
            params: [0.0; 7],
        });
    drone
        .sitl
        .run_for(androne::simkern::SimDuration::from_secs(60));
    assert!(drone.sitl.on_ground());
    assert!(
        drone.sitl.position().ground_distance_m(&BASE) < 5.0,
        "landed at base"
    );
}
