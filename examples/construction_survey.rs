//! Construction-site survey: the paper's Figure 2 virtual drone
//! definition, executed end to end with a survey app that captures
//! geotagged camera frames at each waypoint through the device
//! container and marks its results for cloud upload.
//!
//! ```text
//! cargo run --example construction_survey
//! ```

use androne::android::{svc_codes, svc_names, AndroneManifest};
use androne::binder::{get_service, Parcel};
use androne::container::DeviceNamespaceId;
use androne::flight_exec::execute_flight;
use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::simkern::SchedPolicy;
use androne::vdc::VirtualDroneSpec;
use androne::Drone;

const SURVEY_MANIFEST: &str = r#"<androne-manifest package="com.example.survey">
    <uses-permission name="camera" type="waypoint"/>
    <uses-permission name="flight-control" type="waypoint"/>
    <argument name="survey-areas" type="geo-list" required="true"/>
</androne-manifest>"#;

fn main() {
    // The exact JSON definition from the paper's Figure 2.
    let spec = VirtualDroneSpec::example_survey();
    println!("Virtual drone definition (Figure 2):\n{}\n", spec.to_json());

    let base = GeoPoint::new(43.6086, -85.8130, 0.0);
    let mut drone = Drone::boot(base, 2019).expect("drone boots");
    let manifest = AndroneManifest::parse(SURVEY_MANIFEST).expect("valid manifest");
    drone
        .deploy_vdrone("vd-survey", spec.clone(), &[manifest])
        .expect("deployment fits in memory");

    // The survey app's process, opened against Binder.
    let vd = drone.vdrones.get("vd-survey").unwrap();
    let container = vd.container;
    let euid = vd.apps.get("com.example.survey").unwrap().euid;
    let app_pid = {
        let mut k = drone.kernel.borrow_mut();
        k.tasks
            .spawn("survey-app", euid, container, SchedPolicy::DEFAULT)
            .unwrap()
    };
    drone
        .driver
        .open(app_pid, euid, container, DeviceNamespaceId(container.0));

    // Build the flight plan straight from the spec's two waypoints.
    let legs: Vec<Leg> = spec
        .waypoints
        .iter()
        .map(|wp| Leg {
            owner: "vd-survey".into(),
            position: wp.position(),
            max_radius_m: wp.max_radius,
            service_energy_j: spec.energy_allotted / 2.0,
            service_time_s: 10.0,
            eta_s: 0.0,
        })
        .collect();
    let plan = FlightPlan {
        base,
        legs,
        estimated_duration_s: 400.0,
        estimated_energy_j: 120_000.0,
    };

    // Fly manually, waypoint by waypoint, so the survey "app" can
    // capture frames while the drone is actually on station — the
    // device container geotags each frame from the same sensors the
    // flight controller is flying on.
    let mut frames = 0u32;
    println!("Flying the two-waypoint survey...");
    use androne::simkern::SimDuration;
    assert!(drone.sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
    let cam = get_service(&mut drone.driver, app_pid, svc_names::CAMERA).unwrap();
    for (wp_index, wp) in spec.waypoints.iter().enumerate() {
        assert!(
            drone
                .sitl
                .goto(wp.position(), 5.0, 2.0, SimDuration::from_secs(600)),
            "reach waypoint {wp_index}"
        );
        // Before the grant the camera is denied.
        assert!(drone
            .driver
            .transact(app_pid, cam, svc_codes::OP, Parcel::new())
            .is_err());
        drone
            .vdc
            .borrow_mut()
            .on_waypoint_arrived("vd-survey", wp_index);
        println!("  at waypoint {wp_index}: camera granted");
        for _ in 0..4 {
            let reply = drone
                .driver
                .transact(app_pid, cam, svc_codes::OP, Parcel::new())
                .expect("camera granted at the waypoint");
            frames += 1;
            println!(
                "  frame {} @ ({:.7}, {:.7})",
                reply.i64_at(0).unwrap(),
                reply.f64_at(1).unwrap(),
                reply.f64_at(2).unwrap()
            );
            drone.sitl.run_for(SimDuration::from_millis(500));
        }
        drone
            .vdc
            .borrow_mut()
            .on_waypoint_departed("vd-survey", wp_index);
        println!("  leaving waypoint {wp_index}: camera revoked");
    }
    // Return and land via the planned-flight machinery (already at
    // the last waypoint, so the plan collapses to the RTL leg).
    let outcome = execute_flight(&mut drone, plan, 500.0, None);

    // The app stores its mosaic and marks it for the user.
    drone.runtime.get_mut("vd-survey").unwrap().fs.write(
        "/data/survey/orthomosaic.tif",
        format!("mosaic-of-{frames}-frames"),
    );
    drone
        .vdc
        .borrow_mut()
        .mark_file("vd-survey", "/data/survey/orthomosaic.tif");

    println!(
        "\nSurvey complete: {frames} frames, {:.0} J consumed, flight time {:.0} s",
        outcome.total_energy_j, outcome.duration_s
    );
    assert!(outcome.completed);
    assert_eq!(frames, 8);
}
