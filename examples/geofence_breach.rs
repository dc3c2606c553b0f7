//! Geofence breach handling: the paper's augmented recovery sequence
//! (Section 4.3) — instead of a stock failsafe landing, AnDrone
//! informs the virtual drone, disables its commands, guides the
//! drone back inside the fence, loiters, and returns control, so the
//! multi-tenant flight continues.
//!
//! ```text
//! cargo run --example geofence_breach
//! ```

use androne::flight::VfcState;
use androne::hal::GeoPoint;
use androne::mavlink::{deg_to_e7, Message};
use androne::planner::PILOT_CLIENT;
use androne::simkern::SimDuration;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;

fn main() {
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut drone = Drone::boot(base, 99).expect("boot");

    let waypoint = base.offset_m(50.0, 0.0, 15.0);
    drone
        .deploy_vdrone(
            "vd-user",
            VirtualDroneSpec {
                waypoints: vec![WaypointSpec {
                    latitude: waypoint.latitude,
                    longitude: waypoint.longitude,
                    altitude: 15.0,
                    max_radius: 30.0,
                }],
                max_duration: 300.0,
                energy_allotted: 60_000.0,
                continuous_devices: vec![],
                waypoint_devices: vec!["flight-control".into()],
                apps: vec![],
                app_args: Default::default(),
            },
            &[],
        )
        .unwrap();

    // Fly to the waypoint and hand over control.
    println!("Flying to the user's waypoint (30 m geofence)...");
    assert!(drone.sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
    assert!(drone
        .sitl
        .goto(waypoint, 5.0, 2.0, SimDuration::from_secs(60)));
    drone.vdc.borrow_mut().on_waypoint_arrived("vd-user", 0);
    drone.proxy.activate_vfc("vd-user");
    println!("Control handed to vd-user.");

    // A gust (modelled through the planner-side connection) pushes
    // the drone 60 m past the fence edge.
    println!("\nInjecting a breach: drone pushed 110 m from base...");
    let outside = base.offset_m(110.0, 0.0, 15.0);
    drone.proxy.client_send(
        PILOT_CLIENT,
        Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(outside.latitude),
            lon: deg_to_e7(outside.longitude),
            alt: 15.0,
            speed: 6.0,
        },
        &mut drone.sitl,
    );
    let mut recovered_notice = false;
    for second in 0..60 {
        for _ in 0..400 {
            drone.proxy.step(&mut drone.sitl);
        }
        for msg in drone.proxy.client_recv("vd-user") {
            if let Message::StatusText { text, .. } = msg {
                println!("  t+{second:>2}s vd-user sees: {text}");
                if text.contains("control returned") {
                    recovered_notice = true;
                }
            }
        }
        if recovered_notice {
            break;
        }
    }

    let fence_center = waypoint;
    let dist = drone.sitl.position().ground_distance_m(&fence_center);
    println!(
        "\nRecovery complete: drone {dist:.1} m from the waypoint (fence 30 m), \
         VFC state {:?}, breaches handled: {}",
        drone.proxy.vfc("vd-user").unwrap().state(),
        drone.proxy.breaches_handled
    );
    assert!(recovered_notice, "user was told control returned");
    assert_eq!(
        drone.proxy.vfc("vd-user").unwrap().state(),
        VfcState::Active
    );
    assert!(dist < 30.0, "back inside the fence");

    // The user resumes flying inside the fence.
    let inside = base.offset_m(45.0, 10.0, 15.0);
    drone.proxy.client_send(
        "vd-user",
        Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(inside.latitude),
            lon: deg_to_e7(inside.longitude),
            alt: 15.0,
            speed: 4.0,
        },
        &mut drone.sitl,
    );
    for _ in 0..(20 * 400) {
        drone.proxy.step(&mut drone.sitl);
    }
    println!(
        "User resumed control; drone now {:.1} m from its new target.",
        drone.sitl.position().distance_m(&inside)
    );
    assert!(drone.sitl.position().distance_m(&inside) < 3.0);
}
