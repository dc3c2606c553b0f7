//! Multi-tenant flight: the paper's Section 6.6 demonstration — one
//! physical flight serving three third parties: an autonomous survey
//! app, an interactive remote-control user, and a direct-access
//! power user, each confined to its own waypoint, devices, and
//! geofence.
//!
//! ```text
//! cargo run --example multi_tenant_flight
//! ```

use androne::flight_exec::{execute_flight, FlightLog};
use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::sdk::run_command;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;

fn wp(base: &GeoPoint, north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = base.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn spec(waypoint: WaypointSpec, devices: &[&str], energy: f64) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints: vec![waypoint],
        max_duration: 60.0,
        energy_allotted: energy,
        continuous_devices: vec![],
        waypoint_devices: devices.iter().map(|d| d.to_string()).collect(),
        apps: vec![],
        app_args: Default::default(),
    }
}

fn main() {
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut drone = Drone::boot(base, 66).expect("boot");

    println!("Deploying three tenants onto one drone...");
    drone
        .deploy_vdrone(
            "vd-survey",
            spec(
                wp(&base, 80.0, 0.0, 40.0),
                &["camera", "gps", "flight-control"],
                30_000.0,
            ),
            &[],
        )
        .unwrap();
    drone
        .deploy_vdrone(
            "vd-interactive",
            spec(wp(&base, 80.0, 90.0, 25.0), &["flight-control"], 25_000.0),
            &[],
        )
        .unwrap();
    drone
        .deploy_vdrone(
            "vd-direct",
            spec(
                wp(&base, 0.0, 100.0, 30.0),
                &["camera", "flight-control"],
                20_000.0,
            ),
            &[],
        )
        .unwrap();
    println!(
        "Board memory in use: {:.0} MB of 880 MB",
        drone.memory_used() as f64 / (1024.0 * 1024.0)
    );

    let mk_leg = |owner: &str, north: f64, east: f64, radius: f64, secs: f64| Leg {
        owner: owner.into(),
        position: base.offset_m(north, east, 15.0),
        max_radius_m: radius,
        service_energy_j: 50_000.0,
        service_time_s: secs,
        eta_s: 0.0,
    };
    let plan = FlightPlan {
        base,
        legs: vec![
            mk_leg("vd-survey", 80.0, 0.0, 40.0, 10.0),
            mk_leg("vd-interactive", 80.0, 90.0, 25.0, 12.0),
            mk_leg("vd-direct", 0.0, 100.0, 30.0, 8.0),
        ],
        estimated_duration_s: 300.0,
        estimated_energy_j: 130_000.0,
    };

    println!("\nExecuting the three-waypoint flight...");
    let outcome = execute_flight(&mut drone, plan, 400.0, None);
    for entry in &outcome.log {
        match entry {
            FlightLog::WaypointHandover {
                owner,
                flight_control,
                ..
            } => println!("  → handover to {owner} (flight control: {flight_control})"),
            FlightLog::WaypointEnd { owner, reason, .. } => {
                println!("  ← {owner} done ({reason:?})")
            }
            other => println!("  {other:?}"),
        }
    }

    println!("\nPer-tenant energy bills:");
    for (vd, j) in &outcome.vdrone_energy_j {
        println!("  {vd}: {j:.0} J");
    }

    // The direct-access tenant checks its budget over the console.
    let vd = drone.vdrones.get("vd-direct").unwrap();
    println!("\nvd-direct console:");
    println!("  $ energy-left\n  {}", run_command(&vd.sdk, "energy-left"));
    println!("  $ time-left\n  {}", run_command(&vd.sdk, "time-left"));

    println!(
        "\nFlight complete: {:.0} s, {:.0} J total, landed {} m from base, peak AED {:.2}°",
        outcome.duration_s,
        outcome.total_energy_j,
        drone.sitl.position().ground_distance_m(&base).round(),
        drone.sitl.max_attitude_divergence.to_degrees()
    );
    assert!(outcome.completed);
    assert!(drone.sitl.on_ground());
}
