//! Section 6.6: Multi-waypoint flight simulation.
//!
//! The paper's SITL demonstration: one physical flight serving three
//! virtual drones (autonomous survey, interactive, direct access),
//! with waypoint handovers, device-access windows, per-tenant energy
//! accounting, and a stability (attitude-estimate-divergence) check.

use androne::flight_exec::{execute_flight, FlightLog};
use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;
use androne_bench::banner;

fn wp(base: &GeoPoint, north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = base.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn main() {
    banner("Section 6.6", "Three-tenant multi-waypoint SITL flight");
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut drone = Drone::boot(base, 66).expect("boot");

    let tenants = [
        (
            "vd-survey",
            80.0,
            0.0,
            40.0,
            vec!["camera", "gps", "flight-control"],
        ),
        ("vd-interactive", 80.0, 90.0, 25.0, vec!["flight-control"]),
        (
            "vd-direct",
            0.0,
            100.0,
            30.0,
            vec!["camera", "flight-control"],
        ),
    ];
    for (name, north, east, radius, devices) in &tenants {
        drone
            .deploy_vdrone(
                name,
                VirtualDroneSpec {
                    waypoints: vec![wp(&base, *north, *east, *radius)],
                    max_duration: 60.0,
                    energy_allotted: 30_000.0,
                    continuous_devices: vec![],
                    waypoint_devices: devices.iter().map(|d| d.to_string()).collect(),
                    apps: vec![],
                    app_args: Default::default(),
                },
                &[],
            )
            .expect("deploy");
    }

    let plan = FlightPlan {
        base,
        legs: tenants
            .iter()
            .map(|(name, north, east, radius, _)| Leg {
                owner: name.to_string(),
                position: base.offset_m(*north, *east, 15.0),
                max_radius_m: *radius,
                service_energy_j: 50_000.0,
                service_time_s: 10.0,
                eta_s: 0.0,
            })
            .collect(),
        estimated_duration_s: 300.0,
        estimated_energy_j: 130_000.0,
    };

    let outcome = execute_flight(&mut drone, plan, 400.0, None);
    for entry in &outcome.log {
        println!("  {entry:?}");
    }
    println!("\nper-tenant energy charges:");
    for (vd, j) in &outcome.vdrone_energy_j {
        println!("  {vd:<16} {j:>8.0} J");
    }
    println!(
        "\nflight: {:.0} s, {:.0} J total; landed {:.1} m from base; peak AED {:.2} deg",
        outcome.duration_s,
        outcome.total_energy_j,
        drone.sitl.position().ground_distance_m(&base),
        drone.sitl.max_attitude_divergence.to_degrees()
    );

    // Shape checks (the paper's qualitative outcomes).
    assert!(outcome.completed, "the flight completes");
    let handovers = outcome
        .log
        .iter()
        .filter(|e| matches!(e, FlightLog::WaypointHandover { .. }))
        .count();
    assert_eq!(handovers, 3, "all three tenants served in one flight");
    assert!(drone.sitl.on_ground() && drone.sitl.position().ground_distance_m(&base) < 5.0);
    assert!(
        drone.sitl.max_attitude_divergence < 5f64.to_radians(),
        "within the AED analyzer's normal band"
    );
    println!("shape checks passed: 3 tenants, one flight, stable, returned to base");
}
