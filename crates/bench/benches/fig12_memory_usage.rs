//! Figure 12: Memory usage.
//!
//! Board RAM in use as the AnDrone stack comes up: base (host OS +
//! VDC), + device and flight containers, then one to three virtual
//! drones idling on their launchers. Paper: <100 MB base, ~150 MB
//! for device+flight, ~185 MB per virtual drone, and a fourth
//! virtual drone fails on the 880 MB board without disturbing the
//! others.

use androne::hal::GeoPoint;
use androne::simkern::MIB;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{Drone, DroneError};
use androne_bench::banner;

fn spec() -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints: vec![WaypointSpec {
            latitude: 43.6084298,
            longitude: -85.8110359,
            altitude: 15.0,
            max_radius: 30.0,
        }],
        max_duration: 600.0,
        energy_allotted: 45_000.0,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into()],
        apps: vec![],
        app_args: Default::default(),
    }
}

fn main() {
    banner("Figure 12", "Memory usage (MB) by configuration");
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut drone = Drone::boot(base, 12).expect("boot");

    let mb = |bytes: u64| bytes as f64 / MIB as f64;
    let paper = [95.0, 245.0, 430.0, 615.0, 800.0];
    let mut measured = Vec::new();

    // "Base" in the paper is host+VDC only; our boot charges the
    // device+flight containers too, so report both from components.
    let host_base = androne::container::HOST_BASE_MEMORY;
    measured.push(mb(host_base));
    measured.push(mb(drone.memory_used()));
    println!(
        "{:<22} {:>8.0} MB (paper ~{:>3.0} MB)",
        "Base (host + VDC)", measured[0], paper[0]
    );
    println!(
        "{:<22} {:>8.0} MB (paper ~{:>3.0} MB)",
        "+ Dev+Flight Con", measured[1], paper[1]
    );

    for i in 1..=3 {
        drone
            .deploy_vdrone(&format!("vd{i}"), spec(), &[])
            .expect("virtual drone fits");
        measured.push(mb(drone.memory_used()));
        println!(
            "{:<22} {:>8.0} MB (paper ~{:>3.0} MB)",
            format!("+ {i} VDrone"),
            measured[1 + i],
            paper[1 + i]
        );
    }

    // The fourth fails with OOM, leaving the rest untouched.
    let err = drone.deploy_vdrone("vd4", spec(), &[]).unwrap_err();
    assert!(matches!(err, DroneError::Container(_)));
    println!("\n+ 4th VDrone          -> {err}");
    assert_eq!(drone.vdrones.len(), 3, "running virtual drones unaffected");
    assert!(
        drone.memory_used() <= 880 * MIB,
        "never exceeds the 880 MB usable budget"
    );
    println!("shape checks passed: 3 virtual drones fit in 880 MB, the 4th OOMs harmlessly");
}
