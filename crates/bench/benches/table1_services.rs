//! Table 1: Device container services.
//!
//! The listing of shared services and the devices they manage,
//! produced from the live device container rather than hardcoded: a
//! drone is booted, and each service is looked up through a virtual
//! drone's ServiceManager to prove it is actually published.

use androne::android::svc_names;
use androne::binder::get_service;
use androne::container::DeviceNamespaceId;
use androne::hal::GeoPoint;
use androne::simkern::{Euid, SchedPolicy};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;
use androne_bench::banner;

fn main() {
    banner("Table 1", "Device container services and their devices");

    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut drone = Drone::boot(base, 1).expect("boot");
    drone
        .deploy_vdrone(
            "probe",
            VirtualDroneSpec {
                waypoints: vec![WaypointSpec {
                    latitude: base.latitude,
                    longitude: base.longitude,
                    altitude: 15.0,
                    max_radius: 30.0,
                }],
                max_duration: 60.0,
                energy_allotted: 1_000.0,
                continuous_devices: vec![],
                waypoint_devices: vec![],
                apps: vec![],
                app_args: Default::default(),
            },
            &[],
        )
        .expect("deploy probe");
    let container = drone.vdrones.get("probe").unwrap().container;
    let pid = {
        let mut k = drone.kernel.borrow_mut();
        k.tasks
            .spawn("probe-app", Euid(10_000), container, SchedPolicy::DEFAULT)
            .unwrap()
    };
    drone
        .driver
        .open(pid, Euid(10_000), container, DeviceNamespaceId(container.0));

    let rows = [
        (svc_names::AUDIO, "AudioFlinger", "Microphone, Speakers"),
        (svc_names::CAMERA, "CameraService", "Camera"),
        (svc_names::LOCATION, "LocationManagerService", "GPS"),
        (
            svc_names::SENSORS,
            "SensorService",
            "Motion, Environmental Sensors",
        ),
    ];
    println!("{:<26} {:<32} published?", "Service", "Device(s)");
    for (name, service, devices) in rows {
        let published = get_service(&mut drone.driver, pid, name).is_ok();
        println!("{service:<26} {devices:<32} {published}");
        assert!(
            published,
            "{service} must be visible inside a virtual drone"
        );
    }
    println!("\nall Table 1 services are published into virtual drone namespaces");
}
