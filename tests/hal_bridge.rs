//! The flight container's HAL bridge (paper Section 4.3): the flight
//! controller reads GPS and sensors through the device container
//! "just like any other virtual drone", gated by the VDC policy —
//! which allows it exactly GPS and sensors, never the camera.

use androne::android::{svc_codes, svc_names};
use androne::binder::{get_service, BinderError, Parcel};
use androne::hal::GeoPoint;
use androne::simkern::SimDuration;
use androne::Drone;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

#[test]
fn flight_container_reads_gps_through_device_container() {
    let mut drone = Drone::boot(BASE, 51).unwrap();
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    let fix = hal_bridge.gps_fix(driver).unwrap();
    assert!(
        (fix.latitude - BASE.latitude).abs() < 0.001,
        "{}",
        fix.latitude
    );
    assert!((fix.longitude - BASE.longitude).abs() < 0.001);
    assert!(fix.ground_speed.abs() < 0.1, "at rest");
}

#[test]
fn bridge_gps_tracks_the_flying_vehicle() {
    let mut drone = Drone::boot(BASE, 52).unwrap();
    assert!(drone.sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
    let away = BASE.offset_m(60.0, 30.0, 15.0);
    assert!(drone.sitl.goto(away, 5.0, 2.0, SimDuration::from_secs(60)));
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    let fix = hal_bridge.gps_fix(driver).unwrap();
    let seen = GeoPoint::new(fix.latitude, fix.longitude, fix.altitude);
    assert!(
        seen.ground_distance_m(&away) < 10.0,
        "bridge GPS follows the flight: {} m off",
        seen.ground_distance_m(&away)
    );
    assert!((10.0..20.0).contains(&fix.altitude), "alt {}", fix.altitude);
}

#[test]
fn bridge_reads_baro_imu_and_heading() {
    let mut drone = Drone::boot(BASE, 53).unwrap();
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    let p = hal_bridge.baro_pressure_pa(driver).unwrap();
    assert!((95_000.0..103_000.0).contains(&p), "sea-level-ish: {p}");
    let imu = hal_bridge.imu_sample(driver).unwrap();
    assert!((imu.accel[2] + 9.8).abs() < 1.0, "gravity on body z");
    let h = hal_bridge.heading(driver).unwrap();
    assert!(h.abs() < 0.2, "level vehicle points north: {h}");
}

#[test]
fn flight_container_is_denied_the_camera() {
    // The VDC policy allows the flight container GPS and sensors
    // only; a compromised flight stack cannot spy through the camera.
    let mut drone = Drone::boot(BASE, 54).unwrap();
    let bridge_pid = {
        let k = drone.kernel.borrow();
        let pid = k
            .tasks
            .live()
            .find(|t| t.name == "hal-bridge")
            .map(|t| t.pid);
        pid.expect("bridge task exists")
    };
    let cam = get_service(&mut drone.driver, bridge_pid, svc_names::CAMERA).unwrap();
    let err = drone
        .driver
        .transact(bridge_pid, cam, svc_codes::OP, Parcel::new())
        .unwrap_err();
    assert!(matches!(err, BinderError::PermissionDenied(_)), "{err}");
}
