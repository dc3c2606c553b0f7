//! End-to-end device container tests: Table 1 services multiplexed
//! across virtual drone containers, with the paper's two-stage
//! permission routing (calling container's ActivityManager + VDC
//! policy).

use std::cell::RefCell;
use std::rc::Rc;

use androne_android::{
    boot_android_instance, read_stream_frames, sensor_types, svc_codes, svc_names, AllowAll,
    AndroidInstance, DeviceClass, DevicePolicy, SystemServerConfig,
};
use androne_binder::{get_service, BinderDriver, BinderError, Parcel};
use androne_container::DeviceNamespaceId;
use androne_hal::{share, GeoPoint, HardwareBoard, SharedBoard};
use androne_simkern::{ContainerId, Euid, Kernel, KernelConfig, Pid, SchedPolicy};

/// A policy that denies one container's camera access (the VDC
/// between waypoints).
struct DenyCameraFor(ContainerId);

impl DevicePolicy for DenyCameraFor {
    fn allows(&self, container: ContainerId, device: DeviceClass) -> bool {
        !(container == self.0 && device == DeviceClass::Camera)
    }
}

struct TestBoard {
    kernel: Kernel,
    driver: BinderDriver,
    board: SharedBoard,
    device: AndroidInstance,
}

fn boot(policy: androne_android::PolicyRef) -> TestBoard {
    let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 99);
    let mut driver = BinderDriver::new();
    let board = share(HardwareBoard::new(GeoPoint::new(43.6, -85.8, 12.0), 7));
    let device = boot_android_instance(
        &mut kernel,
        &mut driver,
        ContainerId(1),
        DeviceNamespaceId(1),
        &SystemServerConfig::device_container(),
        Some(board.clone()),
        policy,
    )
    .unwrap();
    TestBoard {
        kernel,
        driver,
        board,
        device,
    }
}

fn boot_vdrone(tb: &mut TestBoard, id: u32) -> AndroidInstance {
    boot_android_instance(
        &mut tb.kernel,
        &mut tb.driver,
        ContainerId(id),
        DeviceNamespaceId(id),
        &SystemServerConfig::virtual_drone(),
        None,
        Rc::new(RefCell::new(AllowAll)),
    )
    .unwrap()
}

/// Spawns an app process in a container and opens Binder for it.
fn spawn_app(tb: &mut TestBoard, container: ContainerId, euid: Euid) -> Pid {
    let pid = tb
        .kernel
        .tasks
        .spawn("app", euid, container, SchedPolicy::DEFAULT)
        .unwrap();
    tb.driver
        .open(pid, euid, container, DeviceNamespaceId(container.0));
    pid
}

/// Grants an app a device permission in its container's AM.
fn grant(vd: &AndroidInstance, package: &str, euid: Euid, device: DeviceClass) {
    let mut am = vd.activity_manager.borrow_mut();
    am.register_app(package, euid);
    am.grant(package, device.android_permission());
}

#[test]
fn app_in_vdrone_captures_camera_frame_through_device_container() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_050);
    let app = spawn_app(&mut tb, vd.container, euid);
    grant(&vd, "com.example.survey", euid, DeviceClass::Camera);

    let cam = get_service(&mut tb.driver, app, svc_names::CAMERA).unwrap();
    let reply = tb
        .driver
        .transact(app, cam, svc_codes::OP, Parcel::new())
        .unwrap();
    assert_eq!(reply.i64_at(0).unwrap(), 1, "first frame");
    assert!((reply.f64_at(1).unwrap() - 43.6).abs() < 1e-9, "geotag");
    let payload = reply.blob_at(4).unwrap();
    assert!(std::str::from_utf8(&payload).unwrap().starts_with("JPEG"));
}

#[test]
fn app_without_android_permission_is_denied() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_051);
    let app = spawn_app(&mut tb, vd.container, euid);
    // App registered but no camera grant.
    vd.activity_manager
        .borrow_mut()
        .register_app("com.example.nogrant", euid);

    let cam = get_service(&mut tb.driver, app, svc_names::CAMERA).unwrap();
    let err = tb
        .driver
        .transact(app, cam, svc_codes::OP, Parcel::new())
        .unwrap_err();
    assert!(matches!(err, BinderError::PermissionDenied(_)), "{err}");
}

#[test]
fn vdc_policy_denies_between_waypoints() {
    let vd_container = ContainerId(10);
    let mut tb = boot(Rc::new(RefCell::new(DenyCameraFor(vd_container))));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_052);
    let app = spawn_app(&mut tb, vd.container, euid);
    grant(&vd, "com.example.survey", euid, DeviceClass::Camera);
    grant(&vd, "com.example.survey", euid, DeviceClass::Gps);

    // Camera: denied by the VDC despite the app-level grant.
    let cam = get_service(&mut tb.driver, app, svc_names::CAMERA).unwrap();
    assert!(matches!(
        tb.driver.transact(app, cam, svc_codes::OP, Parcel::new()),
        Err(BinderError::PermissionDenied(_))
    ));

    // GPS: allowed (the policy only blocks the camera).
    let loc = get_service(&mut tb.driver, app, svc_names::LOCATION).unwrap();
    let fix = tb
        .driver
        .transact(app, loc, svc_codes::OP, Parcel::new())
        .unwrap();
    assert!((fix.f64_at(0).unwrap() - 43.6).abs() < 0.01);
}

#[test]
fn two_vdrones_share_the_camera_service() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd_a = boot_vdrone(&mut tb, 10);
    let vd_b = boot_vdrone(&mut tb, 11);
    let (ea, eb) = (Euid(10_060), Euid(10_061));
    let app_a = spawn_app(&mut tb, vd_a.container, ea);
    let app_b = spawn_app(&mut tb, vd_b.container, eb);
    grant(&vd_a, "a.app", ea, DeviceClass::Camera);
    grant(&vd_b, "b.app", eb, DeviceClass::Camera);

    let cam_a = get_service(&mut tb.driver, app_a, svc_names::CAMERA).unwrap();
    let cam_b = get_service(&mut tb.driver, app_b, svc_names::CAMERA).unwrap();
    let f1 = tb
        .driver
        .transact(app_a, cam_a, svc_codes::OP, Parcel::new())
        .unwrap();
    let f2 = tb
        .driver
        .transact(app_b, cam_b, svc_codes::OP, Parcel::new())
        .unwrap();
    // One physical camera: frame sequence numbers interleave.
    assert_eq!(f1.i64_at(0).unwrap(), 1);
    assert_eq!(f2.i64_at(0).unwrap(), 2);
}

#[test]
fn camera_stream_fd_crosses_containers() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_070);
    let app = spawn_app(&mut tb, vd.container, euid);
    grant(&vd, "stream.app", euid, DeviceClass::Camera);

    let cam = get_service(&mut tb.driver, app, svc_names::CAMERA).unwrap();
    let reply = tb
        .driver
        .transact(app, cam, svc_codes::OP2, Parcel::new())
        .unwrap();
    let fd = reply.fd_at(0).unwrap();
    // The fd is valid in the *app's* table after translation.
    let frames = read_stream_frames(&tb.driver, app, fd).unwrap();
    assert_eq!(frames.len(), 1);
    assert!(std::str::from_utf8(&frames[0]).unwrap().starts_with("JPEG"));
}

#[test]
fn sensor_service_serves_all_sensor_types() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_080);
    let app = spawn_app(&mut tb, vd.container, euid);
    grant(&vd, "sensors.app", euid, DeviceClass::Sensors);

    let svc = get_service(&mut tb.driver, app, svc_names::SENSORS).unwrap();
    for (sensor, n_values) in [
        (sensor_types::ACCELEROMETER, 3),
        (sensor_types::GYROSCOPE, 3),
        (sensor_types::PRESSURE, 1),
        (sensor_types::MAGNETIC, 1),
    ] {
        let mut p = Parcel::new();
        p.push_i32(sensor);
        let reply = tb.driver.transact(app, svc, svc_codes::OP, p).unwrap();
        assert_eq!(reply.len(), n_values, "sensor {sensor}");
    }
    // At rest the accelerometer reads ~-g on body z.
    let mut p = Parcel::new();
    p.push_i32(sensor_types::ACCELEROMETER);
    let reply = tb.driver.transact(app, svc, svc_codes::OP, p).unwrap();
    assert!((reply.f64_at(2).unwrap() + 9.8).abs() < 1.0);
}

#[test]
fn audio_records_and_plays_through_the_device_container() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_090);
    let app = spawn_app(&mut tb, vd.container, euid);
    grant(&vd, "audio.app", euid, DeviceClass::Microphone);

    let audio = get_service(&mut tb.driver, app, svc_names::AUDIO).unwrap();
    let rec = tb
        .driver
        .transact(app, audio, svc_codes::OP, Parcel::new())
        .unwrap();
    let chunk = rec.blob_at(0).unwrap();
    assert!(std::str::from_utf8(&chunk).unwrap().starts_with("PCM16"));

    let mut play = Parcel::new();
    play.push_blob(chunk);
    tb.driver
        .transact(app, audio, svc_codes::OP2, play)
        .unwrap();
    assert_eq!(tb.board.borrow().speaker.chunks_played(), 1);
}

#[test]
fn query_users_reports_sessions_for_vdc_enforcement() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    let vd = boot_vdrone(&mut tb, 10);
    let euid = Euid(10_100);
    let app = spawn_app(&mut tb, vd.container, euid);
    grant(&vd, "cam.app", euid, DeviceClass::Camera);

    let cam = get_service(&mut tb.driver, app, svc_names::CAMERA).unwrap();
    tb.driver
        .transact(app, cam, svc_codes::CONNECT, Parcel::new())
        .unwrap();

    // The VDC (device container side) asks who is using the camera.
    let dev_pid = tb.device.system_server_pid;
    let cam_from_dev = get_service(&mut tb.driver, dev_pid, svc_names::CAMERA).unwrap();
    let mut q = Parcel::new();
    q.push_i32(vd.container.0 as i32);
    let reply = tb
        .driver
        .transact(dev_pid, cam_from_dev, svc_codes::QUERY_USERS, q)
        .unwrap();
    assert_eq!(reply.i32_at(0).unwrap(), 1);
    assert_eq!(reply.i32_at(1).unwrap(), app.0 as i32);

    // After disconnect, no sessions remain.
    tb.driver
        .transact(app, cam, svc_codes::DISCONNECT, Parcel::new())
        .unwrap();
    let mut q = Parcel::new();
    q.push_i32(vd.container.0 as i32);
    let reply = tb
        .driver
        .transact(dev_pid, cam_from_dev, svc_codes::QUERY_USERS, q)
        .unwrap();
    assert_eq!(reply.i32_at(0).unwrap(), 0);
}

#[test]
fn table_1_services_visible_in_every_vdrone() {
    let mut tb = boot(Rc::new(RefCell::new(AllowAll)));
    for id in [10, 11, 12] {
        let vd = boot_vdrone(&mut tb, id);
        let app = spawn_app(&mut tb, vd.container, Euid(10_110 + id));
        for name in svc_names::TABLE_1 {
            assert!(
                get_service(&mut tb.driver, app, name).is_ok(),
                "{name} missing in vdrone {id}"
            );
        }
    }
}
