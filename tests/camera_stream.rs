//! Live camera streaming through a Binder fd: the feed flows while
//! the virtual drone holds its waypoint and stops — stream closed by
//! the device container — the moment camera access is revoked.

use androne::android::read_stream_frames;
use androne::android::{svc_codes, svc_names, AndroneManifest};
use androne::binder::{get_service, Parcel};
use androne::container::DeviceNamespaceId;
use androne::hal::GeoPoint;
use androne::simkern::SchedPolicy;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

const MANIFEST: &str = r#"<androne-manifest package="com.example.stream">
    <uses-permission name="camera" type="waypoint"/>
</androne-manifest>"#;

#[test]
fn stream_flows_at_waypoint_and_is_cut_on_revocation() {
    let mut drone = Drone::boot(BASE, 91).unwrap();
    let manifest = AndroneManifest::parse(MANIFEST).unwrap();
    drone
        .deploy_vdrone(
            "vd1",
            VirtualDroneSpec {
                waypoints: vec![WaypointSpec {
                    latitude: BASE.latitude,
                    longitude: BASE.longitude,
                    altitude: 15.0,
                    max_radius: 30.0,
                }],
                max_duration: 120.0,
                energy_allotted: 40_000.0,
                continuous_devices: vec![],
                waypoint_devices: vec!["camera".into()],
                apps: vec![],
                app_args: Default::default(),
            },
            &[manifest],
        )
        .unwrap();
    let vd = drone.vdrones.get("vd1").unwrap();
    let container = vd.container;
    let euid = vd.apps.get("com.example.stream").unwrap().euid;
    let app = {
        let mut k = drone.kernel.borrow_mut();
        k.tasks
            .spawn("stream-app", euid, container, SchedPolicy::DEFAULT)
            .unwrap()
    };
    drone
        .driver
        .open(app, euid, container, DeviceNamespaceId(container.0));

    // At the waypoint: open a stream fd.
    drone.vdc.borrow_mut().on_waypoint_arrived("vd1", 0);
    let cam = get_service(&mut drone.driver, app, svc_names::CAMERA).unwrap();
    let reply = drone
        .driver
        .transact(app, cam, svc_codes::OP2, Parcel::new())
        .unwrap();
    let fd = reply.fd_at(0).unwrap();

    // The device container pumps frames (1 per pump) while access
    // holds.
    for _ in 0..5 {
        drone.pump_camera_streams();
    }
    let frames = read_stream_frames(&drone.driver, app, fd).unwrap();
    assert_eq!(frames.len(), 6, "1 priming + 5 pumped frames");
    assert_eq!(
        drone
            .device_instance
            .camera_service
            .as_ref()
            .unwrap()
            .borrow()
            .open_stream_count(),
        1
    );

    // Departure revokes camera access: the stream is closed and no
    // more frames arrive.
    drone.vdc.borrow_mut().on_waypoint_departed("vd1", 0);
    for _ in 0..5 {
        drone.pump_camera_streams();
    }
    let frames = read_stream_frames(&drone.driver, app, fd).unwrap();
    assert!(frames.is_empty(), "feed cut after revocation: {frames:?}");
    assert_eq!(
        drone
            .device_instance
            .camera_service
            .as_ref()
            .unwrap()
            .borrow()
            .open_stream_count(),
        0,
        "stream closed by the device container"
    );
}

#[test]
fn streams_of_different_tenants_are_independent() {
    let mut drone = Drone::boot(BASE, 92).unwrap();
    let manifest = AndroneManifest::parse(MANIFEST).unwrap();
    for name in ["vd-a", "vd-b"] {
        drone
            .deploy_vdrone(
                name,
                VirtualDroneSpec {
                    waypoints: vec![WaypointSpec {
                        latitude: BASE.latitude,
                        longitude: BASE.longitude,
                        altitude: 15.0,
                        max_radius: 30.0,
                    }],
                    max_duration: 120.0,
                    energy_allotted: 40_000.0,
                    continuous_devices: vec![],
                    waypoint_devices: vec!["camera".into()],
                    apps: vec![],
                    app_args: Default::default(),
                },
                std::slice::from_ref(&manifest),
            )
            .unwrap();
    }
    let open_stream = |drone: &mut Drone, name: &str| -> (androne::simkern::Pid, u32) {
        let vd = drone.vdrones.get(name).unwrap();
        let container = vd.container;
        let euid = vd.apps.get("com.example.stream").unwrap().euid;
        let app = {
            let mut k = drone.kernel.borrow_mut();
            k.tasks
                .spawn("app", euid, container, SchedPolicy::DEFAULT)
                .unwrap()
        };
        drone
            .driver
            .open(app, euid, container, DeviceNamespaceId(container.0));
        drone.vdc.borrow_mut().on_waypoint_arrived(name, 0);
        let cam = get_service(&mut drone.driver, app, svc_names::CAMERA).unwrap();
        let reply = drone
            .driver
            .transact(app, cam, svc_codes::OP2, Parcel::new())
            .unwrap();
        (app, reply.fd_at(0).unwrap())
    };
    let (app_a, fd_a) = open_stream(&mut drone, "vd-a");
    let (app_b, fd_b) = open_stream(&mut drone, "vd-b");

    drone.pump_camera_streams();
    // Revoke only vd-a.
    drone.vdc.borrow_mut().on_waypoint_departed("vd-a", 0);
    drone.pump_camera_streams();

    let a = read_stream_frames(&drone.driver, app_a, fd_a).unwrap();
    let b = read_stream_frames(&drone.driver, app_b, fd_b).unwrap();
    assert_eq!(a.len(), 2, "priming + one pump before revocation");
    assert_eq!(b.len(), 3, "vd-b keeps streaming");
}
