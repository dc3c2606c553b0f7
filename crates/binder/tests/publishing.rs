//! End-to-end tests of the paper's Figure 6 flows: device-container
//! service publishing (`PUBLISH_TO_ALL_NS`) and per-container
//! ActivityManager forwarding (`PUBLISH_TO_DEV_CON`).

use std::cell::RefCell;
use std::rc::Rc;

use androne_binder::{
    add_service, get_service, scoped_service_name, sm_codes, BinderDriver, BinderError,
    BinderService, Parcel, ServiceManager, TransactionContext, ACTIVITY_MANAGER,
};
use androne_container::DeviceNamespaceId;
use androne_simkern::{ContainerId, Euid, Pid};

/// A stand-in device service that replies with its own tag and the
/// sender's container id.
struct TagService(&'static str);

impl BinderService for TagService {
    fn on_transact(
        &mut self,
        _code: u32,
        _data: &Parcel,
        ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        let mut reply = Parcel::new();
        reply.push_str(self.0);
        reply.push_i32(ctx.sender_container.0 as i32);
        Ok(reply)
    }
}

/// Test fixture: a board with a device container and helpers to add
/// virtual drone containers.
struct Board {
    driver: BinderDriver,
    dev_sm_pid: Pid,
    next_pid: u32,
    next_ctr: u32,
}

impl Board {
    fn new(shared: &[&str]) -> Self {
        let mut driver = BinderDriver::new();
        let dev_container = ContainerId(1);
        let dev_ns = DeviceNamespaceId(1);
        driver.set_device_container(dev_container, dev_ns);

        let dev_sm_pid = Pid(100);
        driver.open(dev_sm_pid, Euid(1000), dev_container, dev_ns);
        let sm =
            ServiceManager::new_device_container(dev_sm_pid, shared.iter().map(|s| s.to_string()));
        let sm_handle = driver
            .create_node(dev_sm_pid, Rc::new(RefCell::new(sm)))
            .unwrap();
        driver.set_context_manager(dev_sm_pid, sm_handle).unwrap();

        Board {
            driver,
            dev_sm_pid,
            next_pid: 200,
            next_ctr: 10,
        }
    }

    /// Boots a virtual drone container: opens a ServiceManager and
    /// registers it as the namespace's Context Manager.
    fn boot_vdrone(&mut self) -> (ContainerId, Pid) {
        let ctr = ContainerId(self.next_ctr);
        let ns = DeviceNamespaceId(self.next_ctr);
        self.next_ctr += 1;
        let sm_pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.driver.open(sm_pid, Euid(1000), ctr, ns);
        let sm = ServiceManager::new(sm_pid);
        let handle = self
            .driver
            .create_node(sm_pid, Rc::new(RefCell::new(sm)))
            .unwrap();
        self.driver.set_context_manager(sm_pid, handle).unwrap();
        (ctr, sm_pid)
    }

    /// Spawns an app process inside an existing container.
    fn spawn_app(&mut self, ctr: ContainerId) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.driver
            .open(pid, Euid(10_000 + pid.0), ctr, DeviceNamespaceId(ctr.0));
        pid
    }

    /// Registers a device service in the device container.
    fn register_device_service(&mut self, name: &str, tag: &'static str) {
        let svc_pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.driver
            .open(svc_pid, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
        let handle = self
            .driver
            .create_node(svc_pid, Rc::new(RefCell::new(TagService(tag))))
            .unwrap();
        add_service(&mut self.driver, svc_pid, name, handle).unwrap();
    }
}

#[test]
fn shared_service_is_published_to_existing_namespaces() {
    let mut board = Board::new(&["sensorservice"]);
    let (vd_ctr, _) = board.boot_vdrone();
    board.register_device_service("sensorservice", "sensors");

    // An app inside the virtual drone can resolve and call the
    // device container's service through its own ServiceManager.
    let app = board.spawn_app(vd_ctr);
    let handle = get_service(&mut board.driver, app, "sensorservice").unwrap();
    let reply = board
        .driver
        .transact(app, handle, 7, Parcel::new())
        .unwrap();
    assert_eq!(reply.str_at(0).unwrap(), "sensors");
    assert_eq!(
        reply.i32_at(1).unwrap(),
        vd_ctr.0 as i32,
        "device service sees the calling container id"
    );
}

#[test]
fn shared_service_is_replayed_into_future_namespaces() {
    let mut board = Board::new(&["camera"]);
    board.register_device_service("camera", "camera");

    // The virtual drone boots *after* the service was published.
    let (vd_ctr, _) = board.boot_vdrone();
    let app = board.spawn_app(vd_ctr);
    let handle = get_service(&mut board.driver, app, "camera").unwrap();
    let reply = board
        .driver
        .transact(app, handle, 1, Parcel::new())
        .unwrap();
    assert_eq!(reply.str_at(0).unwrap(), "camera");
}

#[test]
fn non_shared_services_stay_private_to_the_device_container() {
    let mut board = Board::new(&["camera"]);
    board.register_device_service("surfaceflinger", "private");
    let (vd_ctr, _) = board.boot_vdrone();
    let app = board.spawn_app(vd_ctr);
    assert!(matches!(
        get_service(&mut board.driver, app, "surfaceflinger"),
        Err(BinderError::ServiceNotFound(_))
    ));
}

#[test]
fn vdrone_services_are_isolated_from_each_other() {
    let mut board = Board::new(&[]);
    let (ctr_a, _) = board.boot_vdrone();
    let (ctr_b, _) = board.boot_vdrone();

    // Container A registers a private service.
    let svc_pid = board.spawn_app(ctr_a);
    let handle = board
        .driver
        .create_node(svc_pid, Rc::new(RefCell::new(TagService("a-private"))))
        .unwrap();
    add_service(&mut board.driver, svc_pid, "a.service", handle).unwrap();

    // Visible inside A.
    let app_a = board.spawn_app(ctr_a);
    assert!(get_service(&mut board.driver, app_a, "a.service").is_ok());

    // Invisible inside B: each namespace has its own Context Manager.
    let app_b = board.spawn_app(ctr_b);
    assert!(matches!(
        get_service(&mut board.driver, app_b, "a.service"),
        Err(BinderError::ServiceNotFound(_))
    ));
}

#[test]
fn activity_manager_is_forwarded_to_device_container() {
    let mut board = Board::new(&[]);
    let (vd_ctr, _) = board.boot_vdrone();

    // The virtual drone's ActivityManager registers locally; its
    // ServiceManager forwards it via PUBLISH_TO_DEV_CON.
    let am_pid = board.spawn_app(vd_ctr);
    let am_handle = board
        .driver
        .create_node(am_pid, Rc::new(RefCell::new(TagService("vd-am"))))
        .unwrap();
    add_service(&mut board.driver, am_pid, ACTIVITY_MANAGER, am_handle).unwrap();

    // A device-container process can now resolve the *scoped* name.
    let scoped = scoped_service_name(ACTIVITY_MANAGER, vd_ctr);
    let handle = get_service(&mut board.driver, board.dev_sm_pid, &scoped).unwrap();
    let reply = board
        .driver
        .transact(board.dev_sm_pid, handle, 1, Parcel::new())
        .unwrap();
    assert_eq!(reply.str_at(0).unwrap(), "vd-am");
}

#[test]
fn publish_to_all_ns_is_restricted_to_the_device_container() {
    let mut board = Board::new(&[]);
    let (vd_ctr, _) = board.boot_vdrone();
    let evil = board.spawn_app(vd_ctr);
    let handle = board
        .driver
        .create_node(evil, Rc::new(RefCell::new(TagService("evil"))))
        .unwrap();
    assert!(matches!(
        board
            .driver
            .publish_to_all_ns(evil, "sensorservice", handle),
        Err(BinderError::PermissionDenied(_))
    ));
}

#[test]
fn second_context_manager_in_a_namespace_is_rejected() {
    let mut board = Board::new(&[]);
    let (vd_ctr, _) = board.boot_vdrone();
    let usurper = board.spawn_app(vd_ctr);
    let handle = board
        .driver
        .create_node(usurper, Rc::new(RefCell::new(TagService("fake-sm"))))
        .unwrap();
    assert_eq!(
        board.driver.set_context_manager(usurper, handle),
        Err(BinderError::ContextManagerExists)
    );
}

#[test]
fn list_services_reflects_publishing() {
    let mut board = Board::new(&["gps", "camera"]);
    board.register_device_service("gps", "gps");
    let (vd_ctr, _) = board.boot_vdrone();
    board.register_device_service("camera", "camera");

    let app = board.spawn_app(vd_ctr);
    let reply = board
        .driver
        .transact(app, 0, sm_codes::LIST_SERVICES, Parcel::new())
        .unwrap();
    let n = reply.i32_at(0).unwrap() as usize;
    let names: Vec<&str> = (0..n).map(|i| reply.str_at(1 + i).unwrap()).collect();
    assert!(names.contains(&"gps"), "replayed service listed: {names:?}");
    assert!(
        names.contains(&"camera"),
        "published service listed: {names:?}"
    );
}
