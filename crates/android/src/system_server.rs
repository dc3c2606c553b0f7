//! SystemServer: booting Android instances.
//!
//! Boots the userspace side of an Android Things instance inside a
//! container: the ServiceManager (registered as the namespace's
//! Context Manager), the ActivityManager, and — in the device
//! container only — the Table 1 device services against real
//! hardware. Virtual drone containers have those services disabled
//! ("by modifying init files and Android's SystemServer", paper
//! Section 4.2).

use std::cell::RefCell;
use std::rc::Rc;

use androne_binder::{add_service, BinderDriver, BinderError, ServiceManager, ACTIVITY_MANAGER};
use androne_container::DeviceNamespaceId;
use androne_hal::SharedBoard;
use androne_simkern::{ContainerId, Euid, Kernel, Pid, SchedPolicy};

use crate::activity_manager::ActivityManager;
use crate::policy::PolicyRef;
use crate::services::{names, AudioFlinger, CameraService, LocationManagerService, SensorService};

/// A booted Android instance's handles.
pub struct AndroidInstance {
    /// The container this instance runs in.
    pub container: ContainerId,
    /// Its device namespace.
    pub device_ns: DeviceNamespaceId,
    /// The ServiceManager process.
    pub sm_pid: Pid,
    /// The SystemServer process (also hosts the ActivityManager).
    pub system_server_pid: Pid,
    /// Direct handle to the ActivityManager state (how root-side
    /// tooling like the VDC installs apps and grants permissions).
    pub activity_manager: Rc<RefCell<ActivityManager>>,
    /// Device-service pids, if this is the device container.
    pub service_pids: Vec<Pid>,
    /// Typed handle to the CameraService (device container only);
    /// the host pumps open frame streams through it.
    pub camera_service: Option<Rc<RefCell<CameraService>>>,
}

/// Boot configuration.
pub struct SystemServerConfig {
    /// Run the Table 1 device services against hardware (device
    /// container only).
    pub run_device_services: bool,
}

impl SystemServerConfig {
    /// Virtual drone configuration: device services disabled.
    pub fn virtual_drone() -> Self {
        SystemServerConfig {
            run_device_services: false,
        }
    }

    /// Device container configuration.
    pub fn device_container() -> Self {
        SystemServerConfig {
            run_device_services: true,
        }
    }
}

/// Errors from booting an instance.
#[derive(Debug)]
pub enum BootError {
    /// Task spawn failure.
    Kernel(androne_simkern::KernelError),
    /// Binder setup failure.
    Binder(BinderError),
    /// A device-container boot was requested without a hardware board.
    MissingBoard,
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Kernel(e) => write!(f, "boot failed: {e}"),
            BootError::Binder(e) => write!(f, "boot failed: {e}"),
            BootError::MissingBoard => {
                write!(f, "boot failed: device container requires a hardware board")
            }
        }
    }
}

impl std::error::Error for BootError {}

impl From<androne_simkern::KernelError> for BootError {
    fn from(e: androne_simkern::KernelError) -> Self {
        BootError::Kernel(e)
    }
}

impl From<BinderError> for BootError {
    fn from(e: BinderError) -> Self {
        BootError::Binder(e)
    }
}

/// Boots an Android instance inside `container`.
///
/// For the device container (`config.run_device_services`), `board`
/// and `policy` wire the Table 1 services to hardware and to the VDC.
pub fn boot_android_instance(
    kernel: &mut Kernel,
    driver: &mut BinderDriver,
    container: ContainerId,
    device_ns: DeviceNamespaceId,
    config: &SystemServerConfig,
    board: Option<SharedBoard>,
    policy: PolicyRef,
) -> Result<AndroidInstance, BootError> {
    // servicemanager process.
    let sm_pid = kernel.tasks.spawn(
        "servicemanager",
        Euid(1000),
        container,
        SchedPolicy::DEFAULT,
    )?;
    driver.open(sm_pid, Euid(1000), container, device_ns);
    let sm = if config.run_device_services {
        driver.set_device_container(container, device_ns);
        ServiceManager::new_device_container(sm_pid, names::TABLE_1.iter().map(|s| s.to_string()))
    } else {
        ServiceManager::new(sm_pid)
    };
    let sm_handle = driver.create_node(sm_pid, Rc::new(RefCell::new(sm)))?;
    driver.set_context_manager(sm_pid, sm_handle)?;

    // system_server process hosting the ActivityManager.
    let system_server_pid =
        kernel
            .tasks
            .spawn("system_server", Euid(1000), container, SchedPolicy::DEFAULT)?;
    driver.open(system_server_pid, Euid(1000), container, device_ns);
    let am = Rc::new(RefCell::new(ActivityManager::new()));
    let am_handle = driver.create_node(system_server_pid, am.clone())?;
    // Registering "activity" triggers PUBLISH_TO_DEV_CON in
    // non-device containers.
    add_service(driver, system_server_pid, ACTIVITY_MANAGER, am_handle)?;

    // Device services (device container only).
    let mut service_pids = Vec::new();
    let mut camera_service = None;
    if config.run_device_services {
        let board = board.ok_or(BootError::MissingBoard)?;
        fn start(
            kernel: &mut Kernel,
            driver: &mut BinderDriver,
            container: ContainerId,
            device_ns: DeviceNamespaceId,
            name: &str,
        ) -> Result<Pid, BootError> {
            let pid = kernel.tasks.spawn(
                name.to_string(),
                Euid(1000),
                container,
                SchedPolicy::DEFAULT,
            )?;
            driver.open(pid, Euid(1000), container, device_ns);
            Ok(pid)
        }
        let cam_pid = start(kernel, driver, container, device_ns, names::CAMERA)?;
        let cam = Rc::new(RefCell::new(CameraService::new(
            cam_pid,
            board.clone(),
            policy.clone(),
        )));
        camera_service = Some(cam.clone());
        let h = driver.create_node(cam_pid, cam)?;
        add_service(driver, cam_pid, names::CAMERA, h)?;
        service_pids.push(cam_pid);

        let loc_pid = start(kernel, driver, container, device_ns, names::LOCATION)?;
        let loc = LocationManagerService::new(loc_pid, board.clone(), policy.clone());
        let h = driver.create_node(loc_pid, Rc::new(RefCell::new(loc)))?;
        add_service(driver, loc_pid, names::LOCATION, h)?;
        service_pids.push(loc_pid);

        let sen_pid = start(kernel, driver, container, device_ns, names::SENSORS)?;
        let sen = SensorService::new(sen_pid, board.clone(), policy.clone());
        let h = driver.create_node(sen_pid, Rc::new(RefCell::new(sen)))?;
        add_service(driver, sen_pid, names::SENSORS, h)?;
        service_pids.push(sen_pid);

        let aud_pid = start(kernel, driver, container, device_ns, names::AUDIO)?;
        let aud = AudioFlinger::new(aud_pid, board, policy);
        let h = driver.create_node(aud_pid, Rc::new(RefCell::new(aud)))?;
        add_service(driver, aud_pid, names::AUDIO, h)?;
        service_pids.push(aud_pid);
    }

    Ok(AndroidInstance {
        container,
        device_ns,
        sm_pid,
        system_server_pid,
        activity_manager: am,
        service_pids,
        camera_service,
    })
}
