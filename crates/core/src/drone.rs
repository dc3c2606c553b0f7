//! One physical AnDrone drone: the assembled onboard stack.
//!
//! Boots everything Figure 3's drone side shows: the kernel, the
//! container runtime with the device and flight containers, the
//! Binder driver with the device container's published services, the
//! hardware board, the SITL vehicle, MAVProxy, and the VDC.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use androne_android::{
    boot_android_instance, AndroidInstance, AppRegistry, DeviceClass, NativeHalBridge,
    SystemServerConfig,
};
use androne_binder::BinderDriver;
use androne_container::{
    ContainerArchive, ContainerCheckpoint, ContainerError, ContainerKind, ContainerRuntime, Layer,
    ResourceLimits,
};
use androne_flight::{CommandWhitelist, Geofence, MavProxy, Sitl, Vfc};
use androne_hal::{share, GeoPoint, HardwareBoard, SharedBoard};
use androne_obs::ObsHandle;
use androne_planner::PILOT_CLIENT;
use androne_sdk::AndroneSdk;
use androne_simkern::{ContainerId, Euid, Kernel, KernelConfig, SchedPolicy, SharedKernel};
use androne_vdc::{AccessTable, Vdc, VirtualDroneSpec};

/// The image tag the Android Things base is registered under.
pub const ANDROID_THINGS_IMAGE: &str = "android-things:1.0.3";
/// The image tag of the real-time Linux flight image.
pub const FLIGHT_IMAGE: &str = "alpine-flight:3.7";

/// Errors from drone assembly and virtual drone deployment.
#[derive(Debug)]
pub enum DroneError {
    /// Container runtime failure (includes OOM).
    Container(ContainerError),
    /// Android instance boot failure.
    Boot(androne_android::BootError),
    /// The referenced virtual drone is unknown.
    UnknownVirtualDrone(String),
    /// The spec failed validation.
    Spec(androne_vdc::SpecError),
    /// An assembly-sequence invariant did not hold (e.g. a container
    /// the previous boot step just created is missing). Indicates a
    /// bug in the boot sequence itself, but surfaces as an error so a
    /// misbehaving board scraps one flight instead of the fleet.
    BootInvariant(&'static str),
}

impl std::fmt::Display for DroneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DroneError::Container(e) => write!(f, "container error: {e}"),
            DroneError::Boot(e) => write!(f, "android boot error: {e}"),
            DroneError::UnknownVirtualDrone(n) => write!(f, "unknown virtual drone '{n}'"),
            DroneError::Spec(e) => write!(f, "bad virtual drone spec: {e}"),
            DroneError::BootInvariant(what) => {
                write!(f, "boot sequence invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for DroneError {}

impl From<ContainerError> for DroneError {
    fn from(e: ContainerError) -> Self {
        DroneError::Container(e)
    }
}

impl From<androne_android::BootError> for DroneError {
    fn from(e: androne_android::BootError) -> Self {
        DroneError::Boot(e)
    }
}

/// A deployed virtual drone's onboard state.
pub struct DeployedVdrone {
    /// Container name (equals the virtual drone name).
    pub name: String,
    /// Kernel container id.
    pub container: ContainerId,
    /// The Android instance inside.
    pub instance: AndroidInstance,
    /// Installed apps.
    pub apps: AppRegistry,
    /// The SDK endpoint apps in this virtual drone use.
    pub sdk: AndroneSdk,
}

/// One physical drone with the full AnDrone onboard stack.
pub struct Drone {
    /// The shared kernel.
    pub kernel: SharedKernel,
    /// Container runtime.
    pub runtime: ContainerRuntime,
    /// Binder driver.
    pub driver: BinderDriver,
    /// The hardware board.
    pub board: SharedBoard,
    /// The SITL vehicle (physics + flight controller).
    pub sitl: Sitl,
    /// The MAVProxy multiplexer in the flight container.
    pub proxy: MavProxy,
    /// The VDC daemon.
    pub vdc: Rc<RefCell<Vdc>>,
    /// The device container's Android instance.
    pub device_instance: AndroidInstance,
    /// The flight container's native Binder bridge to the device
    /// container's GPS/sensors (paper Section 4.3).
    pub hal_bridge: NativeHalBridge,
    /// Deployed virtual drones by name.
    pub vdrones: BTreeMap<String, DeployedVdrone>,
    /// Checkpoints of crashed virtual drone containers awaiting a
    /// supervised restart, by name.
    pub pending_restarts: BTreeMap<String, ContainerCheckpoint>,
    /// Whether the flight controller runs on separate hardware (the
    /// paper's mitigation for kernel-crash risk, Section 4.3).
    pub flight_on_separate_hardware: bool,
    /// The shared observability handle; clones of it live in the
    /// Binder driver, MAVProxy, and the VDC.
    pub obs: ObsHandle,
    /// Set by [`Drone::inject_kernel_panic`].
    host_crashed: bool,
    home: GeoPoint,
}

impl Drone {
    /// Boots a full drone at `home` with AnDrone's default
    /// (PREEMPT_RT) kernel.
    pub fn boot(home: GeoPoint, seed: u64) -> Result<Self, DroneError> {
        Self::boot_with_config(home, seed, KernelConfig::ANDRONE_DEFAULT)
    }

    /// Boots with an explicit kernel configuration.
    pub fn boot_with_config(
        home: GeoPoint,
        seed: u64,
        config: KernelConfig,
    ) -> Result<Self, DroneError> {
        let kernel = Kernel::boot_shared(config, seed);
        let mut runtime = ContainerRuntime::new(kernel.clone())?;
        // One shared observability state for the whole drone; created
        // first so even boot-time Binder traffic is traced at t=0.
        let obs = ObsHandle::attached();

        // Register the shared base images.
        let android_base = Layer::from_files([
            (
                "/system/build.prop",
                "ro.build.version=android-things-1.0.3",
            ),
            ("/system/framework/framework.jar", "framework"),
            (
                "/init.rc",
                "service servicemanager /system/bin/servicemanager",
            ),
        ]);
        let android_id = runtime.images_mut().put_layer(android_base);
        runtime
            .images_mut()
            .tag(ANDROID_THINGS_IMAGE, vec![android_id])?;
        let flight_base = Layer::from_files([
            ("/etc/alpine-release", "3.7.0"),
            ("/usr/bin/arducopter", "ardupilot-3.4.4"),
            ("/usr/bin/mavproxy", "mavproxy"),
        ]);
        let flight_id = runtime.images_mut().put_layer(flight_base);
        runtime.images_mut().tag(FLIGHT_IMAGE, vec![flight_id])?;

        // Hardware: the device container claims every device.
        let mut hw = HardwareBoard::new(home, seed.wrapping_add(1));
        hw.claim_all("device-container")
            .map_err(|_| DroneError::BootInvariant("fresh board has no claims"))?;
        let board = share(hw);

        // Device container.
        runtime.create(
            "device",
            ContainerKind::Device,
            ANDROID_THINGS_IMAGE,
            ResourceLimits::UNLIMITED,
        )?;
        runtime.start("device")?;
        let device_ctr = runtime
            .get("device")
            .ok_or(DroneError::BootInvariant("device container just created"))?;
        let device_id = device_ctr.id;
        let device_ns = device_ctr.namespaces.device_ns;

        // The VDC and its access table (the policy device services
        // consult).
        let access = Rc::new(RefCell::new(AccessTable::new()));
        access.borrow_mut().set_device_container(device_id);
        let vdc = Rc::new(RefCell::new(Vdc::new(access.clone())));
        vdc.borrow_mut().set_obs(obs.clone());

        let mut driver = BinderDriver::new();
        driver.set_obs(obs.clone());
        let device_instance = {
            let mut k = kernel.borrow_mut();
            boot_android_instance(
                &mut k,
                &mut driver,
                device_id,
                device_ns,
                &SystemServerConfig::device_container(),
                Some(board.clone()),
                access.clone(),
            )?
        };

        // The VDC's own Binder identity (a host daemon opened in the
        // device container's namespace for enforcement queries).
        let vdc_pid = {
            let mut k = kernel.borrow_mut();
            k.tasks
                .spawn("vdc", Euid(0), ContainerId::HOST, SchedPolicy::DEFAULT)
                .map_err(|_| DroneError::BootInvariant("spawn vdc daemon task"))?
        };
        driver.open(vdc_pid, Euid(0), ContainerId::HOST, device_ns);
        vdc.borrow_mut().set_binder_identity(vdc_pid);

        // Flight container: ArduPilot + MAVProxy.
        runtime.create(
            "flight",
            ContainerKind::Flight,
            FLIGHT_IMAGE,
            ResourceLimits::UNLIMITED,
        )?;
        runtime.start("flight")?;
        let flight_id = runtime
            .get("flight")
            .ok_or(DroneError::BootInvariant("flight container just created"))?
            .id;
        access.borrow_mut().set_flight_container(flight_id);
        {
            // The flight controller's fast loop runs at top FIFO
            // priority with locked memory.
            let mut k = kernel.borrow_mut();
            let pid = k
                .tasks
                .spawn("arducopter", Euid(0), flight_id, SchedPolicy::MAX_RT)
                .map_err(|_| DroneError::BootInvariant("spawn ardupilot task"))?;
            if let Some(t) = k.tasks.get_mut(pid) {
                t.mlocked = true;
            }
        }
        // The SITL vehicle flies on the SAME board the device
        // container's services sample: a camera frame captured at a
        // waypoint is geotagged where the drone actually is.
        let sitl = Sitl::with_board(board.clone(), home);
        let mut proxy = MavProxy::new();
        proxy.set_obs(obs.clone());
        proxy.add_unrestricted_client(PILOT_CLIENT);

        // The flight container's HAL bridge process: a native Binder
        // client in the *device container's namespace* (native Linux
        // has no ServiceManager of its own) tagged with the flight
        // container id so policy checks see the right caller.
        let bridge_pid = {
            let mut k = kernel.borrow_mut();
            k.tasks
                .spawn("hal-bridge", Euid(0), flight_id, SchedPolicy::DEFAULT)
                .map_err(|_| DroneError::BootInvariant("spawn hal bridge task"))?
        };
        driver.open(bridge_pid, Euid(0), flight_id, device_ns);
        let hal_bridge = NativeHalBridge::new(bridge_pid);

        Ok(Drone {
            kernel,
            runtime,
            driver,
            board,
            sitl,
            proxy,
            vdc,
            device_instance,
            hal_bridge,
            vdrones: BTreeMap::new(),
            pending_restarts: BTreeMap::new(),
            flight_on_separate_hardware: false,
            obs,
            host_crashed: false,
            home,
        })
    }

    /// The launch/home position.
    pub fn home(&self) -> GeoPoint {
        self.home
    }

    /// Deploys a virtual drone from its definition: creates and
    /// starts the container, boots its Android instance, installs its
    /// apps (granting their manifest permissions and recording the
    /// installs in the container image, so the diff travels to the
    /// VDR), registers it with the VDC, and attaches its VFC to
    /// MAVProxy.
    pub fn deploy_vdrone(
        &mut self,
        name: &str,
        spec: VirtualDroneSpec,
        manifests: &[androne_android::AndroneManifest],
    ) -> Result<(), DroneError> {
        spec.validate().map_err(DroneError::Spec)?;
        self.runtime.create(
            name,
            ContainerKind::VirtualDrone,
            ANDROID_THINGS_IMAGE,
            ResourceLimits::UNLIMITED,
        )?;
        self.boot_vdrone(name, spec, manifests)?;
        let ctr = self
            .runtime
            .get_mut(name)
            .ok_or(DroneError::BootInvariant("vdrone container exists"))?;
        for manifest in manifests {
            ctr.fs
                .write(format!("/data/app/{}.apk", manifest.package), "apk-bytes");
        }
        Ok(())
    }

    /// Resumes a stored virtual drone from a VDR archive. Boot
    /// proceeds exactly like a fresh deployment (containers are
    /// stateless; state lives in the filesystem + bundles), then the
    /// apps' saved state is restored.
    pub fn deploy_from_archive(
        &mut self,
        archive: &ContainerArchive,
        spec: VirtualDroneSpec,
        manifests: &[androne_android::AndroneManifest],
        app_state: &str,
    ) -> Result<(), DroneError> {
        self.runtime
            .create_from_archive(archive, ResourceLimits::UNLIMITED)?;
        self.boot_vdrone(&archive.name, spec, manifests)?
            .apps
            .deserialize_saved_state(app_state);
        Ok(())
    }

    /// The deployment steps shared by a fresh and a resumed virtual
    /// drone: starts its created container, boots its Android
    /// instance, installs its apps (granting their manifest
    /// permissions), registers it with the VDC, and attaches its VFC
    /// to MAVProxy.
    fn boot_vdrone(
        &mut self,
        name: &str,
        spec: VirtualDroneSpec,
        manifests: &[androne_android::AndroneManifest],
    ) -> Result<&mut DeployedVdrone, DroneError> {
        self.runtime.start(name)?;
        let ctr = self
            .runtime
            .get(name)
            .ok_or(DroneError::BootInvariant("vdrone container just created"))?;
        let container = ctr.id;
        let device_ns = ctr.namespaces.device_ns;

        let instance = {
            let mut k = self.kernel.borrow_mut();
            boot_android_instance(
                &mut k,
                &mut self.driver,
                container,
                device_ns,
                &SystemServerConfig::virtual_drone(),
                None,
                self.vdc.borrow().access(),
            )?
        };

        let mut apps = AppRegistry::new();
        for manifest in manifests {
            let euid = apps.install(manifest.clone());
            let mut am = instance.activity_manager.borrow_mut();
            am.register_app(&manifest.package, euid);
            for perm in &manifest.permissions {
                am.grant(&manifest.package, perm.device.android_permission());
            }
        }

        self.vdc
            .borrow_mut()
            .register(name, container, spec.clone());
        let first_wp = spec.waypoints[0];
        let fence = Geofence::new(first_wp.position(), first_wp.max_radius);
        let continuous_view = !spec.continuous_devices.is_empty();
        let whitelist = if spec.wants_flight_control() {
            CommandWhitelist::standard()
        } else {
            CommandWhitelist::guided_only()
        };
        self.proxy
            .add_vfc_client(Vfc::new(name, whitelist, fence, continuous_view));

        let sdk = AndroneSdk::new(self.vdc.clone(), name);
        Ok(self
            .vdrones
            .entry(name.to_string())
            .insert_entry(DeployedVdrone {
                name: name.to_string(),
                container,
                instance,
                apps,
                sdk,
            })
            .into_mut())
    }

    /// Stops a virtual drone and exports it for the VDR, returning
    /// `(archive, serialized app state)`.
    pub fn save_vdrone(&mut self, name: &str) -> Result<(ContainerArchive, String), DroneError> {
        let vd = self
            .vdrones
            .get_mut(name)
            .ok_or_else(|| DroneError::UnknownVirtualDrone(name.to_string()))?;
        // Deliver onSaveInstanceState to running apps (they persist
        // their bundles; here the registry already holds them).
        let app_state = vd.apps.serialize_saved_state();
        // Persist the bundles into the container image so the diff
        // is self-contained.
        self.runtime
            .get_mut(name)
            .ok_or(DroneError::BootInvariant("saved vdrone container exists"))?
            .fs
            .write("/data/system/androne_saved_state", app_state.clone());
        self.runtime.stop(name)?;
        let archive = self.runtime.export(name)?;
        self.runtime.remove(name)?;
        self.proxy.remove_client(name);
        self.vdc.borrow_mut().unregister(name);
        self.vdrones.remove(name);
        Ok((archive, app_state))
    }

    /// Whether a container may control the flight right now (the
    /// flight container's query to the VDC).
    pub fn flight_control_allowed(&self, name: &str) -> bool {
        self.vdrones
            .get(name)
            .map(|vd| self.vdc.borrow().flight_control_allowed(vd.container))
            .unwrap_or(false)
    }

    /// The VDC enforces revocation for `name` (terminate lingering
    /// device users). Returns terminated pids.
    pub fn enforce_revocation(&mut self, name: &str) -> Vec<androne_simkern::Pid> {
        let mut kernel = self.kernel.borrow_mut();
        self.vdc
            .borrow_mut()
            .enforce_revocation(&mut self.driver, &mut kernel, name)
    }

    /// Total board memory in use (Figure 12's metric).
    pub fn memory_used(&self) -> u64 {
        self.runtime.total_memory_used()
    }

    /// Device access check for a virtual drone (diagnostics).
    pub fn allows(&self, name: &str, device: DeviceClass) -> bool {
        self.vdc.borrow().allows(name, device)
    }

    /// Delivers pending VDC events to every virtual drone's SDK
    /// listeners (each Android instance would dispatch these on its
    /// app loopers; the flight loop calls this once per second).
    pub fn pump_sdk_events(&mut self) {
        for vd in self.vdrones.values_mut() {
            vd.sdk.pump_events();
        }
    }

    /// Crashes one virtual drone's container (an injected fault or a
    /// misbehaving guest): the container is checkpointed at the
    /// instant of the crash, then every task in it dies and the
    /// container stops. The VDC record — allotment, waypoints,
    /// pending events — stays registered so a supervised restart
    /// resumes exactly where the crash interrupted.
    pub fn crash_vdrone(&mut self, name: &str) -> Result<(), DroneError> {
        let container = self
            .vdrones
            .get(name)
            .map(|vd| vd.container)
            .ok_or_else(|| DroneError::UnknownVirtualDrone(name.to_string()))?;
        let checkpoint = {
            let k = self.kernel.borrow();
            self.runtime.checkpoint(name, &k)?
        };
        let pids: Vec<androne_simkern::Pid> = {
            let k = self.kernel.borrow();
            k.tasks.in_container(container).map(|t| t.pid).collect()
        };
        self.runtime.stop(name)?;
        for pid in pids {
            self.driver.kill_process(pid);
        }
        self.pending_restarts.insert(name.to_string(), checkpoint);
        Ok(())
    }

    /// Supervised restart of a crashed virtual drone: removes the
    /// dead container, restores the checkpoint (the restored
    /// container gets a fresh id), and rebinds the VDC record and
    /// access-table entry to it, preserving the allotment state and
    /// flight phase. Apps keep their SDK endpoint; the Binder
    /// identities of the crashed processes stay dead (their restored
    /// tasks re-register on demand, as after a real restore).
    pub fn supervised_restart_vdrone(&mut self, name: &str) -> Result<(), DroneError> {
        let checkpoint = self
            .pending_restarts
            .remove(name)
            .ok_or_else(|| DroneError::UnknownVirtualDrone(name.to_string()))?;
        self.runtime.remove(name)?;
        let new_id = self
            .runtime
            .restore(&checkpoint, ResourceLimits::UNLIMITED)?;
        self.vdc.borrow_mut().rebind_container(name, new_id);
        if let Some(vd) = self.vdrones.get_mut(name) {
            vd.container = new_id;
        }
        Ok(())
    }

    /// Simulates a host kernel crash (a kernel-level fault or an
    /// intentional crash from a hostile tenant, paper Section 4.3).
    /// Every container dies and Binder goes with them. If the flight
    /// controller shares the crashed hardware, its fast loop stops
    /// and the motors cut; on separate hardware
    /// ([`Drone::flight_on_separate_hardware`]) the flight continues
    /// and can return to base.
    pub fn inject_kernel_panic(&mut self) {
        self.host_crashed = true;
        let pids: Vec<androne_simkern::Pid> = {
            let k = self.kernel.borrow();
            k.tasks.live().map(|t| t.pid).collect()
        };
        {
            let mut k = self.kernel.borrow_mut();
            for pid in &pids {
                let _ = k.tasks.kill(*pid);
            }
            k.tasks.reap();
        }
        for pid in pids {
            self.driver.kill_process(pid);
        }
        if !self.flight_on_separate_hardware {
            // The flight controller's fast loop dies with the kernel:
            // motors stop producing thrust.
            self.sitl.fc.handle_message(
                &androne_mavlink::Message::CommandLong {
                    command: androne_mavlink::MavCmd::ComponentArmDisarm,
                    params: [0.0, 21196.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                },
                &self.sitl.estimator.state(),
            );
        }
    }

    /// Whether the host kernel has crashed.
    pub fn host_crashed(&self) -> bool {
        self.host_crashed
    }

    /// Captures a frame into every open camera stream whose owner
    /// still has camera access (streams of revoked containers are
    /// closed). The flight loop calls this once per second; callers
    /// forwarding live video can pump at frame rate.
    pub fn pump_camera_streams(&mut self) {
        if let Some(cam) = &self.device_instance.camera_service {
            cam.borrow_mut().pump_frames();
        }
    }

    /// Per-component state hashes for the determinism sanitizer, in a
    /// fixed order. Each entry is `(component name, FNV-1a hash of
    /// its full sim state)`; two runs under the same seed must
    /// produce identical vectors at every observation point.
    pub fn component_hashes(&self) -> [(&'static str, u64); 5] {
        use androne_simkern::StateHash;
        [
            ("kernel", self.kernel.borrow().hash_value()),
            ("binder", self.driver.hash_value()),
            ("sitl", self.sitl.hash_value()),
            ("proxy", self.proxy.hash_value()),
            ("vdc", self.vdc.borrow().hash_value()),
        ]
    }
}
