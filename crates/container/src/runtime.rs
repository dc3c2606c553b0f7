//! The container runtime (Docker equivalent).
//!
//! Creates, starts, stops, commits, and archives containers against
//! the shared simulated kernel. Memory is charged atomically at start:
//! if the board cannot fit another virtual drone the start fails with
//! OOM and running containers are untouched (paper Section 6.3: "a
//! fourth virtual drone fails due to lack of memory but does not
//! interfere with other virtual drones already running").

use std::collections::BTreeMap;

use androne_simkern::{ContainerId, Euid, Pid, SchedPolicy, SharedKernel, MIB};

use crate::container::{Container, ContainerKind, ContainerState};
use crate::error::ContainerError;
use crate::fs::ContainerFs;
use crate::image::{ImageStore, Layer, LayerId};
use crate::limits::ResourceLimits;
use crate::namespace::{DeviceNamespaceId, NamespaceSet};

/// RAM used by the host OS plus the VDC daemon (Figure 12: "less than
/// 100 MB ... to run the VDC and host OS").
pub const HOST_BASE_MEMORY: u64 = 95 * MIB;

/// A fully self-contained container archive, as stored in the
/// cloud-side virtual drone repository (VDR).
///
/// Layers carry actual contents, so an archive can be reinstated on
/// any drone (or non-drone) hardware with a matching base.
#[derive(Debug, Clone)]
pub struct ContainerArchive {
    /// Container name at export time.
    pub name: String,
    /// Architectural role.
    pub kind: ContainerKind,
    /// Ids of the shared read-only layers (present on any AnDrone
    /// drone; not shipped in the archive).
    pub base_stack: Vec<LayerId>,
    /// The private writable layer: everything this container changed.
    pub diff: Layer,
}

impl ContainerArchive {
    /// Bytes this archive costs to store offline (the diff only —
    /// base layers are shared).
    pub fn stored_bytes(&self) -> u64 {
        self.diff.size()
    }
}

/// The container runtime for one physical drone board.
pub struct ContainerRuntime {
    kernel: SharedKernel,
    images: ImageStore,
    containers: BTreeMap<String, Container>,
    next_id: u32,
}

impl ContainerRuntime {
    /// Creates a runtime on the given kernel, charging the host OS +
    /// VDC base memory.
    pub fn new(kernel: SharedKernel) -> Result<Self, ContainerError> {
        kernel
            .borrow_mut()
            .mem
            .allocate("host/base", HOST_BASE_MEMORY)?;
        Ok(ContainerRuntime {
            kernel,
            images: ImageStore::new(),
            containers: BTreeMap::new(),
            next_id: 1,
        })
    }

    /// The shared kernel handle.
    pub fn kernel(&self) -> &SharedKernel {
        &self.kernel
    }

    /// The image store.
    pub fn images(&self) -> &ImageStore {
        &self.images
    }

    /// Mutable access to the image store.
    pub fn images_mut(&mut self) -> &mut ImageStore {
        &mut self.images
    }

    /// Creates a container from a tagged image.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        kind: ContainerKind,
        image_tag: &str,
        limits: ResourceLimits,
    ) -> Result<ContainerId, ContainerError> {
        let name = name.into();
        if self.containers.contains_key(&name) {
            return Err(ContainerError::DuplicateName(name));
        }
        let image = self.images.image(image_tag)?;
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        let container = Container {
            id,
            name: name.clone(),
            kind,
            state: ContainerState::Created,
            fs: ContainerFs::mount(image),
            namespaces: NamespaceSet::private(id.0),
            limits,
            resident_bytes: 0,
        };
        self.containers.insert(name, container);
        Ok(id)
    }

    /// Creates a container and pre-populates its writable layer
    /// (resuming a stored virtual drone from the VDR).
    pub fn create_from_archive(
        &mut self,
        archive: &ContainerArchive,
        limits: ResourceLimits,
    ) -> Result<ContainerId, ContainerError> {
        if self.containers.contains_key(&archive.name) {
            return Err(ContainerError::DuplicateName(archive.name.clone()));
        }
        let mut image = crate::image::Image::new();
        for layer_id in &archive.base_stack {
            // Reconstruct the base from locally present shared layers.
            let img = self.images.image_for_layer(*layer_id)?;
            image.push_layer(img);
        }
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        let container = Container {
            id,
            name: archive.name.clone(),
            kind: archive.kind,
            state: ContainerState::Created,
            fs: ContainerFs::mount_with_upper(image, archive.diff.clone()),
            namespaces: NamespaceSet::private(id.0),
            limits,
            resident_bytes: 0,
        };
        self.containers.insert(archive.name.clone(), container);
        Ok(id)
    }

    fn get_checked(&self, name: &str) -> Result<&Container, ContainerError> {
        self.containers
            .get(name)
            .ok_or_else(|| ContainerError::UnknownContainer(name.to_string()))
    }

    fn get_mut_checked(&mut self, name: &str) -> Result<&mut Container, ContainerError> {
        self.containers
            .get_mut(name)
            .ok_or_else(|| ContainerError::UnknownContainer(name.to_string()))
    }

    /// Starts a container: charges its boot memory atomically and
    /// spawns its init task.
    pub fn start(&mut self, name: &str) -> Result<(), ContainerError> {
        let kernel = self.kernel.clone();
        let container = self.get_mut_checked(name)?;
        if container.state != ContainerState::Created && container.state != ContainerState::Stopped
        {
            return Err(ContainerError::InvalidState {
                container: name.to_string(),
                state: container.state,
                op: "start",
            });
        }
        let bytes = container.kind.boot_memory();
        if !container.limits.permits_memory(0, bytes) {
            return Err(ContainerError::LimitExceeded(format!(
                "memory limit below boot footprint for '{name}'"
            )));
        }
        let owner = container.mem_owner();
        {
            let mut k = kernel.borrow_mut();
            // Atomic: allocation either fully succeeds or fails
            // without touching other containers.
            k.mem.allocate(owner, bytes)?;
            k.tasks
                .spawn(
                    format!("{name}/init"),
                    Euid(0),
                    container.id,
                    SchedPolicy::DEFAULT,
                )
                .map_err(ContainerError::Kernel)?;
        }
        container.resident_bytes = bytes;
        container.state = ContainerState::Running;
        Ok(())
    }

    /// Stops a container: kills its tasks and releases its memory.
    pub fn stop(&mut self, name: &str) -> Result<(), ContainerError> {
        let kernel = self.kernel.clone();
        let container = self.get_mut_checked(name)?;
        if container.state != ContainerState::Running {
            return Err(ContainerError::InvalidState {
                container: name.to_string(),
                state: container.state,
                op: "stop",
            });
        }
        {
            let mut k = kernel.borrow_mut();
            k.tasks.kill_container(container.id);
            k.tasks.reap();
            k.mem.release_owner(&container.mem_owner().into());
        }
        container.resident_bytes = 0;
        container.state = ContainerState::Stopped;
        Ok(())
    }

    /// Removes a stopped (or never-started) container entirely.
    pub fn remove(&mut self, name: &str) -> Result<(), ContainerError> {
        let state = self.get_checked(name)?.state;
        if state == ContainerState::Running {
            return Err(ContainerError::InvalidState {
                container: name.to_string(),
                state,
                op: "remove",
            });
        }
        self.containers.remove(name);
        Ok(())
    }

    /// Spawns a task inside a running container.
    pub fn spawn_task(
        &mut self,
        name: &str,
        task_name: impl Into<String>,
        euid: Euid,
        policy: SchedPolicy,
    ) -> Result<Pid, ContainerError> {
        let kernel = self.kernel.clone();
        let container = self.get_checked(name)?;
        if container.state != ContainerState::Running {
            return Err(ContainerError::InvalidState {
                container: name.to_string(),
                state: container.state,
                op: "spawn task",
            });
        }
        let pid = kernel
            .borrow_mut()
            .tasks
            .spawn(task_name, euid, container.id, policy)
            .map_err(ContainerError::Kernel)?;
        Ok(pid)
    }

    /// Commits a container's writable layer into the image store,
    /// returning the new layer id.
    pub fn commit(&mut self, name: &str) -> Result<LayerId, ContainerError> {
        let diff = self.get_checked(name)?.fs.diff().clone();
        Ok(self.images.put_layer(diff))
    }

    /// Exports a container as a self-contained archive for the VDR.
    pub fn export(&self, name: &str) -> Result<ContainerArchive, ContainerError> {
        let container = self.get_checked(name)?;
        let base_stack = container.fs.image_layers().iter().map(|l| l.id()).collect();
        Ok(ContainerArchive {
            name: container.name.clone(),
            kind: container.kind,
            base_stack,
            diff: container.fs.diff().clone(),
        })
    }

    /// Borrows a container by name.
    pub fn get(&self, name: &str) -> Option<&Container> {
        self.containers.get(name)
    }

    /// Mutably borrows a container by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Container> {
        self.containers.get_mut(name)
    }

    /// Finds a container by kernel id.
    pub fn by_id(&self, id: ContainerId) -> Option<&Container> {
        self.containers.values().find(|c| c.id == id)
    }

    /// The device namespace of a container, by kernel id.
    pub fn device_ns(&self, id: ContainerId) -> Option<DeviceNamespaceId> {
        self.by_id(id).map(|c| c.namespaces.device_ns)
    }

    /// Iterates all containers.
    pub fn list(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    /// Total board memory currently used (host base + containers).
    pub fn total_memory_used(&self) -> u64 {
        self.kernel.borrow().mem.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_simkern::{Kernel, KernelConfig};

    fn runtime() -> ContainerRuntime {
        let kernel = Kernel::boot_shared(KernelConfig::ANDRONE_DEFAULT, 1);
        let mut rt = ContainerRuntime::new(kernel).unwrap();
        let base = Layer::from_files([("/system/build.prop", "android-things")]);
        let id = rt.images_mut().put_layer(base);
        rt.images_mut().tag("android-things", vec![id]).unwrap();
        rt
    }

    #[test]
    fn base_memory_charged_at_runtime_creation() {
        let rt = runtime();
        assert_eq!(rt.total_memory_used(), HOST_BASE_MEMORY);
    }

    #[test]
    fn lifecycle_create_start_stop_remove() {
        let mut rt = runtime();
        rt.create(
            "vd1",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        rt.start("vd1").unwrap();
        assert_eq!(rt.get("vd1").unwrap().state, ContainerState::Running);
        assert_eq!(
            rt.total_memory_used(),
            HOST_BASE_MEMORY + ContainerKind::VirtualDrone.boot_memory()
        );
        rt.stop("vd1").unwrap();
        assert_eq!(rt.total_memory_used(), HOST_BASE_MEMORY);
        rt.remove("vd1").unwrap();
        assert!(rt.get("vd1").is_none());
    }

    #[test]
    fn fourth_virtual_drone_ooms_without_disturbing_others() {
        let mut rt = runtime();
        // Start the device + flight containers and three virtual
        // drones, filling the 880 MB board (Figure 12).
        rt.create(
            "device",
            ContainerKind::Device,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        rt.create(
            "flight",
            ContainerKind::Flight,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        rt.start("device").unwrap();
        rt.start("flight").unwrap();
        for i in 1..=3 {
            rt.create(
                format!("vd{i}"),
                ContainerKind::VirtualDrone,
                "android-things",
                ResourceLimits::UNLIMITED,
            )
            .unwrap();
            rt.start(&format!("vd{i}")).unwrap();
        }
        rt.create(
            "vd4",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        let err = rt.start("vd4").unwrap_err();
        assert!(matches!(err, ContainerError::Kernel(_)), "{err}");
        // The first three are still running and fully charged.
        for i in 1..=3 {
            assert_eq!(
                rt.get(&format!("vd{i}")).unwrap().state,
                ContainerState::Running
            );
        }
        assert_eq!(rt.get("vd4").unwrap().state, ContainerState::Created);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut rt = runtime();
        rt.create(
            "x",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        assert!(matches!(
            rt.create(
                "x",
                ContainerKind::VirtualDrone,
                "android-things",
                ResourceLimits::UNLIMITED
            ),
            Err(ContainerError::DuplicateName(_))
        ));
    }

    #[test]
    fn memory_limit_blocks_start() {
        let mut rt = runtime();
        rt.create(
            "small",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits {
                memory_bytes: Some(10 * MIB),
            },
        )
        .unwrap();
        assert!(matches!(
            rt.start("small"),
            Err(ContainerError::LimitExceeded(_))
        ));
    }

    #[test]
    fn stop_kills_container_tasks() {
        let mut rt = runtime();
        rt.create(
            "vd1",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        rt.start("vd1").unwrap();
        rt.spawn_task("vd1", "app", Euid(10_001), SchedPolicy::DEFAULT)
            .unwrap();
        let id = rt.get("vd1").unwrap().id;
        assert_eq!(rt.kernel().borrow().tasks.in_container(id).count(), 2);
        rt.stop("vd1").unwrap();
        assert_eq!(rt.kernel().borrow().tasks.in_container(id).count(), 0);
    }

    #[test]
    fn export_import_round_trip() {
        let mut rt = runtime();
        rt.create(
            "vd1",
            ContainerKind::VirtualDrone,
            "android-things",
            ResourceLimits::UNLIMITED,
        )
        .unwrap();
        rt.start("vd1").unwrap();
        rt.get_mut("vd1")
            .unwrap()
            .fs
            .write("/data/state.json", "{\"waypoint\":1}");
        rt.stop("vd1").unwrap();
        let archive = rt.export("vd1").unwrap();
        assert_eq!(archive.stored_bytes(), 14, "only the diff is stored");
        rt.remove("vd1").unwrap();

        let id = rt
            .create_from_archive(&archive, ResourceLimits::UNLIMITED)
            .unwrap();
        assert!(id.0 > 0);
        let resumed = rt.get("vd1").unwrap();
        assert_eq!(
            resumed.fs.read("/data/state.json").unwrap(),
            bytes::Bytes::from("{\"waypoint\":1}")
        );
        assert_eq!(
            resumed.fs.read("/system/build.prop").unwrap(),
            bytes::Bytes::from("android-things"),
            "base layers reconstructed locally"
        );
    }

    #[test]
    fn operations_on_unknown_containers_fail() {
        let mut rt = runtime();
        assert!(matches!(
            rt.start("nope"),
            Err(ContainerError::UnknownContainer(_))
        ));
        assert!(matches!(
            rt.stop("nope"),
            Err(ContainerError::UnknownContainer(_))
        ));
        assert!(matches!(
            rt.export("nope"),
            Err(ContainerError::UnknownContainer(_))
        ));
    }

    #[test]
    fn containers_get_private_device_namespaces() {
        let mut rt = runtime();
        let a = rt
            .create(
                "a",
                ContainerKind::VirtualDrone,
                "android-things",
                ResourceLimits::UNLIMITED,
            )
            .unwrap();
        let b = rt
            .create(
                "b",
                ContainerKind::VirtualDrone,
                "android-things",
                ResourceLimits::UNLIMITED,
            )
            .unwrap();
        assert_ne!(rt.device_ns(a), rt.device_ns(b));
    }
}
