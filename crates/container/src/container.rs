//! The container object and its lifecycle.

use androne_simkern::ContainerId;

use crate::fs::ContainerFs;
use crate::limits::ResourceLimits;
use crate::namespace::NamespaceSet;

/// What role a container plays in the AnDrone architecture (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// A third party's Android Things virtual drone.
    VirtualDrone,
    /// The device container: minimal Android instance owning all
    /// hardware and running the shared device services.
    Device,
    /// The flight container: real-time Linux running the flight
    /// controller and MAVProxy.
    Flight,
}

impl ContainerKind {
    /// Default boot memory footprint in bytes.
    ///
    /// Calibrated to Figure 12: the device + flight containers
    /// together add ~150 MB over the base system, and each Android
    /// Things virtual drone idling on its launcher needs ~185 MB.
    pub fn boot_memory(self) -> u64 {
        use androne_simkern::MIB;
        match self {
            ContainerKind::VirtualDrone => 185 * MIB,
            ContainerKind::Device => 110 * MIB,
            ContainerKind::Flight => 40 * MIB,
        }
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Created but not started; filesystem mounted, no tasks.
    Created,
    /// Running.
    Running,
    /// Stopped; filesystem retained for commit/export.
    Stopped,
}

/// A container instance.
#[derive(Debug)]
pub struct Container {
    /// Kernel-visible container id (tags tasks and Binder callers).
    pub id: ContainerId,
    /// Unique human-readable name.
    pub name: String,
    /// Architectural role.
    pub kind: ContainerKind,
    /// Lifecycle state.
    pub state: ContainerState,
    /// Union filesystem.
    pub fs: ContainerFs,
    /// Namespace set.
    pub namespaces: NamespaceSet,
    /// Resource caps.
    pub limits: ResourceLimits,
    /// Bytes of RAM charged to this container while running.
    pub resident_bytes: u64,
}

impl Container {
    /// Memory-ledger owner key for this container.
    pub fn mem_owner(&self) -> String {
        format!("container/{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_simkern::MIB;

    #[test]
    fn boot_memory_matches_figure_12() {
        // Device + flight together ~150 MB; each virtual drone ~185 MB.
        let dev_flight = ContainerKind::Device.boot_memory() + ContainerKind::Flight.boot_memory();
        assert_eq!(dev_flight, 150 * MIB);
        assert_eq!(ContainerKind::VirtualDrone.boot_memory(), 185 * MIB);
    }
}
