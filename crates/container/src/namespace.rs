//! Kernel namespaces attached to a container.
//!
//! Besides the standard Linux namespaces, AnDrone relies on *device
//! namespaces* (from Cells, extended by the paper) to give each
//! virtual drone its own Binder Context Manager. The device namespace
//! id is the key the Binder driver uses to isolate per-container
//! ServiceManagers.

use std::fmt;

/// A device namespace identifier.
///
/// The host/init device namespace is id 0; the device container gets
/// its own namespace like any container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceNamespaceId(pub u32);

impl DeviceNamespaceId {
    /// The root (host) device namespace.
    pub const ROOT: DeviceNamespaceId = DeviceNamespaceId(0);
}

impl fmt::Display for DeviceNamespaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "devns:{}", self.0)
    }
}

/// The set of namespaces a container runs in.
///
/// PID/net/IPC namespaces are modelled as opaque ids: their isolation
/// effect in this simulation is entirely captured by tagging tasks and
/// sockets with the owning container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceSet {
    /// PID namespace id.
    pub pid_ns: u32,
    /// Network namespace id.
    pub net_ns: u32,
    /// IPC namespace id.
    pub ipc_ns: u32,
    /// Device namespace id (Binder Context Manager isolation).
    pub device_ns: DeviceNamespaceId,
}

impl NamespaceSet {
    /// The host's namespace set.
    pub const HOST: NamespaceSet = NamespaceSet {
        pid_ns: 0,
        net_ns: 0,
        ipc_ns: 0,
        device_ns: DeviceNamespaceId::ROOT,
    };

    /// Creates a fully private namespace set with the given id used
    /// for every namespace type.
    pub fn private(id: u32) -> Self {
        NamespaceSet {
            pid_ns: id,
            net_ns: id,
            ipc_ns: id,
            device_ns: DeviceNamespaceId(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_namespaces_do_not_collide() {
        let a = NamespaceSet::private(1);
        let b = NamespaceSet::private(2);
        assert_ne!(a.device_ns, b.device_ns);
        assert_ne!(a.pid_ns, b.pid_ns);
    }

    #[test]
    fn host_uses_root_device_namespace() {
        assert_eq!(NamespaceSet::HOST.device_ns, DeviceNamespaceId::ROOT);
    }
}
