//! The per-container ServiceManager (Binder Context Manager).
//!
//! Every Android instance runs a userspace ServiceManager holding the
//! name → service mapping; it is always reachable through handle 0.
//! AnDrone runs one per container (device namespace) and teaches two
//! of them new tricks:
//!
//! - the **device container's** ServiceManager checks each new
//!   registration against the pre-specified shared-service list
//!   (paper Table 1) and publishes matches to every virtual drone
//!   namespace via `PUBLISH_TO_ALL_NS`;
//! - **every container's** ServiceManager forwards its
//!   ActivityManager registration to the device container via
//!   `PUBLISH_TO_DEV_CON`, so shared device services can later route
//!   `checkPermission()` to the calling container's ActivityManager.

use std::collections::{BTreeMap, BTreeSet};

use androne_simkern::Pid;

use crate::driver::{BinderDriver, BinderService, TransactionContext};
use crate::error::BinderError;
use crate::parcel::Parcel;

/// ServiceManager transaction codes.
pub mod codes {
    /// Register a service: `{str name, binder}` → `{}`.
    pub const ADD_SERVICE: u32 = 1;
    /// Look up a service: `{str name}` → `{binder}`.
    pub const GET_SERVICE: u32 = 2;
    /// List service names: `{}` → `{i32 n, str...}`.
    pub const LIST_SERVICES: u32 = 3;
}

/// The name Android's ActivityManager registers under.
pub const ACTIVITY_MANAGER: &str = "activity";

/// A per-container ServiceManager.
pub struct ServiceManager {
    /// The process this ServiceManager runs as (needed to issue
    /// ioctls against its own handle table).
    own_pid: Pid,
    /// Whether this is the device container's ServiceManager.
    device_container_sm: bool,
    /// Names that must be published to all namespaces (Table 1).
    shared_names: BTreeSet<String>,
    /// name → handle *in this ServiceManager's process space*.
    services: BTreeMap<String, u32>,
}

impl ServiceManager {
    /// Creates a virtual drone / flight container ServiceManager.
    pub fn new(own_pid: Pid) -> Self {
        ServiceManager {
            own_pid,
            device_container_sm: false,
            shared_names: BTreeSet::new(),
            services: BTreeMap::new(),
        }
    }

    /// Creates the device container's ServiceManager with the list of
    /// services to share across namespaces.
    pub fn new_device_container(
        own_pid: Pid,
        shared_names: impl IntoIterator<Item = String>,
    ) -> Self {
        ServiceManager {
            own_pid,
            device_container_sm: true,
            shared_names: shared_names.into_iter().collect(),
            services: BTreeMap::new(),
        }
    }

    /// Names currently registered (diagnostics/tests), borrowed —
    /// callers that need owned strings can collect.
    pub fn service_names(&self) -> impl Iterator<Item = &str> {
        self.services.keys().map(String::as_str)
    }

    fn add_service(
        &mut self,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        let name = data.str_at(0)?.to_string();
        let handle = data.binder_at(1)?;
        self.services.insert(name.clone(), handle);

        // Device container: publish Table 1 services everywhere.
        // Skip kernel-originated registrations (replays) to avoid
        // publishing loops.
        if self.device_container_sm
            && self.shared_names.contains(&name)
            && ctx.sender_pid != crate::driver::KERNEL_PID
        {
            driver.publish_to_all_ns(self.own_pid, &name, handle)?;
        }

        // Every container: forward the ActivityManager registration
        // to the device container (PUBLISH_TO_DEV_CON). The device
        // container's own ActivityManager needs no forwarding.
        if !self.device_container_sm
            && name == ACTIVITY_MANAGER
            && ctx.sender_pid != crate::driver::KERNEL_PID
        {
            driver.publish_to_dev_con(self.own_pid, &name, handle)?;
        }
        Ok(Parcel::new())
    }

    fn get_service(&self, data: &Parcel) -> Result<Parcel, BinderError> {
        let name = data.str_at(0)?;
        let handle = self
            .services
            .get(name)
            .copied()
            .ok_or_else(|| BinderError::ServiceNotFound(name.to_string()))?;
        let mut reply = Parcel::new();
        reply.push_binder(handle);
        Ok(reply)
    }

    fn list_services(&self) -> Parcel {
        // The only allocations here are the reply parcel's own
        // strings; the registry itself is iterated borrowed.
        let mut reply = Parcel::new();
        reply.push_i32(self.services.len() as i32);
        for name in self.service_names() {
            reply.push_str(name);
        }
        reply
    }
}

impl BinderService for ServiceManager {
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        match code {
            codes::ADD_SERVICE => self.add_service(data, ctx, driver),
            codes::GET_SERVICE => self.get_service(data),
            codes::LIST_SERVICES => Ok(self.list_services()),
            other => Err(BinderError::TransactionFailed(format!(
                "unknown ServiceManager code {other}"
            ))),
        }
    }
}
