//! # androne-binder
//!
//! Android Binder IPC for the AnDrone reproduction, including the
//! paper's kernel modifications (Section 4.1–4.2): device-namespaced
//! Context Managers, the `PUBLISH_TO_ALL_NS` and `PUBLISH_TO_DEV_CON`
//! ioctls, and sender container ids in transaction data.
//!
//! - [`parcel`]: typed transaction payloads with in-flight handle and
//!   fd translation.
//! - [`fd`]: shareable file descriptions (shmem, streams) passed
//!   through parcels.
//! - [`driver`]: the driver itself — nodes, per-process handle
//!   tables, synchronous transaction routing, publish ioctls.
//! - [`service_manager`]: the per-container ServiceManager with
//!   AnDrone's cross-container publishing behaviour.
//! - `qos`: tenant QoS, the adversarial-tenant admission policy the
//!   driver consults where traffic enters ([`TenantQos`] budgets, the
//!   [`AggregateQos`] cap, refill jitter). Not part of the paper's
//!   protocol.

pub mod driver;
pub mod error;
pub mod fd;
pub mod parcel;
mod qos;
pub mod service_manager;

pub use driver::{
    scoped_service_name, tenant_label, transaction_cost, BinderDriver, BinderFaultInjection,
    BinderService, DriverStats, NodeId, ServiceRef, TransactionContext, BINDER_LATENCY_BOUNDS,
    KERNEL_PID,
};
pub use error::BinderError;
pub use fd::{new_shmem, new_stream, FileDescription, FilePayload, FileRef};
pub use parcel::{PValue, Parcel};
pub use qos::{AggregateQos, TenantQos};
pub use service_manager::{codes as sm_codes, ServiceManager, ACTIVITY_MANAGER};

use androne_simkern::Pid;

/// Convenience: asks the caller's Context Manager (handle 0) for a
/// service by name, returning a handle in the caller's space.
pub fn get_service(driver: &mut BinderDriver, caller: Pid, name: &str) -> Result<u32, BinderError> {
    let mut data = Parcel::new();
    data.push_str(name);
    let reply = driver.transact(caller, 0, sm_codes::GET_SERVICE, data)?;
    reply.binder_at(0)
}

/// Convenience: registers a service with the caller's Context
/// Manager under `name`.
pub fn add_service(
    driver: &mut BinderDriver,
    caller: Pid,
    name: &str,
    handle: u32,
) -> Result<(), BinderError> {
    let mut data = Parcel::new();
    data.push_str(name);
    data.push_binder(handle);
    driver.transact(caller, 0, sm_codes::ADD_SERVICE, data)?;
    Ok(())
}
