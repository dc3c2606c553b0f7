//! # androne-cloud
//!
//! The AnDrone cloud service (paper Sections 2 and 4, Figure 4):
//!
//! - [`portal`]: the ordering workflow — waypoints, drone types, app
//!   selection with manifest-driven argument prompting, max-charge →
//!   energy conversion.
//! - [`admission`]: batched order admission — per-tenant FIFO lanes,
//!   a deterministic round-robin batch admitter, and typed
//!   backpressure when the queue is full.
//! - [`appstore`]: published apps with their AnDrone manifests.
//! - [`vdr`]: the Virtual Drone Repository storing preconfigured and
//!   interrupted virtual drones for later flights.
//! - [`storage`]: per-user flight-artifact storage with retrieval
//!   links.
//! - [`service`]: the assembled service with VRP-based flight
//!   planning, billing, and user notifications.
//! - [`facade`]: the fallible service façade — the cloud as a
//!   failure domain, with typed errors, deterministic retry, and
//!   degraded modes for fleet-scale chaos runs.

pub mod admission;
pub mod appstore;
pub mod facade;
pub mod portal;
pub mod service;
pub mod storage;
pub mod vdr;

pub use admission::{AdmissionConfig, AdmissionError, AdmissionQueue};
pub use appstore::{AppListing, AppStore};
pub use facade::{AdmissionTicket, CloudError, FallibleCloud, OrderSubmitError};
pub use portal::{AppSelection, DroneType, OrderError, OrderRequest, PlacedOrder, Portal};
pub use service::{CloudService, Notification, NotificationKind, MAX_VDRONES_PER_FLIGHT};
pub use storage::{CloudStorage, StoredFile};
pub use vdr::{
    CompactionReport, SaveReason, SavedVirtualDrone, ShardSnapshot, VdrHandle, VdrStats,
    VirtualDroneRepository,
};
