//! # androne-container
//!
//! Docker-like container substrate for the AnDrone reproduction.
//!
//! AnDrone containerizes every Linux instance on the drone (paper
//! Section 4): Android Things virtual drones, the minimal-Android
//! device container, and the real-time Linux flight container. This
//! crate provides the runtime those containers run on:
//!
//! - [`image`]: content-addressed, deduplicating layered images —
//!   virtual drones cost only their diff from a shared base.
//! - [`fs`]: the per-container union filesystem with a writable upper
//!   layer (overlayfs semantics).
//! - [`namespace`]: namespace sets including the *device namespace*
//!   the Binder driver keys its per-container Context Managers on.
//! - [`limits`]: Docker-style resource caps.
//! - [`runtime`]: create/start/stop/commit/export lifecycle with
//!   atomic memory charging against the simulated kernel.
//! - [`checkpoint`]: CRIU-style whole-container checkpoint/restore —
//!   the migration alternative the paper cites but does not build.

pub mod checkpoint;
pub mod container;
pub mod error;
pub mod fs;
pub mod image;
pub mod limits;
pub mod namespace;
pub mod runtime;

pub use checkpoint::{ContainerCheckpoint, TaskSnapshot};
pub use container::{Container, ContainerKind, ContainerState};
pub use error::ContainerError;
pub use fs::ContainerFs;
pub use image::{FileChange, Image, ImageStore, Layer, LayerId};
pub use limits::ResourceLimits;
pub use namespace::{DeviceNamespaceId, NamespaceSet};
pub use runtime::{ContainerArchive, ContainerRuntime, HOST_BASE_MEMORY};
