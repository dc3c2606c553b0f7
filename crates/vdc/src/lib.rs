//! # androne-vdc
//!
//! The Virtual Drone Controller (paper Section 4.4): the native host
//! daemon that turns virtual drone definitions into enforced flight
//! behaviour.
//!
//! - [`spec`]: the JSON virtual drone definition of paper Figure 2,
//!   with validation (including "flight control can only be a
//!   waypoint device").
//! - [`access`]: the device-access table consulted by every device
//!   service via the [`androne_android::DevicePolicy`] hook —
//!   waypoint devices only at waypoints, continuous devices
//!   suspended at other parties' waypoints.
//! - [`vdc`]: the daemon itself — lifecycle, energy/time allotments
//!   with low-budget warnings, SDK event delivery, and revocation
//!   enforcement (terminating processes that ignore it).

pub mod access;
pub mod spec;
pub mod vdc;

pub use access::{AccessTable, FlightPhase};
pub use spec::{SpecError, VirtualDroneSpec, WaypointSpec};
pub use vdc::{RegisteredSpec, VdRecord, Vdc, VdcEvent, WatchdogConfig, WARNING_FRACTION};
