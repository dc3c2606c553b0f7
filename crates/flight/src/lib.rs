//! # androne-flight
//!
//! The flight stack of the AnDrone reproduction (paper Section 4.3
//! and the SITL evaluation setup of Section 6.6):
//!
//! - [`physics`]: 6-DOF quadcopter dynamics of the F450 prototype
//!   with a momentum-theory electrical power model.
//! - [`pid`] / [`estimator`] / [`controller`]: an ArduPilot
//!   Copter-style cascade controller with a 400 Hz fast loop, flight
//!   modes, and MAVLink command handling.
//! - [`sitl`]: the assembled software-in-the-loop vehicle.
//! - [`geofence`]: spherical waypoint geofences with recovery-point
//!   computation.
//! - [`log_analyzer`]: flight logs and the DroneKit-style Attitude
//!   Estimate Divergence analysis the paper validates stability with.
//! - [`whitelist`]: the provider-configurable MAVLink command
//!   whitelist templates.
//! - [`vfc`]: per-virtual-drone virtual flight controllers with the
//!   paper's virtualized drone view.
//! - [`mavproxy`]: the multiplexing proxy with AnDrone's augmented
//!   geofence-breach recovery.

pub mod controller;
pub mod estimator;
pub mod geofence;
pub mod log_analyzer;
pub mod mavproxy;
pub mod physics;
pub mod pid;
pub mod sitl;
pub mod vfc;
pub mod whitelist;

pub use controller::{FlightController, GuidedTarget, DEFAULT_SPEED, FAST_LOOP_HZ, MAX_LEAN};
pub use estimator::{Estimator, StateEstimate};
pub use geofence::Geofence;
pub use log_analyzer::{
    AedReport, AedViolation, Axis, FlightRecorder, AED_MIN_DURATION_S, AED_THRESHOLD_RAD,
};
pub use mavproxy::{LinkFailsafeConfig, LinkFailsafePhase, MavProxy, APPROACH_DISTANCE_M};
pub use physics::{wrap_pi, AirframeParams, QuadPhysics, AIR_DENSITY};
pub use pid::Pid;
pub use sitl::Sitl;
pub use vfc::{Vfc, VfcDecision, VfcState};
pub use whitelist::CommandWhitelist;
