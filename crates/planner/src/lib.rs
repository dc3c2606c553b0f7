//! # androne-planner
//!
//! The cloud-side flight planner of the AnDrone reproduction (paper
//! Section 4): assigns virtual drones to physical flights with the
//! Dorling et al. VRP and autonomously pilots drones between
//! waypoints.
//!
//! - [`vrp`]: the energy-constrained vehicle routing problem with a
//!   simulated-annealing solver (including the paper's stated
//!   limitation that waypoints of different virtual drones may
//!   interleave), capped at [`VrpProblem::party_cap`] task owners a
//!   route — the board-memory ceiling of virtual drones per flight,
//!   an extension beyond the paper.
//! - [`binpack`]: deterministic first-fit packing of an admitted
//!   order batch onto a large simulated fleet — the cheap shape for
//!   thousand-tenant waves where per-waypoint annealing is overkill.
//! - [`mission`]: solved routes turned into executable flight plans
//!   with ETAs and operating windows.
//! - [`pilot`]: the autonomous waypoint pilot with per-waypoint
//!   energy/time allotment enforcement.

pub mod binpack;
mod constraints;
pub mod mission;
pub mod pilot;
pub mod vrp;

pub use binpack::{bin_pack, PackItem, PackedFlight, Packing};
pub use mission::{FlightPlan, Leg};
pub use pilot::{Autopilot, PilotEvent, PILOT_CLIENT};
pub use vrp::{Route, VrpError, VrpProblem, VrpSolution, WaypointTask};
