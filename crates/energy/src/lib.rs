//! # androne-energy
//!
//! Energy modelling and billing for the AnDrone reproduction:
//!
//! - [`dorling`]: the Dorling et al. multirotor power model the
//!   paper's flight planner is built on.
//! - [`battery`]: battery packs as plannable energy budgets with
//!   landing reserves.
//! - [`billing`]: the paper's utility-style energy billing (max
//!   charge → energy cap) plus storage metering.
//! - [`power_meter`]: the SBC power model behind Figure 13.

pub mod battery;
pub mod billing;
pub mod dorling;
pub mod power_meter;

pub use battery::BatteryPack;
pub use billing::{AccountId, Bill, BillingLedger, PriceSchedule};
pub use dorling::{DorlingModel, RHO};
pub use power_meter::PowerModel;
