//! # androne
//!
//! Reproduction of **"AnDrone: Virtual Drone Computing in the Cloud"**
//! (Van't Hof & Nieh, EuroSys 2019): a drone-as-a-service system
//! pairing a cloud service with the first drone virtualization
//! architecture. Multiple isolated *virtual drones* — containerized
//! Android Things instances — share one physical drone flight, with a
//! device container multiplexing hardware at the Android-service
//! level and a real-time flight container handing each virtual drone
//! a geofenced, whitelist-restricted virtual flight controller.
//!
//! This crate is the full-system facade:
//!
//! - [`drone::Drone`]: one physical drone's assembled onboard stack
//!   (kernel, containers, Binder, device services, SITL vehicle,
//!   MAVProxy, VDC).
//! - [`flight_exec::execute_flight`]: the per-flight loop wiring the
//!   autopilot, the VDC's device-access windows, allotment charging,
//!   revocation enforcement, and breach propagation.
//! - [`androne::Androne`]: cloud + fleet — the complete order →
//!   plan → fly → offload → save workflow of the paper's Figure 4.
//!
//! The substrate crates are re-exported under their subsystem names
//! for downstream use.

pub mod adaptive;
pub mod androne;
pub mod attack;
pub mod drone;
pub mod fleet;
pub mod flight_exec;
pub mod injector;
pub mod pool;
pub mod probe;
pub mod sanitizer;
pub mod scale;

pub use adaptive::AdaptiveInjector;
pub use androne::Androne;
pub use attack::{
    AttackDefense, AttackInjector, LadderRung, RtMonitor, CPU_QUOTA_BOUNDS, FLIGHT_JITTER_BOUNDS,
    THROTTLE_TRAJECTORY_BOUNDS,
};
pub use drone::{DeployedVdrone, Drone, DroneError, ANDROID_THINGS_IMAGE, FLIGHT_IMAGE};
pub use fleet::{
    FleetAttackPlan, FleetConfig, FleetOutcome, FleetSpec, FleetTenant, FlightRecord,
    TenantOutcome, TenantResolution,
};
pub use flight_exec::{
    execute_flight, execute_flight_probed, AbortCheck, EndReason, FlightLog, FlightOutcome,
};
pub use injector::FaultInjector;
pub use pool::{WorkerError, WorkerPool};
pub use probe::{DigestProbe, FlightProbe, FlightRecorder, FnProbe, NoProbe, ProbeStack};
pub use sanitizer::{first_divergence, trace_flight, Divergence, TickHashes, Trace};
pub use scale::{
    execute_scale_fleet, ScaleConfig, ScaleFlightRecord, ScaleOutcome, ScaleResolution,
    ScaleTenantOutcome,
};

pub use androne_android as android;
pub use androne_binder as binder;
pub use androne_cloud as cloud;
pub use androne_container as container;
pub use androne_energy as energy;
pub use androne_flight as flight;
pub use androne_hal as hal;
pub use androne_mavlink as mavlink;
pub use androne_obs as obs;
pub use androne_planner as planner;
pub use androne_sdk as sdk;
pub use androne_simkern as simkern;
pub use androne_vdc as vdc;
pub use androne_workloads as workloads;
