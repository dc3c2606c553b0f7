//! # androne-workloads
//!
//! The evaluation workloads of the paper's Section 6, rebuilt over
//! the simulated kernel:
//!
//! - [`passmark`]: the PassMark PerformanceTest CPU/disk/memory model
//!   (Figure 10).
//! - [`cyclictest`]: the real-time wakeup-latency benchmark, run as
//!   the flight controller runs (Figure 11).
//! - [`stress`]: the `stress` generator and iperf (worst-case load
//!   scenarios, network throughput).
//! - [`attacks`]: deterministic adversarial-tenant attack plans
//!   (Binder floods, parcel bombs, telemetry storms, CPU saturation,
//!   fd exhaustion) mirroring `simkern::faults`.
//! - [`adaptive`]: closed-loop adversaries — attacker brains that
//!   re-plan each tick from their own admission feedback (refill
//!   probing, rung-edge riding, collusion).

pub mod adaptive;
pub mod attacks;
pub mod cyclictest;
pub mod passmark;
pub mod stress;

pub use adaptive::{
    AdaptiveAttacker, AdaptivePlan, AdaptiveStrategy, AttackerBrain, AttackerCommand,
    AttackerObservation, ADAPTIVE_WIRE_SIZE,
};
pub use attacks::{AttackEvent, AttackKind, AttackPlan};
pub use cyclictest::{run as run_cyclictest, CyclictestResult, ARDUPILOT_DEADLINE_US};
pub use passmark::{run_concurrent, stock_baseline, PassmarkScores, CONTAINER_OVERHEAD};
pub use stress::{start_stress, Iperf, StressConfig, StressHandle};
