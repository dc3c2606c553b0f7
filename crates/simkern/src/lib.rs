//! # androne-simkern
//!
//! Deterministic, discrete-event simulated kernel substrate for the
//! AnDrone reproduction.
//!
//! The AnDrone paper (EuroSys '19) runs on a Raspberry Pi 3 with a
//! Linux kernel patched for real-time preemption (PREEMPT_RT). This
//! crate stands in for that hardware/kernel pair with explicit,
//! calibrated models:
//!
//! - [`time`] / [`event`]: a virtual nanosecond clock and a
//!   deterministic discrete-event queue every other crate runs on.
//! - [`task`]: a task table carrying the identity Binder and the VDC
//!   observe (PID, EUID, container, scheduling policy).
//! - [`mem`]: physical memory accounting with the prototype's 880 MB
//!   usable budget (Figure 12's binding constraint).
//! - [`cpu`]: proportional-share contention across CPU/disk/memory
//!   bandwidth (the mechanism behind Figure 10's scaling curves).
//! - [`latency`]: the PREEMPT vs PREEMPT_RT wakeup-latency model
//!   (Figure 11) built from Poisson non-preemptible kernel sections.
//! - [`kernel`]: the assembled [`kernel::Kernel`] with build-time
//!   [`kernel::KernelConfig`].
//! - [`statehash`]: the [`StateHash`] trait and stable FNV hasher
//!   behind the dual-run determinism sanitizer.
//! - [`stats`]: summary/histogram helpers for the evaluation
//!   harnesses.
//!
//! Everything is seeded and single-threaded: identical seeds produce
//! identical experiment output, bit for bit.

pub mod cpu;
pub mod error;
pub mod event;
pub mod faults;
pub mod kernel;
pub mod latency;
pub mod mem;
pub mod net;
pub mod rng;
pub mod statehash;
pub mod stats;
pub mod task;
pub mod time;

pub use cpu::{ClientId, ResourceKind, ResourceSet, SharedResource};
pub use error::KernelError;
pub use event::EventQueue;
pub use faults::{
    CloudFaultEvent, CloudFaultKind, FaultClock, FaultEvent, FaultKind, FaultPlan,
    FaultTransition, FleetFaultPlan, SensorChannel,
};
pub use kernel::{Kernel, KernelConfig, SharedKernel};
pub use latency::{InterferenceSource, LatencyModel, Preemption, SectionParams};
pub use mem::{BoardMemoryProfile, MemOwner, MemoryLedger, MIB};
pub use net::{BurstLoss, LinkModel, LinkState};
pub use rng::{
    adversary_stream_rng, attack_stream_rng, fault_stream_rng, fleet_fault_stream_rng,
    refill_jitter_ns, rt_monitor_stream_rng, stream_rng,
};
pub use statehash::{substream_seed, AppendLog, LogItem, StateHash, StateHasher};
pub use stats::{LogHistogram, Summary};
pub use task::{ContainerId, Euid, Pid, SchedPolicy, Task, TaskState, TaskTable};
pub use time::{SimDuration, SimTime};
