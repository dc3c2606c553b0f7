//! Deterministic observability for the AnDrone simulation.
//!
//! Three pieces, all driven exclusively by **sim time** (clippy's R2
//! ban in `crates/clippy.toml` applies to this crate — no `Instant`,
//! no host entropy):
//!
//! - [`TraceBus`]: typed, sim-time-stamped event records (flight
//!   phases, Binder transactions, MAVLink command verdicts, VDC
//!   allotment decisions, cloud retries, fault arm/fire edges) in
//!   bounded per-subsystem ring buffers. Overflow drops the oldest
//!   record and counts the drop — memory stays bounded no matter how
//!   long a flight runs.
//! - [`MetricsRegistry`]: counters, gauges, and fixed-bucket
//!   histograms keyed by `&'static str` names. The whole registry
//!   folds into one FNV-1a digest ([`MetricsRegistry::digest`]), so
//!   the dual-run sanitizer discipline extends to metrics: two runs
//!   of the same seed must produce bit-identical metrics.
//! - [`BlackBoxSnapshot`]: the flight recorder. On any
//!   non-`Completed` end of flight, the last N seconds of trace are
//!   snapshotted and serialized to JSON for offline figure
//!   reconstruction (Binder latency CDF, per-tenant overhead — the
//!   paper's §6 breakdowns).
//!
//! Subsystems hold an [`ObsHandle`] — a shared, optionally-attached
//! handle. Bare-constructed subsystems (benches, unit tests) get the
//! detached default and pay a single branch per emission; payload
//! construction is skipped entirely when detached because
//! [`ObsHandle::emit`] takes a closure.

mod handle;
mod metrics;
mod recorder;
mod trace;

pub use handle::{Obs, ObsHandle};
pub use metrics::{Histogram, MetricsRegistry, HISTOGRAM_TAIL_CAP};
pub use recorder::{metrics_to_json, snapshot_window, BlackBoxSnapshot, SnapshotRecord};
pub use trace::{Subsystem, TraceBus, TraceEvent, TraceRecord, TraceSegment};
