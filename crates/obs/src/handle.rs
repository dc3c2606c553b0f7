//! The shared, optionally-attached observability handle.

use std::cell::RefCell;
use std::rc::Rc;

use crate::metrics::MetricsRegistry;
use crate::recorder::{snapshot_window, BlackBoxSnapshot};
use crate::trace::{Subsystem, TraceBus, TraceEvent};

/// One flight's observability state: the trace bus plus the metrics
/// registry, advanced together by the flight executor's sim clock.
#[derive(Debug)]
pub struct Obs {
    /// The trace bus.
    pub trace: TraceBus,
    /// The metrics registry.
    pub metrics: MetricsRegistry,
}

/// A cheaply-cloneable handle that subsystems hold. Two states:
///
/// - **attached**: shares one [`Obs`] with every other clone (the
///   drone, its Binder driver, its proxy, its VDC);
/// - **detached** (the [`Default`]): every operation is a single
///   branch and a no-op. Bare-constructed subsystems — benches, unit
///   tests — get this, so the hot paths they measure carry no
///   observability cost.
///
/// All accessors go through [`ObsHandle::with`], which uses
/// `try_borrow_mut` — re-entrant emission (a probe that emits while
/// the executor holds the borrow) silently drops the inner record
/// instead of panicking, which is the right failure mode for a
/// diagnostics layer.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    inner: Option<Rc<RefCell<Obs>>>,
}

impl ObsHandle {
    /// A fresh attached handle.
    pub fn attached() -> Self {
        ObsHandle {
            inner: Some(Rc::new(RefCell::new(Obs {
                trace: TraceBus::new(),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// Runs `f` against the shared state, if attached and not
    /// already borrowed. Returns `None` (doing nothing) otherwise.
    pub fn with<R>(&self, f: impl FnOnce(&mut Obs) -> R) -> Option<R> {
        let rc = self.inner.as_ref()?;
        let mut obs = rc.try_borrow_mut().ok()?;
        Some(f(&mut obs))
    }

    /// Advances the sim-time stamp for subsequent trace records.
    pub fn set_now_ns(&self, now_ns: u64) {
        let _ = self.with(|o| o.trace.set_now_ns(now_ns));
    }

    /// The current sim-time stamp (0 when detached).
    pub fn now_ns(&self) -> u64 {
        self.with(|o| o.trace.now_ns()).unwrap_or(0)
    }

    /// Emits a trace record. `event` is a closure so the payload
    /// (string formatting, clones) is never built when detached.
    pub fn emit(&self, sub: Subsystem, event: impl FnOnce() -> TraceEvent) {
        let _ = self.with(|o| o.trace.emit(sub, event()));
    }

    /// Adds `n` to counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        let _ = self.with(|o| o.metrics.count(name, n));
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge(&self, name: &'static str, v: f64) {
        let _ = self.with(|o| o.metrics.gauge_set(name, v));
    }

    /// Raises gauge `name` to `v` if `v` exceeds its current value
    /// (high-water mark).
    pub fn gauge_max(&self, name: &'static str, v: f64) {
        let _ = self.with(|o| o.metrics.gauge_max(name, v));
    }

    /// Records `v` into histogram `name` with the given bounds.
    pub fn observe(&self, name: &'static str, bounds: &'static [u64], v: u64) {
        let _ = self.with(|o| o.metrics.observe(name, bounds, v));
    }

    /// Adds `n` to the `label`ed member of counter family `name`
    /// (per-tenant accounting).
    pub fn count_labeled(&self, name: &'static str, label: &str, n: u64) {
        let _ = self.with(|o| o.metrics.count_labeled(name, label, n));
    }

    /// Records `v` into the `label`ed member of histogram family
    /// `name` (per-tenant latency distributions).
    pub fn observe_labeled(&self, name: &'static str, label: &str, bounds: &'static [u64], v: u64) {
        let _ = self.with(|o| o.metrics.observe_labeled(name, label, bounds, v));
    }

    /// The registry digest (0 when detached — a detached run has no
    /// metrics to disagree about).
    pub fn metrics_digest(&self) -> u64 {
        self.with(|o| o.metrics.digest()).unwrap_or(0)
    }

    /// Snapshots the last `window_ns` of trace into a black-box
    /// record (see [`BlackBoxSnapshot`]), folding in the last raw
    /// `binder.latency_ns` samples as the snapshot's latency tail —
    /// the histogram keeps bucket shape, the tail keeps the exact
    /// final transaction latencies. `None` when detached.
    pub fn snapshot_window(&self, window_ns: u64, end_reason: &str) -> Option<BlackBoxSnapshot> {
        self.with(|o| {
            let mut snap = snapshot_window(&o.trace, window_ns, end_reason);
            if let Some(h) = o.metrics.histogram("binder.latency_ns") {
                snap.latency_tail = h.recent().collect();
            }
            // The fast-loop jitter tail rides the same mechanism:
            // the RT-deadline monitor feeds "flight.jitter_us", and
            // flights without the monitor leave the tail empty.
            if let Some(h) = o.metrics.histogram("flight.jitter_us") {
                snap.jitter_tail = h.recent().collect();
            }
            // Enforcement-trajectory tails: per-tick throttle deltas
            // and the armed CPU quota, fed by the attack injectors.
            if let Some(h) = o.metrics.histogram("binder.throttle_trajectory") {
                snap.throttle_tail = h.recent().collect();
            }
            if let Some(h) = o.metrics.histogram("cpu.quota_millicores") {
                snap.cpu_quota_tail = h.recent().collect();
            }
            snap
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_inert() {
        let h = ObsHandle::default();
        assert!(h.inner.is_none());
        h.count("x", 1);
        h.emit(Subsystem::Flight, || panic!("payload built while detached"));
        assert_eq!(h.metrics_digest(), 0);
        assert!(h.snapshot_window(1_000, "Aborted").is_none());
    }

    #[test]
    fn clones_share_one_obs() {
        let a = ObsHandle::attached();
        let b = a.clone();
        a.count("x", 2);
        b.count("x", 3);
        assert_eq!(a.with(|o| o.metrics.counter("x")), Some(5));
        assert_eq!(a.metrics_digest(), b.metrics_digest());
    }

    #[test]
    fn snapshot_carries_the_binder_latency_tail() {
        let h = ObsHandle::attached();
        h.observe("binder.latency_ns", &[100, 1_000], 40);
        h.observe("binder.latency_ns", &[100, 1_000], 250);
        h.observe("other.histogram", &[10], 7);
        let snap = h.snapshot_window(1_000, "LinkLost").expect("attached");
        assert_eq!(snap.latency_tail, vec![40, 250]);
        // The tail rides along in the JSON contract.
        let text = snap.to_json_pretty();
        assert!(text.contains("\"latency_tail\""));
    }

    #[test]
    fn reentrant_access_is_dropped_not_panicked() {
        let h = ObsHandle::attached();
        let h2 = h.clone();
        let out = h.with(|_outer| h2.with(|o| o.metrics.count("inner", 1)));
        assert_eq!(out, Some(None));
        assert_eq!(h.with(|o| o.metrics.counter("inner")), Some(0));
    }
}
