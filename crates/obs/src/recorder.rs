//! The black-box flight recorder: a frozen window of trace taken at
//! the moment a flight ends abnormally, serializable to JSON for
//! offline figure reconstruction.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::trace::{Subsystem, TraceBus, TraceEvent, TraceRecord};

/// One record inside a snapshot, tagged with its source subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Source subsystem name (stable lowercase tag).
    pub subsystem: &'static str,
    /// The stamped record.
    pub record: TraceRecord,
}

/// The frozen black box: why the flight ended, when, and every trace
/// record from the final window, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxSnapshot {
    /// The end reason that triggered the snapshot (e.g. "LinkLost").
    pub end_reason: String,
    /// Sim time at the end of flight.
    pub ended_at_ns: u64,
    /// Window length the snapshot covers, ending at `ended_at_ns`.
    pub window_ns: u64,
    /// Records inside the window, oldest first.
    pub records: Vec<SnapshotRecord>,
    /// Per-subsystem ring evictions over the whole flight — nonzero
    /// means the window may be missing early records.
    pub dropped: Vec<(&'static str, u64)>,
    /// The last raw `binder.latency_ns` samples before the end
    /// (oldest first, at most [`crate::metrics::HISTOGRAM_TAIL_CAP`]):
    /// the exact final transaction latencies, where the histogram
    /// keeps only their bucket shape. Empty when the flight recorded
    /// no Binder latency.
    pub latency_tail: Vec<u64>,
    /// The last raw `flight.jitter_us` samples before the end (the
    /// RT-deadline monitor's fast-loop wakeup jitter, microseconds,
    /// oldest first). Empty when no monitor ran — and then absent
    /// from the JSON, so recorder output predating the monitor is
    /// byte-identical.
    pub jitter_tail: Vec<u64>,
    /// The last per-tick `binder.throttle_trajectory` samples before
    /// the end: how many admissions enforcement rejected each of the
    /// final ticks. Empty (and absent from the JSON) on flights with
    /// no adversarial enforcement.
    pub throttle_tail: Vec<u64>,
    /// The last per-tick `cpu.quota_millicores` samples: the CPU
    /// bandwidth cap enforcement held clamped on attackers over the
    /// final ticks. Empty (and absent from the JSON) without
    /// adversarial enforcement.
    pub cpu_quota_tail: Vec<u64>,
}

/// Takes a snapshot of the last `window_ns` of `bus`. The latency
/// tail starts empty — [`crate::ObsHandle::snapshot_window`] fills it
/// from the metrics registry, which a bare bus does not carry.
pub fn snapshot_window(bus: &TraceBus, window_ns: u64, end_reason: &str) -> BlackBoxSnapshot {
    let ended_at_ns = bus.now_ns();
    let cutoff = ended_at_ns.saturating_sub(window_ns);
    let records = bus
        .window(cutoff)
        .into_iter()
        .map(|(sub, record)| SnapshotRecord {
            subsystem: sub.name(),
            record,
        })
        .collect();
    let dropped = Subsystem::ALL
        .iter()
        .filter(|&&s| bus.dropped(s) > 0)
        .map(|&s| (s.name(), bus.dropped(s)))
        .collect();
    BlackBoxSnapshot {
        end_reason: end_reason.to_string(),
        ended_at_ns,
        window_ns,
        records,
        dropped,
        latency_tail: Vec::new(),
        jitter_tail: Vec::new(),
        throttle_tail: Vec::new(),
        cpu_quota_tail: Vec::new(),
    }
}

fn num(v: u64) -> Value {
    // Sim timestamps and counts stay far below 2^53, where f64 is
    // exact (the stand-in Value stores all numbers as f64).
    Value::Number(v as f64)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    let mut map = BTreeMap::new();
    for (k, v) in fields {
        map.insert(k.to_string(), v);
    }
    Value::Object(map)
}

fn event_value(event: &TraceEvent) -> Value {
    let mut fields: Vec<(&str, Value)> = vec![("kind", Value::String(event.kind().to_string()))];
    match event {
        TraceEvent::FlightPhase { phase, detail } => {
            fields.push(("phase", Value::String(phase.to_string())));
            fields.push(("detail", Value::String(detail.clone())));
        }
        TraceEvent::BinderTxn {
            caller,
            code,
            wire_size,
            cross_container,
            latency_ns,
            ok,
        } => {
            fields.push(("caller", num(u64::from(*caller))));
            fields.push(("code", num(u64::from(*code))));
            fields.push(("wire_size", num(*wire_size)));
            fields.push(("cross_container", Value::Bool(*cross_container)));
            fields.push(("latency_ns", num(*latency_ns)));
            fields.push(("ok", Value::Bool(*ok)));
        }
        TraceEvent::MavCommand { client, verdict } => {
            fields.push(("client", Value::String(client.clone())));
            fields.push(("verdict", Value::String(verdict.to_string())));
        }
        TraceEvent::LinkFailsafe { phase } => {
            fields.push(("phase", Value::String(phase.to_string())));
        }
        TraceEvent::VdcDecision {
            vdrone,
            decision,
            detail,
        } => {
            fields.push(("vdrone", Value::String(vdrone.clone())));
            fields.push(("decision", Value::String(decision.to_string())));
            fields.push(("detail", Value::String(detail.clone())));
        }
        TraceEvent::CloudRetry {
            op,
            attempts,
            backoff_ns,
            gave_up,
        } => {
            fields.push(("op", Value::String(op.to_string())));
            fields.push(("attempts", num(u64::from(*attempts))));
            fields.push(("backoff_ns", num(*backoff_ns)));
            fields.push(("gave_up", Value::Bool(*gave_up)));
        }
        TraceEvent::CloudDegraded { mode, detail } => {
            fields.push(("mode", Value::String(mode.to_string())));
            fields.push(("detail", Value::String(detail.clone())));
        }
        TraceEvent::FaultEdge {
            kind,
            armed,
            detail,
        } => {
            fields.push(("fault", Value::String(kind.to_string())));
            fields.push(("armed", Value::Bool(*armed)));
            fields.push(("detail", Value::String(detail.clone())));
        }
        TraceEvent::BinderThrottle {
            container,
            dimension,
            throttled,
        } => {
            fields.push(("container", num(u64::from(*container))));
            fields.push(("dimension", Value::String(dimension.to_string())));
            fields.push(("throttled", Value::Bool(*throttled)));
        }
        TraceEvent::AttackEdge {
            kind,
            attacker,
            armed,
            detail,
        } => {
            fields.push(("attack", Value::String(kind.to_string())));
            fields.push(("attacker", Value::String(attacker.clone())));
            fields.push(("armed", Value::Bool(*armed)));
            fields.push(("detail", Value::String(detail.clone())));
        }
    }
    object(fields)
}

impl BlackBoxSnapshot {
    /// The snapshot as a JSON value tree.
    pub fn to_json(&self) -> Value {
        let records: Vec<Value> = self
            .records
            .iter()
            .map(|r| {
                object(vec![
                    ("subsystem", Value::String(r.subsystem.to_string())),
                    ("t_ns", num(r.record.t_ns)),
                    ("seq", num(r.record.seq)),
                    ("event", event_value(&r.record.event)),
                ])
            })
            .collect();
        let dropped: Vec<Value> = self
            .dropped
            .iter()
            .map(|(sub, n)| {
                object(vec![
                    ("subsystem", Value::String(sub.to_string())),
                    ("dropped", num(*n)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("end_reason", Value::String(self.end_reason.clone())),
            ("ended_at_ns", num(self.ended_at_ns)),
            ("window_ns", num(self.window_ns)),
            ("records", Value::Array(records)),
            ("dropped", Value::Array(dropped)),
            (
                "latency_tail",
                Value::Array(self.latency_tail.iter().map(|&v| num(v)).collect()),
            ),
        ];
        // Conditional so recorder output from flights without the
        // RT-deadline monitor matches the pre-monitor contract.
        if !self.jitter_tail.is_empty() {
            fields.push((
                "jitter_tail",
                Value::Array(self.jitter_tail.iter().map(|&v| num(v)).collect()),
            ));
        }
        // Likewise conditional: the enforcement-trajectory tails only
        // exist on flights where adversarial enforcement ran.
        if !self.throttle_tail.is_empty() {
            fields.push((
                "throttle_tail",
                Value::Array(self.throttle_tail.iter().map(|&v| num(v)).collect()),
            ));
        }
        if !self.cpu_quota_tail.is_empty() {
            fields.push((
                "cpu_quota_tail",
                Value::Array(self.cpu_quota_tail.iter().map(|&v| num(v)).collect()),
            ));
        }
        object(fields)
    }

    /// The snapshot as pretty-printed JSON text.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).unwrap_or_default()
    }
}

/// Exports a [`crate::MetricsRegistry`] as a JSON value tree —
/// counters, gauges, and histograms (bounds + bucket counts +
/// summary stats) — alongside the black box for offline analysis.
pub fn metrics_to_json(metrics: &crate::MetricsRegistry) -> Value {
    let counters = object(metrics.counters().map(|(name, v)| (name, num(v))).collect());
    let gauges = object(
        metrics
            .gauges()
            .map(|(name, v)| (name, Value::Number(v)))
            .collect(),
    );
    let histograms = object(
        metrics
            .histograms()
            .map(|(name, h)| {
                (
                    name,
                    object(vec![
                        (
                            "bounds",
                            Value::Array(h.bounds().iter().map(|&b| num(b)).collect()),
                        ),
                        (
                            "counts",
                            Value::Array(h.bucket_counts().iter().map(|&c| num(c)).collect()),
                        ),
                        ("count", num(h.count())),
                        ("sum", num(h.sum())),
                        ("min", num(h.min())),
                        ("max", num(h.max())),
                        ("p50", num(h.quantile(0.5))),
                        ("p99", num(h.quantile(0.99))),
                    ]),
                )
            })
            .collect(),
    );
    object(vec![
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
        (
            "digest",
            Value::String(format!("{:016x}", metrics.digest())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;

    fn bus_with_records() -> TraceBus {
        let mut b = TraceBus::new(TraceConfig::default());
        b.set_now_ns(1_000_000);
        b.emit(
            Subsystem::Binder,
            TraceEvent::BinderTxn {
                caller: 7,
                code: 1,
                wire_size: 64,
                cross_container: true,
                latency_ns: 32_025,
                ok: true,
            },
        );
        b.set_now_ns(5_000_000);
        b.emit(
            Subsystem::Flight,
            TraceEvent::FlightPhase {
                phase: "flight-end",
                detail: "LinkLost".to_string(),
            },
        );
        b
    }

    #[test]
    fn snapshot_keeps_only_the_window() {
        let bus = bus_with_records();
        let snap = snapshot_window(&bus, 2_000_000, "LinkLost");
        assert_eq!(snap.ended_at_ns, 5_000_000);
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].subsystem, "flight");
        assert!(snap.dropped.is_empty());
    }

    #[test]
    fn snapshot_serializes_to_json_with_end_reason() {
        let bus = bus_with_records();
        let snap = snapshot_window(&bus, u64::MAX, "LinkLost");
        assert_eq!(snap.records.len(), 2);
        let text = snap.to_json_pretty();
        assert!(text.contains("\"end_reason\": \"LinkLost\""));
        assert!(text.contains("\"binder_txn\""));
        // Round-trips through the parser.
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("end_reason").and_then(Value::as_str),
            Some("LinkLost")
        );
        let records = parsed
            .get("records")
            .and_then(Value::as_array)
            .expect("records");
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn metrics_export_includes_histogram_shape() {
        let mut m = crate::MetricsRegistry::new();
        m.count("binder.transactions", 3);
        m.observe("binder.latency_ns", &[10, 100], 7);
        let v = metrics_to_json(&m);
        let text = serde_json::to_string(&v).expect("serializes");
        assert!(text.contains("\"binder.transactions\":3"));
        assert!(text.contains("\"bounds\":[10,100]"));
    }
}
