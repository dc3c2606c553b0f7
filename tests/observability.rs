//! Observability-layer integration tests: the black-box flight
//! recorder, trace-bus content on real flights, and JSON export.
//!
//! The recorder contract is the paper's operational story inverted:
//! a flight that ends any way other than [`EndReason::Completed`]
//! must leave behind a frozen window of trace explaining *why* — and
//! a completed flight must leave nothing, so black boxes are always
//! signal, never noise.

use androne::hal::GeoPoint;
use androne::obs::{metrics_to_json, TraceEvent};
use androne::planner::{FlightPlan, Leg};
use androne::simkern::{FaultKind, FaultPlan};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{execute_flight_probed, Drone, EndReason, FaultInjector, FlightRecorder, ProbeStack};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 1337;
const MAX_SIM_S: f64 = 240.0;
const WINDOW_S: u64 = 30;

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn spec() -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints: vec![wp(60.0, 0.0, 40.0)],
        max_duration: 120.0,
        energy_allotted: 40_000.0,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec!["com.example.survey.apk".into()],
        app_args: Default::default(),
    }
}

fn plan() -> FlightPlan {
    FlightPlan {
        base: BASE,
        legs: vec![Leg {
            owner: "vd1".into(),
            position: BASE.offset_m(60.0, 0.0, 15.0),
            max_radius_m: 40.0,
            service_energy_j: 10_000.0,
            service_time_s: 8.0,
            eta_s: 20.0,
        }],
        estimated_duration_s: 120.0,
        estimated_energy_j: 40_000.0,
    }
}

/// Flies the standard mission under `faults` with a black-box
/// recorder riding along; returns the drone, the outcome's end
/// reason, and the recorder.
fn recorded_flight(faults: FaultPlan) -> (Drone, EndReason, FlightRecorder) {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone.deploy_vdrone("vd1", spec(), &[]).expect("deploy");
    let mut injector = FaultInjector::new(faults);
    let mut recorder = FlightRecorder::new(WINDOW_S);
    let end_reason = {
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        probes.push(&mut recorder);
        execute_flight_probed(&mut drone, plan(), MAX_SIM_S, None, &mut probes).end_reason
    };
    (drone, end_reason, recorder)
}

/// An unhealed link partition latches the RTL failsafe and ends the
/// flight `LinkLost`; the recorder must freeze a black box whose
/// window actually covers the failure.
#[test]
fn black_box_freezes_on_link_lost() {
    let (_, end_reason, recorder) =
        recorded_flight(FaultPlan::single(FaultKind::LinkPartition, 5, 1_000));
    assert_eq!(end_reason, EndReason::LinkLost);

    let snap = recorder
        .snapshot()
        .expect("abnormal end freezes a black box");
    assert_eq!(snap.end_reason, "LinkLost");
    assert_eq!(snap.window_ns, WINDOW_S * 1_000_000_000);
    assert!(!snap.records.is_empty(), "black box carries trace records");

    // Every record sits inside the window, oldest first.
    let cutoff = snap.ended_at_ns.saturating_sub(snap.window_ns);
    let mut last = 0;
    for r in &snap.records {
        assert!(r.record.t_ns >= cutoff, "record before window start");
        assert!(
            r.record.t_ns <= snap.ended_at_ns,
            "record after end of flight"
        );
        assert!(r.record.t_ns >= last, "records out of order");
        last = r.record.t_ns;
    }

    // The window must contain the story of the failure: the fault
    // edge arming the partition fired at t=5 s — outside the final
    // 30 s window — but the failsafe ladder and the flight-end marker
    // are recent enough to be frozen.
    assert!(
        snap.records
            .iter()
            .any(|r| matches!(r.record.event, TraceEvent::LinkFailsafe { .. })),
        "failsafe transitions inside the window"
    );
    assert!(
        snap.records.iter().any(|r| matches!(
            &r.record.event,
            TraceEvent::FlightPhase { phase, .. } if *phase == "flight-end"
        )),
        "flight-end marker inside the window"
    );
}

/// A healthy flight completes — the recorder must stay empty.
#[test]
fn black_box_stays_empty_on_completed_flight() {
    let (drone, end_reason, recorder) = recorded_flight(FaultPlan::empty());
    assert_eq!(end_reason, EndReason::Completed);
    assert!(
        recorder.snapshot().is_none(),
        "no black box on a clean flight"
    );
    // The trace itself still exists — the recorder is a freeze
    // policy, not the only consumer of the bus.
    assert!(!drone.obs.with(|o| o.trace.is_empty()).unwrap_or(true));
}

/// The snapshot's JSON form carries the keys offline tooling greps
/// for (scripts/trace.sh smoke-checks the same contract).
#[test]
fn black_box_serializes_to_json() {
    let (drone, _, recorder) =
        recorded_flight(FaultPlan::single(FaultKind::LinkPartition, 5, 1_000));
    let snap = recorder.into_snapshot().expect("black box");
    let json = snap.to_json_pretty();
    for key in [
        "end_reason",
        "LinkLost",
        "ended_at_ns",
        "window_ns",
        "records",
        "subsystem",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
    let metrics = drone
        .obs
        .with(|o| serde_json::to_string_pretty(&metrics_to_json(&o.metrics)))
        .expect("attached")
        .expect("render");
    for key in ["counters", "gauges", "digest", "mav.failsafe.rtl"] {
        assert!(metrics.contains(key), "metrics JSON missing {key}");
    }
}

/// Metrics survive the flight on the drone handle and record the
/// failure-mode counters the EXPERIMENTS tables are built from.
#[test]
fn flight_metrics_expose_failsafe_counters() {
    let (drone, _, _) = recorded_flight(FaultPlan::single(FaultKind::LinkPartition, 5, 1_000));
    let rtl = drone
        .obs
        .with(|o| o.metrics.counter("mav.failsafe.rtl"))
        .unwrap_or(0);
    let loiter = drone
        .obs
        .with(|o| o.metrics.counter("mav.failsafe.loiter"))
        .unwrap_or(0);
    assert_eq!(rtl, 1, "one RTL transition");
    assert_eq!(loiter, 1, "one loiter transition");
    let txns = drone
        .obs
        .with(|o| o.metrics.counter("binder.txn"))
        .unwrap_or(0);
    assert!(txns > 0, "binder transactions counted");
    let dur = drone
        .obs
        .with(|o| o.metrics.gauge("flight.duration_s"))
        .flatten();
    assert!(dur.is_some_and(|d| d > 0.0), "flight duration gauge set");
}
