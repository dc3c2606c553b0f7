//! The deterministic observability layer end to end: fly a mission
//! into an unhealed link partition, let the failsafe ladder bring
//! the drone home, and dump the black-box flight recorder plus the
//! metrics registry as one JSON document.
//!
//! The flight is run **twice** and the metric digests are asserted
//! bit-identical first — the dual-run gate that makes the JSON
//! trustworthy as evidence rather than a one-off sample.
//!
//! ```text
//! cargo run --example blackbox_recorder
//! ```

use androne::hal::GeoPoint;
use androne::obs::{metrics_to_json, BlackBoxSnapshot};
use androne::planner::{FlightPlan, Leg};
use androne::simkern::{FaultKind, FaultPlan};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{execute_flight_probed, Drone, EndReason, FaultInjector, FlightRecorder, ProbeStack};
use serde_json::Value;
use std::collections::BTreeMap;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 1337;
const WINDOW_S: u64 = 30;

fn spec() -> VirtualDroneSpec {
    let p = BASE.offset_m(60.0, 0.0, 15.0);
    VirtualDroneSpec {
        waypoints: vec![WaypointSpec {
            latitude: p.latitude,
            longitude: p.longitude,
            altitude: 15.0,
            max_radius: 40.0,
        }],
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

/// One instrumented flight into a permanent link partition: returns
/// the drone (carrying its metrics), the end reason, and the frozen
/// black box.
fn fly() -> (Drone, EndReason, Option<BlackBoxSnapshot>) {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone.deploy_vdrone("vd1", spec(), &[]).expect("deploy");
    let mut injector = FaultInjector::new(FaultPlan::single(FaultKind::LinkPartition, 5, 1_000));
    let mut recorder = FlightRecorder::new(WINDOW_S);
    let end_reason = {
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        probes.push(&mut recorder);
        execute_flight_probed(&mut drone, plan(), 240.0, None, &mut probes).end_reason
    };
    (drone, end_reason, recorder.into_snapshot())
}

fn main() {
    // Dual-run gate: the observability layer is only evidence if it
    // is deterministic.
    let (drone_a, end_a, _) = fly();
    let (drone, end_b, snapshot) = fly();
    let digest_a = drone_a.obs.metrics_digest();
    let digest_b = drone.obs.metrics_digest();
    assert_eq!(
        end_a,
        EndReason::LinkLost,
        "partition must end the flight LinkLost"
    );
    assert_eq!(end_a, end_b, "end reason drift between identical runs");
    assert_eq!(
        digest_a, digest_b,
        "metric digest drift between identical runs"
    );

    let snapshot = snapshot.expect("abnormal end freezes a black box");
    println!("end reason      : {:?}", end_b);
    println!("metric digest   : {digest_b:016x} (dual-run verified)");
    println!(
        "black-box window: {} records over {} s",
        snapshot.records.len(),
        WINDOW_S
    );

    let metrics = drone
        .obs
        .with(|o| metrics_to_json(&o.metrics))
        .expect("attached");
    let mut combined = BTreeMap::new();
    combined.insert("black_box".to_string(), snapshot.to_json());
    combined.insert("metrics".to_string(), metrics);
    combined.insert(
        "metrics_digest".to_string(),
        Value::String(format!("{digest_b:016x}")),
    );
    let rendered = serde_json::to_string_pretty(&Value::Object(combined)).expect("render");
    println!("{rendered}");
}
