//! Dual-run determinism sanitizer tests.
//!
//! Runs the full-system mission twice under one seed and requires
//! the per-second component hash traces to be identical; a third run
//! with a mid-flight perturbation must be localized by the sanitizer
//! to the exact tick and component.

use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::sanitizer::{first_divergence, trace_flight, Trace};
use androne::simkern::FaultPlan;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{execute_flight_probed, Drone, FaultInjector, FlightProbe, FnProbe};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 1337;

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn spec(waypoints: Vec<WaypointSpec>) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints,
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

fn traced_mission(perturb: Option<&mut dyn FlightProbe>) -> Trace {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)]), &[])
        .expect("deploy");
    let (outcome, trace) = trace_flight(&mut drone, plan(), 240.0, perturb);
    assert!(outcome.completed, "mission completes: {:?}", outcome.log);
    assert!(trace.ticks.len() > 10, "trace covers the flight");
    trace
}

#[test]
fn same_seed_runs_produce_identical_hash_traces() {
    let a = traced_mission(None);
    let b = traced_mission(None);
    if let Some(d) = first_divergence(&a, &b) {
        panic!("{d}");
    }
}

#[test]
fn sanitizer_bisects_injected_perturbation_to_its_tick() {
    let a = traced_mission(None);
    // Perturb the VDC's energy accounting at tick 12 of run B — the
    // kind of single-component drift an unordered map would cause.
    let mut perturb = FnProbe::new(|tick, drone: &mut Drone| {
        if tick == 12 {
            drone.vdc.borrow_mut().charge_energy("vd1", 0.125);
        }
    });
    let b = traced_mission(Some(&mut perturb));
    let d = first_divergence(&a, &b).expect("perturbation must be caught");
    // The perturbation lands after tick 12's hashes were recorded, so
    // the first divergent observation is tick 13.
    assert_eq!(d.tick, 13, "localized to the tick after injection: {d}");
    assert!(
        d.diverged_components.contains(&"vdc"),
        "vdc must diverge: {d}"
    );
    assert!(
        !d.diverged_components.contains(&"sitl"),
        "physics unaffected at the first divergent tick: {d}"
    );
    assert_eq!(d.first.len(), d.second.len());
}

/// Boots, deploys, and flies the standard mission under a generated
/// chaos plan, returning the drone's metric-registry digest.
fn chaos_metrics_digest(chaos_seed: u64) -> u64 {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)]), &[])
        .expect("deploy");
    let mut injector = FaultInjector::new(FaultPlan::generate(chaos_seed, 60));
    let outcome = execute_flight_probed(&mut drone, plan(), 240.0, None, &mut injector);
    assert!(outcome.duration_s > 0.0);
    drone.obs.metrics_digest()
}

/// The observability layer itself must be deterministic: two runs of
/// the same chaos seed produce bit-identical metric digests, for
/// every seed in the sweep. A digest mismatch means some emission
/// depended on wall-clock time, iteration order, or an RNG draw.
#[test]
fn dual_run_metric_digests_are_bit_identical_across_chaos_seeds() {
    for chaos_seed in [
        0x0b51, 0x0b52, 0x0b53, 0x0b54, 0x0b55, 0x0b56, 0x0b57, 0x0b58,
    ] {
        let a = chaos_metrics_digest(chaos_seed);
        let b = chaos_metrics_digest(chaos_seed);
        assert_eq!(a, b, "metric digest drift under chaos seed {chaos_seed:#x}");
        assert_ne!(
            a, 0,
            "chaos flight must emit metrics (seed {chaos_seed:#x})"
        );
    }
}

#[test]
fn trace_flight_is_the_unperturbed_entry_point() {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)]), &[])
        .expect("deploy");
    let (outcome, trace) = trace_flight(&mut drone, plan(), 240.0, None);
    assert!(outcome.completed);
    assert_eq!(trace.ticks.first().map(|t| t.tick), Some(0));
    // Every tick carries the full fixed component vector.
    for t in &trace.ticks {
        assert_eq!(
            t.components.iter().map(|c| c.0).collect::<Vec<_>>(),
            vec!["kernel", "binder", "sitl", "proxy", "vdc"]
        );
    }
}
