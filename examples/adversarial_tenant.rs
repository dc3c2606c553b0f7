//! An adversarial tenant end to end: one virtual drone mounts a
//! Binder transaction flood mid-flight, the per-tenant QoS budget
//! throttles it, and the flight's 400 Hz fast loop never leaves the
//! PREEMPT_RT envelope. The black box is dumped as JSON afterwards —
//! look for the `binder_throttle` trace events (the enforcement
//! edges) and the `jitter_tail` array (the RT-deadline monitor's
//! final wakeup latencies, all far under the 2500 µs budget).
//!
//! ```text
//! cargo run --example adversarial_tenant
//! ```

use androne::hal::GeoPoint;
use androne::obs::metrics_to_json;
use androne::planner::{FlightPlan, Leg};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::workloads::{AttackEvent, AttackKind, AttackPlan, ARDUPILOT_DEADLINE_US};
use androne::{
    execute_flight_probed, AttackDefense, AttackInjector, Drone, EndReason, ProbeStack, RtMonitor,
};
use serde_json::Value;
use std::collections::BTreeMap;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 1337;

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

fn main() {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone.deploy_vdrone("vd1", spec(), &[]).expect("deploy");
    let container = drone.vdrones["vd1"].container;

    // vd1 floods Binder with 600 transactions per simulated second
    // from t=2 to t=40 and saturates the shared CPU from t=4; the
    // default defense arms its token-bucket budget (120/s, burst
    // 240) and clamps the CPU quota at attack time.
    let mut attack = AttackPlan::single(AttackKind::BinderFlood { per_tick: 600 }, "vd1", 2, 40);
    attack.events.push(AttackEvent {
        kind: AttackKind::CpuSaturation { demand: 3.0 },
        attacker: "vd1".into(),
        arm_tick: 4,
        disarm_tick: 40,
    });
    let mut attacker = AttackInjector::new(attack, Some(AttackDefense::default()));
    let mut monitor = RtMonitor::new(SEED);
    let outcome = {
        let mut probes = ProbeStack::new();
        probes.push(&mut attacker);
        probes.push(&mut monitor);
        execute_flight_probed(&mut drone, plan(), 240.0, None, &mut probes)
    };

    assert_eq!(
        outcome.end_reason,
        EndReason::Completed,
        "the throttled flood must not cost the mission"
    );
    assert_eq!(monitor.misses(), 0, "fast loop held under attack");
    assert!(monitor.max_us() < ARDUPILOT_DEADLINE_US);

    let throttles = drone.driver.throttle_count(&container);
    assert!(throttles > 0, "the budget engaged");
    println!("end reason       : {:?}", outcome.end_reason);
    println!(
        "attack           : binder flood 600/s over t=2..40, budget {}/s burst {}",
        AttackDefense::default().budget.rate_per_s,
        AttackDefense::default().budget.burst
    );
    println!("throttled txns   : {throttles} (container {})", container.0);
    println!(
        "fast loop        : {} samples, {} misses, max {:.1} µs (budget {ARDUPILOT_DEADLINE_US} µs)",
        monitor.samples(),
        monitor.misses(),
        monitor.max_us()
    );
    for action in attacker.actions() {
        println!("injector         : {action}");
    }

    // A completed flight freezes no automatic black box, so snapshot
    // the full flight window by hand: the throttle edges and the
    // jitter tail ride the same JSON the crash recorder emits.
    let window_ns = 240u64 * 1_000_000_000;
    let snapshot = drone
        .obs
        .snapshot_window(window_ns, "Completed")
        .expect("attached");
    let throttle_edges = snapshot
        .records
        .iter()
        .filter(|r| r.record.event.kind() == "binder_throttle")
        .count();
    assert!(throttle_edges > 0, "throttle edges reached the black box");
    assert!(
        !snapshot.jitter_tail.is_empty(),
        "the monitor fed the jitter tail"
    );
    // The enforcement-trajectory tails ride the same recent-tail
    // mechanism: per-tick throttle deltas and the armed CPU quota.
    assert!(
        !snapshot.throttle_tail.is_empty(),
        "enforcement fed the throttle trajectory tail"
    );
    assert!(
        !snapshot.cpu_quota_tail.is_empty(),
        "the CPU-quota clamp fed its tail"
    );
    println!(
        "black box        : {} records, {throttle_edges} binder_throttle edges, jitter tail {} samples",
        snapshot.records.len(),
        snapshot.jitter_tail.len()
    );
    println!(
        "enforcement tails: throttle trajectory {} ticks, cpu quota {} ticks",
        snapshot.throttle_tail.len(),
        snapshot.cpu_quota_tail.len()
    );

    let metrics = drone
        .obs
        .with(|o| metrics_to_json(&o.metrics))
        .expect("attached");
    let mut combined = BTreeMap::new();
    combined.insert("black_box".to_string(), snapshot.to_json());
    combined.insert("metrics".to_string(), metrics);
    let rendered = serde_json::to_string_pretty(&Value::Object(combined)).expect("render");
    println!("{rendered}");
}
