//! The seeded chaos gate.
//!
//! Runs whole flights under generated fault plans and holds four
//! invariants on every one:
//!
//! 1. **Containment** — the vehicle never strays outside a hard
//!    bound around the base, faults or not.
//! 2. **Accounting** — energy billed to virtual drones never exceeds
//!    energy drawn from the battery, and the VDC's allotment records
//!    agree with the flight loop's billing.
//! 3. **Defined end** — every flight terminates in a defined
//!    [`EndReason`] within the safety cap.
//! 4. **Determinism** — the same seed and fault plan replayed twice
//!    produce bit-identical outcomes and state-hash traces.
//!
//! The gate's breadth is controlled by `CHAOS_SEEDS` (default 4 for
//! fast debug runs; `scripts/chaos.sh` runs 24 in release). The
//! `empty_fault_plan_is_bit_identical_to_baseline` test pins the
//! whole injector plumbing to the pre-fault-kernel baseline: a flight
//! observed by an injector with an empty plan must reproduce the
//! exact bits captured before the fault kernel existed.

use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::sanitizer::{first_divergence, Trace};
use androne::simkern::{BurstLoss, FaultKind, FaultPlan, SensorChannel};
use androne::vdc::{VirtualDroneSpec, WatchdogConfig, WaypointSpec};
use androne::{
    execute_flight_probed, Drone, EndReason, FaultInjector, FlightLog, FnProbe, ProbeStack,
};
use rand::RngCore;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 1337;
/// Hard containment bound for invariant 1, meters from base. The
/// plan's farthest leg is 60 m out; no injected fault may carry the
/// vehicle anywhere near this.
const HARD_FENCE_M: f64 = 500.0;
const MAX_SIM_S: f64 = 240.0;

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

/// Everything one chaos flight produces that the invariants inspect.
struct ChaosRun {
    completed: bool,
    end_reason: EndReason,
    duration_s: f64,
    total_energy_j: f64,
    vd1_energy_j: f64,
    log: Vec<FlightLog>,
    trace: Trace,
    actions: Vec<String>,
    max_base_distance_m: f64,
    /// `allotment - remaining` from the VDC record after flight.
    vd1_billed_j: f64,
    final_container: u32,
    pending_restarts: usize,
}

/// Boots a drone at `seed`, deploys `vd1`, and flies the standard
/// plan under `faults`, recording the sanitizer trace and invariant
/// inputs along the way.
fn run_with_faults(seed: u64, faults: FaultPlan) -> ChaosRun {
    run_with_faults_configured(seed, faults, None)
}

fn run_with_faults_configured(
    seed: u64,
    faults: FaultPlan,
    watchdog: Option<WatchdogConfig>,
) -> ChaosRun {
    let mut drone = Drone::boot(BASE, seed).expect("boot");
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)]), &[])
        .expect("deploy");
    drone.vdc.borrow_mut().set_watchdog(watchdog);
    let mut injector = FaultInjector::new(faults);
    let mut trace = Trace::default();
    let mut max_base_distance_m: f64 = 0.0;
    let outcome = {
        let mut recorder = FnProbe::new(|_, drone: &mut Drone| {
            let d = drone.sitl.position().distance_m(&BASE);
            if d > max_base_distance_m {
                max_base_distance_m = d;
            }
        });
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        probes.push(&mut trace);
        probes.push(&mut recorder);
        execute_flight_probed(&mut drone, plan(), MAX_SIM_S, None, &mut probes)
    };
    let (vd1_billed_j, final_container) = {
        let vdc = drone.vdc.borrow();
        let rec = vdc.record("vd1").expect("record survives the flight");
        (
            rec.spec.energy_allotted - rec.energy_remaining_j(),
            rec.container.0,
        )
    };
    ChaosRun {
        completed: outcome.completed,
        end_reason: outcome.end_reason,
        duration_s: outcome.duration_s,
        total_energy_j: outcome.total_energy_j,
        vd1_energy_j: outcome.vdrone_energy_j.get("vd1").copied().unwrap_or(0.0),
        log: outcome.log,
        trace,
        actions: injector.actions().to_vec(),
        max_base_distance_m,
        vd1_billed_j,
        final_container,
        pending_restarts: drone.pending_restarts.len(),
    }
}

/// Invariants 1–3 on a single run.
fn assert_invariants(run: &ChaosRun, label: &str) {
    // 1. Containment.
    assert!(
        run.max_base_distance_m <= HARD_FENCE_M,
        "{label}: vehicle strayed {:.1} m from base (bound {HARD_FENCE_M} m); actions: {:?}",
        run.max_base_distance_m,
        run.actions
    );
    // 2. Accounting: billed energy never exceeds energy drawn, and
    // the VDC allotment record agrees with the flight loop's billing
    // (up to the record's clamp at exhaustion).
    assert!(
        run.vd1_energy_j <= run.total_energy_j + 1e-6,
        "{label}: billed {:.1} J > drawn {:.1} J",
        run.vd1_energy_j,
        run.total_energy_j
    );
    let expected_billed = run.vd1_energy_j.min(40_000.0);
    assert!(
        (run.vd1_billed_j - expected_billed).abs() < 1e-6,
        "{label}: VDC record billed {:.3} J, flight loop billed {:.3} J",
        run.vd1_billed_j,
        expected_billed
    );
    assert!(run.total_energy_j >= 0.0, "{label}: negative energy");
    // 3. Defined end.
    assert!(
        run.duration_s <= MAX_SIM_S,
        "{label}: overran the safety cap"
    );
    if run.completed {
        assert_eq!(
            run.end_reason,
            EndReason::Completed,
            "{label}: completed flight must end Completed"
        );
    } else {
        assert_ne!(
            run.end_reason,
            EndReason::Completed,
            "{label}: incomplete flight may not claim Completed"
        );
    }
    if run.end_reason != EndReason::TimeExhausted {
        assert!(
            run.log.iter().any(|l| matches!(l, FlightLog::Landed)),
            "{label}: flight ended ({:?}) without landing; log: {:?}",
            run.end_reason,
            run.log
        );
    }
}

/// Invariant 4 on a pair of same-seed runs.
fn assert_dual_run_identity(a: &ChaosRun, b: &ChaosRun, label: &str) {
    if let Some(d) = first_divergence(&a.trace, &b.trace) {
        panic!(
            "{label}: dual-run divergence:\n{d}\nactions: {:?}",
            a.actions
        );
    }
    assert_eq!(
        a.duration_s.to_bits(),
        b.duration_s.to_bits(),
        "{label}: duration drift"
    );
    assert_eq!(
        a.total_energy_j.to_bits(),
        b.total_energy_j.to_bits(),
        "{label}: energy drift"
    );
    assert_eq!(
        a.vd1_energy_j.to_bits(),
        b.vd1_energy_j.to_bits(),
        "{label}: billing drift"
    );
    assert_eq!(a.log, b.log, "{label}: log drift");
    assert_eq!(a.end_reason, b.end_reason, "{label}: end-reason drift");
    assert_eq!(a.actions, b.actions, "{label}: injector action drift");
}

/// An injector with an empty plan must be a perfect no-op: the flight
/// reproduces, bit for bit, the baseline captured before the fault
/// kernel existed (same seed, same plan, pre-PR code).
#[test]
fn empty_fault_plan_is_bit_identical_to_baseline() {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)]), &[])
        .expect("deploy");
    let mut injector = FaultInjector::new(FaultPlan::empty());
    let mut trace = Trace::default();
    let outcome = {
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        probes.push(&mut trace);
        execute_flight_probed(&mut drone, plan(), MAX_SIM_S, None, &mut probes)
    };
    // Captured from the seed revision (pre-fault-kernel) at SEED=1337.
    assert!(outcome.completed);
    assert_eq!(outcome.end_reason, EndReason::Completed);
    assert_eq!(outcome.duration_s.to_bits(), 0x4051fb3333333333);
    assert_eq!(outcome.total_energy_j.to_bits(), 0x40c711038eb086ac);
    assert_eq!(outcome.vdrone_energy_j["vd1"].to_bits(), 0x40959f2c0ceda0e8);
    assert_eq!(outcome.log.len(), 4);
    assert_eq!(trace.ticks.len(), 72);
    let pos = drone.sitl.position();
    assert_eq!(pos.latitude.to_bits(), 0x4045cde1757bbf80);
    assert_eq!(pos.longitude.to_bits(), 0xc05573e7e60be039);
    assert_eq!(pos.altitude.to_bits(), 0x0);
    // The RNG streams drew exactly what they drew pre-PR: the fault
    // kernel consumed nothing.
    assert_eq!(
        drone.board.borrow_mut().rng.next_u64(),
        10880446920844866505
    );
    assert_eq!(
        drone.kernel.borrow_mut().rng().next_u64(),
        8156589452691600790
    );
    assert!(injector.actions().is_empty());
}

/// The gate proper: generated fault plans, every invariant, dual-run.
#[test]
fn chaos_gate_holds_invariants_across_seeded_plans() {
    let n: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    for i in 0..n {
        let seed = 0xC4A0_5EED ^ (i * 0x9E37_79B9);
        let faults = FaultPlan::generate(seed, 60);
        let label = format!("chaos seed {seed:#x} ({} faults)", faults.events.len());
        let a = run_with_faults(seed, faults.clone());
        assert_invariants(&a, &label);
        let b = run_with_faults(seed, faults);
        assert_dual_run_identity(&a, &b, &label);
    }
}

#[test]
fn sensor_dropout_imu_is_survivable() {
    let run = run_with_faults(
        SEED,
        FaultPlan::single(
            FaultKind::SensorDropout {
                channel: SensorChannel::Imu,
            },
            6,
            10,
        ),
    );
    assert_invariants(&run, "imu dropout");
    assert!(run.actions.iter().any(|a| a.contains("arm dropout imu")));
    assert!(run.actions.iter().any(|a| a.contains("disarm dropout imu")));
}

#[test]
fn sensor_stuck_baro_is_survivable() {
    let run = run_with_faults(
        SEED,
        FaultPlan::single(
            FaultKind::SensorStuck {
                channel: SensorChannel::Baro,
            },
            6,
            14,
        ),
    );
    assert_invariants(&run, "baro stuck");
    assert!(run.actions.iter().any(|a| a.contains("arm stuck baro")));
}

#[test]
fn sensor_bias_gps_is_survivable() {
    let run = run_with_faults(
        SEED,
        FaultPlan::single(
            FaultKind::SensorBias {
                channel: SensorChannel::Gps,
                bias: 1.5,
            },
            6,
            16,
        ),
    );
    assert_invariants(&run, "gps bias");
    assert!(run.actions.iter().any(|a| a.contains("bias(1.500) gps")));
}

#[test]
fn gps_loss_dead_reckons_through_the_outage() {
    let run = run_with_faults(SEED, FaultPlan::single(FaultKind::GpsLoss, 6, 14));
    assert_invariants(&run, "gps loss");
    // Dead reckoning on IMU + baro carries the estimator through an
    // 8 s outage well enough to finish the mission.
    assert!(
        run.completed,
        "flight should complete despite the outage; log: {:?}",
        run.log
    );
}

#[test]
fn link_partition_walks_the_failsafe_ladder_home() {
    // Partition from t=5 s past the end of any plausible flight: the
    // ladder must loiter, give up, return to launch, and land.
    let run = run_with_faults(SEED, FaultPlan::single(FaultKind::LinkPartition, 5, 1_000));
    assert_invariants(&run, "link partition");
    assert_eq!(run.end_reason, EndReason::LinkLost);
    assert!(!run.completed);
    assert!(
        run.duration_s < MAX_SIM_S,
        "failsafe landed well before the cap"
    );
}

#[test]
fn link_partition_that_heals_lets_the_flight_finish() {
    // A 4 s partition ends before the RTL rung: the ladder loiters,
    // the link returns, the pilot resumes and completes the plan.
    let run = run_with_faults(SEED, FaultPlan::single(FaultKind::LinkPartition, 5, 9));
    assert_invariants(&run, "healing partition");
    assert!(
        run.completed,
        "flight resumes after a short partition; log: {:?}",
        run.log
    );
}

#[test]
fn link_burst_loss_is_survivable() {
    let run = run_with_faults(
        SEED,
        FaultPlan::single(
            FaultKind::LinkBurstLoss {
                burst: BurstLoss::cellular_fade(),
            },
            4,
            40,
        ),
    );
    assert_invariants(&run, "burst loss");
    assert!(run
        .actions
        .iter()
        .any(|a| a.contains("arm link-burst-loss")));
}

#[test]
fn binder_transaction_failures_are_survivable() {
    let run = run_with_faults(
        SEED,
        FaultPlan::single(FaultKind::BinderFailure { period: 3 }, 5, 40),
    );
    assert_invariants(&run, "binder failure");
    assert!(run
        .actions
        .iter()
        .any(|a| a.contains("arm binder-failure/3")));
}

#[test]
fn binder_timeouts_are_survivable() {
    let run = run_with_faults(
        SEED,
        FaultPlan::single(FaultKind::BinderTimeout { period: 4 }, 5, 40),
    );
    assert_invariants(&run, "binder timeout");
    assert!(run
        .actions
        .iter()
        .any(|a| a.contains("arm binder-timeout/4")));
}

#[test]
fn container_crash_and_supervised_restart_preserve_the_allotment() {
    let baseline = run_with_faults(SEED, FaultPlan::empty());
    let run = run_with_faults(
        SEED,
        FaultPlan::single(FaultKind::ContainerCrash { target: None }, 6, 12),
    );
    assert_invariants(&run, "container crash");
    assert!(run
        .actions
        .iter()
        .any(|a| a.contains("arm container-crash vd1")));
    assert!(
        run.actions
            .iter()
            .any(|a| a.contains("disarm container-crash vd1")),
        "supervised restart ran: {:?}",
        run.actions
    );
    assert_eq!(run.pending_restarts, 0, "no orphaned checkpoints");
    assert_ne!(
        run.final_container, baseline.final_container,
        "restored container has a fresh id"
    );
    assert!(
        run.completed,
        "the restarted virtual drone's flight still completes; log: {:?}",
        run.log
    );
}

#[test]
fn battery_degradation_draws_more_energy_for_the_same_flight() {
    let nominal = run_with_faults(SEED, FaultPlan::empty());
    let degraded = run_with_faults(
        SEED,
        FaultPlan::single(FaultKind::BatteryDegradation { health: 0.7 }, 4, 1_000),
    );
    assert_invariants(&degraded, "battery degradation");
    assert!(
        degraded.total_energy_j > nominal.total_energy_j * 1.1,
        "a 70%-health pack draws visibly more: {:.0} J vs {:.0} J",
        degraded.total_energy_j,
        nominal.total_energy_j
    );
}

#[test]
fn watchdog_revokes_a_stalled_virtual_drone() {
    // vd1 has no app aboard, so its VFC forwards nothing at the
    // waypoint: with a 3 s stall timeout the watchdog revokes it
    // before the pilot's 8 s service budget would have released it.
    let run = run_with_faults_configured(
        SEED,
        FaultPlan::empty(),
        Some(WatchdogConfig {
            stall_timeout_s: 3,
            max_denials: 50,
            progress_timeout_s: None,
        }),
    );
    assert_invariants(&run, "watchdog");
    assert!(
        run.log.iter().any(|l| matches!(
            l,
            FlightLog::WaypointEnd {
                reason: EndReason::WatchdogRevoked,
                ..
            }
        )),
        "watchdog revocation shows in the log: {:?}",
        run.log
    );
}
