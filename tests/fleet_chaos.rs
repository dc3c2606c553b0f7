//! The fleet chaos gate: whole service runs — multiple waves,
//! multiple physical flights, multiple tenants — under generated
//! [`FleetFaultPlan`]s, holding four invariants on every one:
//!
//! (a) **Determinism** — the same config and fleet plan replayed
//!     twice fold to the same [`FleetOutcome::fleet_digest`].
//! (b) **Containment** — a tenant-targeted container crash never
//!     changes a *healthy* tenant's outcome bits versus the no-fault
//!     baseline run.
//! (c) **Conservation** — for every tenant that flew, billed energy
//!     and time telescope exactly across crash→resume:
//!     `allotted = Σ billed + final remaining`, and the billing
//!     ledger agrees with the VDC's allotment records.
//! (d) **Resolution** — every interrupted virtual drone either
//!     resumes to completion or is terminally refunded its unserved
//!     remainder; nothing is silently dropped.
//!
//! The `empty_fleet_plan_is_bit_identical_to_pr3_baseline` test pins
//! the fleet plumbing to the PR 3 chaos-gate baseline: driving the
//! single-flight scenario through `FleetFaultPlan::empty()`'s
//! effective plan must reproduce the exact pre-fleet bits.
//!
//! Breadth is controlled by `FLEET_CHAOS_SEEDS` (default 8; the
//! release gate in `scripts/chaos.sh --fleet` runs the same count).

use androne::android::DeviceClass;
use androne::fleet::{FleetConfig, FleetOutcome, FleetSpec, FleetTenant, TenantResolution};
use androne::hal::GeoPoint;
use androne::mavlink::{deg_to_e7, Message};
use androne::sanitizer::Trace;
use androne::simkern::{
    CloudFaultEvent, CloudFaultKind, FaultEvent, FaultKind, FaultPlan, FleetFaultPlan,
};
use androne::vdc::{VirtualDroneSpec, WatchdogConfig, WaypointSpec};
use androne::{
    execute_flight_probed, Drone, EndReason, FaultInjector, FlightLog, FnProbe, ProbeStack,
};
use rand::RngCore;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
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

/// The PR 3 chaos-gate scenario spec, bit-for-bit.
fn pr3_spec() -> VirtualDroneSpec {
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

fn pr3_plan() -> androne::planner::FlightPlan {
    androne::planner::FlightPlan {
        base: BASE,
        legs: vec![androne::planner::Leg {
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

/// Tenants for a fleet run: two waypoints each, with energy
/// allotments sized so the VRP *must* split the wave across at least
/// two physical flights (3 × 60 kJ of service energy exceeds one
/// pack's ~160 kJ plannable budget).
fn fleet_tenants(n: usize) -> Vec<FleetTenant> {
    (0..n)
        .map(|i| {
            let k = i as f64;
            FleetTenant {
                vd_name: format!("vd{}", i + 1),
                user: format!("user{}", i + 1),
                spec: VirtualDroneSpec {
                    waypoints: vec![
                        wp(40.0 + 9.0 * k, -30.0 + 14.0 * k, 40.0),
                        wp(62.0 - 6.0 * k, 25.0 + 11.0 * k, 40.0),
                    ],
                    max_duration: 8.0,
                    energy_allotted: 60_000.0,
                    continuous_devices: vec![],
                    waypoint_devices: vec!["camera".into(), "flight-control".into()],
                    apps: vec![],
                    app_args: Default::default(),
                },
            }
        })
        .collect()
}

fn gate_config(seed: u64, n_tenants: usize) -> FleetConfig {
    FleetConfig {
        base: BASE,
        seed,
        fleet_size: 2,
        tenants: fleet_tenants(n_tenants),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads: 1,
    }
}

/// Invariants (c) and (d) plus per-flight sanity on one run.
fn assert_run_invariants(cfg: &FleetConfig, run: &FleetOutcome, label: &str) {
    assert_eq!(
        run.tenants.len(),
        cfg.tenants.len(),
        "{label}: tenant lost from the outcome"
    );
    for f in &run.flights {
        assert!(
            f.duration_s <= cfg.max_sim_seconds,
            "{label}: flight {} overran the safety cap",
            f.flight_index
        );
        assert!(f.total_energy_j >= 0.0, "{label}: negative energy");
        assert!(!f.owners.is_empty(), "{label}: flight without tenants");
    }
    for (name, t) in &run.tenants {
        // (c) conservation: the allotment telescopes exactly across
        // every flight (resume carries the remainder), and the
        // billing ledger agrees with the VDC-side accumulation.
        if t.flights_flown > 0 {
            let energy_gap = t.energy_allotted_j - t.billed_energy_j - t.remaining_energy_j;
            assert!(
                energy_gap.abs() < 1e-6,
                "{label}: {name} energy not conserved: allotted {:.3} = billed {:.3} + remaining {:.3} (gap {energy_gap:.9})",
                t.energy_allotted_j,
                t.billed_energy_j,
                t.remaining_energy_j
            );
            let time_allotted = cfg
                .tenants
                .iter()
                .find(|x| &x.vd_name == name)
                .map(|x| x.spec.max_duration)
                .unwrap_or(0.0);
            let time_gap = time_allotted - t.billed_time_s - t.remaining_time_s;
            assert!(
                time_gap.abs() < 1e-6,
                "{label}: {name} time not conserved (gap {time_gap:.9})"
            );
        }
        assert!(
            (t.ledger_energy_j - t.billed_energy_j).abs() < 1e-6,
            "{label}: {name} ledger billed {:.3} J but the VDC records say {:.3} J",
            t.ledger_energy_j,
            t.billed_energy_j
        );
        assert!(
            (t.ledger_refund_j - t.refunded_energy_j).abs() < 1e-6,
            "{label}: {name} ledger refund disagrees"
        );
        // (d) resolution: completed missions served every waypoint;
        // everything else was terminally refunded its unserved
        // remainder (the full allotment if it never flew).
        match t.resolution {
            TenantResolution::Completed => {
                assert_eq!(
                    t.waypoints_completed, t.waypoints_total,
                    "{label}: {name} resolved Completed with waypoints unserved"
                );
                assert_eq!(
                    t.refunded_energy_j, 0.0,
                    "{label}: {name} completed but also refunded"
                );
            }
            TenantResolution::Refunded => {
                let expected = if t.flights_flown == 0 {
                    t.energy_allotted_j
                } else {
                    t.remaining_energy_j
                };
                assert!(
                    (t.refunded_energy_j - expected).abs() < 1e-6,
                    "{label}: {name} refunded {:.3} J, expected {expected:.3} J",
                    t.refunded_energy_j
                );
            }
        }
    }
}

/// The gate proper: generated fleet plans, dual-run identity, crash
/// containment against the no-fault baseline, conservation, and
/// resolution — `FLEET_CHAOS_SEEDS` plans (default 8).
#[test]
fn fleet_gate_holds_invariants_across_generated_plans() {
    let n: u64 = std::env::var("FLEET_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    for i in 0..n {
        let seed = 0xF1EE_5EED ^ (i.wrapping_mul(0x9E37_79B9));
        let cfg = gate_config(seed, 3 + (i as usize % 2));
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
        let faults = FleetFaultPlan::generate(seed, 3, &tenant_names, 150);
        let label = format!(
            "fleet seed {seed:#x} ({} tenants, {} flight plans, {} correlated, {} cloud)",
            cfg.tenants.len(),
            faults.flights.len(),
            faults.correlated.len(),
            faults.cloud.len()
        );

        // (a) dual-run bit-identity of the full faulted run.
        let a = FleetSpec::new(cfg.clone())
            .faults(faults.clone())
            .run()
            .expect("fleet run");
        let b = FleetSpec::new(cfg.clone())
            .faults(faults.clone())
            .run()
            .expect("fleet rerun");
        assert_eq!(
            a.fleet_digest(),
            b.fleet_digest(),
            "{label}: dual-run fleet divergence"
        );
        assert_eq!(
            a.flights.len(),
            b.flights.len(),
            "{label}: flight count drift"
        );
        assert_run_invariants(&cfg, &a, &label);

        // (a') thread-count independence: the parallel wave executor
        // must merge to the exact sequential run — fleet digest AND
        // the merged metrics registry digest — at every width in the
        // matrix (`FLEET_CHAOS_THREADS`, default "1 4 8").
        let widths = std::env::var("FLEET_CHAOS_THREADS").unwrap_or_else(|_| "1 4 8".into());
        for width in widths.split_whitespace() {
            let threads: usize = width.parse().expect("FLEET_CHAOS_THREADS entry");
            let mut tcfg = cfg.clone();
            tcfg.threads = threads;
            let t = FleetSpec::new(tcfg.clone())
                .faults(faults.clone())
                .run()
                .expect("threaded fleet run");
            assert_eq!(
                a.fleet_digest(),
                t.fleet_digest(),
                "{label}: fleet digest diverged at threads={threads}"
            );
            assert_eq!(
                a.metrics_digest(),
                t.metrics_digest(),
                "{label}: metrics digest diverged at threads={threads}"
            );
        }

        // Scale: every gate plan must exercise a real fleet.
        assert!(
            a.flights.len() >= 2,
            "{label}: expected >= 2 physical flights, got {}",
            a.flights.len()
        );
        assert!(cfg.tenants.len() >= 2, "{label}: degenerate tenant set");

        // (b) crash containment: replay only the tenant-targeted
        // container crashes and compare every *healthy* tenant's
        // outcome bits against the no-fault baseline. If the
        // generated plan crashed nobody, synthesize a victim so the
        // invariant is never vacuous.
        let baseline = FleetSpec::new(cfg.clone()).run().expect("baseline run");
        assert_run_invariants(&cfg, &baseline, &format!("{label} [baseline]"));
        let mut crash = faults.crash_only();
        if crash.is_empty() {
            crash.flights = vec![FaultPlan {
                seed: crash.seed,
                events: vec![FaultEvent {
                    kind: FaultKind::ContainerCrash {
                        target: Some(baseline.flights[0].owners[0].clone()),
                    },
                    arm_tick: 25,
                    disarm_tick: 40,
                }],
            }];
        }
        let crashed = FleetSpec::new(cfg.clone())
            .faults(crash.clone())
            .run()
            .expect("crash-only run");
        assert_run_invariants(&cfg, &crashed, &format!("{label} [crash-only]"));
        let victims = crash.crash_targets();
        assert!(!victims.is_empty(), "{label}: no crash victim to contain");
        for (name, t) in &baseline.tenants {
            if victims.contains(name) {
                continue;
            }
            assert_eq!(
                t.outcome_bits(),
                crashed.tenants[name].outcome_bits(),
                "{label}: co-tenant crash of {victims:?} perturbed healthy tenant {name}"
            );
        }
    }
}

/// An empty fleet plan driven through the fleet fault machinery must
/// reproduce the PR 3 chaos-gate baseline literals bit-for-bit: the
/// fleet layer consumed nothing.
#[test]
fn empty_fleet_plan_is_bit_identical_to_pr3_baseline() {
    let fleet = FleetFaultPlan::empty();
    assert!(fleet.is_empty());
    assert!(fleet.crash_only().is_empty());
    assert!(fleet.cloud_armed(0).is_empty());

    let mut drone = Drone::boot(BASE, 1337).expect("boot");
    drone.deploy_vdrone("vd1", pr3_spec(), &[]).expect("deploy");
    let mut injector = FaultInjector::new(fleet.effective_plan(0));
    let mut trace = Trace::default();
    let outcome = {
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        probes.push(&mut trace);
        execute_flight_probed(&mut drone, pr3_plan(), MAX_SIM_S, None, &mut probes)
    };
    // The PR 3 baseline literals, captured at SEED=1337 and
    // re-captured when the sensor noise moved to polar-method pairs.
    assert!(outcome.completed);
    assert_eq!(outcome.end_reason, EndReason::Completed);
    assert_eq!(outcome.duration_s.to_bits(), 0x4052291eb851eb85);
    assert_eq!(outcome.total_energy_j.to_bits(), 0x40c74d629a6e0c63);
    assert_eq!(outcome.vdrone_energy_j["vd1"].to_bits(), 0x4094e95efcfd2bf0);
    assert_eq!(outcome.log.len(), 4);
    assert_eq!(trace.ticks.len(), 73);
    assert_eq!(
        drone.board.borrow_mut().rng.next_u64(),
        13181590181413937468
    );
    assert_eq!(
        drone.kernel.borrow_mut().rng().next_u64(),
        8156589452691600790
    );
    assert!(injector.actions().is_empty());
}

/// Cloud degraded mode end-to-end: a portal outage in wave 0 queues
/// the orders; the heal merges them into wave 1's planning round and
/// the tenants still complete.
#[test]
fn portal_outage_defers_the_wave_and_orders_still_complete() {
    let cfg = gate_config(0x90A7A1, 3);
    let faults = FleetFaultPlan {
        seed: 0,
        flights: Vec::new(),
        correlated: Vec::new(),
        cloud: vec![CloudFaultEvent {
            kind: CloudFaultKind::PortalDown,
            arm_wave: 0,
            disarm_wave: 1,
        }],
    };
    let run = FleetSpec::new(cfg.clone())
        .faults(faults.clone())
        .run()
        .expect("fleet run");
    assert_run_invariants(&cfg, &run, "portal outage");
    assert!(run.waves_run >= 2, "the outage consumed wave 0");
    assert!(
        run.flights.iter().all(|f| f.wave >= 1),
        "no flight flew through the outage"
    );
    assert!(
        run.cloud_log.iter().any(|l| l.contains("orders queued")),
        "degraded mode logged: {:?}",
        run.cloud_log
    );
    assert!(
        run.tenants
            .values()
            .all(|t| t.resolution == TenantResolution::Completed),
        "tenants completed after the heal: {:?}",
        run.tenants
    );
}

/// Cross-flight resume end-to-end: a long link partition latches the
/// failsafe RTL on flight 0, the interrupted virtual drone is saved
/// with its remaining allotment, a VDR outage defers the resume one
/// wave, and the resumed flight finishes the mission — energy and
/// time conserved across all of it.
#[test]
fn link_partition_interrupts_then_vdr_heals_and_the_drone_resumes() {
    let cfg = FleetConfig {
        base: BASE,
        seed: 0x2E50BE,
        fleet_size: 1,
        tenants: fleet_tenants(1),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads: 1,
    };
    let faults = FleetFaultPlan {
        seed: 0,
        flights: vec![FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                kind: FaultKind::LinkPartition,
                arm_tick: 6,
                disarm_tick: 28,
            }],
        }],
        correlated: Vec::new(),
        cloud: vec![CloudFaultEvent {
            kind: CloudFaultKind::VdrUnavailable,
            arm_wave: 1,
            disarm_wave: 2,
        }],
    };
    let run = FleetSpec::new(cfg.clone())
        .faults(faults.clone())
        .run()
        .expect("fleet run");
    assert_run_invariants(&cfg, &run, "link partition resume");

    let t = &run.tenants["vd1"];
    assert_eq!(
        run.flights[0].end_reason,
        EndReason::LinkLost,
        "flight 0 ended on the failsafe ladder: {:?}",
        run.flights[0]
    );
    assert!(
        t.flights_flown >= 2,
        "the mission needed a resume flight: {t:?}"
    );
    assert_eq!(
        t.resolution,
        TenantResolution::Completed,
        "the resumed flight finished the mission: {t:?}"
    );
    assert_eq!(t.waypoints_completed, t.waypoints_total);
    // The VDR outage deferred the resume: nothing flew in wave 1.
    assert!(
        run.flights.iter().all(|f| f.wave != 1),
        "wave 1 was the VDR outage: {:?}",
        run.flights
    );
}

/// The progress watchdog (ISSUE satellite): a tenant busy-looping
/// valid commands without mission progress evades the stall signal
/// but not the progress heartbeat — it is revoked; the same tenant
/// heartbeating via the SDK keeps its waypoint.
#[test]
fn progress_watchdog_revokes_busy_loop_but_spares_heartbeats() {
    let watchdog = WatchdogConfig {
        stall_timeout_s: 100,
        max_denials: 50,
        progress_timeout_s: Some(3),
    };
    let target = BASE.offset_m(60.0, 0.0, 15.0);
    let run = |heartbeat: bool| -> Vec<FlightLog> {
        let mut drone = Drone::boot(BASE, 1337).expect("boot");
        drone.deploy_vdrone("vd1", pr3_spec(), &[]).expect("deploy");
        drone.vdc.borrow_mut().set_watchdog(Some(watchdog));
        let outcome = {
            let mut observer = FnProbe::new(|_tick, d: &mut Drone| {
                if d.allows("vd1", DeviceClass::Camera) {
                    // Busy loop: a whitelisted, in-fence command every
                    // second — the stall counter never fires.
                    d.proxy.client_send(
                        "vd1",
                        Message::SetPositionTargetGlobalInt {
                            lat: deg_to_e7(target.latitude),
                            lon: deg_to_e7(target.longitude),
                            alt: 15.0,
                            speed: 2.0,
                        },
                        &mut d.sitl,
                    );
                    if heartbeat {
                        d.vdc.borrow_mut().report_progress("vd1");
                    }
                }
            });
            execute_flight_probed(&mut drone, pr3_plan(), MAX_SIM_S, None, &mut observer)
        };
        outcome.log
    };

    let revoked = |log: &[FlightLog]| {
        log.iter().any(|l| {
            matches!(
                l,
                FlightLog::WaypointEnd {
                    reason: EndReason::WatchdogRevoked,
                    ..
                }
            )
        })
    };
    let busy = run(false);
    assert!(
        revoked(&busy),
        "busy-looping without progress is revoked: {busy:?}"
    );
    let heartbeating = run(true);
    assert!(
        !revoked(&heartbeating),
        "the progress heartbeat keeps the waypoint: {heartbeating:?}"
    );
}
