//! The adversarial-tenant gate: seeded DoS attack plans driven
//! against full fleet runs, holding five invariants:
//!
//! (a) **RT envelope under attack** — with per-tenant enforcement
//!     armed ([`AttackDefense`]), no attacked flight's 400 Hz fast
//!     loop ever misses ArduPilot's 2500 µs deadline, and the worst
//!     wakeup latency stays inside the paper's PREEMPT_RT envelope.
//! (b) **Breach without enforcement** — the same attack machinery
//!     with `defense: None` demonstrably blows the deadline: the
//!     isolation mechanisms are load-bearing, not decorative.
//! (c) **Determinism** — attacked runs replay bit-identically
//!     (fleet digest AND merged metrics digest) at threads 1/4/8.
//! (d) **Terminal outcomes** — every attacked tenant still resolves:
//!     completed missions bill, everything else is terminally
//!     refunded; the escalation ladder (budget → rate-halving →
//!     suspension → revocation) degrades gracefully, never hangs.
//! (e) **Zero-work when empty** — a `FleetSpec` with
//!     [`FleetAttackPlan::none`] attacks is bit-identical to the
//!     riderless `FleetSpec` run.
//!
//! Breadth is controlled by `ATTACK_SEEDS` (default 4; the release
//! gate in `scripts/attack.sh` runs the same count) and the thread
//! matrix by `ATTACK_THREADS` (default "1 4 8").

use std::collections::BTreeMap;

use androne::fleet::{
    FleetAttackPlan, FleetConfig, FleetOutcome, FleetSpec, FleetTenant, TenantResolution,
};
use androne::hal::GeoPoint;
use androne::simkern::latency::profiles;
use androne::simkern::{ContainerId, FleetFaultPlan, Kernel, KernelConfig};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::workloads::{
    run_cyclictest, AdaptivePlan, AdaptiveStrategy, AttackKind, AttackPlan, ARDUPILOT_DEADLINE_US,
};
use androne::AttackDefense;

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

/// Tenants matching the fleet chaos gate's geometry so the VRP
/// splits every wave across at least two physical flights.
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

/// Terminal-outcome invariant (d): every tenant resolves, the ledger
/// agrees with the VDC records, completion and refunds are exact.
fn assert_terminal_outcomes(run: &FleetOutcome, label: &str) {
    for (name, t) in &run.tenants {
        assert!(
            (t.ledger_energy_j - t.billed_energy_j).abs() < 1e-6,
            "{label}: {name} ledger billed {:.3} J but VDC records say {:.3} J",
            t.ledger_energy_j,
            t.billed_energy_j
        );
        assert!(
            (t.ledger_refund_j - t.refunded_energy_j).abs() < 1e-6,
            "{label}: {name} ledger refund disagrees"
        );
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

/// The gate proper, invariants (a), (c), (d): generated attack plans
/// with enforcement armed never miss the fast-loop deadline, replay
/// bit-identically at every thread width, and every tenant resolves.
#[test]
fn attacked_fleet_holds_deadline_and_determinism() {
    let n: u64 = std::env::var("ATTACK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    for i in 0..n {
        let seed = 0xA77A_C4ED ^ (i.wrapping_mul(0x9E37_79B9));
        let cfg = gate_config(seed, 3 + (i as usize % 2));
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
        // Attack the first two physical flights of the run; later
        // flights fly clean so the gate also covers the mixed case.
        let mut flights = BTreeMap::new();
        flights.insert(0usize, AttackPlan::generate(seed, 120, &tenant_names));
        flights.insert(
            1usize,
            AttackPlan::generate(seed ^ 0xDEAD, 120, &tenant_names),
        );
        let attacks = FleetAttackPlan {
            flights,
            defense: Some(AttackDefense::default()),
            ..FleetAttackPlan::none()
        };
        let label = format!("attack seed {seed:#x} ({} tenants)", cfg.tenants.len());

        // (c) dual-run bit-identity of the attacked run.
        let a = FleetSpec::new(cfg.clone())
            .attacks(attacks.clone())
            .run()
            .expect("run");
        let b = FleetSpec::new(cfg.clone())
            .attacks(attacks.clone())
            .run()
            .expect("rerun");
        assert_eq!(
            a.fleet_digest(),
            b.fleet_digest(),
            "{label}: dual-run divergence"
        );
        assert_eq!(
            a.metrics_digest(),
            b.metrics_digest(),
            "{label}: dual-run metrics divergence"
        );

        // (c') thread-count independence of the attacked executor.
        let widths = std::env::var("ATTACK_THREADS").unwrap_or_else(|_| "1 4 8".into());
        for width in widths.split_whitespace() {
            let threads: usize = width.parse().expect("ATTACK_THREADS entry");
            let mut tcfg = cfg.clone();
            tcfg.threads = threads;
            let t = FleetSpec::new(tcfg.clone())
                .attacks(attacks.clone())
                .run()
                .expect("threaded run");
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

        // (a) the monitor rode every attacked flight and the fast
        // loop stayed inside the RT envelope end to end.
        let monitored: Vec<_> = a
            .flights
            .iter()
            .filter(|f| f.rt_deadline.is_some())
            .collect();
        assert!(
            !monitored.is_empty(),
            "{label}: no flight carried the RT monitor"
        );
        for f in &monitored {
            let Some((samples, misses, max_us)) = f.rt_deadline else {
                continue;
            };
            assert!(
                samples > 0,
                "{label}: flight {} sampled nothing",
                f.flight_index
            );
            assert_eq!(
                misses, 0,
                "{label}: flight {} missed the 2500 µs deadline {misses}/{samples} times under enforcement (max {max_us:.1} µs)",
                f.flight_index
            );
            assert!(
                max_us < ARDUPILOT_DEADLINE_US,
                "{label}: flight {} worst wakeup {max_us:.1} µs left the RT envelope",
                f.flight_index
            );
        }
        // Unattacked flights carry no monitor — the machinery stays
        // scoped to the flights the plan names.
        for f in a.flights.iter().filter(|f| f.flight_index > 1) {
            assert!(
                f.rt_deadline.is_none(),
                "{label}: clean flight {} grew a monitor",
                f.flight_index
            );
        }

        // (d) every tenant — attacked or not — reached a terminal,
        // ledger-consistent outcome.
        assert_eq!(a.tenants.len(), cfg.tenants.len(), "{label}: tenant lost");
        assert_terminal_outcomes(&a, &label);
    }
}

/// Invariant (b): a pinned Binder-flood plan with enforcement
/// disabled breaches the 2500 µs fast loop; the identical plan with
/// the default defense armed does not. The contrast is the PR's
/// thesis in one test.
#[test]
fn unenforced_flood_breaches_the_fast_loop_and_defense_restores_it() {
    let cfg = FleetConfig {
        base: BASE,
        seed: 0xD05_A77C,
        fleet_size: 1,
        tenants: fleet_tenants(1),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads: 1,
    };
    let plan = AttackPlan::single(AttackKind::BinderFlood { per_tick: 600 }, "vd1", 2, 60);
    let mut flights = BTreeMap::new();
    flights.insert(0usize, plan);

    let unenforced = FleetAttackPlan {
        flights: flights.clone(),
        defense: None,
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone())
        .attacks(unenforced.clone())
        .run()
        .expect("run");
    let (samples, misses, max_us) = run.flights[0]
        .rt_deadline
        .expect("the attacked flight carries the monitor");
    assert!(samples > 0);
    assert!(
        misses > 0,
        "unenforced flood should breach the deadline (max {max_us:.1} µs over {samples} samples)"
    );
    assert!(
        max_us > ARDUPILOT_DEADLINE_US,
        "unenforced worst case {max_us:.1} µs should exceed 2500 µs"
    );
    assert_terminal_outcomes(&run, "unenforced flood");

    let defended = FleetAttackPlan {
        flights,
        defense: Some(AttackDefense::default()),
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone())
        .attacks(defended.clone())
        .run()
        .expect("run");
    let (samples, misses, max_us) = run.flights[0].rt_deadline.expect("monitor rode the flight");
    assert!(samples > 0);
    assert_eq!(
        misses, 0,
        "the defended flood missed {misses}/{samples} deadlines (max {max_us:.1} µs)"
    );
    assert!(
        max_us < ARDUPILOT_DEADLINE_US,
        "defended max {max_us:.1} µs"
    );
    // The defense actually engaged: the flood tripped the budget and
    // the throttle counters surfaced in the merged metrics.
    assert!(
        run.flights[0]
            .injected
            .iter()
            .any(|l| l.contains("binder-flood")),
        "attack transitions logged: {:?}",
        run.flights[0].injected
    );
    assert_terminal_outcomes(&run, "defended flood");
}

/// Invariant (b) at the benchmark layer: cyclictest run exactly as
/// the paper's Section 6.2 does, against the attack interference
/// profiles. Throttled residual interference stays inside the
/// PREEMPT_RT envelope; the unthrottled profile shows the
/// millisecond tail and misses the ArduPilot deadline.
#[test]
fn cyclictest_bounds_the_throttled_attack_and_exposes_the_raw_one() {
    const LOOPS: u64 = 300_000;

    let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 11);
    kernel.add_interference(profiles::attack_throttled("attack:binder-flood"));
    let throttled = run_cyclictest(&mut kernel, ContainerId(2), LOOPS);
    assert!(
        throttled.max_us() < ARDUPILOT_DEADLINE_US,
        "throttled attack max {} µs",
        throttled.max_us()
    );
    assert_eq!(throttled.deadline_misses, 0);

    let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 11);
    kernel.add_interference(profiles::attack_unenforced("attack:binder-flood"));
    let raw = run_cyclictest(&mut kernel, ContainerId(2), LOOPS);
    assert!(
        raw.deadline_misses > 0,
        "unenforced attack must miss the fast loop (max {} µs)",
        raw.max_us()
    );
    assert!(
        raw.max_us() > ARDUPILOT_DEADLINE_US,
        "max {} µs",
        raw.max_us()
    );
    assert!(
        raw.max_us() > throttled.max_us(),
        "enforcement shrank the tail: {} vs {}",
        throttled.max_us(),
        raw.max_us()
    );
}

/// `(fleet_digest, metrics_digest)` of the escalation-ladder run.
/// Thread-matrix and dual-run equality cannot see a drift that is the
/// same in every run; these absolute pins can.
const LADDER_PIN: (u64, u64) = (0x0822b5162adda403, 0x95767b378e9f4e0b);

/// `(fleet_digest, metrics_digest)` of the hysteresis-recovery run
/// (identical at every thread width).
const RECOVERY_PIN: (u64, u64) = (0xf46142c3e08ae990, 0x983a8a67a80f561c);

/// Invariant (d) in depth: an aggressive flood against tight ladder
/// thresholds walks budget → rate-halved → suspended → revoked, the
/// revoked tenant is terminally refunded, and the flight still ends
/// cleanly — graceful degradation, not a hang.
#[test]
fn escalation_ladder_walks_to_revocation_and_still_resolves() {
    let cfg = FleetConfig {
        base: BASE,
        seed: 0x1ADDE2,
        fleet_size: 1,
        tenants: fleet_tenants(1),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads: 1,
    };
    let mut flights = BTreeMap::new();
    flights.insert(
        0usize,
        AttackPlan::single(AttackKind::BinderFlood { per_tick: 800 }, "vd1", 2, 200),
    );
    let attacks = FleetAttackPlan {
        flights,
        defense: Some(AttackDefense {
            halve_after: 8,
            suspend_after: 600,
            revoke_after: 2_000,
            ..AttackDefense::default()
        }),
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone())
        .attacks(attacks.clone())
        .run()
        .expect("run");
    assert_eq!(
        (run.fleet_digest(), run.metrics_digest()),
        LADDER_PIN,
        "the escalation-ladder run drifted from its pinned digests"
    );
    let f = &run.flights[0];
    let ladder: Vec<&String> = f.injected.iter().filter(|l| l.contains("ladder")).collect();
    for rung in ["rate-halved", "suspended", "revoked"] {
        assert!(
            ladder.iter().any(|l| l.contains(rung)),
            "ladder never reached {rung}: {ladder:?}"
        );
    }
    // One rung per tick at most: the escalation is ordered and
    // gradual, and each rung appears exactly once.
    assert_eq!(ladder.len(), 3, "each rung fires once: {ladder:?}");
    let t = &run.tenants["vd1"];
    assert_eq!(
        t.resolution,
        TenantResolution::Refunded,
        "the revoked tenant is terminally refunded: {t:?}"
    );
    let (_, misses, max_us) = f.rt_deadline.expect("monitor rode the flight");
    assert_eq!(
        misses, 0,
        "enforced even while escalating (max {max_us:.1} µs)"
    );
    assert_terminal_outcomes(&run, "ladder");
}

/// One flight carrying an open-loop plan and an adaptive plan that
/// name the same attacker walks that attacker on ONE ladder. The
/// open-loop injector arms the budget first (tick 2), so it owns the
/// ladder entry; the adaptive injector (armed at tick 3) finds the
/// budget already armed and leaves the attacker off its own ladder.
/// Two ladders reading one throttle counter would step the tenant
/// twice per rung — suspended and rate-halved in the same tick,
/// revoked twice.
#[test]
fn one_attacker_under_both_plan_kinds_walks_one_ladder() {
    let cfg = FleetConfig {
        base: BASE,
        seed: 0x1ADDE2,
        fleet_size: 1,
        tenants: fleet_tenants(1),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads: 1,
    };
    let mut flights = BTreeMap::new();
    flights.insert(
        0usize,
        AttackPlan::single(AttackKind::BinderFlood { per_tick: 800 }, "vd1", 2, 200),
    );
    let mut adaptive = BTreeMap::new();
    adaptive.insert(
        0usize,
        AdaptivePlan::single(AdaptiveStrategy::RefillProbe, "vd1", 3, 200),
    );
    let attacks = FleetAttackPlan {
        flights,
        adaptive,
        defense: Some(AttackDefense {
            halve_after: 8,
            suspend_after: 600,
            revoke_after: 2_000,
            ..AttackDefense::default()
        }),
    };
    let run = FleetSpec::new(cfg).attacks(attacks).run().expect("run");
    let ladder: Vec<&String> = run.flights[0]
        .injected
        .iter()
        .filter(|l| l.contains(" ladder vd1 "))
        .collect();
    for rung in ["rate-halved", "suspended", "revoked"] {
        let steps = ladder
            .iter()
            .filter(|l| l.contains(&format!("-> {rung} ")))
            .count();
        assert_eq!(steps, 1, "vd1 should reach {rung} exactly once: {ladder:?}");
    }
    let mut ticks: Vec<&str> = ladder
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let all = ticks.len();
    ticks.sort_unstable();
    ticks.dedup();
    assert_eq!(
        ticks.len(),
        all,
        "vd1 stepped twice in one tick: {ladder:?}"
    );
    assert_terminal_outcomes(&run, "both plan kinds");
}

/// Invariant (e): the attacked executor with no attack plan is
/// bit-identical to the legacy path — empty plans are provably
/// zero-work, so every pre-existing pinned digest stands.
#[test]
fn empty_attack_plan_is_zero_work() {
    let cfg = gate_config(0xF1EE_5EED, 3);
    let faults = FleetFaultPlan::empty();
    let legacy = FleetSpec::new(cfg.clone())
        .faults(faults.clone())
        .run()
        .expect("legacy run");
    let attacked = FleetSpec::new(cfg.clone())
        .faults(faults.clone())
        .attacks(FleetAttackPlan::none())
        .run()
        .expect("run");
    assert_eq!(legacy.fleet_digest(), attacked.fleet_digest());
    assert_eq!(legacy.metrics_digest(), attacked.metrics_digest());

    // A defense posture with no attack events is still zero-work:
    // enforcement arms per-attacker at attack-arm time, never
    // preemptively.
    let mut flights = BTreeMap::new();
    flights.insert(0usize, AttackPlan::empty());
    let armed_but_empty = FleetAttackPlan {
        flights,
        defense: Some(AttackDefense::default()),
        ..FleetAttackPlan::none()
    };
    assert!(armed_but_empty.is_empty());
    let run = FleetSpec::new(cfg.clone())
        .faults(faults.clone())
        .attacks(armed_but_empty.clone())
        .run()
        .expect("run");
    assert_eq!(legacy.fleet_digest(), run.fleet_digest());
    assert_eq!(legacy.metrics_digest(), run.metrics_digest());
    assert!(run.flights.iter().all(|f| f.rt_deadline.is_none()));
}

/// Ladder hysteresis: "Suspended is recoverable" made real. A flood
/// pushes the tenant up to `Suspended` against tight thresholds,
/// then stops; with `decay_after` armed, consecutive quiet ticks
/// step the tenant back down (suspension lifted, then the halved
/// rate restored) and the mission still finishes `Completed` — not
/// `Refunded` — with identical digests at threads 1/4/8.
#[test]
fn suspended_tenant_recovers_and_completes_after_going_quiet() {
    let run_at = |threads: usize| {
        let cfg = FleetConfig {
            base: BASE,
            seed: 0x5E1F_CA2E,
            fleet_size: 1,
            tenants: fleet_tenants(1),
            max_waves: 6,
            max_sim_seconds: MAX_SIM_S,
            watchdog: None,
            threads,
        };
        let mut flights = BTreeMap::new();
        flights.insert(
            0usize,
            AttackPlan::single(AttackKind::BinderFlood { per_tick: 800 }, "vd1", 2, 12),
        );
        let attacks = FleetAttackPlan {
            flights,
            defense: Some(AttackDefense {
                halve_after: 8,
                suspend_after: 600,
                revoke_after: 1_000_000,
                decay_after: Some(3),
                ..AttackDefense::default()
            }),
            ..FleetAttackPlan::none()
        };
        FleetSpec::new(cfg.clone())
            .attacks(attacks.clone())
            .run()
            .expect("run")
    };
    let run = run_at(1);
    assert_eq!(
        (run.fleet_digest(), run.metrics_digest()),
        RECOVERY_PIN,
        "the hysteresis-recovery run drifted from its pinned digests"
    );
    let f = &run.flights[0];
    let ladder: Vec<&String> = f.injected.iter().filter(|l| l.contains("ladder")).collect();
    // Up while the flood runs...
    assert!(
        ladder.iter().any(|l| l.contains("-> suspended")),
        "the flood never reached suspension: {ladder:?}"
    );
    // ...and back down after it goes quiet: suspension lifted, then
    // the halved rate restored.
    assert!(
        ladder.iter().any(|l| l.contains("~> rate-halved")),
        "hysteresis never lifted the suspension: {ladder:?}"
    );
    assert!(
        ladder.iter().any(|l| l.contains("~> budgeted")),
        "hysteresis never restored the rate: {ladder:?}"
    );
    let t = &run.tenants["vd1"];
    assert_eq!(
        t.resolution,
        TenantResolution::Completed,
        "the recovered tenant must complete, not refund: {t:?}"
    );
    let (_, misses, max_us) = f.rt_deadline.expect("monitor rode the flight");
    assert_eq!(
        misses, 0,
        "enforced throughout recovery (max {max_us:.1} µs)"
    );
    assert_terminal_outcomes(&run, "recovery");
    for threads in [4usize, 8] {
        let other = run_at(threads);
        assert_eq!(
            run.fleet_digest(),
            other.fleet_digest(),
            "threads {threads}: fleet digest diverged"
        );
        assert_eq!(
            run.metrics_digest(),
            other.metrics_digest(),
            "threads {threads}: metrics digest diverged"
        );
    }
}
