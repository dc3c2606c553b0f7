//! The parallel wave executor's contract tests:
//!
//! - **Legacy pin** — `threads = 1` must reproduce the exact
//!   pre-parallelism fleet digests on the chaos gate's 8 generated
//!   plans (faulted and no-fault baseline), byte for byte. The
//!   literals below were captured from the sequential executor
//!   immediately before the worker pool landed.
//! - **Merge determinism** — the pool returns results in input order
//!   no matter which worker finishes first (scrambled with real
//!   sleeps, and property-tested across widths).
//! - **Panic containment** — a panicking island scraps its flight
//!   and defers its tenants; the run completes and every other
//!   tenant resolves normally, at every thread count.
//! - **Scrap re-batching** — a flight that flies after a deploy
//!   scrap in its batch takes the index the scrap left free, pinned
//!   and equal at widths 1 and 4.

use androne::cloud::{FallibleCloud, PlacedOrder};
use androne::fleet::{FleetConfig, FleetSpec, FleetTenant, TenantResolution};
use androne::hal::GeoPoint;
use androne::pool::{WorkerError, WorkerPool};
use androne::simkern::FleetFaultPlan;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use proptest::prelude::*;

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

/// The chaos gate's tenant set, bit-for-bit (see `fleet_chaos.rs`).
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

fn gate_config(seed: u64, n_tenants: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        base: BASE,
        seed,
        fleet_size: 2,
        tenants: fleet_tenants(n_tenants),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads,
    }
}

/// Pre-parallelism fleet digests of the chaos gate's 8 generated
/// plans: (gate index, faulted-run digest, no-fault-baseline digest),
/// captured from the sequential executor at the commit before the
/// worker pool landed, and re-captured when the board's sensor noise
/// moved to polar-method pairs (a new noise stream, same executor).
const LEGACY_PINS: [(u64, u64, u64); 8] = [
    (0, 0x298bef74d03b12d8, 0x298bef74d03b12d8),
    (1, 0x898fb448a3c32249, 0x0cf40ac1bf1f9b95),
    (2, 0x06e16d4da38eb5bf, 0xaab4949b1028145d),
    (3, 0x70ed10f4563fba1a, 0xa4b511dfd91f6012),
    (4, 0x1ede597e2c48784a, 0x601ee047b6d0ed13),
    (5, 0x99d3a5d02ee1e6b8, 0xe57b1aaf5f73ebc5),
    (6, 0x5c663e5c90829dfd, 0x7a6d8f647fe7d801),
    (7, 0x88e29c0dd4041ece, 0x451658b8d6d085d3),
];

/// `threads = 1` reproduces the sequential executor's output on the
/// full chaos gate matrix, byte for byte. This is the refactor's
/// ground truth: the partition/fly/merge driver with a
/// one-wide pool IS the legacy executor.
#[test]
fn single_thread_reproduces_the_pre_pool_digests() {
    for (i, faulted_pin, baseline_pin) in LEGACY_PINS {
        let seed = 0xF1EE_5EED ^ (i.wrapping_mul(0x9E37_79B9));
        let cfg = gate_config(seed, 3 + (i as usize % 2), 1);
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
        let faults = FleetFaultPlan::generate(seed, 3, &tenant_names, 150);

        let faulted = FleetSpec::new(cfg.clone())
            .faults(faults)
            .run()
            .expect("faulted run");
        assert_eq!(
            faulted.fleet_digest(),
            faulted_pin,
            "gate {i}: threads=1 faulted digest drifted from the sequential pin"
        );
        let baseline = FleetSpec::new(cfg).run().expect("baseline run");
        assert_eq!(
            baseline.fleet_digest(),
            baseline_pin,
            "gate {i}: threads=1 baseline digest drifted from the sequential pin"
        );
    }
}

/// A worker panic at a flight index scraps that flight, defers its
/// tenants, and lets the run complete: no tenant is silently lost,
/// and the cloud log records the containment. Holds on both the
/// inline (threads = 1) and threaded paths — panic semantics are
/// uniform.
#[test]
fn worker_panic_is_contained_at_every_width() {
    for threads in [1usize, 4] {
        let cfg = gate_config(0xF1EE_5EED, 3, threads);
        let run = FleetSpec::new(cfg)
            .chaos_panic_at(0)
            .run()
            .expect("run must survive a panicking island");
        // Flight index 0 never settles (every island assigned index
        // 0 panics), so no flight ever flies and every wave scraps.
        assert!(
            run.flights.is_empty(),
            "threads={threads}: a flight flew despite the index-0 panic"
        );
        assert!(
            run.cloud_log.iter().any(|l| l.contains("worker panicked")),
            "threads={threads}: containment left no log line"
        );
        for (name, t) in &run.tenants {
            assert_eq!(
                t.resolution,
                TenantResolution::Refunded,
                "threads={threads}: {name} not terminally resolved"
            );
            assert_eq!(
                t.refunded_energy_j, t.energy_allotted_j,
                "threads={threads}: {name} refund does not cover the unserved allotment"
            );
        }
    }
}

/// With the panic injected past the first flight, the healthy flight
/// still completes and only the panicked flight's tenants defer —
/// per-flight containment, not just run survival.
#[test]
fn panic_past_the_first_flight_spares_the_flown_tenants() {
    let cfg = gate_config(0xF1EE_5EED, 3, 4);
    let spec = FleetSpec::new(cfg);
    let clean = spec.run().expect("clean run");
    assert!(
        clean.flights.len() >= 2,
        "scenario must plan multiple flights"
    );
    let chaos = spec
        .clone()
        .chaos_panic_at(1)
        .run()
        .expect("run must survive");
    // Flight 0 flies in both runs with identical bits (same seed,
    // same index — the panic at index 1 cannot reach back).
    assert!(!chaos.flights.is_empty(), "flight 0 should still fly");
    assert_eq!(chaos.flights[0].trace_digest, clean.flights[0].trace_digest);
    assert!(chaos
        .cloud_log
        .iter()
        .any(|l| l.contains("worker panicked")));
    // Every tenant still resolves terminally.
    for (name, t) in &chaos.tenants {
        assert!(
            matches!(
                t.resolution,
                TenantResolution::Completed | TenantResolution::Refunded
            ),
            "{name} left unresolved"
        );
    }
}

/// Completion order is deliberately scrambled with real sleeps:
/// earlier items sleep longest, so later items finish first. The
/// pool must still return results in input order — the merge step's
/// entire correctness argument rests on this.
#[test]
fn scrambled_completion_order_cannot_reorder_results() {
    let pool = WorkerPool::new(4);
    let n: u64 = 12;
    let out = pool.run((0..n).collect(), |i: u64| {
        std::thread::sleep(std::time::Duration::from_millis((n - i) * 3));
        i * 100
    });
    let values: Vec<u64> = out
        .into_iter()
        .map(|r| r.expect("no panics in this workload"))
        .collect();
    assert_eq!(values, (0..n).map(|i| i * 100).collect::<Vec<_>>());
}

// Property: for any item vector and any pool width, the pool is
// observationally identical to a sequential map — same values, same
// order, panics contained to their own slot.
proptest! {
    #[test]
    fn pool_is_a_deterministic_map(
        items in proptest::collection::vec(any::<u32>(), 0..48),
        threads in 1usize..9,
    ) {
        let work = |v: u32| {
            assert!(v % 97 != 13, "injected panic lane");
            u64::from(v).wrapping_mul(0x9E37_79B9)
        };
        let expected: Vec<Result<u64, WorkerError>> = items
            .iter()
            .map(|&v| {
                if v % 97 == 13 {
                    Err(WorkerError::Panicked("injected panic lane".to_string()))
                } else {
                    Ok(u64::from(v).wrapping_mul(0x9E37_79B9))
                }
            })
            .collect();
        let got = WorkerPool::new(threads).run(items, work);
        // Panic messages from assert! carry the full formatted text;
        // compare variants and values, not exact strings.
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            match (g, e) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(WorkerError::Panicked(msg)), Err(_)) => {
                    prop_assert!(msg.contains("injected panic lane"));
                }
                other => prop_assert!(false, "slot mismatch: {:?}", other),
            }
        }
    }
}

/// A deploy failure scraps the first flight of a batch while a later
/// flight of the same batch flies: the scrap takes no flight index,
/// so the later flight must fly at the index the scrap left free.
/// Width 4 (the batch's islands run side by side, each at the index
/// it gets if every earlier one flies) must reproduce width 1 bit for
/// bit.
#[test]
fn a_flight_after_a_scrap_in_its_batch_is_width_invariant() {
    let mut cfg = gate_config(0xF1EE_5EED, 4, 1);
    cfg.fleet_size = 4;
    cfg.max_waves = 3;
    // An unknown device passes planning but fails `validate` at
    // deploy, so every flight carrying vd1 is scrapped.
    cfg.tenants[0].spec.continuous_devices = vec!["warp-drive".into()];

    // Wave 0's plans, as the executor orders them: vd1 rides the
    // first plan, and the second shares no owner with it, so both
    // fall in one batch.
    let orders: Vec<PlacedOrder> = cfg
        .tenants
        .iter()
        .zip(1..)
        .map(|(t, order_id)| PlacedOrder {
            order_id,
            user: t.user.clone(),
            vd_name: t.vd_name.clone(),
            spec: t.spec.clone(),
            flexible_schedule: true,
        })
        .collect();
    let plans = FallibleCloud::new()
        .try_plan_flights(&orders, cfg.base, cfg.fleet_size)
        .expect("planning up");
    let owners = |i: usize| -> Vec<String> {
        let mut o: Vec<String> = plans[i].legs.iter().map(|l| l.owner.clone()).collect();
        o.sort();
        o.dedup();
        o
    };
    assert!(owners(0).contains(&"vd1".to_string()), "{:?}", owners(0));
    assert!(owners(1).iter().all(|o| !owners(0).contains(o)));

    let spec = FleetSpec::new(cfg);
    let one = spec.run().expect("width 1");
    assert!(one.cloud_log[0].contains("vd1 failed to deploy"));
    let first = &one.flights[0];
    assert_eq!((first.wave, first.flight_index), (0, 0));
    assert_eq!(first.owners, owners(1), "plan 1 flies after the scrap");

    // Captured from the executor that settled speculative indices by
    // re-running islands to a fixpoint, before the one-pass merge;
    // re-captured when the sensor noise moved to polar-method pairs.
    assert_eq!(
        (one.fleet_digest(), one.metrics_digest()),
        (0xe94b_2df6_7795_8234, 0xe827_4505_a5c9_64a6)
    );

    let four = spec.clone().threads(4).run().expect("width 4");
    assert_eq!(four.fleet_digest(), one.fleet_digest());
    assert_eq!(four.metrics_digest(), one.metrics_digest());
    assert_eq!(four.cloud_log, one.cloud_log);
}
