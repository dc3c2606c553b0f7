//! Fleet throughput: the parallel wave executor vs the sequential
//! pin, with a core-scaled acceptance gate.
//!
//! Runs the same multi-wave, multi-tenant service scenario at
//! `threads = 1` and `threads = 4`, asserts the two runs are
//! bit-identical (fleet digest and metrics digest), and gates the
//! wall-clock speedup. The full ≥2.0× floor only binds on hosts with
//! at least 4 cores; on smaller hosts the floor scales down (a
//! single hardware thread cannot speed anything up — there the gate
//! only bounds the pool's overhead). The report records both floors
//! and the host's core count so CI results stay comparable across
//! machines.
//!
//! Also reports service metrics from the 4-thread run: orders served
//! per wall-second and the p99 order→landing *simulated* latency
//! (waves are sequential in sim time; flights within a wave fly
//! concurrently, so a tenant's latency is the sim time of the waves
//! before its flight plus its own flight's duration).
//!
//! Finally it gates the per-second state digest's growth over a long
//! hover flight (the digest must cost about the same late in a flight
//! as early on) and reports what one sealed log segment costs to
//! re-hash and to fold into a start-state table, the two costs the
//! digest's rent-then-buy threshold is derived from.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use androne::fleet::{FleetConfig, FleetOutcome, FleetSpec, FleetTenant};
use androne::flight::log_analyzer::AttSample;
use androne::hal::{Attitude, GeoPoint};
use androne::mavlink::Message;
use androne::planner::{FlightPlan, Leg};
use androne::simkern::statehash::{RENT_FOLDS, SEGMENT_ITEMS};
use androne::simkern::{AppendLog, LogItem, StateHash};
use androne::{execute_flight_probed, execute_scale_fleet, ScaleConfig, ScaleOutcome};
use androne::{DigestProbe, Drone, FlightProbe};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use criterion::{black_box, Criterion};
use serde_json::Value;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 0xF1EE_7000;
const TENANTS: usize = 6;

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

/// A service day big enough for the pool to matter: six tenants, two
/// waypoints each, a three-drone fleet flying multiple waves.
fn tenants() -> Vec<FleetTenant> {
    (0..TENANTS)
        .map(|i| {
            let k = i as f64;
            FleetTenant {
                vd_name: format!("vd{}", i + 1),
                user: format!("user{}", i + 1),
                spec: VirtualDroneSpec {
                    waypoints: vec![
                        wp(45.0 + 8.0 * k, -40.0 + 13.0 * k, 40.0),
                        wp(70.0 - 5.0 * k, 30.0 + 9.0 * k, 40.0),
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

fn config(threads: usize) -> FleetConfig {
    FleetConfig {
        base: BASE,
        seed: SEED,
        fleet_size: 3,
        tenants: tenants(),
        max_waves: 6,
        max_sim_seconds: 240.0,
        watchdog: None,
        threads,
    }
}

fn run(threads: usize) -> FleetOutcome {
    FleetSpec::new(config(threads)).run().expect("fleet run")
}

/// Per-tenant order→landing latency in simulated seconds. Waves run
/// back to back in sim time; within a wave, flights are concurrent.
fn sim_latencies(out: &FleetOutcome) -> Vec<f64> {
    let mut wave_len: BTreeMap<u64, f64> = BTreeMap::new();
    for f in &out.flights {
        let e = wave_len.entry(f.wave).or_insert(0.0);
        if f.duration_s > *e {
            *e = f.duration_s;
        }
    }
    let mut latencies = Vec::new();
    for f in &out.flights {
        let before: f64 = wave_len
            .iter()
            .filter(|(w, _)| **w < f.wave)
            .map(|(_, d)| d)
            .sum();
        for _owner in &f.owners {
            latencies.push(before + f.duration_s);
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    latencies
}

fn p99(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
    sorted[idx.min(sorted.len()) - 1]
}

/// One rung of the scaling ladder: `tenants` synthetic orders pushed
/// through the sharded control plane (batched admission, VDR,
/// bin-packed waves) to quiescence, timed wall-clock.
fn ladder_rung(tenants: usize, threads: usize) -> (ScaleOutcome, f64) {
    let t0 = std::time::Instant::now();
    let out = execute_scale_fleet(&ScaleConfig::rung(tenants).threads(threads));
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(out.quiescent, "{tenants}-tenant rung did not reach quiescence");
    assert_eq!(
        out.completed() + out.exhausted(),
        tenants,
        "{tenants}-tenant rung left tenants unresolved"
    );
    (out, wall_s)
}

fn rung_report(tenants: usize, out: &ScaleOutcome, wall_s: f64) -> Value {
    obj([
        ("tenants", Value::Number(tenants as f64)),
        ("wall_s", Value::Number(wall_s)),
        ("orders_per_wall_sec", Value::Number(tenants as f64 / wall_s)),
        ("orders_per_sim_sec", Value::Number(out.orders_per_sim_s())),
        (
            "p99_order_to_landing_sim_s",
            Value::Number(out.p99_latency_s),
        ),
        ("peak_queue_depth", Value::Number(out.peak_queue_depth as f64)),
        (
            "backpressured_submissions",
            Value::Number(out.backpressured_submissions as f64),
        ),
        ("waves", Value::Number(out.waves_run as f64)),
        ("completed", Value::Number(out.completed() as f64)),
        ("exhausted", Value::Number(out.exhausted() as f64)),
    ])
}

/// Times every `DigestProbe` call of a flight, one entry per tick.
struct TimedDigest {
    inner: DigestProbe,
    ns: Vec<f64>,
}

impl FlightProbe for TimedDigest {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        let t0 = Instant::now();
        self.inner.on_tick(tick, drone);
        self.ns.push(t0.elapsed().as_nanos() as f64);
    }
}

/// Simulated seconds of the digest-growth flight.
const GROWTH_FLIGHT_S: f64 = 600.0;

/// Flies a hover flight of [`GROWTH_FLIGHT_S`] (three tenants, one
/// drone) and returns the mean digest ns per tick over the last 10%
/// of ticks divided by the mean over the first 10%.
fn digest_growth() -> f64 {
    let spots =
        [(20.0, 10.0), (-15.0, 25.0), (10.0, -20.0)].map(|(n, e)| BASE.offset_m(n, e, 15.0));
    let service_s = GROWTH_FLIGHT_S / spots.len() as f64;
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    let mut legs = Vec::new();
    for (i, at) in spots.iter().enumerate() {
        let owner = format!("vd{}", i + 1);
        let mut spec = tenants()[i].spec.clone();
        spec.waypoints = vec![WaypointSpec {
            latitude: at.latitude,
            longitude: at.longitude,
            altitude: 15.0,
            max_radius: 40.0,
        }];
        spec.max_duration = service_s;
        spec.energy_allotted = 200_000.0;
        drone.deploy_vdrone(&owner, spec, &[]).expect("deploy");
        legs.push(Leg {
            owner,
            position: *at,
            max_radius_m: 40.0,
            service_energy_j: 200_000.0,
            service_time_s: service_s,
            eta_s: 10.0,
        });
    }
    let plan = FlightPlan {
        base: BASE,
        legs,
        estimated_duration_s: GROWTH_FLIGHT_S,
        estimated_energy_j: 600_000.0,
    };
    let mut probe = TimedDigest {
        inner: DigestProbe::new(),
        ns: Vec::new(),
    };
    let outcome = execute_flight_probed(&mut drone, plan, 2.0 * GROWTH_FLIGHT_S, None, &mut probe);
    assert!(
        outcome.completed,
        "digest-growth flight ended {:?}",
        outcome.end_reason
    );
    let k = (probe.ns.len() / 10).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    mean(&probe.ns[probe.ns.len() - k..]) / mean(&probe.ns[..k])
}

/// Median ns of one ordinary fold of a log holding one sealed segment
/// of `item`s, and of the fold that builds the segment's table (the
/// build's own cost is the difference).
fn segment_costs<T: LogItem + Clone>(item: impl Fn(usize) -> T) -> (f64, f64) {
    const REPS: usize = 301;
    let mut fresh = AppendLog::new();
    fresh.extend((0..SEGMENT_ITEMS).map(item));
    let due = fresh.clone();
    for _ in 1..RENT_FOLDS {
        due.hash_value();
    }
    let median = |log: &AppendLog<T>| {
        let mut ns: Vec<f64> = (0..REPS)
            .map(|_| {
                let copy = log.clone();
                let t0 = Instant::now();
                black_box(copy.hash_value());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[REPS / 2]
    };
    let rehash = median(&fresh);
    (rehash, median(&due) - rehash)
}

fn segment_report(rehash_ns: f64, build_ns: f64) -> Value {
    obj([
        ("rehash_ns", Value::Number(rehash_ns)),
        ("table_build_ns", Value::Number(build_ns)),
        ("build_over_rehash", Value::Number(build_ns / rehash_ns)),
    ])
}

fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    androne_bench::banner(
        "Fleet throughput",
        "parallel wave executor vs the sequential pin (core-scaled gate)",
    );

    // Determinism first: the measurement below is only meaningful if
    // every width computes the same run.
    let seq = run(1);
    let par = run(4);
    assert_eq!(
        seq.fleet_digest(),
        par.fleet_digest(),
        "threads=4 diverged from threads=1; the bench refuses to time a wrong answer"
    );
    assert_eq!(seq.metrics_digest(), par.metrics_digest());

    let samples = usize::try_from((10 / androne_bench::scale()).max(3)).unwrap();
    let mut c = Criterion::default().sample_size(samples);
    c.bench_function("fleet/threads1", |b| b.iter(|| black_box(run(1))));
    c.bench_function("fleet/threads4", |b| b.iter(|| black_box(run(4))));

    let medians: BTreeMap<String, f64> = c
        .results()
        .iter()
        .map(|(name, ns)| (name.clone(), *ns))
        .collect();
    let seq_ns = medians["fleet/threads1"];
    let par_ns = medians["fleet/threads4"];
    let speedup = seq_ns / par_ns;

    // Service metrics from the parallel run's shape + median time.
    let orders = seq
        .flights
        .iter()
        .map(|f| f.owners.len() as f64)
        .sum::<f64>();
    let orders_per_sec = orders / (par_ns / 1e9);
    let latencies = sim_latencies(&seq);
    let p99_sim_s = p99(&latencies);

    // Core-scaled floor: the full 2.0x gate needs >=4 hardware
    // threads. On 2-3 cores any real speedup passes (1.2x); on one
    // core the gate only bounds pool overhead (>=0.75x, i.e. at
    // worst a third slower than sequential).
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let floor_full = 2.0;
    let floor_active = if host_cores >= 4 {
        floor_full
    } else if host_cores >= 2 {
        1.2
    } else {
        0.75
    };
    let pool_pass = speedup >= floor_active;

    // The scaling ladder: 1k / 10k / 100k tenants through the
    // sharded control plane, each timed wall-clock to quiescence.
    // The 10k rung is additionally run across the shard/thread
    // matrix and must be bit-identical at every point, and its
    // wall-clock order throughput carries an absolute floor —
    // comfortably below a 1-core release run so the gate binds on
    // regressions, not host speed.
    const ORDERS_PER_SEC_FLOOR_10K: f64 = 10_000.0;
    let ladder_threads = host_cores.min(4);
    let (rung_1k, wall_1k) = ladder_rung(1_000, ladder_threads);
    let (rung_10k, wall_10k) = ladder_rung(10_000, ladder_threads);
    let (rung_100k, wall_100k) = ladder_rung(100_000, ladder_threads);

    let reference = execute_scale_fleet(&ScaleConfig::rung(10_000));
    let mut ladder_identical = true;
    for (threads, shards) in [(4usize, 1usize), (1, 4), (4, 4)] {
        let run = execute_scale_fleet(&ScaleConfig::rung(10_000).threads(threads).shards(shards));
        if run.fleet_digest() != reference.fleet_digest()
            || run.metrics_digest() != reference.metrics_digest()
        {
            ladder_identical = false;
            eprintln!("ladder digest divergence at threads={threads} shards={shards}");
        }
    }
    let orders_per_wall_10k = 10_000.0 / wall_10k;
    let ladder_pass = ladder_identical && orders_per_wall_10k >= ORDERS_PER_SEC_FLOOR_10K;

    // The digest's late-flight cost over its early-flight cost. A
    // digest that re-hashes whole logs grows about 17x over this
    // flight.
    const DIGEST_GROWTH_CEILING: f64 = 5.0;
    let growth = digest_growth();
    let growth_pass = growth <= DIGEST_GROWTH_CEILING;
    let outbox_costs = segment_costs(|i| {
        Rc::new(Message::Attitude {
            time_boot_ms: i as u32,
            roll: 0.01,
            pitch: -0.02,
            yaw: 1.5,
        })
    });
    let att = Attitude {
        roll: 0.01,
        pitch: -0.02,
        yaw: 1.5,
    };
    let att_costs = segment_costs(|i| AttSample {
        t: i as f64 * 0.1,
        estimated: att,
        canonical: att,
    });
    let pass = pool_pass && ladder_pass && growth_pass;

    let report = obj([
        (
            "schema",
            Value::String("androne-bench/fleet_throughput/v2".to_string()),
        ),
        (
            "command",
            Value::String("cargo bench --bench fleet_throughput".to_string()),
        ),
        ("units", Value::String("ns_per_iter_median".to_string())),
        ("scale", Value::Number(androne_bench::scale() as f64)),
        ("sample_size", Value::Number(samples as f64)),
        (
            "benches",
            Value::Object(
                medians
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v)))
                    .collect(),
            ),
        ),
        (
            "throughput",
            obj([
                ("orders_per_run", Value::Number(orders)),
                ("orders_per_sec_threads4", Value::Number(orders_per_sec)),
                ("p99_order_to_landing_sim_s", Value::Number(p99_sim_s)),
            ]),
        ),
        (
            "scaling_ladder",
            obj([
                ("ladder_threads", Value::Number(ladder_threads as f64)),
                ("rung_1k", rung_report(1_000, &rung_1k, wall_1k)),
                ("rung_10k", rung_report(10_000, &rung_10k, wall_10k)),
                ("rung_100k", rung_report(100_000, &rung_100k, wall_100k)),
            ]),
        ),
        (
            "digest_growth",
            obj([
                ("host_cores", Value::Number(host_cores as f64)),
                ("flight_sim_s", Value::Number(GROWTH_FLIGHT_S)),
                ("measured", Value::Number(growth)),
                ("ceiling", Value::Number(DIGEST_GROWTH_CEILING)),
                ("segment_items", Value::Number(SEGMENT_ITEMS as f64)),
                ("rent_folds", Value::Number(f64::from(RENT_FOLDS))),
                (
                    "outbox_segment",
                    segment_report(outbox_costs.0, outbox_costs.1),
                ),
                ("att_segment", segment_report(att_costs.0, att_costs.1)),
            ]),
        ),
        (
            "acceptance",
            obj([
                ("host_cores", Value::Number(host_cores as f64)),
                ("speedup_4v1_measured", Value::Number(speedup)),
                ("speedup_4v1_floor_full", Value::Number(floor_full)),
                ("speedup_4v1_floor_active", Value::Number(floor_active)),
                ("digests_identical", Value::Bool(true)),
                (
                    "ladder_10k_digests_identical_shards14_threads14",
                    Value::Bool(ladder_identical),
                ),
                (
                    "ladder_10k_orders_per_sec_measured",
                    Value::Number(orders_per_wall_10k),
                ),
                (
                    "ladder_10k_orders_per_sec_floor",
                    Value::Number(ORDERS_PER_SEC_FLOOR_10K),
                ),
                ("digest_growth_measured", Value::Number(growth)),
                (
                    "digest_growth_ceiling",
                    Value::Number(DIGEST_GROWTH_CEILING),
                ),
                ("pass", Value::Bool(pass)),
            ]),
        ),
    ]);

    let out_path = std::env::var("ANDRONE_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet_throughput.json").to_string()
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&out_path, json + "\n").expect("write bench report");
    println!(
        "\nfleet speedup 4v1: {speedup:.2}x (floor {floor_active:.2}x on {host_cores} cores; full gate {floor_full:.2}x), \
         {orders_per_sec:.1} orders/s, p99 order->landing {p99_sim_s:.1} sim-s"
    );
    println!(
        "scaling ladder ({ladder_threads} threads): \
         1k {:.0} orders/s | 10k {:.0} orders/s (floor {ORDERS_PER_SEC_FLOOR_10K:.0}) | 100k {:.0} orders/s; \
         10k digest matrix identical: {ladder_identical}",
        1_000.0 / wall_1k,
        orders_per_wall_10k,
        100_000.0 / wall_100k,
    );
    println!(
        "digest growth over a {GROWTH_FLIGHT_S:.0} sim-s hover: {growth:.2}x (ceiling {DIGEST_GROWTH_CEILING:.1}x); \
         segment table build / re-hash: outbox {:.1}, ATT log {:.1} (rent {RENT_FOLDS} folds)",
        outbox_costs.1 / outbox_costs.0,
        att_costs.1 / att_costs.0,
    );
    println!("report written to {out_path}");
    assert!(
        pool_pass,
        "fleet throughput gate failed: {speedup:.2}x < {floor_active:.2}x floor"
    );
    assert!(
        ladder_pass,
        "scaling ladder gate failed: 10k rung {orders_per_wall_10k:.0} orders/s \
         (floor {ORDERS_PER_SEC_FLOOR_10K:.0}) or digest matrix diverged"
    );
    assert!(
        growth_pass,
        "digest growth gate failed: {growth:.2}x > {DIGEST_GROWTH_CEILING:.1}x ceiling"
    );
}
