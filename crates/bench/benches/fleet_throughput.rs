//! Fleet throughput: the parallel wave executor vs the sequential
//! pin, with a core-scaled acceptance gate.
//!
//! Runs the same multi-wave, multi-tenant service scenario at
//! `threads = 1` and `threads = 4`, asserts the two runs are
//! bit-identical (fleet digest and metrics digest), and gates the
//! wall-clock speedup. The two widths are timed as alternating pairs
//! and the gate reads the median of the per-pair ratios, so a burst
//! of host contention skews one pair rather than one width's whole
//! median. The full ≥2.0× floor only binds on hosts with
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
//! It gates the per-second state digest's growth over a long hover
//! flight: the digest must cost about the same late in a flight as
//! early on. Finally it splits the 400 Hz tick of a hovering drone
//! into its SITL parts (IMU sample, estimator, controller, physics)
//! and the proxy plus the rest, in ns per step.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the throughput gates time host wall-clock with Instant; no simulation state reads it"
)]

use std::collections::BTreeMap;
use std::time::Instant;

use androne::fleet::{FleetConfig, FleetOutcome, FleetSpec, FleetTenant};
use androne::flight::{Sitl, FAST_LOOP_HZ};
use androne::hal::GeoPoint;
use androne::mavlink::{FlightMode, MavCmd, Message};
use androne::planner::{FlightPlan, Leg};
use androne::simkern::{SimDuration, StateHash, StateHasher};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{execute_flight_probed, execute_scale_fleet, ScaleConfig, ScaleOutcome};
use androne::{Drone, FlightProbe};
use serde_json::Value;
use std::hint::black_box;

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
    assert!(
        out.quiescent,
        "{tenants}-tenant rung did not reach quiescence"
    );
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
        (
            "orders_per_wall_sec",
            Value::Number(tenants as f64 / wall_s),
        ),
        ("orders_per_sim_sec", Value::Number(out.orders_per_sim_s())),
        (
            "p99_order_to_landing_sim_s",
            Value::Number(out.p99_latency_s),
        ),
        (
            "peak_queue_depth",
            Value::Number(out.peak_queue_depth as f64),
        ),
        (
            "backpressured_submissions",
            Value::Number(out.backpressured_submissions as f64),
        ),
        ("waves", Value::Number(out.waves_run as f64)),
        ("completed", Value::Number(out.completed() as f64)),
        ("exhausted", Value::Number(out.exhausted() as f64)),
    ])
}

/// The digest's components, in [`Drone::component_hashes`] order.
const COMPONENTS: [&str; 5] = ["kernel", "binder", "sitl", "proxy", "vdc"];

/// The hash of component `i` of [`COMPONENTS`].
fn component_hash(drone: &Drone, i: usize) -> u64 {
    match i {
        0 => drone.kernel.borrow().hash_value(),
        1 => drone.driver.hash_value(),
        2 => drone.sitl.hash_value(),
        3 => drone.proxy.hash_value(),
        _ => drone.vdc.borrow().hash_value(),
    }
}

/// Builds each tick's digest as `DigestProbe` does, timing the whole
/// and each component. The parts are timed in the pass that builds
/// the digest: a second fold of an `AppendLog` finds its memo current
/// and would time only the table apply.
struct TimedDigest {
    h: StateHasher,
    /// Whole-digest ns, one entry per tick.
    ns: Vec<f64>,
    /// Total ns per component, in [`COMPONENTS`] order.
    part_ns: [f64; 5],
}

impl FlightProbe for TimedDigest {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        let t0 = Instant::now();
        self.h.write_u64(tick);
        for (i, (name, total)) in COMPONENTS.iter().zip(&mut self.part_ns).enumerate() {
            let t = Instant::now();
            let hash = component_hash(drone, i);
            *total += t.elapsed().as_nanos() as f64;
            self.h.write_str(name);
            self.h.write_u64(hash);
        }
        self.ns.push(t0.elapsed().as_nanos() as f64);
    }
}

/// Simulated seconds of the digest-growth flight.
const GROWTH_FLIGHT_S: f64 = 600.0;

/// Whether the host has the AVX-512 multiply the table build's wide
/// path uses.
fn host_avx512dq() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512dq");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// Flies a hover flight of [`GROWTH_FLIGHT_S`] (three tenants, one
/// drone). Returns the median digest ns per tick over the last 10%
/// of ticks divided by the median over the first 10%, and the
/// digest's µs per simulated second (one tick each), whole and by
/// component.
fn digest_growth() -> (f64, Value) {
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
        h: StateHasher::new(),
        ns: Vec::new(),
        part_ns: [0.0; 5],
    };
    let outcome = execute_flight_probed(&mut drone, plan, 2.0 * GROWTH_FLIGHT_S, None, &mut probe);
    assert!(
        outcome.completed,
        "digest-growth flight ended {:?}",
        outcome.end_reason
    );
    assert_eq!(
        std::array::from_fn(|i| (COMPONENTS[i], component_hash(&drone, i))),
        drone.component_hashes(),
        "the timed parts must be the digest's components"
    );
    let ticks = probe.ns.len();
    let k = (ticks / 10).max(1);
    let median = |xs: &[f64]| {
        let mut xs = xs.to_vec();
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let growth = median(&probe.ns[ticks - k..]) / median(&probe.ns[..k]);
    let us_per_tick = |ns: f64| ns / 1e3 / ticks as f64;
    let whole = us_per_tick(probe.ns.iter().sum());
    let parts: f64 = probe.part_ns.iter().map(|&ns| us_per_tick(ns)).sum();
    let split = obj(COMPONENTS
        .iter()
        .zip(probe.part_ns)
        .map(|(name, ns)| (*name, Value::Number(us_per_tick(ns))))
        .chain([
            ("whole", Value::Number(whole)),
            ("parts_over_whole", Value::Number(parts / whole)),
            ("host_avx512dq", Value::Bool(host_avx512dq())),
        ]));
    (growth, split)
}

/// Simulated seconds of the climb before the tick-split hover.
const SPLIT_CLIMB_S: f64 = 20.0;

/// Simulated seconds of the tick-split hover.
const SPLIT_HOVER_S: f64 = 60.0;

/// Fleet tenants riding the tick-split drone, as many as the digest
/// growth flight carries (a drone's memory fits three).
const SPLIT_TENANTS: usize = 3;

/// The SITL parts the tick split times, in step order.
const TICK_PARTS: [&str; 4] = ["imu_sample", "estimator", "controller", "physics"];

/// The state one step of a SITL vehicle writes: truth, physics,
/// estimator and controller.
fn flight_state(sitl: &Sitl) -> [u64; 4] {
    [
        sitl.board.borrow().truth.borrow().hash_value(),
        sitl.physics.hash_value(),
        sitl.estimator.hash_value(),
        sitl.fc.hash_value(),
    ]
}

/// Arms `sitl` in Guided, takes off to 15 m and climbs for exactly
/// [`SPLIT_CLIMB_S`], so the step count is known.
fn climb(sitl: &mut Sitl) {
    for msg in [
        Message::SetMode {
            mode: FlightMode::Guided,
        },
        Message::CommandLong {
            command: MavCmd::ComponentArmDisarm,
            params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        },
        Message::CommandLong {
            command: MavCmd::NavTakeoff,
            params: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0],
        },
    ] {
        sitl.handle_message(&msg);
    }
    sitl.run_for(SimDuration::from_secs_f64(SPLIT_CLIMB_S));
    assert!(sitl.position().altitude > 14.0, "the climb reached hover");
}

/// Ns per step of the 400 Hz tick of a hovering drone, whole and by
/// part. The whole is `MavProxy::step` on a booted drone carrying
/// [`SPLIT_TENANTS`] of the fleet's tenants (their VFC clients beside
/// the pilot's), as the fleet flies it. The SITL parts are timed on a bare vehicle on the
/// same board seed, stepped in lockstep by the no-fault path of
/// `Sitl::step` written out part by part; after the hover the two
/// vehicles' truth, physics, estimator and controller must hash
/// equal, so the parts did exactly the step's work. GPS and
/// barometer samples count to the estimator. `proxy_and_rest` is
/// the whole less the parts: telemetry, flight log, fan-out and the
/// proxy's per-step checks. The cost of one empty `Instant` span is
/// taken off every span.
fn tick_split() -> Value {
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    for t in tenants().into_iter().take(SPLIT_TENANTS) {
        drone
            .deploy_vdrone(&t.vd_name, t.spec, &[])
            .expect("deploy");
    }
    let mut bare = Sitl::new(BASE, SEED.wrapping_add(1));
    climb(&mut drone.sitl);
    climb(&mut bare);
    assert_eq!(
        flight_state(&drone.sitl),
        flight_state(&bare),
        "the bare vehicle must start where the drone's does"
    );

    let span_ns = {
        let mut spans: Vec<f64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        spans.sort_by(f64::total_cmp);
        spans[spans.len() / 2]
    };
    let dt = 1.0 / FAST_LOOP_HZ;
    let first = (SPLIT_CLIMB_S * FAST_LOOP_HZ) as u64 + 1;
    let steps = (SPLIT_HOVER_S * FAST_LOOP_HZ) as u64;
    let (mut whole_ns, mut part_ns) = (0.0, [0.0; 4]);
    for step in first..first + steps {
        let t = Instant::now();
        drone.proxy.step(&mut drone.sitl);
        whole_ns += t.elapsed().as_nanos() as f64;

        let truth = *bare.board.borrow().truth.borrow();
        let t0 = Instant::now();
        let imu = {
            let board = &mut *bare.board.borrow_mut();
            board.imu.sample(&truth, &mut board.rng)
        };
        let t1 = Instant::now();
        bare.estimator.imu_update(&imu, &truth.attitude, dt);
        if step.is_multiple_of(80) {
            let fix = {
                let board = &mut *bare.board.borrow_mut();
                board.gps.fix(&truth, &mut board.rng)
            };
            bare.estimator.gps_update(&fix, truth.velocity);
        }
        if step.is_multiple_of(40) {
            let p = {
                let board = &mut *bare.board.borrow_mut();
                board.barometer.pressure_pa(&truth, &mut board.rng)
            };
            bare.estimator.baro_update(p);
        }
        black_box(bare.estimator.attitude_divergence(&truth.attitude));
        let t2 = Instant::now();
        let est = bare.estimator.state();
        let motors = bare.fc.fast_loop(&est, truth.on_ground);
        let t3 = Instant::now();
        {
            let board = bare.board.borrow();
            let mut t = board.truth.borrow_mut();
            board.motors.set_outputs(&mut t, motors);
            bare.physics.step(&mut t, dt);
        }
        let t4 = Instant::now();
        for (total, (a, b)) in part_ns
            .iter_mut()
            .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
        {
            *total += (b - a).as_nanos() as f64;
        }
    }
    assert_eq!(
        flight_state(&drone.sitl),
        flight_state(&bare),
        "the timed parts must be the step's work"
    );
    let per_step = |ns: f64| ns / steps as f64 - span_ns;
    let whole = per_step(whole_ns);
    let parts = part_ns.map(per_step);
    let sum: f64 = parts.iter().sum();
    obj(TICK_PARTS
        .iter()
        .zip(parts)
        .map(|(name, ns)| (*name, Value::Number(ns)))
        .chain([
            ("proxy_and_rest", Value::Number(whole - sum)),
            ("whole", Value::Number(whole)),
            ("parts_over_whole", Value::Number(sum / whole)),
            ("span_ns", Value::Number(span_ns)),
            ("hover_sim_s", Value::Number(SPLIT_HOVER_S)),
        ]))
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

    // Alternating pairs, each timing both widths back to back (the
    // leading width flips every pair, so a drift in host load does
    // not favour either). At least 11: over 7 pairs, contention that
    // spanned four of them still sank the median below the floor.
    let pairs = usize::try_from((30 / androne_bench::scale()).max(11)).unwrap();
    let time_ns = |threads: usize| {
        let start = Instant::now();
        black_box(run(threads));
        start.elapsed().as_nanos() as f64
    };
    let (mut seq_samples, mut par_samples, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (seq_ns, par_ns) = if pair % 2 == 0 {
            let seq_ns = time_ns(1);
            (seq_ns, time_ns(4))
        } else {
            let par_ns = time_ns(4);
            (time_ns(1), par_ns)
        };
        seq_samples.push(seq_ns);
        par_samples.push(par_ns);
        ratios.push(seq_ns / par_ns);
    }
    let median = |xs: &[f64]| {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    };
    let par_ns = median(&par_samples);
    let medians: BTreeMap<String, f64> = [
        ("fleet/threads1".to_string(), median(&seq_samples)),
        ("fleet/threads4".to_string(), par_ns),
    ]
    .into();
    let speedup = median(&ratios);
    println!(
        "fleet/threads1 median {:.1} ms, fleet/threads4 median {:.1} ms over {pairs} pairs; \
         per-pair 4v1 ratios {ratios:.2?}",
        medians["fleet/threads1"] / 1e6,
        par_ns / 1e6,
    );

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

    // The digest's late-flight cost over its early-flight cost, as a
    // ratio of decile medians so one burst of host contention in
    // either decile cannot swing it. A digest that re-hashes whole
    // logs grows about 17x over this flight; one that folds only what
    // was appended since the last fold read 0.83-1.12x over ten runs
    // on a shared 2-vCPU host.
    const DIGEST_GROWTH_CEILING: f64 = 2.0;
    let (growth, digest_split) = digest_growth();
    let growth_pass = growth <= DIGEST_GROWTH_CEILING;
    let pass = pool_pass && ladder_pass && growth_pass;
    let tick = tick_split();
    let tick_line = serde_json::to_string(&tick).expect("serialize tick split");

    let report = obj([
        (
            "schema",
            Value::String("androne-bench/fleet_throughput/v3".to_string()),
        ),
        (
            "command",
            Value::String("cargo bench --bench fleet_throughput".to_string()),
        ),
        ("units", Value::String("ns_per_iter_median".to_string())),
        ("scale", Value::Number(androne_bench::scale() as f64)),
        ("pairs", Value::Number(pairs as f64)),
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
                ("digest_split_us_per_sim_s", digest_split),
            ]),
        ),
        (
            "tick_split_ns_per_step",
            obj([
                ("host_cores", Value::Number(host_cores as f64)),
                ("host_avx512dq", Value::Bool(host_avx512dq())),
                ("split", tick),
            ]),
        ),
        (
            "acceptance",
            obj([
                ("host_cores", Value::Number(host_cores as f64)),
                ("speedup_4v1_measured", Value::Number(speedup)),
                (
                    "speedup_4v1_pair_ratios",
                    Value::Array(ratios.iter().map(|&r| Value::Number(r)).collect()),
                ),
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
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_fleet_throughput.json"
        )
        .to_string()
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
        "digest growth over a {GROWTH_FLIGHT_S:.0} sim-s hover: {growth:.2}x (ceiling {DIGEST_GROWTH_CEILING:.1}x)"
    );
    println!("tick split over a {SPLIT_HOVER_S:.0} sim-s hover (ns/step): {tick_line}");
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
