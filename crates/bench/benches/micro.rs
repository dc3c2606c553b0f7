//! Criterion microbenchmarks of the hot paths: Binder transaction
//! routing, MAVLink encode/decode, the physics step, the latency
//! sampler, and the VRP solver (unconstrained, and constrained at the
//! cloud planner's fleet shape).

use std::cell::RefCell;
use std::rc::Rc;

use androne::binder::{BinderDriver, BinderError, BinderService, Parcel, TransactionContext};
use androne::container::DeviceNamespaceId;
use androne::flight::{AirframeParams, QuadPhysics};
use androne::hal::{GeoPoint, VehicleTruth};
use androne::mavlink::{deg_to_e7, Frame, Message, Parser};
use androne::simkern::{ContainerId, Euid, Kernel, KernelConfig, Pid};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

struct Echo;

impl BinderService for Echo {
    fn on_transact(
        &mut self,
        _code: u32,
        data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        Ok(data.clone())
    }
}

fn bench_binder(c: &mut Criterion) {
    let mut driver = BinderDriver::new();
    let server = Pid(1);
    let client = Pid(2);
    driver.open(server, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
    driver.open(client, Euid(10_000), ContainerId(1), DeviceNamespaceId(1));
    // Distribute the handle through a ServiceManager, as real
    // clients would.
    use androne::binder::{add_service, get_service, ServiceManager};
    let sm = ServiceManager::new(server);
    let sm_handle = driver
        .create_node(server, Rc::new(RefCell::new(sm)))
        .unwrap();
    driver.set_context_manager(server, sm_handle).unwrap();
    let echo_handle = driver
        .create_node(server, Rc::new(RefCell::new(Echo)))
        .unwrap();
    add_service(&mut driver, server, "echo", echo_handle).unwrap();
    let handle = get_service(&mut driver, client, "echo").unwrap();
    c.bench_function("binder_transaction_echo", |b| {
        b.iter(|| {
            let mut p = Parcel::new();
            p.push_i32(7).push_str("camera");
            black_box(driver.transact(client, handle, 1, p).unwrap())
        })
    });
}

fn bench_mavlink(c: &mut Criterion) {
    let frame = Frame {
        seq: 1,
        sysid: 255,
        compid: 1,
        msg: Message::GlobalPositionInt {
            time_boot_ms: 123_456,
            lat: deg_to_e7(43.6084298),
            lon: deg_to_e7(-85.8110359),
            relative_alt: 15_000,
            vx: 120,
            vy: -45,
            vz: 3,
        },
    };
    c.bench_function("mavlink_encode", |b| b.iter(|| black_box(frame.encode())));
    let bytes = frame.encode();
    c.bench_function("mavlink_decode", |b| {
        b.iter(|| {
            let mut parser = Parser::new();
            black_box(parser.push(&bytes))
        })
    });
}

fn bench_physics(c: &mut Criterion) {
    let home = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut physics = QuadPhysics::new(AirframeParams::f450_prototype(), home);
    let mut truth = VehicleTruth::at_rest(home);
    truth.motor_outputs = [0.5; 4];
    c.bench_function("physics_step_2_5ms", |b| {
        b.iter(|| {
            physics.step(&mut truth, 0.0025);
            black_box(truth.position)
        })
    });
}

fn bench_latency_sampler(c: &mut Criterion) {
    let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 1);
    kernel.add_interference(androne::simkern::latency::profiles::stress_load());
    c.bench_function("rt_latency_sample", |b| {
        b.iter(|| black_box(kernel.sample_rt_latency()))
    });
}

fn bench_vrp(c: &mut Criterion) {
    use androne::energy::DorlingModel;
    use androne::planner::{VrpProblem, WaypointTask};
    let depot = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let tasks: Vec<WaypointTask> = (0..8)
        .map(|i| WaypointTask {
            owner: format!("vd{i}"),
            position: depot.offset_m(100.0 * (i as f64 + 1.0), 60.0 * i as f64, 15.0),
            service_energy_j: 3_000.0,
            service_time_s: 45.0,
        })
        .collect();
    let problem = VrpProblem {
        depot,
        tasks,
        fleet_size: 2,
        battery_budget_j: 160_000.0,
        model: DorlingModel::f450_prototype(),
    };
    c.bench_function("vrp_solve_8_tasks_2k_iters", |b| {
        b.iter(|| black_box(problem.solve(2_000, 7)))
    });
}

/// The cloud planner's solve at the first wave of the `fleet_dense`
/// benchmark workload: 22 tenants x 3 waypoints 10–40 m from the
/// base, 4 drones, at most 3 tenants a flight, 20k iterations. The
/// party cap binds, so every candidate runs the capacity repair.
fn bench_vrp_constrained(c: &mut Criterion) {
    use androne::energy::{BatteryPack, DorlingModel};
    use androne::planner::{RouteConstraints, VrpProblem, WaypointTask};
    use androne::simkern::substream_seed;
    let depot = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut tasks = Vec::new();
    let mut parties = Vec::new();
    for i in 0..22 {
        let mut party = Vec::new();
        for j in 0..3 {
            let h = substream_seed(0xDE45E, 7, i * 8 + j);
            let north = 10.0 + (h & 0xFFFF) as f64 / 65_535.0 * 30.0;
            let east = 10.0 + ((h >> 16) & 0xFFFF) as f64 / 65_535.0 * 30.0;
            let sn = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            let se = if (h >> 33) & 1 == 0 { 1.0 } else { -1.0 };
            party.push(tasks.len());
            tasks.push(WaypointTask {
                owner: format!("vd{i:03}"),
                position: depot.offset_m(sn * north, se * east, 15.0),
                service_energy_j: 10_000.0,
                service_time_s: 1.0,
            });
        }
        parties.push(party);
    }
    let problem = VrpProblem {
        depot,
        tasks,
        fleet_size: 4,
        battery_budget_j: BatteryPack::turnigy_3s_5000().plannable_j(),
        model: DorlingModel::f450_prototype(),
    };
    let constraints = RouteConstraints::none().with_party_capacity(parties, 3);
    c.bench_function("vrp_solve_constrained_22x3_20k_iters", |b| {
        b.iter(|| black_box(problem.solve_constrained(20_000, 0xA17D, &constraints)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_binder, bench_mavlink, bench_physics, bench_latency_sampler, bench_vrp,
        bench_vrp_constrained
);
criterion_main!(benches);
