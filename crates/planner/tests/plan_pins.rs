//! Plan pins: the routes `VrpProblem::solve` returns for four seeded
//! problems, hashed. Any change to the annealer's move sequence, its
//! accept rule, its cost summation order or the capacity repair shows
//! up here as a changed route, so a pure speed-up of the planner must
//! leave every pin as it is.

use androne_energy::{BatteryPack, DorlingModel};
use androne_hal::GeoPoint;
use androne_planner::{VrpProblem, VrpSolution, WaypointTask};
use androne_simkern::{substream_seed, StateHasher};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

/// The cloud planner's seed for every flight plan.
const PLAN_SEED: u64 = 0xA17D;

/// `(problem, routes hash)`. The first two were captured from the
/// planner before the leg table and the task→party index existed;
/// the last two from the planner that took its parties as explicit
/// task lists, given the same parties the owners here imply.
const VRP_PLAN_PINS: [(&str, u64); 4] = [
    ("fleet_dense_first_wave", 0x9776_ee62_19a3_6b8c),
    ("unconstrained", 0xbb42_954e_2f2e_ee83),
    ("capacity", 0x063c_911f_7b1d_bf4e),
    ("disjoint_parties", 0x666d_4924_fca9_f5c7),
];

/// Hash of every route, stop by stop, with each route's length
/// folded in so moving a stop across a route boundary changes it.
fn routes_hash(sol: &VrpSolution) -> u64 {
    let mut h = StateHasher::new();
    h.write_usize(sol.routes.len());
    for route in &sol.routes {
        h.write_usize(route.stops.len());
        for &s in &route.stops {
            h.write_usize(s);
        }
    }
    h.finish()
}

fn task(owner: String, north: f64, east: f64, energy_j: f64, time_s: f64) -> WaypointTask {
    WaypointTask {
        owner,
        position: BASE.offset_m(north, east, 15.0),
        service_energy_j: energy_j,
        service_time_s: time_s,
    }
}

fn problem(tasks: Vec<WaypointTask>, fleet_size: usize, party_cap: Option<usize>) -> VrpProblem {
    VrpProblem {
        depot: BASE,
        tasks,
        fleet_size,
        battery_budget_j: BatteryPack::turnigy_3s_5000().plannable_j(),
        model: DorlingModel::f450_prototype(),
        party_cap,
    }
}

/// The first wave of the `fleet_dense` benchmark workload: 22 tenants
/// `vd0..vd21` with 3 waypoints each, 10–40 m from the base in any
/// quadrant, 30 kJ and 3 s allotted per tenant, 4 drones, at most 3
/// tenants a flight.
fn fleet_dense_first_wave() -> VrpProblem {
    let mut tasks = Vec::new();
    for i in 0..22 {
        for j in 0..3 {
            let h = substream_seed(0xDE45E, 7, i * 8 + j);
            let north = 10.0 + (h & 0xFFFF) as f64 / 65_535.0 * 30.0;
            let east = 10.0 + ((h >> 16) & 0xFFFF) as f64 / 65_535.0 * 30.0;
            let sn = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            let se = if (h >> 33) & 1 == 0 { 1.0 } else { -1.0 };
            // The allotment splits evenly over the waypoints.
            tasks.push(task(format!("vd{i}"), sn * north, se * east, 10_000.0, 1.0));
        }
    }
    problem(tasks, 4, Some(3))
}

/// `n` tasks scattered up to ~400 m from the base, task `i` owned by
/// `owner(i)`.
fn scattered(n: usize, salt: u64, owner: impl Fn(usize) -> usize) -> Vec<WaypointTask> {
    (0..n)
        .map(|i| {
            let h = substream_seed(salt, 1, i);
            let north = (h & 0xFFFF) as f64 / 65_535.0 * 800.0 - 400.0;
            let east = ((h >> 16) & 0xFFFF) as f64 / 65_535.0 * 800.0 - 400.0;
            let energy = 1_000.0 + ((h >> 32) & 0xFFF) as f64;
            let time = 20.0 + ((h >> 44) & 0x1F) as f64;
            task(format!("vd{}", owner(i)), north, east, energy, time)
        })
        .collect()
}

fn pinned_problem(name: &str) -> (VrpProblem, usize) {
    match name {
        "fleet_dense_first_wave" => (fleet_dense_first_wave(), 2_000),
        "unconstrained" => (problem(scattered(14, 1, |i| i), 3, None), 5_000),
        // Tasks k, k + 5 and k + 10 share owner k.
        "capacity" => (problem(scattered(15, 3, |i| i % 5), 3, Some(2)), 5_000),
        // Five owners of 3, 2, 2, 2 and 3 consecutive tasks.
        "disjoint_parties" => {
            let owner = |i| [0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4][i];
            (problem(scattered(12, 4, owner), 3, Some(2)), 5_000)
        }
        other => unreachable!("no pinned problem named {other}"),
    }
}

fn solve(name: &str) -> VrpSolution {
    let (p, iterations) = pinned_problem(name);
    p.solve(iterations, PLAN_SEED)
}

#[test]
fn vrp_plans_match_their_pins() {
    let got: Vec<(&str, u64)> = VRP_PLAN_PINS
        .iter()
        .map(|&(name, _)| (name, routes_hash(&solve(name))))
        .collect();
    assert_eq!(got, VRP_PLAN_PINS, "a pinned plan changed");
}

#[test]
fn pinned_plans_are_feasible() {
    for (name, _) in VRP_PLAN_PINS {
        let (p, iterations) = pinned_problem(name);
        let sol = p.solve(iterations, PLAN_SEED);
        p.check_capacity(&sol).unwrap();
        let mut seen = vec![0; p.tasks.len()];
        for s in sol.routes.iter().flat_map(|r| &r.stops) {
            seen[*s] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "{name}: every task exactly once"
        );
    }
}

/// Capacity repair opens a route rather than overload one, so a
/// capped plan may use more routes than `fleet_size`; the fleet flies
/// every route it is given.
#[test]
fn capacity_repair_may_exceed_fleet_size() {
    let p = fleet_dense_first_wave();
    let sol = p.solve(2_000, PLAN_SEED);
    assert!(
        sol.routes.len() > p.fleet_size,
        "{} routes",
        sol.routes.len()
    );
    for route in &sol.routes {
        let mut owners: Vec<&str> = route
            .stops
            .iter()
            .map(|&s| p.tasks[s].owner.as_str())
            .collect();
        owners.sort_unstable();
        owners.dedup();
        assert!(owners.len() <= 3, "{} parties on one route", owners.len());
    }
}

#[test]
fn routes_hash_moves_with_any_single_route() {
    let base = solve("capacity");
    let pinned = routes_hash(&base);
    for r in 0..base.routes.len() {
        let mut changed = base.clone();
        changed.routes[r].stops.reverse();
        if changed.routes[r].stops != base.routes[r].stops {
            assert_ne!(routes_hash(&changed), pinned, "route {r} reversed");
        }
        let mut shorter = base.clone();
        shorter.routes[r].stops.pop();
        assert_ne!(routes_hash(&shorter), pinned, "route {r} shortened");
    }
}
