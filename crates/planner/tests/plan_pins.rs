//! Plan pins: the routes `VrpProblem::solve_constrained` returns for
//! five seeded problems, hashed. Any change to the annealer's move
//! sequence, its accept rule, its cost summation order or the
//! constraint repair shows up here as a changed route, so a pure
//! speed-up of the planner must leave every pin as it is.

use androne_energy::{BatteryPack, DorlingModel};
use androne_hal::GeoPoint;
use androne_planner::{RouteConstraints, VrpProblem, VrpSolution, WaypointTask};
use androne_simkern::{substream_seed, StateHasher};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

/// The cloud planner's seed for every flight plan.
const PLAN_SEED: u64 = 0xA17D;

/// `(problem, routes hash)`, captured from the planner before the
/// leg table and the task→party index existed.
const VRP_PLAN_PINS: [(&str, u64); 5] = [
    ("fleet_dense_first_wave", 0x9776_ee62_19a3_6b8c),
    ("unconstrained", 0xbb42_954e_2f2e_ee83),
    ("ordering_and_grouping", 0xe6c7_5242_d519_e8a4),
    ("capacity_and_ordering", 0xbc37_bed5_c418_c82e),
    ("overlapping_parties", 0xcd27_5cf8_7000_46a1),
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

fn task(north: f64, east: f64, energy_j: f64, time_s: f64) -> WaypointTask {
    WaypointTask {
        owner: String::new(),
        position: BASE.offset_m(north, east, 15.0),
        service_energy_j: energy_j,
        service_time_s: time_s,
    }
}

fn problem(tasks: Vec<WaypointTask>, fleet_size: usize) -> VrpProblem {
    VrpProblem {
        depot: BASE,
        tasks,
        fleet_size,
        battery_budget_j: BatteryPack::turnigy_3s_5000().plannable_j(),
        model: DorlingModel::f450_prototype(),
    }
}

/// The first wave of the `fleet_dense` benchmark workload: 22 tenants
/// with 3 waypoints each, 10–40 m from the base in any quadrant, 30 kJ
/// and 3 s allotted per tenant, 4 drones, at most 3 tenants a flight.
fn fleet_dense_first_wave() -> (VrpProblem, RouteConstraints) {
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
            // The allotment splits evenly over the waypoints.
            tasks.push(task(sn * north, se * east, 10_000.0, 1.0));
        }
        parties.push(party);
    }
    let constraints = RouteConstraints::none().with_party_capacity(parties, 3);
    (problem(tasks, 4), constraints)
}

/// `n` tasks scattered up to ~400 m from the base.
fn scattered(n: usize, salt: u64) -> Vec<WaypointTask> {
    (0..n)
        .map(|i| {
            let h = substream_seed(salt, 1, i);
            let north = (h & 0xFFFF) as f64 / 65_535.0 * 800.0 - 400.0;
            let east = ((h >> 16) & 0xFFFF) as f64 / 65_535.0 * 800.0 - 400.0;
            let energy = 1_000.0 + ((h >> 32) & 0xFFF) as f64;
            task(north, east, energy, 20.0 + ((h >> 44) & 0x1F) as f64)
        })
        .collect()
}

fn solve(name: &str) -> VrpSolution {
    match name {
        "fleet_dense_first_wave" => {
            let (p, c) = fleet_dense_first_wave();
            p.solve_constrained(2_000, PLAN_SEED, &c)
        }
        "unconstrained" => {
            let p = problem(scattered(14, 1), 3);
            p.solve_constrained(5_000, PLAN_SEED, &RouteConstraints::none())
        }
        "ordering_and_grouping" => {
            let p = problem(scattered(12, 2), 3);
            let c = RouteConstraints::none()
                .in_order(&[0, 5, 9])
                .in_order(&[3, 1])
                .grouped(&[2, 7, 11])
                .grouped(&[4, 6]);
            p.solve_constrained(5_000, PLAN_SEED, &c)
        }
        "capacity_and_ordering" => {
            let p = problem(scattered(15, 3), 3);
            let parties = (0..5).map(|k| vec![k, k + 5, k + 10]).collect();
            let c = RouteConstraints::none()
                .with_party_capacity(parties, 2)
                .in_order(&[0, 5, 10])
                .in_order(&[12, 2]);
            p.solve_constrained(5_000, PLAN_SEED, &c)
        }
        "overlapping_parties" => {
            // Parties 0 and 5 list the same tasks, as do 4 and 7, so
            // those tasks belong to two parties each; party 6 names
            // tasks the problem does not have.
            let p = problem(scattered(12, 4), 3);
            let parties = vec![
                vec![0, 1, 2],
                vec![3, 4],
                vec![5, 6],
                vec![7, 8],
                vec![9, 10, 11],
                vec![2, 0, 1],
                vec![12, 40],
                vec![11, 9, 10],
            ];
            let c = RouteConstraints::none().with_party_capacity(parties, 2);
            p.solve_constrained(5_000, PLAN_SEED, &c)
        }
        other => unreachable!("no pinned problem named {other}"),
    }
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
    let (p, c) = fleet_dense_first_wave();
    let sol = p.solve_constrained(2_000, PLAN_SEED, &c);
    c.check(&sol).unwrap();
    let mut seen = vec![0; p.tasks.len()];
    for s in sol.routes.iter().flat_map(|r| &r.stops) {
        seen[*s] += 1;
    }
    assert!(seen.iter().all(|&n| n == 1), "every task exactly once");
}

/// Capacity repair opens a route rather than overload one, so a
/// constrained plan may use more routes than `fleet_size`; the fleet
/// flies every route it is given.
#[test]
fn capacity_repair_may_exceed_fleet_size() {
    let (p, c) = fleet_dense_first_wave();
    let sol = p.solve_constrained(2_000, PLAN_SEED, &c);
    assert!(
        sol.routes.len() > p.fleet_size,
        "{} routes",
        sol.routes.len()
    );
    for route in &sol.routes {
        let hosted = c
            .parties
            .iter()
            .filter(|party| route.stops.iter().any(|s| party.contains(s)))
            .count();
        assert!(hosted <= 3, "{hosted} parties on one route");
    }
}

#[test]
fn routes_hash_moves_with_any_single_route() {
    let base = solve("capacity_and_ordering");
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
