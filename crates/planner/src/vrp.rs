//! Vehicle routing with energy constraints.
//!
//! AnDrone's flight planner assigns virtual drones to physical drone
//! flights using the drone-delivery VRP of Dorling et al. (paper
//! Section 4): waypoints play the role of delivery locations, leg
//! costs come from the multirotor energy model, and the energy each
//! virtual drone is allotted at its waypoints is added to the route's
//! energy cost. The objective is to minimize completion time subject
//! to a fleet-size constraint, with battery capacity as a hard
//! feasibility constraint.
//!
//! Dorling et al. solve the VRP with simulated annealing; so do we.
//! The algorithm treats all waypoints independently — it may visit
//! waypoints of one virtual drone in the middle of another virtual
//! drone's set, and cannot honor user-prescribed orderings. The paper
//! calls this out as a limitation, and tests here pin the behaviour.
//! The one constraint beyond battery and fleet size is the memory
//! ceiling [`VrpProblem::party_cap`].

use crate::constraints::PartyIndex;
use androne_energy::DorlingModel;
use androne_hal::GeoPoint;
use rand::rngs::SmallRng;
use rand::Rng;

/// One waypoint visit to schedule.
#[derive(Debug, Clone)]
pub struct WaypointTask {
    /// Owning virtual drone: the task's party for
    /// [`VrpProblem::party_cap`].
    pub owner: String,
    /// Where the task happens.
    pub position: GeoPoint,
    /// Energy allotted to the virtual drone at this waypoint, J.
    pub service_energy_j: f64,
    /// Maximum service time at this waypoint, s.
    pub service_time_s: f64,
}

/// The routing problem.
#[derive(Debug, Clone)]
pub struct VrpProblem {
    /// Launch/return base.
    pub depot: GeoPoint,
    /// Waypoint tasks to serve.
    pub tasks: Vec<WaypointTask>,
    /// Maximum number of physical drones.
    pub fleet_size: usize,
    /// Plannable energy per drone battery, J.
    pub battery_budget_j: f64,
    /// The energy model.
    pub model: DorlingModel,
    /// Most distinct task owners one route may host (a physical
    /// drone's virtual-drone container capacity). `None` = unlimited.
    pub party_cap: Option<usize>,
}

/// One drone's route: task indices in visit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Indices into [`VrpProblem::tasks`].
    pub stops: Vec<usize>,
}

/// A solution: one route per drone used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VrpSolution {
    /// Routes. [`VrpProblem::solve`] returns at most `fleet_size`
    /// (one if `fleet_size` is 0), or more when the party-capacity
    /// repair opens routes.
    pub routes: Vec<Route>,
}

/// Why a solution is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum VrpError {
    /// A task is visited more or fewer than exactly once.
    CoverageViolation,
    /// A route exceeds the battery budget by the given joules.
    BatteryViolation(f64),
    /// More routes than the fleet allows.
    FleetViolation,
    /// A route hosts more owners than [`VrpProblem::party_cap`].
    CapacityViolation {
        /// Index into the solution's routes.
        route: usize,
        /// Distinct owners the route hosts.
        parties: usize,
    },
}

impl VrpProblem {
    /// Total energy of a route: depot → stops → depot travel plus
    /// the service energy at each stop.
    pub fn route_energy_j(&self, route: &Route) -> f64 {
        let mut energy = 0.0;
        let mut here = self.depot;
        for &i in &route.stops {
            let t = &self.tasks[i];
            energy += self.model.leg_energy_j(here.distance_m(&t.position), 0.0);
            energy += t.service_energy_j;
            here = t.position;
        }
        energy += self.model.leg_energy_j(here.distance_m(&self.depot), 0.0);
        energy
    }

    /// Total time of a route: travel plus service times.
    pub fn route_time_s(&self, route: &Route) -> f64 {
        let mut time = 0.0;
        let mut here = self.depot;
        for &i in &route.stops {
            let t = &self.tasks[i];
            time += self.model.leg_time_s(here.distance_m(&t.position));
            time += t.service_time_s;
            here = t.position;
        }
        time += self.model.leg_time_s(here.distance_m(&self.depot));
        time
    }

    /// Solution cost: makespan, plus a small total-time tiebreak,
    /// plus heavy penalties for battery violations.
    pub fn cost(&self, sol: &VrpSolution) -> f64 {
        let mut makespan = 0.0f64;
        let mut total = 0.0;
        let mut penalty = 0.0;
        for route in &sol.routes {
            let t = self.route_time_s(route);
            makespan = makespan.max(t);
            total += t;
            let e = self.route_energy_j(route);
            if e > self.battery_budget_j {
                penalty += 10_000.0 + (e - self.battery_budget_j);
            }
        }
        makespan + 0.05 * total + penalty
    }

    /// Validates coverage, battery, and fleet constraints. The fleet
    /// check is the uncapped contract (at most `fleet_size` routes): a
    /// capacity-repaired plan from [`solve`](Self::solve) may
    /// legitimately fail it. [`check_capacity`](Self::check_capacity)
    /// checks the cap.
    pub fn validate(&self, sol: &VrpSolution) -> Result<(), VrpError> {
        if sol.routes.len() > self.fleet_size {
            return Err(VrpError::FleetViolation);
        }
        let mut seen = vec![0u32; self.tasks.len()];
        for route in &sol.routes {
            for &i in &route.stops {
                if i >= self.tasks.len() {
                    return Err(VrpError::CoverageViolation);
                }
                seen[i] += 1;
            }
        }
        if seen.iter().any(|&c| c != 1) {
            return Err(VrpError::CoverageViolation);
        }
        for route in &sol.routes {
            let e = self.route_energy_j(route);
            if e > self.battery_budget_j {
                return Err(VrpError::BatteryViolation(e - self.battery_budget_j));
            }
        }
        Ok(())
    }

    /// Greedy nearest-neighbour construction, opening a new route
    /// when the battery budget would be exceeded.
    pub fn greedy(&self) -> VrpSolution {
        let mut unvisited: Vec<usize> = (0..self.tasks.len()).collect();
        let mut routes: Vec<Route> = Vec::new();
        while !unvisited.is_empty() {
            let mut route = Route { stops: Vec::new() };
            let mut here = self.depot;
            loop {
                // Nearest unvisited stop that keeps the route feasible.
                let mut best: Option<(usize, f64)> = None;
                for (pos, &task) in unvisited.iter().enumerate() {
                    let d = here.distance_m(&self.tasks[task].position);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        let mut candidate = route.clone();
                        candidate.stops.push(task);
                        if self.route_energy_j(&candidate) <= self.battery_budget_j {
                            best = Some((pos, d));
                        }
                    }
                }
                match best {
                    Some((pos, _)) => {
                        let task = unvisited.remove(pos);
                        here = self.tasks[task].position;
                        route.stops.push(task);
                    }
                    None => break,
                }
            }
            if route.stops.is_empty() {
                // No single stop fits the battery: place it alone
                // (validation will flag the battery violation).
                route.stops.push(unvisited.remove(0));
            }
            routes.push(route);
        }
        // Respect the fleet-size cap by merging the shortest routes.
        while routes.len() > self.fleet_size.max(1) {
            routes.sort_by(|a, b| self.route_time_s(a).total_cmp(&self.route_time_s(b)));
            let short = routes.remove(0);
            routes[0].stops.extend(short.stops);
        }
        VrpSolution { routes }
    }

    /// Simulated-annealing solve (Dorling et al.'s approach). When
    /// [`party_cap`](Self::party_cap) can bind, every candidate the
    /// annealer evaluates is first repaired to meet it, so the
    /// returned solution passes [`check_capacity`](Self::check_capacity).
    ///
    /// The solution has at most `fleet_size` routes unless the
    /// party-capacity repair had to open more: a route never
    /// overloads a drone's container capacity, so a wave with more
    /// parties than `fleet_size` drones can host returns extra routes
    /// (and fails [`validate`](Self::validate)'s fleet check). The
    /// fleet flies every route it is given.
    pub fn solve(&self, iterations: usize, seed: u64) -> VrpSolution {
        let mut rng = androne_simkern::stream_rng(seed);
        let legs = LegTable::new(self);
        let mut parties = PartyIndex::binding(self);
        let mut current = self.greedy();
        if let Some(parties) = &mut parties {
            parties.repair(&mut current);
        }
        // Ensure every allowed route exists so moves can use them.
        while current.routes.len() < self.fleet_size {
            current.routes.push(Route { stops: Vec::new() });
        }
        let mut best = current.clone();
        let mut cand = current.clone();
        let mut cur_cost = legs.cost(&current);
        let mut best_cost = cur_cost;
        if self.tasks.is_empty() {
            return VrpSolution { routes: Vec::new() };
        }
        let t0 = (cur_cost * 0.2).max(1.0);
        for iter in 0..iterations {
            let temp = t0 * (1.0 - iter as f64 / iterations as f64).max(1e-3);
            copy_solution(&mut cand, &current);
            match rng.gen_range(0..3) {
                0 => relocate(&mut cand, &mut rng),
                1 => swap(&mut cand, &mut rng),
                _ => two_opt(&mut cand, &mut rng),
            }
            if let Some(parties) = &mut parties {
                parties.repair(&mut cand);
                while cand.routes.len() < self.fleet_size {
                    cand.routes.push(Route { stops: Vec::new() });
                }
            }
            let cand_cost = legs.cost(&cand);
            let accept =
                cand_cost < cur_cost || rng.gen::<f64>() < ((cur_cost - cand_cost) / temp).exp();
            if accept {
                std::mem::swap(&mut current, &mut cand);
                cur_cost = cand_cost;
                if cur_cost < best_cost {
                    copy_solution(&mut best, &current);
                    best_cost = cur_cost;
                }
            }
        }
        best.routes.retain(|r| !r.stops.is_empty());
        best
    }
}

/// Leg energy and time between every pair of nodes, built once per
/// solve so the annealer never re-runs the trigonometry of
/// [`GeoPoint::distance_m`] or the energy model. Node 0 is the depot
/// and node `i + 1` is task `i`; entry `a * nodes + b` is the leg
/// from `a` to `b`, costed exactly as [`VrpProblem::route_energy_j`]
/// and [`VrpProblem::route_time_s`] cost it.
struct LegTable<'a> {
    problem: &'a VrpProblem,
    nodes: usize,
    energy_j: Vec<f64>,
    time_s: Vec<f64>,
}

impl<'a> LegTable<'a> {
    fn new(problem: &'a VrpProblem) -> Self {
        let nodes = problem.tasks.len() + 1;
        let pos = |n: usize| {
            if n == 0 {
                problem.depot
            } else {
                problem.tasks[n - 1].position
            }
        };
        let mut energy_j = Vec::with_capacity(nodes * nodes);
        let mut time_s = Vec::with_capacity(nodes * nodes);
        for a in 0..nodes {
            for b in 0..nodes {
                let d = pos(a).distance_m(&pos(b));
                energy_j.push(problem.model.leg_energy_j(d, 0.0));
                time_s.push(problem.model.leg_time_s(d));
            }
        }
        LegTable {
            problem,
            nodes,
            energy_j,
            time_s,
        }
    }

    /// [`VrpProblem::route_time_s`] from the table, summed in the
    /// same order.
    fn route_time_s(&self, stops: &[usize]) -> f64 {
        let mut time = 0.0;
        let mut here = 0;
        for &i in stops {
            time += self.time_s[here * self.nodes + i + 1];
            time += self.problem.tasks[i].service_time_s;
            here = i + 1;
        }
        time += self.time_s[here * self.nodes];
        time
    }

    /// [`VrpProblem::route_energy_j`] from the table, summed in the
    /// same order.
    fn route_energy_j(&self, stops: &[usize]) -> f64 {
        let mut energy = 0.0;
        let mut here = 0;
        for &i in stops {
            energy += self.energy_j[here * self.nodes + i + 1];
            energy += self.problem.tasks[i].service_energy_j;
            here = i + 1;
        }
        energy += self.energy_j[here * self.nodes];
        energy
    }

    /// [`VrpProblem::cost`] from the table, bit for bit: the same
    /// terms added in the same order.
    fn cost(&self, sol: &VrpSolution) -> f64 {
        let mut makespan = 0.0f64;
        let mut total = 0.0;
        let mut penalty = 0.0;
        for route in &sol.routes {
            let t = self.route_time_s(&route.stops);
            makespan = makespan.max(t);
            total += t;
            let e = self.route_energy_j(&route.stops);
            let budget = self.problem.battery_budget_j;
            if e > budget {
                penalty += 10_000.0 + (e - budget);
            }
        }
        makespan + 0.05 * total + penalty
    }
}

/// Overwrites `dst` with `src`, reusing `dst`'s route buffers.
fn copy_solution(dst: &mut VrpSolution, src: &VrpSolution) {
    dst.routes.truncate(src.routes.len());
    for (d, s) in dst.routes.iter_mut().zip(&src.routes) {
        d.stops.clear();
        d.stops.extend_from_slice(&s.stops);
    }
    let reused = dst.routes.len();
    dst.routes.extend_from_slice(&src.routes[reused..]);
}

/// A uniformly drawn non-empty route: one `gen_range` over the
/// non-empty routes, none when every route is empty.
fn nonempty_route(sol: &VrpSolution, rng: &mut SmallRng) -> Option<usize> {
    let count = sol.routes.iter().filter(|r| !r.stops.is_empty()).count();
    if count == 0 {
        return None;
    }
    let k = rng.gen_range(0..count);
    sol.routes
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.stops.is_empty())
        .nth(k)
        .map(|(i, _)| i)
}

/// Move one stop to a random position in a random route.
fn relocate(sol: &mut VrpSolution, rng: &mut SmallRng) {
    let Some(from) = nonempty_route(sol, rng) else {
        return;
    };
    let idx = rng.gen_range(0..sol.routes[from].stops.len());
    let stop = sol.routes[from].stops.remove(idx);
    let to = rng.gen_range(0..sol.routes.len());
    let at = if sol.routes[to].stops.is_empty() {
        0
    } else {
        rng.gen_range(0..=sol.routes[to].stops.len())
    };
    sol.routes[to].stops.insert(at, stop);
}

/// Swap two stops across (or within) routes.
fn swap(sol: &mut VrpSolution, rng: &mut SmallRng) {
    let (Some(a), Some(b)) = (nonempty_route(sol, rng), nonempty_route(sol, rng)) else {
        return;
    };
    let ia = rng.gen_range(0..sol.routes[a].stops.len());
    let ib = rng.gen_range(0..sol.routes[b].stops.len());
    if a == b {
        sol.routes[a].stops.swap(ia, ib);
    } else {
        let tmp = sol.routes[a].stops[ia];
        sol.routes[a].stops[ia] = sol.routes[b].stops[ib];
        sol.routes[b].stops[ib] = tmp;
    }
}

/// Reverse a random segment within one route.
fn two_opt(sol: &mut VrpSolution, rng: &mut SmallRng) {
    let Some(r) = nonempty_route(sol, rng) else {
        return;
    };
    let n = sol.routes[r].stops.len();
    if n < 2 {
        return;
    }
    let i = rng.gen_range(0..n - 1);
    let j = rng.gen_range(i + 1..n);
    sol.routes[r].stops[i..=j].reverse();
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPOT: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    fn task(owner: &str, north: f64, east: f64, energy: f64) -> WaypointTask {
        WaypointTask {
            owner: owner.into(),
            position: DEPOT.offset_m(north, east, 15.0),
            service_energy_j: energy,
            service_time_s: 60.0,
        }
    }

    fn problem(tasks: Vec<WaypointTask>, fleet: usize) -> VrpProblem {
        VrpProblem {
            depot: DEPOT,
            tasks,
            fleet_size: fleet,
            battery_budget_j: 160_000.0,
            model: DorlingModel::f450_prototype(),
            party_cap: None,
        }
    }

    #[test]
    fn greedy_covers_every_task() {
        let p = problem(
            vec![
                task("a", 100.0, 0.0, 5_000.0),
                task("a", 200.0, 50.0, 5_000.0),
                task("b", -150.0, 80.0, 8_000.0),
                task("c", 40.0, -120.0, 3_000.0),
            ],
            2,
        );
        let sol = p.greedy();
        p.validate(&sol).unwrap();
    }

    #[test]
    fn annealing_never_worsens_greedy() {
        let p = problem(
            vec![
                task("a", 100.0, 0.0, 5_000.0),
                task("a", 200.0, 50.0, 5_000.0),
                task("b", -150.0, 80.0, 8_000.0),
                task("c", 40.0, -120.0, 3_000.0),
                task("d", 300.0, 300.0, 2_000.0),
                task("e", -80.0, -200.0, 4_000.0),
            ],
            2,
        );
        let greedy = p.greedy();
        let solved = p.solve(20_000, 7);
        p.validate(&solved).unwrap();
        assert!(p.cost(&solved) <= p.cost(&greedy) + 1e-9);
    }

    #[test]
    fn annealing_finds_obvious_clustering() {
        // Two tight clusters far apart; with two drones the optimal
        // split is one cluster each.
        let mut tasks = Vec::new();
        for i in 0..4 {
            tasks.push(task("west", 50.0 + i as f64 * 10.0, -2_000.0, 1_000.0));
            tasks.push(task("east", 50.0 + i as f64 * 10.0, 2_000.0, 1_000.0));
        }
        let p = problem(tasks, 2);
        let sol = p.solve(30_000, 11);
        p.validate(&sol).unwrap();
        assert_eq!(sol.routes.len(), 2);
        for route in &sol.routes {
            let easts: Vec<f64> = route
                .stops
                .iter()
                .map(|&i| p.tasks[i].position.longitude)
                .collect();
            let all_west = easts.iter().all(|&e| e < p.depot.longitude);
            let all_east = easts.iter().all(|&e| e > p.depot.longitude);
            assert!(all_west || all_east, "clusters are not mixed: {easts:?}");
        }
    }

    #[test]
    fn waypoint_energy_allotments_count_against_battery() {
        let mut p = problem(vec![task("a", 100.0, 0.0, 0.0)], 1);
        let bare = p.route_energy_j(&Route { stops: vec![0] });
        p.tasks[0].service_energy_j = 45_000.0;
        let loaded = p.route_energy_j(&Route { stops: vec![0] });
        assert!((loaded - bare - 45_000.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_battery_is_flagged() {
        let mut p = problem(vec![task("a", 100.0, 0.0, 500_000.0)], 1);
        p.battery_budget_j = 100_000.0;
        let sol = p.greedy();
        assert!(matches!(
            p.validate(&sol),
            Err(VrpError::BatteryViolation(_))
        ));
    }

    #[test]
    fn owners_waypoints_may_interleave() {
        // The paper's stated limitation: the algorithm treats
        // waypoints independently, so one owner's waypoints can be
        // visited in the middle of another's. Construct a geometry
        // where interleaving is optimal and check the solver uses it.
        let tasks = vec![
            task("a", 100.0, 0.0, 0.0),
            task("b", 200.0, 0.0, 0.0),
            task("a", 300.0, 0.0, 0.0),
        ];
        let p = problem(tasks, 1);
        let sol = p.solve(20_000, 3);
        p.validate(&sol).unwrap();
        let order: Vec<&str> = sol.routes[0]
            .stops
            .iter()
            .map(|&i| p.tasks[i].owner.as_str())
            .collect();
        assert!(
            order == ["a", "b", "a"]
                || order == ["a", "b", "a"].iter().rev().cloned().collect::<Vec<_>>(),
            "optimal route interleaves owners: {order:?}"
        );
    }

    #[test]
    fn capped_solve_keeps_every_route_within_the_cap() {
        // Four owners and one drone: uncapped, one route carries all
        // four; capped at two, the repair opens a second route, which
        // `validate`'s fleet-size contract still rejects.
        let tasks = vec![
            task("a", 100.0, 0.0, 1_000.0),
            task("b", 120.0, 20.0, 1_000.0),
            task("c", -100.0, 0.0, 1_000.0),
            task("d", -120.0, -20.0, 1_000.0),
            task("a", 140.0, 0.0, 1_000.0),
        ];
        let mut p = problem(tasks, 1);
        let uncapped = p.solve(5_000, 3);
        p.validate(&uncapped).unwrap();
        p.party_cap = Some(2);
        assert_eq!(
            p.check_capacity(&uncapped),
            Err(VrpError::CapacityViolation {
                route: 0,
                parties: 4
            })
        );
        let capped = p.solve(5_000, 3);
        p.check_capacity(&capped).unwrap();
        assert_eq!(capped.routes.len(), 2);
        assert_eq!(p.validate(&capped), Err(VrpError::FleetViolation));
    }

    #[test]
    fn fleet_size_is_respected() {
        let tasks: Vec<WaypointTask> = (0..8)
            .map(|i| task("x", 50.0 * (i + 1) as f64, 30.0 * i as f64, 1_000.0))
            .collect();
        let p = problem(tasks, 2);
        let sol = p.solve(15_000, 5);
        assert!(sol.routes.len() <= 2);
        p.validate(&sol).unwrap();
    }

    #[test]
    fn empty_problem_solves_to_empty() {
        let p = problem(vec![], 2);
        let sol = p.solve(100, 1);
        assert!(sol.routes.is_empty());
        p.validate(&sol).unwrap();
    }

    use proptest::prelude::*;
    use rand::SeedableRng;

    /// A random problem, capped at 1–3 of its up to seven owners a
    /// route, and a random solution to it (a permutation of the tasks
    /// split over 1–5 routes, some of them empty).
    fn random_case(seed: u64) -> (VrpProblem, VrpSolution) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0..24usize);
        let owners = rng.gen_range(1..8);
        let tasks = (0..n)
            .map(|_| WaypointTask {
                owner: format!("vd{}", rng.gen_range(0..owners)),
                position: DEPOT.offset_m(
                    rng.gen_range(-800.0..800.0),
                    rng.gen_range(-800.0..800.0),
                    rng.gen_range(0.0..40.0),
                ),
                service_energy_j: rng.gen_range(0.0..40_000.0),
                service_time_s: rng.gen_range(0.0..120.0),
            })
            .collect();
        let mut p = problem(tasks, rng.gen_range(1..5));
        p.party_cap = Some(rng.gen_range(1..4));
        // From budgets a single stop breaks to ones nothing breaks.
        p.battery_budget_j = rng.gen_range(1_000.0..400_000.0);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut routes = vec![Route { stops: Vec::new() }; rng.gen_range(1..6)];
        for t in order {
            let r = rng.gen_range(0..routes.len());
            routes[r].stops.push(t);
        }
        (p, VrpSolution { routes })
    }

    proptest! {
        #[test]
        fn leg_table_cost_is_bit_identical(seed in any::<u64>()) {
            let (p, mut sol) = random_case(seed);
            let legs = LegTable::new(&p);
            prop_assert_eq!(legs.cost(&sol).to_bits(), p.cost(&sol).to_bits());
            for route in &sol.routes {
                prop_assert_eq!(
                    legs.route_energy_j(&route.stops).to_bits(),
                    p.route_energy_j(route).to_bits()
                );
                prop_assert_eq!(
                    legs.route_time_s(&route.stops).to_bits(),
                    p.route_time_s(route).to_bits()
                );
            }
            if let Some(mut parties) = PartyIndex::binding(&p) {
                parties.repair(&mut sol);
            }
            prop_assert_eq!(legs.cost(&sol).to_bits(), p.cost(&sol).to_bits());
        }

        #[test]
        fn solver_moves_keep_the_table_cost_exact(seed in any::<u64>()) {
            // Walk the annealer's own moves (and repairs) through a
            // reused candidate buffer, checking the cost at each step.
            let (p, sol) = random_case(seed);
            let legs = LegTable::new(&p);
            let mut parties = PartyIndex::binding(&p);
            let mut rng = androne_simkern::stream_rng(seed);
            let mut current = sol.clone();
            let mut cand = VrpSolution { routes: Vec::new() };
            for step in 0..40 {
                copy_solution(&mut cand, &current);
                prop_assert_eq!(&cand, &current);
                match step % 3 {
                    0 => relocate(&mut cand, &mut rng),
                    1 => swap(&mut cand, &mut rng),
                    _ => two_opt(&mut cand, &mut rng),
                }
                if let Some(parties) = parties.as_mut().filter(|_| step % 2 == 0) {
                    parties.repair(&mut cand);
                }
                prop_assert_eq!(legs.cost(&cand).to_bits(), p.cost(&cand).to_bits());
                std::mem::swap(&mut current, &mut cand);
            }
        }
    }
}
