//! Ablation A4: VRP (simulated annealing) vs naive nearest-neighbour
//! routing.
//!
//! The paper's flight planner uses the Dorling et al. VRP. This
//! ablation compares it against the obvious greedy baseline on
//! random waypoint sets, reporting makespan and energy.

use androne::energy::DorlingModel;
use androne::hal::GeoPoint;
use androne::planner::{VrpProblem, WaypointTask};
use androne::simkern::stream_rng;
use androne_bench::banner;
use rand::Rng;

fn random_problem(n_tasks: usize, fleet: usize, seed: u64) -> VrpProblem {
    let depot = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut rng = stream_rng(seed);
    let tasks = (0..n_tasks)
        .map(|i| WaypointTask {
            owner: format!("vd{i}"),
            position: depot.offset_m(
                rng.gen_range(-900.0..900.0),
                rng.gen_range(-900.0..900.0),
                15.0,
            ),
            service_energy_j: rng.gen_range(1_000.0..8_000.0),
            service_time_s: rng.gen_range(20.0..90.0),
        })
        .collect();
    VrpProblem {
        depot,
        tasks,
        fleet_size: fleet,
        // A long-endurance pack so every random instance is fleet-
        // feasible (infeasibility reporting is tested elsewhere).
        battery_budget_j: 400_000.0,
        model: DorlingModel::f450_prototype(),
        party_cap: None,
    }
}

fn makespan(p: &VrpProblem, sol: &androne::planner::VrpSolution) -> f64 {
    sol.routes
        .iter()
        .map(|r| p.route_time_s(r))
        .fold(0.0, f64::max)
}

fn total_energy(p: &VrpProblem, sol: &androne::planner::VrpSolution) -> f64 {
    sol.routes.iter().map(|r| p.route_energy_j(r)).sum()
}

fn main() {
    banner(
        "Ablation A4",
        "VRP (simulated annealing) vs nearest-neighbour",
    );
    println!(
        "{:>5} {:>5}  {:>12} {:>12} {:>8}  {:>12} {:>12}",
        "tasks", "fleet", "NN makespan", "SA makespan", "gain", "NN energy", "SA energy"
    );
    let mut sa_wins = 0;
    let mut cases = 0;
    for (n, fleet) in [(6, 1), (8, 2), (10, 2), (12, 3)] {
        for seed in 0..3u64 {
            let p = random_problem(n, fleet, 1000 + seed);
            let greedy = p.greedy();
            let solved = p.solve(30_000, 7 + seed);
            p.validate(&solved).expect("SA solution valid");
            let (g_mk, s_mk) = (makespan(&p, &greedy), makespan(&p, &solved));
            let (g_e, s_e) = (total_energy(&p, &greedy), total_energy(&p, &solved));
            cases += 1;
            if s_mk <= g_mk + 1e-6 {
                sa_wins += 1;
            }
            println!(
                "{n:>5} {fleet:>5}  {g_mk:>11.0}s {s_mk:>11.0}s {:>7.1}%  {g_e:>11.0}J {s_e:>11.0}J",
                100.0 * (g_mk - s_mk) / g_mk
            );
        }
    }
    println!("\nSA matched or beat nearest-neighbour makespan in {sa_wins}/{cases} cases");
    assert_eq!(sa_wins, cases, "annealing never loses to its own seed");
    println!(
        "conclusion: the Dorling-style SA planner consistently shortens the\n\
         longest route, which is flight time a battery has to survive."
    );
}
