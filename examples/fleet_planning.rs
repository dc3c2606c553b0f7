//! Fleet planning: the Dorling-style VRP assigning ten waypoints
//! across a two-drone fleet — first exactly as the paper's planner
//! works (waypoints independent, owners may interleave), then with
//! this reproduction's *extension*: a cap on the customers (virtual
//! drones) one flight may carry, because a drone's board memory holds
//! only so many virtual-drone containers (paper Figure 12).
//!
//! ```text
//! cargo run --example fleet_planning
//! ```

use androne::cloud::MAX_VDRONES_PER_FLIGHT;
use androne::energy::DorlingModel;
use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, VrpProblem, WaypointTask};

fn main() {
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    // Ten waypoints from four customers scattered around the base.
    let sites: [(&str, f64, f64); 10] = [
        ("survey-co", 400.0, 100.0),
        ("survey-co", 500.0, 150.0),
        ("survey-co", 600.0, 100.0),
        ("realty", -300.0, 250.0),
        ("realty", -350.0, 300.0),
        ("news", 100.0, -450.0),
        ("news", 250.0, -500.0),
        ("inspect", 550.0, 130.0),
        ("inspect", -320.0, 280.0),
        ("inspect", 150.0, -480.0),
    ];
    let tasks: Vec<WaypointTask> = sites
        .iter()
        .map(|(owner, n, e)| WaypointTask {
            owner: owner.to_string(),
            position: base.offset_m(*n, *e, 15.0),
            service_energy_j: 4_000.0,
            service_time_s: 45.0,
        })
        .collect();
    let mut problem = VrpProblem {
        depot: base,
        tasks,
        fleet_size: 2,
        battery_budget_j: 160_000.0,
        model: DorlingModel::f450_prototype(),
        party_cap: None,
    };

    let print_plan = |title: &str, plans: &[FlightPlan]| {
        println!("\n{title}");
        for (i, plan) in plans.iter().enumerate() {
            let owners: Vec<&str> = plan.legs.iter().map(|l| l.owner.as_str()).collect();
            println!(
                "  drone {}: {:?}  ({:.0} s, {:.0} kJ)",
                i + 1,
                owners,
                plan.estimated_duration_s,
                plan.estimated_energy_j / 1000.0
            );
        }
    };

    // 1. The paper's planner: waypoints independent.
    let sol = problem.solve(30_000, 7);
    problem.validate(&sol).expect("valid");
    let plans = FlightPlan::from_solution(&problem, &sol, |_| 30.0);
    print_plan("Paper planner (owners may interleave):", &plans);
    let interleaved = plans.iter().any(|p| {
        p.legs
            .windows(3)
            .any(|w| w[0].owner == w[2].owner && w[0].owner != w[1].owner)
    });
    println!("  interleaving observed: {interleaved}");

    let most_owners = |plans: &[FlightPlan]| {
        plans
            .iter()
            .map(|p| {
                let mut owners: Vec<&str> = p.legs.iter().map(|l| l.owner.as_str()).collect();
                owners.sort_unstable();
                owners.dedup();
                owners.len()
            })
            .max()
            .unwrap_or(0)
    };
    println!("  most customers on one drone: {}", most_owners(&plans));

    // 2. Extension: at most `cap` customers (task owners) a flight.
    //    The prototype board holds MAX_VDRONES_PER_FLIGHT of them,
    //    which the plan above already meets, so cap a board with room
    //    for one fewer. The repair opens a route rather than overload
    //    one, so a capped plan may need more flights than drones.
    let cap = MAX_VDRONES_PER_FLIGHT - 1;
    problem.party_cap = Some(cap);
    let sol = problem.solve(30_000, 7);
    problem
        .check_capacity(&sol)
        .expect("no flight over the cap");
    let plans = FlightPlan::from_solution(&problem, &sol, |_| 30.0);
    print_plan(
        &format!("Capped planner (at most {cap} customers a flight):"),
        &plans,
    );
    let most = most_owners(&plans);
    assert!(most <= cap);
    println!("  most customers on one drone: {most}");
    let mut visits: Vec<usize> = sol.routes.iter().flat_map(|r| r.stops.clone()).collect();
    visits.sort_unstable();
    assert_eq!(visits, (0..problem.tasks.len()).collect::<Vec<_>>());

    // Show each customer their operating window.
    println!("\nOperating windows (start-end after launch):");
    for customer in ["survey-co", "realty", "news", "inspect"] {
        for plan in &plans {
            if let Some((start, end)) = plan.operating_window(customer) {
                println!("  {customer:<10} {start:>6.0}s - {end:>6.0}s");
                break;
            }
        }
    }
    println!(
        "\nchecks passed: every waypoint visited once, battery and fleet limits \
         respected uncapped, the customer cap respected capped"
    );
}
