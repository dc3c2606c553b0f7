//! Mission plans: a solved route turned into an executable flight.

use androne_hal::GeoPoint;

use crate::vrp::{VrpProblem, VrpSolution};

/// One leg of a physical drone's flight plan.
#[derive(Debug, Clone)]
pub struct Leg {
    /// The virtual drone served at this waypoint.
    pub owner: String,
    /// Waypoint position.
    pub position: GeoPoint,
    /// Geofence radius granted at this waypoint, m.
    pub max_radius_m: f64,
    /// Energy the virtual drone may spend here, J.
    pub service_energy_j: f64,
    /// Maximum service time here, s.
    pub service_time_s: f64,
    /// Estimated arrival time from launch, s (assuming full service
    /// times at earlier waypoints).
    pub eta_s: f64,
}

/// A full plan for one physical drone flight.
#[derive(Debug, Clone)]
pub struct FlightPlan {
    /// Launch/return base.
    pub base: GeoPoint,
    /// Ordered legs.
    pub legs: Vec<Leg>,
    /// Estimated total flight time, s.
    pub estimated_duration_s: f64,
    /// Estimated total energy, J.
    pub estimated_energy_j: f64,
}

impl FlightPlan {
    /// Builds plans (one per route) from a VRP solution. `radius_of`
    /// supplies the geofence radius per task index.
    pub fn from_solution(
        problem: &VrpProblem,
        solution: &VrpSolution,
        radius_of: impl Fn(usize) -> f64,
    ) -> Vec<FlightPlan> {
        solution
            .routes
            .iter()
            .map(|route| {
                let mut legs = Vec::new();
                let mut here = problem.depot;
                let mut eta = 0.0;
                for &i in &route.stops {
                    let t = &problem.tasks[i];
                    eta += problem.model.leg_time_s(here.distance_m(&t.position));
                    legs.push(Leg {
                        owner: t.owner.clone(),
                        position: t.position,
                        max_radius_m: radius_of(i),
                        service_energy_j: t.service_energy_j,
                        service_time_s: t.service_time_s,
                        eta_s: eta,
                    });
                    eta += t.service_time_s;
                    here = t.position;
                }
                FlightPlan {
                    base: problem.depot,
                    legs,
                    estimated_duration_s: problem.route_time_s(route),
                    estimated_energy_j: problem.route_energy_j(route),
                }
            })
            .collect()
    }

    /// The operating window (start, end) in seconds from launch for
    /// the given owner's first waypoint — what the portal shows the
    /// user as an estimate (paper Section 2), padded by 20%.
    pub fn operating_window(&self, owner: &str) -> Option<(f64, f64)> {
        let leg = self.legs.iter().find(|l| l.owner == owner)?;
        Some((leg.eta_s * 0.8, (leg.eta_s + leg.service_time_s) * 1.2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vrp::WaypointTask;
    use androne_energy::DorlingModel;

    const DEPOT: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    fn plan() -> FlightPlan {
        let problem = VrpProblem {
            depot: DEPOT,
            tasks: vec![
                WaypointTask {
                    owner: "survey".into(),
                    position: DEPOT.offset_m(500.0, 0.0, 15.0),
                    service_energy_j: 10_000.0,
                    service_time_s: 120.0,
                },
                WaypointTask {
                    owner: "photo".into(),
                    position: DEPOT.offset_m(500.0, 400.0, 15.0),
                    service_energy_j: 5_000.0,
                    service_time_s: 60.0,
                },
            ],
            fleet_size: 1,
            battery_budget_j: 160_000.0,
            model: DorlingModel::f450_prototype(),
            party_cap: None,
        };
        let sol = problem.solve(5_000, 1);
        let mut plans = FlightPlan::from_solution(&problem, &sol, |_| 30.0);
        assert_eq!(plans.len(), 1);
        plans.remove(0)
    }

    #[test]
    fn etas_are_monotone_and_account_for_service() {
        let p = plan();
        assert_eq!(p.legs.len(), 2);
        assert!(p.legs[0].eta_s > 0.0);
        assert!(
            p.legs[1].eta_s > p.legs[0].eta_s + p.legs[0].service_time_s - 1e-9,
            "second ETA includes first service"
        );
        assert!(p.estimated_duration_s > p.legs[1].eta_s);
    }

    #[test]
    fn operating_window_brackets_eta() {
        let p = plan();
        let leg = p.legs.iter().find(|l| l.owner == "photo").unwrap();
        let (start, end) = p.operating_window("photo").unwrap();
        assert!(start <= leg.eta_s);
        assert!(end >= leg.eta_s + leg.service_time_s);
        assert!(p.operating_window("nobody").is_none());
    }

    #[test]
    fn battery_fit_check() {
        let p = plan();
        assert!(p.estimated_energy_j <= 200_000.0);
        assert!(p.estimated_energy_j > 1_000.0);
    }
}
