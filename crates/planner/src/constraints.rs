//! The route capacity cap: at most [`VrpProblem::party_cap`] parties
//! per route.
//!
//! **Extension beyond the paper.** A physical drone's board memory
//! hosts only so many 185 MiB virtual-drone containers (Figure 12),
//! so an energy-feasible route can still be memory-infeasible. A
//! route's parties are the owners of its tasks
//! ([`WaypointTask::owner`]), one per virtual drone, numbered by first
//! appearance in task order. Owners never overlap, so every task
//! belongs to exactly one party. The paper's planner has no such cap,
//! and its waypoint ordering and grouping stay future work (Section
//! 4): owners' waypoints may still interleave on a route.
//!
//! The cap is enforced by a deterministic repair pass applied to
//! every candidate the annealer evaluates, so accepted solutions meet
//! it; the annealer then optimizes within the capped space.

use crate::vrp::{Route, VrpError, VrpProblem, VrpSolution, WaypointTask};

impl VrpProblem {
    /// Checks that no route hosts more than
    /// [`party_cap`](Self::party_cap) distinct owners, returning the
    /// first route over it. Coverage is [`validate`](Self::validate)'s
    /// job: stops past the task list belong to no owner here.
    pub fn check_capacity(&self, sol: &VrpSolution) -> Result<(), VrpError> {
        let Some(mut index) = PartyIndex::binding(self) else {
            return Ok(());
        };
        for (route, r) in sol.routes.iter().enumerate() {
            let parties = index.parties_on(&r.stops).len();
            if parties > index.cap {
                return Err(VrpError::CapacityViolation { route, parties });
            }
        }
        Ok(())
    }
}

/// Every task's party, built once per solve, plus the scratch the
/// capacity repair reuses across candidates.
pub(crate) struct PartyIndex {
    /// Most parties one route may host (at least one).
    cap: usize,
    /// `of_task[t]`: the party of task `t`.
    of_task: Vec<usize>,
    /// Per party, its stops on the route [`parties_on`](Self::parties_on)
    /// last tallied; zero for every party not in `hosted`.
    stops_of: Vec<usize>,
    /// The parties of that route, ascending.
    hosted: Vec<usize>,
    /// An evicted party's stops, in visit order.
    moved: Vec<usize>,
}

impl PartyIndex {
    /// The index of `problem`'s owners, or `None` when the cap cannot
    /// bind: there is none, or no more owners than it. The solver
    /// then never repairs, so an uncapped solve stays bit-identical.
    pub(crate) fn binding(problem: &VrpProblem) -> Option<Self> {
        let cap = problem.party_cap?;
        let index = PartyIndex::new(&problem.tasks, cap);
        (index.stops_of.len() > cap).then_some(index)
    }

    fn new(tasks: &[WaypointTask], cap: usize) -> Self {
        let mut owners: Vec<&str> = Vec::new();
        let of_task = tasks
            .iter()
            .map(|t| match owners.iter().position(|o| *o == t.owner) {
                Some(p) => p,
                None => {
                    owners.push(&t.owner);
                    owners.len() - 1
                }
            })
            .collect();
        PartyIndex {
            cap: cap.max(1),
            of_task,
            stops_of: vec![0; owners.len()],
            hosted: Vec::new(),
            moved: Vec::new(),
        }
    }

    /// Distinct parties with at least one of `stops`, in ascending
    /// party order, in time linear in `stops`. Also leaves each one's
    /// stop count in `stops_of`.
    fn parties_on(&mut self, stops: &[usize]) -> &[usize] {
        for &p in &self.hosted {
            self.stops_of[p] = 0;
        }
        self.hosted.clear();
        for &s in stops {
            if let Some(&p) = self.of_task.get(s) {
                if self.stops_of[p] == 0 {
                    self.hosted.push(p);
                }
                self.stops_of[p] += 1;
            }
        }
        self.hosted.sort_unstable();
        &self.hosted
    }

    /// Repairs a solution in place so no route hosts more than the
    /// cap, then drops empty routes.
    ///
    /// Each step evicts one whole party from the first over-capacity
    /// route onto a route that either already hosts it or has spare
    /// capacity, opening a fresh route as a last resort. The route it
    /// leaves loses exactly that party and the route it joins stays
    /// within the cap, so each step lowers the total excess (parties
    /// over the cap, summed over routes) by one, and the pass takes
    /// as many steps as the excess it starts with.
    pub(crate) fn repair(&mut self, sol: &mut VrpSolution) {
        let cap = self.cap;
        let excess: usize = (0..sol.routes.len())
            .map(|r| {
                self.parties_on(&sol.routes[r].stops)
                    .len()
                    .saturating_sub(cap)
            })
            .sum();
        for _ in 0..excess {
            let Some(r) =
                (0..sol.routes.len()).find(|&r| self.parties_on(&sol.routes[r].stops).len() > cap)
            else {
                break;
            };
            // Victim: the hosted party with the fewest stops on this
            // route (ties to the lowest party index).
            let Some(victim) = self
                .hosted
                .iter()
                .copied()
                .min_by_key(|&p| self.stops_of[p])
            else {
                break;
            };
            // Destination: a route already hosting the victim, else
            // the fullest route still under the cap (ties to the
            // lowest route index), else a fresh route.
            let mut dest: Option<(usize, (bool, usize))> = None;
            for d in (0..sol.routes.len()).filter(|&d| d != r) {
                let hosted = self.parties_on(&sol.routes[d].stops).len();
                let key = (self.stops_of[victim] > 0, hosted);
                if (key.0 || hosted < cap) && dest.is_none_or(|(_, best)| key > best) {
                    dest = Some((d, key));
                }
            }
            // Move the victim's stops, in visit order.
            let (of_task, moved) = (&self.of_task, &mut self.moved);
            moved.clear();
            sol.routes[r].stops.retain(|s| {
                let hit = of_task.get(*s) == Some(&victim);
                if hit {
                    moved.push(*s);
                }
                !hit
            });
            match dest {
                Some((d, _)) => sol.routes[d].stops.extend_from_slice(moved),
                None => sol.routes.push(Route {
                    stops: moved.clone(),
                }),
            }
        }
        sol.routes.retain(|r| !r.stops.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_energy::DorlingModel;
    use androne_hal::GeoPoint;

    const DEPOT: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    /// A problem whose task `t` belongs to `owners[t]`, capped at
    /// `cap` owners a route; positions and costs play no part here.
    fn capped<S: AsRef<str>>(owners: &[S], cap: usize) -> VrpProblem {
        VrpProblem {
            depot: DEPOT,
            tasks: owners
                .iter()
                .map(|o| WaypointTask {
                    owner: o.as_ref().to_string(),
                    position: DEPOT,
                    service_energy_j: 0.0,
                    service_time_s: 0.0,
                })
                .collect(),
            fleet_size: 1,
            battery_budget_j: 160_000.0,
            model: DorlingModel::f450_prototype(),
            party_cap: Some(cap),
        }
    }

    fn sol(routes: &[&[usize]]) -> VrpSolution {
        VrpSolution {
            routes: routes.iter().map(|r| Route { stops: r.to_vec() }).collect(),
        }
    }

    fn repaired(p: &VrpProblem, mut s: VrpSolution) -> VrpSolution {
        PartyIndex::binding(p)
            .expect("the cap binds")
            .repair(&mut s);
        s
    }

    #[test]
    fn capacity_with_slack_is_inert() {
        // Three owners, cap three: the cap can never bind, so the
        // uncapped solve path stays bit-identical.
        let p = capped(&["a", "b", "c"], 3);
        assert!(PartyIndex::binding(&p).is_none());
        p.check_capacity(&sol(&[&[0, 1, 2]])).unwrap();
    }

    #[test]
    fn check_flags_over_capacity_routes() {
        let p = capped(&["a", "b", "c", "d"], 3);
        p.check_capacity(&sol(&[&[0, 1, 2], &[3]])).unwrap();
        assert_eq!(
            p.check_capacity(&sol(&[&[0, 1, 2, 3]])),
            Err(VrpError::CapacityViolation {
                route: 0,
                parties: 4
            })
        );
    }

    #[test]
    fn repair_evicts_surplus_parties() {
        // Four owners jammed onto one route, cap 3: the smallest
        // party is evicted onto a route with headroom.
        let p = capped(&["a", "b", "c", "d", "a"], 3);
        let s = repaired(&p, sol(&[&[0, 1, 2, 3, 4], &[]]));
        p.check_capacity(&s).unwrap();
        assert_eq!(s.routes, sol(&[&[0, 2, 3, 4], &[1]]).routes);
    }

    #[test]
    fn repair_opens_a_route_when_no_destination_fits() {
        let p = capped(&["a", "b", "c", "d"], 1);
        let s = repaired(&p, sol(&[&[0, 1], &[2, 3]]));
        p.check_capacity(&s).unwrap();
        assert_eq!(s.routes.len(), 4, "each party gets its own route");
    }

    use androne_simkern::stream_rng;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// `n` random owner labels drawn from up to seven names.
    fn random_owners(rng: &mut SmallRng, n: usize) -> Vec<String> {
        let names = rng.gen_range(1..8);
        (0..n)
            .map(|_| format!("vd{}", rng.gen_range(0..names)))
            .collect()
    }

    proptest! {
        #[test]
        fn indexed_parties_match_the_scan(seed in any::<u64>()) {
            let mut rng = stream_rng(seed);
            let n = rng.gen_range(1..16);
            let owners = random_owners(&mut rng, n);
            let mut parties: Vec<&str> = Vec::new();
            for o in &owners {
                if !parties.contains(&o.as_str()) {
                    parties.push(o);
                }
            }
            // One index for every route: stale tallies must not leak.
            let mut index = PartyIndex::new(&capped(&owners, 1).tasks, 1);
            for _ in 0..6 {
                // Stops up to `n + 2` name tasks the problem lacks.
                let stops: Vec<usize> =
                    (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..n + 3)).collect();
                let on_route = |p: usize| {
                    stops.iter().filter(|&&s| owners.get(s).is_some_and(|o| o == parties[p])).count()
                };
                let scan: Vec<usize> = (0..parties.len()).filter(|&p| on_route(p) > 0).collect();
                prop_assert_eq!(index.parties_on(&stops), &scan[..]);
                for &p in &scan {
                    prop_assert_eq!(index.stops_of[p], on_route(p));
                }
            }
        }

        #[test]
        fn a_reused_index_repairs_like_a_fresh_one(seed in any::<u64>()) {
            let mut rng = stream_rng(seed);
            let n = rng.gen_range(2..20);
            let owners = random_owners(&mut rng, n);
            let cap = rng.gen_range(1..4);
            let p = capped(&owners, cap);
            let mut index = PartyIndex::new(&p.tasks, cap);
            for _ in 0..6 {
                let mut routes = vec![Route { stops: Vec::new() }; rng.gen_range(1..5)];
                for t in 0..n {
                    let r = rng.gen_range(0..routes.len());
                    routes[r].stops.push(t);
                }
                let mut reused = VrpSolution { routes };
                let mut fresh = reused.clone();
                index.repair(&mut reused);
                PartyIndex::new(&p.tasks, cap).repair(&mut fresh);
                prop_assert_eq!(&reused, &fresh);
                // The cap holds and every task is visited exactly once.
                prop_assert_eq!(p.check_capacity(&reused), Ok(()));
                let mut seen: Vec<usize> =
                    reused.routes.iter().flat_map(|r| r.stops.iter().copied()).collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
            }
        }
    }
}
