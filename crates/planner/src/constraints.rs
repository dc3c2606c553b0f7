//! Waypoint ordering and grouping constraints.
//!
//! **Extension beyond the paper.** The paper's planner treats all
//! waypoints independently: "users may not prescribe that waypoints
//! be traversed in a specified order and the algorithm may decide to
//! visit waypoints of one virtual drone in the middle of a set of
//! waypoints of another virtual drone. Providing a planner algorithm
//! that can support waypoint ordering and grouping is an area of
//! future work" (Section 4). This module implements that future
//! work:
//!
//! - **ordering**: pairs `(a, b)` of task indices that must ride the
//!   same route with `a` visited before `b`;
//! - **grouping**: sets of task indices that must be visited
//!   contiguously on one route (no other party's waypoints
//!   interleaved);
//! - **party capacity**: at most N distinct parties (virtual drones)
//!   per route — a physical drone's board memory hosts only so many
//!   185 MiB virtual-drone containers (Figure 12), so an
//!   energy-feasible route can still be memory-infeasible.
//!
//! Constraints are enforced by a deterministic repair pass applied
//! to every candidate the annealer evaluates, so accepted solutions
//! are always feasible; the annealer then optimizes within the
//! feasible space.

use crate::vrp::{Route, VrpSolution};

/// Ordering and grouping constraints over a problem's task indices.
#[derive(Debug, Clone, Default)]
pub struct RouteConstraints {
    /// `(before, after)`: both on one route, `before` first.
    pub ordered: Vec<(usize, usize)>,
    /// Each group's tasks ride one route, contiguously.
    pub groups: Vec<Vec<usize>>,
    /// Parties for the capacity cap: each inner vec is one party's
    /// task indices. Unlike [`groups`](Self::groups), parties carry
    /// no contiguity requirement — they only count against
    /// [`max_parties_per_route`](Self::max_parties_per_route). A task
    /// listed by several parties counts for each of them, but
    /// [`repair`](Self::repair) is only guaranteed to terminate when
    /// parties are disjoint.
    pub parties: Vec<Vec<usize>>,
    /// Maximum distinct parties one route may host (a physical
    /// drone's virtual-drone container capacity). `None` = unlimited.
    pub max_parties_per_route: Option<usize>,
}

impl RouteConstraints {
    /// No constraints (the paper's baseline behaviour).
    pub fn none() -> Self {
        RouteConstraints::default()
    }

    /// Convenience: require `tasks` to be visited in the given order
    /// (adds the chain of pairs) on one route.
    pub fn in_order(mut self, tasks: &[usize]) -> Self {
        for w in tasks.windows(2) {
            self.ordered.push((w[0], w[1]));
        }
        self
    }

    /// Convenience: require `tasks` to form a contiguous group.
    pub fn grouped(mut self, tasks: &[usize]) -> Self {
        self.groups.push(tasks.to_vec());
        self
    }

    /// Convenience: cap routes at `cap` distinct parties, where each
    /// entry of `parties` lists one party's task indices.
    pub fn with_party_capacity(mut self, parties: Vec<Vec<usize>>, cap: usize) -> Self {
        self.parties = parties;
        self.max_parties_per_route = Some(cap);
        self
    }

    /// Whether the capacity cap can actually bind: fewer parties
    /// than the cap can never violate it, so the constraint is inert
    /// and the unconstrained (bit-identical legacy) solve path is
    /// taken.
    fn capacity_active(&self) -> bool {
        self.max_parties_per_route
            .is_some_and(|cap| self.parties.len() > cap)
    }

    /// Whether there is anything to enforce.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty() && self.groups.is_empty() && !self.capacity_active()
    }

    /// Checks a solution, returning the first violation found.
    pub fn check(&self, sol: &VrpSolution) -> Result<(), ConstraintViolation> {
        // Locate each task: (route, position).
        let locate = |task: usize| -> Option<(usize, usize)> {
            for (r, route) in sol.routes.iter().enumerate() {
                if let Some(p) = route.stops.iter().position(|&s| s == task) {
                    return Some((r, p));
                }
            }
            None
        };
        for &(before, after) in &self.ordered {
            let (Some((ra, pa)), Some((rb, pb))) = (locate(before), locate(after)) else {
                continue; // Coverage violations are VrpProblem::validate's job.
            };
            if ra != rb {
                return Err(ConstraintViolation::OrderSplitAcrossRoutes { before, after });
            }
            if pa >= pb {
                return Err(ConstraintViolation::OutOfOrder { before, after });
            }
        }
        for (gi, group) in self.groups.iter().enumerate() {
            let mut positions: Vec<(usize, usize)> = group
                .iter()
                .filter_map(|&t| locate(t))
                .collect();
            if positions.is_empty() {
                continue;
            }
            let route = positions[0].0;
            if positions.iter().any(|(r, _)| *r != route) {
                return Err(ConstraintViolation::GroupSplitAcrossRoutes { group: gi });
            }
            positions.sort_by_key(|(_, p)| *p);
            let first = positions[0].1;
            let contiguous = positions
                .iter()
                .enumerate()
                .all(|(i, (_, p))| *p == first + i);
            if !contiguous {
                return Err(ConstraintViolation::GroupInterleaved { group: gi });
            }
        }
        if self.capacity_active() {
            let cap = self.max_parties_per_route.unwrap_or(usize::MAX).max(1);
            let mut index = self.party_index();
            for (r, route) in sol.routes.iter().enumerate() {
                let hosted = index.parties_on(&route.stops).len();
                if hosted > cap {
                    return Err(ConstraintViolation::RouteOverCapacity {
                        route: r,
                        parties: hosted,
                    });
                }
            }
        }
        Ok(())
    }

    /// The task→party index of [`parties`](Self::parties), with
    /// fresh scratch buffers.
    pub(crate) fn party_index(&self) -> PartyIndex {
        PartyIndex::new(&self.parties)
    }

    /// Repairs a solution in place so every constraint holds.
    ///
    /// Groups are gathered first (all members moved to the route and
    /// position of the group's earliest member), then ordering pairs
    /// are fixed by moving each `after` task to just behind its
    /// `before` on the same route. The pass is deterministic and
    /// terminates because each step strictly reduces a violation
    /// count bounded by the constraint list.
    pub fn repair(&self, sol: &mut VrpSolution) {
        self.repair_indexed(sol, &mut self.party_index());
    }

    /// [`repair`](Self::repair) with a caller-held index, so a solver
    /// builds the index once and every repair reuses its buffers.
    pub(crate) fn repair_indexed(&self, sol: &mut VrpSolution, index: &mut PartyIndex) {
        // Gather groups contiguously.
        for group in &self.groups {
            if group.len() < 2 {
                continue;
            }
            // Find the earliest member's route/position.
            let mut anchor: Option<(usize, usize)> = None;
            for (r, route) in sol.routes.iter().enumerate() {
                if let Some(p) = route.stops.iter().position(|s| group.contains(s)) {
                    // Prefer the route holding the most members; the
                    // earliest route wins ties.
                    let count = route.stops.iter().filter(|s| group.contains(s)).count();
                    let better = match anchor {
                        None => true,
                        Some((best_r, _)) => {
                            count
                                > sol.routes[best_r]
                                    .stops
                                    .iter()
                                    .filter(|s| group.contains(s))
                                    .count()
                        }
                    };
                    if better {
                        anchor = Some((r, p));
                    }
                }
            }
            let Some((target_route, _)) = anchor else {
                continue;
            };
            // Extract every member (preserving their relative order
            // of appearance across the whole solution).
            let members = &mut index.transit;
            members.clear();
            for route in &mut sol.routes {
                route.stops.retain(|s| {
                    if group.contains(s) {
                        members.push(*s);
                        false
                    } else {
                        true
                    }
                });
            }
            // Reinsert contiguously at the end of the target route;
            // the annealer slides the block around via normal moves.
            sol.routes[target_route].stops.extend_from_slice(members);
        }

        // Fix ordering pairs (iterate until stable; bounded).
        for _ in 0..self.ordered.len() + 1 {
            let mut changed = false;
            for &(before, after) in &self.ordered {
                let find = |sol: &VrpSolution, task: usize| {
                    sol.routes.iter().enumerate().find_map(|(r, route)| {
                        route.stops.iter().position(|&s| s == task).map(|p| (r, p))
                    })
                };
                let (Some((ra, pa)), Some((rb, pb))) = (find(sol, before), find(sol, after))
                else {
                    continue;
                };
                if ra == rb && pa < pb {
                    continue;
                }
                // Move `after` to behind `before` on its route. If
                // `before` sits inside a group that `after` is not
                // part of, insert past the end of that group so the
                // move cannot break contiguity.
                let task = sol.routes[rb].stops.remove(pb);
                let Some((ra, pa)) = find(sol, before) else {
                    // Degenerate `(x, x)` pair: removing `after` also
                    // removed `before`. Restore and skip.
                    sol.routes[rb].stops.insert(pb, task);
                    continue;
                };
                let mut at = pa + 1;
                if let Some(group) = self
                    .groups
                    .iter()
                    .find(|g| g.contains(&before) && !g.contains(&after))
                {
                    while at < sol.routes[ra].stops.len()
                        && group.contains(&sol.routes[ra].stops[at])
                    {
                        at += 1;
                    }
                }
                sol.routes[ra].stops.insert(at, task);
                changed = true;
            }
            if !changed {
                break;
            }
        }

        // Enforce the party-capacity cap last, so the earlier passes
        // cannot re-violate it. Each step evicts one whole party from
        // an over-capacity route onto a route that either already
        // hosts it or has spare capacity (opening a fresh route as a
        // last resort), so with disjoint parties the total excess
        // strictly decreases and the pass terminates. (Overlapping
        // parties can bounce a shared stop between two routes
        // forever.) Eviction appends the party's stops as
        // a block in visit order; intra-party ordering pairs survive,
        // cross-party ordering does not compose with capacity.
        if self.capacity_active() {
            let cap = self.max_parties_per_route.unwrap_or(usize::MAX).max(1);
            while let Some(r) = (0..sol.routes.len())
                .find(|&r| index.parties_on(&sol.routes[r].stops).len() > cap)
            {
                // Victim: the hosted party with the fewest stops on
                // this route (ties to the lowest party index).
                let Some(victim) = index
                    .hosted
                    .iter()
                    .copied()
                    .min_by_key(|&p| index.stops_of[p])
                else {
                    break;
                };
                // Destination: a route already hosting the victim,
                // else the fullest route still under the cap (ties to
                // the lowest route index), else a fresh route.
                let mut dest: Option<(usize, (bool, usize))> = None;
                for d in (0..sol.routes.len()).filter(|&d| d != r) {
                    let hosted = index.parties_on(&sol.routes[d].stops).len();
                    let key = (index.stops_of[victim] > 0, hosted);
                    if (key.0 || hosted < cap) && dest.is_none_or(|(_, best)| key > best) {
                        dest = Some((d, key));
                    }
                }
                // Move the victim's stops, in visit order.
                let (of_task, moved) = (&index.of_task, &mut index.transit);
                moved.clear();
                sol.routes[r].stops.retain(|s| {
                    let hit = of_task.get(*s).is_some_and(|ps| ps.contains(&victim));
                    if hit {
                        moved.push(*s);
                    }
                    !hit
                });
                match dest {
                    Some((d, _)) => sol.routes[d].stops.extend_from_slice(moved),
                    None => sol.routes.push(Route { stops: moved.clone() }),
                }
            }
        }
        sol.routes.retain(|r| !r.stops.is_empty());
    }
}

/// Every task's parties, built once per solve, plus the scratch the
/// capacity pass reuses across repairs. Built from
/// [`RouteConstraints::parties`], which may overlap: a task maps to
/// every party that lists it.
pub(crate) struct PartyIndex {
    /// `of_task[t]`: the parties listing task `t`, ascending, once
    /// each; tasks past the end belong to no party.
    of_task: Vec<Vec<usize>>,
    /// Per party, its stops on the route [`parties_on`](Self::parties_on)
    /// last tallied; zero for every party not in `hosted`.
    stops_of: Vec<usize>,
    /// The parties of that route, ascending.
    hosted: Vec<usize>,
    /// Stops in transit: a group's members, or an evicted party's.
    transit: Vec<usize>,
}

impl PartyIndex {
    fn new(parties: &[Vec<usize>]) -> Self {
        let tasks = parties.iter().flatten().max().map_or(0, |&t| t + 1);
        let mut of_task = vec![Vec::new(); tasks];
        for (p, party) in parties.iter().enumerate() {
            for &t in party {
                if of_task[t].last() != Some(&p) {
                    of_task[t].push(p);
                }
            }
        }
        PartyIndex {
            of_task,
            stops_of: vec![0; parties.len()],
            hosted: Vec::new(),
            transit: Vec::new(),
        }
    }

    /// Distinct parties with at least one of `stops`, in ascending
    /// party order, in time linear in `stops` (for parties that do
    /// not overlap). Also leaves each one's stop count in `stops_of`.
    fn parties_on(&mut self, stops: &[usize]) -> &[usize] {
        for &p in &self.hosted {
            self.stops_of[p] = 0;
        }
        self.hosted.clear();
        for &s in stops {
            for &p in self.of_task.get(s).map_or(&[][..], Vec::as_slice) {
                if self.stops_of[p] == 0 {
                    self.hosted.push(p);
                }
                self.stops_of[p] += 1;
            }
        }
        self.hosted.sort_unstable();
        &self.hosted
    }
}

/// A constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// An ordered pair landed on different routes.
    OrderSplitAcrossRoutes {
        /// The earlier task.
        before: usize,
        /// The later task.
        after: usize,
    },
    /// An ordered pair is reversed on its route.
    OutOfOrder {
        /// The earlier task.
        before: usize,
        /// The later task.
        after: usize,
    },
    /// A group's tasks are on different routes.
    GroupSplitAcrossRoutes {
        /// Index into [`RouteConstraints::groups`].
        group: usize,
    },
    /// A group is on one route but interleaved with other tasks.
    GroupInterleaved {
        /// Index into [`RouteConstraints::groups`].
        group: usize,
    },
    /// A route hosts more parties than the capacity cap allows.
    RouteOverCapacity {
        /// Index into the solution's routes.
        route: usize,
        /// Distinct parties the route hosts.
        parties: usize,
    },
}

impl std::fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintViolation::OrderSplitAcrossRoutes { before, after } => {
                write!(f, "ordered tasks {before}->{after} split across routes")
            }
            ConstraintViolation::OutOfOrder { before, after } => {
                write!(f, "task {after} visited before {before}")
            }
            ConstraintViolation::GroupSplitAcrossRoutes { group } => {
                write!(f, "group {group} split across routes")
            }
            ConstraintViolation::GroupInterleaved { group } => {
                write!(f, "group {group} interleaved with other tasks")
            }
            ConstraintViolation::RouteOverCapacity { route, parties } => {
                write!(f, "route {route} hosts {parties} parties, over capacity")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sol(routes: &[&[usize]]) -> VrpSolution {
        VrpSolution {
            routes: routes
                .iter()
                .map(|r| Route { stops: r.to_vec() })
                .collect(),
        }
    }

    #[test]
    fn check_accepts_satisfied_constraints() {
        let c = RouteConstraints::none().in_order(&[0, 1, 2]).grouped(&[3, 4]);
        let s = sol(&[&[0, 1, 2], &[5, 3, 4]]);
        c.check(&s).unwrap();
    }

    #[test]
    fn check_flags_out_of_order() {
        let c = RouteConstraints::none().in_order(&[0, 1]);
        assert_eq!(
            c.check(&sol(&[&[1, 0]])),
            Err(ConstraintViolation::OutOfOrder { before: 0, after: 1 })
        );
        assert_eq!(
            c.check(&sol(&[&[0], &[1]])),
            Err(ConstraintViolation::OrderSplitAcrossRoutes { before: 0, after: 1 })
        );
    }

    #[test]
    fn check_flags_broken_groups() {
        let c = RouteConstraints::none().grouped(&[0, 1]);
        assert_eq!(
            c.check(&sol(&[&[0, 2, 1]])),
            Err(ConstraintViolation::GroupInterleaved { group: 0 })
        );
        assert_eq!(
            c.check(&sol(&[&[0], &[1]])),
            Err(ConstraintViolation::GroupSplitAcrossRoutes { group: 0 })
        );
    }

    #[test]
    fn repair_fixes_ordering() {
        let c = RouteConstraints::none().in_order(&[0, 1, 2]);
        let mut s = sol(&[&[2, 1, 0, 5]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        assert_eq!(s.routes[0].stops.len(), 4, "no task lost");
    }

    #[test]
    fn repair_fixes_cross_route_ordering() {
        let c = RouteConstraints::none().in_order(&[0, 1]);
        let mut s = sol(&[&[0, 5], &[1, 6]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        let all: usize = s.routes.iter().map(|r| r.stops.len()).sum();
        assert_eq!(all, 4);
    }

    #[test]
    fn repair_gathers_groups() {
        let c = RouteConstraints::none().grouped(&[0, 1, 2]);
        let mut s = sol(&[&[0, 7, 1], &[2, 8]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        let all: usize = s.routes.iter().map(|r| r.stops.len()).sum();
        assert_eq!(all, 5, "no task lost");
    }

    #[test]
    fn ordering_into_a_group_does_not_break_contiguity() {
        // Order (0 -> 7) where 0 sits inside group [0, 1]: the repair
        // must place 7 past the group, not inside it.
        let c = RouteConstraints::none().grouped(&[0, 1]).in_order(&[0, 7]);
        let mut s = sol(&[&[7, 0, 1]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        assert_eq!(s.routes[0].stops, vec![0, 1, 7]);
    }

    #[test]
    fn capacity_with_slack_is_inert() {
        // Three parties, cap three: the constraint can never bind,
        // so the legacy unconstrained solve path stays bit-identical.
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0], vec![1], vec![2]], 3);
        assert!(c.is_empty());
        c.check(&sol(&[&[0, 1, 2]])).unwrap();
    }

    #[test]
    fn check_flags_over_capacity_routes() {
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0], vec![1], vec![2], vec![3]], 3);
        assert!(!c.is_empty());
        c.check(&sol(&[&[0, 1, 2], &[3]])).unwrap();
        assert_eq!(
            c.check(&sol(&[&[0, 1, 2, 3]])),
            Err(ConstraintViolation::RouteOverCapacity { route: 0, parties: 4 })
        );
    }

    #[test]
    fn repair_evicts_surplus_parties() {
        // Four single-task parties jammed onto one route, cap 3: the
        // smallest party is evicted onto a route with headroom.
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0, 4], vec![1], vec![2], vec![3]], 3);
        let mut s = sol(&[&[0, 1, 2, 3, 4], &[]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        let all: usize = s.routes.iter().map(|r| r.stops.len()).sum();
        assert_eq!(all, 5, "no task lost");
    }

    #[test]
    fn repair_opens_a_route_when_no_destination_fits() {
        let c = RouteConstraints::none()
            .with_party_capacity(vec![vec![0], vec![1], vec![2], vec![3]], 1);
        let mut s = sol(&[&[0, 1], &[2, 3]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
        assert_eq!(s.routes.len(), 4, "each party gets its own route");
    }

    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Up to 8 random parties over tasks `0..n + 3` (so some name
    /// tasks no route visits), overlapping and with repeats.
    fn random_parties(rng: &mut SmallRng, n: usize) -> Vec<Vec<usize>> {
        (0..rng.gen_range(0..8))
            .map(|_| (0..rng.gen_range(0..6)).map(|_| rng.gen_range(0..n + 3)).collect())
            .collect()
    }

    proptest! {
        #[test]
        fn indexed_parties_match_the_scan(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1..16);
            let c = RouteConstraints::none().with_party_capacity(random_parties(&mut rng, n), 1);
            // One index for every route: stale tallies must not leak.
            let mut index = c.party_index();
            for _ in 0..6 {
                let stops: Vec<usize> =
                    (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..n + 3)).collect();
                let scan: Vec<usize> = (0..c.parties.len())
                    .filter(|&p| stops.iter().any(|s| c.parties[p].contains(s)))
                    .collect();
                prop_assert_eq!(index.parties_on(&stops), &scan[..]);
                for &p in &scan {
                    let on_route = stops.iter().filter(|s| c.parties[p].contains(s)).count();
                    prop_assert_eq!(index.stops_of[p], on_route);
                }
            }
        }

        #[test]
        fn a_reused_index_repairs_like_a_fresh_one(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(2..20);
            // Disjoint parties: the capacity pass terminates on them.
            let mut parties = vec![Vec::new(); rng.gen_range(1..8)];
            for t in 0..n {
                let p = rng.gen_range(0..parties.len());
                parties[p].push(t);
            }
            let cap = rng.gen_range(1..4);
            let c = RouteConstraints::none()
                .with_party_capacity(parties, cap)
                .in_order(&[0, 1])
                .grouped(&[n - 1, n / 2]);
            let mut index = c.party_index();
            for _ in 0..6 {
                let mut routes = vec![Route { stops: Vec::new() }; rng.gen_range(1..5)];
                for t in 0..n {
                    let r = rng.gen_range(0..routes.len());
                    routes[r].stops.push(t);
                }
                let mut reused = VrpSolution { routes };
                let mut fresh = reused.clone();
                c.repair_indexed(&mut reused, &mut index);
                c.repair(&mut fresh);
                prop_assert_eq!(&reused, &fresh);
                // Capacity is enforced last, so it holds even where
                // the evictions broke a cross-party ordering pair.
                let mut tally = c.party_index();
                for route in &reused.routes {
                    prop_assert!(tally.parties_on(&route.stops).len() <= cap);
                }
            }
        }
    }

    #[test]
    fn repair_handles_combined_constraints() {
        let c = RouteConstraints::none()
            .grouped(&[0, 1, 2])
            .in_order(&[0, 1, 2]);
        let mut s = sol(&[&[2, 7, 0], &[1, 8]]);
        c.repair(&mut s);
        c.check(&s).unwrap();
    }
}
