//! The closed-loop adversary probe: runs [`AttackerBrain`]s against
//! a live drone, feeding each brain exactly the signals a real
//! hostile tenant sees back through the SDK surface — its own
//! admission results and its own ladder suspension flag — and
//! translating each brain's next-tick command into real admission
//! traffic through the Binder driver.
//!
//! The defense side is [`crate::attack::AttackInjector`]'s own: the
//! same arm step puts the per-tenant budget, the ladder entry and
//! any hardening (aggregate admission cap, refill-boundary jitter,
//! hysteresis decay) on each attacker at `arm_tick`, and the same
//! ladder walk advances it. A tenant whose budget the open-loop
//! injector on the same flight already armed stays on that
//! injector's ladder alone. Interference on the fast loop scales
//! with the load the driver actually *admitted* each tick
//! ([`profiles::attack_admitted`]) — a throttled attacker does not
//! get to hurt the flight with transactions that never got in, which
//! is precisely why collusion (many tenants, each individually
//! clean) is the strategy per-tenant enforcement alone cannot stop.
//!
//! Determinism contract: an empty plan does zero work — no RNG
//! draws, no obs writes, no driver or kernel state touched. Brains
//! draw only from the adversary feedback stream; the injector itself
//! draws nothing.

use androne_simkern::latency::profiles;
use androne_workloads::adaptive::{AdaptivePlan, AttackerBrain, AttackerObservation};

use crate::attack::{observe_enforcement, record_edge, AttackDefense, LadderRung, LadderState};
use crate::drone::Drone;
use crate::probe::FlightProbe;

/// Applies an [`AdaptivePlan`] to a drone, one simulated second at a
/// time. See the module docs for the feedback and defense model.
pub struct AdaptiveInjector {
    plan: AdaptivePlan,
    defense: Option<AttackDefense>,
    brains: Vec<AttackerBrain>,
    /// Last tick's per-attacker outcome, fed back to the brains.
    feedback: Vec<AttackerObservation>,
    ladder: LadderState,
    actions: Vec<String>,
    prev_throttles: u64,
    armed: bool,
    /// Whether the admitted-load interference source is currently
    /// registered on the kernel.
    interference_live: bool,
    total_admitted: u64,
    total_rejected: u64,
}

impl AdaptiveInjector {
    /// Wraps a plan. `defense: None` runs the brains against a
    /// driver with no budgets at all (the unenforced worst case).
    pub fn new(plan: AdaptivePlan, defense: Option<AttackDefense>) -> Self {
        let brains = plan
            .attackers
            .iter()
            .enumerate()
            .map(|(i, a)| AttackerBrain::new(plan.seed, i as u64, a.strategy))
            .collect();
        let feedback = vec![AttackerObservation::default(); plan.attackers.len()];
        AdaptiveInjector {
            plan,
            defense,
            brains,
            feedback,
            ladder: LadderState::default(),
            actions: Vec::new(),
            prev_throttles: 0,
            armed: false,
            interference_live: false,
            total_admitted: 0,
            total_rejected: 0,
        }
    }

    /// The plan being driven.
    pub fn plan(&self) -> &AdaptivePlan {
        &self.plan
    }

    /// Human-readable log of arming, disarming and ladder movement.
    pub fn actions(&self) -> &[String] {
        &self.actions
    }

    /// The ladder rung `attacker` currently sits on, if enforcement
    /// engaged it.
    pub fn rung(&self, attacker: &str) -> Option<LadderRung> {
        self.ladder.rung(attacker)
    }

    /// Ladder state for every attacker enforcement touched, sorted.
    pub fn rungs(&self) -> impl Iterator<Item = (&str, LadderRung)> {
        self.ladder.iter()
    }

    /// Transactions the driver admitted across the whole campaign.
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Transactions the driver rejected across the whole campaign.
    pub fn total_rejected(&self) -> u64 {
        self.total_rejected
    }

    fn arm(&mut self, tick: u64, drone: &mut Drone) {
        for i in 0..self.plan.attackers.len() {
            let attacker = self.plan.attackers[i].name.clone();
            let strategy = self.plan.attackers[i].strategy;
            let Some(container) = drone.vdrones.get(&attacker).map(|v| v.container) else {
                let action = format!(
                    "t={tick} arm adaptive/{} {attacker}: not deployed",
                    strategy.name()
                );
                record_edge(
                    drone,
                    &mut self.actions,
                    "adaptive",
                    &attacker,
                    true,
                    action,
                );
                continue;
            };
            if let Some(d) = self.defense {
                self.ladder
                    .arm(drone, &d, &attacker, container, self.plan.seed);
            }
            let action = format!("t={tick} arm adaptive/{} {attacker}", strategy.name());
            record_edge(
                drone,
                &mut self.actions,
                "adaptive",
                &attacker,
                true,
                action,
            );
        }
        self.armed = true;
    }

    /// Runs one simulated second of the campaign: feed each brain its
    /// previous-tick observation, drive its command through the real
    /// admission path, re-scale the admitted-load interference, then
    /// advance the ladder (both directions) and record the
    /// enforcement-trajectory tails.
    pub fn apply_tick(&mut self, tick: u64, drone: &mut Drone) {
        if self.plan.is_empty() || tick < self.plan.arm_tick {
            return;
        }
        if !self.armed {
            self.arm(tick, drone);
        }
        let active = tick < self.plan.disarm_tick;
        let mut admitted_now = 0u64;
        if active {
            for i in 0..self.brains.len() {
                let attacker = self.plan.attackers[i].name.clone();
                let Some(container) = drone.vdrones.get(&attacker).map(|v| v.container) else {
                    continue;
                };
                let mut obs = self.feedback[i];
                obs.tick = tick;
                obs.suspended = drone
                    .vdc
                    .borrow()
                    .record(&attacker)
                    .is_some_and(|r| r.suspended);
                let cmd = self.brains[i].plan_tick(&obs);
                let (mut ok, mut rejected) = (0u64, 0u64);
                for _ in 0..cmd.txns {
                    match drone
                        .driver
                        .attack_transact(container, cmd.wire_size as usize)
                    {
                        Ok(_) => ok += 1,
                        Err(_) => rejected += 1,
                    }
                }
                self.feedback[i] = AttackerObservation {
                    tick,
                    sent: u64::from(cmd.txns),
                    admitted: ok,
                    rejected,
                    suspended: obs.suspended,
                };
                admitted_now += ok;
                self.total_admitted += ok;
                self.total_rejected += rejected;
            }
        } else if self.interference_live {
            let action = format!(
                "t={tick} disarm adaptive (admitted={}, rejected={})",
                self.total_admitted, self.total_rejected
            );
            record_edge(drone, &mut self.actions, "adaptive", "*", false, action);
        }
        // The fast-loop pressure tracks what actually got through the
        // driver this tick.
        if self.interference_live {
            drone
                .kernel
                .borrow_mut()
                .remove_interference("attack:admitted");
            self.interference_live = false;
        }
        if admitted_now > 0 {
            drone
                .kernel
                .borrow_mut()
                .add_interference(profiles::attack_admitted(admitted_now));
            self.interference_live = true;
        }
        // The ladder keeps walking after disarm so hysteresis decay
        // can finish stepping quiet tenants back down.
        if let Some(d) = self.defense {
            let attackers = self.plan.attacker_names();
            self.ladder
                .walk(tick, &d, &attackers, drone, "adaptive", &mut self.actions);
            observe_enforcement(drone, &attackers, &mut self.prev_throttles, 0);
        }
    }
}

impl FlightProbe for AdaptiveInjector {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        self.apply_tick(tick, drone);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_workloads::adaptive::AdaptiveStrategy;

    #[test]
    fn empty_plan_injector_is_inert() {
        let inj = AdaptiveInjector::new(AdaptivePlan::empty(), Some(AttackDefense::hardened()));
        assert!(inj.plan().is_empty());
        assert!(inj.actions().is_empty());
        assert!(inj.rungs().next().is_none());
        assert_eq!(inj.total_admitted(), 0);
    }

    #[test]
    fn brains_are_built_per_roster_index() {
        let plan = AdaptivePlan::single(AdaptiveStrategy::RefillProbe, "vd1", 2, 30);
        let inj = AdaptiveInjector::new(plan, None);
        assert_eq!(inj.brains.len(), 1);
        assert_eq!(inj.feedback.len(), 1);
    }
}
