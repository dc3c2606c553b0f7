//! The adversarial-tenant layer: drives an [`AttackPlan`] against a
//! live drone and watches the fast loop for deadline damage.
//!
//! Two probes compose on the flight executor:
//!
//! - [`AttackInjector`] arms and disarms attack events on the same
//!   clock [`crate::injector::FaultInjector`] uses for faults, then
//!   *drives* each armed attack every simulated second: Binder
//!   transaction floods and oversized-parcel bombs through the real
//!   admission path, telemetry subscription storms, CPU-quota
//!   saturation on the shared scheduler, fd-table exhaustion. With an
//!   [`AttackDefense`] armed it also walks the escalation ladder —
//!   budget, rate-halving, tenant suspension, watchdog revocation —
//!   off the driver's per-tenant throttle counters.
//! - [`RtMonitor`] samples the kernel's interference-aware latency
//!   model at the 400 Hz fast-loop rate from its own dedicated RNG
//!   stream and counts 2500 µs deadline misses, feeding the
//!   `flight.jitter_us` histogram the black-box recorder tails.
//!
//! Determinism contract: with an empty plan the injector does zero
//! work — no RNG draws, no obs writes, no kernel or driver state
//! touched — so an injector-observed flight is bit-identical to an
//! unobserved one. The monitor draws only from the
//! `rt_monitor_stream_rng` substream and reads the latency model
//! immutably, so it never perturbs the kernel RNG the flight replays
//! on.

use std::collections::BTreeMap;

use androne_binder::{AggregateQos, TenantQos};
use androne_obs::{Subsystem, TraceEvent};
use androne_simkern::latency::profiles;
use androne_simkern::{rt_monitor_stream_rng, ClientId, ContainerId, FaultClock, ResourceKind};
use androne_workloads::{AttackKind, AttackPlan, ARDUPILOT_DEADLINE_US};
use rand::rngs::SmallRng;

use crate::drone::Drone;
use crate::probe::FlightProbe;

/// Enforcement configuration the injector arms on each attacker at
/// attack-arm time. `None` anywhere an `Option<AttackDefense>` is
/// taken means *enforcement disabled* — the unthrottled worst case
/// the adversarial gate proves breaches the fast loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackDefense {
    /// Per-tenant Binder budget (token-bucket rate, parcel ceiling,
    /// fd and subscription budgets) armed on the attacker.
    pub budget: TenantQos,
    /// cgroup-style CPU bandwidth cap (cores) clamped onto the
    /// attacker's scheduler demand during CPU-saturation attacks.
    pub cpu_quota: f64,
    /// Throttle events before the attacker's Binder rate is halved.
    pub halve_after: u64,
    /// Throttle events before the VDC suspends the tenant.
    pub suspend_after: u64,
    /// Throttle events before the watchdog revokes the tenant.
    pub revoke_after: u64,
    /// Drone-wide admission cap across *all* budgeted tenants — the
    /// counter to collusion, where every member stays inside its own
    /// bucket while the group's aggregate load spikes. `None`
    /// disables the cap (the pre-hardening posture).
    pub aggregate: Option<AggregateQos>,
    /// Ladder hysteresis: after this many consecutive quiet ticks
    /// (no new throttle events) an escalated attacker steps DOWN one
    /// rung — `Suspended` is recoverable, not a one-way door. `None`
    /// disables decay (the pre-hardening posture: rungs are sticky).
    pub decay_after: Option<u64>,
    /// Jitter each tenant's token-bucket refill boundary within the
    /// dedicated refill-jitter RNG stream, so refill-phase probers
    /// cannot learn a stable quantum to ride.
    pub refill_jitter: bool,
}

impl Default for AttackDefense {
    fn default() -> Self {
        AttackDefense {
            budget: TenantQos::DEFENSIVE_DEFAULT,
            cpu_quota: 0.5,
            halve_after: 256,
            suspend_after: 2_048,
            revoke_after: 16_384,
            aggregate: None,
            decay_after: None,
            refill_jitter: false,
        }
    }
}

impl AttackDefense {
    /// The hardened posture: everything in [`AttackDefense::default`]
    /// plus the three adaptive-adversary counters — aggregate
    /// admission cap, ladder hysteresis decay, and refill-boundary
    /// jitter. The adaptive gate proves this posture holds the fast
    /// loop against every closed-loop strategy the default posture
    /// cannot.
    pub fn hardened() -> Self {
        AttackDefense {
            aggregate: Some(AggregateQos::HARDENED_DEFAULT),
            decay_after: Some(3),
            refill_jitter: true,
            ..AttackDefense::default()
        }
    }
}

/// How far up the escalation ladder one attacker has been pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Budget armed, no escalation yet.
    Budgeted,
    /// Binder rate halved.
    RateHalved,
    /// VDC suspended the tenant (continuous devices paused).
    Suspended,
    /// Watchdog revoked the tenant (flight over for it).
    Revoked,
}

impl LadderRung {
    pub(crate) fn name(self) -> &'static str {
        match self {
            LadderRung::Budgeted => "budgeted",
            LadderRung::RateHalved => "rate-halved",
            LadderRung::Suspended => "suspended",
            LadderRung::Revoked => "revoked",
        }
    }
}

/// One ladder movement [`LadderState::advance`] performed this tick.
struct LadderStep {
    pub attacker: String,
    pub rung: LadderRung,
    /// `true` = escalation, `false` = hysteresis decay (step-down).
    pub up: bool,
    /// Cumulative throttle count at the time of the step.
    pub throttles: u64,
}

/// The escalation ladder shared by the open-loop [`AttackInjector`]
/// and the closed-loop [`crate::adaptive::AdaptiveInjector`] — one
/// arm step, one walk — with the per-attacker rung, the throttle
/// baseline thresholds are measured against, and the quiet-tick
/// counter the hysteresis decay runs on.
///
/// Escalation is measured on throttles *since the last step-down*
/// (`base`), not the raw cumulative count — otherwise a decayed
/// attacker would re-escalate instantly off stale history and the
/// ladder would flip-flop instead of recovering.
#[derive(Default)]
pub(crate) struct LadderState {
    rungs: BTreeMap<String, LadderRung>,
    /// Throttle count at the previous tick (quiet detection).
    last: BTreeMap<String, u64>,
    /// Consecutive quiet ticks per attacker.
    quiet: BTreeMap<String, u64>,
    /// Throttle count at the last step-down (escalation baseline).
    base: BTreeMap<String, u64>,
}

impl LadderState {
    /// Marks `attacker` as budgeted (bottom rung) if enforcement has
    /// not touched it yet.
    fn note_budgeted(&mut self, attacker: &str) {
        self.rungs
            .entry(attacker.to_string())
            .or_insert(LadderRung::Budgeted);
    }

    /// Arms `d` on `attacker` (running in `container`): its Binder
    /// budget, its entry on this ladder, and — once per flight — the
    /// drone-wide hardening (aggregate cap, refill jitter keyed by
    /// the plan `seed`, so identical plans see identical jitter).
    ///
    /// The ladder entry goes with the budget: an injector walks an
    /// attacker only if it armed that attacker's budget itself, so a
    /// tenant another injector on the same flight already budgeted
    /// is never walked by two ladders off one throttle counter.
    pub fn arm(
        &mut self,
        drone: &mut Drone,
        d: &AttackDefense,
        attacker: &str,
        container: ContainerId,
        seed: u64,
    ) {
        if drone.driver.tenant_budget(&container).is_none() {
            drone.driver.set_tenant_budget(container, d.budget);
            self.note_budgeted(attacker);
        }
        if let Some(agg) = d.aggregate {
            if drone.driver.aggregate_cap().is_none() {
                drone.driver.set_aggregate_cap(Some(agg));
            }
        }
        if d.refill_jitter && drone.driver.refill_jitter().is_none() {
            drone.driver.set_refill_jitter(Some(seed));
        }
    }

    /// Advances the ladder ([`Self::advance`]) and records every
    /// movement as an attack edge of trace kind `kind`.
    pub fn walk(
        &mut self,
        tick: u64,
        d: &AttackDefense,
        attackers: &[String],
        drone: &mut Drone,
        kind: &'static str,
        actions: &mut Vec<String>,
    ) {
        for step in self.advance(d, attackers, drone) {
            let counter = if step.up {
                "attack.ladder.steps"
            } else {
                "attack.ladder.decays"
            };
            drone.obs.count(counter, 1);
            let arrow = if step.up { "->" } else { "~>" };
            let action = format!(
                "t={tick} ladder {} {arrow} {} (throttles={})",
                step.attacker,
                step.rung.name(),
                step.throttles
            );
            record_edge(drone, actions, kind, &step.attacker, step.up, action);
        }
    }

    pub fn rung(&self, attacker: &str) -> Option<LadderRung> {
        self.rungs.get(attacker).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, LadderRung)> {
        self.rungs.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Walks every budgeted attacker one rung at most — up when its
    /// post-baseline throttle count crosses the next threshold, down
    /// when `decay_after` consecutive quiet ticks have passed.
    /// Returns the movements for [`Self::walk`] to record.
    fn advance(
        &mut self,
        d: &AttackDefense,
        attackers: &[String],
        drone: &mut Drone,
    ) -> Vec<LadderStep> {
        let mut steps = Vec::new();
        for attacker in attackers {
            let Some(rung) = self.rungs.get(attacker).copied() else {
                continue;
            };
            let Some(container) = drone.vdrones.get(attacker).map(|v| v.container) else {
                continue;
            };
            let throttles = drone.driver.throttle_count(&container);
            let last = self.last.insert(attacker.clone(), throttles).unwrap_or(0);
            let active = throttles > last;
            if active {
                self.quiet.insert(attacker.clone(), 0);
            } else {
                *self.quiet.entry(attacker.clone()).or_insert(0) += 1;
            }
            let since_base = throttles - self.base.get(attacker).copied().unwrap_or(0);
            let escalated = match rung {
                LadderRung::Budgeted if since_base >= d.halve_after => drone
                    .driver
                    .halve_tenant_rate(&container)
                    .then_some(LadderRung::RateHalved),
                LadderRung::RateHalved if since_base >= d.suspend_after => {
                    drone.vdc.borrow_mut().on_tenant_suspended(
                        attacker,
                        &format!("binder budget tripped {throttles} times"),
                    );
                    Some(LadderRung::Suspended)
                }
                LadderRung::Suspended if since_base >= d.revoke_after => {
                    drone.vdc.borrow_mut().on_watchdog_revoked(attacker);
                    Some(LadderRung::Revoked)
                }
                _ => None,
            };
            if let Some(next) = escalated {
                self.rungs.insert(attacker.clone(), next);
                steps.push(LadderStep {
                    attacker: attacker.clone(),
                    rung: next,
                    up: true,
                    throttles,
                });
                continue;
            }
            // Hysteresis: a quiet streak steps the attacker back down
            // one rung (revocation stays terminal) and re-baselines
            // the thresholds so only *fresh* violations re-escalate.
            let Some(decay_after) = d.decay_after else {
                continue;
            };
            if self.quiet.get(attacker).copied().unwrap_or(0) < decay_after {
                continue;
            }
            let next = match rung {
                LadderRung::Suspended => {
                    drone.vdc.borrow_mut().on_tenant_resumed(attacker);
                    LadderRung::RateHalved
                }
                LadderRung::RateHalved => {
                    if !drone.driver.restore_tenant_rate(&container) {
                        continue;
                    }
                    LadderRung::Budgeted
                }
                LadderRung::Budgeted | LadderRung::Revoked => continue,
            };
            self.rungs.insert(attacker.clone(), next);
            self.quiet.insert(attacker.clone(), 0);
            self.base.insert(attacker.clone(), throttles);
            steps.push(LadderStep {
                attacker: attacker.clone(),
                rung: next,
                up: false,
                throttles,
            });
        }
        steps
    }
}

/// Records one attack-layer action: bumps `attack.transitions`, emits
/// an `AttackEdge` trace record of `kind`, and appends the line to
/// `actions`.
pub(crate) fn record_edge(
    drone: &Drone,
    actions: &mut Vec<String>,
    kind: &'static str,
    attacker: &str,
    armed: bool,
    action: String,
) {
    drone.obs.count("attack.transitions", 1);
    let attacker = attacker.to_string();
    drone.obs.emit(Subsystem::Fault, || TraceEvent::AttackEdge {
        kind,
        attacker,
        armed,
        detail: action.clone(),
    });
    actions.push(action);
}

/// Histogram bounds for the per-tick Binder throttle trajectory the
/// black-box recorder tails (satellite of the adaptive-adversary
/// work: the flight recorder should show *how hard* enforcement was
/// working in the seconds before an incident).
pub const THROTTLE_TRAJECTORY_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1_024, 4_096];

/// Histogram bounds (millicores) for the armed CPU-quota trajectory.
pub const CPU_QUOTA_BOUNDS: &[u64] = &[100, 250, 500, 1_000, 2_000, 4_000];

/// Records the per-tick enforcement trajectory histograms: the delta
/// of throttle events across `attackers` and the CPU quota (in
/// millicores) currently clamped on them. Both ride the recorder's
/// recent-tail mechanism, so the last ~32 ticks are always in the
/// black box.
pub(crate) fn observe_enforcement(
    drone: &Drone,
    attackers: &[String],
    prev_throttles: &mut u64,
    quota_millicores: u64,
) {
    let total: u64 = attackers
        .iter()
        .filter_map(|a| drone.vdrones.get(a).map(|v| v.container))
        .map(|c| drone.driver.throttle_count(&c))
        .sum();
    let delta = total.saturating_sub(*prev_throttles);
    *prev_throttles = total;
    drone.obs.observe(
        "binder.throttle_trajectory",
        THROTTLE_TRAJECTORY_BOUNDS,
        delta,
    );
    drone
        .obs
        .observe("cpu.quota_millicores", CPU_QUOTA_BOUNDS, quota_millicores);
}

/// Applies an attack plan to a drone, one simulated second at a time.
/// See the module docs for the drive/enforcement model.
pub struct AttackInjector {
    plan: AttackPlan,
    clock: FaultClock,
    defense: Option<AttackDefense>,
    actions: Vec<String>,
    /// Ladder state per attacker name; absent = not yet budgeted.
    ladder: LadderState,
    /// Total throttle count at the previous tick, for the
    /// throttle-trajectory tail.
    prev_throttles: u64,
}

impl AttackInjector {
    /// Wraps a plan. `defense: None` runs the attacks unthrottled.
    pub fn new(plan: AttackPlan, defense: Option<AttackDefense>) -> Self {
        AttackInjector {
            clock: FaultClock::new(plan.events.iter().map(|e| (e.arm_tick, e.disarm_tick))),
            plan,
            defense,
            actions: Vec::new(),
            ladder: LadderState::default(),
            prev_throttles: 0,
        }
    }

    /// The plan being driven.
    pub fn plan(&self) -> &AttackPlan {
        &self.plan
    }

    /// Human-readable log of every transition and ladder step so far.
    pub fn actions(&self) -> &[String] {
        &self.actions
    }

    /// The ladder rung `attacker` currently sits on, if enforcement
    /// engaged it at all. With hysteresis decay armed this can move
    /// down as well as up.
    pub fn rung(&self, attacker: &str) -> Option<LadderRung> {
        self.ladder.rung(attacker)
    }

    /// Ladder state for every attacker enforcement touched, sorted.
    pub fn rungs(&self) -> impl Iterator<Item = (&str, LadderRung)> {
        self.ladder.iter()
    }

    /// Applies every attack transition scheduled at `tick`, then
    /// drives each armed attack's per-tick load and advances the
    /// escalation ladder. Call once per simulated second.
    pub fn apply_tick(&mut self, tick: u64, drone: &mut Drone) {
        if self.plan.is_empty() {
            return;
        }
        let transitions = self.clock.transitions_at(tick);
        for t in transitions {
            let Some(event) = self.plan.events.get(t.index).cloned() else {
                continue;
            };
            self.apply_transition(tick, &event.attacker, event.kind, t.armed, drone);
        }
        self.drive_armed(drone);
        let attackers = self.plan.attackers();
        let mut quota_millicores = 0;
        if let Some(d) = self.defense {
            // One rung per tick at most — graceful degradation (and
            // recovery), not a cliff.
            self.ladder
                .walk(tick, &d, &attackers, drone, "ladder", &mut self.actions);
            let armed_cpu = (0..self.plan.events.len())
                .filter(|&i| self.clock.is_armed(i))
                .filter_map(|i| self.plan.events.get(i))
                .filter(|e| matches!(e.kind, AttackKind::CpuSaturation { .. }))
                .count() as u64;
            quota_millicores = armed_cpu * (d.cpu_quota * 1_000.0) as u64;
        }
        observe_enforcement(
            drone,
            &attackers,
            &mut self.prev_throttles,
            quota_millicores,
        );
    }

    fn apply_transition(
        &mut self,
        tick: u64,
        attacker: &str,
        kind: AttackKind,
        armed: bool,
        drone: &mut Drone,
    ) {
        let verb = if armed { "arm" } else { "disarm" };
        let Some(container) = drone.vdrones.get(attacker).map(|v| v.container) else {
            let action = format!("t={tick} {verb} {} {attacker}: not deployed", kind.name());
            record_edge(
                drone,
                &mut self.actions,
                kind.name(),
                attacker,
                armed,
                action,
            );
            return;
        };
        if armed {
            // Enforcement arms with the attack: budget the tenant,
            // then register the attack's residual interference — the
            // throttled profile when defended, the raw one when not.
            let profile = match self.defense {
                Some(d) => {
                    self.ladder
                        .arm(drone, &d, attacker, container, self.plan.seed);
                    profiles::attack_throttled(kind.source_name())
                }
                None => profiles::attack_unenforced(kind.source_name()),
            };
            drone.kernel.borrow_mut().add_interference(profile);
        } else {
            drone
                .kernel
                .borrow_mut()
                .remove_interference(kind.source_name());
        }
        match kind {
            AttackKind::TelemetryStorm { .. } if !armed => {
                drone.driver.release_subscriptions(&container);
            }
            AttackKind::CpuSaturation { demand } => {
                let mut kernel = drone.kernel.borrow_mut();
                let cpu = kernel.resources.get_mut(ResourceKind::Cpu);
                let client = ClientId::from(attacker);
                if armed {
                    cpu.register(attacker, demand);
                    if let Some(d) = self.defense {
                        cpu.set_quota(attacker, d.cpu_quota);
                    }
                } else {
                    cpu.unregister(&client);
                    cpu.clear_quota(&client);
                }
            }
            _ => {}
        }
        let action = format!("t={tick} {verb} {} {attacker}", kind.name());
        record_edge(
            drone,
            &mut self.actions,
            kind.name(),
            attacker,
            armed,
            action,
        );
    }

    /// One second of load from every armed attack.
    fn drive_armed(&mut self, drone: &mut Drone) {
        for index in 0..self.plan.events.len() {
            if !self.clock.is_armed(index) {
                continue;
            }
            let Some(event) = self.plan.events.get(index).cloned() else {
                continue;
            };
            let Some(container) = drone.vdrones.get(&event.attacker).map(|v| v.container) else {
                continue;
            };
            match event.kind {
                AttackKind::BinderFlood { per_tick } => {
                    for _ in 0..per_tick {
                        let _ = drone.driver.attack_transact(container, 64);
                    }
                }
                AttackKind::ParcelBomb { wire_size } => {
                    // A bomb is few transactions, each enormous; the
                    // parcel ceiling (not the rate) is the defense.
                    for _ in 0..8 {
                        let _ = drone.driver.attack_transact(container, wire_size as usize);
                    }
                }
                AttackKind::TelemetryStorm { subscribers } => {
                    for _ in 0..subscribers {
                        let _ = drone.driver.try_subscribe(container);
                    }
                }
                AttackKind::CpuSaturation { .. } => {
                    // Scheduler pressure is standing demand registered
                    // at arm time; nothing to drive per tick.
                }
                AttackKind::FdExhaustion { per_tick } => {
                    for _ in 0..per_tick {
                        let _ = drone.driver.attack_install_fd(container);
                    }
                }
            }
        }
    }
}

impl FlightProbe for AttackInjector {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        self.apply_tick(tick, drone);
    }
}

/// Histogram bounds (µs) for the fast-loop wakeup jitter the
/// [`RtMonitor`] records; the last bound sits at four times the
/// ArduPilot deadline so the breach tail stays visible.
pub const FLIGHT_JITTER_BOUNDS: &[u64] = &[10, 25, 50, 100, 250, 500, 1_000, 2_500, 10_000];

/// Wakeup latencies the [`RtMonitor`] draws per simulated second: one
/// per iteration of the 400 Hz fast loop.
const RT_SAMPLES_PER_TICK: u32 = 400;

/// The RT-deadline monitor probe: every simulated second it draws one
/// wakeup latency per fast-loop iteration from the kernel's
/// interference-aware latency model and counts misses against
/// ArduPilot's 2500 µs budget. Draws come from the monitor's own
/// [`rt_monitor_stream_rng`] substream; the kernel RNG is never
/// touched.
pub struct RtMonitor {
    rng: SmallRng,
    samples: u64,
    misses: u64,
    max_us: f64,
}

impl RtMonitor {
    /// A monitor at the fast-loop rate, seeded from the flight's RNG
    /// substream.
    pub fn new(seed: u64) -> Self {
        RtMonitor {
            rng: rt_monitor_stream_rng(seed),
            samples: 0,
            misses: 0,
            max_us: 0.0,
        }
    }

    /// Wakeup latencies sampled so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Samples that blew the 2500 µs fast-loop deadline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Worst wakeup latency observed, µs.
    pub fn max_us(&self) -> f64 {
        self.max_us
    }
}

impl FlightProbe for RtMonitor {
    fn on_tick(&mut self, _tick: u64, drone: &mut Drone) {
        let kernel = drone.kernel.borrow();
        let model = kernel.latency_model();
        for _ in 0..RT_SAMPLES_PER_TICK {
            let us = model.sample(&mut self.rng).as_micros_f64();
            self.samples += 1;
            if us > self.max_us {
                self.max_us = us;
            }
            if us > ARDUPILOT_DEADLINE_US {
                self.misses += 1;
            }
            drone
                .obs
                .observe("flight.jitter_us", FLIGHT_JITTER_BOUNDS, us as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_workloads::AttackPlan;

    #[test]
    fn empty_plan_injector_is_inert() {
        let inj = AttackInjector::new(AttackPlan::empty(), Some(AttackDefense::default()));
        assert!(inj.plan().is_empty());
        assert!(inj.actions().is_empty());
        assert!(inj.rungs().next().is_none());
    }

    #[test]
    fn rt_monitor_is_deterministic_per_seed() {
        // Same seed, same draw sequence; the monitor never consults
        // wall clock or global state.
        use rand::Rng;
        let mut a = rt_monitor_stream_rng(42);
        let mut b = rt_monitor_stream_rng(42);
        let (x, y): (u64, u64) = (a.gen(), b.gen());
        assert_eq!(x, y);
        let m = RtMonitor::new(42);
        assert_eq!(m.samples(), 0);
        assert_eq!(m.misses(), 0);
        assert_eq!(m.max_us(), 0.0);
    }

    #[test]
    fn ladder_rungs_order_by_severity() {
        assert!(LadderRung::Budgeted < LadderRung::RateHalved);
        assert!(LadderRung::RateHalved < LadderRung::Suspended);
        assert!(LadderRung::Suspended < LadderRung::Revoked);
    }
}
