//! Closed-loop adaptive adversaries: attacker *brains* that re-plan
//! every tick from their own admission feedback.
//!
//! An [`AttackPlan`](crate::AttackPlan) is open-loop: the schedule is
//! fixed at generation time and the attacker never reacts to the
//! defense. An [`AdaptivePlan`] instead names a roster of
//! [`AttackerBrain`]s — per-tenant feedback policies that observe the
//! signals a *real* hostile tenant can see through the SDK surface
//! (its own admission results, its own suspension flag) and choose
//! the next tick's Binder load accordingly. Strategies:
//!
//! - **Refill probing** ([`AdaptiveStrategy::RefillProbe`]): slam the
//!   admission path until the token-bucket boundary shows, learn the
//!   per-tick refill quantum from what got through, then ride just
//!   above it so nearly every rejection the ladder counts is spent
//!   re-finding the edge. Refill-boundary jitter in the driver is
//!   the counter: the quantum stops being learnable.
//! - **Rung-edge riding** ([`AdaptiveStrategy::RungEdgeRide`]): the
//!   published defense thresholds are the prior; the brain budgets
//!   its *cumulative* rejections to stay a safety margin below
//!   `halve_after`, bursting while rejection budget remains and
//!   gliding at the learned quantum once it is spent.
//! - **Collusion** ([`AdaptiveStrategy::Collude`]): a group cycles
//!   save → burst → steady so each member stays inside its own
//!   bucket (no rejections, no ladder movement) while the *aggregate*
//!   admitted load spikes every burst phase. The aggregate admission
//!   cap in the driver is the counter: no per-tenant discipline can
//!   push the group past it.
//!
//! Determinism contract: brains draw only from the dedicated
//! adversary feedback stream
//! ([`androne_simkern::adversary_stream_rng`]), one substream per
//! attacker index, so adaptive runs never perturb the kernel or
//! board streams and an empty plan consumes zero draws.

use rand::Rng;

use androne_simkern::statehash::{StateHash, StateHasher};

/// Wire size of every adaptive probe transaction, bytes. Small and
/// constant: the adaptive strategies attack the *rate* dimension;
/// parcel-size games are the open-loop `ParcelBomb`'s job.
pub const ADAPTIVE_WIRE_SIZE: u64 = 64;

/// The steady per-tick load a brain falls back to before it has
/// learned anything (no rejection ever observed — e.g. running
/// against a driver with no budgets armed at all).
const FALLBACK_STEADY: u64 = 160;

/// Publicly-known defaults an informed adversary starts from (the
/// repo documents `TenantQos::DEFENSIVE_DEFAULT` and the ladder
/// thresholds; assuming the attacker read them is the conservative
/// threat model). Feedback overrides these priors within a few ticks.
const PRIOR_QUANTUM: u64 = 120;
const PRIOR_BANK: u64 = 240;
const PRIOR_HALVE_AFTER: u64 = 256;

/// How many cumulative rejections below `halve_after` the rung-edge
/// rider keeps in reserve.
const RUNG_SAFETY: u64 = 32;

/// One closed-loop strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveStrategy {
    /// Learn the token-bucket refill quantum from admission feedback
    /// and ride it.
    RefillProbe,
    /// Stay one safety margin below the halving threshold while
    /// extracting the maximum admitted load.
    RungEdgeRide,
    /// Synchronized (or, with distinct slots, rotating) group cycle:
    /// save a quantum, dump the bank, glide — per-tenant clean,
    /// aggregate spiky.
    Collude {
        /// Number of members in the colluding group.
        group: u32,
        /// This member's phase offset within the cycle. Equal slots
        /// synchronize the group's bursts (the aggregate spike);
        /// distinct slots rotate the burster.
        slot: u32,
    },
}

impl AdaptiveStrategy {
    /// Number of distinct strategies (coverage accounting).
    pub const COUNT: usize = 3;

    /// Stable discriminant for hashing and coverage accounting.
    pub fn tag(self) -> u8 {
        match self {
            AdaptiveStrategy::RefillProbe => 0,
            AdaptiveStrategy::RungEdgeRide => 1,
            AdaptiveStrategy::Collude { .. } => 2,
        }
    }

    /// Short human-readable name (trace events, counters).
    pub fn name(self) -> &'static str {
        match self {
            AdaptiveStrategy::RefillProbe => "refill-probe",
            AdaptiveStrategy::RungEdgeRide => "rung-edge-ride",
            AdaptiveStrategy::Collude { .. } => "collude",
        }
    }
}

impl StateHash for AdaptiveStrategy {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u8(self.tag());
        if let AdaptiveStrategy::Collude { group, slot } = self {
            h.write_u32(*group);
            h.write_u32(*slot);
        }
    }
}

/// One adaptive attacker: a hostile tenant (by virtual-drone name)
/// running one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveAttacker {
    /// The hostile tenant's virtual-drone name.
    pub name: String,
    pub strategy: AdaptiveStrategy,
}

impl StateHash for AdaptiveAttacker {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_str(&self.name);
        self.strategy.state_hash(h);
    }
}

/// A closed-loop adversarial campaign over one flight: every attacker
/// in the roster runs its brain from `arm_tick` (inclusive) to
/// `disarm_tick` (exclusive).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePlan {
    /// Seed for the adversary feedback streams (0 for hand-built
    /// plans — a valid stream seed, not a sentinel).
    pub seed: u64,
    pub arm_tick: u64,
    pub disarm_tick: u64,
    /// The roster, in brain-index order (index = feedback substream).
    pub attackers: Vec<AdaptiveAttacker>,
}

impl AdaptivePlan {
    /// A plan with no attackers. Running it must not perturb
    /// anything.
    pub fn empty() -> AdaptivePlan {
        AdaptivePlan {
            seed: 0,
            arm_tick: 0,
            disarm_tick: 0,
            attackers: Vec::new(),
        }
    }

    /// A plan with exactly one attacker, for targeted tests.
    pub fn single(
        strategy: AdaptiveStrategy,
        attacker: impl Into<String>,
        arm_tick: u64,
        disarm_tick: u64,
    ) -> AdaptivePlan {
        AdaptivePlan {
            seed: 0,
            arm_tick,
            disarm_tick,
            attackers: vec![AdaptiveAttacker {
                name: attacker.into(),
                strategy,
            }],
        }
    }

    /// A synchronized colluding group over the whole roster: every
    /// member bursts on the same phase, the aggregate-spike worst
    /// case the admission cap exists for.
    pub fn colluding(roster: &[String], arm_tick: u64, disarm_tick: u64) -> AdaptivePlan {
        let group = roster.len() as u32;
        AdaptivePlan {
            seed: 0,
            arm_tick,
            disarm_tick,
            attackers: roster
                .iter()
                .map(|name| AdaptiveAttacker {
                    name: name.clone(),
                    strategy: AdaptiveStrategy::Collude { group, slot: 0 },
                })
                .collect(),
        }
    }

    /// Generates a campaign for a flight of `horizon_ticks` seconds.
    /// Draws come from the plan-generation substream of the adversary
    /// family (`attacker = u64::MAX`, reserved — brain substreams use
    /// their roster index), so generating a plan never perturbs the
    /// streams the brains will later draw from, nor any sim stream.
    pub fn generate(seed: u64, horizon_ticks: u64, roster: &[String]) -> AdaptivePlan {
        let mut rng = androne_simkern::adversary_stream_rng(seed, u64::MAX);
        if roster.is_empty() {
            return AdaptivePlan::empty();
        }
        let horizon = horizon_ticks.max(24);
        let count = rng.gen_range(1..=roster.len().min(3));
        let start = rng.gen_range(0..roster.len());
        let arm_tick = rng.gen_range(2..horizon / 2);
        let duration = rng.gen_range(20u64..=45);
        let attackers = (0..count)
            .map(|i| {
                let name = roster[(start + i) % roster.len()].clone();
                let strategy = match rng.gen_range(0..3u32) {
                    0 => AdaptiveStrategy::RefillProbe,
                    1 => AdaptiveStrategy::RungEdgeRide,
                    _ => AdaptiveStrategy::Collude {
                        group: count as u32,
                        // Distinct slots: generated collusion rotates
                        // the burster. The synchronized worst case is
                        // pinned by [`AdaptivePlan::colluding`].
                        slot: i as u32,
                    },
                };
                AdaptiveAttacker { name, strategy }
            })
            .collect();
        AdaptivePlan {
            seed,
            arm_tick,
            disarm_tick: arm_tick + duration,
            attackers,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.attackers.is_empty()
    }

    /// The sorted, deduplicated roster of attacker names.
    pub fn attacker_names(&self) -> Vec<String> {
        let mut out: Vec<String> = self.attackers.iter().map(|a| a.name.clone()).collect();
        out.sort();
        out.dedup();
        out
    }
}

impl StateHash for AdaptivePlan {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.seed);
        h.write_u64(self.arm_tick);
        h.write_u64(self.disarm_tick);
        h.write_usize(self.attackers.len());
        for a in &self.attackers {
            a.state_hash(h);
        }
    }
}

/// What one attacker observed about its *own* previous tick — exactly
/// the feedback a real hostile tenant gets back through the SDK
/// surface: which of its transactions were admitted or rejected, and
/// whether the ladder currently holds it suspended. Nothing here is
/// defender-private state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackerObservation {
    /// The tick being planned (collusion phases key off it).
    pub tick: u64,
    /// Transactions this attacker sent last tick.
    pub sent: u64,
    /// ...of which the driver admitted.
    pub admitted: u64,
    /// ...and rejected (throttled on any dimension).
    pub rejected: u64,
    /// Whether the SDK currently reports this tenant suspended.
    pub suspended: bool,
}

/// The load one brain chose for the next tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackerCommand {
    /// Binder transactions to issue this tick.
    pub txns: u32,
    /// Wire size of each, bytes.
    pub wire_size: u64,
}

/// One attacker's feedback policy: give it the previous tick's
/// [`AttackerObservation`], get the next tick's [`AttackerCommand`].
/// All randomness comes from the brain's own adversary substream.
#[derive(Debug, Clone)]
pub struct AttackerBrain {
    strategy: AdaptiveStrategy,
    rng: rand::rngs::SmallRng,
    /// Learned per-tick refill quantum (what a steady send admits).
    quantum: u64,
    /// Learned bucket capacity (what a post-save burst admits).
    bank: u64,
    /// What the brain commanded last tick (to attribute rejections
    /// to the bank or the quantum estimate).
    last_cmd: u64,
    /// Rejections accumulated over the campaign (the rung-edge
    /// rider's ladder-distance estimate).
    cum_rejected: u64,
    /// Whether any rejection has been observed yet (before the first
    /// one there is no evidence a budget is armed at all).
    edge_seen: bool,
}

impl AttackerBrain {
    /// Builds the brain for roster index `index` of a plan seeded
    /// `plan_seed`. Each index gets its own adversary substream, so
    /// adding an attacker never shifts another's draws.
    pub fn new(plan_seed: u64, index: u64, strategy: AdaptiveStrategy) -> AttackerBrain {
        AttackerBrain {
            strategy,
            rng: androne_simkern::adversary_stream_rng(plan_seed, index),
            quantum: 0,
            bank: 0,
            last_cmd: 0,
            cum_rejected: 0,
            edge_seen: false,
        }
    }

    /// The strategy this brain runs.
    pub fn strategy(&self) -> AdaptiveStrategy {
        self.strategy
    }

    /// Digests feedback and picks the next tick's load.
    pub fn plan_tick(&mut self, obs: &AttackerObservation) -> AttackerCommand {
        // Learn from the admission boundary whenever it was visible:
        // a tick with both admissions and rejections measured the
        // bucket exactly. A burst well above the quantum estimate
        // measured the bank; anything else measured the quantum
        // (including a halved quantum after a ladder step — admitted
        // simply comes back smaller and the estimate follows).
        if obs.admitted > 0 && obs.rejected > 0 {
            if self.edge_seen && self.last_cmd > self.quantum.max(1) * 3 / 2 {
                self.bank = obs.admitted;
            } else {
                self.quantum = obs.admitted;
                self.bank = self.bank.max(obs.admitted);
            }
            self.edge_seen = true;
        }
        self.cum_rejected += obs.rejected;
        if obs.suspended {
            // The ladder holds this tenant suspended: go fully quiet
            // so the hysteresis decay (if the defender runs one)
            // steps it back down. An attacker that keeps pushing
            // while suspended only walks toward revocation.
            self.last_cmd = 0;
            return AttackerCommand {
                txns: 0,
                wire_size: ADAPTIVE_WIRE_SIZE,
            };
        }
        let txns = match self.strategy {
            AdaptiveStrategy::RefillProbe => {
                if self.quantum == 0 {
                    // No boundary seen yet: slam until it shows.
                    320 + self.rng.gen_range(0..64u64)
                } else {
                    // Ride the learned quantum with a small probe on
                    // top; under refill jitter the quantum drifts and
                    // the probe keeps re-finding (and paying for) the
                    // edge.
                    self.quantum + self.rng.gen_range(0..4u64)
                }
            }
            AdaptiveStrategy::RungEdgeRide => {
                let quantum = if self.quantum > 0 {
                    self.quantum
                } else {
                    PRIOR_QUANTUM
                };
                let budget = PRIOR_HALVE_AFTER
                    .saturating_sub(RUNG_SAFETY)
                    .saturating_sub(self.cum_rejected);
                if budget > 0 {
                    // Overshoot by at most the remaining rejection
                    // budget: every rejection spends ladder distance.
                    quantum + budget.min(48 + self.rng.gen_range(0..16u64))
                } else {
                    // Budget spent: glide exactly at the quantum.
                    quantum
                }
            }
            AdaptiveStrategy::Collude { slot, .. } => {
                let quantum = if self.quantum > 0 {
                    self.quantum
                } else {
                    PRIOR_QUANTUM
                };
                let bank = if self.bank > 0 { self.bank } else { PRIOR_BANK };
                match (obs.tick + u64::from(slot)) % 3 {
                    // Save: bank a refill quantum.
                    0 => 0,
                    // Burst: dump the bank (plus a boundary probe).
                    1 => bank + self.rng.gen_range(0..8u64),
                    // Glide: exactly the refill quantum.
                    _ => quantum,
                }
            }
        };
        // No budget ever bit: settle on a heavy steady load rather
        // than ramping unboundedly (keeps unenforced runs finite).
        let txns = if !self.edge_seen && txns == 0 {
            0
        } else if !self.edge_seen {
            txns.max(FALLBACK_STEADY)
        } else {
            txns
        };
        self.last_cmd = txns;
        AttackerCommand {
            txns: u32::try_from(txns).unwrap_or(u32::MAX),
            wire_size: ADAPTIVE_WIRE_SIZE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_roster_bound() {
        let roster = vec!["vd1".to_string(), "vd2".to_string(), "vd3".to_string()];
        let a = AdaptivePlan::generate(42, 120, &roster);
        let b = AdaptivePlan::generate(42, 120, &roster);
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
        assert_ne!(a, AdaptivePlan::generate(43, 120, &roster));
        assert!(!a.is_empty());
        for att in &a.attackers {
            assert!(roster.contains(&att.name));
        }
        assert!(a.arm_tick >= 2 && a.disarm_tick > a.arm_tick);
        assert!(AdaptivePlan::generate(42, 120, &[]).is_empty());
    }

    #[test]
    fn seed_sweep_reaches_every_strategy() {
        let roster = vec!["vd1".to_string(), "vd2".to_string(), "vd3".to_string()];
        let mut seen = [false; AdaptiveStrategy::COUNT];
        for seed in 0..256 {
            for a in &AdaptivePlan::generate(seed, 120, &roster).attackers {
                seen[a.strategy.tag() as usize] = true;
            }
        }
        for (tag, hit) in seen.iter().enumerate() {
            assert!(hit, "strategy tag {tag} never drawn across 256 seeds");
        }
    }

    #[test]
    fn refill_probe_learns_the_quantum_from_feedback() {
        let mut brain = AttackerBrain::new(7, 0, AdaptiveStrategy::RefillProbe);
        // Tick 0: nothing known, the brain slams.
        let cmd = brain.plan_tick(&AttackerObservation {
            tick: 0,
            ..Default::default()
        });
        assert!(cmd.txns >= 320, "probe phase should slam: {}", cmd.txns);
        // Feedback: 120 admitted, the rest rejected — the boundary.
        let cmd = brain.plan_tick(&AttackerObservation {
            tick: 1,
            sent: u64::from(cmd.txns),
            admitted: 120,
            rejected: u64::from(cmd.txns) - 120,
            suspended: false,
        });
        assert!(
            (120..140).contains(&cmd.txns),
            "brain should ride the learned quantum: {}",
            cmd.txns
        );
        assert_eq!(brain.quantum, 120);
        // A halved quantum is re-learned the same way.
        let cmd = brain.plan_tick(&AttackerObservation {
            tick: 2,
            sent: u64::from(cmd.txns),
            admitted: 60,
            rejected: u64::from(cmd.txns) - 60,
            suspended: false,
        });
        assert!(
            (60..80).contains(&cmd.txns),
            "re-learn after halving: {}",
            cmd.txns
        );
    }

    #[test]
    fn suspended_brains_go_quiet() {
        for strategy in [
            AdaptiveStrategy::RefillProbe,
            AdaptiveStrategy::RungEdgeRide,
            AdaptiveStrategy::Collude { group: 3, slot: 0 },
        ] {
            let mut brain = AttackerBrain::new(7, 0, strategy);
            let cmd = brain.plan_tick(&AttackerObservation {
                tick: 4,
                suspended: true,
                ..Default::default()
            });
            assert_eq!(
                cmd.txns,
                0,
                "{} must go quiet when suspended",
                strategy.name()
            );
        }
    }

    #[test]
    fn rung_edge_rider_spends_a_bounded_rejection_budget() {
        let mut brain = AttackerBrain::new(7, 0, AdaptiveStrategy::RungEdgeRide);
        let mut cum = 0u64;
        let mut obs = AttackerObservation {
            tick: 0,
            ..Default::default()
        };
        for tick in 0..64 {
            let cmd = brain.plan_tick(&obs);
            let sent = u64::from(cmd.txns);
            // Driver model: admit exactly 120/tick, reject the rest.
            let admitted = sent.min(120);
            let rejected = sent - admitted;
            cum += rejected;
            obs = AttackerObservation {
                tick: tick + 1,
                sent,
                admitted,
                rejected,
                suspended: false,
            };
        }
        assert!(
            cum < PRIOR_HALVE_AFTER,
            "the rider crossed the halving threshold it was avoiding: {cum}"
        );
        assert!(cum > 0, "the rider never rode the edge at all");
    }

    #[test]
    fn synchronized_colluders_cycle_save_burst_glide() {
        let roster = vec!["vd1".to_string(), "vd2".to_string(), "vd3".to_string()];
        let plan = AdaptivePlan::colluding(&roster, 2, 40);
        assert_eq!(plan.attackers.len(), 3);
        let mut brains: Vec<AttackerBrain> = plan
            .attackers
            .iter()
            .enumerate()
            .map(|(i, a)| AttackerBrain::new(plan.seed, i as u64, a.strategy))
            .collect();
        // All slots equal: on every tick the three commands agree to
        // within the burst probe jitter, and across a cycle the
        // phases are save(0) / burst / glide.
        let mut by_phase = [0u64; 3];
        for tick in 0..9 {
            let cmds: Vec<u32> = brains
                .iter_mut()
                .map(|b| {
                    b.plan_tick(&AttackerObservation {
                        tick,
                        ..Default::default()
                    })
                    .txns
                })
                .collect();
            let spread = cmds.iter().max().unwrap() - cmds.iter().min().unwrap();
            assert!(spread < 8, "synchronized group diverged: {cmds:?}");
            by_phase[(tick % 3) as usize] = u64::from(cmds[0]);
        }
        assert_eq!(by_phase[0], 0, "save phase must be silent");
        assert!(
            by_phase[1] > by_phase[2] && by_phase[2] > 0,
            "burst must exceed glide: {by_phase:?}"
        );
    }

    #[test]
    fn brains_are_deterministic_per_substream() {
        let run = || {
            let mut brain = AttackerBrain::new(9, 2, AdaptiveStrategy::RefillProbe);
            (0..16)
                .map(|tick| {
                    brain
                        .plan_tick(&AttackerObservation {
                            tick,
                            ..Default::default()
                        })
                        .txns
                })
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run());
        // A different roster index draws a different probe sequence.
        let mut other = AttackerBrain::new(9, 3, AdaptiveStrategy::RefillProbe);
        let first: Vec<u32> = (0..16)
            .map(|tick| {
                other
                    .plan_tick(&AttackerObservation {
                        tick,
                        ..Default::default()
                    })
                    .txns
            })
            .collect();
        assert_ne!(run(), first);
    }
}
