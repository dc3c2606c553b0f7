//! Deterministic adversarial-tenant attack plans.
//!
//! An [`AttackPlan`] is the hostile twin of
//! [`androne_simkern::FaultPlan`]: a seeded schedule of typed
//! denial-of-service attempts a co-tenant launches against the shared
//! board. Each event arms at an exact observer tick and disarms at a
//! later one; plans are generated from the dedicated attack RNG
//! stream ([`androne_simkern::attack_stream_rng`]) so:
//!
//! - the same `(seed, horizon, attackers)` always yields the same
//!   plan, and
//! - building or running an **empty** plan consumes zero draws from
//!   the kernel or board RNG streams — a flight with no adversary is
//!   byte-identical to a flight on a build with no attack machinery.
//!
//! The plan is pure data; it knows nothing about drones or Binder.
//! The consumer (the attack injector in the core crate) walks the
//! schedule's arm/disarm windows with the same
//! [`androne_simkern::FaultClock`] the fault injector uses, and maps
//! each [`AttackKind`] onto the simulated system: Binder transaction
//! floods and parcel bombs hit the driver's per-tenant QoS budgets,
//! CPU saturation hits the cgroup-style bandwidth caps, fd exhaustion
//! hits the fd budget, telemetry storms hit the subscription budget.
//! Plans hash through [`StateHash`], so the schedule is part of the
//! dual-run determinism check.

use rand::rngs::SmallRng;
use rand::Rng;

use androne_simkern::statehash::{StateHash, StateHasher};

/// A typed denial-of-service attempt an adversarial tenant can mount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// The tenant issues `per_tick` Binder transactions per observer
    /// tick, trying to starve the flight loop of driver time.
    BinderFlood { per_tick: u32 },
    /// The tenant sends oversized parcels of `wire_size` bytes,
    /// trying to blow the per-transaction copy budget.
    ParcelBomb { wire_size: u64 },
    /// The tenant opens `subscribers` telemetry subscriptions at
    /// once, multiplying every telemetry fan-out.
    TelemetryStorm { subscribers: u32 },
    /// The tenant spins busy loops demanding `demand` cores' worth of
    /// CPU, trying to saturate the shared quota.
    CpuSaturation { demand: f64 },
    /// The tenant installs `per_tick` file descriptors per tick into
    /// its Binder process, trying to exhaust the fd table.
    FdExhaustion { per_tick: u32 },
}

impl AttackKind {
    /// Number of distinct kinds (seed-sweep coverage arrays).
    pub const COUNT: usize = 5;

    /// Stable discriminant for hashing and coverage accounting.
    pub fn tag(self) -> u8 {
        match self {
            AttackKind::BinderFlood { .. } => 0,
            AttackKind::ParcelBomb { .. } => 1,
            AttackKind::TelemetryStorm { .. } => 2,
            AttackKind::CpuSaturation { .. } => 3,
            AttackKind::FdExhaustion { .. } => 4,
        }
    }

    /// Short human-readable name (trace events, counters).
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::BinderFlood { .. } => "binder-flood",
            AttackKind::ParcelBomb { .. } => "parcel-bomb",
            AttackKind::TelemetryStorm { .. } => "telemetry-storm",
            AttackKind::CpuSaturation { .. } => "cpu-saturation",
            AttackKind::FdExhaustion { .. } => "fd-exhaustion",
        }
    }

    /// The interference-source name the injector registers on the
    /// kernel's latency model while this attack runs unthrottled.
    /// Removal by name on the throttle edge must find exactly the
    /// sources this attack added, so names are per-kind statics.
    pub fn source_name(self) -> &'static str {
        match self {
            AttackKind::BinderFlood { .. } => "attack:binder-flood",
            AttackKind::ParcelBomb { .. } => "attack:parcel-bomb",
            AttackKind::TelemetryStorm { .. } => "attack:telemetry-storm",
            AttackKind::CpuSaturation { .. } => "attack:cpu-saturation",
            AttackKind::FdExhaustion { .. } => "attack:fd-exhaustion",
        }
    }
}

impl StateHash for AttackKind {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u8(self.tag());
        match self {
            AttackKind::BinderFlood { per_tick } | AttackKind::FdExhaustion { per_tick } => {
                h.write_u32(*per_tick);
            }
            AttackKind::ParcelBomb { wire_size } => h.write_u64(*wire_size),
            AttackKind::TelemetryStorm { subscribers } => h.write_u32(*subscribers),
            AttackKind::CpuSaturation { demand } => h.write_f64(*demand),
        }
    }
}

/// One scheduled attack: `attacker` (the hostile tenant's virtual
/// drone name) mounts `kind` from `arm_tick` (inclusive) until
/// `disarm_tick` (exclusive). Ticks are the per-second observer ticks
/// of the flight loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackEvent {
    pub kind: AttackKind,
    pub attacker: String,
    pub arm_tick: u64,
    pub disarm_tick: u64,
}

impl StateHash for AttackEvent {
    fn state_hash(&self, h: &mut StateHasher) {
        self.kind.state_hash(h);
        h.write_str(&self.attacker);
        h.write_u64(self.arm_tick);
        h.write_u64(self.disarm_tick);
    }
}

/// A seeded schedule of attacks over one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Events in generation order; overlaps are allowed.
    pub events: Vec<AttackEvent>,
}

impl AttackPlan {
    /// A plan with no events. Running it must not perturb anything.
    pub fn empty() -> AttackPlan {
        AttackPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A plan with exactly one event, for targeted tests.
    pub fn single(
        kind: AttackKind,
        attacker: impl Into<String>,
        arm_tick: u64,
        disarm_tick: u64,
    ) -> AttackPlan {
        AttackPlan {
            seed: 0,
            events: vec![AttackEvent {
                kind,
                attacker: attacker.into(),
                arm_tick,
                disarm_tick,
            }],
        }
    }

    /// Generates a random plan for a flight of `horizon_ticks`
    /// seconds from the dedicated attack RNG stream seeded by `seed`
    /// alone. `attackers` is the roster of hostile tenants; each
    /// event draws its attacker from it (an empty roster falls back
    /// to a fixed name so generation stays total).
    pub fn generate(seed: u64, horizon_ticks: u64, attackers: &[String]) -> AttackPlan {
        let mut rng = androne_simkern::attack_stream_rng(seed);
        let horizon = horizon_ticks.max(12);
        let count = rng.gen_range(1..=3);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = match rng.gen_range(0..5u32) {
                0 => AttackKind::BinderFlood {
                    per_tick: rng.gen_range(200..=800),
                },
                1 => AttackKind::ParcelBomb {
                    wire_size: rng.gen_range(262_144..=2_097_152),
                },
                2 => AttackKind::TelemetryStorm {
                    subscribers: rng.gen_range(64..=512),
                },
                3 => AttackKind::CpuSaturation {
                    demand: rng.gen_range(4.0..16.0),
                },
                _ => AttackKind::FdExhaustion {
                    per_tick: rng.gen_range(32..=128),
                },
            };
            // Arm within the first three quarters so the attack has
            // airtime; windows are long enough that the escalation
            // ladder (throttle -> suspend -> revoke) can climb.
            let arm_tick = rng.gen_range(4..horizon * 3 / 4);
            let duration = rng.gen_range(5u64..=20);
            events.push(AttackEvent {
                kind,
                attacker: Self::pick_attacker(&mut rng, attackers),
                arm_tick,
                disarm_tick: arm_tick + duration,
            });
        }
        AttackPlan { seed, events }
    }

    /// Draws an attacker from the roster; the fixed fallback name
    /// keeps hand-run plans total when no roster is supplied.
    /// Drawing only on a non-empty roster keeps the no-roster draw
    /// sequence independent of roster size.
    fn pick_attacker(rng: &mut SmallRng, attackers: &[String]) -> String {
        if attackers.is_empty() {
            "vd-attacker".to_string()
        } else {
            attackers
                .get(rng.gen_range(0..attackers.len()))
                .cloned()
                .unwrap_or_else(|| "vd-attacker".to_string())
        }
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The sorted, deduplicated set of tenants named as attackers
    /// anywhere in the plan.
    pub fn attackers(&self) -> Vec<String> {
        let mut out: Vec<String> = self.events.iter().map(|e| e.attacker.clone()).collect();
        out.sort();
        out.dedup();
        out
    }
}

impl StateHash for AttackPlan {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.seed);
        h.write_usize(self.events.len());
        for e in &self.events {
            e.state_hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let roster = vec!["vd-evil".to_string()];
        let a = AttackPlan::generate(42, 120, &roster);
        let b = AttackPlan::generate(42, 120, &roster);
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
        let c = AttackPlan::generate(43, 120, &roster);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_events_fit_the_horizon() {
        let roster = vec!["vd-evil".to_string()];
        for seed in 0..64 {
            let plan = AttackPlan::generate(seed, 120, &roster);
            assert!(
                (1..=3).contains(&plan.events.len()),
                "seed {seed}: {} events",
                plan.events.len()
            );
            for e in &plan.events {
                assert!(e.arm_tick >= 4);
                assert!(e.disarm_tick > e.arm_tick);
                assert!(e.arm_tick < 120 * 3 / 4);
                assert_eq!(e.attacker, "vd-evil");
            }
        }
    }

    #[test]
    fn seed_sweep_reaches_every_attack_kind() {
        let roster = vec!["vd-evil".to_string()];
        let mut seen = [false; AttackKind::COUNT];
        for seed in 0..512 {
            for e in &AttackPlan::generate(seed, 120, &roster).events {
                seen[e.kind.tag() as usize] = true;
            }
        }
        for (tag, hit) in seen.iter().enumerate() {
            assert!(hit, "AttackKind tag {tag} never drawn across 512 seeds");
        }
    }

    #[test]
    fn attackers_are_drawn_from_the_roster() {
        let roster = vec!["vd-a".to_string(), "vd-b".to_string(), "vd-c".to_string()];
        let mut named: std::collections::BTreeSet<String> = Default::default();
        for seed in 0..256 {
            for e in &AttackPlan::generate(seed, 120, &roster).events {
                assert!(
                    roster.contains(&e.attacker),
                    "unknown attacker {}",
                    e.attacker
                );
                named.insert(e.attacker.clone());
            }
        }
        assert!(named.len() > 1, "roster draw never varied across 256 seeds");
    }

    #[test]
    fn empty_roster_falls_back_to_fixed_attacker() {
        for seed in 0..32 {
            for e in &AttackPlan::generate(seed, 120, &[]).events {
                assert_eq!(e.attacker, "vd-attacker");
            }
        }
    }

    #[test]
    fn source_names_are_distinct_per_kind() {
        let kinds = [
            AttackKind::BinderFlood { per_tick: 1 },
            AttackKind::ParcelBomb { wire_size: 1 },
            AttackKind::TelemetryStorm { subscribers: 1 },
            AttackKind::CpuSaturation { demand: 1.0 },
            AttackKind::FdExhaustion { per_tick: 1 },
        ];
        let names: std::collections::BTreeSet<&str> =
            kinds.iter().map(|k| k.source_name()).collect();
        assert_eq!(names.len(), AttackKind::COUNT);
        for k in kinds {
            assert!(k.source_name().starts_with("attack:"));
        }
    }

    #[test]
    fn plans_hash_their_events() {
        let a = AttackPlan::single(AttackKind::ParcelBomb { wire_size: 1 << 20 }, "vd-x", 5, 9);
        let b = AttackPlan::single(AttackKind::ParcelBomb { wire_size: 1 << 21 }, "vd-x", 5, 9);
        assert_ne!(a.hash_value(), b.hash_value());
        let c = AttackPlan::single(AttackKind::ParcelBomb { wire_size: 1 << 20 }, "vd-y", 5, 9);
        assert_ne!(a.hash_value(), c.hash_value());
    }
}
