//! The audited home for RNG construction.
//!
//! Every random stream in the simulation must be a pure function of
//! the run seed, or determinism silently dies: an ad-hoc
//! `SmallRng::seed_from_u64(seed + 1)` in one subsystem collides with
//! another subsystem's stream, and a refactor that reorders draws
//! perturbs every digest downstream. `crates/clippy.toml` therefore
//! bans `SeedableRng::seed_from_u64` (rule R10) in every workspace
//! crate, and this module is the one place that expects it —
//! constructing a stream means calling one of these funnels, each of
//! which documents which stream family it creates and how the seed
//! was derived.
//!
//! Stream families:
//!
//! - **kernel/root streams** ([`stream_rng`]): the per-kernel RNG,
//!   the hardware board's sensor-noise RNG (`HardwareBoard::new`;
//!   `Drone::boot` passes the drone's seed plus one), any consumer
//!   handed a seed already derived through
//!   [`substream_seed`](crate::substream_seed) (e.g. the planner's
//!   annealer, seeded per solve by its caller), and tests and benches
//!   that seed their own inputs.
//! - **fault streams** ([`fault_stream_rng`],
//!   [`fleet_fault_stream_rng`]): dedicated XOR-separated streams for
//!   fault-plan generation, so generating a plan never perturbs the
//!   simulation streams it will be injected into.
#![expect(
    clippy::disallowed_methods,
    reason = "the audited funnels are the one place RNG streams are constructed"
)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Constructs a simulation stream directly from `seed`.
///
/// `seed` must itself be deterministic: the run seed, or a value
/// derived from it via [`substream_seed`](crate::substream_seed).
pub fn stream_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// XOR separator for the per-flight fault-plan stream. The constant
/// predates this module; changing it would reseed every pinned chaos
/// baseline.
const FAULT_STREAM: u64 = 0xFA17_7C0D_E5EE_D000;

/// XOR separator for the fleet-level fault-plan stream.
const FLEET_FAULT_STREAM: u64 = 0xF1EE_7FA1_7000_0000;

/// XOR separator for the adversarial attack-plan stream
/// (`workloads::attacks`). Attacks mirror faults: plan generation
/// draws from its own family so arming an attack never perturbs the
/// kernel or board streams of the flight it targets.
const ATTACK_STREAM: u64 = 0xA77A_C4ED_7E4A_4700;

/// XOR separator for the RT-deadline monitor stream. The monitor
/// samples the kernel's latency *model* hundreds of times per tick;
/// giving it a dedicated stream keeps those draws invisible to the
/// kernel RNG the pinned chaos baselines fingerprint.
const RT_MONITOR_STREAM: u64 = 0x4007_11E4_D11E_5500;

/// XOR separator for the adaptive-adversary feedback stream: the
/// per-tenant [`AttackerBrain`](index.html) policies draw their
/// probe sizes and re-plan decisions here. Separate from
/// [`ATTACK_STREAM`] so an adaptive plan and an open-loop plan with
/// the same seed never share draws, and the brains' consumption can
/// vary tick by tick without perturbing plan generation.
const ADVERSARY_STREAM: u64 = 0xADA7_71FE_ED8A_C000;

/// XOR separator for the token-bucket refill-jitter stream (the
/// Binder driver's defense against refill-cadence probing). Draws
/// are one-per-epoch via [`refill_jitter_ns`], never a long-lived
/// RNG, so the jitter is a pure function of (seed, tenant, epoch).
const REFILL_JITTER_STREAM: u64 = 0x8EF1_11D1_77E8_0000;

/// Constructs the dedicated per-flight fault-plan stream for `seed`.
pub fn fault_stream_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ FAULT_STREAM)
}

/// Constructs the dedicated fleet fault-plan stream for `seed`.
pub fn fleet_fault_stream_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ FLEET_FAULT_STREAM)
}

/// Constructs the dedicated attack-plan stream for `seed`.
pub fn attack_stream_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ ATTACK_STREAM)
}

/// Constructs the dedicated RT-deadline-monitor stream for `seed`.
pub fn rt_monitor_stream_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ RT_MONITOR_STREAM)
}

/// Constructs the adaptive-adversary feedback stream for one
/// attacker brain: `seed` is the adaptive plan's seed, `attacker`
/// the brain's index within the plan. Each brain gets its own
/// substream so adding an attacker never shifts another's draws.
pub fn adversary_stream_rng(seed: u64, attacker: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ ADVERSARY_STREAM ^ attacker.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One refill-boundary jitter draw, nanoseconds in `[0, max_ns)`:
/// the delay the Binder driver adds to token-bucket refill epoch
/// `epoch` for tenant `tenant_key`. A fresh single-draw RNG per call
/// keeps the jitter a pure function of its inputs — no stream state
/// to perturb, nothing for a replay to get out of sync with.
pub fn refill_jitter_ns(seed: u64, tenant_key: u64, epoch: u64, max_ns: u64) -> u64 {
    if max_ns == 0 {
        return 0;
    }
    let mut rng = SmallRng::seed_from_u64(
        seed ^ REFILL_JITTER_STREAM
            ^ tenant_key.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ epoch.wrapping_mul(0xA24B_AED4_963E_E407),
    );
    rand::Rng::gen_range(&mut rng, 0..max_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let a: u64 = stream_rng(7).gen();
        let b: u64 = stream_rng(7).gen();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_families_are_separated() {
        let draws: Vec<u64> = vec![
            stream_rng(7).gen(),
            fault_stream_rng(7).gen(),
            fleet_fault_stream_rng(7).gen(),
            attack_stream_rng(7).gen(),
            rt_monitor_stream_rng(7).gen(),
            adversary_stream_rng(7, 0).gen(),
            adversary_stream_rng(7, 1).gen(),
        ];
        for (i, a) in draws.iter().enumerate() {
            for (j, b) in draws.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "families {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn refill_jitter_is_pure_and_bounded() {
        for epoch in 0..64 {
            let a = refill_jitter_ns(9, 3, epoch, 1_500_000_000);
            let b = refill_jitter_ns(9, 3, epoch, 1_500_000_000);
            assert_eq!(a, b, "jitter must be a pure function of its inputs");
            assert!(a < 1_500_000_000);
        }
        // Distinct tenants and epochs draw distinct delays (the
        // cadence an adaptive attacker would have to learn).
        let spread: std::collections::BTreeSet<u64> = (0..16)
            .map(|e| refill_jitter_ns(9, 3, e, 1_500_000_000))
            .collect();
        assert!(spread.len() > 8, "jitter barely varies: {spread:?}");
        assert_eq!(
            refill_jitter_ns(9, 3, 0, 0),
            0,
            "zero range disables jitter"
        );
    }

    #[test]
    fn fault_stream_matches_the_historical_xor_derivation() {
        // The pinned chaos baselines depend on these exact streams.
        let legacy: u64 = SmallRng::seed_from_u64(9 ^ 0xFA17_7C0D_E5EE_D000).gen();
        assert_eq!(legacy, fault_stream_rng(9).gen::<u64>());
        let legacy_fleet: u64 = SmallRng::seed_from_u64(9 ^ 0xF1EE_7FA1_7000_0000).gen();
        assert_eq!(legacy_fleet, fleet_fault_stream_rng(9).gen::<u64>());
    }
}
