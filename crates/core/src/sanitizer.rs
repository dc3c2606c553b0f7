//! Runtime determinism sanitizer.
//!
//! The simulation's core promise is bit-for-bit repeatability: two
//! runs under the same seed must visit identical states. Drift —
//! iteration over an unordered container, a stray wall-clock read, an
//! unseeded RNG — is invisible to functional tests (both runs still
//! "work") until it silently invalidates every experiment built on
//! seed-stability. The sanitizer makes drift loud: it records a
//! per-second vector of component state hashes ([`Drone::component_hashes`])
//! during a flight, compares two same-seed traces, and pinpoints the
//! first divergent tick and the exact components that differ.
//!
//! The static side of the same defense is `dronelint` (rules R1/R2),
//! which bans the constructs that cause drift; this module catches
//! whatever slips through at runtime.

use androne_planner::FlightPlan;

use crate::drone::Drone;
use crate::flight_exec::{execute_flight_probed, FlightOutcome};
use crate::probe::{FlightProbe, ProbeStack};

/// The component hash vector observed at one tick (one simulated
/// second).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickHashes {
    /// Seconds since launch.
    pub tick: u64,
    /// `(component, hash)` pairs in the fixed
    /// [`Drone::component_hashes`] order.
    pub components: Vec<(&'static str, u64)>,
}

/// A full per-second hash trace of one flight.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// One entry per observed tick, in tick order.
    pub ticks: Vec<TickHashes>,
}

/// The first point where two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// First tick whose hash vectors differ (or where one trace
    /// ends).
    pub tick: u64,
    /// Components whose hashes differ at that tick.
    pub diverged_components: Vec<&'static str>,
    /// The full component vector from the first trace at that tick
    /// (empty if that trace ended first).
    pub first: Vec<(&'static str, u64)>,
    /// The full component vector from the second trace at that tick.
    pub second: Vec<(&'static str, u64)>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "determinism violation at t={}s in [{}]",
            self.tick,
            self.diverged_components.join(", ")
        )?;
        writeln!(f, "  run A: {:?}", self.first)?;
        write!(f, "  run B: {:?}", self.second)
    }
}

/// The trace records itself: one [`Drone::component_hashes`] vector
/// per tick.
impl FlightProbe for Trace {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        self.ticks.push(TickHashes {
            tick,
            components: drone.component_hashes().to_vec(),
        });
    }
}

/// Runs `plan` on `drone` while recording the per-second hash trace.
/// `perturb` is an optional extra probe composed after the recorder —
/// test harnesses use it to inject a perturbation at an exact tick in
/// one run and verify the sanitizer localizes it. The recorder runs
/// first at each hook, so a perturbation at tick `t` is recorded from
/// tick `t + 1` on.
pub fn trace_flight(
    drone: &mut Drone,
    plan: FlightPlan,
    max_sim_seconds: f64,
    perturb: Option<&mut dyn FlightProbe>,
) -> (FlightOutcome, Trace) {
    let mut trace = Trace::default();
    let outcome = {
        let mut stack = ProbeStack::new();
        stack.push(&mut trace);
        if let Some(p) = perturb {
            stack.push(p);
        }
        execute_flight_probed(drone, plan, max_sim_seconds, None, &mut stack)
    };
    (outcome, trace)
}

/// Compares two same-seed traces, returning the first divergence (or
/// `None` when the runs were identical).
///
/// The search is one front-to-back scan: a divergence that
/// re-converges (a perturbation the state later absorbs, or a hash
/// collision) still reports its first tick.
pub fn first_divergence(a: &Trace, b: &Trace) -> Option<Divergence> {
    let common = a.ticks.len().min(b.ticks.len());
    let candidate = (0..common).find(|&i| a.ticks[i] != b.ticks[i]);

    let build = |i: usize| {
        let ta = &a.ticks[i];
        let tb = &b.ticks[i];
        let diverged = ta
            .components
            .iter()
            .zip(&tb.components)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.0)
            .collect();
        Divergence {
            tick: ta.tick,
            diverged_components: diverged,
            first: ta.components.clone(),
            second: tb.components.clone(),
        }
    };

    match candidate {
        Some(i) => Some(build(i)),
        None if a.ticks.len() != b.ticks.len() => {
            // One run ended early: divergence at the first missing
            // tick.
            let (longer, first, second) = if a.ticks.len() > b.ticks.len() {
                (
                    &a.ticks[common],
                    a.ticks[common].components.clone(),
                    Vec::new(),
                )
            } else {
                (
                    &b.ticks[common],
                    Vec::new(),
                    b.ticks[common].components.clone(),
                )
            };
            Some(Divergence {
                tick: longer.tick,
                diverged_components: longer.components.iter().map(|c| c.0).collect(),
                first,
                second,
            })
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: u64, hashes: &[u64]) -> TickHashes {
        const NAMES: [&str; 5] = ["kernel", "binder", "sitl", "proxy", "vdc"];
        TickHashes {
            tick: t,
            components: NAMES.iter().copied().zip(hashes.iter().copied()).collect(),
        }
    }

    fn trace_of(rows: &[&[u64]]) -> Trace {
        Trace {
            ticks: rows
                .iter()
                .enumerate()
                .map(|(i, r)| tick(i as u64, r))
                .collect(),
        }
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let a = trace_of(&[&[1, 2, 3], &[4, 5, 6]]);
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }

    #[test]
    fn bisection_finds_first_divergent_tick() {
        let a = trace_of(&[&[1, 1], &[2, 2], &[3, 3], &[4, 4], &[5, 5]]);
        let mut b = a.clone();
        // Diverge the second component from tick 2 onward.
        for t in 2..5 {
            b.ticks[t].components[1].1 ^= 0xDEAD;
        }
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.tick, 2);
        assert_eq!(d.diverged_components, vec!["binder"]);
        assert_eq!(d.first, a.ticks[2].components);
        assert_eq!(d.second, b.ticks[2].components);
    }

    #[test]
    fn non_persistent_divergence_falls_back_to_scan() {
        let a = trace_of(&[&[1], &[2], &[3], &[4]]);
        let mut b = a.clone();
        // Diverge only in the middle: re-converges afterward, so the
        // monotone-predicate assumption is broken.
        b.ticks[1].components[0].1 = 99;
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.tick, 1);
    }

    #[test]
    fn reconverged_divergence_reports_its_first_tick() {
        // Diverges at tick 0, re-converges, then diverges for good
        // from tick 3: the first divergence is still tick 0.
        let a = trace_of(&[&[1], &[2], &[3], &[4], &[5]]);
        let b = trace_of(&[&[9], &[2], &[3], &[9], &[9]]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.tick, 0);
        assert_eq!(d.diverged_components, vec!["kernel"]);
    }

    #[test]
    fn truncated_trace_reports_first_missing_tick() {
        let a = trace_of(&[&[1], &[2], &[3]]);
        let b = trace_of(&[&[1], &[2]]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.tick, 2);
        assert!(d.second.is_empty());
    }
}
