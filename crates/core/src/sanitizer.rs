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

use androne_obs::{Subsystem, TraceEvent};
use androne_planner::FlightPlan;
use androne_simkern::StateHasher;

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

/// The sanitizer's own probe: one [`Drone::component_hashes`]
/// traversal per tick serves the recorded trace, the folded digest
/// emitted onto the drone's trace bus as a
/// [`TraceEvent::TickHash`], and (under [`Verbosity::Detailed`]) the
/// fine-grained vector.
struct HashProbe<'a> {
    trace: &'a mut Trace,
    verbose: Option<&'a mut VerboseTrace>,
}

impl FlightProbe for HashProbe<'_> {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        let components = drone.component_hashes();
        let mut h = StateHasher::new();
        h.write_u64(tick);
        for (name, hash) in &components {
            h.write_str(name);
            h.write_u64(*hash);
        }
        let digest = h.finish();
        drone
            .obs
            .emit(Subsystem::Flight, || TraceEvent::TickHash { tick, digest });
        if let Some(v) = self.verbose.as_mut() {
            v.ticks.push(VerboseTickHashes {
                tick,
                subsystems: drone.detailed_hashes(),
            });
        }
        self.trace.ticks.push(TickHashes {
            tick,
            components: components.to_vec(),
        });
    }
}

/// Runs `plan` on `drone` while recording the per-second hash trace.
pub fn trace_flight(
    drone: &mut Drone,
    plan: FlightPlan,
    max_sim_seconds: f64,
) -> (FlightOutcome, Trace) {
    trace_flight_perturbed(drone, plan, max_sim_seconds, None)
}

/// [`trace_flight`] with an optional extra probe composed after the
/// hash recorder — test harnesses use it to inject a perturbation at
/// an exact tick in one run and verify the sanitizer localizes it.
/// The hash probe runs first at each hook, so a perturbation at tick
/// `t` is recorded from tick `t + 1` on.
pub fn trace_flight_perturbed(
    drone: &mut Drone,
    plan: FlightPlan,
    max_sim_seconds: f64,
    perturb: Option<&mut dyn FlightProbe>,
) -> (FlightOutcome, Trace) {
    let mut trace = Trace::default();
    let outcome = {
        let mut hasher = HashProbe {
            trace: &mut trace,
            verbose: None,
        };
        let mut stack = ProbeStack::new();
        stack.push(&mut hasher);
        if let Some(p) = perturb {
            stack.push(p);
        }
        execute_flight_probed(drone, plan, max_sim_seconds, None, &mut stack)
    };
    (outcome, trace)
}

/// How much state the sanitizer captures per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verbosity {
    /// The five coarse component hashes ([`Drone::component_hashes`]).
    #[default]
    Component,
    /// Additionally one hash per kernel task, proxy client, VDC
    /// record, and SITL subcomponent ([`Drone::detailed_hashes`]) —
    /// much larger, but localizes a divergence to a single Pid or
    /// client outbox instead of a whole component.
    Detailed,
}

/// The fine-grained hash vector observed at one tick under
/// [`Verbosity::Detailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerboseTickHashes {
    /// Seconds since launch.
    pub tick: u64,
    /// `(subsystem path, hash)` pairs, e.g. `kernel/task/7` or
    /// `proxy/client/vd1`, in the fixed [`Drone::detailed_hashes`]
    /// order.
    pub subsystems: Vec<(String, u64)>,
}

/// A full per-second fine-grained trace of one flight.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerboseTrace {
    /// One entry per observed tick, in tick order.
    pub ticks: Vec<VerboseTickHashes>,
}

/// The first fine-grained divergence between two verbose traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerboseDivergence {
    /// First tick whose subsystem vectors differ (or where one trace
    /// ends).
    pub tick: u64,
    /// Subsystem paths whose hashes differ at that tick, including
    /// paths present in only one run (a task alive in one run and
    /// dead in the other).
    pub diverged_subsystems: Vec<String>,
}

/// [`trace_flight`] at a chosen verbosity: the verbose trace is
/// `Some` only under [`Verbosity::Detailed`].
pub fn trace_flight_with(
    drone: &mut Drone,
    plan: FlightPlan,
    max_sim_seconds: f64,
    verbosity: Verbosity,
) -> (FlightOutcome, Trace, Option<VerboseTrace>) {
    let mut trace = Trace::default();
    let mut verbose = match verbosity {
        Verbosity::Component => None,
        Verbosity::Detailed => Some(VerboseTrace::default()),
    };
    let outcome = {
        let mut hasher = HashProbe {
            trace: &mut trace,
            verbose: verbose.as_mut(),
        };
        execute_flight_probed(drone, plan, max_sim_seconds, None, &mut hasher)
    };
    (outcome, trace, verbose)
}

/// Compares two same-seed verbose traces, returning the first
/// fine-grained divergence. Subsystem vectors are compared by path,
/// so a task that exists in only one run is itself reported as
/// diverged rather than misaligning every later entry.
pub fn first_divergence_verbose(a: &VerboseTrace, b: &VerboseTrace) -> Option<VerboseDivergence> {
    use std::collections::BTreeMap;
    let common = a.ticks.len().min(b.ticks.len());
    for i in 0..common {
        if a.ticks[i] == b.ticks[i] {
            continue;
        }
        let ma: BTreeMap<&str, u64> = a.ticks[i]
            .subsystems
            .iter()
            .map(|(n, h)| (n.as_str(), *h))
            .collect();
        let mb: BTreeMap<&str, u64> = b.ticks[i]
            .subsystems
            .iter()
            .map(|(n, h)| (n.as_str(), *h))
            .collect();
        let mut diverged: Vec<String> = Vec::new();
        for (name, ha) in &ma {
            if mb.get(name) != Some(ha) {
                diverged.push((*name).to_string());
            }
        }
        for name in mb.keys() {
            if !ma.contains_key(name) {
                diverged.push((*name).to_string());
            }
        }
        diverged.sort();
        return Some(VerboseDivergence {
            tick: a.ticks[i].tick,
            diverged_subsystems: diverged,
        });
    }
    if a.ticks.len() != b.ticks.len() {
        let longer = if a.ticks.len() > b.ticks.len() {
            &a.ticks[common]
        } else {
            &b.ticks[common]
        };
        return Some(VerboseDivergence {
            tick: longer.tick,
            diverged_subsystems: longer.subsystems.iter().map(|s| s.0.clone()).collect(),
        });
    }
    None
}

/// Compares two same-seed traces, returning the first divergence (or
/// `None` when the runs were identical).
///
/// The search is a binary bisection over the recorded tick vectors:
/// once a deterministic simulation's state diverges it stays diverged
/// (every subsequent state is a function of the divergent one), so
/// "first divergent tick" is the boundary of a monotone predicate.
/// The bisection is then verified against the predecessor tick; if
/// the divergence turned out not to be persistent (a hash collision
/// re-converged the vectors), a linear scan from the front recovers
/// the true first divergence.
pub fn first_divergence(a: &Trace, b: &Trace) -> Option<Divergence> {
    let common = a.ticks.len().min(b.ticks.len());
    let differs = |i: usize| a.ticks[i] != b.ticks[i];

    let mut candidate = None;
    if common > 0 && differs(common - 1) {
        // Bisect for the first differing index in [0, common).
        let (mut lo, mut hi) = (0usize, common - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if differs(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        candidate = Some(lo);
    }
    // Persistence check: the bisection is only valid if ticks before
    // the candidate agree. Fall back to a linear scan otherwise.
    if let Some(i) = candidate {
        if i > 0 && differs(i - 1) {
            candidate = (0..common).find(|&j| differs(j));
        }
    } else {
        candidate = (0..common).find(|&j| differs(j));
    }

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
                (&a.ticks[common], a.ticks[common].components.clone(), Vec::new())
            } else {
                (&b.ticks[common], Vec::new(), b.ticks[common].components.clone())
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

    fn vtick(t: u64, subsystems: &[(&str, u64)]) -> VerboseTickHashes {
        VerboseTickHashes {
            tick: t,
            subsystems: subsystems
                .iter()
                .map(|(n, h)| (n.to_string(), *h))
                .collect(),
        }
    }

    #[test]
    fn verbose_divergence_localizes_a_client_outbox() {
        let a = VerboseTrace {
            ticks: vec![
                vtick(0, &[("kernel/task/1", 10), ("proxy/client/vd1", 20)]),
                vtick(1, &[("kernel/task/1", 11), ("proxy/client/vd1", 21)]),
            ],
        };
        let mut b = a.clone();
        b.ticks[1].subsystems[1].1 ^= 0xBEEF; // perturb vd1's outbox
        let d = first_divergence_verbose(&a, &b).expect("diverges");
        assert_eq!(d.tick, 1);
        assert_eq!(d.diverged_subsystems, vec!["proxy/client/vd1".to_string()]);
    }

    #[test]
    fn verbose_divergence_reports_one_sided_subsystems() {
        let a = VerboseTrace {
            ticks: vec![vtick(0, &[("kernel/task/1", 10), ("kernel/task/2", 12)])],
        };
        let b = VerboseTrace {
            ticks: vec![vtick(0, &[("kernel/task/1", 10)])],
        };
        let d = first_divergence_verbose(&a, &b).expect("diverges");
        assert_eq!(d.tick, 0);
        assert_eq!(d.diverged_subsystems, vec!["kernel/task/2".to_string()]);
    }

    #[test]
    fn identical_verbose_traces_have_no_divergence() {
        let a = VerboseTrace {
            ticks: vec![vtick(0, &[("sitl/truth", 1)])],
        };
        assert_eq!(first_divergence_verbose(&a, &a.clone()), None);
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
    fn truncated_trace_reports_first_missing_tick() {
        let a = trace_of(&[&[1], &[2], &[3]]);
        let b = trace_of(&[&[1], &[2]]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.tick, 2);
        assert!(d.second.is_empty());
    }
}
