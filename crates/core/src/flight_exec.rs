//! Flight execution: the loop that ties the autopilot, the VDC, and
//! MAVProxy together for one physical flight.
//!
//! This is the paper's Figure 4 in motion on the drone side: the
//! flight planner flies the drone waypoint to waypoint; at each
//! waypoint the VDC grants the owning virtual drone its devices and
//! (if requested) flight control through its VFC; departure revokes
//! them with enforcement; geofence breaches propagate to the app via
//! the SDK; energy and time are charged against each virtual drone's
//! allotment as it operates.

use std::collections::BTreeMap;

use androne_flight::Geofence;
use androne_obs::{Subsystem, TraceEvent};
use androne_planner::{Autopilot, FlightPlan, PilotEvent};

use crate::drone::Drone;
use crate::probe::{FlightProbe, NoProbe};

/// One entry in the flight log.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightLog {
    /// Launched from base.
    Launched,
    /// A virtual drone was handed its waypoint.
    WaypointHandover {
        /// Virtual drone name.
        owner: String,
        /// Index into *that virtual drone's* waypoint list.
        waypoint: usize,
        /// Whether flight control was granted.
        flight_control: bool,
    },
    /// A virtual drone's waypoint service ended.
    WaypointEnd {
        /// Virtual drone name.
        owner: String,
        /// Index into the virtual drone's waypoint list.
        waypoint: usize,
        /// Why it ended.
        reason: EndReason,
        /// Pids terminated by revocation enforcement.
        enforced_kills: usize,
    },
    /// The geofence was breached and recovered.
    GeofenceBreach {
        /// The controlling virtual drone.
        owner: String,
    },
    /// The flight was aborted (e.g. weather) and returned to base.
    Aborted,
    /// The drone landed back at base.
    Landed,
}

/// Why a waypoint service — or the flight as a whole — ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndReason {
    /// The app called `waypointCompleted()` (or the flight landed
    /// with its plan done).
    Completed,
    /// The energy allotment ran out.
    EnergyExhausted,
    /// The time allotment ran out (or the flight hit its safety cap).
    TimeExhausted,
    /// The flight was aborted.
    Aborted,
    /// The ground link was lost; the failsafe ladder brought the
    /// drone home.
    LinkLost,
    /// The VDC watchdog revoked the virtual drone (stalled or
    /// repeatedly violating policy).
    WatchdogRevoked,
}

impl EndReason {
    /// Stable display tag, used by the black-box recorder and trace.
    pub fn name(&self) -> &'static str {
        match self {
            EndReason::Completed => "Completed",
            EndReason::EnergyExhausted => "EnergyExhausted",
            EndReason::TimeExhausted => "TimeExhausted",
            EndReason::Aborted => "Aborted",
            EndReason::LinkLost => "LinkLost",
            EndReason::WatchdogRevoked => "WatchdogRevoked",
        }
    }
}

/// Outcome of one executed flight.
#[derive(Debug)]
pub struct FlightOutcome {
    /// Ordered flight log.
    pub log: Vec<FlightLog>,
    /// Total battery energy consumed, joules.
    pub total_energy_j: f64,
    /// Energy charged to each virtual drone at its waypoints.
    pub vdrone_energy_j: BTreeMap<String, f64>,
    /// Whether the drone completed the plan (vs. aborted).
    pub completed: bool,
    /// Simulated flight duration, seconds.
    pub duration_s: f64,
    /// Why the flight as a whole ended. Every flight ends in a
    /// defined reason — a chaos-gate invariant.
    pub end_reason: EndReason,
}

/// Optional mid-flight abort trigger: checked once per simulated
/// second; returning `true` sends the drone home.
pub type AbortCheck<'a> = Box<dyn FnMut(f64) -> bool + 'a>;

/// Sim-nanoseconds per executor step (400 steps per simulated
/// second).
const STEP_NS: u64 = 2_500_000;

/// Stable tag + detail + counter name for one flight-log entry, used
/// when mirroring it onto the trace bus.
fn event_trace_parts(event: &FlightLog) -> (&'static str, String, &'static str) {
    match event {
        FlightLog::Launched => ("launched", String::new(), "flight.launched"),
        FlightLog::WaypointHandover {
            owner,
            waypoint,
            flight_control,
        } => (
            "handover",
            format!("{owner} wp{waypoint} vfc={flight_control}"),
            "flight.handovers",
        ),
        FlightLog::WaypointEnd {
            owner,
            waypoint,
            reason,
            enforced_kills,
        } => (
            "waypoint-end",
            format!(
                "{owner} wp{waypoint} {} kills={enforced_kills}",
                reason.name()
            ),
            "flight.waypoint_ends",
        ),
        FlightLog::GeofenceBreach { owner } => {
            ("geofence-breach", owner.clone(), "flight.breaches")
        }
        FlightLog::Aborted => ("aborted", String::new(), "flight.aborts"),
        FlightLog::Landed => ("landed", String::new(), "flight.landings"),
    }
}

/// Appends one flight-log entry: mirrors it onto the trace bus,
/// bumps its counter, and fires the probe's `on_event` hook before
/// the entry lands in the log.
fn push_event(
    log: &mut Vec<FlightLog>,
    probe: &mut dyn FlightProbe,
    tick: u64,
    drone: &mut Drone,
    event: FlightLog,
) {
    let (phase, detail, counter) = event_trace_parts(&event);
    drone
        .obs
        .emit(Subsystem::Flight, || TraceEvent::FlightPhase {
            phase,
            detail,
        });
    drone.obs.count(counter, 1);
    probe.on_event(tick, &event, drone);
    log.push(event);
}

/// Executes `plan` on `drone` to completion (or abort), with a
/// safety cap of `max_sim_seconds`.
pub fn execute_flight(
    drone: &mut Drone,
    plan: FlightPlan,
    max_sim_seconds: f64,
    abort: Option<AbortCheck<'_>>,
) -> FlightOutcome {
    execute_flight_probed(drone, plan, max_sim_seconds, abort, &mut NoProbe)
}

/// [`execute_flight`] with a [`FlightProbe`] riding the flight: the
/// probe's `on_tick` fires once per simulated second, `on_event` at
/// every flight-log entry, and `on_end` with the finished outcome.
/// Compose several probes with [`crate::probe::ProbeStack`].
pub fn execute_flight_probed(
    drone: &mut Drone,
    plan: FlightPlan,
    max_sim_seconds: f64,
    mut abort: Option<AbortCheck<'_>>,
    probe: &mut dyn FlightProbe,
) -> FlightOutcome {
    let mut pilot = Autopilot::new(plan);
    let mut log = Vec::new();
    let mut vdrone_energy: BTreeMap<String, f64> = BTreeMap::new();
    let mut completed = false;
    let mut aborted = false;

    // Per-waypoint service tracking.
    let mut active: Option<ActiveService> = None;
    let mut breaches_seen = 0u64;
    let energy_at_start = drone.sitl.energy_consumed_j();
    // The failsafe only terminates a flight that actually launched.
    let mut airborne_seen = false;
    let mut link_lost = false;

    struct ActiveService {
        owner: String,
        wp_index: usize,
        last_energy: f64,
        end_reason: EndReason,
        // Watchdog bookkeeping (proxy counters at last observation).
        last_forwarded: u64,
        denied_at_start: u64,
        stall_secs: u64,
        // Progress watchdog: VDC heartbeat count at last observation
        // and seconds spent forwarding commands without a new mark.
        last_progress: u64,
        busy_no_progress_secs: u64,
    }

    let max_steps = (max_sim_seconds * 400.0) as u64;
    // `(steps elapsed, reason)` when the flight ends inside the loop.
    let mut end: Option<(u64, EndReason)> = None;
    for step in 0..max_steps {
        let tick = step / 400;
        let now_ns = step.saturating_mul(STEP_NS);
        drone.obs.set_now_ns(now_ns);
        // Advance the Binder driver's QoS clock alongside the trace
        // clock: token buckets refill on sim time. A plain store with
        // no hashed effect while no tenant budget is armed.
        drone.driver.set_now_ns(now_ns);
        let events = pilot.step(&mut drone.proxy, &mut drone.sitl);
        for event in events {
            match event {
                PilotEvent::Launched => {
                    push_event(&mut log, probe, tick, drone, FlightLog::Launched)
                }
                PilotEvent::ArrivedAtWaypoint { index, owner } => {
                    if drone.vdc.borrow().record(&owner).is_some_and(|r| r.revoked) {
                        // A revoked virtual drone (by this loop's
                        // watchdog or the QoS escalation ladder) gets
                        // no handover; the pilot overflies its leg.
                        pilot.release_waypoint();
                        continue;
                    }
                    // Which of the owner's waypoints is this?
                    let wp_index = drone
                        .vdc
                        .borrow()
                        .record(&owner)
                        .map(|r| r.waypoints_completed())
                        .unwrap_or(0);
                    // Retarget the VFC fence at this leg.
                    let leg = &pilot.plan().legs[index];
                    let fence = Geofence::new(leg.position, leg.max_radius_m);
                    if let Some(vfc) = drone.proxy.vfc_mut(&owner) {
                        vfc.retarget(fence);
                    }
                    drone.vdc.borrow_mut().on_waypoint_arrived(&owner, wp_index);
                    let flight_control = drone.flight_control_allowed(&owner);
                    if flight_control {
                        drone.proxy.activate_vfc(&owner);
                    }
                    push_event(
                        &mut log,
                        probe,
                        tick,
                        drone,
                        FlightLog::WaypointHandover {
                            owner: owner.clone(),
                            waypoint: wp_index,
                            flight_control,
                        },
                    );
                    let (fwd, den) = drone.proxy.client_activity(&owner).unwrap_or((0, 0));
                    let progress = drone
                        .vdc
                        .borrow()
                        .record(&owner)
                        .map(|r| r.progress_marks())
                        .unwrap_or(0);
                    active = Some(ActiveService {
                        owner,
                        wp_index,
                        last_energy: drone.sitl.energy_consumed_j(),
                        end_reason: EndReason::Completed,
                        last_forwarded: fwd,
                        denied_at_start: den,
                        stall_secs: 0,
                        last_progress: progress,
                        busy_no_progress_secs: 0,
                    });
                }
                PilotEvent::EnergyExhausted { .. } => {
                    if let Some(a) = active.as_mut() {
                        a.end_reason = EndReason::EnergyExhausted;
                    }
                }
                PilotEvent::TimeExhausted { .. } => {
                    if let Some(a) = active.as_mut() {
                        a.end_reason = EndReason::TimeExhausted;
                    }
                }
                PilotEvent::DepartedWaypoint { index } => {
                    if let Some(a) = active.take() {
                        // Final energy charge for this service window.
                        let now_e = drone.sitl.energy_consumed_j();
                        let delta = now_e - a.last_energy;
                        drone.vdc.borrow_mut().charge_energy(&a.owner, delta);
                        *vdrone_energy.entry(a.owner.clone()).or_default() += delta;

                        drone
                            .vdc
                            .borrow_mut()
                            .on_waypoint_departed(&a.owner, a.wp_index);
                        if a.end_reason == EndReason::WatchdogRevoked {
                            // Departure bookkeeping reset the phase
                            // to Transit; a revoked virtual drone
                            // stays finished.
                            let container =
                                drone.vdc.borrow().record(&a.owner).map(|r| r.container);
                            if let Some(c) = container {
                                let access = drone.vdc.borrow().access();
                                access
                                    .borrow_mut()
                                    .set_phase(c, androne_vdc::FlightPhase::Finished);
                            }
                        }
                        let kills = drone.enforce_revocation(&a.owner).len();

                        // VFC: retarget at the owner's next leg, or
                        // land the view for good. A revoked owner's
                        // view always lands.
                        let next_leg = pilot.plan().legs[index + 1..]
                            .iter()
                            .find(|l| l.owner == a.owner)
                            .filter(|_| a.end_reason != EndReason::WatchdogRevoked)
                            .map(|l| Geofence::new(l.position, l.max_radius_m));
                        match next_leg {
                            Some(fence) => {
                                if let Some(vfc) = drone.proxy.vfc_mut(&a.owner) {
                                    vfc.retarget(fence);
                                }
                            }
                            None => {
                                let pos = drone.sitl.position();
                                drone.proxy.finish_vfc(&a.owner, pos);
                            }
                        }
                        push_event(
                            &mut log,
                            probe,
                            tick,
                            drone,
                            FlightLog::WaypointEnd {
                                owner: a.owner,
                                waypoint: a.wp_index,
                                reason: a.end_reason,
                                enforced_kills: kills,
                            },
                        );
                    }
                }
                PilotEvent::FlightComplete => {
                    push_event(&mut log, probe, tick, drone, FlightLog::Landed);
                    completed = !aborted;
                }
            }
        }

        // Once per simulated second: budget charging, completion
        // polling, breach propagation, SDK event delivery, abort
        // checks.
        if step.is_multiple_of(400) {
            drone.pump_sdk_events();
            drone.pump_camera_streams();
            if !drone.sitl.on_ground() {
                airborne_seen = true;
            }
            // Per-VFC watchdog: a stalled or policy-violating virtual
            // drone at an active waypoint loses its flight.
            let watchdog_cfg = drone.vdc.borrow().watchdog();
            if let (Some(cfg), Some(a)) = (watchdog_cfg, active.as_mut()) {
                if a.end_reason == EndReason::Completed {
                    if let Some((fwd, den)) = drone.proxy.client_activity(&a.owner) {
                        let progress = drone
                            .vdc
                            .borrow()
                            .record(&a.owner)
                            .map(|r| r.progress_marks())
                            .unwrap_or(0);
                        if fwd == a.last_forwarded {
                            a.stall_secs += 1;
                        } else {
                            a.stall_secs = 0;
                            a.last_forwarded = fwd;
                            // Commands flowed this second: the stall
                            // signal is blind, the progress signal
                            // is not.
                            if progress == a.last_progress {
                                a.busy_no_progress_secs += 1;
                            }
                        }
                        if progress != a.last_progress {
                            a.last_progress = progress;
                            a.busy_no_progress_secs = 0;
                        }
                        let violations = den.saturating_sub(a.denied_at_start);
                        let busy_loop = cfg
                            .progress_timeout_s
                            .is_some_and(|t| a.busy_no_progress_secs >= t);
                        if a.stall_secs >= cfg.stall_timeout_s
                            || violations > cfg.max_denials
                            || busy_loop
                        {
                            a.end_reason = EndReason::WatchdogRevoked;
                            drone.vdc.borrow_mut().on_watchdog_revoked(&a.owner);
                            pilot.release_waypoint();
                        }
                    }
                }
            }
            // A revocation initiated through the VDC (the QoS
            // escalation ladder) ends the active service window the
            // same way this loop's own watchdog does.
            if let Some(a) = active.as_mut() {
                if a.end_reason == EndReason::Completed
                    && drone
                        .vdc
                        .borrow()
                        .record(&a.owner)
                        .is_some_and(|r| r.revoked)
                {
                    a.end_reason = EndReason::WatchdogRevoked;
                    pilot.release_waypoint();
                }
            }
            if let Some(a) = active.as_mut() {
                let now_e = drone.sitl.energy_consumed_j();
                let delta = now_e - a.last_energy;
                a.last_energy = now_e;
                let (done, exhausted) = {
                    let mut vdc = drone.vdc.borrow_mut();
                    vdc.charge_energy(&a.owner, delta);
                    vdc.charge_time(&a.owner, 1.0);
                    let done = vdc
                        .record(&a.owner)
                        .map(|r| r.waypoint_done)
                        .unwrap_or(false);
                    let exhausted = vdc.record(&a.owner).map(|r| r.exhausted()).unwrap_or(false);
                    (done, exhausted)
                };
                *vdrone_energy.entry(a.owner.clone()).or_default() += delta;
                let energy_gone = drone
                    .vdc
                    .borrow()
                    .record(&a.owner)
                    .map(|r| r.energy_remaining_j() <= 0.0)
                    .unwrap_or(false);
                if done {
                    pilot.release_waypoint();
                } else if exhausted && a.end_reason == EndReason::Completed {
                    // The virtual drone's aggregate allotment ran
                    // out (the pilot's per-leg budget may be wider).
                    a.end_reason = if energy_gone {
                        EndReason::EnergyExhausted
                    } else {
                        EndReason::TimeExhausted
                    };
                    pilot.release_waypoint();
                }
            }
            let breaches = drone.proxy.breaches_handled;
            if breaches > breaches_seen {
                breaches_seen = breaches;
                if let Some(owner) = active.as_ref().map(|a| a.owner.clone()) {
                    drone.vdc.borrow_mut().on_geofence_breached(&owner);
                    push_event(
                        &mut log,
                        probe,
                        tick,
                        drone,
                        FlightLog::GeofenceBreach { owner },
                    );
                }
            }
            let sim_t = step as f64 / 400.0;
            if let Some(check) = abort.as_mut() {
                if !aborted && check(sim_t) {
                    aborted = true;
                    if let Some(a) = active.take() {
                        drone
                            .vdc
                            .borrow_mut()
                            .on_waypoint_departed(&a.owner, a.wp_index);
                        // Retire the VFC so its geofence recovery
                        // does not fight the return-to-base.
                        let pos = drone.sitl.position();
                        drone.proxy.finish_vfc(&a.owner, pos);
                        push_event(
                            &mut log,
                            probe,
                            tick,
                            drone,
                            FlightLog::WaypointEnd {
                                owner: a.owner,
                                waypoint: a.wp_index,
                                reason: EndReason::Aborted,
                                enforced_kills: 0,
                            },
                        );
                    }
                    pilot.abort_to_base(&mut drone.proxy, &mut drone.sitl);
                    push_event(&mut log, probe, tick, drone, FlightLog::Aborted);
                }
            }
            probe.on_tick(tick, drone);
            // Link-loss failsafe termination: the ladder escalated to
            // return-to-launch and the drone is back on the ground —
            // the flight is over even though the plan is not.
            if airborne_seen && drone.proxy.link_failsafe_rtl_engaged() && drone.sitl.on_ground() {
                link_lost = true;
            }
        }

        if link_lost || pilot.done() {
            if link_lost {
                if let Some(a) = active.take() {
                    push_event(
                        &mut log,
                        probe,
                        tick,
                        drone,
                        FlightLog::WaypointEnd {
                            owner: a.owner,
                            waypoint: a.wp_index,
                            reason: EndReason::LinkLost,
                            enforced_kills: 0,
                        },
                    );
                }
                push_event(&mut log, probe, tick, drone, FlightLog::Landed);
            }
            let reason = if link_lost {
                EndReason::LinkLost
            } else if completed {
                EndReason::Completed
            } else {
                EndReason::Aborted
            };
            end = Some((step, reason));
            break;
        }
    }

    let (duration_s, completed_flag, end_reason) = match end {
        Some((step, reason)) => (step as f64 / 400.0, completed && !link_lost, reason),
        None => (max_sim_seconds, false, EndReason::TimeExhausted),
    };
    let outcome = FlightOutcome {
        log,
        total_energy_j: drone.sitl.energy_consumed_j() - energy_at_start,
        vdrone_energy_j: vdrone_energy,
        completed: completed_flag,
        duration_s,
        end_reason,
    };
    drone
        .obs
        .emit(Subsystem::Flight, || TraceEvent::FlightPhase {
            phase: "flight-end",
            detail: end_reason.name().to_string(),
        });
    drone.obs.gauge("flight.duration_s", duration_s);
    drone
        .obs
        .gauge("flight.total_energy_j", outcome.total_energy_j);
    probe.on_end(&outcome, drone);
    outcome
}
