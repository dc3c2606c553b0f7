//! The autonomous waypoint pilot.
//!
//! The flight planner "autonomously pilots drones from waypoint to
//! waypoint" (paper Section 4) over its unrestricted MAVProxy
//! connection. At each waypoint the pilot hands over to the VDC
//! (which grants the virtual drone its devices and flight control)
//! and waits until the virtual drone completes, releases, or exhausts
//! its energy/time allotment; then it flies on. After the last
//! waypoint the drone returns to base and lands.

use androne_flight::{MavProxy, Sitl};
use androne_hal::GeoPoint;
use androne_mavlink::{deg_to_e7, FlightMode, MavCmd, Message};

use crate::mission::FlightPlan;

/// The proxy client name the pilot uses.
pub const PILOT_CLIENT: &str = "flight-planner";

/// Events the pilot reports to its supervisor (the VDC).
#[derive(Debug, Clone, PartialEq)]
pub enum PilotEvent {
    /// Launched from base.
    Launched,
    /// Arrived at leg `index`; control should be handed to `owner`.
    ArrivedAtWaypoint {
        /// Leg index.
        index: usize,
        /// Virtual drone to hand over to.
        owner: String,
    },
    /// The virtual drone's energy allotment ran out at leg `index`.
    EnergyExhausted {
        /// Leg index.
        index: usize,
    },
    /// The virtual drone's time allotment ran out at leg `index`.
    TimeExhausted {
        /// Leg index.
        index: usize,
    },
    /// Departed leg `index` toward the next.
    DepartedWaypoint {
        /// Leg index.
        index: usize,
    },
    /// Landed back at base; flight complete.
    FlightComplete,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum PilotState {
    Idle,
    TakingOff,
    EnRoute { leg: usize },
    AtWaypoint { leg: usize },
    Returning,
    Done,
}

/// The autonomous pilot for one flight plan.
pub struct Autopilot {
    plan: FlightPlan,
    state: PilotState,
    /// Energy consumed when the current waypoint service began.
    service_energy_start: f64,
    /// Steps spent at the current waypoint.
    service_steps: u64,
    release_requested: bool,
    cruise_alt: f64,
    cruise_speed: f64,
    /// Ground-side command drops already compensated for by a resend.
    drops_seen: u64,
    /// Steps until the next resend attempt is allowed.
    resend_cooldown: u64,
}

impl Autopilot {
    /// Creates a pilot for `plan`.
    pub fn new(plan: FlightPlan) -> Self {
        Autopilot {
            plan,
            state: PilotState::Idle,
            service_energy_start: 0.0,
            service_steps: 0,
            release_requested: false,
            cruise_alt: 15.0,
            cruise_speed: 5.0,
            drops_seen: 0,
            resend_cooldown: 0,
        }
    }

    /// The plan being flown.
    pub fn plan(&self) -> &FlightPlan {
        &self.plan
    }

    /// Whether the flight has completed.
    pub fn done(&self) -> bool {
        self.state == PilotState::Done
    }

    /// Requests departure from the current waypoint (the virtual
    /// drone finished, or the VDC forced it).
    pub fn release_waypoint(&mut self) {
        self.release_requested = true;
    }

    /// Aborts the remaining legs and returns to base immediately
    /// (inclement weather, provider override). Virtual drones with
    /// unvisited waypoints are saved for a later flight.
    pub fn abort_to_base(&mut self, proxy: &mut MavProxy, sitl: &mut Sitl) {
        if matches!(self.state, PilotState::Done) {
            return;
        }
        proxy.client_send(
            PILOT_CLIENT,
            Message::CommandLong {
                command: MavCmd::NavReturnToLaunch,
                params: [0.0; 7],
            },
            sitl,
        );
        self.state = PilotState::Returning;
    }

    fn goto_msg(&self, target: GeoPoint) -> Message {
        Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(target.latitude),
            lon: deg_to_e7(target.longitude),
            alt: target.altitude as f32,
            speed: self.cruise_speed as f32,
        }
    }

    fn goto(&self, proxy: &mut MavProxy, sitl: &mut Sitl, target: GeoPoint) {
        proxy.client_send(PILOT_CLIENT, self.goto_msg(target), sitl);
    }

    /// Re-issues `msg` when the proxy has dropped ground commands the
    /// pilot has not yet compensated for, at most once per second. A
    /// partitioned or lossy link silently swallows commands, so the
    /// FC may never have received the current navigation target; a
    /// resend that is itself dropped keeps the trigger armed, one
    /// that gets through retires it. Drop-free flights never resend,
    /// keeping their traces bit-identical.
    fn resend_if_dropped(&mut self, proxy: &mut MavProxy, sitl: &mut Sitl, msg: Message) {
        if self.resend_cooldown > 0 {
            self.resend_cooldown -= 1;
        }
        if proxy.commands_dropped <= self.drops_seen || self.resend_cooldown > 0 {
            return;
        }
        self.resend_cooldown = 400;
        let before = proxy.commands_dropped;
        proxy.client_send(PILOT_CLIENT, msg, sitl);
        if proxy.commands_dropped == before {
            self.drops_seen = proxy.commands_dropped;
        }
    }

    /// Advances the pilot one proxy step, returning any events.
    ///
    /// The caller must have registered [`PILOT_CLIENT`] as an
    /// unrestricted proxy client.
    pub fn step(&mut self, proxy: &mut MavProxy, sitl: &mut Sitl) -> Vec<PilotEvent> {
        let mut events = Vec::new();
        match self.state {
            PilotState::Idle => {
                // Launch sequence.
                proxy.client_send(
                    PILOT_CLIENT,
                    Message::SetMode {
                        mode: FlightMode::Guided,
                    },
                    sitl,
                );
                proxy.client_send(
                    PILOT_CLIENT,
                    Message::CommandLong {
                        command: MavCmd::ComponentArmDisarm,
                        params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    },
                    sitl,
                );
                proxy.client_send(
                    PILOT_CLIENT,
                    Message::CommandLong {
                        command: MavCmd::NavTakeoff,
                        params: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, self.cruise_alt as f32],
                    },
                    sitl,
                );
                self.state = PilotState::TakingOff;
                events.push(PilotEvent::Launched);
            }
            PilotState::TakingOff => {
                proxy.step(sitl);
                if sitl.position().altitude >= self.cruise_alt - 1.0 {
                    self.advance_to_next_leg(0, proxy, sitl);
                }
            }
            PilotState::EnRoute { leg } => {
                proxy.step(sitl);
                let mut nav_target = self.plan.legs[leg].position;
                if nav_target.altitude < 2.0 {
                    nav_target.altitude = self.cruise_alt;
                }
                self.resend_if_dropped(proxy, sitl, self.goto_msg(nav_target));
                let target = self.plan.legs[leg].position;
                if sitl.position().distance_m(&target) < 2.5 {
                    self.state = PilotState::AtWaypoint { leg };
                    self.service_energy_start = sitl.energy_consumed_j();
                    self.service_steps = 0;
                    self.release_requested = false;
                    events.push(PilotEvent::ArrivedAtWaypoint {
                        index: leg,
                        owner: self.plan.legs[leg].owner.clone(),
                    });
                }
            }
            PilotState::AtWaypoint { leg } => {
                proxy.step(sitl);
                self.service_steps += 1;
                let spec = &self.plan.legs[leg];
                let used = sitl.energy_consumed_j() - self.service_energy_start;
                let elapsed_s = self.service_steps as f64 / 400.0;
                let mut depart = self.release_requested;
                if !depart && used >= spec.service_energy_j {
                    events.push(PilotEvent::EnergyExhausted { index: leg });
                    depart = true;
                }
                if !depart && elapsed_s >= spec.service_time_s {
                    events.push(PilotEvent::TimeExhausted { index: leg });
                    depart = true;
                }
                if depart {
                    events.push(PilotEvent::DepartedWaypoint { index: leg });
                    // Regain guided control for transit.
                    proxy.client_send(
                        PILOT_CLIENT,
                        Message::SetMode {
                            mode: FlightMode::Guided,
                        },
                        sitl,
                    );
                    self.advance_to_next_leg(leg + 1, proxy, sitl);
                }
            }
            PilotState::Returning => {
                proxy.step(sitl);
                self.resend_if_dropped(
                    proxy,
                    sitl,
                    Message::CommandLong {
                        command: MavCmd::NavReturnToLaunch,
                        params: [0.0; 7],
                    },
                );
                if sitl.on_ground() {
                    self.state = PilotState::Done;
                    events.push(PilotEvent::FlightComplete);
                }
            }
            PilotState::Done => {}
        }
        events
    }

    fn advance_to_next_leg(&mut self, next: usize, proxy: &mut MavProxy, sitl: &mut Sitl) {
        if next < self.plan.legs.len() {
            let mut target = self.plan.legs[next].position;
            if target.altitude < 2.0 {
                target.altitude = self.cruise_alt;
            }
            self.goto(proxy, sitl, target);
            self.state = PilotState::EnRoute { leg: next };
        } else {
            proxy.client_send(
                PILOT_CLIENT,
                Message::CommandLong {
                    command: MavCmd::NavReturnToLaunch,
                    params: [0.0; 7],
                },
                sitl,
            );
            self.state = PilotState::Returning;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mission::Leg;

    const HOME: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    fn plan(legs: Vec<Leg>) -> FlightPlan {
        FlightPlan {
            base: HOME,
            legs,
            estimated_duration_s: 600.0,
            estimated_energy_j: 100_000.0,
        }
    }

    fn leg(owner: &str, north: f64, east: f64, energy: f64, time: f64) -> Leg {
        Leg {
            owner: owner.into(),
            position: HOME.offset_m(north, east, 15.0),
            max_radius_m: 30.0,
            service_energy_j: energy,
            service_time_s: time,
            eta_s: 0.0,
        }
    }

    fn run_until<F: FnMut(&[PilotEvent]) -> bool>(
        pilot: &mut Autopilot,
        proxy: &mut MavProxy,
        sitl: &mut Sitl,
        max_secs: f64,
        mut stop: F,
    ) -> Vec<PilotEvent> {
        let mut all = Vec::new();
        for _ in 0..(max_secs * 400.0) as u64 {
            let evs = pilot.step(proxy, sitl);
            let hit = stop(&evs);
            all.extend(evs);
            if hit || pilot.done() {
                break;
            }
        }
        all
    }

    #[test]
    fn full_flight_visits_waypoints_and_returns() {
        let mut sitl = Sitl::new(HOME, 21);
        let mut proxy = MavProxy::new();
        proxy.add_unrestricted_client(PILOT_CLIENT);
        let mut pilot = Autopilot::new(plan(vec![
            leg("vd-a", 60.0, 0.0, 50_000.0, 5.0),
            leg("vd-b", 60.0, 60.0, 50_000.0, 5.0),
        ]));
        let events = run_until(&mut pilot, &mut proxy, &mut sitl, 300.0, |_| false);
        assert!(events.contains(&PilotEvent::Launched));
        assert!(events.iter().any(|e| matches!(
            e,
            PilotEvent::ArrivedAtWaypoint { index: 0, owner } if owner == "vd-a"
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            PilotEvent::ArrivedAtWaypoint { index: 1, owner } if owner == "vd-b"
        )));
        assert!(events.contains(&PilotEvent::FlightComplete));
        assert!(sitl.on_ground());
        assert!(sitl.position().ground_distance_m(&HOME) < 5.0);
    }

    #[test]
    fn release_departs_waypoint_early() {
        let mut sitl = Sitl::new(HOME, 22);
        let mut proxy = MavProxy::new();
        proxy.add_unrestricted_client(PILOT_CLIENT);
        let mut pilot = Autopilot::new(plan(vec![leg("vd-a", 60.0, 0.0, 50_000.0, 600.0)]));
        run_until(&mut pilot, &mut proxy, &mut sitl, 120.0, |evs| {
            evs.iter()
                .any(|e| matches!(e, PilotEvent::ArrivedAtWaypoint { .. }))
        });
        assert_eq!(pilot.state, PilotState::AtWaypoint { leg: 0 });
        pilot.release_waypoint();
        let events = run_until(&mut pilot, &mut proxy, &mut sitl, 5.0, |evs| {
            evs.iter()
                .any(|e| matches!(e, PilotEvent::DepartedWaypoint { .. }))
        });
        assert!(events
            .iter()
            .any(|e| matches!(e, PilotEvent::DepartedWaypoint { index: 0 })));
    }

    #[test]
    fn time_allotment_forces_departure() {
        let mut sitl = Sitl::new(HOME, 23);
        let mut proxy = MavProxy::new();
        proxy.add_unrestricted_client(PILOT_CLIENT);
        let mut pilot = Autopilot::new(plan(vec![leg("vd-a", 60.0, 0.0, 1e9, 3.0)]));
        let events = run_until(&mut pilot, &mut proxy, &mut sitl, 300.0, |_| false);
        assert!(events
            .iter()
            .any(|e| matches!(e, PilotEvent::TimeExhausted { index: 0 })));
        assert!(events.contains(&PilotEvent::FlightComplete));
    }

    #[test]
    fn energy_allotment_forces_departure() {
        let mut sitl = Sitl::new(HOME, 24);
        let mut proxy = MavProxy::new();
        proxy.add_unrestricted_client(PILOT_CLIENT);
        // Tiny energy allotment: hovering burns through it quickly.
        let mut pilot = Autopilot::new(plan(vec![leg("vd-a", 60.0, 0.0, 300.0, 600.0)]));
        let events = run_until(&mut pilot, &mut proxy, &mut sitl, 300.0, |_| false);
        assert!(events
            .iter()
            .any(|e| matches!(e, PilotEvent::EnergyExhausted { index: 0 })));
    }
}
