//! Virtual flight controllers (VFCs).
//!
//! MAVProxy presents each virtual drone with its own VFC connection
//! (paper Section 4.3). The VFC restricts which commands are accepted
//! (whitelist + geofence) and presents a *virtualized view* of the
//! drone:
//!
//! - before the virtual drone's waypoint is reached, its drone
//!   appears idle on the ground at the waypoint, and all commands are
//!   declined;
//! - as the real drone approaches, the presented drone automatically
//!   "takes off" to meet the physical drone's position;
//! - while active, commands control the physical drone, subject to
//!   the whitelist and the geofence;
//! - when the virtual drone finishes (or is forced to finish), the
//!   presented drone lands and stays landed for the rest of the
//!   flight.
//!
//! Virtual drones with continuous device access see the real
//! position throughout (to avoid contradicting their sensor
//! readings), but commands are still declined off-waypoint.

use std::rc::Rc;

use androne_hal::GeoPoint;
use androne_mavlink::{deg_to_e7, FlightMode, Message};
use androne_simkern::{StateHash, StateHasher};

use crate::geofence::Geofence;
use crate::whitelist::CommandWhitelist;

/// VFC lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfcState {
    /// Waypoint not yet reached: synthetic grounded view, commands
    /// declined.
    Pending,
    /// Real drone is approaching: synthetic takeoff animation,
    /// commands still declined.
    Approaching,
    /// Flight control granted.
    Active,
    /// Geofence breached: commands declined while the flight
    /// container recovers the drone.
    BreachRecovery,
    /// Finished: synthetic landing view, commands declined forever.
    Finished,
}

/// The VFC's verdict on a client message.
#[derive(Debug, Clone, PartialEq)]
pub enum VfcDecision {
    /// Forward to the real flight controller.
    Forward(Message),
    /// Decline, replying with the given message.
    Deny(Message),
}

/// A per-virtual-drone virtual flight controller.
#[derive(Debug, Clone)]
pub struct Vfc {
    /// Owning client (virtual drone container name).
    pub client: String,
    /// Command whitelist template in force.
    pub whitelist: CommandWhitelist,
    /// Geofence applied while active.
    pub geofence: Geofence,
    /// Whether the client sees the real drone position off-waypoint
    /// (continuous-device virtual drones).
    pub continuous_view: bool,
    state: VfcState,
    /// Synthetic altitude for takeoff/landing animation, m.
    synthetic_alt: f64,
    /// Horizontal position frozen at finish time.
    frozen_position: Option<GeoPoint>,
}

impl Vfc {
    /// Creates a pending VFC for `client`, fenced around its waypoint.
    pub fn new(
        client: impl Into<String>,
        whitelist: CommandWhitelist,
        geofence: Geofence,
        continuous_view: bool,
    ) -> Self {
        Vfc {
            client: client.into(),
            whitelist,
            geofence,
            continuous_view,
            state: VfcState::Pending,
            synthetic_alt: 0.0,
            frozen_position: None,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VfcState {
        self.state
    }

    /// Marks the real drone as approaching the waypoint (synthetic
    /// takeoff begins).
    pub fn begin_approach(&mut self) {
        if self.state == VfcState::Pending {
            self.state = VfcState::Approaching;
        }
    }

    /// Grants flight control (waypoint reached).
    pub fn activate(&mut self) {
        self.state = VfcState::Active;
    }

    /// Retargets the VFC at the virtual drone's next waypoint: the
    /// geofence moves and the view returns to the grounded-idle
    /// presentation until the drone approaches again.
    pub fn retarget(&mut self, geofence: Geofence) {
        self.geofence = geofence;
        self.state = VfcState::Pending;
        self.synthetic_alt = 0.0;
        self.frozen_position = None;
    }

    /// Revokes flight control permanently; the view lands and stays
    /// landed.
    pub fn finish(&mut self, last_position: GeoPoint) {
        self.state = VfcState::Finished;
        self.frozen_position = Some(last_position);
        self.synthetic_alt = last_position.altitude;
    }

    /// Enters geofence-breach recovery: commands decline until
    /// recovery completes.
    pub fn begin_breach_recovery(&mut self) -> Message {
        self.state = VfcState::BreachRecovery;
        Message::StatusText {
            severity: 2,
            text: "geofence breach: control suspended".into(),
        }
    }

    /// Recovery complete: control returns to the virtual drone.
    pub fn end_breach_recovery(&mut self) -> Message {
        self.state = VfcState::Active;
        Message::StatusText {
            severity: 6,
            text: "geofence recovery complete: control returned".into(),
        }
    }

    fn deny(&self, msg: &Message, why: &str) -> VfcDecision {
        match msg {
            Message::CommandLong { command, .. } => VfcDecision::Deny(Message::CommandAck {
                command: *command,
                result: androne_mavlink::MavResult::Denied,
            }),
            _ => VfcDecision::Deny(Message::StatusText {
                severity: 4,
                text: format!("declined: {why}"),
            }),
        }
    }

    /// Screens one client message.
    pub fn on_client_message(&mut self, msg: &Message) -> VfcDecision {
        match self.state {
            VfcState::Pending | VfcState::Approaching => self.deny(msg, "not at waypoint"),
            VfcState::BreachRecovery => self.deny(msg, "geofence recovery in progress"),
            VfcState::Finished => self.deny(msg, "waypoint completed"),
            VfcState::Active => {
                if !self.whitelist.permits(msg) {
                    return self.deny(msg, "command not in whitelist");
                }
                // Guided targets outside the geofence are declined
                // up front rather than flown and breached.
                if let Message::SetPositionTargetGlobalInt { lat, lon, alt, .. } = msg {
                    let target = GeoPoint::new(
                        androne_mavlink::e7_to_deg(*lat),
                        androne_mavlink::e7_to_deg(*lon),
                        *alt as f64,
                    );
                    if !self.geofence.contains(&target) {
                        return self.deny(msg, "target outside geofence");
                    }
                }
                VfcDecision::Forward(msg.clone())
            }
        }
    }

    /// Whether telemetry currently passes through unmodified. The
    /// proxy hoists this check out of its per-message fan-out loop:
    /// identity-view clients receive shared references instead of
    /// per-message rewrites.
    pub fn telemetry_is_identity(&self) -> bool {
        matches!(self.state, VfcState::Active | VfcState::BreachRecovery)
    }

    /// Transforms one telemetry message into this client's view.
    /// `real_position` is the physical drone's current position.
    pub fn transform_telemetry(&mut self, msg: &Message, real_position: &GeoPoint) -> Message {
        match self.transform_patch(msg, real_position) {
            Some(patched) => patched,
            None => msg.clone(),
        }
    }

    /// Shared-reference variant: returns the input reference when the
    /// view leaves the message untouched, allocating only for
    /// genuinely rewritten messages.
    pub fn transform_telemetry_shared(
        &mut self,
        msg: &Rc<Message>,
        real_position: &GeoPoint,
    ) -> Rc<Message> {
        match self.transform_patch(msg, real_position) {
            Some(patched) => Rc::new(patched),
            None => Rc::clone(msg),
        }
    }

    /// Core view logic: `None` means the message passes through
    /// unchanged, `Some` carries the rewritten view.
    fn transform_patch(&mut self, msg: &Message, real_position: &GeoPoint) -> Option<Message> {
        match self.state {
            VfcState::Active | VfcState::BreachRecovery => None,
            VfcState::Pending => match msg {
                Message::GlobalPositionInt { time_boot_ms, .. } => {
                    if self.continuous_view {
                        None
                    } else {
                        // Idle on the ground at the waypoint.
                        Some(synthetic_position(
                            *time_boot_ms,
                            &self.geofence.center,
                            0.0,
                        ))
                    }
                }
                Message::Heartbeat { .. } => Some(Message::Heartbeat {
                    mode: FlightMode::Loiter,
                    armed: false,
                    system_status: 3,
                }),
                // A grounded drone draws idle current; leaking the
                // real in-flight draw would contradict the view.
                Message::SysStatus { voltage_mv, .. } if !self.continuous_view => {
                    Some(Message::SysStatus {
                        voltage_mv: *voltage_mv,
                        current_ca: 30,
                        battery_remaining: 100,
                    })
                }
                _ => None,
            },
            VfcState::Approaching => match msg {
                Message::GlobalPositionInt { time_boot_ms, .. } => {
                    if self.continuous_view {
                        return None;
                    }
                    // Climb the synthetic drone toward the real
                    // altitude to "meet" the physical drone.
                    let target = real_position.altitude;
                    self.synthetic_alt = (self.synthetic_alt + 0.5).min(target);
                    Some(synthetic_position(
                        *time_boot_ms,
                        &self.geofence.center,
                        self.synthetic_alt,
                    ))
                }
                Message::Heartbeat { .. } => Some(Message::Heartbeat {
                    mode: FlightMode::Guided,
                    armed: true,
                    system_status: 4,
                }),
                _ => None,
            },
            VfcState::Finished => match msg {
                Message::GlobalPositionInt { time_boot_ms, .. } => {
                    // Descend the synthetic drone, then stay landed.
                    self.synthetic_alt = (self.synthetic_alt - 0.5).max(0.0);
                    let pos = self.frozen_position.unwrap_or(self.geofence.center);
                    Some(synthetic_position(*time_boot_ms, &pos, self.synthetic_alt))
                }
                Message::Heartbeat { .. } => Some(Message::Heartbeat {
                    mode: if self.synthetic_alt > 0.0 {
                        FlightMode::Land
                    } else {
                        FlightMode::Loiter
                    },
                    armed: self.synthetic_alt > 0.0,
                    system_status: if self.synthetic_alt > 0.0 { 4 } else { 3 },
                }),
                _ => None,
            },
        }
    }
}

impl StateHash for Vfc {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_str(&self.client);
        self.whitelist.state_hash(h);
        self.geofence.state_hash(h);
        h.write_bool(self.continuous_view);
        h.write_u8(match self.state {
            VfcState::Pending => 0,
            VfcState::Approaching => 1,
            VfcState::Active => 2,
            VfcState::BreachRecovery => 3,
            VfcState::Finished => 4,
        });
        h.write_f64(self.synthetic_alt);
        match self.frozen_position {
            Some(p) => {
                h.write_u8(1);
                p.state_hash(h);
            }
            None => h.write_u8(0),
        }
    }
}

fn synthetic_position(time_boot_ms: u32, at: &GeoPoint, alt: f64) -> Message {
    Message::GlobalPositionInt {
        time_boot_ms,
        lat: deg_to_e7(at.latitude),
        lon: deg_to_e7(at.longitude),
        relative_alt: (alt * 1000.0) as i32,
        vx: 0,
        vy: 0,
        vz: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_mavlink::{MavCmd, MavResult};

    fn waypoint() -> GeoPoint {
        GeoPoint::new(43.6084298, -85.8110359, 15.0)
    }

    fn vfc() -> Vfc {
        Vfc::new(
            "vd1",
            CommandWhitelist::standard(),
            Geofence::new(waypoint(), 30.0),
            false,
        )
    }

    fn takeoff_cmd() -> Message {
        Message::CommandLong {
            command: MavCmd::NavTakeoff,
            params: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0],
        }
    }

    fn position_msg() -> Message {
        Message::GlobalPositionInt {
            time_boot_ms: 1000,
            lat: deg_to_e7(43.60),
            lon: deg_to_e7(-85.80),
            relative_alt: 20_000,
            vx: 100,
            vy: 0,
            vz: 0,
        }
    }

    #[test]
    fn pending_vfc_declines_commands() {
        let mut v = vfc();
        match v.on_client_message(&takeoff_cmd()) {
            VfcDecision::Deny(Message::CommandAck { result, .. }) => {
                assert_eq!(result, MavResult::Denied)
            }
            other => panic!("expected denial, got {other:?}"),
        }
    }

    #[test]
    fn pending_view_shows_drone_idle_at_waypoint() {
        let mut v = vfc();
        let real = GeoPoint::new(43.0, -85.0, 40.0); // Far away.
        let out = v.transform_telemetry(&position_msg(), &real);
        match out {
            Message::GlobalPositionInt {
                lat, relative_alt, ..
            } => {
                assert_eq!(lat, deg_to_e7(waypoint().latitude));
                assert_eq!(relative_alt, 0, "on the ground");
            }
            other => panic!("{other:?}"),
        }
        // Heartbeat shows a disarmed, standby drone.
        let hb = v.transform_telemetry(
            &Message::Heartbeat {
                mode: FlightMode::Auto,
                armed: true,
                system_status: 4,
            },
            &real,
        );
        assert_eq!(
            hb,
            Message::Heartbeat {
                mode: FlightMode::Loiter,
                armed: false,
                system_status: 3
            }
        );
    }

    #[test]
    fn continuous_view_exposes_real_position_but_declines_commands() {
        let mut v = Vfc::new(
            "vd1",
            CommandWhitelist::standard(),
            Geofence::new(waypoint(), 30.0),
            true,
        );
        let real = GeoPoint::new(43.0, -85.0, 40.0);
        let out = v.transform_telemetry(&position_msg(), &real);
        assert_eq!(out, position_msg(), "real position passes through");
        assert!(matches!(
            v.on_client_message(&takeoff_cmd()),
            VfcDecision::Deny(_)
        ));
    }

    #[test]
    fn approaching_view_takes_off_to_meet_the_drone() {
        let mut v = vfc();
        v.begin_approach();
        let real = waypoint();
        let mut last_alt = -1i32;
        for _ in 0..40 {
            if let Message::GlobalPositionInt { relative_alt, .. } =
                v.transform_telemetry(&position_msg(), &real)
            {
                assert!(relative_alt >= last_alt, "monotonic climb");
                last_alt = relative_alt;
            }
        }
        assert_eq!(last_alt, 15_000, "met the real drone's altitude");
    }

    #[test]
    fn active_vfc_forwards_whitelisted_commands() {
        let mut v = vfc();
        v.activate();
        assert!(matches!(
            v.on_client_message(&takeoff_cmd()),
            VfcDecision::Forward(_)
        ));
        // Arm/disarm is not in the standard template.
        let arm = Message::CommandLong {
            command: MavCmd::ComponentArmDisarm,
            params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        };
        assert!(matches!(v.on_client_message(&arm), VfcDecision::Deny(_)));
    }

    #[test]
    fn guided_targets_outside_geofence_are_declined() {
        let mut v = vfc();
        v.activate();
        let outside = waypoint().offset_m(100.0, 0.0, 0.0);
        let msg = Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(outside.latitude),
            lon: deg_to_e7(outside.longitude),
            alt: 15.0,
            speed: 5.0,
        };
        assert!(matches!(v.on_client_message(&msg), VfcDecision::Deny(_)));
        let inside = waypoint().offset_m(10.0, 0.0, 0.0);
        let msg = Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(inside.latitude),
            lon: deg_to_e7(inside.longitude),
            alt: 15.0,
            speed: 5.0,
        };
        assert!(matches!(v.on_client_message(&msg), VfcDecision::Forward(_)));
    }

    #[test]
    fn breach_recovery_suspends_and_returns_control() {
        let mut v = vfc();
        v.activate();
        let notice = v.begin_breach_recovery();
        assert!(matches!(notice, Message::StatusText { severity: 2, .. }));
        assert!(matches!(
            v.on_client_message(&takeoff_cmd()),
            VfcDecision::Deny(_)
        ));
        let done = v.end_breach_recovery();
        assert!(matches!(done, Message::StatusText { severity: 6, .. }));
        assert!(matches!(
            v.on_client_message(&takeoff_cmd()),
            VfcDecision::Forward(_)
        ));
    }

    #[test]
    fn finished_vfc_lands_and_stays_landed() {
        let mut v = vfc();
        v.activate();
        let last = waypoint().offset_m(5.0, 5.0, 0.0);
        v.finish(last);
        assert!(matches!(
            v.on_client_message(&takeoff_cmd()),
            VfcDecision::Deny(_)
        ));
        let real = waypoint().offset_m(500.0, 0.0, 30.0); // Drone flew on.
        let mut final_alt = i32::MAX;
        for _ in 0..60 {
            if let Message::GlobalPositionInt {
                relative_alt, lat, ..
            } = v.transform_telemetry(&position_msg(), &real)
            {
                final_alt = relative_alt;
                assert_eq!(lat, deg_to_e7(last.latitude), "view frozen at waypoint");
            }
        }
        assert_eq!(final_alt, 0, "landed view");
    }
}

#[cfg(test)]
mod sys_status_tests {
    use super::*;
    use crate::whitelist::CommandWhitelist;

    #[test]
    fn pending_view_hides_in_flight_battery_draw() {
        let center = GeoPoint::new(43.6, -85.8, 15.0);
        let mut vfc = Vfc::new(
            "vd",
            CommandWhitelist::standard(),
            Geofence::new(center, 30.0),
            false,
        );
        let real = Message::SysStatus {
            voltage_mv: 11_800,
            current_ca: 1_450, // 14.5 A: clearly flying.
            battery_remaining: 62,
        };
        let seen = vfc.transform_telemetry(&real, &center);
        match seen {
            Message::SysStatus { current_ca, .. } => {
                assert!(current_ca < 100, "grounded view shows idle draw")
            }
            other => panic!("{other:?}"),
        }
        // Continuous-view tenants see the truth (their sensors would
        // contradict a synthetic view).
        let mut vfc_cont = Vfc::new(
            "vd2",
            CommandWhitelist::standard(),
            Geofence::new(center, 30.0),
            true,
        );
        assert_eq!(vfc_cont.transform_telemetry(&real, &center), real);
        // Active tenants see the truth too.
        vfc.activate();
        assert_eq!(vfc.transform_telemetry(&real, &center), real);
    }
}
