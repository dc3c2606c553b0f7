//! The flight controller (ArduPilot Copter equivalent).
//!
//! A cascade controller with ArduPilot's structure: a 400 Hz *fast
//! loop* running the rate PIDs and motor mixer (the paper's real-time
//! deadline — 2500 µs — comes from this loop), an attitude P stage,
//! and a position/velocity stage feeding desired lean angles. Flight
//! modes follow Copter semantics: Stabilize, AltHold, Auto, Guided,
//! Loiter, RTL, Land.

use androne_hal::{GeoPoint, Vec3, G};
use androne_mavlink::{deg_to_e7, e7_to_deg, FlightMode, MavCmd, MavResult, Message};
use androne_simkern::{StateHash, StateHasher};

use crate::estimator::StateEstimate;
use crate::physics::{wrap_pi, AirframeParams};
use crate::pid::Pid;

/// The fast loop frequency, Hz (ArduPilot Copter default).
pub const FAST_LOOP_HZ: f64 = 400.0;

/// Maximum commanded lean angle, radians (~20 degrees).
pub const MAX_LEAN: f64 = 0.35;

/// Default horizontal speed for autonomous modes, m/s.
pub const DEFAULT_SPEED: f64 = 5.0;

/// A guided-mode position target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidedTarget {
    /// Where to go.
    pub position: GeoPoint,
    /// Ground speed to get there, m/s.
    pub speed: f64,
}

/// Internal vertical state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// On the ground, motors stopped.
    Grounded,
    /// Climbing to the takeoff altitude.
    TakingOff { target_alt: f64 },
    /// Normal flight.
    Flying,
    /// Descending to land.
    Landing,
}

/// The ArduPilot-style flight controller.
pub struct FlightController {
    params: AirframeParams,
    home: GeoPoint,
    mode: FlightMode,
    armed: bool,
    phase: Phase,
    guided_target: Option<GuidedTarget>,
    /// Position captured on Loiter entry (or after reaching a target).
    hold_position: Option<GeoPoint>,
    yaw_target: f64,
    /// Auto-mode mission.
    mission: Vec<GeoPoint>,
    mission_index: usize,
    /// In-progress MAVLink mission upload: expected count and items
    /// received so far.
    mission_upload: Option<(u16, Vec<GeoPoint>)>,
    /// Commanded gimbal orientation `(pitch, yaw)`, radians; applied
    /// to the mount by the SITL harness.
    pub mount_target: Option<(f64, f64)>,

    vel_n: Pid,
    vel_e: Pid,
    climb: Pid,
    rate_roll: Pid,
    rate_pitch: Pid,
    rate_yaw: Pid,

    loop_count: u64,
}

impl FlightController {
    /// Creates a disarmed controller at `home` in Stabilize mode.
    pub fn new(params: AirframeParams, home: GeoPoint) -> Self {
        FlightController {
            params,
            home,
            mode: FlightMode::Stabilize,
            armed: false,
            phase: Phase::Grounded,
            guided_target: None,
            hold_position: None,
            yaw_target: 0.0,
            mission: Vec::new(),
            mission_index: 0,
            mission_upload: None,
            mount_target: None,
            vel_n: Pid::new(1.2, 0.15, 0.0, 3.0, 1.0),
            vel_e: Pid::new(1.2, 0.15, 0.0, 3.0, 1.0),
            climb: Pid::new(0.09, 0.05, 0.0, 0.25, 1.5),
            rate_roll: Pid::new(0.06, 0.03, 0.001, 0.35, 0.2),
            rate_pitch: Pid::new(0.06, 0.03, 0.001, 0.35, 0.2),
            rate_yaw: Pid::new(0.5, 0.05, 0.0, 0.3, 0.2),
            loop_count: 0,
        }
    }

    /// Current flight mode.
    pub fn mode(&self) -> FlightMode {
        self.mode
    }

    /// Whether the vehicle is armed.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Home (launch) position.
    pub fn home(&self) -> GeoPoint {
        self.home
    }

    /// Loads an Auto-mode mission.
    pub fn set_mission(&mut self, waypoints: Vec<GeoPoint>) {
        self.mission = waypoints;
        self.mission_index = 0;
    }

    /// The active guided target, if any.
    pub fn guided_target(&self) -> Option<GuidedTarget> {
        self.guided_target
    }

    fn set_mode(&mut self, mode: FlightMode, est: &StateEstimate) {
        self.mode = mode;
        match mode {
            FlightMode::Loiter | FlightMode::AltHold => {
                self.hold_position = Some(est.position);
            }
            FlightMode::Guided
                // Keep any existing target; hold in place until one
                // arrives.
                if self.guided_target.is_none() => {
                    self.hold_position = Some(est.position);
                }
            FlightMode::Land => self.phase = Phase::Landing,
            FlightMode::Rtl => {}
            _ => {}
        }
    }

    /// Handles one inbound MAVLink message, returning replies.
    pub fn handle_message(&mut self, msg: &Message, est: &StateEstimate) -> Vec<Message> {
        let mut out = Vec::new();
        match msg {
            Message::SetMode { mode } => {
                self.set_mode(*mode, est);
            }
            Message::SetPositionTargetGlobalInt {
                lat,
                lon,
                alt,
                speed,
            } if self.mode == FlightMode::Guided => {
                self.guided_target = Some(GuidedTarget {
                    position: GeoPoint::new(e7_to_deg(*lat), e7_to_deg(*lon), *alt as f64),
                    speed: if *speed > 0.0 {
                        *speed as f64
                    } else {
                        DEFAULT_SPEED
                    },
                });
                self.hold_position = None;
                if self.phase == Phase::Grounded && self.armed {
                    // A guided target while grounded implies an
                    // implicit takeoff to the target altitude.
                    self.phase = Phase::TakingOff {
                        target_alt: (*alt as f64).max(2.0),
                    };
                }
            }
            Message::CommandLong { command, params } => {
                let result = self.handle_command(*command, params, est);
                out.push(Message::CommandAck {
                    command: *command,
                    result,
                });
            }
            // MAVLink mission upload: COUNT -> REQUEST(0) ->
            // ITEM(0) -> REQUEST(1) -> ... -> ACK(accepted).
            Message::MissionCount { count } => {
                if *count == 0 {
                    self.mission.clear();
                    self.mission_index = 0;
                    out.push(Message::MissionAck { result: 0 });
                } else {
                    self.mission_upload = Some((*count, Vec::new()));
                    out.push(Message::MissionRequestInt { seq: 0 });
                }
            }
            Message::MissionItemInt { seq, lat, lon, alt } => {
                if let Some((count, mut items)) = self.mission_upload.take() {
                    if *seq as usize != items.len() {
                        // Out-of-order item: error ack (MAV_MISSION_
                        // INVALID_SEQUENCE = 13) and abort the upload.
                        out.push(Message::MissionAck { result: 13 });
                    } else {
                        items.push(GeoPoint::new(e7_to_deg(*lat), e7_to_deg(*lon), *alt as f64));
                        if items.len() == count as usize {
                            self.mission = items;
                            self.mission_index = 0;
                            out.push(Message::MissionAck { result: 0 });
                        } else {
                            let next = items.len() as u16;
                            self.mission_upload = Some((count, items));
                            out.push(Message::MissionRequestInt { seq: next });
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// The loaded Auto-mode mission (diagnostics).
    pub fn mission(&self) -> &[GeoPoint] {
        &self.mission
    }

    fn handle_command(
        &mut self,
        command: MavCmd,
        params: &[f32; 7],
        est: &StateEstimate,
    ) -> MavResult {
        match command {
            MavCmd::ComponentArmDisarm => {
                if params[0] >= 0.5 {
                    self.armed = true;
                    MavResult::Accepted
                } else if self.phase == Phase::Grounded || params[1] == 21196.0 {
                    self.armed = false;
                    self.phase = Phase::Grounded;
                    MavResult::Accepted
                } else {
                    MavResult::Denied
                }
            }
            MavCmd::NavTakeoff => {
                if !self.armed {
                    return MavResult::Denied;
                }
                if self.phase == Phase::Grounded {
                    self.phase = Phase::TakingOff {
                        target_alt: (params[6] as f64).max(1.0),
                    };
                    self.hold_position = Some(est.position);
                }
                MavResult::Accepted
            }
            MavCmd::NavLand => {
                self.phase = Phase::Landing;
                self.mode = FlightMode::Land;
                MavResult::Accepted
            }
            MavCmd::NavReturnToLaunch => {
                self.mode = FlightMode::Rtl;
                MavResult::Accepted
            }
            MavCmd::ConditionYaw => {
                self.yaw_target = (params[0] as f64).to_radians();
                MavResult::Accepted
            }
            MavCmd::DoSetMode => {
                match androne_mavlink::FlightMode::from_custom_mode(params[1] as u32) {
                    Ok(mode) => {
                        self.set_mode(mode, est);
                        MavResult::Accepted
                    }
                    Err(_) => MavResult::Failed,
                }
            }
            MavCmd::DoMountControl => {
                // param1 = pitch (deg), param3 = yaw (deg).
                self.mount_target = Some((
                    (params[0] as f64).to_radians(),
                    (params[2] as f64).to_radians(),
                ));
                MavResult::Accepted
            }
            MavCmd::NavWaypoint => MavResult::Accepted,
        }
    }

    /// Desired horizontal velocity and altitude for the current mode.
    fn navigation(&mut self, est: &StateEstimate) -> (Vec3, f64) {
        let hold = |p: &Option<GeoPoint>, est: &StateEstimate| -> (Vec3, f64) {
            match p {
                Some(pos) => {
                    let d = pos.ned_from(&est.position);
                    (
                        Vec3::new(0.8 * d.x, 0.8 * d.y, 0.0).clamp_abs(DEFAULT_SPEED),
                        pos.altitude,
                    )
                }
                None => (Vec3::ZERO, est.position.altitude),
            }
        };
        match self.mode {
            FlightMode::Guided => match self.guided_target {
                Some(t) => {
                    let d = t.position.ned_from(&est.position);
                    if d.norm_xy() < 1.0 && (d.z).abs() < 1.0 {
                        // Target reached: hold there.
                        self.hold_position = Some(t.position);
                        self.guided_target = None;
                        return hold(&self.hold_position, est);
                    }
                    let dist = d.norm_xy().max(1e-6);
                    let speed = t.speed.min(0.8 * dist.max(1.0));
                    (
                        Vec3::new(speed * d.x / dist, speed * d.y / dist, 0.0),
                        t.position.altitude,
                    )
                }
                None => hold(&self.hold_position, est),
            },
            FlightMode::Loiter | FlightMode::AltHold | FlightMode::Stabilize => {
                hold(&self.hold_position, est)
            }
            FlightMode::Rtl => {
                let d = self.home.ned_from(&est.position);
                if d.norm_xy() < 1.5 {
                    self.phase = Phase::Landing;
                    return (Vec3::ZERO, est.position.altitude);
                }
                let dist = d.norm_xy();
                let speed = DEFAULT_SPEED.min(0.8 * dist);
                (
                    Vec3::new(speed * d.x / dist, speed * d.y / dist, 0.0),
                    est.position.altitude.max(15.0),
                )
            }
            FlightMode::Auto => {
                if self.mission_index >= self.mission.len() {
                    return hold(&self.hold_position, est);
                }
                let wp = self.mission[self.mission_index];
                let d = wp.ned_from(&est.position);
                if d.norm_xy() < 1.5 {
                    self.mission_index += 1;
                    self.hold_position = Some(wp);
                    return hold(&self.hold_position, est);
                }
                let dist = d.norm_xy();
                let speed = DEFAULT_SPEED.min(0.8 * dist);
                (
                    Vec3::new(speed * d.x / dist, speed * d.y / dist, 0.0),
                    wp.altitude,
                )
            }
            FlightMode::Land => (Vec3::ZERO, 0.0),
        }
    }

    /// One 400 Hz fast-loop iteration: returns normalized motor
    /// outputs.
    pub fn fast_loop(&mut self, est: &StateEstimate, on_ground: bool) -> [f64; 4] {
        self.loop_count += 1;
        let dt = 1.0 / FAST_LOOP_HZ;
        if !self.armed {
            self.phase = Phase::Grounded;
            return [0.0; 4];
        }

        // Vertical phase handling.
        let (vel_des, alt_des, climb_override) = match self.phase {
            Phase::Grounded => {
                return [0.0; 4];
            }
            Phase::TakingOff { target_alt } => {
                if est.position.altitude >= target_alt - 0.3 {
                    self.phase = Phase::Flying;
                    // Hold at the takeoff point *at altitude* (the
                    // captured hold position is at ground level).
                    let mut hold = self.hold_position.unwrap_or(est.position);
                    hold.altitude = target_alt;
                    self.hold_position = Some(hold);
                }
                let hold = self.hold_position.unwrap_or(est.position);
                let d = hold.ned_from(&est.position);
                (
                    Vec3::new(0.8 * d.x, 0.8 * d.y, 0.0).clamp_abs(2.0),
                    target_alt,
                    Some(2.0),
                )
            }
            Phase::Landing => {
                if on_ground {
                    self.armed = false;
                    self.phase = Phase::Grounded;
                    self.reset_controllers();
                    return [0.0; 4];
                }
                (Vec3::ZERO, 0.0, Some(-0.75))
            }
            Phase::Flying => {
                let (v, a) = self.navigation(est);
                (v, a, None)
            }
        };

        // Velocity -> desired acceleration -> desired lean angles.
        let a_n = self.vel_n.update(vel_des.x - est.velocity.x, dt);
        let a_e = self.vel_e.update(vel_des.y - est.velocity.y, dt);
        let (sy, cy) = est.attitude.yaw.sin_cos();
        let pitch_des = (-(a_n * cy + a_e * sy) / G).clamp(-MAX_LEAN, MAX_LEAN);
        let roll_des = ((-a_n * sy + a_e * cy) / G).clamp(-MAX_LEAN, MAX_LEAN);

        // Altitude -> climb rate -> thrust.
        let climb_des = match climb_override {
            Some(c) => c,
            None => (1.0 * (alt_des - est.position.altitude)).clamp(-1.5, 2.5),
        };
        let climb_actual = -est.velocity.z;
        let thr_adj = self.climb.update(climb_des - climb_actual, dt);
        let tilt = (est.attitude.roll.cos() * est.attitude.pitch.cos()).max(0.5);
        let throttle = (self.params.hover_throttle() / tilt + thr_adj).clamp(0.0, 0.95);

        // Attitude P -> desired rates.
        let yaw_des = if vel_des.norm_xy() > 1.0 {
            vel_des.y.atan2(vel_des.x)
        } else {
            self.yaw_target
        };
        self.yaw_target = yaw_des;
        let rate_des = Vec3::new(
            (5.0 * (roll_des - est.attitude.roll)).clamp(-2.5, 2.5),
            (5.0 * (pitch_des - est.attitude.pitch)).clamp(-2.5, 2.5),
            (2.5 * wrap_pi(yaw_des - est.attitude.yaw)).clamp(-1.5, 1.5),
        );

        // Rate PIDs -> normalized torque commands.
        let r = self.rate_roll.update(rate_des.x - est.rates.x, dt);
        let p = self.rate_pitch.update(rate_des.y - est.rates.y, dt);
        let y = self.rate_yaw.update(rate_des.z - est.rates.z, dt);

        // Mixer (X config; signs match the physics motor layout).
        let mix = [
            throttle - r + p + y, // 0: front-right (CCW)
            throttle + r - p + y, // 1: rear-left  (CCW)
            throttle + r + p - y, // 2: front-left (CW)
            throttle - r - p - y, // 3: rear-right (CW)
        ];
        mix.map(|m| m.clamp(0.0, 1.0))
    }

    fn reset_controllers(&mut self) {
        self.vel_n.reset();
        self.vel_e.reset();
        self.climb.reset();
        self.rate_roll.reset();
        self.rate_pitch.reset();
        self.rate_yaw.reset();
    }

    /// Periodic telemetry. Call once per fast loop; messages are
    /// emitted at their standard rates (heartbeat 1 Hz, attitude
    /// 10 Hz, position 4 Hz, sys-status 1 Hz).
    pub fn telemetry(&self, est: &StateEstimate, battery_v: f64, battery_a: f64) -> Vec<Message> {
        let mut out = Vec::new();
        let n = self.loop_count;
        let time_boot_ms = (n as f64 * 1000.0 / FAST_LOOP_HZ) as u32;
        if n.is_multiple_of(400) {
            out.push(Message::Heartbeat {
                mode: self.mode,
                armed: self.armed,
                system_status: if self.armed { 4 } else { 3 },
            });
            out.push(Message::SysStatus {
                voltage_mv: (battery_v * 1000.0) as u16,
                current_ca: (battery_a * 100.0) as i16,
                battery_remaining: 100,
            });
        }
        if n.is_multiple_of(40) {
            out.push(Message::Attitude {
                time_boot_ms,
                roll: est.attitude.roll as f32,
                pitch: est.attitude.pitch as f32,
                yaw: est.attitude.yaw as f32,
            });
        }
        if n.is_multiple_of(100) {
            out.push(Message::GlobalPositionInt {
                time_boot_ms,
                lat: deg_to_e7(est.position.latitude),
                lon: deg_to_e7(est.position.longitude),
                relative_alt: (est.position.altitude * 1000.0) as i32,
                vx: (est.velocity.x * 100.0) as i16,
                vy: (est.velocity.y * 100.0) as i16,
                vz: (est.velocity.z * 100.0) as i16,
            });
        }
        out
    }
}

impl StateHash for FlightController {
    fn state_hash(&self, h: &mut StateHasher) {
        self.params.state_hash(h);
        self.home.state_hash(h);
        h.write_u32(self.mode.custom_mode());
        h.write_bool(self.armed);
        match self.phase {
            Phase::Grounded => h.write_u8(0),
            Phase::TakingOff { target_alt } => {
                h.write_u8(1);
                h.write_f64(target_alt);
            }
            Phase::Flying => h.write_u8(2),
            Phase::Landing => h.write_u8(3),
        }
        match self.guided_target {
            Some(t) => {
                h.write_u8(1);
                t.position.state_hash(h);
                h.write_f64(t.speed);
            }
            None => h.write_u8(0),
        }
        match self.hold_position {
            Some(p) => {
                h.write_u8(1);
                p.state_hash(h);
            }
            None => h.write_u8(0),
        }
        h.write_f64(self.yaw_target);
        h.write_usize(self.mission.len());
        for wp in &self.mission {
            wp.state_hash(h);
        }
        h.write_usize(self.mission_index);
        match &self.mission_upload {
            Some((count, items)) => {
                h.write_u8(1);
                h.write_u32(u32::from(*count));
                h.write_usize(items.len());
                for wp in items {
                    wp.state_hash(h);
                }
            }
            None => h.write_u8(0),
        }
        match self.mount_target {
            Some((pitch, yaw)) => {
                h.write_u8(1);
                h.write_f64(pitch);
                h.write_f64(yaw);
            }
            None => h.write_u8(0),
        }
        self.vel_n.state_hash(h);
        self.vel_e.state_hash(h);
        self.climb.state_hash(h);
        self.rate_roll.state_hash(h);
        self.rate_pitch.state_hash(h);
        self.rate_yaw.state_hash(h);
        h.write_u64(self.loop_count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_hal::Attitude;
    use androne_mavlink::MavResult;

    const HOME: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    fn fc() -> FlightController {
        FlightController::new(AirframeParams::f450_prototype(), HOME)
    }

    fn est_at(home: GeoPoint, alt: f64) -> StateEstimate {
        StateEstimate {
            position: GeoPoint::new(home.latitude, home.longitude, alt),
            velocity: Vec3::ZERO,
            attitude: Attitude::LEVEL,
            rates: Vec3::ZERO,
        }
    }

    fn cmd(fc: &mut FlightController, command: MavCmd, params: [f32; 7]) -> MavResult {
        let est = est_at(HOME, 0.0);
        let replies = fc.handle_message(&Message::CommandLong { command, params }, &est);
        match replies.first() {
            Some(Message::CommandAck { result, .. }) => *result,
            other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn boots_disarmed_in_stabilize() {
        let fc = fc();
        assert!(!fc.armed());
        assert_eq!(fc.mode(), FlightMode::Stabilize);
    }

    #[test]
    fn arm_then_takeoff_is_accepted() {
        let mut fc = fc();
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::ComponentArmDisarm,
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            ),
            MavResult::Accepted
        );
        assert!(fc.armed());
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::NavTakeoff,
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0]
            ),
            MavResult::Accepted
        );
        assert!(!matches!(fc.phase, Phase::Grounded));
    }

    #[test]
    fn takeoff_without_arming_is_denied() {
        let mut fc = fc();
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::NavTakeoff,
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0]
            ),
            MavResult::Denied
        );
    }

    #[test]
    fn in_air_disarm_requires_the_force_magic() {
        let mut fc = fc();
        cmd(
            &mut fc,
            MavCmd::ComponentArmDisarm,
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        );
        cmd(
            &mut fc,
            MavCmd::NavTakeoff,
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0],
        );
        // Plain disarm denied while airborne.
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::ComponentArmDisarm,
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            ),
            MavResult::Denied
        );
        assert!(fc.armed());
        // ArduPilot's forced-disarm magic number works.
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::ComponentArmDisarm,
                [0.0, 21196.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            ),
            MavResult::Accepted
        );
        assert!(!fc.armed());
    }

    #[test]
    fn guided_target_is_ignored_outside_guided_mode() {
        let mut fc = fc();
        let est = est_at(HOME, 15.0);
        fc.handle_message(
            &Message::SetPositionTargetGlobalInt {
                lat: deg_to_e7(HOME.latitude),
                lon: deg_to_e7(HOME.longitude),
                alt: 20.0,
                speed: 5.0,
            },
            &est,
        );
        assert!(fc.guided_target().is_none(), "target dropped in Stabilize");
        fc.handle_message(
            &Message::SetMode {
                mode: FlightMode::Guided,
            },
            &est,
        );
        fc.handle_message(
            &Message::SetPositionTargetGlobalInt {
                lat: deg_to_e7(HOME.latitude),
                lon: deg_to_e7(HOME.longitude),
                alt: 20.0,
                speed: 5.0,
            },
            &est,
        );
        assert!(fc.guided_target().is_some());
    }

    #[test]
    fn zero_speed_target_defaults_to_cruise() {
        let mut fc = fc();
        let est = est_at(HOME, 15.0);
        fc.handle_message(
            &Message::SetMode {
                mode: FlightMode::Guided,
            },
            &est,
        );
        fc.handle_message(
            &Message::SetPositionTargetGlobalInt {
                lat: deg_to_e7(HOME.latitude),
                lon: deg_to_e7(HOME.longitude),
                alt: 20.0,
                speed: 0.0,
            },
            &est,
        );
        assert_eq!(fc.guided_target().unwrap().speed, DEFAULT_SPEED);
    }

    #[test]
    fn do_set_mode_parses_custom_mode() {
        let mut fc = fc();
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::DoSetMode,
                [
                    1.0,
                    FlightMode::Loiter.custom_mode() as f32,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    0.0
                ]
            ),
            MavResult::Accepted
        );
        assert_eq!(fc.mode(), FlightMode::Loiter);
        assert_eq!(
            cmd(
                &mut fc,
                MavCmd::DoSetMode,
                [1.0, 42.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            ),
            MavResult::Failed
        );
    }

    #[test]
    fn disarmed_fast_loop_keeps_motors_off() {
        let mut fc = fc();
        let est = est_at(HOME, 0.0);
        assert_eq!(fc.fast_loop(&est, true), [0.0; 4]);
    }

    #[test]
    fn telemetry_rates_match_standards() {
        let mut fc = fc();
        let est = est_at(HOME, 0.0);
        let mut heartbeats = 0;
        let mut attitudes = 0;
        let mut positions = 0;
        for _ in 0..400 {
            fc.fast_loop(&est, true);
            for msg in fc.telemetry(&est, 12.6, 0.0) {
                match msg {
                    Message::Heartbeat { .. } => heartbeats += 1,
                    Message::Attitude { .. } => attitudes += 1,
                    Message::GlobalPositionInt { .. } => positions += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(heartbeats, 1, "1 Hz heartbeat");
        assert_eq!(attitudes, 10, "10 Hz attitude");
        assert_eq!(positions, 4, "4 Hz position");
    }
}
