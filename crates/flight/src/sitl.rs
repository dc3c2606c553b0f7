//! Software-in-the-loop harness.
//!
//! Ties the physics, the HAL sensor devices, the estimator, and the
//! flight controller into one steppable vehicle — the equivalent of
//! the paper's ArduPilot SITL setup (Section 6.6). Stepping is
//! deterministic: the physics and the controller fast loop both run
//! at 400 Hz, GPS at 5 Hz, barometer at 10 Hz.

use androne_hal::{
    share, Barometer, GeoPoint, GpsFix, HardwareBoard, ImuSample, SensorFaultMode, SharedBoard,
    Vec3,
};
use androne_mavlink::{FlightMode, Message};
use androne_simkern::{SimDuration, StateHash, StateHasher};

use crate::controller::{FlightController, FAST_LOOP_HZ};
use crate::estimator::Estimator;
use crate::log_analyzer::FlightRecorder;
use crate::physics::{AirframeParams, QuadPhysics};

/// One simulated vehicle: hardware, physics, estimation, control.
pub struct Sitl {
    /// The hardware board (shared with the device container's
    /// services, which sample the same sensors the controller flies
    /// on).
    pub board: SharedBoard,
    /// Rigid-body physics.
    pub physics: QuadPhysics,
    /// State estimator.
    pub estimator: Estimator,
    /// The flight controller.
    pub fc: FlightController,
    step_count: u64,
    /// Last good IMU sample, replayed under a stuck-sensor fault.
    last_imu: Option<ImuSample>,
    /// Last good GPS fix, replayed under a stuck-sensor fault.
    last_gps: Option<GpsFix>,
    /// Last good barometer reading, replayed under a stuck-sensor
    /// fault.
    last_baro: Option<f64>,
    /// Peak attitude estimate divergence seen, radians (the paper's
    /// AED check).
    pub max_attitude_divergence: f64,
    /// The DataFlash-style flight log (estimated vs canonical
    /// attitude at 10 Hz) for post-flight AED analysis.
    pub recorder: FlightRecorder,
}

impl Sitl {
    /// Creates a vehicle at rest at `home` with a private board.
    pub fn new(home: GeoPoint, seed: u64) -> Self {
        Self::with_board(share(HardwareBoard::new(home, seed)), home)
    }

    /// Creates a vehicle flying on an existing (shared) board — how
    /// the full drone stack wires the SITL vehicle and the device
    /// container to the same physical sensors.
    pub fn with_board(board: SharedBoard, home: GeoPoint) -> Self {
        let params = AirframeParams::f450_prototype();
        Sitl {
            board,
            physics: QuadPhysics::new(params, home),
            estimator: Estimator::new(home),
            fc: FlightController::new(params, home),
            step_count: 0,
            last_imu: None,
            last_gps: None,
            last_baro: None,
            max_attitude_divergence: 0.0,
            recorder: FlightRecorder::new(),
        }
    }

    /// Feeds one MAVLink message to the controller, returning replies.
    pub fn handle_message(&mut self, msg: &Message) -> Vec<Message> {
        let est = self.estimator.state();
        self.fc.handle_message(msg, &est)
    }

    /// Runs one 2.5 ms step (sensor sampling, estimation, fast loop,
    /// physics), returning any telemetry due this step.
    pub fn step(&mut self) -> Vec<Message> {
        self.step_count += 1;
        let dt = 1.0 / FAST_LOOP_HZ;

        let truth = *self.board.borrow().truth.borrow();

        // Sensors and estimation, gated by the injected fault modes.
        // A dropped-out sensor skips its update AND its noise draws;
        // a stuck sensor replays the last good sample without
        // drawing; a biased sensor samples normally and offsets. GPS
        // dropout therefore leaves the estimator dead-reckoning on
        // the IMU until the fix returns.
        {
            let mut board = self.board.borrow_mut();
            let faults = board.faults;
            match faults.imu {
                SensorFaultMode::Dropout => {}
                SensorFaultMode::Stuck => {
                    if let Some(imu) = self.last_imu {
                        self.estimator.imu_update(&imu, &truth.attitude, dt);
                    }
                }
                mode => {
                    let mut imu = {
                        let imu = board.imu.clone();
                        imu.sample(&truth, &mut board.rng)
                    };
                    self.last_imu = Some(imu);
                    if let SensorFaultMode::Bias(b) = mode {
                        imu.accel += Vec3::new(b, b, b);
                    }
                    self.estimator.imu_update(&imu, &truth.attitude, dt);
                }
            }
            if self.step_count.is_multiple_of(80) {
                // 5 Hz GPS.
                match faults.gps {
                    SensorFaultMode::Dropout => {}
                    SensorFaultMode::Stuck => {
                        if let Some(fix) = self.last_gps {
                            self.estimator.gps_update(&fix, truth.velocity);
                        }
                    }
                    mode => {
                        let mut fix = {
                            let gps = board.gps.clone();
                            gps.fix(&truth, &mut board.rng)
                        };
                        self.last_gps = Some(fix);
                        if let SensorFaultMode::Bias(b) = mode {
                            fix.position = fix.position.offset_m(b, 0.0, 0.0);
                        }
                        self.estimator.gps_update(&fix, truth.velocity);
                    }
                }
            }
            if self.step_count.is_multiple_of(40) {
                // 10 Hz barometer.
                match faults.baro {
                    SensorFaultMode::Dropout => {}
                    SensorFaultMode::Stuck => {
                        if let Some(p) = self.last_baro {
                            self.estimator.baro_update(p);
                        }
                    }
                    mode => {
                        let p = {
                            let baro = board.barometer.clone();
                            baro.pressure_pa(&truth, &mut board.rng)
                        };
                        self.last_baro = Some(p);
                        let p = if let SensorFaultMode::Bias(b) = mode {
                            let alt = Barometer::altitude_from_pressure(p) + b;
                            101_325.0 * (1.0 - 2.25577e-5 * alt).powf(5.25588)
                        } else {
                            p
                        };
                        self.estimator.baro_update(p);
                    }
                }
            }
        }
        let div = self.estimator.attitude_divergence(&truth.attitude);
        self.max_attitude_divergence = self.max_attitude_divergence.max(div);
        if self.step_count.is_multiple_of(40) {
            // 10 Hz ATT log records, as a DataFlash log would carry.
            self.recorder.record(
                self.step_count as f64 / FAST_LOOP_HZ,
                self.estimator.state().attitude,
                truth.attitude,
            );
        }

        // Control and actuation.
        let est = self.estimator.state();
        let motors = self.fc.fast_loop(&est, truth.on_ground);
        if let Some((pitch, yaw)) = self.fc.mount_target.take() {
            self.board.borrow_mut().gimbal.point(pitch, yaw);
        }
        {
            let board = self.board.borrow();
            let mut t = board.truth.borrow_mut();
            board.motors.set_outputs(&mut t, motors);
            // Physics.
            self.physics.step(&mut t, dt);
        }

        let truth = *self.board.borrow().truth.borrow();
        self.fc
            .telemetry(&est, truth.battery_voltage, truth.battery_current)
    }

    /// Runs for a span of simulated time, discarding telemetry.
    pub fn run_for(&mut self, span: SimDuration) {
        let steps = (span.as_secs_f64() * FAST_LOOP_HZ) as u64;
        for _ in 0..steps {
            self.step();
        }
    }

    /// True position (for assertions).
    pub fn position(&self) -> GeoPoint {
        self.board.borrow().truth.borrow().position
    }

    /// True NED velocity.
    pub fn velocity(&self) -> Vec3 {
        self.board.borrow().truth.borrow().velocity
    }

    /// Whether the vehicle is on the ground.
    pub fn on_ground(&self) -> bool {
        self.board.borrow().truth.borrow().on_ground
    }

    /// Cumulative energy drawn from the battery, joules.
    pub fn energy_consumed_j(&self) -> f64 {
        self.board.borrow().truth.borrow().energy_consumed_j
    }

    /// Convenience: arm, take off to `alt` meters, and wait until the
    /// altitude is reached (or `timeout` elapses). Returns success.
    pub fn arm_and_takeoff(&mut self, alt: f64, timeout: SimDuration) -> bool {
        use androne_mavlink::MavCmd;
        self.handle_message(&Message::SetMode {
            mode: FlightMode::Guided,
        });
        self.handle_message(&Message::CommandLong {
            command: MavCmd::ComponentArmDisarm,
            params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        });
        self.handle_message(&Message::CommandLong {
            command: MavCmd::NavTakeoff,
            params: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, alt as f32],
        });
        let steps = (timeout.as_secs_f64() * FAST_LOOP_HZ) as u64;
        for _ in 0..steps {
            self.step();
            if self.position().altitude >= alt - 0.5 {
                return true;
            }
        }
        false
    }

    /// Convenience: fly to a guided target and wait until within
    /// `tolerance` meters (or `timeout`). Returns success.
    pub fn goto(
        &mut self,
        target: GeoPoint,
        speed: f64,
        tolerance: f64,
        timeout: SimDuration,
    ) -> bool {
        use androne_mavlink::deg_to_e7;
        self.handle_message(&Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(target.latitude),
            lon: deg_to_e7(target.longitude),
            alt: target.altitude as f32,
            speed: speed as f32,
        });
        let steps = (timeout.as_secs_f64() * FAST_LOOP_HZ) as u64;
        for _ in 0..steps {
            self.step();
            if self.position().distance_m(&target) <= tolerance {
                return true;
            }
        }
        false
    }
}

impl StateHash for Sitl {
    fn state_hash(&self, h: &mut StateHasher) {
        // The board's sensor-noise RNG state is not hashed directly,
        // but every draw lands in the estimator (via noisy samples)
        // and the physics (via motor commands computed from the
        // estimate), so a diverging RNG stream shows up here within
        // one fast-loop step.
        self.board.borrow().truth.borrow().state_hash(h);
        self.physics.state_hash(h);
        self.estimator.state_hash(h);
        self.fc.state_hash(h);
        h.write_u64(self.step_count);
        h.write_f64(self.max_attitude_divergence);
        self.recorder.state_hash(h);
        self.board.borrow().faults.state_hash(h);
        match self.last_imu {
            Some(s) => {
                h.write_bool(true);
                s.state_hash(h);
            }
            None => h.write_bool(false),
        }
        match self.last_gps {
            Some(f) => {
                h.write_bool(true);
                f.state_hash(h);
            }
            None => h.write_bool(false),
        }
        match self.last_baro {
            Some(p) => {
                h.write_bool(true);
                h.write_f64(p);
            }
            None => h.write_bool(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_mavlink::MavCmd;

    const HOME: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    #[test]
    fn takeoff_reaches_altitude() {
        let mut sitl = Sitl::new(HOME, 42);
        assert!(sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
        assert!(!sitl.on_ground());
        // Hold for a while: altitude stays near target.
        sitl.run_for(SimDuration::from_secs(10));
        let alt = sitl.position().altitude;
        assert!((13.0..18.0).contains(&alt), "altitude {alt}");
    }

    #[test]
    fn guided_flight_to_waypoint() {
        let mut sitl = Sitl::new(HOME, 43);
        assert!(sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
        let target = HOME.offset_m(80.0, 40.0, 15.0);
        assert!(sitl.goto(target, 5.0, 2.5, SimDuration::from_secs(60)));
    }

    #[test]
    fn rtl_returns_home_and_lands() {
        let mut sitl = Sitl::new(HOME, 44);
        assert!(sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
        let away = HOME.offset_m(50.0, 0.0, 15.0);
        assert!(sitl.goto(away, 5.0, 2.5, SimDuration::from_secs(60)));
        sitl.handle_message(&Message::CommandLong {
            command: MavCmd::NavReturnToLaunch,
            params: [0.0; 7],
        });
        sitl.run_for(SimDuration::from_secs(90));
        assert!(sitl.on_ground(), "landed after RTL");
        let home_dist = sitl.position().ground_distance_m(&HOME);
        assert!(home_dist < 5.0, "near home: {home_dist} m");
        assert!(!sitl.fc.armed(), "disarmed after landing");
    }

    #[test]
    fn hover_attitude_estimate_stays_within_aed_bounds() {
        // Paper Section 6.2: hover flights show attitude estimate
        // divergence within the 5-degree normal band.
        let mut sitl = Sitl::new(HOME, 45);
        assert!(sitl.arm_and_takeoff(10.0, SimDuration::from_secs(30)));
        sitl.run_for(SimDuration::from_secs(20));
        assert!(
            sitl.max_attitude_divergence < 5f64.to_radians(),
            "AED {} deg",
            sitl.max_attitude_divergence.to_degrees()
        );
    }

    #[test]
    fn unarmed_takeoff_is_denied() {
        let mut sitl = Sitl::new(HOME, 46);
        let replies = sitl.handle_message(&Message::CommandLong {
            command: MavCmd::NavTakeoff,
            params: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0],
        });
        assert!(matches!(
            replies[0],
            Message::CommandAck {
                result: androne_mavlink::MavResult::Denied,
                ..
            }
        ));
        sitl.run_for(SimDuration::from_secs(2));
        assert!(sitl.on_ground());
    }

    #[test]
    fn energy_is_consumed_in_flight() {
        let mut sitl = Sitl::new(HOME, 47);
        assert!(sitl.arm_and_takeoff(10.0, SimDuration::from_secs(30)));
        let e0 = sitl.energy_consumed_j();
        sitl.run_for(SimDuration::from_secs(10));
        let de = sitl.energy_consumed_j() - e0;
        // Hover power ~130-220 W.
        assert!((1_000.0..3_000.0).contains(&de), "10s hover used {de} J");
    }

    #[test]
    fn land_command_descends_and_disarms() {
        let mut sitl = Sitl::new(HOME, 48);
        assert!(sitl.arm_and_takeoff(8.0, SimDuration::from_secs(30)));
        sitl.handle_message(&Message::CommandLong {
            command: MavCmd::NavLand,
            params: [0.0; 7],
        });
        sitl.run_for(SimDuration::from_secs(30));
        assert!(sitl.on_ground());
        assert!(!sitl.fc.armed());
    }
}

#[cfg(test)]
mod auto_mode_tests {
    use super::*;

    const HOME: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    #[test]
    fn auto_mode_flies_a_loaded_mission_in_order() {
        let mut sitl = Sitl::new(HOME, 71);
        let wp1 = HOME.offset_m(50.0, 0.0, 15.0);
        let wp2 = HOME.offset_m(50.0, 50.0, 15.0);
        sitl.fc.set_mission(vec![wp1, wp2]);
        assert!(sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
        sitl.handle_message(&Message::SetMode {
            mode: FlightMode::Auto,
        });
        // The mission visits wp1 first, then wp2, holding at the end.
        let mut hit_wp1_before_wp2 = false;
        for _ in 0..(90.0 * 400.0) as u64 {
            sitl.step();
            if !hit_wp1_before_wp2 && sitl.position().distance_m(&wp1) < 3.0 {
                hit_wp1_before_wp2 = true;
            }
            if sitl.position().distance_m(&wp2) < 3.0 {
                break;
            }
        }
        assert!(hit_wp1_before_wp2, "visited wp1 on the way");
        assert!(sitl.position().distance_m(&wp2) < 3.0, "reached wp2");
        // Holds at the final waypoint.
        sitl.run_for(SimDuration::from_secs(8));
        assert!(
            sitl.position().distance_m(&wp2) < 4.0,
            "holds at mission end"
        );
    }

    #[test]
    fn empty_mission_in_auto_holds_position() {
        let mut sitl = Sitl::new(HOME, 72);
        assert!(sitl.arm_and_takeoff(12.0, SimDuration::from_secs(30)));
        let before = sitl.position();
        sitl.handle_message(&Message::SetMode {
            mode: FlightMode::Auto,
        });
        sitl.run_for(SimDuration::from_secs(10));
        assert!(
            sitl.position().distance_m(&before) < 5.0,
            "no mission -> hold"
        );
    }
}

#[cfg(test)]
mod mission_upload_tests {
    use super::*;
    use androne_mavlink::{deg_to_e7, MavCmd};

    const HOME: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    /// Drives the full MISSION_COUNT/REQUEST/ITEM/ACK handshake.
    fn upload_mission(sitl: &mut Sitl, waypoints: &[GeoPoint]) -> Vec<Message> {
        let mut replies = sitl.handle_message(&Message::MissionCount {
            count: waypoints.len() as u16,
        });
        let mut log = replies.clone();
        while let Some(Message::MissionRequestInt { seq }) = replies.first() {
            let wp = waypoints[*seq as usize];
            replies = sitl.handle_message(&Message::MissionItemInt {
                seq: *seq,
                lat: deg_to_e7(wp.latitude),
                lon: deg_to_e7(wp.longitude),
                alt: wp.altitude as f32,
            });
            log.extend(replies.clone());
        }
        log
    }

    #[test]
    fn mission_upload_handshake_accepts_and_flies() {
        let mut sitl = Sitl::new(HOME, 73);
        let wps = vec![
            HOME.offset_m(40.0, 0.0, 15.0),
            HOME.offset_m(40.0, 40.0, 15.0),
        ];
        let log = upload_mission(&mut sitl, &wps);
        assert!(
            log.iter()
                .any(|m| matches!(m, Message::MissionAck { result: 0 })),
            "{log:?}"
        );
        assert_eq!(sitl.fc.mission().len(), 2);

        // Fly the uploaded mission in Auto.
        assert!(sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
        sitl.handle_message(&Message::SetMode {
            mode: FlightMode::Auto,
        });
        for _ in 0..(120.0 * 400.0) as u64 {
            sitl.step();
            if sitl.position().distance_m(&wps[1]) < 3.0 {
                break;
            }
        }
        assert!(sitl.position().distance_m(&wps[1]) < 3.0, "mission flown");
    }

    #[test]
    fn out_of_order_item_aborts_the_upload() {
        let mut sitl = Sitl::new(HOME, 74);
        sitl.handle_message(&Message::MissionCount { count: 2 });
        let replies = sitl.handle_message(&Message::MissionItemInt {
            seq: 1, // Expected 0.
            lat: deg_to_e7(HOME.latitude),
            lon: deg_to_e7(HOME.longitude),
            alt: 15.0,
        });
        assert!(matches!(replies[0], Message::MissionAck { result: 13 }));
        assert!(sitl.fc.mission().is_empty());
    }

    #[test]
    fn zero_count_clears_the_mission() {
        let mut sitl = Sitl::new(HOME, 75);
        upload_mission(&mut sitl, &[HOME.offset_m(30.0, 0.0, 15.0)]);
        assert_eq!(sitl.fc.mission().len(), 1);
        let replies = sitl.handle_message(&Message::MissionCount { count: 0 });
        assert!(matches!(replies[0], Message::MissionAck { result: 0 }));
        assert!(sitl.fc.mission().is_empty());
    }

    #[test]
    fn mount_control_points_the_gimbal() {
        let mut sitl = Sitl::new(HOME, 76);
        sitl.handle_message(&Message::CommandLong {
            command: MavCmd::DoMountControl,
            // Pitch -45 deg (look down), yaw 90 deg.
            params: [-45.0, 0.0, 90.0, 0.0, 0.0, 0.0, 0.0],
        });
        sitl.step();
        let board = sitl.board.borrow();
        assert!((board.gimbal.pitch + 45f64.to_radians()).abs() < 1e-9);
        assert!((board.gimbal.yaw - 90f64.to_radians()).abs() < 1e-9);
    }
}
