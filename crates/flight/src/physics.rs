//! Six-degree-of-freedom quadcopter dynamics.
//!
//! Models the paper's prototype airframe: a DJI FlameWheel F450 with
//! four T-Motor MN2213 950 Kv motors on 9.5" props, powered by a 3S
//! 5000 mAh pack, carrying the RPi3/Navio2 stack. The model is a
//! rigid body with per-motor thrust/torque, quadratic drag, ground
//! contact, and a momentum-theory electrical power model feeding the
//! battery state. It is the "SITL physics" side of the reproduction's
//! Section 6.6 setup.

use androne_hal::{Attitude, GeoPoint, Vec3, VehicleTruth, G};
use androne_simkern::{StateHash, StateHasher};

/// Air density at sea level, kg/m³.
pub const AIR_DENSITY: f64 = 1.225;

/// Physical parameters of the airframe.
#[derive(Debug, Clone, Copy)]
pub struct AirframeParams {
    /// Total mass, kg (frame + motors + battery + SBC).
    pub mass: f64,
    /// Motor arm length, m.
    pub arm_length: f64,
    /// Maximum thrust per motor, N.
    pub max_thrust_per_motor: f64,
    /// Moment of inertia about roll/pitch axes, kg·m².
    pub inertia_xy: f64,
    /// Moment of inertia about the yaw axis, kg·m².
    pub inertia_z: f64,
    /// Yaw torque per unit differential thrust, N·m/N.
    pub yaw_torque_coeff: f64,
    /// Horizontal drag coefficient (N per (m/s)²).
    pub drag_coeff: f64,
    /// Propeller disk area per motor, m².
    pub prop_disk_area: f64,
    /// Combined motor+ESC+prop efficiency for the power model.
    pub powertrain_efficiency: f64,
    /// Constant avionics power draw (SBC + sensors), W.
    pub avionics_power_w: f64,
    /// Battery capacity, J (3S 5000 mAh ≈ 11.1 V × 5 Ah).
    pub battery_capacity_j: f64,
}

impl AirframeParams {
    /// The paper's F450 prototype.
    pub fn f450_prototype() -> Self {
        AirframeParams {
            mass: 1.5,
            arm_length: 0.225,
            max_thrust_per_motor: 8.0,
            inertia_xy: 0.021,
            inertia_z: 0.036,
            yaw_torque_coeff: 0.016,
            drag_coeff: 0.25,
            // 9.5" prop: r = 0.12 m.
            prop_disk_area: std::f64::consts::PI * 0.12 * 0.12,
            powertrain_efficiency: 0.55,
            avionics_power_w: 3.4,
            battery_capacity_j: 11.1 * 5.0 * 3600.0,
        }
    }

    /// Hover throttle fraction (per motor) for this airframe.
    pub fn hover_throttle(&self) -> f64 {
        (self.mass * G) / (4.0 * self.max_thrust_per_motor)
    }
}

/// The rigid-body simulator. Reads motor commands from and writes
/// state back to a [`VehicleTruth`].
#[derive(Debug, Clone)]
pub struct QuadPhysics {
    /// Airframe parameters.
    pub params: AirframeParams,
    home: GeoPoint,
    /// NED position relative to home, m (z down).
    ned: Vec3,
    /// NED velocity, m/s.
    vel: Vec3,
    att: Attitude,
    rates: Vec3,
    /// Steady horizontal wind in NED, m/s.
    pub wind: Vec3,
}

impl QuadPhysics {
    /// Creates physics at rest at `home`.
    pub fn new(params: AirframeParams, home: GeoPoint) -> Self {
        QuadPhysics {
            params,
            home,
            ned: Vec3::ZERO,
            vel: Vec3::ZERO,
            att: Attitude::LEVEL,
            rates: Vec3::ZERO,
            wind: Vec3::ZERO,
        }
    }

    /// The home (launch) position.
    pub fn home(&self) -> GeoPoint {
        self.home
    }

    /// Advances the simulation by `dt` seconds, consuming motor
    /// commands from `truth` and writing the new state back.
    pub fn step(&mut self, truth: &mut VehicleTruth, dt: f64) {
        let p = self.params;
        let m = truth.motor_outputs;
        // Motor layout (X configuration, NED body frame):
        //   0: front-right (CCW)   1: rear-left (CCW)
        //   2: front-left  (CW)    3: rear-right (CW)
        let thrust: [f64; 4] = [
            m[0] * p.max_thrust_per_motor,
            m[1] * p.max_thrust_per_motor,
            m[2] * p.max_thrust_per_motor,
            m[3] * p.max_thrust_per_motor,
        ];
        let total_thrust: f64 = thrust.iter().sum();

        // Body torques from differential thrust. Roll: left vs right;
        // pitch: front vs rear; yaw: CCW vs CW reaction torque.
        let k = p.arm_length * std::f64::consts::FRAC_1_SQRT_2;
        let roll_torque = k * ((thrust[1] + thrust[2]) - (thrust[0] + thrust[3]));
        let pitch_torque = k * ((thrust[0] + thrust[2]) - (thrust[1] + thrust[3]));
        let yaw_torque = p.yaw_torque_coeff * ((thrust[0] + thrust[1]) - (thrust[2] + thrust[3]));

        // Angular dynamics (Euler angles; adequate at drone lean
        // limits, which the VFC clamps well before singularities).
        let ang_acc = Vec3::new(
            roll_torque / p.inertia_xy,
            pitch_torque / p.inertia_xy,
            yaw_torque / p.inertia_z,
        );
        self.rates += ang_acc * dt;
        // Rotational damping (aero drag on props).
        self.rates = self.rates * (1.0 - 1.2 * dt).max(0.0);
        self.att.roll += self.rates.x * dt;
        self.att.pitch += self.rates.y * dt;
        self.att.yaw = wrap_pi(self.att.yaw + self.rates.z * dt);
        self.att.roll = self.att.roll.clamp(-1.2, 1.2);
        self.att.pitch = self.att.pitch.clamp(-1.2, 1.2);

        // Thrust direction in NED from attitude (small-angle-exact
        // for the Z component; lateral components from lean).
        let (sr, cr) = self.att.roll.sin_cos();
        let (sp, cp) = self.att.pitch.sin_cos();
        let (sy, cy) = self.att.yaw.sin_cos();
        let az_body = -total_thrust / p.mass; // Thrust acts body-up (NED: -z).
                                              // Rotate body z-axis into NED.
        let acc_n = az_body * (cy * sp * cr + sy * sr);
        let acc_e = az_body * (sy * sp * cr - cy * sr);
        let acc_d = az_body * (cp * cr) + G;

        // Aerodynamic drag against air-relative velocity.
        let rel = self.vel - self.wind;
        let drag_mag = p.drag_coeff * rel.norm();
        let drag = -rel * (drag_mag / p.mass.max(1e-9));

        let acc = Vec3::new(acc_n, acc_e, acc_d) + drag;
        self.vel += acc * dt;
        self.ned += self.vel * dt;

        // Ground contact (NED z >= 0 means at/below ground).
        let mut on_ground = false;
        if self.ned.z >= 0.0 {
            self.ned.z = 0.0;
            if self.vel.z > 0.0 {
                self.vel = Vec3::ZERO;
                self.rates = Vec3::ZERO;
                self.att.roll = 0.0;
                self.att.pitch = 0.0;
            }
            on_ground = total_thrust <= p.mass * G;
        }

        // Electrical power: momentum theory per motor plus avionics.
        let mut power = p.avionics_power_w;
        for t in thrust {
            if t > 0.0 {
                power += t.powf(1.5)
                    / ((2.0 * AIR_DENSITY * p.prop_disk_area).sqrt() * p.powertrain_efficiency);
            }
        }
        // Degraded cells deliver the same mechanical power at a
        // higher electrical cost (health 1.0 divides out exactly, so
        // a healthy pack is bit-identical to the pre-fault model).
        let electrical = power / truth.battery_health.clamp(0.05, 1.0);
        truth.energy_consumed_j += electrical * dt;
        truth.battery_current = electrical / truth.battery_voltage.max(1.0);
        // Simple voltage sag with depth of discharge.
        let dod = (truth.energy_consumed_j / p.battery_capacity_j).min(1.0);
        truth.battery_voltage = 12.6 - 2.1 * dod - 0.002 * truth.battery_current;

        // Specific force felt by the IMU (body frame): thrust only
        // (gravity is not felt), expressed in body coordinates.
        truth.specific_force = Vec3::new(0.0, 0.0, az_body);
        truth.body_rates = self.rates;
        truth.attitude = self.att;
        truth.velocity = self.vel;
        truth.on_ground = on_ground;
        truth.position = self.home.offset_m(self.ned.x, self.ned.y, -self.ned.z);
    }

    /// Current NED position relative to home.
    pub fn ned(&self) -> Vec3 {
        self.ned
    }

    /// Displaces the vehicle horizontally by `(north, east)` meters —
    /// a fault-injection hook modeling a position jump (gust slam,
    /// collision shove, or a test teleport). Velocity and attitude
    /// carry over; truth reflects the jump on the next step.
    pub fn displace_m(&mut self, north: f64, east: f64) {
        self.ned.x += north;
        self.ned.y += east;
    }
}

impl StateHash for AirframeParams {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_f64(self.mass);
        h.write_f64(self.arm_length);
        h.write_f64(self.max_thrust_per_motor);
        h.write_f64(self.inertia_xy);
        h.write_f64(self.inertia_z);
        h.write_f64(self.yaw_torque_coeff);
        h.write_f64(self.drag_coeff);
        h.write_f64(self.prop_disk_area);
        h.write_f64(self.powertrain_efficiency);
        h.write_f64(self.avionics_power_w);
        h.write_f64(self.battery_capacity_j);
    }
}

impl StateHash for QuadPhysics {
    fn state_hash(&self, h: &mut StateHasher) {
        self.params.state_hash(h);
        self.home.state_hash(h);
        self.ned.state_hash(h);
        self.vel.state_hash(h);
        self.att.state_hash(h);
        self.rates.state_hash(h);
        self.wind.state_hash(h);
    }
}

/// Wraps an angle to `(-pi, pi]`.
pub fn wrap_pi(a: f64) -> f64 {
    let mut a = a % std::f64::consts::TAU;
    if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    } else if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (QuadPhysics, VehicleTruth) {
        let home = GeoPoint::new(43.6084298, -85.8110359, 0.0);
        (
            QuadPhysics::new(AirframeParams::f450_prototype(), home),
            VehicleTruth::at_rest(home),
        )
    }

    #[test]
    fn stays_grounded_with_motors_off() {
        let (mut phys, mut truth) = setup();
        for _ in 0..400 {
            phys.step(&mut truth, 0.0025);
        }
        assert!(truth.on_ground);
        assert!(truth.position.altitude.abs() < 1e-6);
    }

    #[test]
    fn hover_throttle_balances_gravity() {
        let (mut phys, mut truth) = setup();
        let hover = phys.params.hover_throttle();
        // Slightly above hover to lift off, then exact hover.
        truth.motor_outputs = [hover + 0.05; 4];
        for _ in 0..800 {
            phys.step(&mut truth, 0.0025);
        }
        let climb_alt = truth.position.altitude;
        assert!(climb_alt > 0.5, "should have lifted off: {climb_alt}");
        truth.motor_outputs = [hover; 4];
        let v_before = truth.velocity.z.abs();
        for _ in 0..400 {
            phys.step(&mut truth, 0.0025);
        }
        // At exact hover thrust, vertical acceleration ~0 (minus
        // drag): vertical speed must not be growing.
        assert!(truth.velocity.z.abs() <= v_before + 0.3);
    }

    #[test]
    fn differential_thrust_rolls_the_airframe() {
        let (mut phys, mut truth) = setup();
        let hover = phys.params.hover_throttle();
        truth.motor_outputs = [hover + 0.1; 4];
        for _ in 0..400 {
            phys.step(&mut truth, 0.0025);
        }
        // More thrust on the left motors -> positive roll torque.
        truth.motor_outputs = [hover - 0.05, hover + 0.05, hover + 0.05, hover - 0.05];
        for _ in 0..40 {
            phys.step(&mut truth, 0.0025);
        }
        assert!(truth.attitude.roll > 0.01, "roll {}", truth.attitude.roll);
    }

    #[test]
    fn energy_accrues_while_flying() {
        let (mut phys, mut truth) = setup();
        truth.motor_outputs = [phys.params.hover_throttle(); 4];
        for _ in 0..4000 {
            phys.step(&mut truth, 0.0025);
        }
        // 10 s near hover should consume roughly 150 W * 10 s.
        let j = truth.energy_consumed_j;
        assert!((1_000.0..2_500.0).contains(&j), "energy {j} J");
        assert!(truth.battery_voltage < 12.6);
        assert!(truth.battery_current > 5.0);
    }

    #[test]
    fn lean_produces_horizontal_motion() {
        let (mut phys, mut truth) = setup();
        let hover = phys.params.hover_throttle();
        truth.motor_outputs = [hover + 0.1; 4];
        for _ in 0..400 {
            phys.step(&mut truth, 0.0025);
        }
        // Pitch the nose down briefly (more rear thrust).
        truth.motor_outputs = [hover + 0.04, hover - 0.04, hover + 0.04, hover - 0.04];
        for _ in 0..60 {
            phys.step(&mut truth, 0.0025);
        }
        truth.motor_outputs = [hover; 4];
        for _ in 0..400 {
            phys.step(&mut truth, 0.0025);
        }
        assert!(
            truth.velocity.norm_xy() > 0.5,
            "speed {}",
            truth.velocity.norm_xy()
        );
    }

    #[test]
    fn wrap_pi_bounds() {
        assert!((wrap_pi(3.0 * std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-9);
        assert!((wrap_pi(-3.0 * std::f64::consts::PI) - std::f64::consts::PI).abs() < 1e-9);
        assert_eq!(wrap_pi(0.5), 0.5);
    }
}
