//! The Dorling et al. multirotor power model.
//!
//! AnDrone's flight planner "is based on the multirotor drone energy
//! consumption model and the drone delivery routing algorithm
//! developed by Dorling, et al." (paper Section 4, citing *Vehicle
//! Routing Problems for Drone Delivery*, IEEE T-SMC 2017). The model
//! derives hover power from helicopter momentum theory:
//!
//! ```text
//! P(m) = (W + m)^(3/2) · sqrt(g³ / (2 ρ ζ n))
//! ```
//!
//! where `W` is frame+battery mass, `m` payload mass, `ρ` air
//! density, `ζ` rotor disk area, and `n` the rotor count. Dorling et
//! al. linearize it as `P ≈ α(W + m) + β` for use inside their VRP;
//! this planner prices legs with the exact form.

use androne_hal::G;

/// Air density at sea level, kg/m³.
pub const RHO: f64 = 1.225;

/// Parameters of the Dorling power model for one drone type.
#[derive(Debug, Clone, Copy)]
pub struct DorlingModel {
    /// Frame + battery mass `W`, kg.
    pub frame_mass: f64,
    /// Rotor disk area `ζ`, m² per rotor.
    pub disk_area: f64,
    /// Number of rotors `n`.
    pub rotors: u32,
    /// Powertrain efficiency divisor applied to the ideal power.
    pub efficiency: f64,
    /// Cruise speed used for leg-energy estimates, m/s.
    pub cruise_speed: f64,
}

impl DorlingModel {
    /// The paper's F450 prototype (matches
    /// `androne_flight::AirframeParams::f450_prototype`).
    pub fn f450_prototype() -> Self {
        DorlingModel {
            frame_mass: 1.5,
            disk_area: std::f64::consts::PI * 0.12 * 0.12,
            rotors: 4,
            efficiency: 0.55,
            cruise_speed: 5.0,
        }
    }

    /// Exact hover power with payload `m`, watts.
    pub fn hover_power_w(&self, payload_kg: f64) -> f64 {
        let total = (self.frame_mass + payload_kg.max(0.0)).max(0.0);
        let ideal = total.powf(1.5)
            * (G.powi(3) / (2.0 * RHO * self.disk_area * self.rotors as f64)).sqrt();
        ideal / self.efficiency
    }

    /// Energy to fly a leg of `distance_m` at cruise speed with
    /// payload `m`, joules. Cruise power is approximated by hover
    /// power (Dorling et al.'s conservative assumption).
    pub fn leg_energy_j(&self, distance_m: f64, payload_kg: f64) -> f64 {
        let t = distance_m.max(0.0) / self.cruise_speed;
        self.hover_power_w(payload_kg) * t
    }

    /// Time to fly a leg at cruise speed, seconds.
    pub fn leg_time_s(&self, distance_m: f64) -> f64 {
        distance_m.max(0.0) / self.cruise_speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f450_hover_power_is_realistic() {
        let m = DorlingModel::f450_prototype();
        let p = m.hover_power_w(0.0);
        // Measured F450 hover power is roughly 150-220 W.
        assert!((120.0..260.0).contains(&p), "hover power {p} W");
    }

    #[test]
    fn power_grows_superlinearly_with_payload() {
        let m = DorlingModel::f450_prototype();
        let p0 = m.hover_power_w(0.0);
        let p1 = m.hover_power_w(0.5);
        let p2 = m.hover_power_w(1.0);
        assert!(p1 > p0 && p2 > p1);
        assert!(p2 - p1 > p1 - p0, "convex in payload");
    }

    #[test]
    fn leg_energy_scales_with_distance() {
        let m = DorlingModel::f450_prototype();
        let e1 = m.leg_energy_j(100.0, 0.0);
        let e2 = m.leg_energy_j(200.0, 0.0);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        assert_eq!(m.leg_energy_j(-5.0, 0.0), 0.0, "negative distance clamps");
    }

    #[test]
    fn endurance_matches_battery_math() {
        let m = DorlingModel::f450_prototype();
        // 3S 5000 mAh ≈ 199.8 kJ; at ~180 W that's ~15-20 min, the
        // typical F450 figure.
        let endurance = 11.1 * 5.0 * 3600.0 / m.hover_power_w(0.0);
        assert!(
            (600.0..1_500.0).contains(&endurance),
            "endurance {endurance} s"
        );
    }
}
