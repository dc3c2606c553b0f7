//! SBC power model (the Monsoon Power Monitor stand-in).
//!
//! Figure 13 measures the Raspberry Pi's power at rest in every
//! AnDrone configuration, normalized to stock Android Things: all
//! configurations land within 3% of stock, ~1.7 W idle with three
//! virtual drones, and 3.4 W when fully stressed regardless of
//! configuration (the CPU saturates either way).
//!
//! The model: power interpolates between the board's idle and
//! saturated draw with CPU utilization, plus a small per-running-
//! container housekeeping term (idle Android instances still wake
//! for timers and heartbeats).

/// Power model for the RPi3-class board.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Idle draw with a single stock Android Things instance, W.
    pub idle_w: f64,
    /// Fully stressed draw, W.
    pub max_w: f64,
    /// Additional idle draw per extra running container, W.
    pub per_container_w: f64,
}

impl PowerModel {
    /// The prototype board, calibrated to Figure 13 (idle ~1.65 W
    /// stock, 1.7 W with 3 virtual drones, 3.4 W stressed).
    pub fn rpi3() -> Self {
        PowerModel {
            idle_w: 1.655,
            max_w: 3.4,
            per_container_w: 0.009,
        }
    }

    /// Instantaneous board power, watts.
    ///
    /// `cpu_utilization` in `0.0..=1.0`; `extra_containers` counts
    /// running containers beyond the single stock instance.
    pub fn power_w(&self, cpu_utilization: f64, extra_containers: usize) -> f64 {
        let u = cpu_utilization.clamp(0.0, 1.0);
        let idle = self.idle_w + self.per_container_w * extra_containers as f64;
        // Saturated power is the same regardless of container count:
        // the CPU can only burn so much.
        (idle + (self.max_w - idle) * u).min(self.max_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_with_three_vdrones_matches_figure_13() {
        let m = PowerModel::rpi3();
        // Three virtual drones + device + flight container = 5 extra.
        let p = m.power_w(0.0, 5);
        assert!((1.68..1.72).contains(&p), "power {p} W");
        // Within 3% of stock idle.
        assert!(p / m.power_w(0.0, 0) < 1.03);
    }

    #[test]
    fn stressed_power_is_config_independent() {
        let m = PowerModel::rpi3();
        assert_eq!(m.power_w(1.0, 0), 3.4);
        assert_eq!(m.power_w(1.0, 5), 3.4);
    }

    #[test]
    fn board_power_is_negligible_next_to_flight_power() {
        // Section 6.4: "even consumer-level drone batteries are rated
        // to allow a power draw of well over 100 W".
        let m = PowerModel::rpi3();
        assert!(m.power_w(1.0, 5) / 150.0 < 0.03);
    }
}
