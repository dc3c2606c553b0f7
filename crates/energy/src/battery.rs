//! Battery energy accounting for flight planning.

/// A drone battery pack viewed as an energy budget.
#[derive(Debug, Clone, Copy)]
pub struct BatteryPack {
    /// Usable capacity, joules.
    pub capacity_j: f64,
    /// Fraction held back as a landing reserve (never planned
    /// against).
    pub reserve_fraction: f64,
    consumed_j: f64,
}

impl BatteryPack {
    /// A fresh pack of `capacity_j` with a reserve fraction.
    pub fn new(capacity_j: f64, reserve_fraction: f64) -> Self {
        BatteryPack {
            capacity_j: capacity_j.max(0.0),
            reserve_fraction: reserve_fraction.clamp(0.0, 0.9),
            consumed_j: 0.0,
        }
    }

    /// The prototype's Turnigy 3S 5000 mAh pack with a 20% reserve.
    pub fn turnigy_3s_5000() -> Self {
        BatteryPack::new(11.1 * 5.0 * 3600.0, 0.20)
    }

    /// Joules available for planning (capacity minus reserve minus
    /// consumption).
    pub fn plannable_j(&self) -> f64 {
        (self.capacity_j * (1.0 - self.reserve_fraction) - self.consumed_j).max(0.0)
    }

    /// Joules consumed so far.
    pub fn consumed_j(&self) -> f64 {
        self.consumed_j
    }

    /// Whether `j` more joules fit within the plannable budget.
    pub fn can_afford(&self, j: f64) -> bool {
        j <= self.plannable_j()
    }

    /// Draws `j` joules. Returns `false` (without drawing) if that
    /// would eat into the reserve.
    pub fn draw(&mut self, j: f64) -> bool {
        if !self.can_afford(j) {
            return false;
        }
        self.consumed_j += j.max(0.0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plannable_excludes_reserve() {
        let b = BatteryPack::new(1000.0, 0.2);
        assert_eq!(b.plannable_j(), 800.0);
    }

    #[test]
    fn draw_respects_reserve() {
        let mut b = BatteryPack::new(1000.0, 0.2);
        assert!(b.draw(700.0));
        assert!(!b.draw(200.0), "would eat into the reserve");
        assert_eq!(b.consumed_j(), 700.0, "failed draw takes nothing");
        assert!(b.draw(100.0));
    }

    #[test]
    fn prototype_pack_capacity() {
        let b = BatteryPack::turnigy_3s_5000();
        assert!((b.capacity_j - 199_800.0).abs() < 1.0);
    }
}
