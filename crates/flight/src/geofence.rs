//! Geofencing.
//!
//! Each waypoint in a virtual drone definition carries a `max-radius`
//! defining a spherical volume around the waypoint coordinates (paper
//! Section 3); flight control handed to that virtual drone is
//! confined to the volume. Stock flight controllers respond to a
//! breach with a failsafe landing; AnDrone instead recovers and
//! continues the flight (Section 4.3) — that recovery sequence lives
//! in the MAVProxy layer, driven by this module's containment tests.

use androne_hal::GeoPoint;

/// A spherical geofence around a waypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geofence {
    /// Center of the sphere.
    pub center: GeoPoint,
    /// Radius in meters.
    pub radius_m: f64,
}

impl Geofence {
    /// Creates a fence of `radius_m` around `center`.
    pub fn new(center: GeoPoint, radius_m: f64) -> Self {
        Geofence { center, radius_m }
    }

    /// Whether `pos` is inside the fence.
    pub fn contains(&self, pos: &GeoPoint) -> bool {
        self.center.distance_m(pos) <= self.radius_m
    }

    /// A recovery point safely inside the fence for a vehicle at
    /// `pos`: the projection of `pos` toward the center, at 80% of
    /// the radius, clamped to a sane altitude band.
    pub fn recovery_point(&self, pos: &GeoPoint) -> GeoPoint {
        let d = self.center.distance_m(pos);
        if d < 1e-6 {
            return self.center;
        }
        let frac = (0.8 * self.radius_m) / d;
        // Interpolate linearly in the local tangent plane.
        let ned = pos.ned_from(&self.center);
        let mut p = self.center.offset_m(ned.x * frac, ned.y * frac, 0.0);
        p.altitude = (pos.altitude * frac + self.center.altitude * (1.0 - frac)).max(2.0);
        p
    }
}

impl androne_simkern::StateHash for Geofence {
    fn state_hash(&self, h: &mut androne_simkern::StateHasher) {
        androne_simkern::StateHash::state_hash(&self.center, h);
        h.write_f64(self.radius_m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fence() -> Geofence {
        Geofence::new(GeoPoint::new(43.6084298, -85.8110359, 15.0), 30.0)
    }

    #[test]
    fn center_is_inside() {
        let f = fence();
        assert!(f.contains(&f.center));
    }

    #[test]
    fn containment_is_three_dimensional() {
        let f = fence();
        let horizontally_in = f.center.offset_m(10.0, 0.0, 0.0);
        assert!(f.contains(&horizontally_in));
        // 10 m north but 40 m above: outside the sphere.
        let above = f.center.offset_m(10.0, 0.0, 40.0);
        assert!(!f.contains(&above));
    }

    #[test]
    fn boundary_distance_sign_flips_at_radius() {
        let f = fence();
        for (north_m, inside) in [(20.0, true), (29.9, true), (30.1, false), (45.0, false)] {
            let p = f.center.offset_m(north_m, 0.0, 0.0);
            assert_eq!(f.center.distance_m(&p) - f.radius_m < 0.0, inside);
            assert_eq!(f.contains(&p), inside);
        }
    }

    #[test]
    fn recovery_point_is_well_inside() {
        let f = fence();
        let breach = f.center.offset_m(50.0, 20.0, 10.0);
        let rp = f.recovery_point(&breach);
        assert!(f.contains(&rp), "recovery point inside the fence");
        assert!(f.center.distance_m(&rp) <= 0.85 * f.radius_m, "with margin");
        assert!(rp.altitude >= 2.0, "never commands into the ground");
    }

    #[test]
    fn recovery_from_center_is_center() {
        let f = fence();
        assert_eq!(f.recovery_point(&f.center), f.center);
    }
}
