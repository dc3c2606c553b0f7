//! Geodetic and vector math shared across the stack.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Mean Earth radius in meters (spherical model).
pub const EARTH_RADIUS_M: f64 = 6_371_000.0;

/// A 3-vector (used for NED velocities, body rates, accelerations).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (north / roll axis, context dependent).
    pub x: f64,
    /// Y component (east / pitch axis).
    pub y: f64,
    /// Z component (down / yaw axis).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Horizontal (x, y) norm.
    pub fn norm_xy(self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Clamps each component to `[-limit, limit]`.
    pub fn clamp_abs(self, limit: f64) -> Vec3 {
        Vec3 {
            x: self.x.clamp(-limit, limit),
            y: self.y.clamp(-limit, limit),
            z: self.z.clamp(-limit, limit),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A geodetic position: latitude/longitude in degrees, altitude in
/// meters above ground level (the paper's virtual drone definitions
/// use exactly these fields).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub latitude: f64,
    /// Longitude in degrees.
    pub longitude: f64,
    /// Altitude in meters (AGL).
    pub altitude: f64,
}

impl GeoPoint {
    /// Creates a point.
    pub const fn new(latitude: f64, longitude: f64, altitude: f64) -> Self {
        GeoPoint {
            latitude,
            longitude,
            altitude,
        }
    }

    /// Great-circle ground distance to `other` in meters (haversine).
    pub fn ground_distance_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.latitude.to_radians(), self.longitude.to_radians());
        let (lat2, lon2) = (other.latitude.to_radians(), other.longitude.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// 3-D distance to `other` in meters (ground distance plus
    /// altitude difference, Pythagorean).
    pub fn distance_m(&self, other: &GeoPoint) -> f64 {
        let g = self.ground_distance_m(other);
        let dz = self.altitude - other.altitude;
        (g * g + dz * dz).sqrt()
    }

    /// Offsets this point by north/east/up meters (local tangent
    /// plane approximation — accurate at drone scales).
    pub fn offset_m(&self, north: f64, east: f64, up: f64) -> GeoPoint {
        let dlat = north / EARTH_RADIUS_M;
        let dlon = east / (EARTH_RADIUS_M * self.latitude.to_radians().cos());
        GeoPoint {
            latitude: self.latitude + dlat.to_degrees(),
            longitude: self.longitude + dlon.to_degrees(),
            altitude: self.altitude + up,
        }
    }

    /// North/east/up offset in meters from `origin` to this point.
    pub fn ned_from(&self, origin: &GeoPoint) -> Vec3 {
        let north = (self.latitude - origin.latitude).to_radians() * EARTH_RADIUS_M;
        let east = (self.longitude - origin.longitude).to_radians()
            * EARTH_RADIUS_M
            * origin.latitude.to_radians().cos();
        // NED: z is *down*.
        Vec3::new(north, east, origin.altitude - self.altitude)
    }
}

/// Attitude as Euler angles in radians.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Attitude {
    /// Roll about the forward axis.
    pub roll: f64,
    /// Pitch about the right axis.
    pub pitch: f64,
    /// Yaw/heading from north.
    pub yaw: f64,
}

impl Attitude {
    /// Level attitude pointing north.
    pub const LEVEL: Attitude = Attitude {
        roll: 0.0,
        pitch: 0.0,
        yaw: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    #[test]
    fn distance_to_self_is_zero() {
        assert!(HOME.ground_distance_m(&HOME) < 1e-9);
    }

    #[test]
    fn offset_round_trips_through_ned() {
        let p = HOME.offset_m(120.0, -45.0, 15.0);
        let ned = p.ned_from(&HOME);
        assert!((ned.x - 120.0).abs() < 0.01, "north {}", ned.x);
        assert!((ned.y + 45.0).abs() < 0.01, "east {}", ned.y);
        assert!((ned.z + 15.0).abs() < 0.01, "down {}", ned.z);
    }

    #[test]
    fn distance_matches_offset_magnitude() {
        let p = HOME.offset_m(300.0, 400.0, 0.0);
        let d = HOME.ground_distance_m(&p);
        assert!((d - 500.0).abs() < 0.5, "distance {d}");
    }

    #[test]
    fn three_d_distance_includes_altitude() {
        let p = HOME.offset_m(0.0, 0.0, 30.0);
        assert!((HOME.distance_m(&p) - 30.0).abs() < 1e-6);
    }

    #[test]
    fn vec3_algebra() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_xy(), 5.0);
        assert_eq!((v * 2.0).x, 6.0);
        assert_eq!((v - v).norm(), 0.0);
        assert_eq!((-v).x, -3.0);
        assert_eq!(v.clamp_abs(2.0), Vec3::new(2.0, 2.0, 0.0));
    }
}
