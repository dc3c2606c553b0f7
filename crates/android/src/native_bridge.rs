//! Native HAL bridge for the flight container.
//!
//! The flight controller runs on real-time Linux, not Android, yet
//! its sensors (GPS, barometer, IMU) are owned by the device
//! container. The paper adds "hardware abstraction layer (HAL)
//! support to the flight container to provide a Binder based bridge
//! between the controller and the device container's device
//! services" (Section 4.3): sensor access rides the NDK path, and a
//! native interface to `LocationManagerService` had to be created
//! because the NDK exposes no GPS API.
//!
//! [`NativeHalBridge`] is that bridge: a native (no ActivityManager)
//! Binder client that resolves the Table 1 services and exposes
//! plain-Rust sensor calls to the flight stack. The device-service
//! permission path treats containers without an ActivityManager as
//! native and gates them on the VDC policy alone — which allows the
//! flight container exactly GPS and sensors.

use androne_simkern::Pid;

use androne_binder::{get_service, BinderDriver, BinderError, Parcel};

use crate::services::{codes, names, sensor_types};

/// A GPS fix as the native bridge returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgeGpsFix {
    /// Latitude, degrees.
    pub latitude: f64,
    /// Longitude, degrees.
    pub longitude: f64,
    /// Altitude, meters.
    pub altitude: f64,
    /// Ground speed, m/s.
    pub ground_speed: f64,
}

/// An IMU sample as the native bridge returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BridgeImuSample {
    /// Specific force, body frame, m/s².
    pub accel: [f64; 3],
    /// Body rates, rad/s.
    pub gyro: [f64; 3],
}

/// The flight container's native Binder bridge.
pub struct NativeHalBridge {
    /// The bridging process (runs inside the flight container).
    pid: Pid,
    location_handle: Option<u32>,
    sensor_handle: Option<u32>,
}

impl NativeHalBridge {
    /// Creates a bridge for a process already opened on the Binder
    /// driver inside the flight container.
    pub fn new(pid: Pid) -> Self {
        NativeHalBridge {
            pid,
            location_handle: None,
            sensor_handle: None,
        }
    }

    fn location(&mut self, driver: &mut BinderDriver) -> Result<u32, BinderError> {
        if let Some(h) = self.location_handle {
            return Ok(h);
        }
        let h = get_service(driver, self.pid, names::LOCATION)?;
        self.location_handle = Some(h);
        Ok(h)
    }

    fn sensors(&mut self, driver: &mut BinderDriver) -> Result<u32, BinderError> {
        if let Some(h) = self.sensor_handle {
            return Ok(h);
        }
        let h = get_service(driver, self.pid, names::SENSORS)?;
        self.sensor_handle = Some(h);
        Ok(h)
    }

    /// Fetches a GPS fix through the device container (the paper's
    /// new native `LocationManagerService` interface).
    pub fn gps_fix(&mut self, driver: &mut BinderDriver) -> Result<BridgeGpsFix, BinderError> {
        let h = self.location(driver)?;
        let reply = driver.transact(self.pid, h, codes::OP, Parcel::new())?;
        Ok(BridgeGpsFix {
            latitude: reply.f64_at(0)?,
            longitude: reply.f64_at(1)?,
            altitude: reply.f64_at(2)?,
            ground_speed: reply.f64_at(3)?,
        })
    }

    /// Fetches barometric pressure (NDK sensor path), pascals.
    pub fn baro_pressure_pa(&mut self, driver: &mut BinderDriver) -> Result<f64, BinderError> {
        let h = self.sensors(driver)?;
        let mut q = Parcel::new();
        q.push_i32(sensor_types::PRESSURE);
        let reply = driver.transact(self.pid, h, codes::OP, q)?;
        reply.f64_at(0)
    }

    /// Fetches one IMU sample (NDK sensor path).
    pub fn imu_sample(
        &mut self,
        driver: &mut BinderDriver,
    ) -> Result<BridgeImuSample, BinderError> {
        let h = self.sensors(driver)?;
        let mut q = Parcel::new();
        q.push_i32(sensor_types::ACCELEROMETER);
        let acc = driver.transact(self.pid, h, codes::OP, q)?;
        let mut q = Parcel::new();
        q.push_i32(sensor_types::GYROSCOPE);
        let gyr = driver.transact(self.pid, h, codes::OP, q)?;
        Ok(BridgeImuSample {
            accel: [acc.f64_at(0)?, acc.f64_at(1)?, acc.f64_at(2)?],
            gyro: [gyr.f64_at(0)?, gyr.f64_at(1)?, gyr.f64_at(2)?],
        })
    }

    /// Fetches the magnetometer heading, radians.
    pub fn heading(&mut self, driver: &mut BinderDriver) -> Result<f64, BinderError> {
        let h = self.sensors(driver)?;
        let mut q = Parcel::new();
        q.push_i32(sensor_types::MAGNETIC);
        let reply = driver.transact(self.pid, h, codes::OP, q)?;
        reply.f64_at(0)
    }
}
