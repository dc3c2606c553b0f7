//! # androne-hal
//!
//! Simulated drone hardware for the AnDrone reproduction: the
//! Raspberry Pi 3 + Emlid Navio2 + Camera Module v2 stack the paper's
//! prototype flies with.
//!
//! Sensors sample a shared ground-truth bus written by the physics
//! model in `androne-flight`, adding device-appropriate noise; the
//! motor device feeds actuator commands back. Devices enforce
//! single-opener semantics via a claim table — the property that
//! forces multiplexing up into the device container, which is the
//! heart of the paper's design.

pub mod board;
pub mod camera;
pub mod device;
pub mod faults;
pub mod geo;
pub mod misc;
pub mod sensors;
pub mod statehash;
pub mod truth;

pub use board::{share, HardwareBoard, SharedBoard};
pub use camera::{Camera, Frame};
pub use device::{AlreadyClaimed, ClaimTable, DeviceKind};
pub use faults::{SensorFaultMode, SensorFaults};
pub use geo::{Attitude, GeoPoint, Vec3, EARTH_RADIUS_M};
pub use misc::{BatteryMonitor, Gimbal, Microphone, Motors, Speaker};
pub use sensors::{Barometer, Gps, GpsFix, Imu, ImuSample, Magnetometer, G};
pub use truth::{new_truth_bus, TruthBus, VehicleTruth};
