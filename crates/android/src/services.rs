//! The device container's shared system services (paper Table 1).
//!
//! | Service                  | Device(s)                        |
//! |--------------------------|----------------------------------|
//! | AudioFlinger             | Microphone, Speakers             |
//! | CameraService            | Camera                           |
//! | LocationManagerService   | GPS                              |
//! | SensorService            | Motion, Environmental Sensors    |
//!
//! Only these services run against real hardware, inside the device
//! container; they already multiplex multiple client processes, which
//! is exactly the property AnDrone leverages to multiplex multiple
//! *containers*. On every sensitive call a service performs the
//! paper's two-stage permission check: (1) resolve the **calling
//! container's** ActivityManager through its scoped name
//! (`activity#ctrN`, registered via `PUBLISH_TO_DEV_CON`) and ask it
//! about the calling app's grant; (2) consult the VDC policy for the
//! flight-state decision (waypoint devices only at waypoints, etc.).

use std::collections::{BTreeMap, BTreeSet};

use androne_binder::{
    new_stream, scoped_service_name, sm_codes, BinderDriver, BinderError, BinderService,
    FilePayload, Parcel, TransactionContext, ACTIVITY_MANAGER,
};
use androne_hal::SharedBoard;
use androne_simkern::{ContainerId, Pid};

use crate::activity_manager::{codes as am_codes, PERMISSION_GRANTED};
use crate::policy::{DeviceClass, PolicyRef};

/// Service names as registered with the ServiceManager (and listed in
/// the device container's shared list).
pub mod names {
    /// AudioFlinger.
    pub const AUDIO: &str = "media.audio_flinger";
    /// CameraService.
    pub const CAMERA: &str = "media.camera";
    /// LocationManagerService.
    pub const LOCATION: &str = "location";
    /// SensorService.
    pub const SENSORS: &str = "sensorservice";

    /// The full Table 1 shared-service list.
    pub const TABLE_1: [&str; 4] = [AUDIO, CAMERA, LOCATION, SENSORS];
}

/// Transaction codes shared by the device services.
pub mod codes {
    /// Open a session with the service (records the caller as a user
    /// of the device).
    pub const CONNECT: u32 = 1;
    /// Close the caller's session.
    pub const DISCONNECT: u32 = 2;
    /// `{i32 container}` → `{i32 n, i32 pid...}`: which processes of
    /// a container currently hold sessions (VDC enforcement).
    pub const QUERY_USERS: u32 = 3;
    /// Service-specific primary operation (capture/sample/etc.).
    pub const OP: u32 = 16;
    /// Secondary operation (e.g. camera stream open, audio play).
    pub const OP2: u32 = 17;
}

/// Common state and checks shared by every device service.
struct ServiceCore {
    /// The service's own process (in the device container).
    own_pid: Pid,
    /// The device class this service gates.
    device: DeviceClass,
    /// VDC policy hook.
    policy: PolicyRef,
    /// Sessions: container → pids with open sessions.
    sessions: BTreeMap<ContainerId, BTreeSet<Pid>>,
}

impl ServiceCore {
    fn new(own_pid: Pid, device: DeviceClass, policy: PolicyRef) -> Self {
        ServiceCore {
            own_pid,
            device,
            policy,
            sessions: BTreeMap::new(),
        }
    }

    /// The paper's extended `checkPermission()`: calling container's
    /// ActivityManager (app grant) + VDC policy (flight state).
    fn check_permission(
        &self,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<(), BinderError> {
        // Stage 1: app-level grant via the calling container's
        // ActivityManager, resolved by scoped name from the device
        // container's ServiceManager. Containers without an
        // ActivityManager (the native-Linux flight container) skip
        // this stage; the VDC policy is their sole gate.
        let scoped = scoped_service_name(ACTIVITY_MANAGER, ctx.sender_container);
        let mut lookup = Parcel::new();
        lookup.push_str(scoped);
        match driver.transact(self.own_pid, 0, sm_codes::GET_SERVICE, lookup) {
            Ok(reply) => {
                let am = reply.binder_at(0)?;
                let mut q = Parcel::new();
                q.push_str(self.device.android_permission());
                q.push_i32(ctx.sender_euid.0 as i32);
                let verdict = driver.transact(self.own_pid, am, am_codes::CHECK_PERMISSION, q)?;
                if verdict.i32_at(0)? != PERMISSION_GRANTED {
                    return Err(BinderError::PermissionDenied(
                        "app lacks the Android permission",
                    ));
                }
            }
            Err(BinderError::ServiceNotFound(_)) => {
                // Native container: no ActivityManager registered.
            }
            Err(e) => return Err(e),
        }

        // Stage 2: the VDC flight-state policy.
        if !self
            .policy
            .borrow()
            .allows(ctx.sender_container, self.device)
        {
            return Err(BinderError::PermissionDenied(
                "VDC denies device access in the current flight state",
            ));
        }
        Ok(())
    }

    fn connect(&mut self, ctx: &TransactionContext) {
        self.sessions
            .entry(ctx.sender_container)
            .or_default()
            .insert(ctx.sender_pid);
    }

    fn disconnect(&mut self, ctx: &TransactionContext) {
        if let Some(pids) = self.sessions.get_mut(&ctx.sender_container) {
            pids.remove(&ctx.sender_pid);
            if pids.is_empty() {
                self.sessions.remove(&ctx.sender_container);
            }
        }
    }

    fn query_users(&self, container: ContainerId) -> Parcel {
        let mut reply = Parcel::new();
        match self.sessions.get(&container) {
            Some(pids) => {
                reply.push_i32(pids.len() as i32);
                for pid in pids {
                    reply.push_i32(pid.0 as i32);
                }
            }
            None => {
                reply.push_i32(0);
            }
        }
        reply
    }

    /// Handles the common codes; returns `None` for service-specific
    /// ones.
    fn dispatch_common(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Option<Result<Parcel, BinderError>> {
        match code {
            codes::CONNECT => Some(self.check_permission(ctx, driver).map(|()| {
                self.connect(ctx);
                Parcel::new()
            })),
            codes::DISCONNECT => {
                self.disconnect(ctx);
                Some(Ok(Parcel::new()))
            }
            codes::QUERY_USERS => {
                let container = match data.i32_at(0) {
                    Ok(c) => ContainerId(c as u32),
                    Err(e) => return Some(Err(e)),
                };
                Some(Ok(self.query_users(container)))
            }
            _ => None,
        }
    }
}

/// CameraService: multiplexes the single physical camera.
pub struct CameraService {
    core: ServiceCore,
    board: SharedBoard,
    /// Open frame streams: the owning container and the queue behind
    /// the client's fd. Pumped by [`CameraService::pump_frames`];
    /// streams of containers that lose camera access are closed.
    open_streams: Vec<(
        ContainerId,
        std::rc::Rc<std::cell::RefCell<std::collections::VecDeque<bytes::Bytes>>>,
    )>,
}

impl CameraService {
    /// Creates the service (device container only).
    pub fn new(own_pid: Pid, board: SharedBoard, policy: PolicyRef) -> Self {
        CameraService {
            core: ServiceCore::new(own_pid, DeviceClass::Camera, policy),
            board,
            open_streams: Vec::new(),
        }
    }

    /// Captures one frame into every open stream whose owner still
    /// has camera access; streams of revoked containers are closed
    /// (the feed a virtual drone forwards to its user's phone stops
    /// the moment it leaves its waypoint).
    pub fn pump_frames(&mut self) {
        if self.open_streams.is_empty() {
            return;
        }
        let policy = self.core.policy.clone();
        self.open_streams
            .retain(|(container, _)| policy.borrow().allows(*container, DeviceClass::Camera));
        if self.open_streams.is_empty() {
            return;
        }
        let mut board = self.board.borrow_mut();
        let truth = *board.truth.borrow();
        let frame = board.camera.capture(&truth);
        for (_, queue) in &self.open_streams {
            queue.borrow_mut().push_back(frame.data.clone());
        }
    }

    /// Number of currently open streams (diagnostics).
    pub fn open_stream_count(&self) -> usize {
        self.open_streams.len()
    }
}

impl BinderService for CameraService {
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        if let Some(r) = self.core.dispatch_common(code, data, ctx, driver) {
            return r;
        }
        match code {
            // OP: capture one frame, returned inline with its geotag.
            codes::OP => {
                self.core.check_permission(ctx, driver)?;
                let mut board = self.board.borrow_mut();
                let truth = *board.truth.borrow();
                let frame = board.camera.capture(&truth);
                let mut reply = Parcel::new();
                reply
                    .push_i64(frame.seq as i64)
                    .push_f64(frame.geotag.latitude)
                    .push_f64(frame.geotag.longitude)
                    .push_f64(frame.geotag.altitude)
                    .push_blob(frame.data);
                Ok(reply)
            }
            // OP2: open a frame stream; returns an fd the client
            // reads frames from (fd passing through Binder).
            codes::OP2 => {
                self.core.check_permission(ctx, driver)?;
                let (file, queue) = new_stream(format!("camera-stream-{}", ctx.sender_pid));
                // Prime the stream with one frame so clients can
                // read immediately, then keep it registered for
                // pumping.
                {
                    let mut board = self.board.borrow_mut();
                    let truth = *board.truth.borrow();
                    let frame = board.camera.capture(&truth);
                    queue.borrow_mut().push_back(frame.data);
                }
                self.open_streams.push((ctx.sender_container, queue));
                let fd = driver.install_fd(self.core.own_pid, file)?;
                let mut reply = Parcel::new();
                reply.push_fd(fd);
                Ok(reply)
            }
            other => Err(BinderError::TransactionFailed(format!(
                "unknown CameraService code {other}"
            ))),
        }
    }
}

/// LocationManagerService: multiplexes the GPS.
pub struct LocationManagerService {
    core: ServiceCore,
    board: SharedBoard,
}

impl LocationManagerService {
    /// Creates the service (device container only).
    pub fn new(own_pid: Pid, board: SharedBoard, policy: PolicyRef) -> Self {
        LocationManagerService {
            core: ServiceCore::new(own_pid, DeviceClass::Gps, policy),
            board,
        }
    }
}

impl BinderService for LocationManagerService {
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        if let Some(r) = self.core.dispatch_common(code, data, ctx, driver) {
            return r;
        }
        match code {
            // OP: last known location.
            codes::OP => {
                self.core.check_permission(ctx, driver)?;
                let mut board = self.board.borrow_mut();
                let truth = *board.truth.borrow();
                let rng = &mut board.rng;
                let fix = {
                    let gps = androne_hal::Gps::default();
                    gps.fix(&truth, rng)
                };
                let mut reply = Parcel::new();
                reply
                    .push_f64(fix.position.latitude)
                    .push_f64(fix.position.longitude)
                    .push_f64(fix.position.altitude)
                    .push_f64(fix.ground_speed);
                Ok(reply)
            }
            other => Err(BinderError::TransactionFailed(format!(
                "unknown LocationManagerService code {other}"
            ))),
        }
    }
}

/// SensorService: motion and environmental sensors.
pub struct SensorService {
    core: ServiceCore,
    board: SharedBoard,
}

/// Sensor type selectors for [`SensorService`] `OP` calls (Android
/// sensor type values).
pub mod sensor_types {
    /// TYPE_ACCELEROMETER.
    pub const ACCELEROMETER: i32 = 1;
    /// TYPE_GYROSCOPE.
    pub const GYROSCOPE: i32 = 4;
    /// TYPE_PRESSURE.
    pub const PRESSURE: i32 = 6;
    /// TYPE_MAGNETIC_FIELD (heading).
    pub const MAGNETIC: i32 = 2;
}

impl SensorService {
    /// Creates the service (device container only).
    pub fn new(own_pid: Pid, board: SharedBoard, policy: PolicyRef) -> Self {
        SensorService {
            core: ServiceCore::new(own_pid, DeviceClass::Sensors, policy),
            board,
        }
    }
}

impl BinderService for SensorService {
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        if let Some(r) = self.core.dispatch_common(code, data, ctx, driver) {
            return r;
        }
        match code {
            // OP {i32 sensor_type} -> sample values.
            codes::OP => {
                self.core.check_permission(ctx, driver)?;
                let sensor = data.i32_at(0)?;
                let mut board = self.board.borrow_mut();
                let truth = *board.truth.borrow();
                let mut reply = Parcel::new();
                match sensor {
                    sensor_types::ACCELEROMETER => {
                        let s = {
                            let imu = board.imu.clone();
                            imu.sample(&truth, &mut board.rng)
                        };
                        reply
                            .push_f64(s.accel.x)
                            .push_f64(s.accel.y)
                            .push_f64(s.accel.z);
                    }
                    sensor_types::GYROSCOPE => {
                        let s = {
                            let imu = board.imu.clone();
                            imu.sample(&truth, &mut board.rng)
                        };
                        reply
                            .push_f64(s.gyro.x)
                            .push_f64(s.gyro.y)
                            .push_f64(s.gyro.z);
                    }
                    sensor_types::PRESSURE => {
                        let baro = board.barometer.clone();
                        reply.push_f64(baro.pressure_pa(&truth, &mut board.rng));
                    }
                    sensor_types::MAGNETIC => {
                        let mag = board.magnetometer.clone();
                        reply.push_f64(mag.heading(&truth, &mut board.rng));
                    }
                    other => {
                        return Err(BinderError::TransactionFailed(format!(
                            "unknown sensor type {other}"
                        )))
                    }
                }
                Ok(reply)
            }
            other => Err(BinderError::TransactionFailed(format!(
                "unknown SensorService code {other}"
            ))),
        }
    }
}

/// AudioFlinger: microphone and speakers.
pub struct AudioFlinger {
    core: ServiceCore,
    board: SharedBoard,
}

impl AudioFlinger {
    /// Creates the service (device container only).
    pub fn new(own_pid: Pid, board: SharedBoard, policy: PolicyRef) -> Self {
        AudioFlinger {
            core: ServiceCore::new(own_pid, DeviceClass::Microphone, policy),
            board,
        }
    }
}

impl BinderService for AudioFlinger {
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        if let Some(r) = self.core.dispatch_common(code, data, ctx, driver) {
            return r;
        }
        match code {
            // OP: record one microphone chunk.
            codes::OP => {
                self.core.check_permission(ctx, driver)?;
                let chunk = self.board.borrow_mut().microphone.record_chunk();
                let mut reply = Parcel::new();
                reply.push_blob(chunk);
                Ok(reply)
            }
            // OP2 {blob}: play a chunk through the speaker.
            codes::OP2 => {
                let chunk = data.blob_at(0)?;
                self.board.borrow_mut().speaker.play(&chunk);
                Ok(Parcel::new())
            }
            other => Err(BinderError::TransactionFailed(format!(
                "unknown AudioFlinger code {other}"
            ))),
        }
    }
}

/// Reads all currently queued frames from a camera stream fd.
pub fn read_stream_frames(
    driver: &BinderDriver,
    pid: Pid,
    fd: u32,
) -> Result<Vec<bytes::Bytes>, BinderError> {
    let file = driver.file(pid, fd)?;
    match &file.payload {
        FilePayload::Stream(q) => Ok(q.borrow_mut().drain(..).collect()),
        _ => Err(BinderError::BadFd(fd)),
    }
}
