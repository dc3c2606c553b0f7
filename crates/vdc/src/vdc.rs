//! The Virtual Drone Controller daemon.
//!
//! A native host daemon (paper Section 4.4) that manages virtual
//! drone containers across a flight: creates them from definitions,
//! updates device access as waypoints are reached and left, tracks
//! each virtual drone's energy/time allotment, delivers AnDrone SDK
//! events, enforces permission revocation (terminating processes
//! that keep using a device after notification), and saves
//! interrupted virtual drones for a later flight.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use androne_android::{svc_codes, svc_names, DeviceClass};
use androne_binder::{get_service, BinderDriver, Parcel};
use androne_obs::{ObsHandle, Subsystem, TraceEvent};
use androne_simkern::{ContainerId, Kernel, Pid, StateHash, StateHasher};

use crate::access::{AccessTable, FlightPhase};
use crate::spec::{VirtualDroneSpec, WaypointSpec};

/// Events delivered to a virtual drone's apps through the AnDrone
/// SDK's `WaypointListener` (paper Figure 8).
#[derive(Debug, Clone, PartialEq)]
pub enum VdcEvent {
    /// Arrived at a waypoint; flight control and waypoint devices
    /// are now live.
    WaypointActive {
        /// Index into the spec's waypoint list.
        index: usize,
        /// The waypoint definition.
        waypoint: WaypointSpec,
    },
    /// Leaving a waypoint; waypoint devices are being revoked.
    WaypointInactive {
        /// Index into the spec's waypoint list.
        index: usize,
    },
    /// Energy allotment is running low.
    LowEnergyWarning {
        /// Joules remaining.
        remaining_j: f64,
    },
    /// Time allotment is running low.
    LowTimeWarning {
        /// Seconds remaining.
        remaining_s: f64,
    },
    /// The geofence was breached; control is suspended.
    GeofenceBreached,
    /// Continuous devices must be suspended (approaching another
    /// party's waypoint).
    SuspendContinuousDevices,
    /// Continuous devices may resume.
    ResumeContinuousDevices,
    /// The VDC watchdog revoked this virtual drone (stalled or
    /// repeatedly violating access policy); its flight is over.
    WatchdogRevoked,
    /// The tenant was suspended by the QoS escalation ladder (its
    /// Binder budget kept tripping); continuous devices are paused
    /// but the flight continues and the tenant still bills.
    TenantSuspended,
    /// A ladder suspension was lifted by the hysteresis decay (the
    /// tenant went quiet); continuous devices are resuming.
    TenantResumed,
}

/// Fraction of the allotment remaining at which low-budget warnings
/// fire.
pub const WARNING_FRACTION: f64 = 0.2;

/// Watchdog thresholds for revoking a misbehaving virtual drone.
///
/// The watchdog is opt-in (`Vdc::set_watchdog`); with no config the
/// VDC never revokes on its own. "Stalled" means the virtual drone's
/// proxy client forwarded no traffic for `stall_timeout_s` seconds
/// while it held an active waypoint; "violating" means its denied
/// command count exceeded `max_denials`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Seconds of zero forwarded traffic at an active waypoint before
    /// the virtual drone is considered stalled.
    pub stall_timeout_s: u64,
    /// Denied (geofence/policy-violating) commands tolerated before
    /// revocation.
    pub max_denials: u64,
    /// Seconds a virtual drone may keep forwarding commands at an
    /// active waypoint *without* reporting mission progress (the SDK
    /// progress heartbeat) before it is revoked. Closes the
    /// busy-loop blind spot: a tenant spamming valid commands evades
    /// the stall signal but not this one. `None` disables the check.
    pub progress_timeout_s: Option<u64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_timeout_s: 20,
            max_denials: 50,
            progress_timeout_s: None,
        }
    }
}

/// A virtual drone's definition as registered, with its canonical
/// JSON form (BTreeMap-ordered keys, a stable encoding) cached for
/// the record's state hash. It reads as the [`VirtualDroneSpec`] it
/// wraps and offers no mutable access, so the cached form cannot go
/// stale.
pub struct RegisteredSpec {
    spec: VirtualDroneSpec,
    json: String,
}

impl RegisteredSpec {
    fn new(spec: VirtualDroneSpec) -> Self {
        let json = serde_json::to_string(&spec).unwrap_or_default();
        RegisteredSpec { spec, json }
    }
}

impl std::ops::Deref for RegisteredSpec {
    type Target = VirtualDroneSpec;

    fn deref(&self) -> &VirtualDroneSpec {
        &self.spec
    }
}

impl std::fmt::Debug for RegisteredSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.spec.fmt(f)
    }
}

/// Per-virtual-drone record.
#[derive(Debug)]
pub struct VdRecord {
    /// Virtual drone name (container name).
    pub name: String,
    /// Kernel container id.
    pub container: ContainerId,
    /// The definition, fixed at registration.
    pub spec: RegisteredSpec,
    energy_used_j: f64,
    time_used_s: f64,
    energy_warned: bool,
    time_warned: bool,
    waypoints_completed: usize,
    /// Monotone count of SDK progress heartbeats (explicit
    /// `report_progress` plus every `waypoint_completed`). The
    /// flight watchdog reads it to tell "working" from "busy-looping".
    progress_marks: u64,
    events: VecDeque<VdcEvent>,
    /// Files apps marked for upload to cloud storage.
    pub marked_files: Vec<String>,
    /// Set when the app called `waypointCompleted()`.
    pub waypoint_done: bool,
    /// Set by [`Vdc::on_watchdog_revoked`]; the flight executor
    /// consults it so VDC-initiated revocations (e.g. the QoS
    /// escalation ladder) strip the tenant's remaining waypoints
    /// exactly like executor-initiated ones.
    pub revoked: bool,
    /// Set by [`Vdc::on_tenant_suspended`], cleared by
    /// [`Vdc::on_tenant_resumed`]: whether the QoS escalation ladder
    /// currently holds this tenant at `Suspended`. This is the
    /// tenant-visible ladder signal — the SDK surfaces it, and an
    /// adaptive adversary reads it as feedback.
    pub suspended: bool,
}

impl VdRecord {
    /// Joules remaining in the allotment.
    pub fn energy_remaining_j(&self) -> f64 {
        (self.spec.energy_allotted - self.energy_used_j).max(0.0)
    }

    /// Seconds remaining in the allotment.
    pub fn time_remaining_s(&self) -> f64 {
        (self.spec.max_duration - self.time_used_s).max(0.0)
    }

    /// Whether either allotment is exhausted.
    pub fn exhausted(&self) -> bool {
        self.energy_remaining_j() <= 0.0 || self.time_remaining_s() <= 0.0
    }

    /// Waypoints completed so far.
    pub fn waypoints_completed(&self) -> usize {
        self.waypoints_completed
    }

    /// Progress heartbeats received so far.
    pub fn progress_marks(&self) -> u64 {
        self.progress_marks
    }
}

/// The VDC daemon.
pub struct Vdc {
    access: Rc<RefCell<AccessTable>>,
    records: BTreeMap<String, VdRecord>,
    by_container: BTreeMap<ContainerId, String>,
    /// The VDC's Binder identity (opened in the device container's
    /// namespace) for service queries during enforcement.
    binder_pid: Option<Pid>,
    /// Opt-in watchdog thresholds; `None` disables revocation.
    watchdog: Option<WatchdogConfig>,
    /// Observability handle; detached (free) unless the owning drone
    /// attached one.
    obs: ObsHandle,
}

impl Vdc {
    /// Creates a VDC around a shared access table.
    pub fn new(access: Rc<RefCell<AccessTable>>) -> Self {
        Vdc {
            access,
            records: BTreeMap::new(),
            by_container: BTreeMap::new(),
            binder_pid: None,
            watchdog: None,
            obs: ObsHandle::default(),
        }
    }

    /// Attaches the shared observability handle; allotment decisions
    /// are traced from then on.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The shared access table (to hand to device services as their
    /// policy).
    pub fn access(&self) -> Rc<RefCell<AccessTable>> {
        self.access.clone()
    }

    /// Sets the VDC's Binder identity for enforcement queries.
    pub fn set_binder_identity(&mut self, pid: Pid) {
        self.binder_pid = Some(pid);
    }

    /// Arms the per-virtual-drone watchdog.
    pub fn set_watchdog(&mut self, cfg: Option<WatchdogConfig>) {
        self.watchdog = cfg;
    }

    /// The current watchdog config, if armed.
    pub fn watchdog(&self) -> Option<WatchdogConfig> {
        self.watchdog
    }

    /// Records a watchdog revocation: the virtual drone's flight is
    /// over (phase `Finished`, so every device grant lapses) and the
    /// app is told why through its event queue.
    pub fn on_watchdog_revoked(&mut self, name: &str) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.revoked = true;
            rec.events.push_back(VdcEvent::WatchdogRevoked);
            self.access
                .borrow_mut()
                .set_phase(rec.container, FlightPhase::Finished);
            self.obs.count("vdc.watchdog_revocations", 1);
            self.obs.emit(Subsystem::Vdc, || TraceEvent::VdcDecision {
                vdrone: name.to_string(),
                decision: "watchdog-revoked",
                detail: String::new(),
            });
        }
    }

    /// Suspends a virtual drone: the middle rung of the QoS
    /// escalation ladder (between rate-halving and watchdog
    /// revocation). Continuous devices pause — the same mechanism
    /// privacy suspension uses — but the flight phase is untouched,
    /// so the tenant keeps billing and can still land. Recoverable
    /// via [`Vdc::on_tenant_resumed`].
    pub fn on_tenant_suspended(&mut self, name: &str, detail: &str) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.suspended = true;
            rec.events.push_back(VdcEvent::TenantSuspended);
            self.access.borrow_mut().suspend_continuous(rec.container);
            self.obs.count("vdc.tenant_suspensions", 1);
            let detail = detail.to_string();
            self.obs.emit(Subsystem::Vdc, || TraceEvent::VdcDecision {
                vdrone: name.to_string(),
                decision: "tenant-suspended",
                detail,
            });
        }
    }

    /// Lifts a ladder suspension (the tenant's budget pressure
    /// subsided); continuous devices resume.
    pub fn on_tenant_resumed(&mut self, name: &str) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.suspended = false;
            rec.events.push_back(VdcEvent::ResumeContinuousDevices);
            rec.events.push_back(VdcEvent::TenantResumed);
            self.access.borrow_mut().resume_continuous(rec.container);
            self.obs.emit(Subsystem::Vdc, || TraceEvent::VdcDecision {
                vdrone: name.to_string(),
                decision: "tenant-resumed",
                detail: String::new(),
            });
        }
    }

    /// Moves a virtual drone's registration to a new container id
    /// after a supervised restart (checkpoint/restore gives the
    /// restored container a fresh id). The allotment record — energy
    /// and time already used, waypoints completed, pending events —
    /// carries over untouched; only the container binding and the
    /// access-table entry move, preserving the current flight phase.
    pub fn rebind_container(&mut self, name: &str, new_id: ContainerId) {
        let Some(rec) = self.records.get_mut(name) else {
            return;
        };
        let old_id = rec.container;
        if old_id == new_id {
            return;
        }
        let phase = self.access.borrow().phase(old_id);
        {
            let mut access = self.access.borrow_mut();
            access.unregister(old_id);
            access.register(
                new_id,
                rec.spec.waypoint_classes(),
                rec.spec.continuous_classes(),
            );
            if let Some(phase) = phase {
                access.set_phase(new_id, phase);
            }
        }
        rec.container = new_id;
        self.by_container.remove(&old_id);
        self.by_container.insert(new_id, name.to_string());
    }

    /// Registers a virtual drone before flight.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        container: ContainerId,
        spec: VirtualDroneSpec,
    ) {
        let name = name.into();
        self.access.borrow_mut().register(
            container,
            spec.waypoint_classes(),
            spec.continuous_classes(),
        );
        self.by_container.insert(container, name.clone());
        self.records.insert(
            name.clone(),
            VdRecord {
                name,
                container,
                spec: RegisteredSpec::new(spec),
                energy_used_j: 0.0,
                time_used_s: 0.0,
                energy_warned: false,
                time_warned: false,
                waypoints_completed: 0,
                progress_marks: 0,
                events: VecDeque::new(),
                marked_files: Vec::new(),
                waypoint_done: false,
                revoked: false,
                suspended: false,
            },
        );
    }

    /// Removes a virtual drone (end of flight).
    pub fn unregister(&mut self, name: &str) -> Option<VdRecord> {
        let rec = self.records.remove(name)?;
        self.access.borrow_mut().unregister(rec.container);
        self.by_container.remove(&rec.container);
        Some(rec)
    }

    /// Looks up a record.
    pub fn record(&self, name: &str) -> Option<&VdRecord> {
        self.records.get(name)
    }

    /// Iterates all records.
    pub fn records(&self) -> impl Iterator<Item = &VdRecord> {
        self.records.values()
    }

    /// The flight planner notifies the VDC that `name` has arrived
    /// at its waypoint `index`. Other virtual drones holding
    /// continuous devices are suspended for privacy (paper Section
    /// 2).
    pub fn on_waypoint_arrived(&mut self, name: &str, index: usize) {
        let Some(rec) = self.records.get_mut(name) else {
            return;
        };
        let container = rec.container;
        let waypoint = rec.spec.waypoints.get(index).copied();
        rec.waypoint_done = false;
        if let Some(waypoint) = waypoint {
            rec.events
                .push_back(VdcEvent::WaypointActive { index, waypoint });
        }
        self.access
            .borrow_mut()
            .set_phase(container, FlightPhase::AtWaypoint(index));
        self.obs.count("vdc.waypoint_arrivals", 1);
        self.obs.emit(Subsystem::Vdc, || TraceEvent::VdcDecision {
            vdrone: name.to_string(),
            decision: "waypoint-arrived",
            detail: format!("wp{index}"),
        });

        // Privacy: suspend other parties' continuous devices.
        let others: Vec<String> = self
            .records
            .values()
            .filter(|r| r.name != name && !r.spec.continuous_devices.is_empty())
            .map(|r| r.name.clone())
            .collect();
        for other in others {
            if let Some(r) = self.records.get_mut(&other) {
                self.access.borrow_mut().suspend_continuous(r.container);
                r.events.push_back(VdcEvent::SuspendContinuousDevices);
            }
        }
    }

    /// The flight planner notifies the VDC that `name` is leaving
    /// waypoint `index`.
    pub fn on_waypoint_departed(&mut self, name: &str, index: usize) {
        let Some(rec) = self.records.get_mut(name) else {
            return;
        };
        rec.waypoints_completed = rec.waypoints_completed.max(index + 1);
        rec.events.push_back(VdcEvent::WaypointInactive { index });
        let container = rec.container;
        let finished = rec.waypoints_completed >= rec.spec.waypoints.len();
        self.access.borrow_mut().set_phase(
            container,
            if finished {
                FlightPhase::Finished
            } else {
                FlightPhase::Transit
            },
        );
        self.obs.count("vdc.waypoint_departures", 1);
        self.obs.emit(Subsystem::Vdc, || TraceEvent::VdcDecision {
            vdrone: name.to_string(),
            decision: "waypoint-departed",
            detail: format!("wp{index} finished={finished}"),
        });

        // Resume other parties' continuous devices.
        let others: Vec<String> = self
            .records
            .values()
            .filter(|r| r.name != name && !r.spec.continuous_devices.is_empty())
            .map(|r| r.name.clone())
            .collect();
        for other in others {
            if let Some(r) = self.records.get_mut(&other) {
                self.access.borrow_mut().resume_continuous(r.container);
                r.events.push_back(VdcEvent::ResumeContinuousDevices);
            }
        }
    }

    /// Geofence breach notification (from the flight container).
    pub fn on_geofence_breached(&mut self, name: &str) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.events.push_back(VdcEvent::GeofenceBreached);
            self.obs.count("vdc.geofence_breaches", 1);
            self.obs.emit(Subsystem::Vdc, || TraceEvent::VdcDecision {
                vdrone: name.to_string(),
                decision: "geofence-breached",
                detail: String::new(),
            });
        }
    }

    /// Charges energy consumed at a waypoint against the allotment,
    /// emitting a low-energy warning at 20% remaining.
    pub fn charge_energy(&mut self, name: &str, joules: f64) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.energy_used_j += joules.max(0.0);
            let remaining = rec.energy_remaining_j();
            if !rec.energy_warned && remaining <= WARNING_FRACTION * rec.spec.energy_allotted {
                rec.energy_warned = true;
                rec.events.push_back(VdcEvent::LowEnergyWarning {
                    remaining_j: remaining,
                });
            }
        }
    }

    /// Charges operating time against the allotment.
    pub fn charge_time(&mut self, name: &str, seconds: f64) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.time_used_s += seconds.max(0.0);
            let remaining = rec.time_remaining_s();
            if !rec.time_warned && remaining <= WARNING_FRACTION * rec.spec.max_duration {
                rec.time_warned = true;
                rec.events.push_back(VdcEvent::LowTimeWarning {
                    remaining_s: remaining,
                });
            }
        }
    }

    /// SDK: the app declares its waypoint task complete. Counts as a
    /// progress heartbeat too.
    pub fn waypoint_completed(&mut self, name: &str) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.waypoint_done = true;
            rec.progress_marks += 1;
        }
    }

    /// SDK: the app reports it is making mission progress at the
    /// active waypoint (the watchdog heartbeat). Apps doing long
    /// waypoint tasks call this periodically; a tenant busy-looping
    /// commands without it is revoked once
    /// [`WatchdogConfig::progress_timeout_s`] elapses.
    pub fn report_progress(&mut self, name: &str) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.progress_marks += 1;
        }
    }

    /// SDK: marks a file for upload to cloud storage after flight.
    pub fn mark_file(&mut self, name: &str, path: impl Into<String>) {
        if let Some(rec) = self.records.get_mut(name) {
            rec.marked_files.push(path.into());
        }
    }

    /// SDK: drains pending events for a virtual drone.
    pub fn drain_events(&mut self, name: &str) -> Vec<VdcEvent> {
        match self.records.get_mut(name) {
            Some(rec) => rec.events.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Flight-container query: may this virtual drone control the
    /// flight right now?
    pub fn flight_control_allowed(&self, container: ContainerId) -> bool {
        self.access.borrow().flight_control_allowed(container)
    }

    /// Enforces revocation after a waypoint departure: queries each
    /// device service for processes of `name`'s container still
    /// holding sessions, and terminates them (paper Section 4.4:
    /// apps may ignore the revocation notification, so the VDC asks
    /// the services and kills the holdouts). Returns the pids
    /// terminated.
    pub fn enforce_revocation(
        &mut self,
        driver: &mut BinderDriver,
        kernel: &mut Kernel,
        name: &str,
    ) -> Vec<Pid> {
        let Some(rec) = self.records.get(name) else {
            return Vec::new();
        };
        let Some(vdc_pid) = self.binder_pid else {
            return Vec::new();
        };
        let container = rec.container;
        let mut killed = Vec::new();
        for service in svc_names::TABLE_1 {
            let Ok(handle) = get_service(driver, vdc_pid, service) else {
                continue;
            };
            let mut q = Parcel::new();
            q.push_i32(container.0 as i32);
            let Ok(reply) = driver.transact(vdc_pid, handle, svc_codes::QUERY_USERS, q) else {
                continue;
            };
            let n = reply.i32_at(0).unwrap_or(0) as usize;
            for i in 0..n {
                if let Ok(raw) = reply.i32_at(1 + i) {
                    let pid = Pid(raw as u32);
                    if kernel.tasks.kill(pid).is_ok() {
                        driver.kill_process(pid);
                        killed.push(pid);
                    }
                }
            }
        }
        killed
    }

    /// Whether `device` access is currently allowed for `name`
    /// (diagnostics).
    pub fn allows(&self, name: &str, device: DeviceClass) -> bool {
        match self.records.get(name) {
            Some(rec) => {
                use androne_android::DevicePolicy;
                self.access.borrow().allows(rec.container, device)
            }
            None => false,
        }
    }
}

impl StateHash for VdcEvent {
    fn state_hash(&self, h: &mut StateHasher) {
        match self {
            VdcEvent::WaypointActive { index, waypoint } => {
                h.write_u8(0);
                h.write_usize(*index);
                h.write_f64(waypoint.latitude);
                h.write_f64(waypoint.longitude);
                h.write_f64(waypoint.altitude);
                h.write_f64(waypoint.max_radius);
            }
            VdcEvent::WaypointInactive { index } => {
                h.write_u8(1);
                h.write_usize(*index);
            }
            VdcEvent::LowEnergyWarning { remaining_j } => {
                h.write_u8(2);
                h.write_f64(*remaining_j);
            }
            VdcEvent::LowTimeWarning { remaining_s } => {
                h.write_u8(3);
                h.write_f64(*remaining_s);
            }
            VdcEvent::GeofenceBreached => h.write_u8(4),
            VdcEvent::SuspendContinuousDevices => h.write_u8(5),
            VdcEvent::ResumeContinuousDevices => h.write_u8(6),
            VdcEvent::WatchdogRevoked => h.write_u8(7),
            VdcEvent::TenantSuspended => h.write_u8(8),
            VdcEvent::TenantResumed => h.write_u8(9),
        }
    }
}

impl StateHash for VdRecord {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_str(&self.name);
        self.container.state_hash(h);
        h.write_str(&self.spec.json);
        h.write_f64(self.energy_used_j);
        h.write_f64(self.time_used_s);
        h.write_bool(self.energy_warned);
        h.write_bool(self.time_warned);
        h.write_usize(self.waypoints_completed);
        h.write_u64(self.progress_marks);
        h.write_usize(self.events.len());
        for e in &self.events {
            e.state_hash(h);
        }
        h.write_usize(self.marked_files.len());
        for f in &self.marked_files {
            h.write_str(f);
        }
        h.write_bool(self.waypoint_done);
        // Hashed only when set so records from flights predating the
        // revocation flag fold to their historical bits.
        if self.revoked {
            h.write_bool(self.revoked);
        }
        // Same discipline: only an actually-suspended tenant widens
        // the record's hash footprint.
        if self.suspended {
            h.write_bool(self.suspended);
        }
    }
}

impl StateHash for Vdc {
    fn state_hash(&self, h: &mut StateHasher) {
        self.access.borrow().state_hash(h);
        h.write_usize(self.records.len());
        for (name, rec) in &self.records {
            h.write_str(name);
            rec.state_hash(h);
        }
        // by_container is a derived inverse of records; skipped.
        match self.binder_pid {
            Some(pid) => {
                h.write_u8(1);
                pid.state_hash(h);
            }
            None => h.write_u8(0),
        }
        match self.watchdog {
            Some(cfg) => {
                h.write_u8(1);
                h.write_u64(cfg.stall_timeout_s);
                h.write_u64(cfg.max_denials);
                match cfg.progress_timeout_s {
                    Some(t) => {
                        h.write_u8(1);
                        h.write_u64(t);
                    }
                    None => h.write_u8(0),
                }
            }
            None => h.write_u8(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vdc_with(spec: VirtualDroneSpec) -> (Vdc, ContainerId) {
        let access = Rc::new(RefCell::new(AccessTable::new()));
        let mut vdc = Vdc::new(access);
        let c = ContainerId(10);
        vdc.register("vd1", c, spec);
        (vdc, c)
    }

    #[test]
    fn waypoint_cycle_toggles_device_access() {
        let (mut vdc, _) = vdc_with(VirtualDroneSpec::example_survey());
        assert!(!vdc.allows("vd1", DeviceClass::Camera));
        vdc.on_waypoint_arrived("vd1", 0);
        assert!(vdc.allows("vd1", DeviceClass::Camera));
        let events = vdc.drain_events("vd1");
        assert!(matches!(
            events[0],
            VdcEvent::WaypointActive { index: 0, .. }
        ));
        vdc.on_waypoint_departed("vd1", 0);
        assert!(!vdc.allows("vd1", DeviceClass::Camera));
        assert_eq!(
            vdc.drain_events("vd1"),
            vec![VdcEvent::WaypointInactive { index: 0 }]
        );
    }

    #[test]
    fn finishing_all_waypoints_ends_access() {
        let (mut vdc, c) = vdc_with(VirtualDroneSpec::example_survey());
        vdc.on_waypoint_arrived("vd1", 0);
        vdc.on_waypoint_departed("vd1", 0);
        vdc.on_waypoint_arrived("vd1", 1);
        vdc.on_waypoint_departed("vd1", 1);
        assert_eq!(vdc.access().borrow().phase(c), Some(FlightPhase::Finished));
        assert_eq!(vdc.record("vd1").unwrap().waypoints_completed(), 2);
    }

    #[test]
    fn energy_warning_fires_once_at_twenty_percent() {
        let (mut vdc, _) = vdc_with(VirtualDroneSpec::example_survey());
        // Allotment is 45,000 J.
        vdc.charge_energy("vd1", 30_000.0);
        assert!(vdc.drain_events("vd1").is_empty());
        vdc.charge_energy("vd1", 7_000.0);
        let events = vdc.drain_events("vd1");
        assert!(matches!(
            events[0],
            VdcEvent::LowEnergyWarning { remaining_j } if (remaining_j - 8_000.0).abs() < 1.0
        ));
        vdc.charge_energy("vd1", 1_000.0);
        assert!(vdc.drain_events("vd1").is_empty(), "warning fires once");
    }

    #[test]
    fn time_exhaustion_is_reported() {
        let (mut vdc, _) = vdc_with(VirtualDroneSpec::example_survey());
        vdc.charge_time("vd1", 700.0);
        assert!(vdc.record("vd1").unwrap().exhausted());
    }

    #[test]
    fn another_partys_waypoint_suspends_continuous_devices() {
        let access = Rc::new(RefCell::new(AccessTable::new()));
        let mut vdc = Vdc::new(access);
        // vd-cont holds a continuous GPS; vd-other owns the waypoint.
        let mut spec_cont = VirtualDroneSpec::example_survey();
        spec_cont.continuous_devices = vec!["gps".into()];
        vdc.register("vd-cont", ContainerId(10), spec_cont);
        vdc.register(
            "vd-other",
            ContainerId(11),
            VirtualDroneSpec::example_survey(),
        );

        // vd-cont starts operating (continuous access begins).
        vdc.on_waypoint_arrived("vd-cont", 0);
        vdc.on_waypoint_departed("vd-cont", 0);
        vdc.drain_events("vd-cont");
        assert!(vdc.allows("vd-cont", DeviceClass::Gps));

        // The drone reaches vd-other's waypoint: vd-cont suspends.
        vdc.on_waypoint_arrived("vd-other", 0);
        assert!(!vdc.allows("vd-cont", DeviceClass::Gps));
        assert_eq!(
            vdc.drain_events("vd-cont"),
            vec![VdcEvent::SuspendContinuousDevices]
        );

        // Departure resumes.
        vdc.on_waypoint_departed("vd-other", 0);
        assert!(vdc.allows("vd-cont", DeviceClass::Gps));
        assert_eq!(
            vdc.drain_events("vd-cont"),
            vec![VdcEvent::ResumeContinuousDevices]
        );
    }

    #[test]
    fn marked_files_accumulate() {
        let (mut vdc, _) = vdc_with(VirtualDroneSpec::example_survey());
        vdc.mark_file("vd1", "/data/survey/ortho.tif");
        vdc.mark_file("vd1", "/data/survey/report.json");
        assert_eq!(vdc.record("vd1").unwrap().marked_files.len(), 2);
    }

    #[test]
    fn rebind_preserves_allotment_and_phase() {
        let (mut vdc, old) = vdc_with(VirtualDroneSpec::example_survey());
        vdc.on_waypoint_arrived("vd1", 0);
        vdc.charge_energy("vd1", 12_345.0);
        vdc.charge_time("vd1", 33.0);
        let new = ContainerId(42);
        vdc.rebind_container("vd1", new);
        let rec = vdc.record("vd1").unwrap();
        assert_eq!(rec.container, new);
        assert!((rec.energy_remaining_j() - (45_000.0 - 12_345.0)).abs() < 1e-9);
        assert_eq!(
            vdc.access().borrow().phase(new),
            Some(FlightPhase::AtWaypoint(0)),
            "flight phase survives the rebind"
        );
        assert_eq!(
            vdc.access().borrow().phase(old),
            None,
            "old id unregistered"
        );
        assert!(vdc.allows("vd1", DeviceClass::Camera));
    }

    #[test]
    fn watchdog_revocation_finishes_the_flight() {
        let (mut vdc, _) = vdc_with(VirtualDroneSpec::example_survey());
        vdc.set_watchdog(Some(WatchdogConfig::default()));
        vdc.on_waypoint_arrived("vd1", 0);
        vdc.drain_events("vd1");
        assert!(vdc.allows("vd1", DeviceClass::Camera));
        vdc.on_watchdog_revoked("vd1");
        assert!(!vdc.allows("vd1", DeviceClass::Camera), "grants lapse");
        assert_eq!(vdc.drain_events("vd1"), vec![VdcEvent::WatchdogRevoked]);
    }

    #[test]
    fn ladder_suspension_pauses_continuous_devices_recoverably() {
        let access = Rc::new(RefCell::new(AccessTable::new()));
        let mut vdc = Vdc::new(access);
        let mut spec = VirtualDroneSpec::example_survey();
        spec.continuous_devices = vec!["gps".into()];
        let c = ContainerId(10);
        vdc.register("vd1", c, spec);
        vdc.on_waypoint_arrived("vd1", 0);
        vdc.on_waypoint_departed("vd1", 0);
        vdc.drain_events("vd1");
        assert!(vdc.allows("vd1", DeviceClass::Gps));

        vdc.on_tenant_suspended("vd1", "binder budget tripped 8 times");
        assert!(!vdc.allows("vd1", DeviceClass::Gps));
        assert!(vdc.record("vd1").unwrap().suspended);
        assert_eq!(
            vdc.access().borrow().phase(c),
            Some(FlightPhase::Transit),
            "suspension is not termination: the flight phase is untouched"
        );
        assert_eq!(vdc.drain_events("vd1"), vec![VdcEvent::TenantSuspended]);

        vdc.on_tenant_resumed("vd1");
        assert!(vdc.allows("vd1", DeviceClass::Gps));
        assert!(!vdc.record("vd1").unwrap().suspended);
        assert_eq!(
            vdc.drain_events("vd1"),
            vec![VdcEvent::ResumeContinuousDevices, VdcEvent::TenantResumed]
        );
    }

    #[test]
    fn unregister_clears_access() {
        let (mut vdc, c) = vdc_with(VirtualDroneSpec::example_survey());
        vdc.on_waypoint_arrived("vd1", 0);
        let rec = vdc.unregister("vd1").unwrap();
        assert_eq!(rec.container, c);
        assert!(!vdc.allows("vd1", DeviceClass::Camera));
        assert!(vdc.record("vd1").is_none());
    }

    #[test]
    fn record_hash_folds_the_spec_serialised_at_registration() {
        let mut spec = VirtualDroneSpec::example_survey();
        spec.continuous_devices = vec!["gps".into()];
        assert!(!spec.waypoints.is_empty() && !spec.apps.is_empty());
        let (mut vdc, _) = vdc_with(spec);
        vdc.on_waypoint_arrived("vd1", 0);
        vdc.charge_energy("vd1", 1_234.5);
        vdc.mark_file("vd1", "/sdcard/survey.jpg");
        let rec = vdc.record("vd1").unwrap();
        // The record's fold with the spec serialised on the spot.
        let mut h = StateHasher::new();
        h.write_str(&rec.name);
        rec.container.state_hash(&mut h);
        h.write_str(&serde_json::to_string(&*rec.spec).unwrap());
        h.write_f64(rec.energy_used_j);
        h.write_f64(rec.time_used_s);
        h.write_bool(rec.energy_warned);
        h.write_bool(rec.time_warned);
        h.write_usize(rec.waypoints_completed);
        h.write_u64(rec.progress_marks);
        h.write_usize(rec.events.len());
        for e in &rec.events {
            e.state_hash(&mut h);
        }
        h.write_usize(rec.marked_files.len());
        for f in &rec.marked_files {
            h.write_str(f);
        }
        h.write_bool(rec.waypoint_done);
        assert!(!rec.revoked && !rec.suspended);
        assert_eq!(rec.hash_value(), h.finish());
    }
}
