//! The fault injector: drives a [`FaultPlan`] against a live drone.
//!
//! One injector drives one plan through a [`FaultClock`] over the
//! plan's arm/disarm windows, and is called once per simulated second
//! (from the flight loop's observer hook) with the tick index and the
//! drone. At each tick it applies every fault transition scheduled
//! there — arming faults into the subsystem the fault targets,
//! disarming them back out — and records what it did in a
//! human-readable action log for tests.
//!
//! Determinism contract: with an empty plan the injector does zero
//! work and draws nothing from any RNG stream, so an
//! injector-observed flight is bit-identical to an unobserved one.
//! With a non-empty plan, every draw it makes (the burst-loss uplink
//! seed) comes from the kernel RNG stream at a plan-determined tick,
//! so the same plan replays identically under the dual-run sanitizer.

use androne_binder::BinderFaultInjection;
use androne_hal::SensorFaultMode;
use androne_obs::{Subsystem, TraceEvent};
use androne_simkern::{FaultClock, FaultKind, FaultPlan, LinkModel, SensorChannel};
use rand::Rng;

use crate::drone::Drone;
use crate::probe::FlightProbe;

/// Applies a fault plan to a drone, one simulated second at a time.
pub struct FaultInjector {
    plan: FaultPlan,
    clock: FaultClock,
    actions: Vec<String>,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            clock: FaultClock::new(plan.events.iter().map(|e| (e.arm_tick, e.disarm_tick))),
            plan,
            actions: Vec::new(),
        }
    }

    /// The plan being driven.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Human-readable log of every transition applied so far.
    pub fn actions(&self) -> &[String] {
        &self.actions
    }

    /// Applies every fault transition scheduled at `tick` (whole
    /// simulated seconds since launch). Call once per second from the
    /// flight observer.
    pub fn apply_tick(&mut self, tick: u64, drone: &mut Drone) {
        if self.plan.is_empty() {
            return;
        }
        let transitions = self.clock.transitions_at(tick);
        for t in transitions {
            let Some(kind) = self.plan.events.get(t.index).map(|e| e.kind.clone()) else {
                continue;
            };
            self.apply_transition(tick, kind, t.armed, drone);
        }
    }

    /// Records one applied transition: the action log line, a fault
    /// counter bump, and a `FaultEdge` trace record on the drone's
    /// bus.
    fn record(&mut self, drone: &Drone, kind: &'static str, armed: bool, action: String) {
        drone.obs.count("fault.transitions", 1);
        drone.obs.emit(Subsystem::Fault, || TraceEvent::FaultEdge {
            kind,
            armed,
            detail: action.clone(),
        });
        self.actions.push(action);
    }

    fn apply_transition(&mut self, tick: u64, kind: FaultKind, armed: bool, drone: &mut Drone) {
        let verb = if armed { "arm" } else { "disarm" };
        match kind {
            FaultKind::SensorDropout { channel } => {
                set_channel_mode(drone, channel, on_off(armed, SensorFaultMode::Dropout));
                let action = format!("t={tick} {verb} dropout {}", channel_name(channel));
                self.record(drone, "sensor-dropout", armed, action);
            }
            FaultKind::SensorStuck { channel } => {
                set_channel_mode(drone, channel, on_off(armed, SensorFaultMode::Stuck));
                let action = format!("t={tick} {verb} stuck {}", channel_name(channel));
                self.record(drone, "sensor-stuck", armed, action);
            }
            FaultKind::SensorBias { channel, bias } => {
                set_channel_mode(drone, channel, on_off(armed, SensorFaultMode::Bias(bias)));
                let action = format!(
                    "t={tick} {verb} bias({bias:.3}) {}",
                    channel_name(channel)
                );
                self.record(drone, "sensor-bias", armed, action);
            }
            FaultKind::GpsLoss => {
                // GPS loss is a dropout of the GPS channel: the
                // estimator dead-reckons on IMU + barometer.
                set_channel_mode(drone, SensorChannel::Gps, on_off(armed, SensorFaultMode::Dropout));
                self.record(drone, "gps-loss", armed, format!("t={tick} {verb} gps-loss"));
            }
            FaultKind::LinkPartition => {
                drone.proxy.set_link_partitioned(armed);
                self.record(
                    drone,
                    "link-partition",
                    armed,
                    format!("t={tick} {verb} link-partition"),
                );
            }
            FaultKind::LinkBurstLoss { burst } => {
                if armed {
                    let seed: u64 = drone.kernel.borrow_mut().rng().gen();
                    let mut model = LinkModel::cellular_lte();
                    model.burst = Some(burst);
                    drone.proxy.set_uplink_loss(model, seed);
                } else {
                    drone.proxy.clear_uplink_loss();
                }
                self.record(
                    drone,
                    "link-burst-loss",
                    armed,
                    format!("t={tick} {verb} link-burst-loss"),
                );
            }
            FaultKind::BinderFailure { period } => {
                drone.driver.set_fault_injection(if armed {
                    Some(BinderFaultInjection {
                        period,
                        timeout: false,
                    })
                } else {
                    None
                });
                let action = format!("t={tick} {verb} binder-failure/{period}");
                self.record(drone, "binder-failure", armed, action);
            }
            FaultKind::BinderTimeout { period } => {
                drone.driver.set_fault_injection(if armed {
                    Some(BinderFaultInjection {
                        period,
                        timeout: true,
                    })
                } else {
                    None
                });
                let action = format!("t={tick} {verb} binder-timeout/{period}");
                self.record(drone, "binder-timeout", armed, action);
            }
            FaultKind::ContainerCrash { target } => {
                // A named target crashes that virtual drone; `None`
                // falls back to the first deployed one (BTreeMap
                // order). Disarm performs the supervised restart.
                let name = match target {
                    Some(t) if drone.vdrones.contains_key(&t) => t,
                    Some(t) => {
                        let action =
                            format!("t={tick} {verb} container-crash {t}: not deployed");
                        self.record(drone, "container-crash", armed, action);
                        return;
                    }
                    None => match drone.vdrones.keys().next().cloned() {
                        Some(first) => first,
                        None => {
                            let action =
                                format!("t={tick} {verb} container-crash: no vdrones");
                            self.record(drone, "container-crash", armed, action);
                            return;
                        }
                    },
                };
                let outcome = if armed {
                    drone.crash_vdrone(&name)
                } else {
                    drone.supervised_restart_vdrone(&name)
                };
                let action = match outcome {
                    Ok(()) => format!("t={tick} {verb} container-crash {name}"),
                    Err(e) => format!("t={tick} {verb} container-crash {name}: {e}"),
                };
                self.record(drone, "container-crash", armed, action);
            }
            FaultKind::BatteryDegradation { health } => {
                let health = if armed { health } else { 1.0 };
                drone
                    .board
                    .borrow()
                    .truth
                    .borrow_mut()
                    .battery_health = health;
                let action = format!("t={tick} {verb} battery-degradation({health:.2})");
                self.record(drone, "battery-degradation", armed, action);
            }
        }
    }
}

impl FlightProbe for FaultInjector {
    fn on_tick(&mut self, tick: u64, drone: &mut Drone) {
        self.apply_tick(tick, drone);
    }
}

fn on_off(armed: bool, mode: SensorFaultMode) -> SensorFaultMode {
    if armed {
        mode
    } else {
        SensorFaultMode::Nominal
    }
}

fn set_channel_mode(drone: &mut Drone, channel: SensorChannel, mode: SensorFaultMode) {
    let mut board = drone.board.borrow_mut();
    match channel {
        SensorChannel::Imu => board.faults.imu = mode,
        SensorChannel::Gps => board.faults.gps = mode,
        SensorChannel::Baro => board.faults.baro = mode,
    }
}

fn channel_name(channel: SensorChannel) -> &'static str {
    match channel {
        SensorChannel::Imu => "imu",
        SensorChannel::Gps => "gps",
        SensorChannel::Baro => "baro",
    }
}
