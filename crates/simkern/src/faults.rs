//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a seeded schedule of typed fault events, each
//! arming at an exact simulated tick and disarming at a later one.
//! Plans are generated from a dedicated [`SmallRng`] stream seeded by
//! the plan seed alone, so:
//!
//! - the same `(seed, horizon)` always yields the same plan, and
//! - building or running an **empty** plan consumes zero draws from
//!   the kernel or board RNG streams — a flight with no faults is
//!   byte-identical to a flight on a build with no fault machinery.
//!
//! The plan itself is pure data; it knows nothing about drones. A
//! [`FaultClock`] walks the schedule's arm/disarm windows tick by
//! tick and reports which events arm or disarm, and the consumer (the
//! fault injector in the core crate) maps each [`FaultKind`] onto the
//! simulated hardware. The attack injector drives the same clock
//! over its attack plan's windows. Plans hash through [`StateHash`],
//! so the schedule is part of the dual-run determinism check.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::net::BurstLoss;
use crate::statehash::{StateHash, StateHasher};

/// Which simulated sensor a sensor fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorChannel {
    /// The inertial measurement unit (accelerometer + gyro).
    Imu,
    /// The GPS receiver.
    Gps,
    /// The barometric altimeter.
    Baro,
}

impl SensorChannel {
    const ALL: [SensorChannel; 3] = [SensorChannel::Imu, SensorChannel::Gps, SensorChannel::Baro];

    fn tag(self) -> u8 {
        match self {
            SensorChannel::Imu => 0,
            SensorChannel::Gps => 1,
            SensorChannel::Baro => 2,
        }
    }
}

impl StateHash for SensorChannel {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u8(self.tag());
    }
}

/// A typed fault the injector can arm on the simulated system.
///
/// Not `Copy`: a [`FaultKind::ContainerCrash`] may carry the name of
/// the virtual drone it targets.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The sensor stops producing samples entirely.
    SensorDropout { channel: SensorChannel },
    /// The sensor keeps repeating its last good sample.
    SensorStuck { channel: SensorChannel },
    /// The sensor reports with a constant additive bias.
    SensorBias { channel: SensorChannel, bias: f64 },
    /// Total GPS loss (alias for a GPS dropout; the estimator must
    /// dead-reckon on IMU alone).
    GpsLoss,
    /// The ground↔drone command link is fully partitioned.
    LinkPartition,
    /// The command uplink degrades to Gilbert–Elliott burst loss.
    LinkBurstLoss { burst: BurstLoss },
    /// Every `period`-th Binder transaction fails.
    BinderFailure { period: u32 },
    /// Every `period`-th Binder transaction times out.
    BinderTimeout { period: u32 },
    /// A virtual-drone container crashes; on disarm it is restarted
    /// from its checkpoint under supervision. `target` names the
    /// virtual drone to crash; `None` falls back to the first
    /// deployed one (legacy single-tenant plans).
    ContainerCrash { target: Option<String> },
    /// Battery cells degrade: the pack delivers each joule of thrust
    /// at `1/health` times the electrical cost.
    BatteryDegradation { health: f64 },
}

impl FaultKind {
    fn tag(&self) -> u8 {
        match self {
            FaultKind::SensorDropout { .. } => 0,
            FaultKind::SensorStuck { .. } => 1,
            FaultKind::SensorBias { .. } => 2,
            FaultKind::GpsLoss => 3,
            FaultKind::LinkPartition => 4,
            FaultKind::LinkBurstLoss { .. } => 5,
            FaultKind::BinderFailure { .. } => 6,
            FaultKind::BinderTimeout { .. } => 7,
            FaultKind::ContainerCrash { .. } => 8,
            FaultKind::BatteryDegradation { .. } => 9,
        }
    }
}

impl StateHash for FaultKind {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u8(self.tag());
        match self {
            FaultKind::SensorDropout { channel } | FaultKind::SensorStuck { channel } => {
                channel.state_hash(h);
            }
            FaultKind::SensorBias { channel, bias } => {
                channel.state_hash(h);
                h.write_f64(*bias);
            }
            FaultKind::GpsLoss | FaultKind::LinkPartition => {}
            FaultKind::ContainerCrash { target } => {
                match target {
                    Some(name) => {
                        h.write_u8(1);
                        h.write_str(name);
                    }
                    None => h.write_u8(0),
                }
            }
            FaultKind::LinkBurstLoss { burst } => {
                h.write_f64(burst.p_good_to_bad);
                h.write_f64(burst.p_bad_to_good);
                h.write_f64(burst.loss_good);
                h.write_f64(burst.loss_bad);
            }
            FaultKind::BinderFailure { period } | FaultKind::BinderTimeout { period } => {
                h.write_u32(*period);
            }
            FaultKind::BatteryDegradation { health } => h.write_f64(*health),
        }
    }
}

/// One scheduled fault: arms at `arm_tick` (inclusive) and disarms
/// at `disarm_tick` (exclusive). Ticks are the per-second observer
/// ticks of the flight loop, i.e. whole simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub kind: FaultKind,
    pub arm_tick: u64,
    pub disarm_tick: u64,
}

impl StateHash for FaultEvent {
    fn state_hash(&self, h: &mut StateHasher) {
        self.kind.state_hash(h);
        h.write_u64(self.arm_tick);
        h.write_u64(self.disarm_tick);
    }
}

/// A seeded schedule of fault events over one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Events in generation order; overlaps are allowed.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events. Running it must not perturb anything.
    pub fn empty() -> FaultPlan {
        FaultPlan { seed: 0, events: Vec::new() }
    }

    /// A plan with exactly one event, for targeted tests.
    pub fn single(kind: FaultKind, arm_tick: u64, disarm_tick: u64) -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: vec![FaultEvent { kind, arm_tick, disarm_tick }],
        }
    }

    /// Generates a random plan for a flight of `horizon_ticks`
    /// seconds from a dedicated RNG stream seeded by `seed` alone.
    pub fn generate(seed: u64, horizon_ticks: u64) -> FaultPlan {
        // No targets: container crashes fall back to the first
        // deployed virtual drone. The draw sequence is identical to
        // the targeted variant with an empty set, so plans generated
        // before targeting existed reproduce bit-for-bit.
        Self::generate_targeted(seed, horizon_ticks, &[])
    }

    /// Like [`FaultPlan::generate`], but container-crash events pick
    /// their victim deterministically from `targets` (the set of
    /// virtual drones expected on the flight).
    pub fn generate_targeted(seed: u64, horizon_ticks: u64, targets: &[String]) -> FaultPlan {
        let mut rng = crate::rng::fault_stream_rng(seed);
        let horizon = horizon_ticks.max(12);
        let count = rng.gen_range(2..=5);
        let mut events = Vec::with_capacity(count);
        let mut crash_used = false;
        for _ in 0..count {
            let kind = match rng.gen_range(0..10u32) {
                0 => FaultKind::SensorDropout { channel: Self::pick_channel(&mut rng) },
                1 => FaultKind::SensorStuck { channel: Self::pick_channel(&mut rng) },
                2 => FaultKind::SensorBias {
                    channel: Self::pick_channel(&mut rng),
                    bias: rng.gen_range(-2.0..2.0),
                },
                3 => FaultKind::GpsLoss,
                4 => FaultKind::LinkPartition,
                5 => FaultKind::LinkBurstLoss { burst: BurstLoss::cellular_fade() },
                6 => FaultKind::BinderFailure { period: rng.gen_range(2..6) },
                7 => FaultKind::BinderTimeout { period: rng.gen_range(2..6) },
                8 if !crash_used => {
                    crash_used = true;
                    FaultKind::ContainerCrash { target: Self::pick_target(&mut rng, targets) }
                }
                8 => FaultKind::GpsLoss,
                _ => FaultKind::BatteryDegradation { health: rng.gen_range(0.6..0.95) },
            };
            // Arm within the first three quarters so the fault has
            // airtime; keep windows short enough that failsafes can
            // hand control back before the flight budget runs out.
            let arm_tick = rng.gen_range(4..horizon * 3 / 4);
            let duration = rng.gen_range(3u64..=15);
            events.push(FaultEvent { kind, arm_tick, disarm_tick: arm_tick + duration });
        }
        FaultPlan { seed, events }
    }

    /// Draws a crash victim from `targets`; `None` (first-deployed
    /// fallback) when the set is empty. Drawing only on a non-empty
    /// set keeps legacy `generate` sequences unchanged.
    fn pick_target(rng: &mut SmallRng, targets: &[String]) -> Option<String> {
        if targets.is_empty() {
            None
        } else {
            targets.get(rng.gen_range(0..targets.len())).cloned()
        }
    }

    fn pick_channel(rng: &mut SmallRng) -> SensorChannel {
        SensorChannel::ALL[rng.gen_range(0..SensorChannel::ALL.len())]
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl StateHash for FaultPlan {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.seed);
        h.write_usize(self.events.len());
        for e in &self.events {
            e.state_hash(h);
        }
    }
}

/// A cloud-side fault: the failure domain is the AnDrone service
/// itself (portal, planner, repository, storage), not the drone.
///
/// Cloud faults are windowed by fleet *wave* (one planning round =
/// one batch of physical flights), not by simulated tick: the cloud
/// is consulted between flights, so a finer clock would never be
/// observed.
#[derive(Debug, Clone, PartialEq)]
pub enum CloudFaultKind {
    /// The customer portal is down: order intake and flight planning
    /// are unavailable for the wave; pending orders queue.
    PortalDown,
    /// The virtual-drone repository is unreachable: interrupted
    /// drones cannot be checked out for resume this wave.
    VdrUnavailable,
    /// Cloud object storage rejects writes. The first
    /// `transient_failures` attempts of an offload fail (exercising
    /// the deterministic retry/backoff path); if retries are
    /// exhausted the offload buffers on-drone and drains on heal.
    StorageWriteFail { transient_failures: u32 },
    /// The flight planner rejects the wave's solution (capacity
    /// exhausted); orders stay queued for the next wave.
    PlannerReject,
}

impl CloudFaultKind {
    fn tag(&self) -> u8 {
        match self {
            CloudFaultKind::PortalDown => 0,
            CloudFaultKind::VdrUnavailable => 1,
            CloudFaultKind::StorageWriteFail { .. } => 2,
            CloudFaultKind::PlannerReject => 3,
        }
    }
}

impl StateHash for CloudFaultKind {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u8(self.tag());
        if let CloudFaultKind::StorageWriteFail { transient_failures } = self {
            h.write_u32(*transient_failures);
        }
    }
}

/// One scheduled cloud fault: armed for waves in
/// `[arm_wave, disarm_wave)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudFaultEvent {
    pub kind: CloudFaultKind,
    pub arm_wave: u64,
    pub disarm_wave: u64,
}

impl StateHash for CloudFaultEvent {
    fn state_hash(&self, h: &mut StateHasher) {
        self.kind.state_hash(h);
        h.write_u64(self.arm_wave);
        h.write_u64(self.disarm_wave);
    }
}

/// A fault schedule for a whole fleet run: per-flight plans,
/// correlated events shared by every flight (a regional GPS-denial
/// window, weather-grade battery degradation, a link partition), and
/// cloud-side faults windowed by wave.
///
/// Like [`FaultPlan`], the fleet plan is pure data generated from a
/// dedicated RNG stream; an empty fleet plan injects nothing and
/// must leave the run bit-identical to a build with no fault
/// machinery at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultPlan {
    /// The seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// Per-physical-flight plans, indexed by flight order.
    pub flights: Vec<FaultPlan>,
    /// Events injected into *every* flight of the run.
    pub correlated: Vec<FaultEvent>,
    /// Cloud-side faults, windowed by wave index.
    pub cloud: Vec<CloudFaultEvent>,
}

impl FleetFaultPlan {
    /// A plan injecting nothing anywhere.
    pub fn empty() -> FleetFaultPlan {
        FleetFaultPlan { seed: 0, flights: Vec::new(), correlated: Vec::new(), cloud: Vec::new() }
    }

    pub fn is_empty(&self) -> bool {
        self.flights.iter().all(FaultPlan::is_empty)
            && self.correlated.is_empty()
            && self.cloud.is_empty()
    }

    /// The single-flight plan effective for physical flight `flight`:
    /// that flight's own events followed by every correlated event.
    /// Flights past the planned horizon get correlated events only.
    pub fn effective_plan(&self, flight: usize) -> FaultPlan {
        let mut events = self
            .flights
            .get(flight)
            .map(|p| p.events.clone())
            .unwrap_or_default();
        events.extend(self.correlated.iter().cloned());
        FaultPlan { seed: self.seed, events }
    }

    /// The cloud fault kinds armed for `wave`, in schedule order.
    pub fn cloud_armed(&self, wave: u64) -> Vec<CloudFaultKind> {
        self.cloud
            .iter()
            .filter(|e| wave >= e.arm_wave && wave < e.disarm_wave)
            .map(|e| e.kind.clone())
            .collect()
    }

    /// The sub-plan containing only tenant-targeted container
    /// crashes (no correlated or cloud events). Crashing one tenant
    /// must never change a healthy tenant's outcome, so this slice of
    /// the plan is what the fleet gate replays against the no-fault
    /// baseline.
    pub fn crash_only(&self) -> FleetFaultPlan {
        let flights = self
            .flights
            .iter()
            .map(|p| FaultPlan {
                seed: p.seed,
                events: p
                    .events
                    .iter()
                    .filter(|e| {
                        matches!(e.kind, FaultKind::ContainerCrash { target: Some(_) })
                    })
                    .cloned()
                    .collect(),
            })
            .collect();
        FleetFaultPlan { seed: self.seed, flights, correlated: Vec::new(), cloud: Vec::new() }
    }

    /// The sorted, deduplicated set of tenants named by container
    /// crashes anywhere in the plan.
    pub fn crash_targets(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .flights
            .iter()
            .flat_map(|p| p.events.iter())
            .chain(self.correlated.iter())
            .filter_map(|e| match &e.kind {
                FaultKind::ContainerCrash { target: Some(name) } => Some(name.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Generates a fleet plan for `n_flights` physical flights
    /// carrying `tenants`, each flight `horizon_ticks` seconds long,
    /// from a dedicated RNG stream seeded by `seed` alone.
    ///
    /// Container crashes always name a victim (drawn from `tenants`)
    /// so the healthy set is well defined; correlated events are
    /// drawn from the shared-environment family (GPS denial, link
    /// partition/fade, battery weather); cloud faults use single-wave
    /// windows so the fleet always makes progress between outages.
    ///
    /// The per-flight family spans every [`FaultKind`] except
    /// [`FaultKind::LinkPartition`], which is correlated-only: a
    /// partition long enough to matter latches the RTL failsafe on
    /// every flight sharing the link, so it is modeled as a shared
    /// environment event rather than a single-drone one.
    pub fn generate(
        seed: u64,
        n_flights: usize,
        tenants: &[String],
        horizon_ticks: u64,
    ) -> FleetFaultPlan {
        let mut rng = crate::rng::fleet_fault_stream_rng(seed);
        let horizon = horizon_ticks.max(12);
        let arm_span = (horizon * 3 / 4).max(5);

        let mut flights = Vec::with_capacity(n_flights);
        for _ in 0..n_flights {
            let count = rng.gen_range(0..=2);
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let kind = match rng.gen_range(0..9u32) {
                    0 => FaultKind::SensorDropout { channel: FaultPlan::pick_channel(&mut rng) },
                    1 => FaultKind::SensorStuck { channel: FaultPlan::pick_channel(&mut rng) },
                    2 => FaultKind::SensorBias {
                        channel: FaultPlan::pick_channel(&mut rng),
                        bias: rng.gen_range(-1.5..1.5),
                    },
                    3 => FaultKind::GpsLoss,
                    4 => FaultKind::LinkBurstLoss { burst: BurstLoss::cellular_fade() },
                    5 => FaultKind::BinderFailure { period: rng.gen_range(2..6) },
                    6 => FaultKind::BinderTimeout { period: rng.gen_range(2..6) },
                    7 if !tenants.is_empty() => FaultKind::ContainerCrash {
                        target: FaultPlan::pick_target(&mut rng, tenants),
                    },
                    7 => FaultKind::GpsLoss,
                    _ => FaultKind::BatteryDegradation { health: rng.gen_range(0.7..0.95) },
                };
                let arm_tick = rng.gen_range(4..4 + arm_span);
                let duration = rng.gen_range(3u64..=10);
                events.push(FaultEvent { kind, arm_tick, disarm_tick: arm_tick + duration });
            }
            flights.push(FaultPlan { seed, events });
        }

        let correlated_count = rng.gen_range(0..=2);
        let mut correlated = Vec::with_capacity(correlated_count);
        for _ in 0..correlated_count {
            let kind = match rng.gen_range(0..4u32) {
                0 => FaultKind::GpsLoss,
                // A long shared partition latches the RTL failsafe
                // and ends flights early — the path that exercises
                // cross-flight resume.
                1 => FaultKind::LinkPartition,
                2 => FaultKind::LinkBurstLoss { burst: BurstLoss::cellular_fade() },
                _ => FaultKind::BatteryDegradation { health: rng.gen_range(0.75..0.95) },
            };
            let duration = if matches!(kind, FaultKind::LinkPartition) {
                rng.gen_range(12u64..=20)
            } else {
                rng.gen_range(4u64..=12)
            };
            let arm_tick = rng.gen_range(4..4 + arm_span);
            correlated.push(FaultEvent { kind, arm_tick, disarm_tick: arm_tick + duration });
        }

        let waves = n_flights.max(1) as u64;
        let cloud_count = rng.gen_range(0..=2);
        let mut cloud = Vec::with_capacity(cloud_count);
        for _ in 0..cloud_count {
            let kind = match rng.gen_range(0..4u32) {
                0 => CloudFaultKind::PortalDown,
                1 => CloudFaultKind::VdrUnavailable,
                2 => CloudFaultKind::StorageWriteFail {
                    transient_failures: rng.gen_range(1..=5),
                },
                _ => CloudFaultKind::PlannerReject,
            };
            let arm_wave = rng.gen_range(0..waves);
            cloud.push(CloudFaultEvent { kind, arm_wave, disarm_wave: arm_wave + 1 });
        }

        FleetFaultPlan { seed, flights, correlated, cloud }
    }
}

impl StateHash for FleetFaultPlan {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.seed);
        h.write_usize(self.flights.len());
        for p in &self.flights {
            p.state_hash(h);
        }
        h.write_usize(self.correlated.len());
        for e in &self.correlated {
            e.state_hash(h);
        }
        h.write_usize(self.cloud.len());
        for e in &self.cloud {
            e.state_hash(h);
        }
    }
}

/// A transition reported by the [`FaultClock`]: window `index` armed
/// (`armed == true`) or disarmed at the queried tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTransition {
    pub index: usize,
    pub armed: bool,
}

/// Walks a schedule's `(arm_tick, disarm_tick)` windows tick by tick,
/// reporting arm/disarm edges. The clock knows only the windows: each
/// injector (faults, attacks) keeps its own plan and maps a
/// transition's `index` back onto its own event.
#[derive(Debug, Clone)]
pub struct FaultClock {
    windows: Vec<(u64, u64)>,
    active: Vec<bool>,
}

impl FaultClock {
    /// A clock over `windows`, one per event in plan order; each arms
    /// at its first tick (inclusive) and disarms at its second
    /// (exclusive).
    pub fn new(windows: impl IntoIterator<Item = (u64, u64)>) -> FaultClock {
        let windows: Vec<(u64, u64)> = windows.into_iter().collect();
        let active = vec![false; windows.len()];
        FaultClock { windows, active }
    }

    /// Whether window `index` is currently armed.
    pub fn is_armed(&self, index: usize) -> bool {
        self.active.get(index).copied().unwrap_or(false)
    }

    /// Advances the clock to `tick` and returns the edges that fire
    /// there, in plan order (arms before disarms never interleave
    /// within one window since windows are non-empty). Skipped ticks
    /// still deliver their edges on the next query.
    pub fn transitions_at(&mut self, tick: u64) -> Vec<FaultTransition> {
        let mut out = Vec::new();
        for (i, &(arm, disarm)) in self.windows.iter().enumerate() {
            let should_be_armed = tick >= arm && tick < disarm;
            if should_be_armed != self.active[i] {
                self.active[i] = should_be_armed;
                out.push(FaultTransition { index: i, armed: should_be_armed });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(42, 120);
        let b = FaultPlan::generate(42, 120);
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
        let c = FaultPlan::generate(43, 120);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn generated_events_fit_the_horizon() {
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed, 120);
            assert!(
                (2..=5).contains(&plan.events.len()),
                "seed {seed}: {} events",
                plan.events.len()
            );
            for e in &plan.events {
                assert!(e.arm_tick >= 4);
                assert!(e.disarm_tick > e.arm_tick);
                assert!(e.arm_tick < 120 * 3 / 4);
            }
            let crashes = plan
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::ContainerCrash { .. }))
                .count();
            assert!(crashes <= 1, "seed {seed}: {crashes} container crashes");
        }
    }

    #[test]
    fn targeted_generation_names_deployed_tenants() {
        let targets = vec!["vd-a".to_string(), "vd-b".to_string(), "vd-c".to_string()];
        let mut named = 0;
        for seed in 0..256 {
            let plan = FaultPlan::generate_targeted(seed, 120, &targets);
            for e in &plan.events {
                if let FaultKind::ContainerCrash { target } = &e.kind {
                    let t = target.as_deref().expect("targeted plans always name a victim");
                    assert!(targets.iter().any(|x| x == t), "unknown target {t}");
                    named += 1;
                }
            }
        }
        assert!(named > 0, "no crash drawn across 256 seeds");
    }

    #[test]
    fn untargeted_generation_matches_legacy_sequence() {
        for seed in 0..64 {
            assert_eq!(
                FaultPlan::generate(seed, 120),
                FaultPlan::generate_targeted(seed, 120, &[]),
            );
        }
    }

    #[test]
    fn seed_sweep_reaches_every_fault_kind() {
        let targets = vec!["vd-a".to_string()];
        let mut seen = [false; 10];
        for seed in 0..512 {
            for e in &FaultPlan::generate_targeted(seed, 120, &targets).events {
                seen[e.kind.tag() as usize] = true;
            }
        }
        for (tag, hit) in seen.iter().enumerate() {
            assert!(hit, "FaultKind tag {tag} never drawn across 512 seeds");
        }
    }

    #[test]
    fn fleet_seed_sweep_reaches_every_fault_kind() {
        let tenants = vec!["vd-a".to_string(), "vd-b".to_string()];
        let mut flight_seen = [false; 10];
        let mut cloud_seen = [false; 4];
        let mut named_crash = false;
        for seed in 0..512 {
            let plan = FleetFaultPlan::generate(seed, 3, &tenants, 90);
            for e in plan.flights.iter().flat_map(|p| p.events.iter()) {
                flight_seen[e.kind.tag() as usize] = true;
                if matches!(&e.kind, FaultKind::ContainerCrash { target: Some(_) }) {
                    named_crash = true;
                }
            }
            for e in &plan.correlated {
                flight_seen[e.kind.tag() as usize] = true;
            }
            for e in &plan.cloud {
                cloud_seen[e.kind.tag() as usize] = true;
            }
        }
        // LinkPartition (tag 4) is correlated-only by design; folding
        // correlated events in, every FaultKind must be reachable.
        for (tag, hit) in flight_seen.iter().enumerate() {
            assert!(hit, "FaultKind tag {tag} unreachable from fleet plans");
        }
        for (tag, hit) in cloud_seen.iter().enumerate() {
            assert!(hit, "CloudFaultKind tag {tag} unreachable from fleet plans");
        }
        assert!(named_crash, "no named container crash across 512 seeds");
    }

    #[test]
    fn fleet_generation_is_deterministic() {
        let tenants = vec!["vd-a".to_string(), "vd-b".to_string()];
        let a = FleetFaultPlan::generate(7, 3, &tenants, 90);
        let b = FleetFaultPlan::generate(7, 3, &tenants, 90);
        assert_eq!(a, b);
        assert_eq!(a.hash_value(), b.hash_value());
        assert_eq!(a.flights.len(), 3);
        let c = FleetFaultPlan::generate(8, 3, &tenants, 90);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn fleet_crashes_always_name_a_victim() {
        let tenants = vec!["vd-a".to_string(), "vd-b".to_string()];
        for seed in 0..256 {
            let plan = FleetFaultPlan::generate(seed, 3, &tenants, 90);
            for e in plan.flights.iter().flat_map(|p| p.events.iter()) {
                if let FaultKind::ContainerCrash { target } = &e.kind {
                    assert!(target.is_some(), "seed {seed}: unnamed fleet crash");
                }
            }
            for t in plan.crash_targets() {
                assert!(tenants.contains(&t));
            }
        }
    }

    #[test]
    fn empty_fleet_plan_yields_empty_effective_plans() {
        let fleet = FleetFaultPlan::empty();
        assert!(fleet.is_empty());
        for flight in 0..4 {
            let p = fleet.effective_plan(flight);
            assert!(p.is_empty());
            assert_eq!(p, FaultPlan::empty());
        }
        assert!(fleet.cloud_armed(0).is_empty());
    }

    #[test]
    fn effective_plan_merges_flight_and_correlated_events() {
        let mut fleet = FleetFaultPlan::empty();
        fleet.flights.push(FaultPlan::single(FaultKind::GpsLoss, 5, 10));
        fleet.correlated.push(FaultEvent {
            kind: FaultKind::LinkPartition,
            arm_tick: 20,
            disarm_tick: 40,
        });
        let p0 = fleet.effective_plan(0);
        assert_eq!(p0.events.len(), 2);
        assert_eq!(p0.events[0].kind, FaultKind::GpsLoss);
        assert_eq!(p0.events[1].kind, FaultKind::LinkPartition);
        // Past the planned horizon: correlated events only.
        let p1 = fleet.effective_plan(1);
        assert_eq!(p1.events.len(), 1);
        assert_eq!(p1.events[0].kind, FaultKind::LinkPartition);
    }

    #[test]
    fn cloud_windows_are_wave_scoped() {
        let mut fleet = FleetFaultPlan::empty();
        fleet.cloud.push(CloudFaultEvent {
            kind: CloudFaultKind::PortalDown,
            arm_wave: 1,
            disarm_wave: 2,
        });
        fleet.cloud.push(CloudFaultEvent {
            kind: CloudFaultKind::StorageWriteFail { transient_failures: 2 },
            arm_wave: 1,
            disarm_wave: 3,
        });
        assert!(fleet.cloud_armed(0).is_empty());
        assert_eq!(
            fleet.cloud_armed(1),
            vec![
                CloudFaultKind::PortalDown,
                CloudFaultKind::StorageWriteFail { transient_failures: 2 },
            ]
        );
        assert_eq!(
            fleet.cloud_armed(2),
            vec![CloudFaultKind::StorageWriteFail { transient_failures: 2 }]
        );
    }

    #[test]
    fn crash_only_keeps_named_crashes_and_drops_everything_else() {
        let mut fleet = FleetFaultPlan::empty();
        fleet.flights.push(FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    kind: FaultKind::ContainerCrash { target: Some("vd-a".into()) },
                    arm_tick: 5,
                    disarm_tick: 9,
                },
                FaultEvent { kind: FaultKind::GpsLoss, arm_tick: 6, disarm_tick: 12 },
                FaultEvent {
                    kind: FaultKind::ContainerCrash { target: None },
                    arm_tick: 7,
                    disarm_tick: 11,
                },
            ],
        });
        fleet.correlated.push(FaultEvent {
            kind: FaultKind::LinkPartition,
            arm_tick: 3,
            disarm_tick: 30,
        });
        fleet.cloud.push(CloudFaultEvent {
            kind: CloudFaultKind::PlannerReject,
            arm_wave: 0,
            disarm_wave: 1,
        });
        let crash = fleet.crash_only();
        assert_eq!(crash.flights.len(), 1);
        assert_eq!(crash.flights[0].events.len(), 1, "unnamed crash dropped too");
        assert!(crash.correlated.is_empty());
        assert!(crash.cloud.is_empty());
        assert_eq!(fleet.crash_targets(), vec!["vd-a".to_string()]);
    }

    #[test]
    fn clock_reports_arm_and_disarm_edges() {
        let mut clock = FaultClock::new([(10, 20)]);
        assert!(clock.transitions_at(9).is_empty());
        assert_eq!(
            clock.transitions_at(10),
            vec![FaultTransition { index: 0, armed: true }]
        );
        assert!(clock.transitions_at(15).is_empty());
        assert!(clock.is_armed(0));
        assert_eq!(
            clock.transitions_at(20),
            vec![FaultTransition { index: 0, armed: false }]
        );
        assert!(!clock.is_armed(0));
        assert!(clock.transitions_at(21).is_empty());
    }

    #[test]
    fn empty_plan_never_transitions() {
        let mut clock = FaultClock::new([]);
        for tick in 0..300 {
            assert!(clock.transitions_at(tick).is_empty());
        }
    }

    #[test]
    fn clock_handles_skipped_ticks() {
        // A flight that ends early may jump the clock past windows;
        // the disarm edge still fires on the next query.
        let mut clock = FaultClock::new([(5, 8)]);
        assert_eq!(clock.transitions_at(6).len(), 1);
        assert_eq!(clock.transitions_at(30).len(), 1);
        assert!(!clock.is_armed(0));
    }
}
