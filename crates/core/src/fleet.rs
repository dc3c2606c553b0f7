//! The fleet executor: multi-wave, multi-flight service runs under a
//! [`FleetFaultPlan`].
//!
//! The paper's lifecycle (Section 2, Figure 4) spans *waves* of
//! planning rounds: orders are planned onto physical flights, flights
//! fly, interrupted virtual drones are saved in the VDR and re-planned
//! onto the next wave until they complete — or, when the service
//! cannot complete them, their unserved allotment is refunded. This
//! module drives that loop deterministically under injected faults on
//! both failure domains:
//!
//! - **drone-side** — each physical flight runs a [`FaultInjector`]
//!   over `faults.effective_plan(flight_index)` (the flight's own
//!   events plus the fleet's correlated events);
//! - **cloud-side** — each wave arms `faults.cloud_armed(wave)` on a
//!   [`FallibleCloud`], so portal outages queue orders, VDR outages
//!   defer resumes, and storage outages buffer offloads.
//!
//! Everything is a pure function of the config seed and the fault
//! plan: per-flight kernel seeds are FNV-mixed from
//! `(seed, wave, flight_index)`, iteration orders are `BTreeMap`
//! orders, and the RNG streams never observe wall clock. Two runs of
//! [`FleetSpec::run`] with equal inputs are bit-identical — the fleet
//! chaos gate's first invariant.
//!
//! ## Deterministic parallel waves
//!
//! The fly phase runs on a [`WorkerPool`] when
//! [`FleetConfig::threads`] > 1. Each flight becomes a
//! single-threaded *island*: a `Send`-able work item (the plan, the
//! deploy sources, the effective fault plan, and the flight's RNG
//! substream seed) that boots its own drone on a worker thread. The
//! drone's `Rc`/`RefCell` hot paths never cross a thread. Cloud-side
//! effects — VDR commits, billing, degraded-mode log lines, flight
//! ids — are replayed at a *merge* step in plan order, so the cloud
//! observes the exact sequential history regardless of which worker
//! finished first. Per-flight seeds and fault plans depend on the
//! global flight index, and a scrapped flight consumes no index, so
//! each batch flies its islands at consecutive indices (as if all of
//! them fly) and merges only up to the first flight that takes no
//! index; the rest of the batch goes back on the wave's plan queue
//! and is re-batched at the corrected index. The result:
//! `fleet_digest()`, every tenant's `outcome_bits()`, and the merged
//! metrics digest are bit-identical at any thread count, and
//! `threads = 1` is byte-identical to the historical sequential
//! executor.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use androne_android::AndroneManifest;
use androne_cloud::{FallibleCloud, PlacedOrder, SaveReason, SavedVirtualDrone};
use androne_hal::GeoPoint;
use androne_obs::{MetricsRegistry, ObsHandle, Subsystem, TraceSegment};
use androne_planner::FlightPlan;
use androne_simkern::{substream_seed, FaultPlan, FleetFaultPlan, StateHasher};
use androne_vdc::{VirtualDroneSpec, WatchdogConfig};
use androne_workloads::{AdaptivePlan, AttackPlan};

use crate::adaptive::AdaptiveInjector;
use crate::attack::{AttackDefense, AttackInjector, RtMonitor};
use crate::drone::{Drone, DroneError};
use crate::flight_exec::{execute_flight_probed, EndReason};
use crate::injector::FaultInjector;
use crate::pool::{WorkerError, WorkerPool};
use crate::probe::{DigestProbe, ProbeStack};

/// One customer order in a fleet run.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// The virtual drone's name (unique across the run).
    pub vd_name: String,
    /// The billing account.
    pub user: String,
    /// The ordered mission.
    pub spec: VirtualDroneSpec,
}

/// Configuration for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Launch base for every flight.
    pub base: GeoPoint,
    /// Root seed; all per-flight seeds derive from it.
    pub seed: u64,
    /// Physical drones available per wave.
    pub fleet_size: usize,
    /// The tenants to serve.
    pub tenants: Vec<FleetTenant>,
    /// Planning rounds before unresolved tenants are refunded.
    pub max_waves: u64,
    /// Per-flight simulated-time safety cap, seconds.
    pub max_sim_seconds: f64,
    /// VDC watchdog for every flight (`None` disables it).
    pub watchdog: Option<WatchdogConfig>,
    /// Worker threads for the fly phase. `0` and `1` both run
    /// sequentially on the caller's thread; any width produces
    /// bit-identical output (see the module docs).
    pub threads: usize,
}

/// How a tenant's order ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantResolution {
    /// Every waypoint was served; the drone is stored completed.
    Completed,
    /// The service could not finish the mission; the unserved energy
    /// allotment was refunded.
    Refunded,
}

/// Per-tenant accounting across the whole run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Billing account.
    pub user: String,
    /// Physical flights this tenant rode.
    pub flights_flown: u32,
    /// Waypoints completed across all flights.
    pub waypoints_completed: usize,
    /// Waypoints ordered.
    pub waypoints_total: usize,
    /// Energy allotted at order time, joules.
    pub energy_allotted_j: f64,
    /// Energy billed across all flights, joules.
    pub billed_energy_j: f64,
    /// Service time billed across all flights, seconds.
    pub billed_time_s: f64,
    /// Energy refunded on terminal failure, joules.
    pub refunded_energy_j: f64,
    /// Allotment left in the VDR after the final flight, joules.
    pub remaining_energy_j: f64,
    /// Time allotment left after the final flight, seconds.
    pub remaining_time_s: f64,
    /// Energy on the billing ledger for this tenant's account, joules
    /// (cross-checks `billed_energy_j`, which is accumulated from the
    /// VDC's allotment records instead).
    pub ledger_energy_j: f64,
    /// Refund on the billing ledger for this tenant's account, joules.
    pub ledger_refund_j: f64,
    /// How the order resolved.
    pub resolution: TenantResolution,
}

impl TenantOutcome {
    /// The tenant-visible outcome, folded to bits. Deliberately
    /// excludes run internals a tenant cannot observe (container
    /// ids, trace digests of *other* flights): this is the value the
    /// fleet gate compares between a faulted run and its no-fault
    /// baseline to prove cross-tenant containment.
    pub fn outcome_bits(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_str(&self.user);
        h.write_u32(self.flights_flown);
        h.write_usize(self.waypoints_completed);
        h.write_usize(self.waypoints_total);
        h.write_f64(self.energy_allotted_j);
        h.write_f64(self.billed_energy_j);
        h.write_f64(self.billed_time_s);
        h.write_f64(self.refunded_energy_j);
        h.write_f64(self.remaining_energy_j);
        h.write_f64(self.remaining_time_s);
        h.write_f64(self.ledger_energy_j);
        h.write_f64(self.ledger_refund_j);
        h.write_u8(match self.resolution {
            TenantResolution::Completed => 0,
            TenantResolution::Refunded => 1,
        });
        h.finish()
    }
}

/// One executed physical flight.
#[derive(Debug)]
pub struct FlightRecord {
    /// Planning wave the flight flew in.
    pub wave: u64,
    /// Global flight index (the fault plan's flight key).
    pub flight_index: usize,
    /// Virtual drones aboard, sorted.
    pub owners: Vec<String>,
    /// Whether the plan completed (vs. aborted/failsafe).
    pub completed: bool,
    /// Why the flight ended.
    pub end_reason: EndReason,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Battery energy drawn, joules.
    pub total_energy_j: f64,
    /// FNV fold of every per-tick component hash — the flight's
    /// trajectory fingerprint for dual-run comparison.
    pub trace_digest: u64,
    /// The injector's action log (arm/disarm decisions), fault
    /// transitions first, then attack transitions and ladder steps.
    pub injected: Vec<String>,
    /// RT-deadline monitor verdict `(samples, misses, max_us)` —
    /// `None` on unattacked flights, which carry no monitor.
    pub rt_deadline: Option<(u64, u64, f64)>,
}

/// The result of a fleet run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Every flight flown, in execution order.
    pub flights: Vec<FlightRecord>,
    /// Per-tenant accounting, keyed by virtual drone name.
    pub tenants: BTreeMap<String, TenantOutcome>,
    /// Waves actually run.
    pub waves_run: u64,
    /// The cloud façade's degraded-mode log.
    pub cloud_log: Vec<String>,
    /// Simulated backoff the cloud spent in storage retries, ns.
    pub cloud_backoff_ns: u64,
    /// Every flight's metrics registry merged in flight-index order,
    /// then the cloud façade's own registry — the run's aggregate
    /// observability view. Deterministic at any thread count.
    pub metrics: MetricsRegistry,
}

impl FleetOutcome {
    /// Folds the entire run to one word: flights (trajectories,
    /// outcomes, injections), tenants (outcome bits), and the cloud's
    /// degraded-mode decisions. Equal digests ⇒ bit-identical runs.
    pub fn fleet_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        for f in &self.flights {
            h.write_u64(f.wave);
            h.write_usize(f.flight_index);
            for o in &f.owners {
                h.write_str(o);
            }
            h.write_bool(f.completed);
            h.write_u8(end_reason_tag(f.end_reason));
            h.write_f64(f.duration_s);
            h.write_f64(f.total_energy_j);
            h.write_u64(f.trace_digest);
            for a in &f.injected {
                h.write_str(a);
            }
            // Hashed only when a monitor rode the flight, so legacy
            // pinned digests (no attacks, no monitor) are untouched.
            if let Some((samples, misses, max_us)) = f.rt_deadline {
                h.write_u64(samples);
                h.write_u64(misses);
                h.write_f64(max_us);
            }
        }
        for (name, t) in &self.tenants {
            h.write_str(name);
            h.write_u64(t.outcome_bits());
        }
        h.write_u64(self.waves_run);
        for line in &self.cloud_log {
            h.write_str(line);
        }
        h.write_u64(self.cloud_backoff_ns);
        h.finish()
    }

    /// Digest of the merged metrics registry. Compared across thread
    /// counts by the fleet chaos gate: parallel execution must merge
    /// to the exact registry the sequential run accumulates.
    pub fn metrics_digest(&self) -> u64 {
        self.metrics.digest()
    }
}

fn end_reason_tag(r: EndReason) -> u8 {
    match r {
        EndReason::Completed => 0,
        EndReason::EnergyExhausted => 1,
        EndReason::TimeExhausted => 2,
        EndReason::Aborted => 3,
        EndReason::LinkLost => 4,
        EndReason::WatchdogRevoked => 5,
    }
}

/// Fleet-level adversarial workload: per-flight-index attack plans
/// plus the enforcement posture shared by every attacked flight.
/// [`FleetAttackPlan::none`] (what [`FleetSpec::new`] starts from)
/// drives zero attack machinery — a run with an empty plan is
/// bit-identical to the unattacked executor.
#[derive(Debug, Clone, Default)]
pub struct FleetAttackPlan {
    /// Attack plans keyed by global flight index; missing indices fly
    /// clean.
    pub flights: BTreeMap<usize, AttackPlan>,
    /// Closed-loop adaptive campaigns keyed by global flight index;
    /// a flight can carry both an open-loop and an adaptive plan.
    pub adaptive: BTreeMap<usize, AdaptivePlan>,
    /// Enforcement armed on every attacked flight; `None` runs the
    /// attacks unthrottled (the breach-demonstration posture).
    pub defense: Option<AttackDefense>,
}

impl FleetAttackPlan {
    /// No attacks anywhere.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no flight carries a non-empty attack plan, open- or
    /// closed-loop.
    pub fn is_empty(&self) -> bool {
        self.flights.values().all(|p| p.is_empty()) && self.adaptive.values().all(|p| p.is_empty())
    }

    /// The plan for `flight_index` (empty when unattacked).
    pub fn effective_plan(&self, flight_index: usize) -> AttackPlan {
        self.flights
            .get(&flight_index)
            .cloned()
            .unwrap_or_else(AttackPlan::empty)
    }

    /// The adaptive campaign for `flight_index` (empty when none).
    pub fn effective_adaptive(&self, flight_index: usize) -> AdaptivePlan {
        self.adaptive
            .get(&flight_index)
            .cloned()
            .unwrap_or_else(AdaptivePlan::empty)
    }
}

/// Mutable per-tenant bookkeeping while the run is in progress.
struct TenantState {
    user: String,
    spec: VirtualDroneSpec,
    flights_flown: u32,
    waypoints_completed: usize,
    billed_energy_j: f64,
    billed_time_s: f64,
    refunded_energy_j: f64,
    remaining_energy_j: f64,
    remaining_time_s: f64,
    resolution: Option<TenantResolution>,
}

/// Where a virtual drone aboard a flight comes from: a leased VDR
/// checkout (resume) or the tenant's fresh order spec. Captured at
/// partition time so the island owns everything it deploys.
pub(crate) enum OwnerSource {
    Resume(SavedVirtualDrone),
    Fresh(VirtualDroneSpec),
}

/// The `Send`-able work item one island executes: everything a flight
/// needs, owned, with no cloud access.
struct PlanWork {
    plan: FlightPlan,
    owners: Vec<String>,
    /// Parallel to `owners` (both in sorted-owner order).
    sources: Vec<OwnerSource>,
    seed: u64,
    fault_plan: FaultPlan,
    /// This flight's adversarial workload (empty = unattacked).
    attack_plan: AttackPlan,
    /// This flight's closed-loop adaptive campaign (empty = none).
    adaptive_plan: AdaptivePlan,
    /// Enforcement posture when either attack plan is non-empty.
    defense: Option<AttackDefense>,
    base: GeoPoint,
    max_sim_seconds: f64,
    watchdog: Option<WatchdogConfig>,
    flight_index: usize,
}

/// Per-owner bookkeeping a flown drone hands back to the cloud side.
pub(crate) struct OwnerPost {
    owner: String,
    wp_prior: usize,
    flights_prior: u32,
    pub(crate) energy_used: f64,
    time_used: f64,
    completed_all: bool,
    wp_flight: usize,
    rem_e: f64,
    rem_t: f64,
    revoked: bool,
    pub(crate) file_data: Vec<(String, bytes::Bytes)>,
    archive: androne_container::ContainerArchive,
    app_state: String,
}

impl OwnerPost {
    /// The VDR entry for this drone, with resume bookkeeping: absolute
    /// mission progress and the allotment left to carry onto the next
    /// flight. Marked files are not part of it; take them first.
    pub(crate) fn into_saved(self, user: String, spec: VirtualDroneSpec) -> SavedVirtualDrone {
        SavedVirtualDrone {
            name: self.owner,
            owner: user,
            spec,
            archive: self.archive,
            app_state: self.app_state,
            reason: if self.completed_all {
                SaveReason::Completed
            } else {
                SaveReason::Interrupted
            },
            remaining_energy_j: self.rem_e,
            remaining_time_s: self.rem_t,
            waypoints_completed: self.wp_prior + self.wp_flight,
            flights_flown: self.flights_prior + 1,
        }
    }
}

/// Deploys `owner` onto `drone` from `source`: a resumed drone from
/// its VDR archive (the truncated resume spec when it has one), a
/// fresh drone from its order spec. Returns the owner's prior
/// `(waypoints completed, flights flown)`; a non-resumable entry
/// redeploys its full spec, so its mission progress restarts.
pub(crate) fn deploy_owner(
    drone: &mut Drone,
    owner: &str,
    source: &OwnerSource,
    manifests: &[AndroneManifest],
) -> Result<(usize, u32), DroneError> {
    match source {
        OwnerSource::Resume(saved) => {
            let spec = saved.resume_spec().unwrap_or_else(|| saved.spec.clone());
            drone.deploy_from_archive(&saved.archive, spec, manifests, &saved.app_state)?;
            let wp = if saved.resumable() {
                saved.waypoints_completed
            } else {
                0
            };
            Ok((wp, saved.flights_flown))
        }
        OwnerSource::Fresh(spec) => {
            drone.deploy_vdrone(owner, spec.clone(), manifests)?;
            Ok((0, 0))
        }
    }
}

/// Post-flight reads for one owner, then the save: restores a crash
/// checkpoint left pending, reads the VDC record and the marked
/// files, notes whether the watchdog or the QoS ladder revoked the
/// drone during the flight, and exports it with `save_vdrone`.
/// `prior` is what [`deploy_owner`] returned.
pub(crate) fn harvest_owner(
    drone: &mut Drone,
    owner: &str,
    (wp_prior, flights_prior): (usize, u32),
) -> Result<OwnerPost, DroneError> {
    // A crash window that crossed the flight's end leaves its
    // checkpoint pending; restore before saving.
    if drone.pending_restarts.contains_key(owner) {
        drone.supervised_restart_vdrone(owner)?;
    }
    let (files, energy_used, time_used, completed_all, wp_flight, rem_e, rem_t) = {
        let vdc = drone.vdc.borrow();
        let rec = vdc.record(owner);
        (
            rec.map(|r| r.marked_files.clone()).unwrap_or_default(),
            rec.map(|r| r.spec.energy_allotted - r.energy_remaining_j())
                .unwrap_or(0.0),
            rec.map(|r| r.spec.max_duration - r.time_remaining_s())
                .unwrap_or(0.0),
            rec.map(|r| r.waypoints_completed() >= r.spec.waypoints.len())
                .unwrap_or(false),
            rec.map(|r| r.waypoints_completed()).unwrap_or(0),
            rec.map(|r| r.energy_remaining_j()).unwrap_or(0.0),
            rec.map(|r| r.time_remaining_s()).unwrap_or(0.0),
        )
    };
    let file_data: Vec<(String, bytes::Bytes)> = files
        .into_iter()
        .map(|path| {
            let data = drone
                .runtime
                .get(owner)
                .and_then(|c| c.fs.read(&path))
                .unwrap_or_else(|| bytes::Bytes::from_static(b""));
            (path, data)
        })
        .collect();
    let revoked = drone.vdc.borrow().record(owner).is_some_and(|r| r.revoked);
    let (archive, app_state) = drone.save_vdrone(owner)?;
    Ok(OwnerPost {
        owner: owner.to_string(),
        wp_prior,
        flights_prior,
        energy_used,
        time_used,
        completed_all,
        wp_flight,
        rem_e,
        rem_t,
        revoked,
        file_data,
        archive,
        app_state,
    })
}

/// A flight that actually flew, ready to merge.
struct IslandFlight {
    completed: bool,
    end_reason: EndReason,
    duration_s: f64,
    total_energy_j: f64,
    trace_digest: u64,
    injected: Vec<String>,
    rt_deadline: Option<(u64, u64, f64)>,
    /// In sorted-owner order, matching the legacy per-owner loop.
    per_owner: Vec<OwnerPost>,
    /// The drone's full metrics registry, merged into the fleet
    /// registry at the flight's index position.
    metrics: MetricsRegistry,
    /// The drone's fault-injector trace records, absorbed into the
    /// cloud bus at merge for a fleet-wide fault timeline.
    fault_trace: TraceSegment,
}

/// What an island produced.
enum IslandVerdict {
    /// A deploy failed; the flight never flew and consumes no flight
    /// index. `error` is the failing deploy's rendered error.
    Scrapped { owner: String, error: String },
    /// The flight flew (possibly aborted mid-air — that is still a
    /// flown flight with a record and an index).
    Flew(Box<IslandFlight>),
}

/// Runs one flight as a single-threaded island: boot, deploy, fly,
/// and per-owner post-flight reads — no cloud access anywhere.
/// `panic_flight` is the chaos hook: an injected worker panic at a
/// chosen flight index, exercised by the containment tests.
fn run_island(item: PlanWork, panic_flight: Option<usize>) -> Result<IslandVerdict, DroneError> {
    if panic_flight == Some(item.flight_index) {
        // dronelint:allow(R3, chaos-injection hook: the panic IS the fault under test, and the pool's catch_unwind containment is the behavior being verified)
        panic!(
            "worker chaos: injected panic at flight {}",
            item.flight_index
        );
    }
    let mut drone = Drone::boot(item.base, item.seed)?;
    let mut priors: Vec<(usize, u32)> = Vec::with_capacity(item.owners.len());
    for (owner, source) in item.owners.iter().zip(item.sources.iter()) {
        match deploy_owner(&mut drone, owner, source, &[]) {
            Ok(prior) => priors.push(prior),
            Err(e) => {
                return Ok(IslandVerdict::Scrapped {
                    owner: owner.clone(),
                    error: e.to_string(),
                })
            }
        }
    }
    drone.vdc.borrow_mut().set_watchdog(item.watchdog);

    let mut injector = FaultInjector::new(item.fault_plan);
    // An attacked flight also carries the attack injector and the
    // RT-deadline monitor; an empty attack plan carries neither, so
    // the probe stack — and with it every legacy pinned digest — is
    // exactly the pre-attack one.
    let attacked = !item.attack_plan.is_empty();
    let adaptive = !item.adaptive_plan.is_empty();
    let mut attacker = AttackInjector::new(item.attack_plan, item.defense);
    let mut adaptive_attacker = AdaptiveInjector::new(item.adaptive_plan, item.defense);
    let mut rt_monitor = RtMonitor::new(item.seed);
    let mut digest = DigestProbe::new();
    let outcome = {
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        if attacked {
            probes.push(&mut attacker);
        }
        if adaptive {
            probes.push(&mut adaptive_attacker);
        }
        if attacked || adaptive {
            probes.push(&mut rt_monitor);
        }
        probes.push(&mut digest);
        execute_flight_probed(
            &mut drone,
            item.plan,
            item.max_sim_seconds,
            None,
            &mut probes,
        )
    };

    let per_owner = item
        .owners
        .iter()
        .zip(priors)
        .map(|(owner, prior)| harvest_owner(&mut drone, owner, prior))
        .collect::<Result<Vec<OwnerPost>, DroneError>>()?;

    let metrics = drone.obs.with(|o| o.metrics.clone()).unwrap_or_default();
    let fault_trace = drone
        .obs
        .with(|o| o.trace.segment(&[Subsystem::Fault]))
        .unwrap_or_default();
    let mut injected = injector.actions().to_vec();
    injected.extend(attacker.actions().iter().cloned());
    injected.extend(adaptive_attacker.actions().iter().cloned());
    Ok(IslandVerdict::Flew(Box::new(IslandFlight {
        completed: outcome.completed,
        end_reason: outcome.end_reason,
        duration_s: outcome.duration_s,
        total_energy_j: outcome.total_energy_j,
        trace_digest: digest.digest(),
        injected,
        rt_deadline: (attacked || adaptive).then(|| {
            (
                rt_monitor.samples(),
                rt_monitor.misses(),
                rt_monitor.max_us(),
            )
        }),
        per_owner,
        metrics,
        fault_trace,
    })))
}

/// The single entry point for fleet runs: configuration plus
/// optional riders, built fluently and executed with [`Self::run`].
///
/// ```ignore
/// let outcome = FleetSpec::new(cfg)
///     .threads(4)
///     .faults(plan)
///     .attacks(attack_plan)
///     .run()?;
/// ```
///
/// A spec with no riders is the plain executor: every pinned
/// chaos/attack/pool digest holds through this one door.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    cfg: FleetConfig,
    faults: FleetFaultPlan,
    attacks: FleetAttackPlan,
    panic_flight: Option<usize>,
}

impl FleetSpec {
    /// A spec with no riders: no faults, no attacks, no chaos.
    pub fn new(cfg: FleetConfig) -> Self {
        FleetSpec {
            cfg,
            faults: FleetFaultPlan::empty(),
            attacks: FleetAttackPlan::none(),
            panic_flight: None,
        }
    }

    /// Worker threads for the fly phase (any width is
    /// digest-identical; 0/1 run sequentially).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Drone- and cloud-side fault plan.
    pub fn faults(mut self, faults: FleetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Adversarial-tenant attack plan (with its enforcement posture).
    pub fn attacks(mut self, attacks: FleetAttackPlan) -> Self {
        self.attacks = attacks;
        self
    }

    /// Chaos hook: panic the worker running global flight index
    /// `flight`, proving containment.
    pub fn chaos_panic_at(mut self, flight: usize) -> Self {
        self.panic_flight = Some(flight);
        self
    }

    /// The configuration as currently built.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Executes the run to quiescence. Reusable: `run` borrows the
    /// spec, so one spec can drive a whole thread matrix.
    pub fn run(&self) -> Result<FleetOutcome, DroneError> {
        execute_fleet(self)
    }
}

/// Runs the full order → plan → fly → save/resume → refund lifecycle
/// for the spec's tenants under its riders. See the module docs for
/// the wave structure and determinism contract.
fn execute_fleet(spec: &FleetSpec) -> Result<FleetOutcome, DroneError> {
    let FleetSpec {
        cfg,
        faults,
        attacks,
        panic_flight,
    } = spec;
    let pool = WorkerPool::new(cfg.threads);
    let mut fleet_metrics = MetricsRegistry::new();
    let mut cloud = FallibleCloud::new();
    // Cloud-side observability: one attached handle for the whole
    // run, stamped to wave boundaries (1 simulated second per wave)
    // so degraded-mode trace records order by wave.
    let cloud_obs = ObsHandle::attached();
    cloud.set_obs(cloud_obs.clone());
    let mut states: BTreeMap<String, TenantState> = cfg
        .tenants
        .iter()
        .map(|t| {
            (
                t.vd_name.clone(),
                TenantState {
                    user: t.user.clone(),
                    spec: t.spec.clone(),
                    flights_flown: 0,
                    waypoints_completed: 0,
                    billed_energy_j: 0.0,
                    billed_time_s: 0.0,
                    refunded_energy_j: 0.0,
                    remaining_energy_j: t.spec.energy_allotted,
                    remaining_time_s: t.spec.max_duration,
                    resolution: None,
                },
            )
        })
        .collect();

    let mut flights: Vec<FlightRecord> = Vec::new();
    let mut flight_counter: usize = 0;
    let mut next_order_id: u64 = 1;
    let mut waves_run: u64 = 0;

    for wave in 0..cfg.max_waves {
        if states.values().all(|s| s.resolution.is_some()) {
            break;
        }
        waves_run = wave + 1;
        cloud_obs.set_now_ns(wave.saturating_mul(1_000_000_000));
        cloud.begin_wave(wave, faults.cloud_armed(wave));

        // Build this wave's candidate orders. Fresh tenants order
        // their full spec; flown tenants check their saved drone out
        // of the VDR (a lease — abandoned if the wave fails) and
        // order the truncated resume spec. A VDR outage leaves the
        // tenant pending for a later wave; a terminally unresumable
        // drone is refunded here.
        let mut orders: Vec<PlacedOrder> = Vec::new();
        let mut saved_map: BTreeMap<String, SavedVirtualDrone> = BTreeMap::new();
        let mut refunds: Vec<(String, String, f64)> = Vec::new();
        for (name, st) in states.iter_mut() {
            if st.resolution.is_some() {
                continue;
            }
            let spec = if st.flights_flown == 0 {
                Some(st.spec.clone())
            } else {
                match cloud.checkout_saved(name) {
                    Err(_) | Ok(None) => None,
                    Ok(Some(saved)) => match saved.resume_spec() {
                        Some(rspec) => {
                            saved_map.insert(name.clone(), saved);
                            Some(rspec)
                        }
                        None => {
                            // Interrupted with nothing left to fly on:
                            // the entry goes back to storage and the
                            // unserved remainder is refunded.
                            let remaining = saved.remaining_energy_j.max(0.0);
                            cloud.inner.vdr.abandon(name);
                            refunds.push((st.user.clone(), name.clone(), remaining));
                            st.refunded_energy_j += remaining;
                            st.resolution = Some(TenantResolution::Refunded);
                            None
                        }
                    },
                }
            };
            if let Some(spec) = spec {
                orders.push(PlacedOrder {
                    order_id: next_order_id,
                    user: st.user.clone(),
                    vd_name: name.clone(),
                    spec,
                    flexible_schedule: true,
                });
                next_order_id += 1;
            }
        }
        for (user, name, remaining) in refunds {
            cloud.refund_unserved(&user, &name, remaining);
        }
        if orders.is_empty() {
            continue;
        }

        let plans = match cloud.try_plan_flights(&orders, cfg.base, cfg.fleet_size) {
            Ok(plans) => plans,
            Err(_) => {
                // Planning is down this wave: the façade queued the
                // orders; leased resumes go back to storage untouched.
                for name in saved_map.keys() {
                    cloud.inner.vdr.abandon(name);
                }
                continue;
            }
        };

        // ── Fly phase: partition → islands → merge, batch by batch.
        //
        // A batch is a maximal prefix of the remaining plans whose
        // flyable members share no owner (a duplicate owner means a
        // later plan's flyable check depends on the earlier flight's
        // outcome — the batch stops there and the plan waits for the
        // merge). Flyable plans become islands on the pool at
        // consecutive flight indices, as if every one of them flies;
        // deferred plans carry through so their log lines land in
        // plan order.
        let mut plans: VecDeque<FlightPlan> = plans.into();
        while !plans.is_empty() {
            let mut batch: Vec<(FlightPlan, Vec<String>)> = Vec::new();
            let mut items: Vec<Option<PlanWork>> = Vec::new();
            let mut claimed: BTreeSet<String> = BTreeSet::new();
            let mut idx = flight_counter;
            while let Some(peek) = plans.front() {
                let mut owners: Vec<String> = peek.legs.iter().map(|l| l.owner.clone()).collect();
                owners.sort();
                owners.dedup();
                if owners.iter().any(|o| claimed.contains(o)) {
                    break;
                }
                let Some(plan) = plans.pop_front() else { break };
                // A plan is flyable only if every aboard drone can be
                // produced this wave: a resume we hold the lease for,
                // or a fresh tenant deployable from its order spec.
                // Merged stale queue entries can violate this (e.g.
                // the VDR was down for that tenant); such plans defer
                // a wave. Sources are cloned, not taken: the lease
                // map changes only at merge.
                let sources: Option<Vec<OwnerSource>> = owners
                    .iter()
                    .map(|o| match (saved_map.get(o), states.get(o)) {
                        (Some(saved), _) => Some(OwnerSource::Resume(saved.clone())),
                        (None, Some(s)) if s.flights_flown == 0 && s.resolution.is_none() => {
                            Some(OwnerSource::Fresh(s.spec.clone()))
                        }
                        _ => None,
                    })
                    .collect();
                items.push(sources.map(|sources| {
                    claimed.extend(owners.iter().cloned());
                    let index = idx;
                    idx += 1;
                    PlanWork {
                        plan: plan.clone(),
                        owners: owners.clone(),
                        sources,
                        seed: substream_seed(cfg.seed, wave, index),
                        fault_plan: faults.effective_plan(index),
                        attack_plan: attacks.effective_plan(index),
                        adaptive_plan: attacks.effective_adaptive(index),
                        defense: attacks.defense,
                        base: cfg.base,
                        max_sim_seconds: cfg.max_sim_seconds,
                        watchdog: cfg.watchdog,
                        flight_index: index,
                    }
                }));
                batch.push((plan, owners));
            }
            let results = pool.run(items, |item| item.map(|w| run_island(w, *panic_flight)));

            // Merge in plan order: replay every cloud effect exactly
            // as the sequential executor would have issued it. A
            // scrap or contained panic takes no flight index, so the
            // islands after it flew one index too high: the merge
            // stops there, and the rest of the batch goes back on the
            // queue to be re-batched (and re-flown) at the corrected
            // index. Each plan's leases are the lease map's entries
            // for its owners: present means resumed, so commit on a
            // flight, abandon on a scrap.
            let mut rest = batch.into_iter().zip(results);
            for ((_, owners), out) in rest.by_ref() {
                match out {
                    Ok(None) => {
                        cloud.log.push(format!(
                            "wave {wave}: plan deferred, unavailable drone aboard"
                        ));
                    }
                    Err(WorkerError::Panicked(msg)) => {
                        // Contained worker panic: treat like a scrap
                        // — release every lease, defer the tenants,
                        // keep the run alive.
                        for owner in &owners {
                            if saved_map.remove(owner).is_some() {
                                cloud.inner.vdr.abandon(owner);
                            }
                        }
                        cloud.log.push(format!(
                            "wave {wave}: flight scrapped, worker panicked ({msg}); tenants deferred"
                        ));
                        break;
                    }
                    Ok(Some(Err(e))) => {
                        // Fatal drone error: the sequential executor
                        // aborts the run here, and on `Err` the cloud
                        // is dropped — only the error is observable,
                        // so no earlier effects need replaying first.
                        return Err(e);
                    }
                    Ok(Some(Ok(IslandVerdict::Scrapped {
                        owner: failed,
                        error,
                    }))) => {
                        // Leases are committed only once every tenant
                        // is aboard: a deploy failure (e.g. the board
                        // out of container memory) scraps the whole
                        // flight, releases the leases taken so far
                        // (owners up to the failure; later owners
                        // keep their checkout until the end-of-wave
                        // sweep), and defers its tenants to the next
                        // wave instead of killing the run.
                        let failpos = owners
                            .iter()
                            .position(|o| *o == failed)
                            .unwrap_or(owners.len());
                        for owner in owners.iter().take(failpos + 1) {
                            if saved_map.remove(owner).is_some() {
                                cloud.inner.vdr.abandon(owner);
                            }
                        }
                        cloud.log.push(format!(
                            "wave {wave}: flight scrapped, {failed} failed to deploy ({error}); tenants deferred"
                        ));
                        break;
                    }
                    Ok(Some(Ok(IslandVerdict::Flew(island)))) => {
                        for owner in &owners {
                            if saved_map.remove(owner).is_some() {
                                cloud.inner.vdr.commit(owner);
                            }
                        }
                        let flight_id = cloud.inner.new_flight_id();
                        for mut post in island.per_owner {
                            let Some(st) = states.get_mut(&post.owner) else {
                                return Err(DroneError::UnknownVirtualDrone(post.owner.clone()));
                            };
                            cloud.try_complete_flight(
                                &st.user,
                                flight_id,
                                post.energy_used,
                                std::mem::take(&mut post.file_data),
                            );
                            st.billed_energy_j += post.energy_used;
                            st.billed_time_s += post.time_used;
                            let revoked = post.revoked;
                            let saved = post.into_saved(st.user.clone(), st.spec.clone());
                            let (name, completed) =
                                (saved.name.clone(), saved.reason == SaveReason::Completed);
                            st.flights_flown = saved.flights_flown;
                            st.waypoints_completed = saved.waypoints_completed;
                            st.remaining_energy_j = saved.remaining_energy_j;
                            st.remaining_time_s = saved.remaining_time_s;
                            cloud.inner.vdr.store(saved);
                            if completed {
                                st.resolution = Some(TenantResolution::Completed);
                            } else if revoked {
                                // Policy enforcement is terminal: the
                                // watchdog revoked this drone, so it
                                // is not rescheduled; its unserved
                                // remainder is refunded.
                                let remaining = st.remaining_energy_j;
                                st.refunded_energy_j += remaining;
                                st.resolution = Some(TenantResolution::Refunded);
                                cloud.refund_unserved(&st.user, &name, remaining);
                            }
                        }

                        flights.push(FlightRecord {
                            wave,
                            flight_index: flight_counter,
                            owners,
                            completed: island.completed,
                            end_reason: island.end_reason,
                            duration_s: island.duration_s,
                            total_energy_j: island.total_energy_j,
                            trace_digest: island.trace_digest,
                            injected: island.injected,
                            rt_deadline: island.rt_deadline,
                        });
                        fleet_metrics.merge_from(&island.metrics);
                        let _ = cloud_obs.with(|o| o.trace.absorb(&island.fault_trace));
                        flight_counter += 1;
                    }
                }
            }
            for ((plan, _), _) in rest.rev() {
                plans.push_front(plan);
            }
        }
        // Leased drones whose plans were deferred go back to storage.
        for name in saved_map.keys() {
            cloud.inner.vdr.abandon(name);
        }
    }

    // End-of-run sweep: whatever is still pending could not be served
    // within the wave budget — refund the unserved remainder (the
    // full allotment if it never flew). Interrupted entries stay in
    // the VDR: the customer's drone itself is never lost.
    for (name, st) in states.iter_mut() {
        if st.resolution.is_some() {
            continue;
        }
        let remaining = if st.flights_flown == 0 {
            st.spec.energy_allotted
        } else {
            st.remaining_energy_j
        };
        cloud.refund_unserved(&st.user, name, remaining);
        st.refunded_energy_j += remaining;
        st.resolution = Some(TenantResolution::Refunded);
    }

    let tenants = states
        .into_iter()
        .map(|(name, st)| {
            let resolution = st.resolution.unwrap_or(TenantResolution::Refunded);
            let bill = cloud.inner.billing.bill(&st.user);
            (
                name,
                TenantOutcome {
                    user: st.user,
                    flights_flown: st.flights_flown,
                    waypoints_completed: st.waypoints_completed,
                    waypoints_total: st.spec.waypoints.len(),
                    energy_allotted_j: st.spec.energy_allotted,
                    billed_energy_j: st.billed_energy_j,
                    billed_time_s: st.billed_time_s,
                    refunded_energy_j: st.refunded_energy_j,
                    remaining_energy_j: st.remaining_energy_j,
                    remaining_time_s: st.remaining_time_s,
                    ledger_energy_j: bill.energy_j,
                    ledger_refund_j: bill.energy_refund_j,
                    resolution,
                },
            )
        })
        .collect();

    // The cloud façade's own registry merges last, after every
    // flight's — one fixed position, independent of thread count.
    if let Some(cloud_metrics) = cloud_obs.with(|o| o.metrics.clone()) {
        fleet_metrics.merge_from(&cloud_metrics);
    }

    Ok(FleetOutcome {
        flights,
        tenants,
        waves_run,
        cloud_log: cloud.log.clone(),
        cloud_backoff_ns: cloud.backoff_spent.as_nanos(),
        metrics: fleet_metrics,
    })
}
