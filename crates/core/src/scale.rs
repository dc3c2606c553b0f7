//! The scaling-ladder executor: tens of thousands of synthetic
//! tenants driven through the *real* sharded control plane.
//!
//! [`FleetSpec::run`](crate::fleet::FleetSpec::run) boots a full onboard
//! stack (kernel, containers, Binder, SITL) per flight — the right
//! fidelity for six tenants, hopeless for a hundred thousand. This
//! executor keeps the control plane real and makes the *flights*
//! cheap: every order goes through the portal's validation, the
//! admission queue's backpressure, the bin-packing planner, the VDR's
//! checkout/commit lease cycle (sharded), billing, and refunds — but
//! each flight is a closed-form Dorling-model island (travel energy +
//! service cost per leg) instead of a simulated airframe.
//!
//! Determinism is the contract the whole ladder hangs on:
//!
//! - **Thread count**: islands are pure functions of plain data, the
//!   worker pool returns results in submission order, and every
//!   control-plane mutation happens single-threaded at merge time —
//!   so `threads = 1` and `threads = 8` produce identical digests.
//! - **Shard count**: every VDR operation is keyed by name (or by the
//!   handle of the name's slot, which stays in the name's shard),
//!   listings merge in name order, and
//!   [`VirtualDroneRepository::digest`](androne_cloud::VirtualDroneRepository::digest)
//!   folds entries in global name order — so
//!   `shards = 1` and `shards = 4` produce identical digests.
//!
//! Tenants are generated from the config seed via the simkern
//! substream derivation: shapes (waypoint counts, positions, drone
//! type, provisioning) replay bit-identically for a given seed.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use bytes::Bytes;

use androne_cloud::{
    AdmissionConfig, FallibleCloud, OrderRequest, PlacedOrder, SaveReason, SavedVirtualDrone,
    VdrHandle, VdrStats, MAX_VDRONES_PER_FLIGHT,
};
use androne_container::{ContainerArchive, ContainerKind, FileChange, Layer};
use androne_energy::{AccountId, DorlingModel};
use androne_hal::GeoPoint;
use androne_obs::{MetricsRegistry, ObsHandle};
use androne_planner::{bin_pack, PackItem};
use androne_simkern::stats::percentile;
use androne_simkern::StateHasher;
use androne_vdc::WaypointSpec;

use crate::pool::WorkerPool;

/// Launch site shared by every synthetic tenant (same base the
/// six-tenant fleet uses).
const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

/// Where a tenant's synthetic archive keeps its exported state.
const STATE_PATH: &str = "/data/androne/state.bin";

/// Hover/measurement cost of serving one waypoint, on top of travel.
const SERVICE_ENERGY_J: f64 = 1_500.0;
const SERVICE_TIME_S: f64 = 30.0;

/// Waypoints scatter up to ~512 m north/east of the base; the battery
/// budget fits a full party of worst-case legs so the party cap, not
/// energy, is the binding constraint for typical waves.
const MAX_OFFSET_M: f64 = 512.0;

/// Waypoints per tenant: one to this many.
const MAX_WAYPOINTS: usize = 3;

/// Ground turnaround between waves, seconds of simulated time.
const TURNAROUND_S: f64 = 60.0;

/// Affordability slack absorbing the cents↔joules round-trip and the
/// telescoped-subtraction float error (a few ulps; one joule is
/// orders of magnitude above both).
const PROVISION_MARGIN_J: f64 = 1.0;

/// One rung of the scaling ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Synthetic tenants to generate and drive to quiescence.
    pub tenants: usize,
    /// Root seed for tenant-shape generation.
    pub seed: u64,
    /// Simulated physical drones available per wave.
    pub fleet_size: usize,
    /// Admission quota per wave (orders released from the queue).
    pub admit_per_wave: usize,
    /// Admission queue capacity (beyond it, submissions backpressure).
    pub queue_capacity: usize,
    /// VDR shard count.
    pub shards: usize,
    /// Worker threads flying the wave's flights.
    pub threads: usize,
    /// Hard wave guard: the run aborts (incomplete) past this.
    pub max_waves: u64,
}

impl ScaleConfig {
    /// Ladder defaults for a rung of `tenants` tenants: 256 simulated
    /// drones, an admission quota matched to the fleet's per-wave
    /// serving capacity (fleet × party cap), and a queue holding four
    /// quotas so admission bursts backpressure realistically.
    pub fn rung(tenants: usize) -> Self {
        let fleet_size = 256;
        let admit_per_wave = fleet_size * MAX_VDRONES_PER_FLIGHT;
        ScaleConfig {
            tenants,
            seed: 0xA2D0_5CA1E,
            fleet_size,
            admit_per_wave,
            queue_capacity: admit_per_wave * 4,
            shards: 1,
            threads: 1,
            max_waves: 100_000,
        }
    }

    /// Builder-style shard override.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style thread override.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// How a tenant's mission ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleResolution {
    /// Every waypoint served within the allotment.
    Completed,
    /// The allotment could not afford the next waypoint; the unserved
    /// remainder was refunded.
    Exhausted,
}

/// Terminal accounting for one synthetic tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleTenantOutcome {
    pub user: String,
    pub resolution: ScaleResolution,
    pub waypoints_completed: usize,
    pub waypoints_total: usize,
    pub flights_flown: u32,
    pub billed_energy_j: f64,
    pub refunded_energy_j: f64,
    /// Simulated seconds from first submission to terminal
    /// resolution (includes any backpressure wait).
    pub latency_s: f64,
}

/// One packed flight's closed-form result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleFlightRecord {
    pub wave: u64,
    pub flight_index: u64,
    pub legs: u32,
    pub energy_j: f64,
    pub duration_s: f64,
    /// Fold of the flight's served legs (owner, distance, billed
    /// energy/time), computed on the worker.
    pub digest: u64,
}

/// The result of driving one ladder rung to quiescence.
#[derive(Debug)]
pub struct ScaleOutcome {
    pub config: ScaleConfig,
    /// Every tenant's terminal accounting, keyed by virtual drone
    /// name (deterministic name order).
    pub tenants: BTreeMap<String, ScaleTenantOutcome>,
    /// Every flight flown, in plan order.
    pub flights: Vec<ScaleFlightRecord>,
    pub waves_run: u64,
    /// Whether every tenant reached a terminal resolution within the
    /// wave guard.
    pub quiescent: bool,
    /// Total simulated seconds from first submission to quiescence.
    pub sim_duration_s: f64,
    /// 99th-percentile order→resolution latency, simulated seconds.
    pub p99_latency_s: f64,
    /// High-water mark of the admission queue depth.
    pub peak_queue_depth: usize,
    /// Submissions bounced by admission backpressure (retries count).
    pub backpressured_submissions: u64,
    /// Aggregate VDR statistics at quiescence.
    pub vdr: VdrStats,
    /// The VDR's shard-count-invariant content digest at quiescence.
    pub vdr_digest: u64,
    /// Aggregate metrics (admission, flights, compaction) — thread-
    /// and shard-invariant by construction.
    pub metrics: MetricsRegistry,
}

impl ScaleOutcome {
    /// Folds the run to one word: flights in plan order, tenants in
    /// name order, the VDR's content, and the wave count. Equal
    /// digests ⇒ identical runs, at any thread or shard count.
    pub fn fleet_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        for f in &self.flights {
            h.write_u64(f.wave);
            h.write_u64(f.flight_index);
            h.write_u64(u64::from(f.legs));
            h.write_f64(f.energy_j);
            h.write_f64(f.duration_s);
            h.write_u64(f.digest);
        }
        for (name, t) in &self.tenants {
            h.write_str(name);
            h.write_str(&t.user);
            h.write_u64(match t.resolution {
                ScaleResolution::Completed => 0,
                ScaleResolution::Exhausted => 1,
            });
            h.write_usize(t.waypoints_completed);
            h.write_usize(t.waypoints_total);
            h.write_u64(u64::from(t.flights_flown));
            h.write_f64(t.billed_energy_j);
            h.write_f64(t.refunded_energy_j);
            h.write_f64(t.latency_s);
        }
        h.write_u64(self.waves_run);
        h.write_bool(self.quiescent);
        h.write_u64(self.vdr_digest);
        h.finish()
    }

    /// Digest of the aggregate metrics registry.
    pub fn metrics_digest(&self) -> u64 {
        self.metrics.digest()
    }

    /// Tenants that completed every waypoint.
    pub fn completed(&self) -> usize {
        self.tenants
            .values()
            .filter(|t| t.resolution == ScaleResolution::Completed)
            .count()
    }

    /// Tenants that exhausted their allotment mid-mission.
    pub fn exhausted(&self) -> usize {
        self.tenants.len() - self.completed()
    }

    /// Orders resolved per simulated second.
    pub fn orders_per_sim_s(&self) -> f64 {
        if self.sim_duration_s <= 0.0 {
            return 0.0;
        }
        self.tenants.len() as f64 / self.sim_duration_s
    }
}

/// The synthetic shape of one tenant, derived from the seed.
struct TenantShape {
    user: String,
    waypoints: Vec<WaypointSpec>,
    drone_type: &'static str,
    /// Cents to charge — full provisioning plus margin, or (for the
    /// periodically under-provisioned tenants) short of the final
    /// waypoint so the exhaustion/refund path stays exercised.
    max_charge_cents: f64,
    max_duration_s: f64,
}

/// Every 13th tenant (offset 5) is deliberately under-provisioned.
fn under_provisioned(index: usize) -> bool {
    index % 13 == 5
}

fn tenant_shape(cfg: &ScaleConfig, index: usize, model: &DorlingModel) -> TenantShape {
    let h = androne_simkern::substream_seed(cfg.seed, 1, index);
    let wp_count = 1 + (h % MAX_WAYPOINTS as u64) as usize;
    let mut waypoints = Vec::with_capacity(wp_count);
    for j in 0..wp_count {
        let hj = androne_simkern::substream_seed(cfg.seed, 2, index * 4 + j);
        // 64..=MAX_OFFSET m north and east of the base: never exactly
        // at the launch point, never beyond the budget's worst case.
        let north = 64.0 + (hj & 0x3FF) as f64 * (MAX_OFFSET_M - 64.0) / 1023.0;
        let east = 64.0 + ((hj >> 10) & 0x3FF) as f64 * (MAX_OFFSET_M - 64.0) / 1023.0;
        let p = BASE.offset_m(north, east, 15.0);
        waypoints.push(WaypointSpec {
            latitude: p.latitude,
            longitude: p.longitude,
            altitude: 15.0,
            max_radius: 0.0, // portal applies the provider default
        });
    }
    let needs: Vec<(f64, f64)> = waypoints
        .iter()
        .map(|wp| leg_need(model, BASE.ground_distance_m(&wp.position())))
        .collect();
    let full_energy: f64 = needs.iter().map(|(e, _)| e).sum::<f64>() + PROVISION_MARGIN_J;
    let full_time: f64 = needs.iter().map(|(_, t)| t).sum::<f64>() + 600.0;
    let energy = if under_provisioned(index) {
        // Short of the last waypoint by just over half its need: the
        // mission exhausts exactly there, after any earlier ones.
        let last = needs.last().map_or(0.0, |(e, _)| *e);
        (full_energy - 0.55 * last).max(last * 0.25)
    } else {
        full_energy
    };
    TenantShape {
        user: format!("u{index:06}"),
        waypoints,
        drone_type: if h & 1 == 0 { "video" } else { "sensor" },
        // Inverse of the portal's cents→joules conversion.
        max_charge_cents: energy / 400.0,
        max_duration_s: full_time,
    }
}

/// Closed-form `(energy_j, time_s)` of serving a waypoint `dist_m`
/// metres from the base: out and back at cruise plus the on-site
/// service cost.
fn leg_need(model: &DorlingModel, dist_m: f64) -> (f64, f64) {
    (
        model.leg_energy_j(2.0 * dist_m, 0.0) + SERVICE_ENERGY_J,
        model.leg_time_s(2.0 * dist_m) + SERVICE_TIME_S,
    )
}

/// Cold per-tenant state between admission and terminal resolution,
/// indexed by the tenant's dense id (its admission order). The
/// numbers the per-wave affordability pass reads live in [`Gate`].
struct TenantState {
    user: String,
    /// The user's billing account, opened at admission.
    account: AccountId,
    /// Per-waypoint ground distance from the base, metres: island
    /// data, and priced by [`leg_need`] wherever a leg's need is due.
    dists: Vec<f64>,
    next_wp: usize,
    billed_e: f64,
    refunded_e: f64,
    flights_flown: u32,
    resolution: Option<(ScaleResolution, f64)>,
    /// The placed spec until the tenant's first save moves it into
    /// its VDR entry; `None` once that entry exists.
    spec: Option<androne_vdc::VirtualDroneSpec>,
    /// The handle of the tenant's VDR slot, from its first save.
    vdr: Option<VdrHandle>,
}

/// Hot per-tenant state, indexed by dense id: the next waypoint's
/// need and the remaining allotment — everything the per-wave
/// affordability pass reads, and the only copy of the remaining
/// energy and time.
#[derive(Clone, Copy)]
struct Gate {
    need_e: f64,
    need_t: f64,
    remaining_e: f64,
    remaining_t: f64,
}

impl Gate {
    /// Whether the remaining allotment falls short of the next
    /// waypoint's need.
    fn falls_short(&self) -> bool {
        self.remaining_e < self.need_e || self.remaining_t < self.need_t
    }
}

/// Plain data one flight carries onto a worker thread.
struct ScaleWork<'a> {
    wave: u64,
    flight_index: u64,
    legs: Vec<ScaleLeg<'a>>,
}

struct ScaleLeg<'a> {
    id: usize,
    /// The owner's virtual drone name, folded into the flight digest.
    owner: &'a str,
    dist_m: f64,
}

/// What the worker hands back: per-leg `(id, energy_j, time_s)`
/// billing plus the flight fold.
struct ScaleFlightOut {
    wave: u64,
    flight_index: u64,
    served: Vec<(usize, f64, f64)>,
    energy_j: f64,
    duration_s: f64,
    digest: u64,
}

/// Flies one packed flight in closed form. Pure: billing numbers and
/// the digest depend only on the leg list and the model constants.
fn fly_island(model: DorlingModel, work: ScaleWork<'_>) -> ScaleFlightOut {
    let mut h = StateHasher::new();
    h.write_u64(work.wave);
    h.write_u64(work.flight_index);
    let mut served = Vec::with_capacity(work.legs.len());
    let mut energy = 0.0;
    let mut duration = 0.0;
    for leg in &work.legs {
        let (e, t) = leg_need(&model, leg.dist_m);
        h.write_str(leg.owner);
        h.write_f64(leg.dist_m);
        h.write_f64(e);
        h.write_f64(t);
        energy += e;
        duration += t;
        served.push((leg.id, e, t));
    }
    ScaleFlightOut {
        wave: work.wave,
        flight_index: work.flight_index,
        served,
        energy_j: energy,
        duration_s: duration,
        digest: h.finish(),
    }
}

/// A synthetic container archive standing in for the tenant's
/// exported diff. `payload` comes from the run's [`synthetic_payloads`]
/// table, shared rather than copied.
fn synthetic_archive(name: &str, payload: &Bytes) -> ContainerArchive {
    let mut diff = Layer::new();
    diff.write(STATE_PATH, payload.clone());
    ContainerArchive {
        name: name.to_string(),
        kind: ContainerKind::VirtualDrone,
        base_stack: Vec::new(),
        diff,
    }
}

/// The archive payloads of one run, indexed by waypoints completed
/// and sized by that progress, so telescoped saves have distinct,
/// compactable byte counts.
fn synthetic_payloads() -> [Bytes; MAX_WAYPOINTS + 1] {
    std::array::from_fn(|wp| Bytes::from(vec![0xA5u8; 256 + 32 * wp]))
}

/// Drives `cfg.tenants` synthetic tenants through the sharded control
/// plane to quiescence: portal validation once per tenant, admission
/// with backpressure retries at the advertised wave, bin-packed waves
/// flown as closed-form islands on the worker pool, VDR lease cycles
/// with telescoped saves and periodic compaction, billing and
/// terminal refunds.
///
/// Inside the loop a tenant is a dense index in admission order. It
/// holds two handles: its billing account, opened at admission, which
/// every leg bills through, and its VDR slot, returned by its first
/// save, which every later leg checks out and commits through. Its
/// user and virtual drone names are read only at those two openings,
/// for refunds, the flight digest and the outcome.
pub fn execute_scale_fleet(cfg: &ScaleConfig) -> ScaleOutcome {
    let model = DorlingModel::f450_prototype();
    let pool = WorkerPool::new(cfg.threads);
    let obs = ObsHandle::attached();
    let payloads = synthetic_payloads();

    let mut cloud = FallibleCloud::with_shards(cfg.shards.max(1));
    cloud.set_obs(obs.clone());
    cloud.set_admission(AdmissionConfig::batched(
        cfg.admit_per_wave.max(1),
        cfg.queue_capacity.max(1),
    ));

    // The budget fits a full party of worst-case legs: the party cap,
    // not energy, binds typical waves.
    let worst_dist = (2.0 * MAX_OFFSET_M * MAX_OFFSET_M).sqrt();
    let battery_budget_j = MAX_VDRONES_PER_FLIGHT as f64
        * (model.leg_energy_j(2.0 * worst_dist, 0.0) + SERVICE_ENERGY_J)
        + 1.0;

    // Three parallel vectors indexed by dense tenant id, allocated
    // once at their final length: regrown by doubling, they leave
    // freed blocks that later allocations fragment.
    let mut names: Vec<String> = Vec::with_capacity(cfg.tenants);
    let mut states: Vec<TenantState> = Vec::with_capacity(cfg.tenants);
    let mut gates: Vec<Gate> = Vec::with_capacity(cfg.tenants);
    // Tenants with a terminal resolution; quiescence needs all of them.
    let mut resolved = 0usize;
    // Legs new since the last gate: tenants admitted this wave and
    // tenants whose last leg flew. Every id here has a next waypoint:
    // completed tenants never return, and an empty mission never
    // enters.
    let mut ready: VecDeque<usize> = VecDeque::new();
    // The offered legs and their owners' ids. A leg that spills stays
    // here, ahead of the next wave's arrivals: its gate changes only
    // when it flies, so it needs no second gate or `PackItem`. The
    // packer never reads `PackItem::owner`, so it stays an empty
    // (unallocated) string.
    let mut items: Vec<PackItem> = Vec::new();
    let mut item_ids: Vec<usize> = Vec::new();
    // Bounced orders by retry wave. A wave's bounces share one retry
    // wave, so its bounced run moves into its slot whole.
    let mut retries: BTreeMap<u64, VecDeque<PlacedOrder>> = BTreeMap::new();
    let mut flights: Vec<ScaleFlightRecord> = Vec::new();
    let mut clock_s = 0.0f64;
    let mut flight_counter = 0u64;
    let mut waves_run = 0u64;
    let mut quiescent = false;

    for wave in 0..cfg.max_waves {
        waves_run = wave + 1;
        cloud.begin_wave(wave, Vec::new());

        // ── Submission: the whole cohort at wave 0, then retries at
        // each order's advertised wave. The portal validates each
        // tenant; admission takes the validated run in one move.
        let mut due = retries.remove(&wave).unwrap_or_default();
        if wave == 0 {
            for i in 0..cfg.tenants {
                let shape = tenant_shape(cfg, i, &model);
                let req = OrderRequest {
                    user: shape.user,
                    waypoints: shape.waypoints,
                    drone_type: shape.drone_type.to_string(),
                    apps: Vec::new(),
                    extra_waypoint_devices: Vec::new(),
                    extra_continuous_devices: Vec::new(),
                    max_charge_cents: shape.max_charge_cents,
                    max_duration_s: shape.max_duration_s,
                    flexible_schedule: true,
                };
                let inner = &mut cloud.inner;
                match inner.portal.place_order(&inner.app_store, req) {
                    Ok(placed) => due.push_back(placed),
                    Err(_) => obs.count("scale.orders_rejected", 1),
                }
            }
            obs.count("scale.orders_submitted", cfg.tenants as u64);
        }
        let (accepted, bounced) = cloud.resubmit_all(&mut due);
        if accepted > 0 {
            obs.count("scale.orders_accepted", accepted as u64);
        }
        if let Some(err) = bounced {
            match retries.entry(retry_wave_after(&err, wave)) {
                Entry::Vacant(slot) => {
                    slot.insert(due);
                }
                Entry::Occupied(slot) => slot.into_mut().append(&mut due),
            }
        }

        // ── Admission: this wave's batch gets the next dense ids.
        for placed in cloud.admit_orders() {
            let dists: Vec<f64> = placed
                .spec
                .waypoints
                .iter()
                .map(|wp| BASE.ground_distance_m(&wp.position()))
                .collect();
            let id = states.len();
            let (need_e, need_t) = dists.first().map_or((0.0, 0.0), |&d| leg_need(&model, d));
            gates.push(Gate {
                need_e,
                need_t,
                remaining_e: placed.spec.energy_allotted,
                remaining_t: placed.spec.max_duration,
            });
            if !dists.is_empty() {
                ready.push_back(id);
            }
            names.push(placed.vd_name);
            states.push(TenantState {
                account: cloud.inner.billing.open(&placed.user),
                user: placed.user,
                dists,
                next_wp: 0,
                billed_e: 0.0,
                refunded_e: 0.0,
                flights_flown: 0,
                resolution: None,
                spec: Some(placed.spec),
                vdr: None,
            });
        }
        obs.gauge_max(
            "scale.queue_depth_peak",
            cloud.admission().peak_depth() as f64,
        );

        // ── Plan: gate the new legs, then first-fit bin-packing over
        // the carried legs and the new ones.
        debug_assert!(
            item_ids.iter().zip(&items).all(|(&id, item)| {
                let g = gates[id];
                !g.falls_short()
                    && item.energy_j.to_bits() == g.need_e.to_bits()
                    && item.time_s.to_bits() == g.need_t.to_bits()
            }),
            "a carried leg's gate changed while it waited"
        );
        for id in ready.drain(..) {
            let g = gates[id];
            if g.falls_short() {
                // Terminal: the allotment cannot afford the next
                // waypoint. Refund the unserved remainder.
                let refund = g.remaining_e.max(0.0);
                let st = &mut states[id];
                st.refunded_e = refund;
                st.resolution = Some((ScaleResolution::Exhausted, clock_s));
                resolved += 1;
                cloud.refund_unserved(&st.user, &names[id], refund);
                obs.count("scale.tenants_exhausted", 1);
                continue;
            }
            items.push(PackItem {
                owner: String::new(),
                energy_j: g.need_e,
                time_s: g.need_t,
            });
            item_ids.push(id);
        }
        let packing = bin_pack(
            &items,
            cfg.fleet_size.max(1),
            MAX_VDRONES_PER_FLIGHT,
            battery_budget_j,
        );
        obs.count("scale.legs_spilled", packing.spilled.len() as u64);

        // ── Fly: packed flights become closed-form islands.
        let mut works: Vec<ScaleWork<'_>> = Vec::with_capacity(packing.flights.len());
        for flight in &packing.flights {
            let legs = flight
                .items
                .iter()
                .map(|&idx| {
                    let id = item_ids[idx];
                    let st = &states[id];
                    ScaleLeg {
                        id,
                        owner: &names[id],
                        dist_m: st.dists[st.next_wp],
                    }
                })
                .collect();
            works.push(ScaleWork {
                wave,
                flight_index: flight_counter,
                legs,
            });
            flight_counter += 1;
        }
        // Spilled legs stay offered and lead the next wave, in FIFO
        // order.
        retain_at(&mut items, &packing.spilled);
        retain_at(&mut item_ids, &packing.spilled);
        // Leases: a tenant with a VDR entry checks it out for the
        // flight; its save on landing commits the lease in place.
        for leg in works.iter().flat_map(|w| &w.legs) {
            if let Some(handle) = states[leg.id].vdr {
                cloud.inner.vdr.checkout_at(handle);
            }
        }
        let outs = pool.run(works, |w| fly_island(model, w));

        // ── Merge, in plan order: billing, VDR saves, progress.
        let mut wave_duration = 0.0f64;
        for out in outs.into_iter().flatten() {
            wave_duration = wave_duration.max(out.duration_s);
            flights.push(ScaleFlightRecord {
                wave: out.wave,
                flight_index: out.flight_index,
                legs: out.served.len() as u32,
                energy_j: out.energy_j,
                duration_s: out.duration_s,
                digest: out.digest,
            });
            obs.count("scale.flights", 1);
            obs.count("scale.legs", out.served.len() as u64);
            let landing_clock = clock_s + out.duration_s;
            for (id, e, t) in out.served {
                let (name, st, g) = (&names[id], &mut states[id], &mut gates[id]);
                g.remaining_e -= e;
                g.remaining_t -= t;
                st.billed_e += e;
                st.next_wp += 1;
                st.flights_flown += 1;
                cloud.inner.billing.bill_mut(st.account).charge_energy(e);
                let done = st.next_wp >= st.dists.len();
                let reason = if done {
                    SaveReason::Completed
                } else {
                    SaveReason::Interrupted
                };
                // The leg's save: what changes between a tenant's saves.
                let (wp, flown, payload) = (st.next_wp, st.flights_flown, &payloads[st.next_wp]);
                let (remaining_e, remaining_t) = (g.remaining_e, g.remaining_t);
                let progress = move |e: &mut SavedVirtualDrone| {
                    if let Some(FileChange::Write(b)) = e.archive.diff.get_mut(STATE_PATH) {
                        b.clone_from(payload);
                    }
                    e.app_state.clear();
                    let _ = write!(e.app_state, "{{\"wp\":{wp}}}");
                    e.reason = reason;
                    e.remaining_energy_j = remaining_e;
                    e.remaining_time_s = remaining_t;
                    e.waypoints_completed = wp;
                    e.flights_flown = flown;
                };
                match st.spec.take() {
                    // First save: the placed spec moves into the entry.
                    Some(spec) => {
                        let mut entry = SavedVirtualDrone {
                            name: name.clone(),
                            owner: st.user.clone(),
                            spec,
                            archive: synthetic_archive(name, payload),
                            app_state: String::new(),
                            reason,
                            remaining_energy_j: 0.0,
                            remaining_time_s: 0.0,
                            waypoints_completed: 0,
                            flights_flown: 0,
                        };
                        progress(&mut entry);
                        st.vdr = Some(cloud.inner.vdr.store(entry));
                    }
                    // Later saves rewrite the entry leased for this
                    // flight, which is the same as storing a fresh copy
                    // and committing the lease.
                    None => {
                        let leased = st
                            .vdr
                            .is_some_and(|h| cloud.inner.vdr.commit_with_at(h, progress));
                        debug_assert!(leased, "{name} flew again without its lease");
                    }
                }
                if done {
                    st.resolution = Some((ScaleResolution::Completed, landing_clock));
                    resolved += 1;
                    obs.count("scale.tenants_completed", 1);
                } else {
                    (g.need_e, g.need_t) = leg_need(&model, st.dists[st.next_wp]);
                    ready.push_back(id);
                }
            }
        }

        // ── Compact when the journal has doubled past the live set.
        let stats = cloud.inner.vdr.stats();
        if stats.journal_entries > 2 * (stats.entries + stats.leased).max(1) {
            let report = cloud.inner.vdr.compact();
            obs.count("scale.compactions", 1);
            obs.count("scale.compacted_saves", report.compacted_saves);
        }

        // ── Advance the simulated clock.
        clock_s += if wave_duration > 0.0 {
            wave_duration + TURNAROUND_S
        } else {
            TURNAROUND_S
        };
        obs.count("scale.waves", 1);

        // ── Quiescence: everything admitted, flown, and resolved.
        let all_resolved = states.len() == cfg.tenants && resolved == states.len();
        if all_resolved
            && ready.is_empty()
            && items.is_empty()
            && retries.is_empty()
            && cloud.admission().is_empty()
        {
            quiescent = true;
            break;
        }
    }

    // Final journal sweep so `compacted_saves` reflects the whole run.
    let report = cloud.inner.vdr.compact();
    obs.count("scale.compactions", 1);
    obs.count("scale.compacted_saves", report.compacted_saves);

    let backpressured = cloud.admission().backpressure_total();
    let peak_depth = cloud.admission().peak_depth();
    let vdr_stats = cloud.inner.vdr.stats();
    let vdr_digest = cloud.inner.vdr.digest();

    // The whole cohort is submitted at wave 0 (clock 0), so a
    // tenant's latency is its resolution clock.
    let mut latencies: Vec<f64> = Vec::with_capacity(states.len());
    let tenants: BTreeMap<String, ScaleTenantOutcome> = names
        .into_iter()
        .zip(states)
        .map(|(name, st)| {
            let (resolution, latency) = st
                .resolution
                .unwrap_or((ScaleResolution::Exhausted, clock_s));
            latencies.push(latency);
            (
                name,
                ScaleTenantOutcome {
                    user: st.user,
                    resolution,
                    waypoints_completed: st.next_wp,
                    waypoints_total: st.dists.len(),
                    flights_flown: st.flights_flown,
                    billed_energy_j: st.billed_e,
                    refunded_energy_j: st.refunded_e,
                    latency_s: latency,
                },
            )
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p99 = percentile(&latencies, 99.0);

    let metrics = obs.with(|o| o.metrics.clone()).unwrap_or_default();

    ScaleOutcome {
        config: *cfg,
        tenants,
        flights,
        waves_run,
        quiescent,
        sim_duration_s: clock_s,
        p99_latency_s: p99,
        peak_queue_depth: peak_depth,
        backpressured_submissions: backpressured,
        vdr: vdr_stats,
        vdr_digest,
        metrics,
    }
}

/// Keeps the elements of `v` at the ascending positions `keep`, in
/// order. Position `keep[k] >= k`, so swapping it down to `k` never
/// disturbs a later kept element.
fn retain_at<T>(v: &mut Vec<T>, keep: &[usize]) {
    for (k, &at) in keep.iter().enumerate() {
        v.swap(k, at);
    }
    v.truncate(keep.len());
}

/// The wave to schedule a bounced order's resubmission at: the
/// advertised retry wave, but always strictly after the current one.
fn retry_wave_after(err: &androne_cloud::AdmissionError, wave: u64) -> u64 {
    use androne_sdk::Backpressure as _;
    err.retry_wave().unwrap_or(wave + 1).max(wave + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_rung_reaches_quiescence_with_every_tenant_resolved() {
        let cfg = ScaleConfig {
            tenants: 40,
            fleet_size: 4,
            admit_per_wave: 12,
            queue_capacity: 24,
            ..ScaleConfig::rung(40)
        };
        let out = execute_scale_fleet(&cfg);
        assert!(
            out.quiescent,
            "ran {} waves without quiescing",
            out.waves_run
        );
        assert_eq!(out.tenants.len(), 40);
        assert!(out.completed() > 0);
        assert!(out.exhausted() > 0, "the under-provisioned cohort exhausts");
        assert!(
            out.backpressured_submissions > 0,
            "capacity 24 < 40 tenants"
        );
        assert!(out.peak_queue_depth <= 24);
    }

    #[test]
    fn digests_are_thread_and_shard_invariant() {
        let base = ScaleConfig {
            tenants: 60,
            fleet_size: 6,
            admit_per_wave: 18,
            queue_capacity: 36,
            ..ScaleConfig::rung(60)
        };
        let reference = execute_scale_fleet(&base);
        assert!(reference.quiescent);
        for (threads, shards) in [(4, 1), (1, 4), (4, 4)] {
            let out = execute_scale_fleet(&base.threads(threads).shards(shards));
            assert_eq!(
                out.fleet_digest(),
                reference.fleet_digest(),
                "threads={threads} shards={shards}"
            );
            assert_eq!(
                out.metrics_digest(),
                reference.metrics_digest(),
                "metrics: threads={threads} shards={shards}"
            );
        }
    }

    #[test]
    fn under_provisioned_tenants_get_refunds_on_the_ledger() {
        let cfg = ScaleConfig {
            tenants: 26,
            fleet_size: 4,
            admit_per_wave: 12,
            queue_capacity: 26,
            ..ScaleConfig::rung(26)
        };
        let out = execute_scale_fleet(&cfg);
        assert!(out.quiescent);
        let exhausted: Vec<&ScaleTenantOutcome> = out
            .tenants
            .values()
            .filter(|t| t.resolution == ScaleResolution::Exhausted)
            .collect();
        assert_eq!(exhausted.len(), 2, "tenants 5 and 18 of 26");
        for t in exhausted {
            assert!(t.refunded_energy_j > 0.0);
            assert!(t.waypoints_completed < t.waypoints_total);
        }
    }

    #[test]
    fn vdr_retains_every_tenant_and_compaction_reclaims_saves() {
        let cfg = ScaleConfig {
            tenants: 30,
            fleet_size: 4,
            admit_per_wave: 12,
            queue_capacity: 30,
            ..ScaleConfig::rung(30)
        };
        let out = execute_scale_fleet(&cfg);
        assert!(out.quiescent);
        // Every tenant that flew at least once has a VDR entry.
        let flew: usize = out.tenants.values().filter(|t| t.flights_flown > 0).count();
        assert_eq!(out.vdr.entries, flew);
        assert_eq!(out.vdr.leased, 0, "every lease resolved");
        // Multi-flight tenants telescoped saves; compaction caught them.
        assert!(out.vdr.compacted_saves > 0);
        assert!(out.vdr.reclaimed_bytes > 0);
    }
}
