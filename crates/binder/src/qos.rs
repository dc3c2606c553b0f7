//! Tenant QoS: the admission policy the Binder driver applies to
//! budgeted tenants — per-tenant token buckets and parcel ceilings,
//! fd and subscription budgets, the aggregate cap shared by every
//! budgeted tenant, and refill-boundary jitter. None of this is the
//! paper's Binder protocol; it is the adversarial-tenant defense
//! layered on top of it.
//!
//! The driver holds one [`QosPolicy`] and consults it only where
//! traffic is admitted: [`QosPolicy::admit`] on every transaction,
//! [`QosPolicy::charge_fd`] on every fd install, and
//! [`BinderDriver::try_subscribe`] on every telemetry subscription.
//! The driver's QoS configuration methods are defined here too, so
//! `driver.rs` holds only the protocol.

use std::collections::BTreeMap;

use androne_obs::{ObsHandle, Subsystem, TraceEvent};
use androne_simkern::{refill_jitter_ns, ContainerId, StateHash, StateHasher};

use crate::driver::{tenant_label, BinderDriver};
use crate::error::BinderError;

/// Per-tenant QoS budget. Entirely opt-in: a tenant without a budget
/// is unlimited, and a driver with no budgets configured runs the
/// exact pre-QoS code path (and hashes identically to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQos {
    /// Token-bucket refill: transactions admitted per sim-second.
    pub rate_per_s: u64,
    /// Token-bucket capacity (burst headroom).
    pub burst: u64,
    /// Per-transaction parcel size ceiling, bytes.
    pub max_parcel_bytes: u64,
    /// File descriptors one tenant may install, lifetime total.
    pub max_fds: u32,
    /// Concurrent telemetry subscriptions one tenant may hold.
    pub max_subscriptions: u32,
}

impl TenantQos {
    /// A budget generous enough that well-behaved tenants (telemetry
    /// at MAVLink rates, a camera stream, waypoint traffic) never
    /// notice it, while floods, bombs, and storms trip it within one
    /// observer tick.
    pub const DEFENSIVE_DEFAULT: TenantQos = TenantQos {
        rate_per_s: 120,
        burst: 240,
        max_parcel_bytes: 65_536,
        max_fds: 256,
        max_subscriptions: 32,
    };
}

/// Aggregate (all-tenant) admission pressure cap: one token bucket
/// shared by every *budgeted* tenant, charged after the per-tenant
/// bucket admits. Per-tenant budgets bound each attacker alone;
/// this bounds what colluding attackers can admit *together* —
/// tenants that rotate or synchronize bursts so that no individual
/// bucket rejects still cannot push the aggregate admitted load
/// past the cap. Unbudgeted (trusted mission) traffic is never
/// charged, so the cap cannot be weaponized to starve victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateQos {
    /// Aggregate token-bucket refill: admissions per sim-second
    /// across all budgeted tenants.
    pub rate_per_s: u64,
    /// Aggregate bucket capacity (the hard per-tick admission
    /// ceiling, which bounds the kernel interference any admitted
    /// adversarial load can generate).
    pub burst: u64,
}

impl AggregateQos {
    /// The hardened default: roomy enough for one well-behaved
    /// budgeted tenant at [`TenantQos::DEFENSIVE_DEFAULT`] rates,
    /// tight enough that the worst admitted burst keeps the
    /// admitted-load interference ceiling under the 2500 µs
    /// fast-loop deadline (see
    /// `androne_simkern::latency::profiles::attack_admitted`).
    pub const HARDENED_DEFAULT: AggregateQos = AggregateQos {
        rate_per_s: 200,
        burst: 300,
    };
}

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Upper bound on the per-epoch refill-boundary jitter. 1.5 sim
/// seconds — deliberately *longer* than the refill period, so at the
/// 1 Hz granularity an attacker can observe (ticks), the visible
/// refill quantum per tick wobbles between zero, one, and two
/// quanta. A sub-second jitter would shift the boundary within a
/// tick and change nothing a tick-granular prober can see.
const REFILL_JITTER_MAX_NS: u64 = 1_500_000_000;

/// One token bucket, refilled lazily against sim time. The tenant
/// buckets and the aggregate bucket are both this type; the caller
/// passes the rate and capacity, since a tenant's can be halved and
/// restored by the escalation ladder.
#[derive(Debug, Clone)]
struct Bucket {
    tokens: u64,
    /// Sim time of the last refill.
    last_refill_ns: u64,
}

impl Bucket {
    /// Pays out `quanta` refills of `rate` tokens, capped at `burst`.
    fn credit(&mut self, quanta: u64, rate: u64, burst: u64) {
        self.tokens = self
            .tokens
            .saturating_add(quanta.saturating_mul(rate))
            .min(burst);
    }

    /// Refills for whole elapsed sim-seconds. Integer-only, so the
    /// refill is a pure function of `(rate, burst, last refill, now)`
    /// — no float drift across thread widths.
    fn refill(&mut self, now_ns: u64, rate: u64, burst: u64) {
        let whole_s = now_ns.saturating_sub(self.last_refill_ns) / NANOS_PER_SEC;
        if whole_s > 0 {
            self.credit(whole_s, rate, burst);
            self.last_refill_ns += whole_s * NANOS_PER_SEC;
        }
    }

    /// Jittered refill: epochs stay on the absolute-second grid, but
    /// epoch `e` only pays out once `e*1s + jitter(seed, tenant, e)`
    /// has passed. Epochs are processed in index order and the scan
    /// stops at the first not-yet-due epoch, so the refill remains a
    /// pure function of `(rate, burst, seed, tenant, now)` —
    /// identical on every same-seed run — while the *cadence* an
    /// adaptive tenant observes through its own admissions is no
    /// longer learnable.
    fn refill_jittered(&mut self, now_ns: u64, rate: u64, burst: u64, seed: u64, tenant_key: u64) {
        loop {
            let epoch = self.last_refill_ns / NANOS_PER_SEC + 1;
            let due = epoch * NANOS_PER_SEC
                + refill_jitter_ns(seed, tenant_key, epoch, REFILL_JITTER_MAX_NS);
            if now_ns < due {
                return;
            }
            self.credit(1, rate, burst);
            self.last_refill_ns = epoch * NANOS_PER_SEC;
        }
    }

    /// Spends one token; `false` when the bucket is empty.
    fn take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }
}

impl StateHash for Bucket {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_u64(self.tokens);
        h.write_u64(self.last_refill_ns);
    }
}

/// Runtime QoS state for one budgeted tenant.
#[derive(Debug, Clone)]
struct TenantState {
    cfg: TenantQos,
    /// The budget as originally armed, before any escalation-ladder
    /// halving — what [`BinderDriver::restore_tenant_rate`] steps back
    /// to when the hysteresis decay walks a quiet tenant down.
    base: TenantQos,
    bucket: Bucket,
    /// File descriptors installed so far.
    fds_installed: u32,
    /// Telemetry subscriptions currently held.
    subscriptions: u32,
    /// Whether the tenant is currently in the throttled state (edge
    /// detection for the `BinderThrottle` trace event).
    throttled: bool,
    /// Total admissions rejected for this tenant.
    throttle_events: u64,
}

/// Runtime state for the aggregate admission bucket.
#[derive(Debug, Clone)]
struct AggregateState {
    cfg: AggregateQos,
    bucket: Bucket,
}

/// The driver's whole tenant-QoS policy: budgets, the aggregate cap,
/// refill jitter, and the sim time the buckets refill against.
#[derive(Debug, Clone, Default)]
pub(crate) struct QosPolicy {
    /// Per-tenant budgets (empty = the pre-QoS driver). Keyed by
    /// container so one hostile app cannot dodge its budget by
    /// spreading load across processes.
    tenants: BTreeMap<ContainerId, TenantState>,
    /// Aggregate (all-budgeted-tenant) admission cap; `None` is the
    /// per-tenant-only posture.
    aggregate: Option<AggregateState>,
    /// Seed for refill-boundary jitter; `None` keeps the exact
    /// whole-second refill grid (the pre-jitter driver, byte-exact).
    refill_jitter_seed: Option<u64>,
    /// Sim time the token buckets refill against.
    now_ns: u64,
}

/// The driver's tenant-QoS surface: arming budgets and hardening, the
/// escalation ladder's read and step hooks, and subscriptions.
impl BinderDriver {
    /// Advances the sim time token buckets refill against. The
    /// flight executor calls this once per observer tick; with no
    /// budgets configured it is a plain store with no hashed effect.
    pub fn set_now_ns(&mut self, now_ns: u64) {
        self.qos.now_ns = now_ns;
    }

    /// Arms a QoS budget for `container`. The bucket starts full at
    /// the current sim time.
    pub fn set_tenant_budget(&mut self, container: ContainerId, cfg: TenantQos) {
        let state = TenantState {
            cfg,
            base: cfg,
            bucket: Bucket {
                tokens: cfg.burst,
                last_refill_ns: self.qos.now_ns,
            },
            fds_installed: 0,
            subscriptions: 0,
            throttled: false,
            throttle_events: 0,
        };
        self.qos.tenants.insert(container, state);
    }

    /// The budget currently armed for `container`, if any.
    pub fn tenant_budget(&self, container: &ContainerId) -> Option<TenantQos> {
        self.qos.tenants.get(container).map(|s| s.cfg)
    }

    /// Total admissions rejected for `container` so far.
    pub fn throttle_count(&self, container: &ContainerId) -> u64 {
        self.qos
            .tenants
            .get(container)
            .map_or(0, |s| s.throttle_events)
    }

    /// Escalation-ladder step: halves `container`'s transaction rate
    /// and burst (floored at 1/s so the tenant can still make
    /// progress toward a terminal outcome). Returns whether a budget
    /// was armed to halve.
    pub fn halve_tenant_rate(&mut self, container: &ContainerId) -> bool {
        match self.qos.tenants.get_mut(container) {
            Some(s) => {
                s.cfg.rate_per_s = (s.cfg.rate_per_s / 2).max(1);
                s.cfg.burst = (s.cfg.burst / 2).max(1);
                s.bucket.tokens = s.bucket.tokens.min(s.cfg.burst);
                true
            }
            None => false,
        }
    }

    /// Hysteresis-decay step: restores `container`'s budget to the
    /// rate/burst it was originally armed with, undoing any
    /// escalation-ladder halving. Tokens are clamped, never granted —
    /// stepping down cannot mint a burst. Returns whether a halved
    /// budget was actually restored.
    pub fn restore_tenant_rate(&mut self, container: &ContainerId) -> bool {
        match self.qos.tenants.get_mut(container) {
            Some(s) if s.cfg != s.base => {
                s.cfg = s.base;
                s.bucket.tokens = s.bucket.tokens.min(s.cfg.burst);
                true
            }
            _ => false,
        }
    }

    /// Arms (or with `None` disarms) the aggregate admission cap
    /// shared by every budgeted tenant. The bucket starts full.
    pub fn set_aggregate_cap(&mut self, cfg: Option<AggregateQos>) {
        let now_ns = self.qos.now_ns;
        self.qos.aggregate = cfg.map(|cfg| AggregateState {
            cfg,
            bucket: Bucket {
                tokens: cfg.burst,
                last_refill_ns: now_ns,
            },
        });
    }

    /// The aggregate cap currently armed, if any.
    pub fn aggregate_cap(&self) -> Option<AggregateQos> {
        self.qos.aggregate.as_ref().map(|s| s.cfg)
    }

    /// Arms (or with `None` disarms) refill-boundary jitter: each
    /// tenant's token-bucket refill epoch `e` lands at
    /// `e*1s + refill_jitter_ns(seed, tenant, e)` instead of exactly
    /// on the second, so an adaptive tenant cannot learn the refill
    /// cadence from its own admission feedback. Disarmed, refill is
    /// byte-exact with the pre-jitter driver.
    pub fn set_refill_jitter(&mut self, seed: Option<u64>) {
        self.qos.refill_jitter_seed = seed;
    }

    /// The refill-jitter seed currently armed, if any.
    pub fn refill_jitter(&self) -> Option<u64> {
        self.qos.refill_jitter_seed
    }

    /// Takes one telemetry subscription slot for `container`.
    /// Unbudgeted tenants subscribe freely (and untracked).
    pub fn try_subscribe(&mut self, container: ContainerId) -> Result<(), BinderError> {
        self.qos
            .charge_slot(container, "subscription-budget", &self.obs, |s| {
                (&mut s.subscriptions, s.cfg.max_subscriptions)
            })
    }

    /// Releases every subscription slot `container` holds (attack
    /// disarm, tenant teardown).
    pub fn release_subscriptions(&mut self, container: &ContainerId) {
        if let Some(s) = self.qos.tenants.get_mut(container) {
            s.subscriptions = 0;
        }
    }
}

impl QosPolicy {
    /// Token-bucket + parcel-ceiling admission for one transaction of
    /// `wire` bytes from `container`. Returns whether the tenant is
    /// budgeted (the driver labels per-tenant metrics only for
    /// budgeted tenants). Tenants without a budget pass untouched; a
    /// budget-free policy is one `is_empty` branch.
    pub fn admit(
        &mut self,
        container: ContainerId,
        wire: u64,
        obs: &ObsHandle,
    ) -> Result<bool, BinderError> {
        if self.tenants.is_empty() {
            return Ok(false);
        }
        let now_ns = self.now_ns;
        let verdict = match self.tenants.get_mut(&container) {
            None => return Ok(false),
            Some(s) => {
                let (rate, burst) = (s.cfg.rate_per_s, s.cfg.burst);
                match self.refill_jitter_seed {
                    Some(seed) => {
                        s.bucket
                            .refill_jittered(now_ns, rate, burst, seed, u64::from(container.0))
                    }
                    None => s.bucket.refill(now_ns, rate, burst),
                }
                if wire > s.cfg.max_parcel_bytes {
                    Err("parcel-size")
                } else if !s.bucket.take() {
                    Err("rate")
                } else {
                    let recovered = s.throttled;
                    s.throttled = false;
                    Ok(recovered)
                }
            }
        };
        // Aggregate cap: charged only after the per-tenant bucket
        // admits, and only for budgeted tenants — trusted unbudgeted
        // traffic never touches it, so colluders cannot starve the
        // mission by draining the shared bucket.
        let verdict = match (verdict, self.aggregate.as_mut()) {
            (Ok(recovered), Some(agg)) => {
                agg.bucket.refill(now_ns, agg.cfg.rate_per_s, agg.cfg.burst);
                if agg.bucket.take() {
                    Ok(recovered)
                } else {
                    Err("aggregate-rate")
                }
            }
            (v, _) => v,
        };
        match verdict {
            Ok(recovered) => {
                if recovered {
                    obs.emit(Subsystem::Binder, || TraceEvent::BinderThrottle {
                        container: container.0,
                        dimension: "recovered",
                        throttled: false,
                    });
                }
                Ok(true)
            }
            Err(dimension) => Err(self.throttle(container, dimension, obs)),
        }
    }

    /// Charges one installed fd against `container`'s lifetime budget.
    pub fn charge_fd(
        &mut self,
        container: ContainerId,
        obs: &ObsHandle,
    ) -> Result<(), BinderError> {
        self.charge_slot(container, "fd-budget", obs, |s| {
            (&mut s.fds_installed, s.cfg.max_fds)
        })
    }

    /// Takes one slot of a counted budget: `slot` picks the tenant's
    /// used count and its ceiling. Over the ceiling the charge is a
    /// throttle on `dimension`.
    fn charge_slot(
        &mut self,
        container: ContainerId,
        dimension: &'static str,
        obs: &ObsHandle,
        slot: impl FnOnce(&mut TenantState) -> (&mut u32, u32),
    ) -> Result<(), BinderError> {
        let Some(s) = self.tenants.get_mut(&container) else {
            return Ok(());
        };
        let (used, max) = slot(s);
        if *used >= max {
            return Err(self.throttle(container, dimension, obs));
        }
        *used += 1;
        Ok(())
    }

    /// Marks one rejected admission for `container`: bumps the
    /// counters and, on the un-throttled -> throttled edge, emits the
    /// [`TraceEvent::BinderThrottle`] record. Returns the error for
    /// the caller to surface.
    fn throttle(
        &mut self,
        container: ContainerId,
        dimension: &'static str,
        obs: &ObsHandle,
    ) -> BinderError {
        let edge = match self.tenants.get_mut(&container) {
            Some(s) => {
                s.throttle_events += 1;
                let edge = !s.throttled;
                s.throttled = true;
                edge
            }
            None => false,
        };
        let label = tenant_label(container);
        obs.count("binder.throttled", 1);
        obs.count_labeled("binder.throttled.by_tenant", &label, 1);
        if edge {
            obs.emit(Subsystem::Binder, || TraceEvent::BinderThrottle {
                container: container.0,
                dimension,
                throttled: true,
            });
        }
        BinderError::Throttled(dimension)
    }
}

impl StateHash for QosPolicy {
    fn state_hash(&self, h: &mut StateHasher) {
        // Each block hashes only when armed, so budget-free and
        // per-tenant-only digests hold unchanged.
        if !self.tenants.is_empty() {
            h.write_usize(self.tenants.len());
            for (container, s) in &self.tenants {
                container.state_hash(h);
                h.write_u64(s.cfg.rate_per_s);
                h.write_u64(s.cfg.burst);
                h.write_u64(s.cfg.max_parcel_bytes);
                h.write_u32(s.cfg.max_fds);
                h.write_u32(s.cfg.max_subscriptions);
                s.bucket.state_hash(h);
                h.write_u32(s.fds_installed);
                h.write_u32(s.subscriptions);
                h.write_bool(s.throttled);
                h.write_u64(s.throttle_events);
            }
            h.write_u64(self.now_ns);
        }
        if let Some(agg) = &self.aggregate {
            h.write_u64(agg.cfg.rate_per_s);
            h.write_u64(agg.cfg.burst);
            agg.bucket.state_hash(h);
        }
        if let Some(seed) = self.refill_jitter_seed {
            h.write_u64(seed);
        }
    }
}
