//! The fallible cloud façade: [`CloudService`] behind injected
//! cloud-side faults.
//!
//! The paper treats the cloud as an always-up oracle; a fleet-scale
//! chaos run cannot. [`FallibleCloud`] wraps the service and arms the
//! [`CloudFaultKind`] windows of a fleet fault plan, one wave (one
//! planning round) at a time, mapping each fault onto a typed error
//! plus a degraded mode instead of a panic:
//!
//! - **Portal down / planner rejection** — the wave's orders queue in
//!   the façade and merge into the next healthy planning round.
//! - **VDR unavailable** — interrupted virtual drones cannot be
//!   checked out; the caller leaves them for a later wave (their
//!   entries stay safely leased-or-stored either way).
//! - **Storage write failures** — offloads run under the SDK's
//!   deterministic retry/backoff; when the attempt budget is
//!   exhausted the offload buffers (on-drone, conceptually) and
//!   drains on heal, billing reconciled at drain time.
//!
//! Everything is deterministic: the armed set is pure plan data, the
//! retry backoff is the SDK's jitter-free policy, and the façade log
//! records each degraded-mode decision for the dual-run sanitizer.

use std::collections::VecDeque;

use androne_hal::GeoPoint;
use androne_obs::{ObsHandle, Subsystem, TraceEvent};
use androne_planner::FlightPlan;
use androne_sdk::{retry_with_backoff, Backpressure, RetryFailure, RetryPolicy};
use androne_simkern::{CloudFaultKind, SimDuration};

use crate::admission::{AdmissionConfig, AdmissionError, AdmissionQueue};
use crate::portal::{OrderError, PlacedOrder};
use crate::service::{CloudService, NotificationKind};
use crate::vdr::SavedVirtualDrone;

/// A typed cloud-side failure surfaced to the fleet executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// The portal is down; the orders were queued.
    PortalDown,
    /// The VDR is unreachable; nothing was checked out.
    VdrUnavailable,
    /// A storage write failed after `attempts` tries.
    StorageWrite { attempts: u32 },
    /// The planner rejected the wave; the orders were queued.
    PlannerRejected,
}

impl std::fmt::Display for CloudError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloudError::PortalDown => write!(f, "portal down"),
            CloudError::VdrUnavailable => write!(f, "virtual drone repository unavailable"),
            CloudError::StorageWrite { attempts } => {
                write!(f, "storage write failed after {attempts} attempts")
            }
            CloudError::PlannerRejected => write!(f, "flight planner rejected the wave"),
        }
    }
}

impl std::error::Error for CloudError {}

/// A non-blocking order submission rejection: either the portal said
/// no (bad order) or the admission queue is full (try again at the
/// advertised wave).
#[derive(Debug, Clone, PartialEq)]
pub enum OrderSubmitError {
    /// The portal rejected the order itself.
    Order(OrderError),
    /// The order is valid but the admission queue is at capacity. The
    /// already-validated order rides back so the retry (via
    /// [`FallibleCloud::resubmit`]) skips portal revalidation.
    Backpressure {
        err: AdmissionError,
        order: Box<PlacedOrder>,
    },
}

impl std::fmt::Display for OrderSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderSubmitError::Order(e) => write!(f, "{e}"),
            OrderSubmitError::Backpressure { err, .. } => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for OrderSubmitError {}

impl Backpressure for OrderSubmitError {
    fn retry_wave(&self) -> Option<u64> {
        match self {
            OrderSubmitError::Order(_) => None,
            OrderSubmitError::Backpressure { err, .. } => err.retry_wave(),
        }
    }
}

/// The receipt of a successfully enqueued order: not planned yet,
/// just admitted into its tenant's FIFO lane. The order id names the
/// order among the cloud's queued orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionTicket {
    pub order_id: u64,
}

/// An offload held back by a storage outage, awaiting heal.
#[derive(Debug, Clone)]
struct BufferedOffload {
    user: String,
    flight_id: u64,
    path: String,
    data: bytes::Bytes,
}

/// [`CloudService`] behind injected fault windows.
pub struct FallibleCloud {
    /// The wrapped service; healthy paths pass straight through.
    pub inner: CloudService,
    /// Cloud faults armed for the current wave.
    armed: Vec<CloudFaultKind>,
    /// Retry policy for storage writes (deterministic backoff).
    retry: RetryPolicy,
    /// The admission queue: orders submitted via [`Self::resubmit`]
    /// or [`Self::resubmit_all`] and orders displaced by a
    /// portal/planner outage, in per-tenant FIFO lanes. The default
    /// config is unlimited: each healthy wave drains every queued
    /// order in submission order.
    admission: AdmissionQueue<PlacedOrder>,
    /// The wave most recently begun (for backpressure retry math).
    wave: u64,
    /// Offloads awaiting a storage heal.
    buffered: Vec<BufferedOffload>,
    /// Total simulated backoff spent in retries (bookkeeping only).
    pub backoff_spent: SimDuration,
    /// Human-readable record of every degraded-mode decision.
    pub log: Vec<String>,
    /// Observability handle; detached (free) unless the fleet
    /// executor attached one.
    obs: ObsHandle,
}

impl FallibleCloud {
    /// Wraps a fresh service with no faults armed.
    pub fn new() -> Self {
        Self::from_service(CloudService::new())
    }

    /// Wraps an existing service.
    pub fn from_service(inner: CloudService) -> Self {
        FallibleCloud {
            inner,
            armed: Vec::new(),
            retry: RetryPolicy::default(),
            admission: AdmissionQueue::new(AdmissionConfig::unlimited()),
            wave: 0,
            buffered: Vec::new(),
            backoff_spent: SimDuration::from_nanos(0),
            log: Vec::new(),
            obs: ObsHandle::default(),
        }
    }

    /// Wraps a fresh service with a VDR sharded `shards` ways.
    pub fn with_shards(shards: usize) -> Self {
        Self::from_service(CloudService::with_shards(shards))
    }

    /// Replaces the admission config in place. Queued orders, the
    /// round-robin cursor and the counters carry over; only the
    /// quota/capacity change, and a backlog past the new capacity is
    /// kept, never dropped.
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        self.admission.cfg = cfg;
    }

    /// The admission queue (metrics, tests).
    pub fn admission(&self) -> &AdmissionQueue<PlacedOrder> {
        &self.admission
    }

    /// Attaches the shared observability handle; degraded-mode
    /// decisions and retry ladders are traced from then on.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Arms `faults` for wave `wave`, healing whatever is no longer
    /// armed: a storage heal drains the offload buffer (billing
    /// reconciled now), a portal/planner heal lets the queued orders
    /// merge into this wave's planning round.
    pub fn begin_wave(&mut self, wave: u64, faults: Vec<CloudFaultKind>) {
        self.wave = wave;
        self.armed = faults;
        if !self.armed.is_empty() {
            self.log
                .push(format!("wave {wave}: armed {:?}", self.armed));
            self.obs.count("cloud.fault_waves", 1);
            self.obs
                .emit(Subsystem::Cloud, || TraceEvent::CloudDegraded {
                    mode: "faults-armed",
                    detail: format!("wave {wave}: {:?}", self.armed),
                });
        }
        if self.storage_transients().is_none() && !self.buffered.is_empty() {
            self.log.push(format!(
                "wave {wave}: storage healed, draining {} buffered offloads",
                self.buffered.len()
            ));
            self.obs.count("cloud.storage_heals", 1);
            self.obs
                .emit(Subsystem::Cloud, || TraceEvent::CloudDegraded {
                    mode: "storage-healed",
                    detail: format!("wave {wave}: {} offloads drained", self.buffered.len()),
                });
            let buffered = std::mem::take(&mut self.buffered);
            for b in buffered {
                self.offload_now(&b.user, b.flight_id, b.path, b.data);
            }
        }
    }

    fn portal_down(&self) -> bool {
        self.armed
            .iter()
            .any(|f| matches!(f, CloudFaultKind::PortalDown))
    }

    fn vdr_down(&self) -> bool {
        self.armed
            .iter()
            .any(|f| matches!(f, CloudFaultKind::VdrUnavailable))
    }

    fn planner_rejecting(&self) -> bool {
        self.armed
            .iter()
            .any(|f| matches!(f, CloudFaultKind::PlannerReject))
    }

    /// Transient failures per storage write while the fault is armed.
    fn storage_transients(&self) -> Option<u32> {
        self.armed.iter().find_map(|f| match f {
            CloudFaultKind::StorageWriteFail { transient_failures } => Some(*transient_failures),
            _ => None,
        })
    }

    /// Enqueues an order that cleared portal validation without
    /// planning it: the non-blocking front door of the control plane,
    /// and the retry path after [`OrderSubmitError::Backpressure`],
    /// where re-validating would only re-prove what the first
    /// submission proved. The order joins its virtual drone's FIFO
    /// lane and is planned when the batch admitter releases it into a
    /// wave. At capacity the caller gets the backpressure error with
    /// the earliest retry wave instead of an unbounded queue.
    pub fn resubmit(&mut self, placed: PlacedOrder) -> Result<AdmissionTicket, OrderSubmitError> {
        // A bounce hands the order back whole; an accepted order
        // allocates its name once, as its lane's key.
        if self.admission.room() == 0 {
            return Err(OrderSubmitError::Backpressure {
                err: self.bounce(1),
                order: Box::new(placed),
            });
        }
        let order_id = placed.order_id;
        self.admission
            .enqueue_unbounded(placed.vd_name.clone(), placed);
        self.obs.count("cloud.orders_enqueued", 1);
        Ok(AdmissionTicket { order_id })
    }

    /// [`Self::resubmit`] over a run of validated orders, in order:
    /// enqueues the prefix that fits and leaves the bounced tail in
    /// `orders`. Returns how many were accepted and, when a tail is
    /// left, the backpressure every order in it met. A bounce leaves
    /// the queue depth unchanged, so once one order bounces all later
    /// ones meet the same error: the result, the queue and the
    /// counters equal those of calling [`Self::resubmit`] on each
    /// order in turn.
    pub fn resubmit_all(
        &mut self,
        orders: &mut VecDeque<PlacedOrder>,
    ) -> (usize, Option<AdmissionError>) {
        let fit = self.admission.room().min(orders.len());
        for placed in orders.drain(..fit) {
            self.admission
                .enqueue_unbounded(placed.vd_name.clone(), placed);
        }
        if fit > 0 {
            self.obs.count("cloud.orders_enqueued", fit as u64);
        }
        let bounced = (!orders.is_empty()).then(|| self.bounce(orders.len()));
        (fit, bounced)
    }

    /// Counts `n` submissions bounced at the current wave.
    fn bounce(&mut self, n: usize) -> AdmissionError {
        self.obs.count("cloud.orders_backpressured", n as u64);
        self.admission.bounce(self.wave, n as u64)
    }

    /// Releases this wave's admitted batch of queued orders, in the
    /// admitter's deterministic order (sequence order when unlimited,
    /// round-robin across tenant lanes when batched).
    pub fn admit_orders(&mut self) -> Vec<PlacedOrder> {
        self.admission.admit()
    }

    /// Plans the wave's flights, or queues the orders behind a typed
    /// error when the portal or planner is down. A healthy round
    /// merges previously queued orders with the new ones (new orders
    /// win on a name collision — a queued resume order is stale once
    /// the caller rebuilt it).
    pub fn try_plan_flights(
        &mut self,
        orders: &[PlacedOrder],
        base: GeoPoint,
        fleet_size: usize,
    ) -> Result<Vec<FlightPlan>, CloudError> {
        if self.portal_down() || self.planner_rejecting() {
            let err = if self.portal_down() {
                CloudError::PortalDown
            } else {
                CloudError::PlannerRejected
            };
            for o in orders {
                // One lane per virtual drone: a lane that already
                // holds this name's order keeps it.
                if self.admission.lane_pending(&o.vd_name) == 0 {
                    self.admission
                        .enqueue_unbounded(o.vd_name.clone(), o.clone());
                }
            }
            let depth = self.admission.pending();
            self.log.push(format!("{err}: {depth} orders queued"));
            self.obs.count("cloud.orders_queued", orders.len() as u64);
            self.obs
                .emit(Subsystem::Cloud, || TraceEvent::CloudDegraded {
                    mode: "planning-down",
                    detail: format!("{err}: {depth} orders queued"),
                });
            return Err(err);
        }
        let mut all: Vec<PlacedOrder> = orders.to_vec();
        for q in self.admit_orders() {
            if !all.iter().any(|o| o.vd_name == q.vd_name) {
                all.push(q);
            }
        }
        Ok(self.inner.plan_flights(&all, base, fleet_size))
    }

    /// Checks out a saved virtual drone for resume, unless the VDR
    /// is unreachable this wave. `Ok(None)` means nothing is stored
    /// (or the name is already leased).
    pub fn checkout_saved(&mut self, name: &str) -> Result<Option<SavedVirtualDrone>, CloudError> {
        if self.vdr_down() {
            self.log
                .push(format!("vdr unavailable: {name} not checked out"));
            self.obs.count("cloud.vdr_unavailable", 1);
            self.obs
                .emit(Subsystem::Cloud, || TraceEvent::CloudDegraded {
                    mode: "vdr-unavailable",
                    detail: name.to_string(),
                });
            return Err(CloudError::VdrUnavailable);
        }
        Ok(self.inner.vdr.checkout(name).cloned())
    }

    /// Post-flight bookkeeping under faults. Energy billing is an
    /// internal ledger write and always reconciles; each file offload
    /// runs under the deterministic retry policy, buffering when the
    /// attempt budget is exhausted.
    pub fn try_complete_flight(
        &mut self,
        user: &str,
        flight_id: u64,
        energy_used_j: f64,
        files: Vec<(String, bytes::Bytes)>,
    ) {
        self.inner.billing.charge_energy(user, energy_used_j);
        let mut links = Vec::new();
        let mut buffered = 0usize;
        for (path, data) in files {
            match self.offload_with_retry(user, flight_id, &path, &data) {
                Ok(link) => links.push(link),
                Err(e) => {
                    self.log.push(format!(
                        "flight {flight_id}: {e}; buffering {path} for {user}"
                    ));
                    self.obs.count("cloud.offloads_buffered", 1);
                    self.obs
                        .emit(Subsystem::Cloud, || TraceEvent::CloudDegraded {
                            mode: "offload-buffered",
                            detail: format!("flight {flight_id}: {path} for {user}"),
                        });
                    self.buffered.push(BufferedOffload {
                        user: user.to_string(),
                        flight_id,
                        path,
                        data,
                    });
                    buffered += 1;
                }
            }
        }
        let mut message = if links.is_empty() {
            format!("Flight {flight_id} complete.")
        } else {
            format!(
                "Flight {flight_id} complete. Your files: {}",
                links.join(", ")
            )
        };
        if buffered > 0 {
            message.push_str(&format!(
                " {buffered} files are delayed by a storage outage and will follow."
            ));
        }
        self.inner.notify(user, NotificationKind::Email, message);
    }

    /// One offload under the retry policy. While `StorageWriteFail`
    /// is armed, the first `transient_failures` attempts fail; the
    /// deterministic backoff ladder runs between attempts.
    fn offload_with_retry(
        &mut self,
        user: &str,
        flight_id: u64,
        path: &str,
        data: &bytes::Bytes,
    ) -> Result<String, CloudError> {
        let transients = self.storage_transients().unwrap_or(0);
        let retry = self.retry;
        let mut backoff = SimDuration::from_nanos(0);
        let attempted = retry_with_backoff(
            &retry,
            |_e: &CloudError| true,
            |attempt| {
                if attempt <= transients {
                    Err(CloudError::StorageWrite { attempts: attempt })
                } else {
                    Ok(())
                }
            },
            &mut |d| backoff = SimDuration::from_nanos(backoff.as_nanos() + d.as_nanos()),
        );
        self.backoff_spent =
            SimDuration::from_nanos(self.backoff_spent.as_nanos() + backoff.as_nanos());
        if transients > 0 {
            let (attempts, gave_up) = match &attempted {
                Ok(()) => (transients + 1, false),
                Err(RetryFailure::Exhausted { attempts, .. }) => (*attempts, true),
                Err(RetryFailure::Fatal(_)) => (1, true),
            };
            self.obs.count(
                "cloud.storage_retries",
                u64::from(attempts.saturating_sub(1)),
            );
            self.obs.emit(Subsystem::Cloud, || TraceEvent::CloudRetry {
                op: "storage-offload",
                attempts,
                backoff_ns: backoff.as_nanos(),
                gave_up,
            });
        }
        match attempted {
            Ok(()) => {
                if transients > 0 {
                    self.log.push(format!(
                        "storage write {path}: succeeded after {transients} transient failures"
                    ));
                }
                Ok(self.offload_now(user, flight_id, path.to_string(), data.clone()))
            }
            Err(RetryFailure::Exhausted { attempts, .. }) => {
                Err(CloudError::StorageWrite { attempts })
            }
            Err(RetryFailure::Fatal(e)) => Err(e),
        }
    }

    /// The healthy offload path: storage write, storage billing, and
    /// the retrieval link.
    fn offload_now(
        &mut self,
        user: &str,
        flight_id: u64,
        path: String,
        data: bytes::Bytes,
    ) -> String {
        self.inner
            .billing
            .charge_storage(user, data.len() as f64 / 1e9);
        let link = self.inner.storage.offload(user, flight_id, path, data);
        self.inner.notify(
            user,
            NotificationKind::Email,
            format!("Your file is ready: {link}"),
        );
        link
    }

    /// Refunds the unserved remainder of a terminally failed order
    /// and notifies the user.
    pub fn refund_unserved(&mut self, user: &str, vd_name: &str, energy_j: f64) {
        self.inner.billing.refund_energy(user, energy_j);
        self.log
            .push(format!("refund {user}/{vd_name}: {energy_j:.1} J unserved"));
        self.inner.notify(
            user,
            NotificationKind::Email,
            format!(
                "Virtual drone {vd_name} could not complete its mission; \
                 {energy_j:.0} J of unserved allotment was refunded."
            ),
        );
    }
}

impl Default for FallibleCloud {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portal::PlacedOrder;
    use androne_vdc::VirtualDroneSpec;

    const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

    fn order(name: &str) -> PlacedOrder {
        PlacedOrder {
            order_id: 1,
            user: format!("user-{name}"),
            vd_name: name.to_string(),
            spec: VirtualDroneSpec::example_survey(),
            flexible_schedule: true,
        }
    }

    #[test]
    fn portal_down_queues_orders_and_heals_into_next_wave() {
        let mut cloud = FallibleCloud::new();
        cloud.begin_wave(0, vec![CloudFaultKind::PortalDown]);
        let err = cloud
            .try_plan_flights(&[order("vd-a")], BASE, 1)
            .unwrap_err();
        assert_eq!(err, CloudError::PortalDown);
        assert_eq!(cloud.admission.pending(), 1);

        cloud.begin_wave(1, vec![]);
        let plans = cloud.try_plan_flights(&[], BASE, 1).unwrap();
        assert!(!plans.is_empty(), "queued order planned after heal");
        assert!(cloud.admission.is_empty());
    }

    #[test]
    fn planner_rejection_requeues_without_duplicates() {
        let mut cloud = FallibleCloud::new();
        cloud.begin_wave(0, vec![CloudFaultKind::PlannerReject]);
        assert_eq!(
            cloud
                .try_plan_flights(&[order("vd-a")], BASE, 1)
                .unwrap_err(),
            CloudError::PlannerRejected
        );
        // The caller retries the same wave orders; no duplicate queue
        // entries accumulate.
        let _ = cloud.try_plan_flights(&[order("vd-a")], BASE, 1);
        assert_eq!(cloud.admission.pending(), 1);
    }

    #[test]
    fn vdr_outage_blocks_checkout_without_losing_the_entry() {
        let mut cloud = FallibleCloud::new();
        cloud.begin_wave(0, vec![CloudFaultKind::VdrUnavailable]);
        assert_eq!(
            cloud.checkout_saved("vd-a").unwrap_err(),
            CloudError::VdrUnavailable
        );
        cloud.begin_wave(1, vec![]);
        assert!(
            cloud.checkout_saved("vd-a").unwrap().is_none(),
            "nothing stored"
        );
    }

    #[test]
    fn transient_storage_failures_clear_under_retry() {
        let mut cloud = FallibleCloud::new();
        // 2 transient failures < 4 attempts: the retry ladder clears.
        cloud.begin_wave(
            0,
            vec![CloudFaultKind::StorageWriteFail {
                transient_failures: 2,
            }],
        );
        cloud.try_complete_flight(
            "alice",
            7,
            1_000.0,
            vec![("/data/a.bin".into(), bytes::Bytes::from_static(b"xy"))],
        );
        assert!(cloud.buffered.is_empty(), "retries succeeded");
        assert!(cloud.inner.storage.fetch("alice", "/data/a.bin").is_some());
        assert!(
            cloud.backoff_spent.as_nanos() > 0,
            "backoff actually waited"
        );
        assert!((cloud.inner.billing.bill("alice").energy_j - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn exhausted_storage_retries_buffer_and_drain_on_heal() {
        let mut cloud = FallibleCloud::new();
        cloud.begin_wave(
            0,
            vec![CloudFaultKind::StorageWriteFail {
                transient_failures: 10,
            }],
        );
        cloud.try_complete_flight(
            "alice",
            7,
            1_000.0,
            vec![("/data/a.bin".into(), bytes::Bytes::from_static(b"xy"))],
        );
        assert_eq!(cloud.buffered.len(), 1, "offload buffered");
        assert!(cloud.inner.storage.fetch("alice", "/data/a.bin").is_none());
        // Billing for storage waits for the write; energy reconciled.
        assert_eq!(cloud.inner.billing.bill("alice").storage_gb_months, 0.0);
        assert!((cloud.inner.billing.bill("alice").energy_j - 1_000.0).abs() < 1e-9);

        cloud.begin_wave(1, vec![]);
        assert!(cloud.buffered.is_empty(), "drained on heal");
        assert!(cloud.inner.storage.fetch("alice", "/data/a.bin").is_some());
        assert!(cloud.inner.billing.bill("alice").storage_gb_months > 0.0);
    }

    #[test]
    fn refunds_reach_the_ledger_and_the_user() {
        let mut cloud = FallibleCloud::new();
        cloud.inner.billing.charge_energy("alice", 10_000.0);
        cloud.refund_unserved("alice", "vd-a", 4_000.0);
        assert!((cloud.inner.billing.bill("alice").net_energy_j() - 6_000.0).abs() < 1e-9);
        assert!(cloud
            .inner
            .notifications
            .last()
            .unwrap()
            .message
            .contains("refunded"));
    }

    /// A cloud at wave `wave` under `cfg` whose queue already holds
    /// `depth` orders (possibly past capacity, as after an outage).
    fn cloud_at_depth(cfg: AdmissionConfig, depth: usize, wave: u64) -> FallibleCloud {
        let mut cloud = FallibleCloud::new();
        cloud.set_obs(ObsHandle::attached());
        cloud.set_admission(cfg);
        for i in 0..depth {
            let mut o = order(&format!("vd-{}", i % 3));
            o.order_id = 1_000 + i as u64;
            cloud.admission.enqueue_unbounded(o.vd_name.clone(), o);
        }
        cloud.begin_wave(wave, vec![]);
        cloud
    }

    fn counters(cloud: &FallibleCloud) -> Vec<(&'static str, u64)> {
        cloud
            .obs
            .with(|o| o.metrics.counters().collect())
            .unwrap_or_default()
    }

    proptest::proptest! {
        #[test]
        fn resubmit_all_equals_a_loop_of_resubmit(
            batched in proptest::arbitrary::any::<bool>(),
            cap in 0usize..12,
            quota in 0usize..5,
            depth in 0usize..16,
            batch in 0usize..16,
            wave in 0u64..5,
        ) {
            let cfg = if batched {
                AdmissionConfig::batched(quota, cap)
            } else {
                AdmissionConfig::unlimited()
            };
            let orders: VecDeque<PlacedOrder> = (0..batch)
                .map(|i| {
                    let mut o = order(&format!("vd-{}", i % 4));
                    o.order_id = i as u64;
                    o
                })
                .collect();

            let mut one = cloud_at_depth(cfg, depth, wave);
            let (mut accepted, mut tail, mut errs) = (0usize, VecDeque::new(), Vec::new());
            for o in orders.clone() {
                match one.resubmit(o) {
                    Ok(_) => accepted += 1,
                    Err(OrderSubmitError::Backpressure { err, order }) => {
                        errs.push(err);
                        tail.push_back(*order);
                    }
                    Err(OrderSubmitError::Order(e)) => return Err(format!("rejected: {e}")),
                }
            }

            let mut all = cloud_at_depth(cfg, depth, wave);
            let mut rest = orders;
            let (fit, bounced) = all.resubmit_all(&mut rest);

            proptest::prop_assert_eq!(fit, accepted);
            proptest::prop_assert_eq!(&rest, &tail);
            proptest::prop_assert!(errs.iter().all(|e| Some(*e) == bounced));
            proptest::prop_assert_eq!(bounced.is_some(), !errs.is_empty());
            proptest::prop_assert_eq!(
                all.admission().backpressure_total(),
                one.admission().backpressure_total()
            );
            proptest::prop_assert_eq!(all.admission().pending(), one.admission().pending());
            proptest::prop_assert_eq!(counters(&all), counters(&one));
            let admitted = |c: &mut FallibleCloud| -> Vec<(String, u64)> {
                c.admit_orders()
                    .into_iter()
                    .map(|o| (o.vd_name, o.order_id))
                    .collect()
            };
            proptest::prop_assert_eq!(admitted(&mut all), admitted(&mut one));
        }
    }

    #[test]
    fn set_admission_keeps_the_backlog_cursor_and_counters() {
        let cfg = AdmissionConfig::batched(2, 4);
        let run = |reconfigure: bool| {
            let mut cloud = FallibleCloud::new();
            cloud.set_admission(cfg);
            let mut orders: VecDeque<PlacedOrder> = (0..6)
                .map(|i| {
                    let mut o = order(&format!("vd-{}", i % 3));
                    o.order_id = i;
                    o
                })
                .collect();
            assert_eq!(cloud.resubmit_all(&mut orders).0, 4, "two bounce");
            // The first batch moves the cursor past vd-1.
            let mut batches = vec![cloud.admit_orders()];
            if reconfigure {
                cloud.set_admission(cfg);
            }
            while !cloud.admission().is_empty() {
                batches.push(cloud.admit_orders());
            }
            let ids: Vec<Vec<u64>> = batches
                .iter()
                .map(|b| b.iter().map(|o| o.order_id).collect())
                .collect();
            let q = cloud.admission();
            (ids, q.peak_depth(), q.backpressure_total())
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), (vec![vec![0, 1], vec![2, 3]], 4, 2));
    }
}
