//! The Binder driver.
//!
//! This is the reproduction of the paper's central kernel
//! modification set (Section 4.1–4.2):
//!
//! - **Device-namespaced Context Managers.** Vanilla Binder allows one
//!   Context Manager (handle 0). AnDrone adds device namespaces so
//!   each container's ServiceManager can register as *its* namespace's
//!   Context Manager, isolating every container's service registry.
//! - **`PUBLISH_TO_ALL_NS`.** Callable only from the device container:
//!   registers one of its services into every other namespace's
//!   ServiceManager (and, via replay, into namespaces created later).
//! - **`PUBLISH_TO_DEV_CON`.** Callable from any container: registers
//!   that container's ActivityManager into the device container's
//!   ServiceManager under a name suffixed with the container id, so
//!   shared device services can route permission checks back to the
//!   *calling* container's ActivityManager.
//! - **Container id in transaction data.** Every transaction carries
//!   the sender's PID, EUID, and — the paper's small addition —
//!   container identifier.
//!
//! Transactions are synchronous: the driver routes a parcel to the
//! target node's handler, translating binder references and file
//! descriptors between per-process tables in flight.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use androne_container::DeviceNamespaceId;
use androne_obs::{ObsHandle, Subsystem, TraceEvent};
use androne_simkern::{ContainerId, Euid, Pid, SimDuration, StateHash, StateHasher};

use crate::error::BinderError;
use crate::fd::FileRef;
use crate::parcel::{PValue, Parcel};
use crate::qos::QosPolicy;

/// The PID the driver reports for kernel-originated registrations
/// (the `PUBLISH_*` ioctl paths).
pub const KERNEL_PID: Pid = Pid(0);

/// Global node identifier (kernel-side identity of a binder object).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// Context passed to a service alongside each transaction.
///
/// Mirrors `binder_transaction_data`: sender PID and EUID, plus
/// AnDrone's addition of the sender's container identifier.
#[derive(Debug, Clone, Copy)]
pub struct TransactionContext {
    /// Sending process.
    pub sender_pid: Pid,
    /// Sending process's effective UID.
    pub sender_euid: Euid,
    /// Sending process's container (AnDrone's addition).
    pub sender_container: ContainerId,
}

impl TransactionContext {
    /// The kernel's own context, used for ioctl-originated calls.
    pub const KERNEL: TransactionContext = TransactionContext {
        sender_pid: KERNEL_PID,
        sender_euid: Euid(0),
        sender_container: ContainerId::HOST,
    };
}

/// A Binder service implementation: the userspace side of a node.
pub trait BinderService {
    /// Handles one transaction, returning the reply parcel.
    ///
    /// Handles and fds inside `data` are already valid in this
    /// service's process; handles and fds pushed into the reply must
    /// be valid in this service's process and are translated for the
    /// caller by the driver.
    fn on_transact(
        &mut self,
        code: u32,
        data: &Parcel,
        ctx: &TransactionContext,
        driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError>;
}

/// Shared handler reference stored on a node.
pub type ServiceRef = Rc<RefCell<dyn BinderService>>;

struct Node {
    owner: Pid,
    handler: ServiceRef,
    alive: bool,
}

/// Sentinel in the node→handle and translation-cache slabs meaning
/// "no handle yet" (real handles start at 1; 0 is the Context Manager
/// alias and is never cached).
const NO_HANDLE: u32 = 0;

struct ProcState {
    euid: Euid,
    container: ContainerId,
    device_ns: DeviceNamespaceId,
    /// handle -> node, indexed by handle number. Handle 0 is
    /// reserved for the Context Manager, so slot 0 stays `None`.
    /// Handles are allocated densely and never freed, which keeps
    /// the table a flat slab: resolution is one bounds-checked load
    /// instead of a tree walk.
    handles: Vec<Option<NodeId>>,
    /// Reverse slab: node id -> handle (`NO_HANDLE` = none), keeping
    /// handle allocation stable per node. Node ids are dense
    /// (allocated sequentially by the driver), so indexing by
    /// `NodeId.0` wastes at most slot 0.
    by_node: Vec<u32>,
    next_handle: u32,
    /// fd -> open file, indexed by fd number. fds 0-2 are reserved.
    fds: Vec<Option<FileRef>>,
    next_fd: u32,
    alive: bool,
    /// Handles whose nodes died while a death link was registered
    /// (drained by `poll_death_notifications`).
    death_queue: Vec<u32>,
}

impl ProcState {
    fn handle_for(&self, node: NodeId) -> Option<u32> {
        match self.by_node.get(node.0 as usize) {
            Some(&h) if h != NO_HANDLE => Some(h),
            _ => None,
        }
    }

    fn node_for(&self, handle: u32) -> Option<NodeId> {
        self.handles.get(handle as usize).copied().flatten()
    }

    fn insert_handle(&mut self, node: NodeId) -> u32 {
        if let Some(h) = self.handle_for(node) {
            return h;
        }
        let h = self.next_handle;
        self.next_handle += 1;
        if self.handles.len() <= h as usize {
            self.handles.resize(h as usize + 1, None);
        }
        self.handles[h as usize] = Some(node);
        let idx = node.0 as usize;
        if self.by_node.len() <= idx {
            self.by_node.resize(idx + 1, NO_HANDLE);
        }
        self.by_node[idx] = h;
        h
    }

    fn file_for(&self, fd: u32) -> Option<&FileRef> {
        self.fds.get(fd as usize).and_then(|f| f.as_ref())
    }

    fn insert_fd(&mut self, file: FileRef) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        if self.fds.len() <= fd as usize {
            self.fds.resize(fd as usize + 1, None);
        }
        self.fds[fd as usize] = Some(file);
        fd
    }
}

/// Counters for the evaluation ablations.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Total transactions routed.
    pub transactions: u64,
    /// Transactions whose sender and target were in different
    /// containers (the device-container indirection path).
    pub cross_container: u64,
    /// Total parcel payload bytes moved.
    pub payload_bytes: u64,
}

/// Cost model for one transaction on Cortex-A53-class hardware:
/// two context switches plus a copy of the payload.
pub fn transaction_cost(wire_size: usize) -> SimDuration {
    // ~32 us fixed (measured binder round-trips on ARM SBCs run tens
    // of microseconds) + ~0.4 ns/byte copy cost.
    SimDuration::from_nanos(32_000 + (wire_size as u64 * 2) / 5)
}

/// Bucket bounds for the `binder.latency_ns` histogram,
/// sim-nanoseconds. The floor bucket sits at the fixed 32 us
/// round-trip cost; the tail resolves large-payload copies.
pub const BINDER_LATENCY_BOUNDS: &[u64] = &[
    32_000, 33_000, 35_000, 40_000, 50_000, 75_000, 100_000, 250_000, 1_000_000,
];

/// The metrics label for one tenant's labeled counter/histogram
/// members ("ctr3" for container 3).
pub fn tenant_label(container: ContainerId) -> String {
    format!("ctr{}", container.0)
}

/// The Binder driver instance for one board.
pub struct BinderDriver {
    /// Per-process state, ordered by PID so every iteration (and
    /// every state hash) visits processes in the same order on every
    /// same-seed run (no `HashMap`: rule R1 in `crates/clippy.toml`).
    procs: BTreeMap<Pid, ProcState>,
    /// Node slab: `NodeId(n)` lives at `nodes[n - 1]`. Node ids are
    /// allocated sequentially from 1 and nodes are never removed
    /// (death only clears `alive`), so lookups are direct indexing.
    nodes: Vec<Node>,
    context_managers: BTreeMap<DeviceNamespaceId, NodeId>,
    /// The container allowed to call `PUBLISH_TO_ALL_NS`.
    device_container: Option<(ContainerId, DeviceNamespaceId)>,
    /// Shared services already published, replayed into namespaces
    /// that register a Context Manager later.
    published_shared: Vec<(String, NodeId)>,
    /// Death links: node -> processes watching it (`linkToDeath`).
    death_links: BTreeMap<NodeId, Vec<Pid>>,
    /// Memoized handle translations: (src, dst) -> src handle -> dst
    /// handle. Sound because handle tables grow monotonically — a
    /// handle, once allocated, refers to the same node forever.
    /// Handle 0 (the per-namespace Context Manager alias) is never
    /// cached since a namespace's CM can be replaced after death.
    ///
    /// The inner table is a dense slab indexed by source handle
    /// (handles are allocated sequentially), with [`NO_HANDLE`]
    /// marking untranslated slots: deterministic iteration order
    /// (rule R1) and a plain bounds-checked load on the hot
    /// path. Revisit the monotonic-growth assumption if handle
    /// recycling or teardown compaction is ever added.
    translation_cache: BTreeMap<(Pid, Pid), Vec<u32>>,
    stats: DriverStats,
    /// Injected transaction faults (chaos testing); `None` is a
    /// healthy driver.
    fault: Option<BinderFaultInjection>,
    /// Transactions attempted since boot, counted whether or not a
    /// fault fired — the deterministic clock fault injection runs on.
    transact_attempts: u64,
    /// Observability handle; detached (free) unless the owning drone
    /// attached one.
    pub(crate) obs: ObsHandle,
    /// Tenant QoS, consulted only where traffic is admitted; its
    /// configuration API lives with it in `qos.rs`.
    pub(crate) qos: QosPolicy,
}

/// Counter-based deterministic Binder fault injection: every
/// `period`-th transaction attempt fails. No randomness — the same
/// call sequence fails at the same calls on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinderFaultInjection {
    /// Fail every `period`-th transact (0 disables).
    pub period: u32,
    /// `true` to fail with [`BinderError::TimedOut`] instead of
    /// [`BinderError::TransactionFailed`].
    pub timeout: bool,
}

impl Default for BinderDriver {
    fn default() -> Self {
        Self::new()
    }
}

impl BinderDriver {
    /// Creates an empty driver.
    pub fn new() -> Self {
        BinderDriver {
            procs: BTreeMap::new(),
            nodes: Vec::new(),
            context_managers: BTreeMap::new(),
            device_container: None,
            published_shared: Vec::new(),
            death_links: BTreeMap::new(),
            translation_cache: BTreeMap::new(),
            stats: DriverStats::default(),
            fault: None,
            transact_attempts: 0,
            obs: ObsHandle::default(),
            qos: QosPolicy::default(),
        }
    }

    /// Attaches the shared observability handle; every transaction is
    /// traced and counted from then on.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    fn node(&self, id: NodeId) -> Option<&Node> {
        // NodeId(0) is never allocated; the subtraction cannot wrap
        // for valid ids and an id of 0 misses via checked_sub.
        self.nodes.get(usize::try_from(id.0).ok()?.checked_sub(1)?)
    }

    /// Marks `container` (in `ns`) as the device container, enabling
    /// its `PUBLISH_TO_ALL_NS` privilege.
    pub fn set_device_container(&mut self, container: ContainerId, ns: DeviceNamespaceId) {
        self.device_container = Some((container, ns));
    }

    /// Driver statistics.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Arms (or with `None` disarms) deterministic transaction fault
    /// injection.
    pub fn set_fault_injection(&mut self, fault: Option<BinderFaultInjection>) {
        self.fault = fault;
    }

    /// A synthetic adversarial transaction: runs the real admission
    /// path (token bucket, parcel ceiling) and, when admitted, the
    /// real accounting (stats, latency histogram, per-tenant labels)
    /// — without routing to a handler. The attack injector uses this
    /// to model flood/bomb load without standing up a victim service
    /// per hostile parcel.
    pub fn attack_transact(
        &mut self,
        container: ContainerId,
        wire_size: usize,
    ) -> Result<(), BinderError> {
        self.qos.admit(container, wire_size as u64, &self.obs)?;
        self.stats.transactions += 1;
        self.stats.payload_bytes += wire_size as u64;
        let latency_ns = transaction_cost(wire_size).as_nanos();
        self.obs.count("binder.txn", 1);
        self.obs.count("binder.attack.txn", 1);
        self.obs
            .observe("binder.latency_ns", BINDER_LATENCY_BOUNDS, latency_ns);
        self.count_tenant_txn(container, latency_ns);
        Ok(())
    }

    /// Counts one transaction of `latency_ns` under `container`'s
    /// member of the per-tenant metric families.
    fn count_tenant_txn(&self, container: ContainerId, latency_ns: u64) {
        let label = tenant_label(container);
        self.obs.count_labeled("binder.txn.by_tenant", &label, 1);
        self.obs.observe_labeled(
            "binder.latency_ns.by_tenant",
            &label,
            BINDER_LATENCY_BOUNDS,
            latency_ns,
        );
    }

    /// A synthetic adversarial fd install: charges `container`'s fd
    /// budget without touching a real process table.
    pub fn attack_install_fd(&mut self, container: ContainerId) -> Result<(), BinderError> {
        self.qos.charge_fd(container, &self.obs)?;
        self.obs.count("binder.attack.fd", 1);
        Ok(())
    }

    /// Opens the binder device for a process.
    pub fn open(
        &mut self,
        pid: Pid,
        euid: Euid,
        container: ContainerId,
        device_ns: DeviceNamespaceId,
    ) {
        self.procs.entry(pid).or_insert(ProcState {
            euid,
            container,
            device_ns,
            handles: Vec::new(),
            by_node: Vec::new(),
            next_handle: 1,
            fds: Vec::new(),
            next_fd: 3,
            alive: true,
            death_queue: Vec::new(),
        });
    }

    fn proc(&self, pid: Pid) -> Result<&ProcState, BinderError> {
        match self.procs.get(&pid) {
            Some(p) if p.alive => Ok(p),
            _ => Err(BinderError::NotOpened(pid)),
        }
    }

    fn proc_mut(&mut self, pid: Pid) -> Result<&mut ProcState, BinderError> {
        match self.procs.get_mut(&pid) {
            Some(p) if p.alive => Ok(p),
            _ => Err(BinderError::NotOpened(pid)),
        }
    }

    /// Creates a node owned by `pid` with the given handler, returning
    /// a handle valid in the owner's table.
    pub fn create_node(&mut self, pid: Pid, handler: ServiceRef) -> Result<u32, BinderError> {
        self.proc(pid)?;
        self.nodes.push(Node {
            owner: pid,
            handler,
            alive: true,
        });
        let id = NodeId(self.nodes.len() as u64);
        Ok(self.proc_mut(pid)?.insert_handle(id))
    }

    /// Registers the node behind `handle` as the Context Manager of
    /// the caller's device namespace (`BINDER_SET_CONTEXT_MGR`).
    ///
    /// AnDrone's device-namespace extension: each namespace gets its
    /// own Context Manager; handle 0 resolves per caller namespace.
    /// Shared services published earlier are replayed into the new
    /// namespace, which is how freshly created virtual drones see the
    /// device container's services.
    pub fn set_context_manager(&mut self, pid: Pid, handle: u32) -> Result<(), BinderError> {
        let ns = self.proc(pid)?.device_ns;
        let node = self.resolve_handle(pid, handle)?;
        if let Some(&existing) = self.context_managers.get(&ns) {
            if self.node(existing).is_some_and(|n| n.alive) {
                return Err(BinderError::ContextManagerExists);
            }
        }
        self.context_managers.insert(ns, node);

        // Replay previously published shared services into the new
        // namespace, unless this *is* the device container's own
        // namespace.
        let is_device_ns = self.device_container.is_some_and(|(_, dns)| dns == ns);
        if !is_device_ns {
            let replay: Vec<(String, NodeId)> = self
                .published_shared
                .iter()
                .filter(|(_, n)| self.node(*n).is_some_and(|node| node.alive))
                .cloned()
                .collect();
            for (name, service_node) in replay {
                self.register_with_cm(node, &name, service_node)?;
            }
        }
        Ok(())
    }

    fn resolve_handle(&self, pid: Pid, handle: u32) -> Result<NodeId, BinderError> {
        let proc = self.proc(pid)?;
        if handle == 0 {
            return self
                .context_managers
                .get(&proc.device_ns)
                .copied()
                .ok_or(BinderError::NoContextManager);
        }
        proc.node_for(handle).ok_or(BinderError::BadHandle(handle))
    }

    /// Translates one binder handle from `from`'s table into `to`'s,
    /// memoizing the result in the caller-held `slab` (the
    /// `(from, to)` translation-cache entry, checked out once per
    /// parcel by [`Self::translate_parcel`]). Handle 0 is excluded
    /// from the cache because the Context Manager it aliases can
    /// change.
    fn translate_handle(
        &mut self,
        from: Pid,
        to: Pid,
        handle: u32,
        slab: &mut Option<Vec<u32>>,
    ) -> Result<u32, BinderError> {
        if handle != 0 {
            if let Some(&dst) = slab.as_ref().and_then(|s| s.get(handle as usize)) {
                if dst != NO_HANDLE {
                    return Ok(dst);
                }
            }
        }
        let node = self.resolve_handle(from, handle)?;
        let dst = self.proc_mut(to)?.insert_handle(node);
        if handle != 0 {
            let s = slab.get_or_insert_with(Vec::new);
            let idx = handle as usize;
            if s.len() <= idx {
                s.resize(idx + 1, NO_HANDLE);
            }
            s[idx] = dst;
        }
        Ok(dst)
    }

    /// Translates a parcel's binder handles and fds from `from`'s
    /// tables into `to`'s tables.
    ///
    /// Scalar-only parcels (no handles, no fds — the bulk of sensor
    /// and telemetry traffic) return immediately without touching
    /// the parcel's copy-on-write storage.
    ///
    /// Other parcels check the `(from, to)` cache slab out of the
    /// translation cache **once** and run every handle in the parcel
    /// against the local `Vec` — one tree lookup per parcel instead
    /// of one (two, on a miss) per handle. Each fd is resolved in
    /// `from`'s table and dup'ed into `to`'s. A failing value leaves
    /// the values before it translated, with their effects kept.
    fn translate_parcel(
        &mut self,
        parcel: &mut Parcel,
        from: Pid,
        to: Pid,
    ) -> Result<(), BinderError> {
        if !parcel.has_object_refs() {
            // Fast path: nothing to rewrite, but still verify both
            // endpoints exist (matching the slow path's checks).
            self.proc(from)?;
            self.proc(to)?;
            return Ok(());
        }
        let mut slab = self.translation_cache.remove(&(from, to));
        let result = self.translate_values(parcel, from, to, &mut slab);
        // Restore the slab before surfacing any error, so entries
        // written for handles earlier in a failing parcel persist
        // exactly as the per-handle path left them. Slabs are only
        // ever created non-empty, so a None→None round trip leaves
        // the cache's key set (and its state hash) untouched.
        if let Some(slab) = slab {
            self.translation_cache.insert((from, to), slab);
        }
        result
    }

    fn translate_values(
        &mut self,
        parcel: &mut Parcel,
        from: Pid,
        to: Pid,
        slab: &mut Option<Vec<u32>>,
    ) -> Result<(), BinderError> {
        for v in parcel.values_mut() {
            match v {
                PValue::Binder(h) => *h = self.translate_handle(from, to, *h, slab)?,
                PValue::Fd(fd) => {
                    let file = self.proc(from)?.file_for(*fd).cloned();
                    *fd = self
                        .proc_mut(to)?
                        .insert_fd(file.ok_or(BinderError::BadFd(*fd))?);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Performs a synchronous transaction from `caller` to the node
    /// behind `handle`, returning the translated reply.
    pub fn transact(
        &mut self,
        caller: Pid,
        handle: u32,
        code: u32,
        mut data: Parcel,
    ) -> Result<Parcel, BinderError> {
        self.transact_attempts += 1;
        if let Some(f) = self.fault {
            if f.period > 0 && self.transact_attempts.is_multiple_of(u64::from(f.period)) {
                let wire = data.wire_size() as u64;
                self.obs.count("binder.txn.injected_fail", 1);
                self.obs.emit(Subsystem::Binder, || TraceEvent::BinderTxn {
                    caller: caller.0,
                    code,
                    wire_size: wire,
                    cross_container: false,
                    latency_ns: 0,
                    ok: false,
                });
                return Err(if f.timeout {
                    BinderError::TimedOut
                } else {
                    BinderError::TransactionFailed("injected fault".into())
                });
            }
        }
        let caller_container = self.proc(caller)?.container;
        let budgeted = self
            .qos
            .admit(caller_container, data.wire_size() as u64, &self.obs)?;
        let node_id = self.resolve_handle(caller, handle)?;
        let (target_pid, handler) = {
            let node = self.node(node_id).ok_or(BinderError::DeadObject)?;
            if !node.alive {
                return Err(BinderError::DeadObject);
            }
            (node.owner, Rc::clone(&node.handler))
        };
        let caller_state = self.proc(caller)?;
        let ctx = TransactionContext {
            sender_pid: caller,
            sender_euid: caller_state.euid,
            sender_container: caller_state.container,
        };
        let cross = caller_state.container != self.proc(target_pid)?.container;

        self.translate_parcel(&mut data, caller, target_pid)?;
        self.stats.transactions += 1;
        self.stats.payload_bytes += data.wire_size() as u64;
        if cross {
            self.stats.cross_container += 1;
        }
        let wire = data.wire_size() as u64;
        let latency_ns = transaction_cost(data.wire_size()).as_nanos();
        self.obs.count("binder.txn", 1);
        if cross {
            self.obs.count("binder.txn.cross_container", 1);
        }
        self.obs
            .observe("binder.latency_ns", BINDER_LATENCY_BOUNDS, latency_ns);
        // Per-tenant labels only for budgeted tenants: labeling every
        // tenant unconditionally would perturb the metrics digest of
        // runs with no QoS configured (the pinned baselines).
        if budgeted {
            self.count_tenant_txn(caller_container, latency_ns);
        }
        self.obs.emit(Subsystem::Binder, || TraceEvent::BinderTxn {
            caller: caller.0,
            code,
            wire_size: wire,
            cross_container: cross,
            latency_ns,
            ok: true,
        });

        let mut reply = {
            let mut guard = handler
                .try_borrow_mut()
                .map_err(|_| BinderError::Reentrant)?;
            guard.on_transact(code, &data, &ctx, self)?
        };
        self.translate_parcel(&mut reply, target_pid, caller)?;
        Ok(reply)
    }

    /// Kernel-originated transaction to a node, with `data` already in
    /// the target process's handle space. Used by the publish ioctls.
    fn transact_as_kernel(
        &mut self,
        node_id: NodeId,
        code: u32,
        data: Parcel,
    ) -> Result<Parcel, BinderError> {
        let handler = {
            let node = self.node(node_id).ok_or(BinderError::DeadObject)?;
            if !node.alive {
                return Err(BinderError::DeadObject);
            }
            Rc::clone(&node.handler)
        };
        self.stats.transactions += 1;
        let mut guard = handler
            .try_borrow_mut()
            .map_err(|_| BinderError::Reentrant)?;
        guard.on_transact(code, &data, &TransactionContext::KERNEL, self)
    }

    /// Registers `(name, service_node)` with the Context Manager node
    /// `cm`, crafting the parcel in the CM owner's handle space.
    fn register_with_cm(
        &mut self,
        cm: NodeId,
        name: &str,
        service_node: NodeId,
    ) -> Result<(), BinderError> {
        let cm_owner = self.node(cm).ok_or(BinderError::DeadObject)?.owner;
        let handle = self.proc_mut(cm_owner)?.insert_handle(service_node);
        let mut data = Parcel::new();
        data.push_str(name).push_binder(handle);
        self.transact_as_kernel(cm, crate::service_manager::codes::ADD_SERVICE, data)?;
        Ok(())
    }

    /// The `PUBLISH_TO_ALL_NS` ioctl (paper Figure 6, steps ❶–❹).
    ///
    /// Callable only from the device container. Registers the service
    /// behind `handle` under `name` in every *other* namespace that
    /// has a Context Manager, and records it for replay into future
    /// namespaces. Returns how many namespaces received it.
    pub fn publish_to_all_ns(
        &mut self,
        caller: Pid,
        name: &str,
        handle: u32,
    ) -> Result<usize, BinderError> {
        let caller_container = self.proc(caller)?.container;
        let (dev_container, dev_ns) = self.device_container.ok_or(
            BinderError::PermissionDenied("no device container configured"),
        )?;
        if caller_container != dev_container {
            return Err(BinderError::PermissionDenied(
                "PUBLISH_TO_ALL_NS is restricted to the device container",
            ));
        }
        let node = self.resolve_handle(caller, handle)?;
        self.published_shared.push((name.to_string(), node));
        let targets: Vec<NodeId> = self
            .context_managers
            .iter()
            .filter(|(ns, _)| **ns != dev_ns)
            .map(|(_, cm)| *cm)
            .collect();
        let mut count = 0;
        for cm in targets {
            self.register_with_cm(cm, name, node)?;
            count += 1;
        }
        Ok(count)
    }

    /// The `PUBLISH_TO_DEV_CON` ioctl (paper Figure 6, steps ①–②).
    ///
    /// Appends the caller's container identifier to `name` and
    /// registers the service behind `handle` with the device
    /// container's ServiceManager. Returns the suffixed name device
    /// services will look up (e.g. `activity#ctr3`).
    pub fn publish_to_dev_con(
        &mut self,
        caller: Pid,
        name: &str,
        handle: u32,
    ) -> Result<String, BinderError> {
        let caller_container = self.proc(caller)?.container;
        let (_, dev_ns) = self.device_container.ok_or(BinderError::PermissionDenied(
            "no device container configured",
        ))?;
        let node = self.resolve_handle(caller, handle)?;
        let cm = self
            .context_managers
            .get(&dev_ns)
            .copied()
            .ok_or(BinderError::NoContextManager)?;
        let suffixed = scoped_service_name(name, caller_container);
        self.register_with_cm(cm, &suffixed, node)?;
        Ok(suffixed)
    }

    /// Reads the file description behind a process's fd.
    pub fn file(&self, pid: Pid, fd: u32) -> Result<FileRef, BinderError> {
        self.proc(pid)?
            .file_for(fd)
            .cloned()
            .ok_or(BinderError::BadFd(fd))
    }

    /// Installs a file description into a process's fd table (as a
    /// device would on `open()`), returning the fd. Charges the
    /// owning tenant's fd budget when one is armed; fds arriving via
    /// parcel translation (dup semantics into the *receiver*) are
    /// deliberately not charged — the receiver did not choose them.
    pub fn install_fd(&mut self, pid: Pid, file: FileRef) -> Result<u32, BinderError> {
        let container = self.proc(pid)?.container;
        self.qos.charge_fd(container, &self.obs)?;
        Ok(self.proc_mut(pid)?.insert_fd(file))
    }

    /// Registers a death link (`linkToDeath`): when the node behind
    /// `handle` dies, the caller receives a death notification.
    pub fn link_to_death(&mut self, watcher: Pid, handle: u32) -> Result<(), BinderError> {
        let node = self.resolve_handle(watcher, handle)?;
        if !self.node(node).is_some_and(|n| n.alive) {
            return Err(BinderError::DeadObject);
        }
        let watchers = self.death_links.entry(node).or_default();
        if !watchers.contains(&watcher) {
            watchers.push(watcher);
        }
        Ok(())
    }

    /// Drains pending death notifications for `pid`: the handles (in
    /// `pid`'s table) of linked nodes that have died.
    pub fn poll_death_notifications(&mut self, pid: Pid) -> Vec<u32> {
        match self.procs.get_mut(&pid) {
            Some(p) => std::mem::take(&mut p.death_queue),
            None => Vec::new(),
        }
    }

    /// Kills a process: its nodes die, later transactions to them
    /// return [`BinderError::DeadObject`], and death-linked watchers
    /// are notified.
    pub fn kill_process(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.alive = false;
        }
        let mut died = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.owner == pid && node.alive {
                node.alive = false;
                died.push(NodeId(i as u64 + 1));
            }
        }
        for node in died {
            let Some(watchers) = self.death_links.remove(&node) else {
                continue;
            };
            for watcher in watchers {
                if let Some(p) = self.procs.get_mut(&watcher) {
                    if !p.alive {
                        continue;
                    }
                    if let Some(handle) = p.handle_for(node) {
                        p.death_queue.push(handle);
                    }
                }
            }
        }
    }
}

/// The name under which a container's ActivityManager is registered
/// in the device container (paper: "appends the ActivityManager
/// service name with the container identifier").
pub fn scoped_service_name(name: &str, container: ContainerId) -> String {
    format!("{name}#ctr{}", container.0)
}

impl StateHash for BinderDriver {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_usize(self.procs.len());
        for (pid, p) in &self.procs {
            pid.state_hash(h);
            p.euid.state_hash(h);
            p.container.state_hash(h);
            h.write_u32(p.device_ns.0);
            h.write_usize(p.handles.len());
            for node in &p.handles {
                h.write_u64(node.map_or(0, |n| n.0));
            }
            // `by_node` is the exact inverse of `handles`; hashing it
            // too would be redundant.
            h.write_u32(p.next_handle);
            h.write_usize(p.fds.len());
            for fd in &p.fds {
                match fd {
                    Some(file) => h.write_str(&file.label),
                    None => h.write_u8(0),
                }
            }
            h.write_u32(p.next_fd);
            h.write_bool(p.alive);
            h.write_usize(p.death_queue.len());
            for handle in &p.death_queue {
                h.write_u32(*handle);
            }
        }
        h.write_usize(self.nodes.len());
        for node in &self.nodes {
            node.owner.state_hash(h);
            h.write_bool(node.alive);
        }
        h.write_usize(self.context_managers.len());
        for (ns, node) in &self.context_managers {
            h.write_u32(ns.0);
            h.write_u64(node.0);
        }
        match self.device_container {
            Some((c, ns)) => {
                c.state_hash(h);
                h.write_u32(ns.0);
            }
            None => h.write_u8(0),
        }
        h.write_usize(self.published_shared.len());
        for (name, node) in &self.published_shared {
            h.write_str(name);
            h.write_u64(node.0);
        }
        h.write_usize(self.death_links.len());
        for (node, watchers) in &self.death_links {
            h.write_u64(node.0);
            h.write_usize(watchers.len());
            for w in watchers {
                w.state_hash(h);
            }
        }
        // The translation cache is state: same-seed runs must build
        // identical caches, or a later structural change (e.g. cache
        // eviction) could make cached and uncached runs diverge.
        h.write_usize(self.translation_cache.len());
        for ((from, to), slab) in &self.translation_cache {
            from.state_hash(h);
            to.state_hash(h);
            h.write_usize(slab.len());
            for dst in slab {
                h.write_u32(*dst);
            }
        }
        h.write_u64(self.stats.transactions);
        h.write_u64(self.stats.cross_container);
        h.write_u64(self.stats.payload_bytes);
        match self.fault {
            Some(f) => {
                h.write_u8(1);
                h.write_u32(f.period);
                h.write_bool(f.timeout);
            }
            None => h.write_u8(0),
        }
        h.write_u64(self.transact_attempts);
        // Last, so a budget-free policy (which appends nothing)
        // leaves the pinned pre-QoS digests intact.
        self.qos.state_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service that echoes the parcel back with an extra i32
    /// (shared with the QoS tests).
    pub(super) struct Echo;

    impl BinderService for Echo {
        fn on_transact(
            &mut self,
            _code: u32,
            data: &Parcel,
            ctx: &TransactionContext,
            _driver: &mut BinderDriver,
        ) -> Result<Parcel, BinderError> {
            let mut reply = data.clone();
            reply.push_i32(ctx.sender_pid.0 as i32);
            Ok(reply)
        }
    }

    fn setup() -> (BinderDriver, Pid, Pid, u32) {
        let mut d = BinderDriver::new();
        let server = Pid(10);
        let client = Pid(20);
        d.open(server, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
        d.open(client, Euid(10_050), ContainerId(2), DeviceNamespaceId(2));
        let server_handle = d.create_node(server, Rc::new(RefCell::new(Echo))).unwrap();
        // Hand the client a handle by translating a parcel.
        let mut p = Parcel::new();
        p.push_binder(server_handle);
        d.translate_parcel(&mut p, server, client).unwrap();
        let client_handle = p.binder_at(0).unwrap();
        (d, server, client, client_handle)
    }

    #[test]
    fn transaction_carries_sender_identity() {
        let (mut d, _, client, handle) = setup();
        let mut data = Parcel::new();
        data.push_str("ping");
        let reply = d.transact(client, handle, 1, data).unwrap();
        assert_eq!(reply.str_at(0).unwrap(), "ping");
        assert_eq!(reply.i32_at(1).unwrap(), client.0 as i32);
    }

    #[test]
    fn cross_container_transactions_are_counted() {
        let (mut d, _, client, handle) = setup();
        d.transact(client, handle, 1, Parcel::new()).unwrap();
        assert_eq!(d.stats().transactions, 1);
        assert_eq!(d.stats().cross_container, 1);
    }

    #[test]
    fn dead_nodes_refuse_transactions() {
        let (mut d, server, client, handle) = setup();
        d.kill_process(server);
        assert_eq!(
            d.transact(client, handle, 1, Parcel::new()),
            Err(BinderError::DeadObject)
        );
    }

    #[test]
    fn handles_are_stable_per_node() {
        let (mut d, server, client, handle) = setup();
        // Re-translating the same node yields the same client handle.
        let mut p = Parcel::new();
        p.push_binder(1);
        d.translate_parcel(&mut p, server, client).unwrap();
        assert_eq!(p.binder_at(0).unwrap(), handle);
    }

    #[test]
    fn unopened_process_cannot_transact() {
        let (mut d, _, _, _) = setup();
        assert!(matches!(
            d.transact(Pid(99), 1, 1, Parcel::new()),
            Err(BinderError::NotOpened(_))
        ));
    }

    #[test]
    fn transaction_cost_scales_with_payload() {
        assert!(transaction_cost(4096) > transaction_cost(8));
        assert!(transaction_cost(8).as_micros() >= 32);
    }

    #[test]
    fn scalar_parcels_skip_translation_without_copying() {
        let (mut d, server, client, _) = setup();
        let mut p = Parcel::new();
        p.push_i32(7).push_str("telemetry").push_f64(1.5);
        let snapshot = p.clone();
        d.translate_parcel(&mut p, server, client).unwrap();
        assert!(
            p.shares_storage_with(&snapshot),
            "no-objref parcels must not be rewritten (or copied)"
        );
    }

    #[test]
    fn fast_path_still_validates_endpoints() {
        let (mut d, server, _, _) = setup();
        let mut p = Parcel::new();
        p.push_i32(1);
        assert!(matches!(
            d.translate_parcel(&mut p, server, Pid(404)),
            Err(BinderError::NotOpened(_))
        ));
    }

    #[test]
    fn repeated_translations_hit_the_cache() {
        let (mut d, server, client, handle) = setup();
        // Prime + repeat: the same (src, dst, handle) triple must
        // keep resolving to the same destination handle.
        for _ in 0..3 {
            let mut p = Parcel::new();
            p.push_binder(1);
            d.translate_parcel(&mut p, server, client).unwrap();
            assert_eq!(p.binder_at(0).unwrap(), handle);
        }
        let cached = d
            .translation_cache
            .get(&(server, client))
            .and_then(|slab| slab.get(1))
            .copied()
            .filter(|&dst| dst != NO_HANDLE);
        assert_eq!(cached, Some(handle));
    }

    #[test]
    fn fds_are_duplicated_per_translation() {
        let (mut d, server, client, _) = setup();
        let (file, _producer) = crate::fd::new_stream("cam0");
        let fd = d.install_fd(server, file).unwrap();
        let mut first = Parcel::new();
        first.push_fd(fd);
        d.translate_parcel(&mut first, server, client).unwrap();
        let mut second = Parcel::new();
        second.push_fd(fd);
        d.translate_parcel(&mut second, server, client).unwrap();
        // fd transfer installs a fresh descriptor each time (dup
        // semantics), unlike binder handles which stay stable.
        assert_ne!(first.fd_at(0).unwrap(), second.fd_at(0).unwrap());
        // Both descriptors refer to the same open file description.
        let a = d.file(client, first.fd_at(0).unwrap()).unwrap();
        let b = d.file(client, second.fd_at(0).unwrap()).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn fd_translation_handles_self_and_mixed_parcels() {
        let (mut d, server, client, _) = setup();
        let (file, _producer) = crate::fd::new_stream("cam0");
        let fd = d.install_fd(server, file).unwrap();
        // Self-translation (from == to): one table serves both
        // lookup and install.
        let mut selfp = Parcel::new();
        selfp.push_fd(fd);
        selfp.push_fd(fd);
        d.translate_parcel(&mut selfp, server, server).unwrap();
        let (a, b) = (selfp.fd_at(0).unwrap(), selfp.fd_at(1).unwrap());
        assert_ne!(a, fd);
        assert_ne!(a, b);
        assert!(Rc::ptr_eq(
            &d.file(server, a).unwrap(),
            &d.file(server, fd).unwrap()
        ));
        // A bad fd later in the parcel keeps the earlier install.
        let mut bad = Parcel::new();
        bad.push_fd(fd);
        bad.push_fd(9_999);
        assert_eq!(
            d.translate_parcel(&mut bad, server, client),
            Err(BinderError::BadFd(9_999))
        );
        let good = bad.fd_at(0).unwrap();
        assert!(d.file(client, good).is_ok());
    }

    #[test]
    fn a_mixed_parcel_failing_part_way_keeps_its_good_prefix() {
        // handle, fd, then a bad handle or a bad fd: the driver ends
        // in the state that translating only the good prefix leaves.
        for bad_fd in [false, true] {
            let run = |with_bad: bool| {
                let (mut d, server, client, _) = setup();
                let fresh = d.create_node(server, Rc::new(RefCell::new(Echo))).unwrap();
                let (file, _producer) = crate::fd::new_stream("cam0");
                let fd = d.install_fd(server, file).unwrap();
                let before = d.hash_value();
                let mut p = Parcel::new();
                p.push_binder(fresh).push_fd(fd);
                if with_bad && bad_fd {
                    p.push_fd(9_999);
                } else if with_bad {
                    p.push_binder(777);
                }
                let want = match (with_bad, bad_fd) {
                    (false, _) => Ok(()),
                    (true, true) => Err(BinderError::BadFd(9_999)),
                    (true, false) => Err(BinderError::BadHandle(777)),
                };
                assert_eq!(d.translate_parcel(&mut p, server, client), want);
                assert_ne!(d.hash_value(), before, "the good prefix has effects");
                d.hash_value()
            };
            assert_eq!(run(true), run(false), "bad_fd = {bad_fd}");
        }
    }
}

#[cfg(test)]
mod qos_tests {
    use super::*;
    use crate::{AggregateQos, TenantQos};
    use androne_simkern::StateHash;

    const TIGHT: TenantQos = TenantQos {
        rate_per_s: 2,
        burst: 3,
        max_parcel_bytes: 1_024,
        max_fds: 2,
        max_subscriptions: 2,
    };

    fn driver_with_budget() -> (BinderDriver, ContainerId) {
        let mut d = BinderDriver::new();
        let attacker = ContainerId(7);
        d.set_tenant_budget(attacker, TIGHT);
        (d, attacker)
    }

    #[test]
    fn token_bucket_rejects_past_burst_and_refills_on_sim_time() {
        let (mut d, attacker) = driver_with_budget();
        for _ in 0..TIGHT.burst {
            d.attack_transact(attacker, 64).unwrap();
        }
        assert_eq!(
            d.attack_transact(attacker, 64),
            Err(BinderError::Throttled("rate"))
        );
        assert_eq!(d.throttle_count(&attacker), 1);
        // One sim-second refills rate_per_s tokens.
        d.set_now_ns(1_000_000_000);
        d.attack_transact(attacker, 64).unwrap();
        d.attack_transact(attacker, 64).unwrap();
        assert_eq!(
            d.attack_transact(attacker, 64),
            Err(BinderError::Throttled("rate"))
        );
    }

    #[test]
    fn oversized_parcels_are_rejected_without_spending_tokens() {
        let (mut d, attacker) = driver_with_budget();
        assert_eq!(
            d.attack_transact(attacker, 1_000_000),
            Err(BinderError::Throttled("parcel-size"))
        );
        // The bucket is untouched: the full burst still clears.
        for _ in 0..TIGHT.burst {
            d.attack_transact(attacker, 64).unwrap();
        }
    }

    #[test]
    fn fd_budget_caps_lifetime_installs() {
        let (mut d, attacker) = driver_with_budget();
        d.attack_install_fd(attacker).unwrap();
        d.attack_install_fd(attacker).unwrap();
        assert_eq!(
            d.attack_install_fd(attacker),
            Err(BinderError::Throttled("fd-budget"))
        );
    }

    #[test]
    fn subscription_budget_caps_concurrent_subscribers() {
        let (mut d, attacker) = driver_with_budget();
        d.try_subscribe(attacker).unwrap();
        d.try_subscribe(attacker).unwrap();
        assert_eq!(
            d.try_subscribe(attacker),
            Err(BinderError::Throttled("subscription-budget"))
        );
        d.release_subscriptions(&attacker);
        d.try_subscribe(attacker).unwrap();
    }

    #[test]
    fn unbudgeted_tenants_pass_admission_untouched() {
        let (mut d, _) = driver_with_budget();
        let bystander = ContainerId(3);
        for _ in 0..1_000 {
            d.attack_transact(bystander, 64).unwrap();
        }
        assert_eq!(d.throttle_count(&bystander), 0);
    }

    #[test]
    fn throttle_edges_emit_one_trace_record_per_transition() {
        let (mut d, attacker) = driver_with_budget();
        let obs = ObsHandle::attached();
        d.set_obs(obs.clone());
        for _ in 0..TIGHT.burst {
            d.attack_transact(attacker, 64).unwrap();
        }
        // Three rejections in the throttled state: one edge record.
        for _ in 0..3 {
            assert!(d.attack_transact(attacker, 64).is_err());
        }
        d.set_now_ns(2_000_000_000);
        d.attack_transact(attacker, 64).unwrap(); // recovery edge
        let edges: Vec<(u32, bool)> = obs
            .with(|o| {
                o.trace
                    .records(Subsystem::Binder)
                    .filter_map(|r| match &r.event {
                        TraceEvent::BinderThrottle {
                            container,
                            throttled,
                            ..
                        } => Some((*container, *throttled)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        assert_eq!(edges, vec![(7, true), (7, false)]);
        let throttled = obs
            .with(|o| o.metrics.counter("binder.throttled"))
            .unwrap_or(0);
        assert_eq!(throttled, 3);
        let by_tenant = obs
            .with(|o| {
                o.metrics
                    .labeled_counter("binder.throttled.by_tenant", "ctr7")
            })
            .unwrap_or(0);
        assert_eq!(by_tenant, 3);
    }

    #[test]
    fn halving_the_rate_floors_at_one() {
        let (mut d, attacker) = driver_with_budget();
        for _ in 0..10 {
            d.halve_tenant_rate(&attacker);
        }
        let cfg = d.tenant_budget(&attacker).expect("budget armed");
        assert_eq!(cfg.rate_per_s, 1);
        assert_eq!(cfg.burst, 1);
        assert!(!d.halve_tenant_rate(&ContainerId(99)));
    }

    #[test]
    fn restore_tenant_rate_undoes_halving_without_minting_tokens() {
        let (mut d, attacker) = driver_with_budget();
        // Spend the bucket down to 1 token, then halve twice.
        for _ in 0..TIGHT.burst - 1 {
            d.attack_transact(attacker, 64).unwrap();
        }
        d.halve_tenant_rate(&attacker);
        d.halve_tenant_rate(&attacker);
        assert!(d.restore_tenant_rate(&attacker));
        let cfg = d.tenant_budget(&attacker).expect("budget armed");
        assert_eq!((cfg.rate_per_s, cfg.burst), (TIGHT.rate_per_s, TIGHT.burst));
        // Tokens were clamped by the halvings and restore does not
        // grant them back: exactly the 1 remaining token clears.
        d.attack_transact(attacker, 64).unwrap();
        assert_eq!(
            d.attack_transact(attacker, 64),
            Err(BinderError::Throttled("rate"))
        );
        // Idempotent: an unhalved budget reports nothing to restore.
        assert!(!d.restore_tenant_rate(&attacker));
        assert!(!d.restore_tenant_rate(&ContainerId(99)));
    }

    #[test]
    fn aggregate_cap_bounds_colluding_tenants_but_not_the_mission() {
        let mut d = BinderDriver::new();
        let (a, b) = (ContainerId(7), ContainerId(8));
        d.set_tenant_budget(a, TIGHT);
        d.set_tenant_budget(b, TIGHT);
        d.set_aggregate_cap(Some(AggregateQos {
            rate_per_s: 2,
            burst: 4,
        }));
        // Each tenant alone is within budget (burst 3), but together
        // they exhaust the aggregate bucket after 4 admissions.
        let mut admitted = 0;
        let mut aggregate_rejects = 0;
        for _ in 0..3 {
            for t in [a, b] {
                match d.attack_transact(t, 64) {
                    Ok(()) => admitted += 1,
                    Err(BinderError::Throttled("aggregate-rate")) => aggregate_rejects += 1,
                    Err(e) => panic!("unexpected rejection {e:?}"),
                }
            }
        }
        assert_eq!(admitted, 4);
        assert_eq!(aggregate_rejects, 2);
        // The unbudgeted mission container never touches the bucket.
        for _ in 0..100 {
            d.attack_transact(ContainerId(1), 64).unwrap();
        }
        // Refill restores the aggregate rate, not the full burst.
        d.set_now_ns(1_000_000_000);
        d.attack_transact(a, 64).unwrap();
        d.attack_transact(b, 64).unwrap();
        assert_eq!(
            d.attack_transact(a, 64),
            Err(BinderError::Throttled("aggregate-rate"))
        );
    }

    #[test]
    fn refill_jitter_delays_epochs_without_changing_long_run_rate() {
        // burst = 2×rate (the DEFENSIVE_DEFAULT shape): two
        // jitter-delayed quanta landing in the same second fit in
        // the bucket, so jitter shifts admissions without clipping.
        let cfg = TenantQos {
            rate_per_s: 2,
            burst: 4,
            ..TIGHT
        };
        let run = |seed: Option<u64>| -> Vec<u64> {
            let mut d = BinderDriver::new();
            let attacker = ContainerId(7);
            d.set_tenant_budget(attacker, cfg);
            d.set_refill_jitter(seed);
            // Observed admissions per sim-second, the exact signal a
            // refill-probing adversary watches.
            (0..8u64)
                .map(|s| {
                    d.set_now_ns(s * 1_000_000_000);
                    let mut ok = 0;
                    while d.attack_transact(attacker, 64).is_ok() {
                        ok += 1;
                    }
                    ok
                })
                .collect()
        };
        let exact = run(None);
        let jittered = run(Some(0xA11CE));
        let jittered_again = run(Some(0xA11CE));
        assert_eq!(jittered, jittered_again, "jitter must be deterministic");
        // Exact refill pays the same quantum every second after the
        // initial burst drains; jitter makes some epochs pay late
        // (0 then 2), so the per-second trace differs...
        assert_ne!(exact, jittered);
        // ...but the long-run admitted volume converges: at most two
        // quanta (the 1.5 s max delay) are still in flight at the
        // horizon.
        let total = |v: &[u64]| v.iter().sum::<u64>();
        assert!(total(&exact).abs_diff(total(&jittered)) <= 2 * cfg.rate_per_s);
    }

    #[test]
    fn hardening_state_hashes_only_when_armed() {
        let mut d = BinderDriver::new();
        let baseline = d.hash_value();
        d.set_aggregate_cap(Some(AggregateQos::HARDENED_DEFAULT));
        let with_cap = d.hash_value();
        assert_ne!(with_cap, baseline);
        d.set_refill_jitter(Some(9));
        assert_ne!(d.hash_value(), with_cap);
        d.set_aggregate_cap(None);
        d.set_refill_jitter(None);
        assert_eq!(d.hash_value(), baseline);
    }

    #[test]
    fn budget_free_driver_hashes_identically_to_pre_qos_layout() {
        // A driver that never arms a budget must hash exactly as the
        // pre-QoS driver did, even after sim time advances: the
        // pinned chaos/fleet digests depend on it.
        let mut a = BinderDriver::new();
        let baseline = a.hash_value();
        a.set_now_ns(5_000_000_000);
        assert_eq!(a.hash_value(), baseline);
        // Arming a budget is hash-visible.
        a.set_tenant_budget(ContainerId(7), TIGHT);
        assert_ne!(a.hash_value(), baseline);
    }

    #[test]
    fn real_transactions_respect_the_sender_budget() {
        let mut d = BinderDriver::new();
        let server = Pid(10);
        let client = Pid(20);
        d.open(server, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
        d.open(client, Euid(10_050), ContainerId(7), DeviceNamespaceId(2));
        let server_handle = d
            .create_node(server, Rc::new(RefCell::new(super::tests::Echo)))
            .unwrap();
        let mut p = Parcel::new();
        p.push_binder(server_handle);
        d.translate_parcel(&mut p, server, client).unwrap();
        let handle = p.binder_at(0).unwrap();
        d.set_tenant_budget(ContainerId(7), TIGHT);
        for _ in 0..TIGHT.burst {
            d.transact(client, handle, 1, Parcel::new()).unwrap();
        }
        assert_eq!(
            d.transact(client, handle, 1, Parcel::new()),
            Err(BinderError::Throttled("rate"))
        );
        // The server's own (unbudgeted) container is unaffected.
        assert_eq!(d.throttle_count(&ContainerId(1)), 0);
    }
}

#[cfg(test)]
mod reentrancy_tests {
    use super::*;
    use androne_container::DeviceNamespaceId;

    /// A service that calls back into itself through the driver.
    struct SelfCaller {
        own_handle: u32,
        own_pid: Pid,
    }

    impl BinderService for SelfCaller {
        fn on_transact(
            &mut self,
            code: u32,
            _data: &Parcel,
            _ctx: &TransactionContext,
            driver: &mut BinderDriver,
        ) -> Result<Parcel, BinderError> {
            if code == 1 {
                // Re-enter ourselves: must fail cleanly, not deadlock
                // or panic (analogous to binder thread exhaustion).
                return driver.transact(self.own_pid, self.own_handle, 2, Parcel::new());
            }
            Ok(Parcel::new())
        }
    }

    #[test]
    fn self_transaction_fails_cleanly() {
        let mut d = BinderDriver::new();
        let pid = Pid(1);
        d.open(pid, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
        let svc = Rc::new(RefCell::new(SelfCaller {
            own_handle: 0,
            own_pid: pid,
        }));
        let handle = d.create_node(pid, svc.clone()).unwrap();
        svc.borrow_mut().own_handle = handle;
        assert_eq!(
            d.transact(pid, handle, 1, Parcel::new()),
            Err(BinderError::Reentrant)
        );
        // The service is usable again afterwards.
        assert!(d.transact(pid, handle, 2, Parcel::new()).is_ok());
    }
}
