//! Shared-resource contention model.
//!
//! Figure 10 of the paper measures how PassMark CPU, disk, and memory
//! scores degrade as more virtual drones run the benchmark
//! simultaneously. The observed shapes are classic proportional-share
//! contention: a CPU-bound multi-threaded benchmark saturates all four
//! Cortex-A53 cores on its own (so N instances slow down ~N×), while a
//! single disk or memory benchmark instance only demands ~60-70% of
//! the bottleneck bandwidth (so contention bites sub-linearly).
//!
//! `SharedResource` implements exactly that: clients register a
//! standalone demand, and the resource computes each client's
//! proportional-share rate when aggregate demand exceeds capacity.

use std::collections::BTreeMap;

/// The hardware bottlenecks a benchmark can contend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// CPU cycles across all cores.
    Cpu,
    /// microSD card bandwidth.
    DiskBandwidth,
    /// DRAM bandwidth.
    MemoryBandwidth,
    /// Network interface bandwidth.
    NetworkBandwidth,
}

impl ResourceKind {
    /// All modelled resource kinds.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::DiskBandwidth,
        ResourceKind::MemoryBandwidth,
        ResourceKind::NetworkBandwidth,
    ];
}

/// Identifier for a client holding demand on a resource.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub String);

impl<T: Into<String>> From<T> for ClientId {
    fn from(s: T) -> Self {
        ClientId(s.into())
    }
}

/// A single contended resource with proportional sharing.
#[derive(Debug, Clone)]
pub struct SharedResource {
    kind: ResourceKind,
    /// Capacity in abstract units per second. Demands use the same
    /// units, so only the ratio matters.
    capacity: f64,
    demands: BTreeMap<ClientId, f64>,
    /// cgroup-style bandwidth caps (quota over the scheduling
    /// period, same units as demand): a capped client's *effective*
    /// demand is `min(demand, quota)` no matter how much it asks
    /// for. Empty unless enforcement armed a cap, so uncapped runs
    /// hash and behave exactly as before quotas existed.
    quotas: BTreeMap<ClientId, f64>,
}

impl SharedResource {
    /// Creates a resource with the given capacity (units/second).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite; a
    /// zero-capacity resource cannot serve any demand and indicates a
    /// construction bug.
    pub fn new(kind: ResourceKind, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive"
        );
        SharedResource {
            kind,
            capacity,
            demands: BTreeMap::new(),
            quotas: BTreeMap::new(),
        }
    }

    /// The resource kind.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The configured capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Registers (or replaces) a client's standalone demand.
    ///
    /// Negative or non-finite demands are clamped to zero.
    pub fn register(&mut self, client: impl Into<ClientId>, demand: f64) {
        let demand = if demand.is_finite() {
            demand.max(0.0)
        } else {
            0.0
        };
        self.demands.insert(client.into(), demand);
    }

    /// Removes a client's demand (its quota, if any, stays armed for
    /// any demand it registers later).
    pub fn unregister(&mut self, client: &ClientId) {
        self.demands.remove(client);
    }

    /// Arms a cgroup-style bandwidth cap for `client`: however much
    /// demand it registers, its effective demand is clamped to
    /// `quota`. Negative or non-finite quotas clamp to zero (a fully
    /// frozen client).
    pub fn set_quota(&mut self, client: impl Into<ClientId>, quota: f64) {
        let quota = if quota.is_finite() {
            quota.max(0.0)
        } else {
            0.0
        };
        self.quotas.insert(client.into(), quota);
    }

    /// Removes `client`'s bandwidth cap.
    pub fn clear_quota(&mut self, client: &ClientId) {
        self.quotas.remove(client);
    }

    /// A client's demand after its bandwidth cap, if armed.
    fn effective_demand(&self, client: &ClientId, demand: f64) -> f64 {
        match self.quotas.get(client) {
            Some(q) => demand.min(*q),
            None => demand,
        }
    }

    /// Aggregate effective demand across clients (bandwidth caps
    /// applied).
    pub fn total_demand(&self) -> f64 {
        self.demands
            .iter()
            .map(|(c, d)| self.effective_demand(c, *d))
            .sum()
    }

    /// Number of registered clients.
    pub fn clients(&self) -> usize {
        self.demands.len()
    }

    /// Rate actually delivered to `client` (units/second).
    ///
    /// When aggregate demand fits within capacity every client runs at
    /// full demand; otherwise each receives a proportional share.
    pub fn rate_for(&self, client: &ClientId) -> f64 {
        let demand = match self.demands.get(client) {
            Some(d) => self.effective_demand(client, *d),
            None => return 0.0,
        };
        let total = self.total_demand();
        if total <= self.capacity {
            demand
        } else {
            demand * self.capacity / total
        }
    }

    /// Slowdown factor for `client` relative to running alone
    /// (>= 1.0). Returns 1.0 for unknown or zero-demand clients.
    pub fn slowdown_for(&self, client: &ClientId) -> f64 {
        let demand = self.demands.get(client).copied().unwrap_or(0.0);
        if demand <= 0.0 {
            return 1.0;
        }
        // Running alone, the client may itself exceed capacity (e.g. a
        // 4-thread CPU benchmark on 4 cores demands exactly capacity);
        // the baseline rate is therefore min(demand, capacity).
        let alone = demand.min(self.capacity);
        let now = self.rate_for(client);
        if now <= 0.0 {
            f64::INFINITY
        } else {
            (alone / now).max(1.0)
        }
    }
}

/// The full set of contended resources on the drone SBC.
#[derive(Debug, Clone)]
pub struct ResourceSet {
    resources: BTreeMap<ResourceKind, SharedResource>,
}

impl ResourceSet {
    /// Creates the Raspberry Pi 3 resource set.
    ///
    /// Capacities are normalized: CPU capacity is 4.0 (four cores of
    /// one unit each); bandwidth resources are 1.0 (fractions of the
    /// device's peak bandwidth).
    pub fn rpi3() -> Self {
        let mut resources = BTreeMap::new();
        resources.insert(
            ResourceKind::Cpu,
            SharedResource::new(ResourceKind::Cpu, 4.0),
        );
        resources.insert(
            ResourceKind::DiskBandwidth,
            SharedResource::new(ResourceKind::DiskBandwidth, 1.0),
        );
        resources.insert(
            ResourceKind::MemoryBandwidth,
            SharedResource::new(ResourceKind::MemoryBandwidth, 1.0),
        );
        resources.insert(
            ResourceKind::NetworkBandwidth,
            SharedResource::new(ResourceKind::NetworkBandwidth, 1.0),
        );
        ResourceSet { resources }
    }

    /// Borrows one resource.
    ///
    /// # Panics
    ///
    /// Panics if the kind is absent, which cannot happen for sets made
    /// by [`ResourceSet::rpi3`].
    pub fn get(&self, kind: ResourceKind) -> &SharedResource {
        // dronelint:allow(R3, documented # Panics invariant: every constructor populates all ResourceKind variants)
        self.resources.get(&kind).expect("resource kind present")
    }

    /// Mutably borrows one resource.
    ///
    /// # Panics
    ///
    /// Panics if the kind is absent (see [`ResourceSet::get`]).
    pub fn get_mut(&mut self, kind: ResourceKind) -> &mut SharedResource {
        self.resources
            .get_mut(&kind)
            // dronelint:allow(R3, documented # Panics invariant: every constructor populates all ResourceKind variants)
            .expect("resource kind present")
    }

    /// Removes a client's demand from every resource.
    pub fn unregister_everywhere(&mut self, client: &ClientId) {
        for r in self.resources.values_mut() {
            r.unregister(client);
        }
    }

    /// Aggregate CPU utilization in `0.0..=1.0`, used by the power
    /// meter (Figure 13).
    pub fn cpu_utilization(&self) -> f64 {
        let cpu = self.get(ResourceKind::Cpu);
        (cpu.total_demand() / cpu.capacity()).min(1.0)
    }
}

impl crate::statehash::StateHash for SharedResource {
    fn state_hash(&self, h: &mut crate::statehash::StateHasher) {
        h.write_u8(self.kind as u8);
        h.write_f64(self.capacity);
        h.write_usize(self.demands.len());
        for (client, demand) in &self.demands {
            h.write_str(&client.0);
            h.write_f64(*demand);
        }
        // Quotas hash only when armed: an uncapped resource must
        // reproduce the exact pre-quota hash stream (the pinned chaos
        // and fleet baselines depend on it).
        if !self.quotas.is_empty() {
            h.write_usize(self.quotas.len());
            for (client, quota) in &self.quotas {
                h.write_str(&client.0);
                h.write_f64(*quota);
            }
        }
    }
}

impl crate::statehash::StateHash for ResourceSet {
    fn state_hash(&self, h: &mut crate::statehash::StateHasher) {
        for r in self.resources.values() {
            crate::statehash::StateHash::state_hash(r, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_clients_run_at_full_demand() {
        let mut r = SharedResource::new(ResourceKind::DiskBandwidth, 1.0);
        r.register("a", 0.4);
        r.register("b", 0.4);
        assert_eq!(r.rate_for(&"a".into()), 0.4);
        assert_eq!(r.slowdown_for(&"a".into()), 1.0);
    }

    #[test]
    fn contention_is_proportional_share() {
        let mut r = SharedResource::new(ResourceKind::DiskBandwidth, 1.0);
        for c in ["a", "b", "c"] {
            r.register(c, 0.67);
        }
        // Aggregate demand 2.01 on capacity 1.0 -> each sees ~3x the
        // demand-to-capacity ratio... i.e. slowdown = total/capacity.
        let s = r.slowdown_for(&"a".into());
        assert!((s - 2.01).abs() < 1e-9, "slowdown {s}");
    }

    #[test]
    fn cpu_saturating_benchmark_scales_linearly() {
        // A 4-thread CPU benchmark demands the whole CPU; N instances
        // slow each other down by exactly N.
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.register("vd1", 4.0);
        assert_eq!(r.slowdown_for(&"vd1".into()), 1.0);
        r.register("vd2", 4.0);
        assert_eq!(r.slowdown_for(&"vd1".into()), 2.0);
        r.register("vd3", 4.0);
        assert_eq!(r.slowdown_for(&"vd1".into()), 3.0);
    }

    #[test]
    fn disk_benchmark_matches_paper_shape() {
        // Paper: disk overhead at 3 virtual drones is ~2x (PREEMPT).
        // A single instance demanding 0.67 of disk bandwidth produces
        // exactly that shape.
        let mut r = SharedResource::new(ResourceKind::DiskBandwidth, 1.0);
        r.register("vd1", 0.67);
        r.register("vd2", 0.67);
        r.register("vd3", 0.67);
        let s = r.slowdown_for(&"vd1".into());
        assert!((s - 2.01).abs() < 0.02);
    }

    #[test]
    fn unknown_client_has_no_rate() {
        let r = SharedResource::new(ResourceKind::Cpu, 4.0);
        assert_eq!(r.rate_for(&"ghost".into()), 0.0);
        assert_eq!(r.slowdown_for(&"ghost".into()), 1.0);
    }

    #[test]
    fn unregister_restores_full_rate() {
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.register("a", 4.0);
        r.register("b", 4.0);
        assert_eq!(r.slowdown_for(&"a".into()), 2.0);
        r.unregister(&"b".into());
        assert_eq!(r.slowdown_for(&"a".into()), 1.0);
    }

    #[test]
    fn resource_set_reports_cpu_utilization() {
        let mut set = ResourceSet::rpi3();
        assert_eq!(set.cpu_utilization(), 0.0);
        set.get_mut(ResourceKind::Cpu).register("load", 2.0);
        assert!((set.cpu_utilization() - 0.5).abs() < 1e-12);
        set.get_mut(ResourceKind::Cpu).register("more", 8.0);
        assert_eq!(set.cpu_utilization(), 1.0, "clamped at saturation");
    }

    #[test]
    fn bad_demands_clamp_to_zero() {
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.register("nan", f64::NAN);
        r.register("neg", -5.0);
        assert_eq!(r.total_demand(), 0.0);
    }

    #[test]
    fn quota_caps_effective_demand() {
        // A saturating attacker demands the whole CPU; a 0.5-core cap
        // keeps its effective demand at 0.5, so the flight task still
        // gets its full share.
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.register("flight", 1.0);
        r.register("attacker", 16.0);
        assert!(
            r.slowdown_for(&"flight".into()) > 1.0,
            "uncapped attacker contends"
        );
        r.set_quota("attacker", 0.5);
        assert_eq!(r.total_demand(), 1.5);
        assert_eq!(r.rate_for(&"flight".into()), 1.0);
        assert_eq!(r.slowdown_for(&"flight".into()), 1.0);
        assert_eq!(r.rate_for(&"attacker".into()), 0.5);
        assert!(
            r.slowdown_for(&"attacker".into()) > 1.0,
            "the cap is visible to the attacker"
        );
    }

    #[test]
    fn clearing_a_quota_restores_contention() {
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.register("a", 4.0);
        r.register("b", 4.0);
        r.set_quota("b", 0.0);
        assert_eq!(
            r.slowdown_for(&"a".into()),
            1.0,
            "frozen client contends nothing"
        );
        r.clear_quota(&"b".into());
        assert_eq!(r.slowdown_for(&"a".into()), 2.0);
    }

    #[test]
    fn quota_survives_demand_reregistration() {
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.set_quota("attacker", 0.25);
        r.register("attacker", 8.0);
        assert_eq!(r.rate_for(&"attacker".into()), 0.25);
        r.unregister(&"attacker".into());
        r.register("attacker", 8.0);
        assert_eq!(
            r.rate_for(&"attacker".into()),
            0.25,
            "cap outlives the demand"
        );
    }

    #[test]
    fn unquoted_resource_hashes_identically_to_pre_quota_layout() {
        use crate::statehash::{StateHash, StateHasher};
        let mut r = SharedResource::new(ResourceKind::Cpu, 4.0);
        r.register("a", 2.0);
        let mut h1 = StateHasher::new();
        r.state_hash(&mut h1);
        let mut capped = r.clone();
        capped.set_quota("a", 1.0);
        let mut h2 = StateHasher::new();
        capped.state_hash(&mut h2);
        assert_ne!(h1.finish(), h2.finish(), "an armed quota is hash-visible");
        capped.clear_quota(&"a".into());
        let mut h3 = StateHasher::new();
        capped.state_hash(&mut h3);
        let mut h1b = StateHasher::new();
        r.state_hash(&mut h1b);
        assert_eq!(h1b.finish(), h3.finish(), "cleared quotas leave no residue");
    }
}
