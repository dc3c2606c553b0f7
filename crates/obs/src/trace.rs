//! The trace bus: typed, sim-time-stamped records in bounded
//! per-subsystem rings.

use std::collections::VecDeque;

/// The subsystems that emit trace records. One bounded ring each, so
/// a chatty subsystem (telemetry-rate MAVLink) can never evict a
/// quiet one's records (a single fault edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// Flight-executor phases: launch, handovers, leg ends, landing.
    Flight,
    /// Binder driver transactions.
    Binder,
    /// MAVLink proxy command verdicts and link-failsafe edges.
    Mavlink,
    /// VDC allotment decisions: grants, revocations, watchdog.
    Vdc,
    /// Cloud facade: retries, degraded modes, queue/buffer drains.
    Cloud,
    /// Fault-injector arm/disarm edges.
    Fault,
}

impl Subsystem {
    /// Every subsystem, in ring order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::Flight,
        Subsystem::Binder,
        Subsystem::Mavlink,
        Subsystem::Vdc,
        Subsystem::Cloud,
        Subsystem::Fault,
    ];

    /// Stable lowercase name (used as the JSON tag).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Flight => "flight",
            Subsystem::Binder => "binder",
            Subsystem::Mavlink => "mavlink",
            Subsystem::Vdc => "vdc",
            Subsystem::Cloud => "cloud",
            Subsystem::Fault => "fault",
        }
    }

    fn index(self) -> usize {
        match self {
            Subsystem::Flight => 0,
            Subsystem::Binder => 1,
            Subsystem::Mavlink => 2,
            Subsystem::Vdc => 3,
            Subsystem::Cloud => 4,
            Subsystem::Fault => 5,
        }
    }
}

/// A typed trace payload. Plain data only — no references into sim
/// state, so records survive the flight that produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A flight-executor phase transition (launched, handover, leg
    /// end, breach, abort, landed, flight end).
    FlightPhase {
        /// Stable phase tag.
        phase: &'static str,
        /// Free-form detail (owner, waypoint, end reason).
        detail: String,
    },
    /// One Binder transaction through the driver.
    BinderTxn {
        /// Calling process id.
        caller: u32,
        /// Transaction code.
        code: u32,
        /// Serialized parcel size in bytes.
        wire_size: u64,
        /// Whether the call crossed a container boundary.
        cross_container: bool,
        /// Modeled transaction cost in sim-nanoseconds.
        latency_ns: u64,
        /// False when fault injection failed the transaction.
        ok: bool,
    },
    /// A MAVLink command's verdict at the proxy.
    MavCommand {
        /// Client (virtual flight controller) name.
        client: String,
        /// "forwarded", "denied", or "dropped".
        verdict: &'static str,
    },
    /// A link-failsafe ladder transition.
    LinkFailsafe {
        /// "loiter", "rtl", or "restored".
        phase: &'static str,
    },
    /// A VDC allotment or watchdog decision.
    VdcDecision {
        /// Virtual drone name.
        vdrone: String,
        /// Stable decision tag (grant-waypoint, revoke-waypoint,
        /// watchdog-revoke, geofence-breach, low-energy).
        decision: &'static str,
        /// Free-form detail.
        detail: String,
    },
    /// One cloud operation's retry outcome.
    CloudRetry {
        /// Stable operation tag.
        op: &'static str,
        /// Total attempts made (1 = first try succeeded).
        attempts: u32,
        /// Sim-time spent in backoff.
        backoff_ns: u64,
        /// True when every attempt failed and the facade degraded.
        gave_up: bool,
    },
    /// A cloud degraded-mode edge (portal down, VDR outage, queue
    /// merge, buffer drain).
    CloudDegraded {
        /// Stable mode tag.
        mode: &'static str,
        /// Free-form detail.
        detail: String,
    },
    /// A fault-plan transition fired by the injector.
    FaultEdge {
        /// Stable fault-kind tag.
        kind: &'static str,
        /// True on arm, false on disarm.
        armed: bool,
        /// Free-form detail (channel, target, seed).
        detail: String,
    },
    /// A per-tenant Binder QoS throttle edge: the tenant entered
    /// (`throttled == true`) or left the throttled state.
    BinderThrottle {
        /// Throttled tenant's container id.
        container: u32,
        /// Which budget dimension tripped ("rate", "parcel-size",
        /// "fd-budget", "subscription-budget") or "recovered".
        dimension: &'static str,
        /// True on entering throttle, false on recovery.
        throttled: bool,
    },
    /// An attack-plan transition fired by the attack injector.
    AttackEdge {
        /// Stable attack-kind tag.
        kind: &'static str,
        /// The hostile tenant mounting the attack.
        attacker: String,
        /// True on arm, false on disarm.
        armed: bool,
        /// Free-form detail (parameters, enforcement response).
        detail: String,
    },
}

impl TraceEvent {
    /// Stable event-kind tag (used as the JSON tag).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlightPhase { .. } => "flight_phase",
            TraceEvent::BinderTxn { .. } => "binder_txn",
            TraceEvent::MavCommand { .. } => "mav_command",
            TraceEvent::LinkFailsafe { .. } => "link_failsafe",
            TraceEvent::VdcDecision { .. } => "vdc_decision",
            TraceEvent::CloudRetry { .. } => "cloud_retry",
            TraceEvent::CloudDegraded { .. } => "cloud_degraded",
            TraceEvent::FaultEdge { .. } => "fault_edge",
            TraceEvent::BinderThrottle { .. } => "binder_throttle",
            TraceEvent::AttackEdge { .. } => "attack_edge",
        }
    }
}

/// One record on the bus: a payload stamped with sim time and a
/// bus-global sequence number (total order across subsystems).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Sim-nanoseconds since flight start when the record was
    /// emitted.
    pub t_ns: u64,
    /// Bus-global sequence number.
    pub seq: u64,
    /// The typed payload.
    pub event: TraceEvent,
}

/// Bounded ring: pushes evict the oldest record past capacity, and
/// evictions are counted so truncation is never silent.
#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, record: TraceRecord) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

/// Trace bus sizing.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Capacity of each subsystem's ring, in records.
    pub per_ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 4096 records/subsystem holds tens of simulated seconds of
        // the chattiest stream (telemetry-rate Binder traffic) —
        // comfortably more than the recorder's snapshot window.
        TraceConfig {
            per_ring_capacity: 4096,
        }
    }
}

/// The trace bus: one bounded ring per subsystem plus the sim clock
/// stamp used for new records.
#[derive(Debug)]
pub struct TraceBus {
    now_ns: u64,
    seq: u64,
    rings: [Ring; Subsystem::COUNT],
}

impl Subsystem {
    const COUNT: usize = 6;
}

impl TraceBus {
    /// An empty bus with the given per-ring capacity.
    pub fn new(cfg: TraceConfig) -> Self {
        let mut rings: [Ring; Subsystem::COUNT] = Default::default();
        for ring in &mut rings {
            ring.capacity = cfg.per_ring_capacity;
        }
        TraceBus {
            now_ns: 0,
            seq: 0,
            rings,
        }
    }

    /// Advances the sim-time stamp applied to subsequent records.
    pub fn set_now_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// The current sim-time stamp.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Appends a record to `sub`'s ring, stamped with the current
    /// sim time and the next sequence number.
    pub fn emit(&mut self, sub: Subsystem, event: TraceEvent) {
        let record = TraceRecord {
            t_ns: self.now_ns,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.rings[sub.index()].push(record);
    }

    /// Records currently held for `sub`, oldest first.
    pub fn records(&self, sub: Subsystem) -> impl Iterator<Item = &TraceRecord> {
        self.rings[sub.index()].records.iter()
    }

    /// How many records `sub`'s ring has evicted.
    pub fn dropped(&self, sub: Subsystem) -> u64 {
        self.rings[sub.index()].dropped
    }

    /// Total records currently held across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.records.len()).sum()
    }

    /// True when no ring holds any record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records with `t_ns >= cutoff` across every ring, merged
    /// into emission order (by sequence number). `(subsystem,
    /// record)` pairs.
    pub fn window(&self, cutoff_ns: u64) -> Vec<(Subsystem, TraceRecord)> {
        let mut out = Vec::new();
        for sub in Subsystem::ALL {
            for record in self.records(sub) {
                if record.t_ns >= cutoff_ns {
                    out.push((sub, record.clone()));
                }
            }
        }
        out.sort_by_key(|(_, r)| r.seq);
        out
    }

    /// Extracts the records of the named subsystems as a detachable
    /// [`TraceSegment`], in emission order. The bus is not modified:
    /// a worker-thread island exports its segment at the wave barrier
    /// and the island bus dies with the island.
    pub fn segment(&self, subs: &[Subsystem]) -> TraceSegment {
        let mut records = Vec::new();
        for &sub in subs {
            for record in self.records(sub) {
                records.push((sub, record.clone()));
            }
        }
        records.sort_by_key(|(_, r)| r.seq);
        TraceSegment { records }
    }

    /// Absorbs a segment exported from another bus: each record is
    /// re-emitted into the matching local ring with a fresh local
    /// sequence number (the bus-global total order is preserved by
    /// absorption order) while keeping the record's original sim
    /// timestamp. Ring capacities and drop accounting apply as for
    /// local emission, so absorption can never grow a ring past its
    /// bound.
    pub fn absorb(&mut self, segment: &TraceSegment) {
        for (sub, record) in &segment.records {
            let stamped = TraceRecord {
                t_ns: record.t_ns,
                seq: self.seq,
                event: record.event.clone(),
            };
            self.seq += 1;
            self.rings[sub.index()].push(stamped);
        }
    }
}

/// A detachable run of trace records exported from one bus and
/// absorbable into another — the unit the fleet executor uses to
/// carry island-local trace across the wave barrier. Plain data,
/// `Send`, ordered by the source bus's emission order.
#[derive(Debug, Clone, Default)]
pub struct TraceSegment {
    /// `(subsystem, record)` pairs in source-bus emission order.
    pub records: Vec<(Subsystem, TraceRecord)>,
}

impl TraceSegment {
    /// Number of records in the segment.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(cap: usize) -> TraceBus {
        TraceBus::new(TraceConfig {
            per_ring_capacity: cap,
        })
    }

    fn phase(detail: &str) -> TraceEvent {
        TraceEvent::FlightPhase {
            phase: "test",
            detail: detail.to_string(),
        }
    }

    #[test]
    fn records_are_stamped_with_sim_time_and_sequence() {
        let mut b = bus(8);
        b.set_now_ns(1_000);
        b.emit(Subsystem::Flight, phase("a"));
        b.set_now_ns(2_000);
        b.emit(Subsystem::Binder, phase("b"));
        let flight: Vec<_> = b.records(Subsystem::Flight).collect();
        assert_eq!(flight[0].t_ns, 1_000);
        assert_eq!(flight[0].seq, 0);
        let binder: Vec<_> = b.records(Subsystem::Binder).collect();
        assert_eq!(binder[0].t_ns, 2_000);
        assert_eq!(binder[0].seq, 1);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let mut b = bus(2);
        for i in 0..5 {
            b.set_now_ns(i * 100);
            b.emit(Subsystem::Vdc, phase(&i.to_string()));
        }
        let held: Vec<_> = b.records(Subsystem::Vdc).collect();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].t_ns, 300);
        assert_eq!(held[1].t_ns, 400);
        assert_eq!(b.dropped(Subsystem::Vdc), 3);
        assert_eq!(b.dropped(Subsystem::Flight), 0);
    }

    #[test]
    fn rings_are_isolated_per_subsystem() {
        let mut b = bus(1);
        b.emit(Subsystem::Mavlink, phase("chatty"));
        b.emit(Subsystem::Mavlink, phase("chattier"));
        b.emit(Subsystem::Fault, phase("rare"));
        assert_eq!(b.records(Subsystem::Mavlink).count(), 1);
        assert_eq!(b.records(Subsystem::Fault).count(), 1);
        assert_eq!(b.dropped(Subsystem::Mavlink), 1);
        assert_eq!(b.dropped(Subsystem::Fault), 0);
    }

    #[test]
    fn window_merges_rings_in_emission_order() {
        let mut b = bus(8);
        b.set_now_ns(100);
        b.emit(Subsystem::Binder, phase("early"));
        b.set_now_ns(200);
        b.emit(Subsystem::Flight, phase("mid"));
        b.set_now_ns(300);
        b.emit(Subsystem::Binder, phase("late"));
        let w = b.window(150);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Subsystem::Flight);
        assert_eq!(w[1].0, Subsystem::Binder);
        assert!(w[0].1.seq < w[1].1.seq);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut b = bus(0);
        b.emit(Subsystem::Cloud, phase("x"));
        assert!(b.is_empty());
        assert_eq!(b.dropped(Subsystem::Cloud), 1);
    }

    #[test]
    fn segment_exports_named_rings_in_emission_order() {
        let mut b = bus(8);
        b.set_now_ns(100);
        b.emit(Subsystem::Fault, phase("arm"));
        b.emit(Subsystem::Flight, phase("launch"));
        b.set_now_ns(200);
        b.emit(Subsystem::Fault, phase("disarm"));
        let seg = b.segment(&[Subsystem::Fault]);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.records[0].1.t_ns, 100);
        assert_eq!(seg.records[1].1.t_ns, 200);
        assert!(seg.records.iter().all(|(s, _)| *s == Subsystem::Fault));
        // The source bus is untouched.
        assert_eq!(b.records(Subsystem::Fault).count(), 2);
    }

    #[test]
    fn absorb_resequences_locally_and_keeps_timestamps() {
        let mut island = bus(8);
        island.set_now_ns(1_000);
        island.emit(Subsystem::Fault, phase("arm"));
        let seg = island.segment(&[Subsystem::Fault]);

        let mut fleet = bus(8);
        fleet.emit(Subsystem::Cloud, phase("wave"));
        fleet.absorb(&seg);
        let absorbed: Vec<_> = fleet.records(Subsystem::Fault).collect();
        assert_eq!(absorbed.len(), 1);
        assert_eq!(absorbed[0].t_ns, 1_000, "island sim time preserved");
        assert_eq!(absorbed[0].seq, 1, "re-sequenced after local records");
    }

    #[test]
    fn absorb_respects_ring_capacity() {
        let mut island = bus(8);
        for i in 0..4 {
            island.set_now_ns(i * 10);
            island.emit(Subsystem::Vdc, phase(&i.to_string()));
        }
        let seg = island.segment(&[Subsystem::Vdc]);
        let mut fleet = bus(2);
        fleet.absorb(&seg);
        assert_eq!(fleet.records(Subsystem::Vdc).count(), 2);
        assert_eq!(fleet.dropped(Subsystem::Vdc), 2);
    }
}
