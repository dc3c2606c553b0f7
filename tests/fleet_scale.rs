//! The sharded control plane's contract tests:
//!
//! - **VDR shard chaos** — replaying an identical op tape (stores,
//!   telescoped re-saves, checkout/commit/abandon round-trips,
//!   compaction) against 1-shard and 4-shard repositories produces
//!   identical digests and stats, and a portal/VDR outage armed
//!   mid-checkout loses no customer drone.
//! - **Admission FIFO** — a model-based property test: under
//!   arbitrary interleavings of enqueue (with backpressure),
//!   batched admission, and `requeue_front`, every lane releases its
//!   orders in exact submission order.
//! - **Shard equivalence** — a `FleetSpec::vdr_shards(4)` fleet run
//!   is byte-identical to the 1-shard run.
//! - **Scaling ladder smoke** — the 10k-tenant rung runs to
//!   quiescence with digests invariant across shards 1/4 and threads
//!   1/4 (the `fleet-scale-smoke` CI leg), and an `#[ignore]`d
//!   100k rung covers the full acceptance matrix.

use std::collections::{BTreeMap, VecDeque};

use androne::cloud::{
    AdmissionConfig, AdmissionError, AdmissionQueue, CloudError, FallibleCloud, SaveReason,
    SavedVirtualDrone, VirtualDroneRepository,
};
use androne::container::{ContainerArchive, ContainerKind, Layer};
use androne::fleet::{FleetConfig, FleetSpec, FleetTenant};
use androne::hal::GeoPoint;
use androne::simkern::{CloudFaultKind, FleetFaultPlan};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{execute_scale_fleet, ScaleConfig};
use proptest::prelude::*;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn small_spec(k: f64) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints: vec![
            wp(40.0 + 9.0 * k, -30.0 + 14.0 * k, 40.0),
            wp(62.0 - 6.0 * k, 25.0 + 11.0 * k, 40.0),
        ],
        max_duration: 8.0,
        energy_allotted: 60_000.0,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec![],
        app_args: Default::default(),
    }
}

fn saved(name: &str, owner: &str, flights_flown: u32, reason: SaveReason) -> SavedVirtualDrone {
    let mut diff = Layer::new();
    diff.write(
        "/data/androne/state.bin",
        bytes::Bytes::from(vec![0xA5u8; 128 + 64 * flights_flown as usize]),
    );
    SavedVirtualDrone {
        name: name.to_string(),
        owner: owner.to_string(),
        spec: small_spec(f64::from(flights_flown)),
        archive: ContainerArchive {
            name: name.to_string(),
            kind: ContainerKind::VirtualDrone,
            base_stack: Vec::new(),
            diff,
        },
        app_state: format!("state-{name}-{flights_flown}"),
        reason,
        remaining_energy_j: 40_000.0 - 1_000.0 * f64::from(flights_flown),
        remaining_time_s: 6.0,
        waypoints_completed: 1,
        flights_flown,
    }
}

/// Replays one deterministic op tape — stores, telescoped re-saves,
/// checkout/commit and checkout/abandon round-trips, a compaction —
/// against a repository. The tape touches enough distinct names to
/// populate every shard of a 4-way split.
fn replay_vdr_tape(vdr: &mut VirtualDroneRepository) {
    for i in 0..24u32 {
        let name = format!("vd-u{:02}-{}", i % 12, i);
        vdr.store(saved(&name, &format!("u{:02}", i % 12), 0, SaveReason::Interrupted));
    }
    // Telescoped re-saves: the same names re-stored with progress.
    for round in 1..4u32 {
        for i in 0..24u32 {
            if i % 3 == 0 {
                let name = format!("vd-u{:02}-{}", i % 12, i);
                vdr.store(saved(&name, &format!("u{:02}", i % 12), round, SaveReason::Interrupted));
            }
        }
    }
    // Checkout/commit round-trips (resume succeeded)...
    for i in (0..24u32).step_by(4) {
        let name = format!("vd-u{:02}-{}", i % 12, i);
        let e = vdr.checkout(&name).expect("stored entry checks out");
        assert_eq!(e.name, name);
        assert!(vdr.commit(&name), "lease must commit");
    }
    // ...and checkout/abandon round-trips (resume scrapped).
    for i in (1..24u32).step_by(4) {
        let name = format!("vd-u{:02}-{}", i % 12, i);
        let before = vdr.get(&name).expect("entry exists").flights_flown;
        vdr.checkout(&name).expect("stored entry checks out");
        assert!(vdr.get(&name).is_none(), "leased entry is off the shelf");
        assert!(vdr.abandon(&name), "lease must abandon back");
        assert_eq!(
            vdr.get(&name).expect("abandoned entry restored").flights_flown,
            before,
            "abandon must restore the entry unmodified"
        );
    }
    let report = vdr.compact();
    assert!(report.compacted_saves > 0, "telescoped saves must compact");
}

/// Any shard count is digest-identical to `shards = 1` on the same
/// op tape, and the roll-up stats agree entry for entry.
#[test]
fn vdr_shard_count_is_digest_invariant() {
    let mut one = VirtualDroneRepository::new();
    replay_vdr_tape(&mut one);
    for shards in [2usize, 4, 7] {
        let mut many = VirtualDroneRepository::with_shards(shards);
        replay_vdr_tape(&mut many);
        assert_eq!(
            one.digest(),
            many.digest(),
            "shards={shards} diverged from the 1-shard digest"
        );
        let (a, b) = (one.stats(), many.stats());
        assert_eq!(a.entries, b.entries, "shards={shards}: entry count");
        assert_eq!(a.leased, b.leased, "shards={shards}: lease count");
        assert_eq!(a.journal_entries, b.journal_entries, "shards={shards}: journal");
        assert_eq!(a.compacted_saves, b.compacted_saves, "shards={shards}: compaction");
        assert_eq!(a.reclaimed_bytes, b.reclaimed_bytes, "shards={shards}: reclaim");
        assert_eq!(one.stored_bytes(), many.stored_bytes());
        // The split itself is real: multiple shards hold entries.
        let populated = many
            .snapshot()
            .iter()
            .filter(|s| s.entries + s.leased > 0)
            .count();
        assert!(populated > 1, "shards={shards}: tape landed on one shard");
    }
}

/// A VDR outage armed *mid-checkout* (lease outstanding) neither
/// loses the leased drone nor blocks its commit/abandon; new
/// checkouts are refused with a typed error until the heal wave.
#[test]
fn vdr_outage_mid_checkout_loses_nothing() {
    let mut cloud = FallibleCloud::with_shards(4);
    for i in 0..8u32 {
        cloud
            .inner
            .vdr
            .store(saved(&format!("vd-x-{i}"), "x", 1, SaveReason::Interrupted));
    }
    cloud.begin_wave(0, vec![]);
    let leased = cloud
        .checkout_saved("vd-x-0")
        .expect("healthy wave")
        .expect("entry stored");
    assert_eq!(leased.name, "vd-x-0");

    // Outage lands while the lease is outstanding.
    cloud.begin_wave(1, vec![CloudFaultKind::VdrUnavailable]);
    assert!(matches!(
        cloud.checkout_saved("vd-x-1"),
        Err(CloudError::VdrUnavailable)
    ));
    let stats = cloud.inner.vdr.stats();
    assert_eq!(stats.entries + stats.leased, 8, "outage must not lose entries");
    assert_eq!(stats.leased, 1, "the outstanding lease survives the outage");
    // The leaseholder can still conclude its resume: abandon returns
    // the drone to the shelf even while checkouts are refused.
    assert!(cloud.inner.vdr.abandon("vd-x-0"));

    // Heal: checkouts flow again, and a commit round-trip works.
    cloud.begin_wave(2, vec![]);
    let again = cloud
        .checkout_saved("vd-x-1")
        .expect("healed wave")
        .expect("entry stored");
    assert_eq!(again.name, "vd-x-1");
    assert!(cloud.inner.vdr.commit("vd-x-1"));
    let stats = cloud.inner.vdr.stats();
    assert_eq!(stats.leased, 0);
    assert_eq!(stats.entries, 7, "committed resume consumes its entry");
}

// Property: under any interleaving of bounded enqueues, batched
// admission waves, and front-requeues, each lane's orders are
// released in exact submission order; a backpressured enqueue hands
// the item back untouched with a retry wave strictly ahead.
proptest! {
    #[test]
    fn admission_fifo_survives_backpressure_and_requeue(
        ops in proptest::collection::vec((0u8..6, 0u8..5), 1..160),
        per_wave in 1usize..5,
        cap in 4usize..24,
    ) {
        let mut q = AdmissionQueue::new(AdmissionConfig::batched(per_wave, cap));
        let mut model: BTreeMap<String, VecDeque<u32>> = BTreeMap::new();
        let mut next_item = 0u32;
        let mut wave = 0u64;
        for (op, lane) in ops {
            let lane_name = format!("t{lane}");
            match op {
                // Enqueue dominates the mix so capacity is reached.
                0..=3 => {
                    let item = next_item;
                    next_item += 1;
                    match q.enqueue(&lane_name, item, wave) {
                        Ok(_) => model.entry(lane_name).or_default().push_back(item),
                        Err((AdmissionError::Backpressure { retry_wave, depth }, bounced)) => {
                            prop_assert_eq!(bounced, item, "rejected item must ride back");
                            prop_assert!(retry_wave > wave, "retry wave not ahead");
                            prop_assert_eq!(depth, cap, "backpressure below capacity");
                        }
                    }
                }
                4 => {
                    wave += 1;
                    let admitted = q.admit();
                    prop_assert!(admitted.len() <= per_wave, "quota exceeded");
                    for a in admitted {
                        let front = model.get_mut(&a.lane).and_then(|l| l.pop_front());
                        prop_assert_eq!(front, Some(a.item), "lane admitted out of order");
                    }
                }
                _ => {
                    // Admit a wave but spill the first released order
                    // back to the front of its lane (the bin-packer's
                    // overflow path) — its FIFO position must hold.
                    wave += 1;
                    let mut admitted = q.admit();
                    if !admitted.is_empty() {
                        for a in &admitted {
                            let front = model.get_mut(&a.lane).and_then(|l| l.pop_front());
                            prop_assert_eq!(front, Some(a.item), "lane admitted out of order");
                        }
                        // Spill the first released order back: it
                        // returns to the *front* of its lane, ahead of
                        // anything still queued there.
                        let spilled = admitted.remove(0);
                        model
                            .entry(spilled.lane.clone())
                            .or_default()
                            .push_front(spilled.item);
                        q.requeue_front(spilled);
                    }
                }
            }
            let pending: usize = model.values().map(VecDeque::len).sum();
            prop_assert_eq!(q.pending(), pending, "queue and model disagree on depth");
            prop_assert!(q.pending() <= cap, "capacity bound violated");
        }
        // Drain to empty: the tail must also be in FIFO order.
        while !q.is_empty() {
            let admitted = q.admit();
            prop_assert!(!admitted.is_empty(), "pending queue admitted nothing");
            for a in admitted {
                let front = model.get_mut(&a.lane).and_then(|l| l.pop_front());
                prop_assert_eq!(front, Some(a.item), "drain out of order");
            }
        }
        prop_assert!(model.values().all(VecDeque::is_empty), "model items never released");
    }
}

fn gate_config(seed: u64, n_tenants: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        base: BASE,
        seed,
        fleet_size: 2,
        tenants: (0..n_tenants)
            .map(|i| FleetTenant {
                vd_name: format!("vd{}", i + 1),
                user: format!("user{}", i + 1),
                spec: small_spec(i as f64),
            })
            .collect(),
        max_waves: 6,
        max_sim_seconds: 240.0,
        watchdog: None,
        threads,
    }
}

/// Sharding the fleet executor's VDR is invisible in the bits: a
/// `vdr_shards(4)` run reproduces the 1-shard digests on a faulted
/// gate scenario (faults force interrupt/resume traffic through the
/// repository).
#[test]
fn fleet_run_is_digest_invariant_across_vdr_shards() {
    let seed = 0xF1EE_5EED ^ 0x9E37_79B9;
    let cfg = gate_config(seed, 4, 2);
    let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
    let faults = FleetFaultPlan::generate(seed, 3, &tenant_names, 150);
    let spec = FleetSpec::new(cfg).faults(faults);
    let one = spec.run().expect("1-shard run");
    let four = spec.clone().vdr_shards(4).run().expect("4-shard run");
    assert_eq!(one.fleet_digest(), four.fleet_digest());
    assert_eq!(one.metrics_digest(), four.metrics_digest());
}

/// The 10k rung's `(fleet_digest, vdr_digest)`, captured before the
/// fleet executor's wrapper doors and admission rider were removed.
/// Width invariance alone would miss a drift that is equal at every
/// width; this pins the absolute bits.
const SCALE_10K_PIN: (u64, u64) = (0x9e3c_5fdf_eaf9_d91b, 0x61a8_abd3_1013_2e23);

/// The `fleet-scale-smoke` CI leg: the 10k-tenant rung runs to
/// quiescence, every tenant resolves terminally, backpressure
/// engages, its digests equal [`SCALE_10K_PIN`], and they are
/// invariant across shards 1/4 and threads 1/4.
#[test]
fn scale_10k_digests_invariant_across_shards_and_threads() {
    let reference = execute_scale_fleet(&ScaleConfig::rung(10_000));
    assert!(reference.quiescent, "10k rung did not reach quiescence");
    assert_eq!(
        (reference.fleet_digest(), reference.vdr_digest),
        SCALE_10K_PIN,
        "10k rung drifted from its pinned digests"
    );
    assert_eq!(
        reference.completed() + reference.exhausted(),
        10_000,
        "every tenant must resolve terminally"
    );
    assert!(
        reference.backpressured_submissions > 0,
        "10k must exceed queue capacity and exercise backpressure"
    );
    assert!(
        reference.peak_queue_depth <= reference.config.queue_capacity,
        "queue depth must respect the capacity bound"
    );
    for (threads, shards) in [(4usize, 1usize), (1, 4), (4, 4)] {
        let run = execute_scale_fleet(&ScaleConfig::rung(10_000).threads(threads).shards(shards));
        assert_eq!(
            reference.fleet_digest(),
            run.fleet_digest(),
            "threads={threads} shards={shards} diverged from the reference"
        );
        assert_eq!(
            reference.metrics_digest(),
            run.metrics_digest(),
            "threads={threads} shards={shards} metrics diverged"
        );
    }
}

/// Full acceptance matrix for the top rung: 100k tenants to
/// quiescence, digests identical across threads 1/4/8 and shards
/// 1/4. Ignored by default (several seconds per run in release, far
/// more in debug); run with
/// `cargo test --release --test fleet_scale -- --ignored`.
#[test]
#[ignore = "top rung of the scaling ladder; run in release"]
fn scale_100k_runs_to_quiescence_at_every_width() {
    let reference = execute_scale_fleet(&ScaleConfig::rung(100_000));
    assert!(reference.quiescent, "100k rung did not reach quiescence");
    assert_eq!(reference.completed() + reference.exhausted(), 100_000);
    for (threads, shards) in [(4usize, 1usize), (8, 1), (1, 4)] {
        let run = execute_scale_fleet(&ScaleConfig::rung(100_000).threads(threads).shards(shards));
        assert_eq!(
            reference.fleet_digest(),
            run.fleet_digest(),
            "threads={threads} shards={shards} diverged from the reference"
        );
        assert_eq!(reference.metrics_digest(), run.metrics_digest());
    }
}
