//! The sharded control plane's contract tests:
//!
//! - **VDR shard chaos** — replaying an identical op tape (stores,
//!   telescoped re-saves, checkout/commit/abandon round-trips,
//!   compaction) against 1-shard and 4-shard repositories produces
//!   identical digests and stats, and a portal/VDR outage armed
//!   mid-checkout loses no customer drone.
//! - **Admission FIFO** — a model-based property test: under
//!   arbitrary interleavings of `FallibleCloud::resubmit` (with
//!   backpressure) and batched admission waves, every virtual drone's
//!   orders are released in exact submission order.
//! - **Scaling ladder smoke** — the 10k-tenant rung runs to
//!   quiescence with digests invariant across shards 1/4 and threads
//!   1/4 (the `fleet-scale-smoke` CI leg), and an `#[ignore]`d
//!   100k rung covers the full acceptance matrix.

use std::collections::{BTreeMap, VecDeque};

use androne::cloud::{
    AdmissionConfig, AdmissionError, CloudError, FallibleCloud, OrderSubmitError, PlacedOrder,
    SaveReason, SavedVirtualDrone, VirtualDroneRepository,
};
use androne::container::{ContainerArchive, ContainerKind, Layer};
use androne::hal::GeoPoint;
use androne::simkern::CloudFaultKind;
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
        vdr.store(saved(
            &name,
            &format!("u{:02}", i % 12),
            0,
            SaveReason::Interrupted,
        ));
    }
    // Telescoped re-saves: the same names re-stored with progress.
    for round in 1..4u32 {
        for i in 0..24u32 {
            if i % 3 == 0 {
                let name = format!("vd-u{:02}-{}", i % 12, i);
                vdr.store(saved(
                    &name,
                    &format!("u{:02}", i % 12),
                    round,
                    SaveReason::Interrupted,
                ));
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
            vdr.get(&name)
                .expect("abandoned entry restored")
                .flights_flown,
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
        assert_eq!(
            a.journal_entries, b.journal_entries,
            "shards={shards}: journal"
        );
        assert_eq!(
            a.compacted_saves, b.compacted_saves,
            "shards={shards}: compaction"
        );
        assert_eq!(
            a.reclaimed_bytes, b.reclaimed_bytes,
            "shards={shards}: reclaim"
        );
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
    assert_eq!(
        stats.entries + stats.leased,
        8,
        "outage must not lose entries"
    );
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

fn placed(vd_name: String, order_id: u64) -> PlacedOrder {
    PlacedOrder {
        order_id,
        user: format!("user-{vd_name}"),
        vd_name,
        spec: VirtualDroneSpec::example_survey(),
        flexible_schedule: true,
    }
}

// Property: under any interleaving of resubmits to a batched queue
// and admission waves, each virtual drone's orders are released in
// exact submission order; a backpressured resubmit hands the order
// back whole with a retry wave strictly ahead.
proptest! {
    #[test]
    fn admission_fifo_survives_backpressure(
        ops in proptest::collection::vec((0u8..5, 0u8..5), 1..160),
        per_wave in 1usize..5,
        cap in 4usize..24,
    ) {
        let mut cloud = FallibleCloud::new();
        cloud.set_admission(AdmissionConfig::batched(per_wave, cap));
        let mut model: BTreeMap<String, VecDeque<u64>> = BTreeMap::new();
        let mut next_id = 0u64;
        let mut wave = 0u64;
        for (op, lane) in ops {
            let vd_name = format!("t{lane}");
            match op {
                // Resubmits dominate the mix so capacity is reached.
                0..=3 => {
                    let order = placed(vd_name.clone(), next_id);
                    next_id += 1;
                    match cloud.resubmit(order.clone()) {
                        Ok(_) => model.entry(vd_name).or_default().push_back(order.order_id),
                        Err(OrderSubmitError::Backpressure {
                            err: AdmissionError::Backpressure { retry_wave, depth },
                            order: bounced,
                        }) => {
                            prop_assert_eq!(*bounced, order, "rejected order must ride back");
                            prop_assert!(retry_wave > wave, "retry wave not ahead");
                            prop_assert_eq!(depth, cap, "backpressure below capacity");
                        }
                        Err(e) => prop_assert!(false, "validated order rejected: {}", e),
                    }
                }
                _ => {
                    wave += 1;
                    cloud.begin_wave(wave, vec![]);
                    let admitted = cloud.admit_orders();
                    prop_assert!(admitted.len() <= per_wave, "quota exceeded");
                    for o in admitted {
                        let front = model.get_mut(&o.vd_name).and_then(|l| l.pop_front());
                        prop_assert_eq!(front, Some(o.order_id), "lane admitted out of order");
                    }
                }
            }
            let pending: usize = model.values().map(VecDeque::len).sum();
            let depth = cloud.admission().pending();
            prop_assert_eq!(depth, pending, "queue and model disagree on depth");
            prop_assert!(depth <= cap, "capacity bound violated");
        }
        // Drain to empty: the tail must also be in FIFO order.
        while !cloud.admission().is_empty() {
            let admitted = cloud.admit_orders();
            prop_assert!(!admitted.is_empty(), "pending queue admitted nothing");
            for o in admitted {
                let front = model.get_mut(&o.vd_name).and_then(|l| l.pop_front());
                prop_assert_eq!(front, Some(o.order_id), "drain out of order");
            }
        }
        prop_assert!(model.values().all(VecDeque::is_empty), "model orders never released");
    }
}

/// The 10k rung's `(fleet_digest, vdr_digest, metrics_digest)`. The
/// first two were captured before the fleet executor's wrapper doors
/// and admission rider were removed, the metrics word before the
/// ladder driver moved to dense tenant ids. Width invariance alone
/// would miss a drift that is equal at every width; this pins the
/// absolute bits.
const SCALE_10K_PIN: (u64, u64, u64) = (
    0x9e3c_5fdf_eaf9_d91b,
    0x61a8_abd3_1013_2e23,
    0xbd7a_8887_88a5_568e,
);

/// The 100k rung's `(fleet_digest, vdr_digest, metrics_digest)`,
/// captured before the ladder driver moved to dense tenant ids.
const SCALE_100K_PIN: (u64, u64, u64) = (
    0x4bd7_434e_1760_f6d8,
    0xd4af_25e9_62a6_6dc1,
    0xf004_a6c0_6cf4_2172,
);

/// A 40-tenant rung at seed 7 (not the ladder default), small enough
/// for a debug test: `(fleet_digest, vdr_digest, metrics_digest)`,
/// captured before the ladder driver moved to dense tenant ids.
const SCALE_SEED7_PIN: (u64, u64, u64) = (
    0x52f4_49d6_975b_5156,
    0x2247_f6d6_a874_7e70,
    0x4681_ad93_5c97_8bd7,
);

fn scale_pin(out: &androne::ScaleOutcome) -> (u64, u64, u64) {
    (out.fleet_digest(), out.vdr_digest, out.metrics_digest())
}

/// The driver's wave cycle on a small non-default-seed rung: the run
/// backpressures, spills legs to the next wave and exhausts the
/// under-provisioned tenants, and every output word equals
/// [`SCALE_SEED7_PIN`].
#[test]
fn scale_small_rung_matches_its_seed_pin() {
    let cfg = ScaleConfig {
        tenants: 40,
        fleet_size: 4,
        admit_per_wave: 12,
        queue_capacity: 24,
        ..ScaleConfig::rung(40)
    }
    .seed(7);
    let out = execute_scale_fleet(&cfg);
    assert!(out.quiescent);
    assert!(
        out.backpressured_submissions > 0,
        "capacity 24 < 40 tenants"
    );
    assert!(
        out.metrics.counter("scale.legs_spilled") > 0,
        "4 drones x 3 seats < 12 admitted + resumed legs"
    );
    assert!(out.exhausted() > 0, "the under-provisioned cohort exhausts");
    assert_eq!(scale_pin(&out), SCALE_SEED7_PIN, "seed-7 rung drifted");
}

/// The `fleet-scale-smoke` CI leg: the 10k-tenant rung runs to
/// quiescence, every tenant resolves terminally, backpressure
/// engages, its digests equal [`SCALE_10K_PIN`], and they are
/// invariant across shards 1/4 and threads 1/4.
#[test]
fn scale_10k_digests_invariant_across_shards_and_threads() {
    let reference = execute_scale_fleet(&ScaleConfig::rung(10_000));
    assert!(reference.quiescent, "10k rung did not reach quiescence");
    assert_eq!(
        scale_pin(&reference),
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
/// quiescence, digests equal to [`SCALE_100K_PIN`] and identical
/// across threads 1/4/8 and shards 1/4. Ignored by default (several seconds per run in release, far
/// more in debug); run with
/// `cargo test --release --test fleet_scale -- --ignored`.
#[test]
#[ignore = "top rung of the scaling ladder; run in release"]
fn scale_100k_runs_to_quiescence_at_every_width() {
    let reference = execute_scale_fleet(&ScaleConfig::rung(100_000));
    assert!(reference.quiescent, "100k rung did not reach quiescence");
    assert_eq!(reference.completed() + reference.exhausted(), 100_000);
    assert_eq!(
        scale_pin(&reference),
        SCALE_100K_PIN,
        "100k rung drifted from its pinned digests"
    );
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
