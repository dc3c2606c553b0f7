//! Long-flight digest pin.
//!
//! The per-second state digest folds two append-only logs that grow
//! for the whole flight: every MAVProxy client outbox and the ATT
//! flight log. Each fold extends a start-state table over the items
//! appended since the previous fold, so the longer a log grows, the
//! more of its digest comes from that table. This test flies a long
//! hover flight (three tenants, one drone, over 800 simulated
//! seconds) and pins its trace digest. One tenant drains its outbox
//! twice mid-flight through `client_recv`, so the digest also covers
//! a log that is emptied and then refilled.
//!
//! The pin was captured with the plain re-hash-everything digest;
//! any incremental digest must reproduce it bit for bit.

use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{execute_flight_probed, DigestProbe, Drone, EndReason, FnProbe, ProbeStack};

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SEED: u64 = 0x10_6F11;
/// Simulated seconds each tenant hovers at its waypoint.
const SERVICE_S: f64 = 275.0;
/// The ticks at which `vd2` drains its outbox.
const DRAIN_TICKS: [u64; 2] = [300, 600];
/// Trace digest of the flight, captured before the digest was made
/// incremental and re-captured when the sensor noise moved to
/// polar-method pairs.
const LONG_FLIGHT_PIN: u64 = 0xa7e0_7859_84e2_799c;

fn spot(north: f64, east: f64) -> GeoPoint {
    BASE.offset_m(north, east, 15.0)
}

fn spec(at: GeoPoint) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints: vec![WaypointSpec {
            latitude: at.latitude,
            longitude: at.longitude,
            altitude: 15.0,
            max_radius: 40.0,
        }],
        max_duration: SERVICE_S,
        energy_allotted: 200_000.0,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec![],
        app_args: Default::default(),
    }
}

#[test]
fn long_hover_flight_digest_is_pinned() {
    let spots = [
        ("vd1", spot(20.0, 10.0)),
        ("vd2", spot(-15.0, 25.0)),
        ("vd3", spot(10.0, -20.0)),
    ];
    let mut drone = Drone::boot(BASE, SEED).expect("boot");
    for (name, at) in spots {
        drone.deploy_vdrone(name, spec(at), &[]).expect("deploy");
    }
    let plan = FlightPlan {
        base: BASE,
        legs: spots
            .iter()
            .map(|(name, at)| Leg {
                owner: (*name).into(),
                position: *at,
                max_radius_m: 40.0,
                service_energy_j: 200_000.0,
                service_time_s: SERVICE_S,
                eta_s: 10.0,
            })
            .collect(),
        estimated_duration_s: 900.0,
        estimated_energy_j: 600_000.0,
    };

    let mut drained = Vec::new();
    let mut digest = DigestProbe::new();
    let outcome = {
        // The drain runs before the digest within the same tick, so
        // the digest sees the emptied outbox.
        let mut drain = FnProbe::new(|tick, drone: &mut Drone| {
            if DRAIN_TICKS.contains(&tick) {
                drained.push(drone.proxy.client_recv("vd2").len());
            }
        });
        let mut probes = ProbeStack::new();
        probes.push(&mut drain);
        probes.push(&mut digest);
        execute_flight_probed(&mut drone, plan, 1_200.0, None, &mut probes)
    };

    assert!(outcome.completed, "flight ended {:?}", outcome.end_reason);
    assert_eq!(outcome.end_reason, EndReason::Completed);
    assert!(
        outcome.duration_s >= 800.0,
        "a long flight: {} sim-s",
        outcome.duration_s
    );
    assert_eq!(drained.len(), DRAIN_TICKS.len());
    assert!(
        drained.iter().all(|&n| n > 1_000),
        "vd2 drained outboxes with messages in them: {drained:?}"
    );
    assert_eq!(
        digest.digest(),
        LONG_FLIGHT_PIN,
        "long-flight trace digest drifted: {:#018x}",
        digest.digest()
    );
}
