//! Telemetry fan-out determinism.
//!
//! The proxy distributes each `Sitl::step` batch as shared
//! `Rc<Message>` values, transforming once per VFC client. These
//! tests pin down the two properties that sharing must not break:
//!
//! 1. under a fixed SITL seed, repeated runs deliver byte-identical
//!    message sequences to every client;
//! 2. the shared distribution is observably equal — message for
//!    message, byte for byte — to the owned per-message
//!    `transform_telemetry` reference it replaced.

use std::collections::BTreeMap;
use std::rc::Rc;

use androne::flight::{CommandWhitelist, Geofence, MavProxy, Sitl, Vfc};
use androne::hal::GeoPoint;
use androne::mavlink::{FlightMode, Message};

/// Wire image of a message: id byte plus encoded payload.
fn wire(msg: &Message) -> Vec<u8> {
    let mut out = vec![msg.msg_id()];
    out.extend(msg.encode_payload());
    out
}

fn home() -> GeoPoint {
    GeoPoint::new(37.42, -122.08, 0.0)
}

const CLIENTS: [&str; 5] = [
    "gcs",
    "vd-active",
    "vd-approach",
    "vd-finished",
    "vd-pending",
];

/// One client in every telemetry presentation state: pass-through
/// (unrestricted and active), synthetic climb (approaching),
/// synthetic descent (finished), and grounded idle (pending).
fn build_proxy() -> MavProxy {
    let mut proxy = MavProxy::new();
    proxy.add_unrestricted_client("gcs");

    let mut active = Vfc::new(
        "vd-active",
        CommandWhitelist::standard(),
        Geofence::new(home(), 250.0),
        false,
    );
    active.begin_approach();
    active.activate();
    proxy.add_vfc_client(active);

    let far = GeoPoint::new(37.43, -122.07, 30.0);
    let mut approaching = Vfc::new(
        "vd-approach",
        CommandWhitelist::guided_only(),
        Geofence::new(far, 100.0),
        false,
    );
    approaching.begin_approach();
    proxy.add_vfc_client(approaching);

    let mut finished = Vfc::new(
        "vd-finished",
        CommandWhitelist::standard(),
        Geofence::new(far, 100.0),
        false,
    );
    finished.finish(GeoPoint::new(37.421, -122.081, 12.0));
    proxy.add_vfc_client(finished);

    proxy.add_vfc_client(Vfc::new(
        "vd-pending",
        CommandWhitelist::standard(),
        Geofence::new(far, 100.0),
        false,
    ));
    proxy
}

fn run(seed: u64, steps: usize) -> BTreeMap<String, Vec<u8>> {
    let mut sitl = Sitl::new(home(), seed);
    let mut proxy = build_proxy();
    let mut sequences: BTreeMap<String, Vec<u8>> = CLIENTS
        .iter()
        .map(|name| (name.to_string(), Vec::new()))
        .collect();
    for _ in 0..steps {
        proxy.step(&mut sitl);
        for name in CLIENTS {
            let seq = sequences.get_mut(name).unwrap();
            for msg in proxy.client_recv(name) {
                seq.extend(wire(&msg));
            }
        }
    }
    sequences
}

#[test]
fn fanout_is_byte_identical_under_fixed_seed() {
    let first = run(42, 2_000);
    let second = run(42, 2_000);
    assert_eq!(first, second);
    for (name, bytes) in &first {
        assert!(!bytes.is_empty(), "client {name} saw telemetry");
    }
}

#[test]
fn shared_fanout_matches_owned_per_message_transform() {
    let pos = home();
    let batch = vec![
        Message::Heartbeat {
            mode: FlightMode::Guided,
            armed: true,
            system_status: 4,
        },
        Message::SysStatus {
            voltage_mv: 12_400,
            current_ca: 1_800,
            battery_remaining: 87,
        },
        Message::Attitude {
            time_boot_ms: 400,
            roll: 0.02,
            pitch: -0.01,
            yaw: 1.57,
        },
        Message::GlobalPositionInt {
            time_boot_ms: 400,
            lat: 374_200_000,
            lon: -1_220_800_000,
            relative_alt: 30_000,
            vx: 120,
            vy: -40,
            vz: 0,
        },
        Message::StatusText {
            severity: 6,
            text: "EKF2 IMU0 is using GPS".to_string(),
        },
    ];
    let batch_rc: Vec<Rc<Message>> = batch.iter().cloned().map(Rc::new).collect();

    let mut proxy = build_proxy();
    // Reference VFC state captured before distribution mutates the
    // synthetic-altitude animation.
    let mut reference: BTreeMap<&str, Option<Vfc>> = CLIENTS
        .iter()
        .map(|&name| (name, proxy.vfc(name).cloned()))
        .collect();

    // Several rounds, so stateful transforms (climb/descent) are
    // compared across steps, not just on the first batch.
    for round in 0..10 {
        proxy.distribute_telemetry(&batch_rc, &pos);
        for name in CLIENTS {
            let delivered = proxy.client_recv(name);
            let expected: Vec<Message> = match reference.get_mut(name).unwrap() {
                None => batch.clone(),
                Some(vfc) => batch
                    .iter()
                    .map(|msg| vfc.transform_telemetry(msg, &pos))
                    .collect(),
            };
            assert_eq!(delivered, expected, "client {name}, round {round}");
            let delivered_bytes: Vec<u8> = delivered.iter().flat_map(wire).collect();
            let expected_bytes: Vec<u8> = expected.iter().flat_map(wire).collect();
            assert_eq!(
                delivered_bytes, expected_bytes,
                "client {name}, round {round}"
            );
        }
    }
}
