//! Property-based tests over the core data structures and
//! invariants (proptest).

use androne::binder::{PValue, Parcel};
use androne::container::{FileChange, Image, Layer};
use androne::energy::DorlingModel;
use androne::flight::Geofence;
use androne::hal::GeoPoint;
use androne::mavlink::{deg_to_e7, Frame, Message, Parser};
use androne::planner::{VrpProblem, WaypointTask};
use androne::simkern::{MemoryLedger, Summary};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_pvalue() -> impl Strategy<Value = PValue> {
    prop_oneof![
        any::<i32>().prop_map(PValue::I32),
        any::<i64>().prop_map(PValue::I64),
        any::<f64>()
            .prop_filter("finite", |v| v.is_finite())
            .prop_map(PValue::F64),
        "[a-z0-9./]{0,24}".prop_map(PValue::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| PValue::Blob(Bytes::from(b))),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), any::<bool>(), 0u8..6).prop_map(|(_, armed, st)| Message::Heartbeat {
            mode: androne::mavlink::FlightMode::Guided,
            armed,
            system_status: st,
        }),
        (any::<u32>(), -1.5f32..1.5, -1.5f32..1.5, -3.2f32..3.2).prop_map(
            |(t, roll, pitch, yaw)| Message::Attitude {
                time_boot_ms: t,
                roll,
                pitch,
                yaw,
            }
        ),
        (-90.0f64..90.0, -180.0f64..180.0, 0f32..120.0, 0.1f32..15.0).prop_map(
            |(lat, lon, alt, speed)| Message::SetPositionTargetGlobalInt {
                lat: deg_to_e7(lat),
                lon: deg_to_e7(lon),
                alt,
                speed,
            }
        ),
        (0u8..7, "[ -~]{0,60}").prop_map(|(severity, text)| Message::StatusText { severity, text }),
    ]
}

/// Independent wire-size accounting, mirroring the parcel's own.
fn wire_len(v: &PValue) -> usize {
    match v {
        PValue::I32(_) => 4,
        PValue::I64(_) | PValue::F64(_) => 8,
        PValue::Str(s) => 4 + s.len(),
        PValue::Blob(b) => 4 + b.len(),
        PValue::Binder(_) | PValue::Fd(_) => 16,
    }
}

fn push_value(p: &mut Parcel, v: &PValue) {
    match v {
        PValue::I32(x) => {
            p.push_i32(*x);
        }
        PValue::I64(x) => {
            p.push_i64(*x);
        }
        PValue::F64(x) => {
            p.push_f64(*x);
        }
        PValue::Str(s) => {
            p.push_str(s.clone());
        }
        PValue::Blob(b) => {
            p.push_blob(b.clone());
        }
        _ => unreachable!(),
    }
}

proptest! {
    #[test]
    fn parcel_values_round_trip(values in proptest::collection::vec(arb_pvalue(), 0..16)) {
        let mut p = Parcel::new();
        for v in &values {
            push_value(&mut p, v);
        }
        prop_assert_eq!(p.values(), values.as_slice());
        prop_assert_eq!(p.len(), values.len());
    }

    #[test]
    fn parcel_cow_clone_then_mutate_never_aliases(
        values in proptest::collection::vec(arb_pvalue(), 0..16),
        extra in arb_pvalue(),
        mutate_original in any::<bool>(),
    ) {
        let mut original = Parcel::new();
        for v in &values {
            push_value(&mut original, v);
        }
        let mut clone = original.clone();
        // Clones share storage until a write...
        prop_assert!(original.shares_storage_with(&clone));
        let snapshot = original.values().to_vec();

        // ...and a write to either side unshares; the other side
        // observes the pre-write contents, never the mutation.
        if mutate_original {
            push_value(&mut original, &extra);
            prop_assert_eq!(clone.values(), snapshot.as_slice());
            prop_assert_eq!(original.len(), snapshot.len() + 1);
        } else {
            push_value(&mut clone, &extra);
            prop_assert_eq!(original.values(), snapshot.as_slice());
            prop_assert_eq!(clone.len(), snapshot.len() + 1);
        }
        prop_assert!(!original.shares_storage_with(&clone));
        prop_assert_eq!(original.wire_size(), original.values().iter().map(wire_len).sum::<usize>());
        prop_assert_eq!(clone.wire_size(), clone.values().iter().map(wire_len).sum::<usize>());
    }

    #[test]
    fn mavlink_frames_round_trip(msg in arb_message(), seq in any::<u8>(), sysid in any::<u8>()) {
        let frame = Frame { seq, sysid, compid: 1, msg };
        let mut parser = Parser::new();
        let decoded = parser.push(&frame.encode());
        // StatusText truncates >50-byte bodies; everything else is
        // exact.
        prop_assert_eq!(decoded.len(), 1);
        if let Message::StatusText { text, .. } = &frame.msg {
            if text.len() <= 50 {
                prop_assert_eq!(&decoded[0], &frame);
            }
        } else {
            prop_assert_eq!(&decoded[0], &frame);
        }
    }

    #[test]
    fn corrupted_frames_never_decode_wrong(
        msg in arb_message(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        let frame = Frame { seq: 1, sysid: 1, compid: 1, msg };
        let mut bytes = frame.encode();
        // Corrupt anywhere except the STX byte (parser resync is a
        // separate concern).
        let i = 1 + flip_at.index(bytes.len() - 1);
        bytes[i] ^= flip_bits;
        let mut parser = Parser::new();
        let decoded = parser.push(&bytes);
        // Either rejected, or (if the flip hit e.g. seq/sysid and the
        // checksum flip compensated — essentially impossible) equal.
        for f in decoded {
            // Any accepted frame must carry an internally consistent
            // checksum; re-encoding must reproduce accepted bytes.
            let reencoded = Frame { ..f.clone() }.encode();
            let mut p2 = Parser::new();
            prop_assert_eq!(p2.push(&reencoded).len(), 1);
        }
    }

    #[test]
    fn image_flatten_equals_resolution(
        ops in proptest::collection::vec(
            ("[a-c]", "[a-z]{0,8}", any::<bool>()),
            1..24
        )
    ) {
        // Build a random 3-layer stack of writes and whiteouts.
        let mut layers = vec![Layer::new(), Layer::new(), Layer::new()];
        for (i, (path, contents, whiteout)) in ops.iter().enumerate() {
            let layer = &mut layers[i % 3];
            if *whiteout {
                layer.whiteout(format!("/{path}"));
            } else {
                layer.write(format!("/{path}"), contents.clone());
            }
        }
        let mut image = Image::new();
        for l in layers {
            image.push_layer(Arc::new(l));
        }
        let flat = image.flatten();
        for path in image.paths() {
            let direct = image.resolve(&path);
            let flattened = flat.get(&path).and_then(|c| match c {
                FileChange::Write(b) => Some(b.clone()),
                FileChange::Whiteout => None,
            });
            prop_assert_eq!(direct, flattened);
        }
    }

    #[test]
    fn geofence_recovery_point_is_always_inside(
        north in -500.0f64..500.0,
        east in -500.0f64..500.0,
        up in 0.0f64..120.0,
        radius in 5.0f64..200.0,
    ) {
        let center = GeoPoint::new(43.6084298, -85.8110359, 15.0);
        let fence = Geofence::new(center, radius);
        let pos = center.offset_m(north, east, up);
        let rp = fence.recovery_point(&pos);
        prop_assert!(fence.contains(&rp), "recovery point escaped the fence");
        prop_assert!(rp.altitude >= 2.0);
    }

    #[test]
    fn dorling_power_is_monotone_in_payload(
        a in 0.0f64..2.0,
        b in 0.0f64..2.0,
    ) {
        let m = DorlingModel::f450_prototype();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.hover_power_w(lo) <= m.hover_power_w(hi) + 1e-9);
        prop_assert!(m.leg_energy_j(100.0, lo) <= m.leg_energy_j(100.0, hi) + 1e-9);
    }

    #[test]
    fn vrp_solutions_are_always_valid(
        coords in proptest::collection::vec((-800.0f64..800.0, -800.0f64..800.0), 1..10),
        fleet in 1usize..4,
        seed in any::<u64>(),
    ) {
        // A battery generous enough that every generated instance is
        // feasible: the solver's job here is structural validity
        // (coverage, fleet, no spurious violations); infeasibility
        // reporting has its own unit test in androne-planner.
        let depot = GeoPoint::new(43.6084298, -85.8110359, 0.0);
        let tasks: Vec<WaypointTask> = coords
            .iter()
            .enumerate()
            .map(|(i, (n, e))| WaypointTask {
                owner: format!("vd{i}"),
                position: depot.offset_m(*n, *e, 15.0),
                service_energy_j: 2_000.0,
                service_time_s: 30.0,
            })
            .collect();
        let problem = VrpProblem {
            depot,
            tasks,
            fleet_size: fleet,
            battery_budget_j: 2_000_000.0,
            model: DorlingModel::f450_prototype(),
            party_cap: None,
        };
        let sol = problem.solve(2_000, seed);
        prop_assert!(problem.validate(&sol).is_ok());
    }

    #[test]
    fn memory_ledger_never_overcommits(
        ops in proptest::collection::vec((0u8..3, 0u64..200), 1..60)
    ) {
        let mut ledger = MemoryLedger::new(1_000);
        for (op, amount) in ops {
            match op {
                0 => { let _ = ledger.allocate("a", amount); }
                1 => { let _ = ledger.allocate("b", amount); }
                _ => ledger.free_bytes(&"a".into(), amount),
            }
            prop_assert!(ledger.used() <= ledger.capacity());
            prop_assert_eq!(ledger.used() + ledger.free(), ledger.capacity());
        }
    }

    #[test]
    fn summary_matches_naive_computation(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100)
    ) {
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(s.max(), max);
        prop_assert_eq!(s.min(), min);
    }

    #[test]
    fn geo_offset_round_trips(
        north in -2_000.0f64..2_000.0,
        east in -2_000.0f64..2_000.0,
        up in -50.0f64..200.0,
    ) {
        let origin = GeoPoint::new(43.6084298, -85.8110359, 30.0);
        let p = origin.offset_m(north, east, up);
        let ned = p.ned_from(&origin);
        prop_assert!((ned.x - north).abs() < 0.5, "north {} vs {}", ned.x, north);
        prop_assert!((ned.y - east).abs() < 0.5, "east {} vs {}", ned.y, east);
        prop_assert!((ned.z + up).abs() < 1e-6);
    }
}

proptest! {
    #[test]
    fn vfc_never_forwards_outside_active_state(
        transitions in proptest::collection::vec(0u8..5, 0..12),
        cmds in proptest::collection::vec(0u8..3, 1..8),
    ) {
        // Safety property: whatever sequence of lifecycle transitions
        // a VFC goes through, client commands are only ever forwarded
        // while it is Active (and in-whitelist, in-fence).
        use androne::flight::{CommandWhitelist, Vfc, VfcDecision, VfcState};
        let center = GeoPoint::new(43.6084298, -85.8110359, 15.0);
        let fence = Geofence::new(center, 30.0);
        let mut vfc = Vfc::new("vd", CommandWhitelist::full(), fence, false);
        for t in transitions {
            match t {
                0 => vfc.begin_approach(),
                1 => vfc.activate(),
                2 => vfc.finish(center),
                3 => {
                    let _ = vfc.begin_breach_recovery();
                }
                _ => {
                    let _ = vfc.end_breach_recovery();
                }
            }
        }
        for c in cmds {
            let msg = match c {
                0 => Message::CommandLong {
                    command: androne::mavlink::MavCmd::NavTakeoff,
                    params: [0.0; 7],
                },
                1 => Message::SetPositionTargetGlobalInt {
                    lat: deg_to_e7(center.latitude),
                    lon: deg_to_e7(center.longitude),
                    alt: 15.0,
                    speed: 4.0,
                },
                _ => Message::SetMode {
                    mode: androne::mavlink::FlightMode::Loiter,
                },
            };
            let decision = vfc.on_client_message(&msg);
            if matches!(decision, VfcDecision::Forward(_)) {
                prop_assert_eq!(vfc.state(), VfcState::Active);
            }
        }
    }

    #[test]
    fn access_table_never_grants_unrequested_devices(
        phase_moves in proptest::collection::vec(0u8..4, 0..10),
    ) {
        use androne::android::{DeviceClass, DevicePolicy};
        use androne::vdc::{AccessTable, FlightPhase};
        use androne::simkern::ContainerId;
        let mut t = AccessTable::new();
        let vd = ContainerId(10);
        t.register(vd, vec![DeviceClass::Camera], vec![DeviceClass::Gps]);
        for m in phase_moves {
            match m {
                0 => t.set_phase(vd, FlightPhase::AtWaypoint(0)),
                1 => t.set_phase(vd, FlightPhase::Transit),
                2 => t.suspend_continuous(vd),
                _ => t.resume_continuous(vd),
            }
            // Never-requested devices stay denied in every state.
            prop_assert!(!t.allows(vd, DeviceClass::Microphone));
            prop_assert!(!t.allows(vd, DeviceClass::FlightControl));
        }
    }
}

proptest! {
    #[test]
    fn manifest_parser_never_panics(input in "[ -~\\n]{0,300}") {
        // Arbitrary printable garbage: the parser may reject, never
        // panic.
        let _ = androne::android::AndroneManifest::parse(&input);
    }

    #[test]
    fn mavlink_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut parser = Parser::new();
        let _ = parser.push(&bytes);
        // Feeding the same garbage twice keeps the parser sane.
        let _ = parser.push(&bytes);
    }

    #[test]
    fn spec_json_round_trips(
        n_waypoints in 1usize..4,
        duration in 1.0f64..10_000.0,
        energy in 1.0f64..1e6,
    ) {
        use androne::vdc::{VirtualDroneSpec, WaypointSpec};
        let spec = VirtualDroneSpec {
            waypoints: (0..n_waypoints)
                .map(|i| WaypointSpec {
                    latitude: 43.0 + i as f64 * 0.001,
                    longitude: -85.0 - i as f64 * 0.001,
                    altitude: 15.0,
                    max_radius: 30.0,
                })
                .collect(),
            max_duration: duration,
            energy_allotted: energy,
            continuous_devices: vec!["gps".into()],
            waypoint_devices: vec!["camera".into(), "flight-control".into()],
            apps: vec!["com.example.app.apk".into()],
            app_args: Default::default(),
        };
        spec.validate().unwrap();
        let back = VirtualDroneSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(spec, back);
    }
}
