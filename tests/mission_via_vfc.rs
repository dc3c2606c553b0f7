//! A tenant with the full whitelist uploads a survey mission through
//! its VFC and flies it in Auto mode — all inside its geofence, with
//! the VFC screening every message.

use androne::flight::{CommandWhitelist, Geofence, Vfc, VfcState};
use androne::hal::GeoPoint;
use androne::mavlink::{deg_to_e7, FlightMode, MavCmd, Message};
use androne::simkern::SimDuration;
use androne::Drone;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

#[test]
fn tenant_uploads_and_flies_a_mission_through_its_vfc() {
    let mut drone = Drone::boot(BASE, 93).unwrap();
    let waypoint = BASE.offset_m(50.0, 0.0, 15.0);
    // Position the drone at the tenant's waypoint and hand over with
    // the FULL whitelist (mission upload requires it).
    assert!(drone.sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
    assert!(drone
        .sitl
        .goto(waypoint, 5.0, 2.0, SimDuration::from_secs(60)));
    drone.proxy.add_vfc_client(Vfc::new(
        "vd-pro",
        CommandWhitelist::full(),
        Geofence::new(waypoint, 45.0),
        false,
    ));
    drone.proxy.activate_vfc("vd-pro");

    // Upload a 3-leg survey sweep inside the 45 m fence via the
    // MISSION protocol, through the VFC.
    let legs = [
        waypoint.offset_m(20.0, 0.0, 0.0),
        waypoint.offset_m(20.0, 20.0, 0.0),
        waypoint.offset_m(-10.0, 20.0, 0.0),
    ];
    drone.proxy.client_send(
        "vd-pro",
        Message::MissionCount {
            count: legs.len() as u16,
        },
        &mut drone.sitl,
    );
    // Service MISSION_REQUESTs until the ACK.
    let mut accepted = false;
    for _ in 0..10 {
        let replies = drone.proxy.client_recv("vd-pro");
        for msg in replies {
            match msg {
                Message::MissionRequestInt { seq } => {
                    let wp = legs[seq as usize];
                    drone.proxy.client_send(
                        "vd-pro",
                        Message::MissionItemInt {
                            seq,
                            lat: deg_to_e7(wp.latitude),
                            lon: deg_to_e7(wp.longitude),
                            alt: wp.altitude as f32,
                        },
                        &mut drone.sitl,
                    );
                }
                Message::MissionAck { result: 0 } => accepted = true,
                _ => {}
            }
        }
        if accepted {
            break;
        }
    }
    assert!(accepted, "mission upload acknowledged");
    assert_eq!(drone.sitl.fc.mission().len(), 3);

    // Fly it in Auto (full whitelist permits the mode change).
    drone.proxy.client_send(
        "vd-pro",
        Message::SetMode {
            mode: FlightMode::Auto,
        },
        &mut drone.sitl,
    );
    for _ in 0..(120.0 * 400.0) as u64 {
        drone.proxy.step(&mut drone.sitl);
        if drone.sitl.position().distance_m(&legs[2]) < 3.0 {
            break;
        }
    }
    assert!(
        drone.sitl.position().distance_m(&legs[2]) < 3.0,
        "mission flown to its last leg"
    );
    assert_eq!(
        drone.proxy.breaches_handled, 0,
        "the whole sweep stayed inside the fence"
    );
    assert_eq!(drone.proxy.vfc("vd-pro").unwrap().state(), VfcState::Active);
}

#[test]
fn standard_whitelist_refuses_mission_upload() {
    let mut drone = Drone::boot(BASE, 94).unwrap();
    let waypoint = BASE.offset_m(40.0, 0.0, 15.0);
    drone.proxy.add_vfc_client(Vfc::new(
        "vd-std",
        CommandWhitelist::standard(),
        Geofence::new(waypoint, 45.0),
        false,
    ));
    drone.proxy.activate_vfc("vd-std");
    drone.proxy.client_send(
        "vd-std",
        Message::MissionCount { count: 2 },
        &mut drone.sitl,
    );
    let replies = drone.proxy.client_recv("vd-std");
    assert!(
        replies
            .iter()
            .any(|m| matches!(m, Message::StatusText { text, .. } if text.contains("whitelist"))),
        "{replies:?}"
    );
    assert!(drone.sitl.fc.mission().is_empty());
    // Arm/disarm stays denied too.
    drone.proxy.client_send(
        "vd-std",
        Message::CommandLong {
            command: MavCmd::ComponentArmDisarm,
            params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        },
        &mut drone.sitl,
    );
    assert!(drone.proxy.commands_denied >= 2);
}
