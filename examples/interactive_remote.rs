//! Interactive remote control over cellular: a "smartphone" ground
//! station pilots its virtual drone through real MAVLink frames over
//! the LTE link model — the paper's Section 6.5 usage (gamepad +
//! ground station over the Internet vs an RF controller), end to
//! end through the VFC.
//!
//! ```text
//! cargo run --example interactive_remote
//! ```

use androne::hal::GeoPoint;
use androne::mavlink::{channel, deg_to_e7, MavResult, Message};
use androne::simkern::{LinkModel, SimDuration, SimTime};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut drone = Drone::boot(base, 650).expect("boot");
    let waypoint = base.offset_m(60.0, 0.0, 15.0);
    drone
        .deploy_vdrone(
            "vd-remote",
            VirtualDroneSpec {
                waypoints: vec![WaypointSpec {
                    latitude: waypoint.latitude,
                    longitude: waypoint.longitude,
                    altitude: 15.0,
                    max_radius: 40.0,
                }],
                max_duration: 300.0,
                energy_allotted: 60_000.0,
                continuous_devices: vec![],
                waypoint_devices: vec!["flight-control".into()],
                apps: vec![],
                app_args: Default::default(),
            },
            &[],
        )
        .unwrap();

    // Fly to the waypoint and hand over.
    println!("Positioning the drone at the user's waypoint...");
    assert!(drone.sitl.arm_and_takeoff(15.0, SimDuration::from_secs(30)));
    assert!(drone
        .sitl
        .goto(waypoint, 5.0, 2.0, SimDuration::from_secs(60)));
    drone.vdc.borrow_mut().on_waypoint_arrived("vd-remote", 0);
    drone.proxy.activate_vfc("vd-remote");

    // The user's phone connects over LTE (tunnelled through the
    // per-container VPN).
    let (mut phone, mut vpn_endpoint) = channel(LinkModel::cellular_lte(), 254, 1);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_micros(2_500);

    // Pilot a small square pattern inside the 40 m fence.
    let pattern = [
        (20.0, 0.0),
        (20.0, 20.0),
        (-10.0, 20.0),
        (-10.0, -15.0),
        (0.0, 0.0),
    ];
    println!("Flying a pattern over cellular; per-leg command → ack round trips:");
    for (north, east) in pattern {
        let target = waypoint.offset_m(north, east, 0.0);
        let sent_at = now;
        phone.send(
            Message::SetPositionTargetGlobalInt {
                lat: deg_to_e7(target.latitude),
                lon: deg_to_e7(target.longitude),
                alt: 15.0,
                speed: 4.0,
            },
            now,
            &mut rng,
        );
        // Run the drone until it reaches the target, relaying frames
        // between the cellular endpoint and the proxy each step.
        let mut ack_rtt: Option<SimDuration> = None;
        loop {
            now += step;
            // Downlink: deliver phone frames to the VFC.
            for frame in vpn_endpoint.recv(now) {
                drone
                    .proxy
                    .client_send("vd-remote", frame.msg, &mut drone.sitl);
            }
            drone.proxy.step(&mut drone.sitl);
            // Uplink: VFC replies/telemetry back over LTE.
            for msg in drone.proxy.client_recv("vd-remote") {
                let important = matches!(msg, Message::StatusText { .. });
                if let Some(at) = vpn_endpoint.send(msg, now, &mut rng) {
                    // Time the first reply as the user-visible ack.
                    if ack_rtt.is_none() {
                        ack_rtt = Some(at - sent_at);
                    }
                } else if important {
                    // Telemetry loss is tolerable; notices are not
                    // (a real deployment retries; we just log).
                    println!("  (a status notice was lost in the air)");
                }
            }
            let _ = phone.recv(now);
            if drone.sitl.position().distance_m(&target) < 2.0 {
                break;
            }
            assert!(
                now.as_secs_f64() < 600.0,
                "pattern leg should finish promptly"
            );
        }
        println!(
            "  leg to ({north:>5.1} N, {east:>5.1} E): reached in {:.1}s, first ack after {}",
            (now - sent_at).as_secs_f64(),
            ack_rtt
                .map(|d| format!("{:.0} ms", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "(lost)".into())
        );
    }

    // A command outside the whitelist is denied with a proper ack.
    phone.send(
        Message::CommandLong {
            command: androne::mavlink::MavCmd::ComponentArmDisarm,
            params: [0.0; 7],
        },
        now,
        &mut rng,
    );
    now += SimDuration::from_millis(400);
    for frame in vpn_endpoint.recv(now) {
        drone
            .proxy
            .client_send("vd-remote", frame.msg, &mut drone.sitl);
    }
    let denied = drone.proxy.client_recv("vd-remote").into_iter().any(|m| {
        matches!(
            m,
            Message::CommandAck {
                result: MavResult::Denied,
                ..
            }
        )
    });
    println!("\ndisarm attempt denied by the VFC whitelist: {denied}");
    assert!(denied);
    println!(
        "pattern complete; drone {:.1} m from the waypoint, sent {} packets, lost {}",
        drone.sitl.position().distance_m(&waypoint),
        phone.packets_sent() + vpn_endpoint.packets_sent(),
        phone.packets_lost() + vpn_endpoint.packets_lost()
    );
}
