//! Section 6.5: Network performance.
//!
//! ~150,000 MAVLink commands sent to the flight controller over the
//! cellular (LTE) link model, measuring command delivery latency, as
//! in the paper's 12-hour testbed run. Paper: average 70 ms, maximum
//! 356 ms, standard deviation 7.2 ms, 6 packets lost; hobby RF links
//! run 8–85 ms for comparison.

use androne::mavlink::{channel, FlightMode, MavCmd, Message};
use androne::simkern::{LinkModel, SimDuration, SimTime, Summary};
use androne_bench::{banner, scale};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn measure(link: LinkModel, n: u64, seed: u64) -> (Summary, u64) {
    let (mut ground, mut drone) = channel(link, 255, 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = SimTime::ZERO;
    let mut latency = Summary::new();
    for i in 0..n {
        let sent_at = t;
        let msg = if i.is_multiple_of(2) {
            Message::CommandLong {
                command: MavCmd::ConditionYaw,
                params: [((i % 360) as f32), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            }
        } else {
            Message::Heartbeat {
                mode: FlightMode::Guided,
                armed: true,
                system_status: 4,
            }
        };
        if let Some(delivered_at) = ground.send(msg, t, &mut rng) {
            latency.record((delivered_at - sent_at).as_secs_f64() * 1e3);
        }
        // The paper's run spaced ~150k commands over 12 hours.
        t += SimDuration::from_millis(288);
        let _ = drone.recv(t);
    }
    (latency, ground.packets_lost())
}

fn main() {
    banner("Section 6.5", "MAVLink command latency over cellular (ms)");
    let n = 150_000 / scale();
    println!("commands: {n}\n");

    let (lte, lost) = measure(LinkModel::cellular_lte(), n, 65);
    println!(
        "LTE      avg {:>6.1}  max {:>6.1}  stddev {:>5.2}  lost {:>3}   \
         (paper: avg 70, max 356, stddev 7.2, lost 6/150k)",
        lte.mean(),
        lte.max(),
        lte.stddev(),
        lost
    );

    let (rf, rf_lost) = measure(LinkModel::rf_remote(), n, 66);
    println!(
        "RF       avg {:>6.1}  max {:>6.1}  stddev {:>5.2}  lost {:>3}   \
         (paper: typical hobby RF 8-85 ms)",
        rf.mean(),
        rf.max(),
        rf.stddev(),
        rf_lost
    );

    // Shape checks against the paper's measurements.
    assert!((60.0..80.0).contains(&lte.mean()), "LTE avg {}", lte.mean());
    assert!(lte.max() <= 356.0, "LTE max {}", lte.max());
    assert!(
        (4.0..12.0).contains(&lte.stddev()),
        "LTE stddev {}",
        lte.stddev()
    );
    assert!(lost <= 20 / scale().min(10), "LTE lost {lost}");
    assert!(rf.mean() < lte.mean(), "RF beats LTE on average latency");
    assert!(rf.max() <= 85.0, "RF stays within its hobby band");
    println!(
        "\nshape checks passed: LTE latency is workable for drone control \
         (as Qualcomm's trials found), RF remains lower"
    );
}
