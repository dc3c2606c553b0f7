//! Figure 13: Power consumption.
//!
//! Board power at rest across AnDrone configurations, normalized to
//! stock Android Things idling on its launcher, plus the fully
//! stressed case. Paper: every configuration within 3% of stock,
//! ~1.7 W idle with three virtual drones, 3.4 W stressed regardless
//! of configuration — all insignificant next to >100 W flight power.

use androne::energy::PowerModel;
use androne_bench::banner;

fn main() {
    banner(
        "Figure 13",
        "Power consumption at rest, normalized to stock",
    );
    let model = PowerModel::rpi3();
    let stock = model.power_w(0.0, 0);

    // Configurations as in Figure 12: extra running containers
    // beyond the single stock instance.
    let configs = [
        ("Base", 0usize, 1.0),
        ("Dev+Flight Con", 2, 1.005),
        ("1 VDrone", 3, 1.01),
        ("2 VDrone", 4, 1.015),
        ("3 VDrone", 5, 1.03),
    ];
    println!(
        "{:<16} {:>9} {:>12} {:>14}",
        "config", "watts", "normalized", "paper bound"
    );
    for (name, extra, paper_norm_max) in configs {
        let w = model.power_w(0.0, extra);
        let norm = w / stock;
        println!(
            "{:<16} {:>8.2}W {:>12.3} {:>13.2}x",
            name, w, norm, paper_norm_max
        );
        assert!(
            norm <= 1.03 + 1e-9,
            "{name}: all configurations within 3% of stock"
        );
    }

    // Absolute checks from the paper's text.
    let idle_3vd = model.power_w(0.0, 5);
    assert!(
        (1.65..1.75).contains(&idle_3vd),
        "idle with 3 virtual drones ~1.7W: {idle_3vd}"
    );
    let stressed_stock = model.power_w(1.0, 0);
    let stressed_androne = model.power_w(1.0, 5);
    println!(
        "\nfully stressed: stock {stressed_stock:.1}W, AnDrone(3VD) {stressed_androne:.1}W \
         (paper: 3.4W for both)"
    );
    assert_eq!(stressed_stock, 3.4);
    assert_eq!(stressed_androne, 3.4);

    // Compare against flight power.
    let hover_w = androne::energy::DorlingModel::f450_prototype().hover_power_w(0.0);
    println!(
        "SBC worst case {:.1}W vs hover power {:.0}W -> {:.1}% of flight draw",
        stressed_androne,
        hover_w,
        100.0 * stressed_androne / hover_w
    );
    assert!(stressed_androne / hover_w < 0.03);
    println!("shape checks passed: within 3% of stock; negligible next to flight power");
}
