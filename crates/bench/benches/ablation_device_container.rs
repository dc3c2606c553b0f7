//! Ablation A1: Device container vs per-device namespaces (Cells).
//!
//! Cells multiplexes Android instances with *device namespaces*:
//! every device needs kernel-driver modifications with contextual
//! knowledge of how the device works, and opaque userspace-driven
//! peripherals (SPI/I2C) are hard to support at all. AnDrone's
//! device container moves multiplexing up to the Android service
//! level and needs *no per-device kernel support* — one namespace
//! mechanism for the Binder Context Manager covers everything.
//!
//! This ablation quantifies the engineering delta on our device
//! inventory and measures the runtime price: the extra Binder hop a
//! service-level operation pays.

use androne::binder::transaction_cost;
use androne::hal::DeviceKind;
use androne_bench::banner;

/// Would a Cells-style device namespace need bespoke kernel-driver
/// support for this device, and is the device's context even visible
/// to the kernel? (The Navio2's sensors hang off SPI/I2C with
/// userspace drivers: the kernel only sees raw bus reads/writes.)
fn cells_support(device: DeviceKind) -> (&'static str, bool) {
    match device {
        DeviceKind::Framebuffer => ("virtual per container (both designs)", false),
        DeviceKind::Camera => ("kernel driver namespace mods", true),
        DeviceKind::Microphone | DeviceKind::Speaker => ("ALSA driver namespace mods", true),
        DeviceKind::Gps
        | DeviceKind::Imu
        | DeviceKind::Barometer
        | DeviceKind::Magnetometer
        | DeviceKind::Motors
        | DeviceKind::Battery
        | DeviceKind::Gimbal => (
            "opaque SPI/I2C userspace device: context invisible to kernel",
            true,
        ),
    }
}

fn main() {
    banner(
        "Ablation A1",
        "Device container vs per-device namespaces (Cells)",
    );
    println!(
        "{:<14} {:<58} {:<10}",
        "device", "Cells (per-device namespace) requirement", "AnDrone"
    );
    let mut cells_mods = 0;
    for device in DeviceKind::ALL {
        let (requirement, needs_mod) = cells_support(device);
        if needs_mod {
            cells_mods += 1;
        }
        println!("{:<14} {:<58} none", device.to_string(), requirement);
    }
    println!(
        "\nper-device kernel modifications: Cells-style = {cells_mods}, \
         AnDrone device container = 0"
    );
    println!(
        "AnDrone kernel changes are device-independent: device namespaces for the\n\
         Context Manager + 2 ioctls (PUBLISH_TO_ALL_NS, PUBLISH_TO_DEV_CON) + the\n\
         container id in transaction data."
    );

    // Runtime price: the service-level indirection costs one extra
    // Binder transaction per device operation vs in-process access.
    let hop = transaction_cost(256);
    println!(
        "\nruntime price of service-level multiplexing: +{} us per device op",
        hop.as_micros()
    );
    // Against, say, a 30 fps camera: one transaction per frame.
    let per_frame_budget_us = 1_000_000.0 / 30.0;
    println!(
        "at 30 fps camera streaming that is {:.2}% of the frame budget",
        100.0 * hop.as_micros_f64() / per_frame_budget_us
    );
    assert!(hop.as_micros_f64() / per_frame_budget_us < 0.01);
    assert_eq!(
        DeviceKind::ALL
            .iter()
            .filter(|d| !d.trivially_virtualizable())
            .count(),
        cells_mods,
        "every non-trivial device would need Cells-side work"
    );
    println!(
        "conclusion: the device container trades ~{} us per operation for zero\n\
         per-device kernel engineering — the paper's core design argument.",
        hop.as_micros()
    );
}
