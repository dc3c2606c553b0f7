//! Ablation A5: virtual drone migration — the paper's activity-
//! lifecycle approach vs CRIU-style checkpoint/restore.
//!
//! The paper chooses the Android activity lifecycle for saving and
//! resuming virtual drones (Section 4.4) and notes checkpointing is
//! "likely feasible". This ablation quantifies the trade: storage and
//! cellular-transfer bytes (the lifecycle archive ships only the
//! image diff; the checkpoint ships the entire filesystem) against
//! app cooperation (the lifecycle path needs apps to implement
//! `onSaveInstanceState()`; the checkpoint needs nothing).

use androne::container::{ContainerKind, ContainerRuntime, Layer, ResourceLimits};
use androne::simkern::{Kernel, KernelConfig, MIB};
use androne_bench::banner;

fn main() {
    banner(
        "Ablation A5",
        "Migration: activity lifecycle (paper) vs checkpoint/restore",
    );
    // A realistically sized Android Things base image (the real one
    // is hundreds of MB; 64 MB keeps the bench snappy and the ratio
    // honest in shape).
    let kernel = Kernel::boot_shared(KernelConfig::ANDRONE_DEFAULT, 55);
    let mut rt = ContainerRuntime::new(kernel.clone()).expect("runtime");
    let mut base_layer = Layer::new();
    base_layer.write(
        "/system/framework/framework.jar",
        vec![0x5Au8; 48 * MIB as usize],
    );
    base_layer.write(
        "/system/lib/libandroid_runtime.so",
        vec![0x5Bu8; 16 * MIB as usize],
    );
    let base_id = rt.images_mut().put_layer(base_layer);
    rt.images_mut()
        .tag("android-things", vec![base_id])
        .unwrap();
    rt.create(
        "vd1",
        ContainerKind::VirtualDrone,
        "android-things",
        ResourceLimits::UNLIMITED,
    )
    .unwrap();
    rt.start("vd1").unwrap();

    // The virtual drone accumulates some mission state: a modest app
    // save bundle plus captured media.
    let media = vec![0xABu8; 4 * MIB as usize];
    rt.get_mut("vd1")
        .unwrap()
        .fs
        .write("/data/media/video0.mp4", media);
    rt.get_mut("vd1")
        .unwrap()
        .fs
        .write("/data/system/androne_saved_state", "survey\tnext-wp\t2\n");

    // Checkpoint path (while running).
    let checkpoint = {
        let k = kernel.borrow();
        rt.checkpoint("vd1", &k).unwrap()
    };
    // Lifecycle path: the archive ships only the diff; the base
    // image is already present on every AnDrone drone.
    let archive = rt.export("vd1").unwrap();

    let archive_mb = archive.stored_bytes() as f64 / MIB as f64;
    let checkpoint_mb = checkpoint.stored_bytes() as f64 / MIB as f64;
    println!(
        "{:<28} {:>12} {:>18}",
        "path", "bytes to VDR", "app cooperation"
    );
    println!(
        "{:<28} {:>9.2} MB {:>18}",
        "activity lifecycle (paper)", archive_mb, "required"
    );
    println!(
        "{:<28} {:>9.2} MB {:>18}",
        "checkpoint/restore", checkpoint_mb, "none"
    );
    println!(
        "\ncheckpoint ships {:.1}x the bytes over the drone's cellular uplink",
        checkpoint.stored_bytes() as f64 / archive.stored_bytes() as f64
    );
    assert!(checkpoint.stored_bytes() > archive.stored_bytes());

    // Both restore correctly; the checkpoint even restores an app
    // that never saved state.
    let kernel2 = Kernel::boot_shared(KernelConfig::ANDRONE_DEFAULT, 56);
    let mut rt2 = ContainerRuntime::new(kernel2).expect("runtime");
    rt2.restore(&checkpoint, ResourceLimits::UNLIMITED).unwrap();
    assert!(rt2
        .get("vd1")
        .unwrap()
        .fs
        .read("/data/media/video0.mp4")
        .is_some());
    println!(
        "conclusion: the lifecycle path the paper chose is the cheap one for\n\
         well-behaved AnDrone apps; checkpointing buys app-independence at a\n\
         {:.0}x transfer cost.",
        checkpoint.stored_bytes() as f64 / archive.stored_bytes() as f64
    );
}
