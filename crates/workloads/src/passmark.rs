//! The PassMark PerformanceTest model.
//!
//! Figure 10 of the paper runs PassMark's multi-threaded CPU, disk,
//! and memory tests inside one to three virtual drones
//! simultaneously, normalized to a single instance on stock Android
//! Things (2D/3D graphics tests are skipped: Android Things has no
//! GPU acceleration). This model reproduces the benchmark's resource
//! behaviour:
//!
//! - the CPU test saturates all four cores on its own (demand 4.0),
//!   so N instances slow down ~N×;
//! - a single disk test drives the microSD card at ~67% of its
//!   bandwidth, so contention only bites past one instance and three
//!   instances land at ~2× (the paper's number);
//! - a single memory test drives DRAM at ~60% of peak, landing three
//!   instances at ~1.8×;
//! - running under a container adds ~1.2% overhead; the PREEMPT_RT
//!   kernel adds contention-dependent penalties (see
//!   [`KernelConfig::throughput_penalty`]).

use androne_simkern::{ClientId, Kernel, KernelConfig, ResourceKind};

/// Single-instance standalone demand per resource (fraction of the
/// bottleneck; CPU in cores).
pub const CPU_DEMAND: f64 = 4.0;
/// Disk-bandwidth demand of one instance.
pub const DISK_DEMAND: f64 = 0.67;
/// Memory-bandwidth demand of one instance.
pub const MEM_DEMAND: f64 = 0.60;

/// Multiplicative overhead of running inside a virtual drone
/// container (Docker + Binder indirection), calibrated to the
/// paper's "at most 1.5%" single-instance result.
pub const CONTAINER_OVERHEAD: f64 = 1.012;

/// Scores from one PassMark run. Scores are normalized rates: 1.0 is
/// a single stock instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassmarkScores {
    /// CPU test score.
    pub cpu: f64,
    /// Disk test score.
    pub disk: f64,
    /// Memory test score.
    pub memory: f64,
}

impl PassmarkScores {
    /// Normalized *overhead* relative to a baseline (lower is
    /// better; this is what Figure 10 plots).
    pub fn overhead_vs(&self, baseline: &PassmarkScores) -> PassmarkScores {
        PassmarkScores {
            cpu: baseline.cpu / self.cpu,
            disk: baseline.disk / self.disk,
            memory: baseline.memory / self.memory,
        }
    }
}

/// Runs `instances` simultaneous PassMark instances on `kernel`,
/// returning per-instance scores.
///
/// `in_container` selects whether instances run inside virtual drone
/// containers (AnDrone) or natively (the stock baseline).
pub fn run_concurrent(
    kernel: &mut Kernel,
    instances: usize,
    in_container: bool,
) -> Vec<PassmarkScores> {
    assert!(instances >= 1, "need at least one instance");
    let config = kernel.config();
    let mut out = Vec::with_capacity(instances);
    for kind in [
        ResourceKind::Cpu,
        ResourceKind::DiskBandwidth,
        ResourceKind::MemoryBandwidth,
    ] {
        let demand = match kind {
            ResourceKind::Cpu => CPU_DEMAND,
            ResourceKind::DiskBandwidth => DISK_DEMAND,
            _ => MEM_DEMAND,
        };
        let resource = kernel.resources.get_mut(kind);
        for i in 0..instances {
            resource.register(format!("passmark-{i}"), demand);
        }
    }
    for i in 0..instances {
        let id: ClientId = format!("passmark-{i}").into();
        let score = |kind: ResourceKind| -> f64 {
            let slowdown = kernel.resources.get(kind).slowdown_for(&id);
            let penalty = kernel_penalty(config, kind, instances);
            let container = if in_container {
                CONTAINER_OVERHEAD
            } else {
                1.0
            };
            1.0 / (slowdown * penalty * container)
        };
        out.push(PassmarkScores {
            cpu: score(ResourceKind::Cpu),
            disk: score(ResourceKind::DiskBandwidth),
            memory: score(ResourceKind::MemoryBandwidth),
        });
    }
    // Benchmark finished: release the demands.
    for kind in [
        ResourceKind::Cpu,
        ResourceKind::DiskBandwidth,
        ResourceKind::MemoryBandwidth,
    ] {
        let resource = kernel.resources.get_mut(kind);
        for i in 0..instances {
            resource.unregister(&format!("passmark-{i}").into());
        }
    }
    out
}

fn kernel_penalty(config: KernelConfig, kind: ResourceKind, contenders: usize) -> f64 {
    config.throughput_penalty(kind, contenders)
}

/// The stock baseline: one native instance on the stock kernel.
pub fn stock_baseline() -> PassmarkScores {
    let mut kernel = Kernel::boot(KernelConfig::STOCK, 0);
    run_concurrent(&mut kernel, 1, false)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overheads(config: KernelConfig, instances: usize) -> PassmarkScores {
        let baseline = stock_baseline();
        let mut kernel = Kernel::boot(config, 1);
        let scores = run_concurrent(&mut kernel, instances, true);
        scores[0].overhead_vs(&baseline)
    }

    #[test]
    fn single_vdrone_overhead_is_under_1_5_percent() {
        // Paper: "with a single virtual drone running, CPU, disk, and
        // memory performance remained relatively constant with at
        // most 1.5% overhead".
        for config in [KernelConfig::NAVIO2_DEFAULT, KernelConfig::ANDRONE_DEFAULT] {
            let o = overheads(config, 1);
            assert!(o.cpu <= 1.02, "cpu {}", o.cpu);
            assert!(o.disk <= 1.02, "disk {}", o.disk);
            assert!(o.memory <= 1.02, "memory {}", o.memory);
            assert!(o.cpu > 1.0, "virtualization is not free");
        }
    }

    #[test]
    fn cpu_scales_linearly_with_instances() {
        let o2 = overheads(KernelConfig::NAVIO2_DEFAULT, 2);
        let o3 = overheads(KernelConfig::NAVIO2_DEFAULT, 3);
        assert!(
            (o2.cpu / 2.0 - 1.0).abs() < 0.05,
            "2 instances ~2x: {}",
            o2.cpu
        );
        assert!(
            (o3.cpu / 3.0 - 1.0).abs() < 0.05,
            "3 instances ~3x: {}",
            o3.cpu
        );
    }

    #[test]
    fn disk_and_memory_match_figure_10_at_three_instances() {
        // Paper: disk ~2x / 2.2x (PREEMPT / PREEMPT_RT), memory
        // ~1.8x / 2.3x.
        let p = overheads(KernelConfig::NAVIO2_DEFAULT, 3);
        let rt = overheads(KernelConfig::ANDRONE_DEFAULT, 3);
        assert!((p.disk - 2.0).abs() < 0.15, "PREEMPT disk {}", p.disk);
        assert!((rt.disk - 2.2).abs() < 0.15, "RT disk {}", rt.disk);
        assert!((p.memory - 1.8).abs() < 0.15, "PREEMPT mem {}", p.memory);
        assert!((rt.memory - 2.3).abs() < 0.15, "RT mem {}", rt.memory);
    }

    #[test]
    fn rt_kernel_is_somewhat_worse_at_three_instances() {
        let p = overheads(KernelConfig::NAVIO2_DEFAULT, 3);
        let rt = overheads(KernelConfig::ANDRONE_DEFAULT, 3);
        assert!(rt.cpu > p.cpu, "RT trails PREEMPT on CPU");
        assert!(rt.memory > p.memory);
    }

    #[test]
    fn benchmark_releases_its_demands() {
        let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 1);
        run_concurrent(&mut kernel, 3, true);
        assert_eq!(kernel.resources.cpu_utilization(), 0.0);
    }
}
