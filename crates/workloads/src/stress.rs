//! The `stress` workload generator and iperf.
//!
//! The paper's worst-case latency scenario runs `stress` with four
//! CPU workers, two I/O workers, two memory workers, and two disk
//! workers, plus iperf over Gigabit Ethernet, all natively on the
//! host (Section 6.2). Starting a workload registers both its
//! resource demands (for throughput contention) and its scheduling
//! interference (for latency).

use androne_simkern::latency::profiles;
use androne_simkern::{ClientId, Kernel, ResourceKind};

/// `stress` configuration (worker counts).
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// CPU spinner workers.
    pub cpu_workers: u32,
    /// `sync()` I/O workers.
    pub io_workers: u32,
    /// Memory (malloc/touch) workers.
    pub vm_workers: u32,
    /// Disk write workers.
    pub hdd_workers: u32,
}

impl StressConfig {
    /// The paper's configuration: `stress -c 4 -i 2 -m 2 -d 2`.
    pub fn paper() -> Self {
        StressConfig {
            cpu_workers: 4,
            io_workers: 2,
            vm_workers: 2,
            hdd_workers: 2,
        }
    }
}

/// A running stress workload; dropping it does NOT stop it (call
/// [`StressHandle::stop`]), mirroring that `stress` keeps running
/// until killed.
pub struct StressHandle {
    id: ClientId,
}

/// Starts `stress` (plus iperf interference) on the kernel.
pub fn start_stress(kernel: &mut Kernel, config: StressConfig) -> StressHandle {
    let id: ClientId = "stress".into();
    kernel
        .resources
        .get_mut(ResourceKind::Cpu)
        .register(id.clone(), config.cpu_workers as f64);
    kernel
        .resources
        .get_mut(ResourceKind::DiskBandwidth)
        .register(
            id.clone(),
            0.4 * (config.hdd_workers + config.io_workers) as f64,
        );
    kernel
        .resources
        .get_mut(ResourceKind::MemoryBandwidth)
        .register(id.clone(), 0.35 * config.vm_workers as f64);
    kernel.add_interference(profiles::stress_load());
    StressHandle { id }
}

impl StressHandle {
    /// Stops the workload, releasing its resource demands. (The
    /// latency interference source remains registered on the kernel;
    /// boot a fresh kernel for a clean-room run, as the benchmarks
    /// do.)
    pub fn stop(self, kernel: &mut Kernel) {
        kernel.resources.unregister_everywhere(&self.id);
    }
}

/// iperf network throughput test model.
#[derive(Debug, Clone, Copy)]
pub struct Iperf {
    /// Peak link throughput, Mbit/s (Gigabit Ethernet minus
    /// protocol overhead on the RPi3's USB-attached NIC: ~300).
    pub peak_mbps: f64,
}

impl Default for Iperf {
    fn default() -> Self {
        // The RPi3's Ethernet hangs off USB 2.0: peak throughput
        // lands well under line rate; measured boards do ~94-230.
        Iperf { peak_mbps: 230.0 }
    }
}

impl Iperf {
    /// Starts iperf: registers network demand + IRQ interference,
    /// returning the achieved throughput under current contention.
    pub fn run(&self, kernel: &mut Kernel, client: &str) -> f64 {
        let id: ClientId = client.into();
        kernel
            .resources
            .get_mut(ResourceKind::NetworkBandwidth)
            .register(id.clone(), 1.0);
        kernel.add_interference(profiles::iperf_load());
        let slowdown = kernel
            .resources
            .get(ResourceKind::NetworkBandwidth)
            .slowdown_for(&id);
        self.peak_mbps / slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_simkern::KernelConfig;

    #[test]
    fn stress_occupies_the_cpu() {
        let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 1);
        let h = start_stress(&mut kernel, StressConfig::paper());
        assert_eq!(kernel.resources.cpu_utilization(), 1.0);
        h.stop(&mut kernel);
        assert_eq!(kernel.resources.cpu_utilization(), 0.0);
    }

    #[test]
    fn stress_raises_rt_latency_tail() {
        let mut quiet = Kernel::boot(KernelConfig::NAVIO2_DEFAULT, 5);
        let mut stressed = Kernel::boot(KernelConfig::NAVIO2_DEFAULT, 5);
        start_stress(&mut stressed, StressConfig::paper());
        let mut max_q = 0.0f64;
        let mut max_s = 0.0f64;
        for _ in 0..100_000 {
            max_q = max_q.max(quiet.sample_rt_latency().as_micros_f64());
            max_s = max_s.max(stressed.sample_rt_latency().as_micros_f64());
        }
        assert!(max_s > max_q * 2.0, "stress tail {max_s} vs idle {max_q}");
    }

    #[test]
    fn iperf_throughput_halves_under_two_streams() {
        let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 1);
        let iperf = Iperf::default();
        let t1 = iperf.run(&mut kernel, "iperf-1");
        assert!((t1 - 230.0).abs() < 1.0);
        let t2 = iperf.run(&mut kernel, "iperf-2");
        assert!((t2 - 115.0).abs() < 2.0, "two streams share: {t2}");
    }
}
