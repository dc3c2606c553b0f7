//! The simulated kernel: configuration plus the subsystem ledgers.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;

use crate::cpu::{ResourceKind, ResourceSet};
use crate::latency::{profiles, InterferenceSource, LatencyModel, Preemption};
use crate::mem::MemoryLedger;
use crate::task::TaskTable;
use crate::time::{SimDuration, SimTime};

/// Kernel build configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Preemption model compiled into the kernel.
    pub preemption: Preemption,
}

impl KernelConfig {
    /// AnDrone's default configuration (PREEMPT_RT patches applied).
    pub const ANDRONE_DEFAULT: KernelConfig = KernelConfig {
        preemption: Preemption::PreemptRt,
    };

    /// The Navio2 vendor kernel configuration (CONFIG_PREEMPT only).
    pub const NAVIO2_DEFAULT: KernelConfig = KernelConfig {
        preemption: Preemption::Preempt,
    };

    /// Stock Android Things (no preemption support): the Figure 10
    /// normalization baseline.
    pub const STOCK: KernelConfig = KernelConfig {
        preemption: Preemption::None,
    };

    /// Multiplicative throughput penalty a benchmark instance pays on
    /// this kernel, as a function of the bottleneck resource and the
    /// number of simultaneously contending instances.
    ///
    /// Greater preemptibility is not free: PREEMPT_RT converts IRQ
    /// handlers and lock sections into schedulable entities, adding
    /// context switches that grow with the number of running tasks.
    /// Figure 10 shows the effect: with three virtual drones the
    /// PREEMPT_RT kernel trails the PREEMPT kernel on every resource,
    /// most visibly on memory (2.3x vs 1.8x) where lock and TLB
    /// shootdown traffic dominates. Coefficients are calibrated to
    /// those measurements.
    pub fn throughput_penalty(&self, kind: ResourceKind, contenders: usize) -> f64 {
        let extra = contenders.saturating_sub(1) as f64;
        match self.preemption {
            Preemption::None => 1.0,
            Preemption::Preempt => match kind {
                ResourceKind::Cpu => 1.0 + 0.003 * extra,
                ResourceKind::DiskBandwidth => 1.0 + 0.005 * extra,
                ResourceKind::MemoryBandwidth => 1.0 + 0.004 * extra,
                ResourceKind::NetworkBandwidth => 1.0 + 0.004 * extra,
            },
            Preemption::PreemptRt => match kind {
                ResourceKind::Cpu => 1.005 + 0.030 * extra,
                ResourceKind::DiskBandwidth => 1.005 + 0.050 * extra,
                ResourceKind::MemoryBandwidth => 1.005 + 0.139 * extra,
                ResourceKind::NetworkBandwidth => 1.005 + 0.030 * extra,
            },
        }
    }
}

/// A kernel handle shared across simulated subsystems (the container
/// runtime, the Binder driver, the workload models all account
/// against the same board).
///
/// Single-threaded by design: a board and everything simulated on it
/// lives inside one flight island (`core::pool` moves whole flights,
/// never kernels, across threads), so the handle is `Rc<RefCell<..>>`
/// rather than a lock — dronelint R9 bans lock acquisition on
/// island-reachable paths precisely so this stays true.
pub type SharedKernel = Rc<RefCell<Kernel>>;

/// The simulated kernel instance for one board.
pub struct Kernel {
    config: KernelConfig,
    /// Task table (processes/threads).
    pub tasks: TaskTable,
    /// Physical memory ledger.
    pub mem: MemoryLedger,
    /// Contended hardware resources.
    pub resources: ResourceSet,
    latency: LatencyModel,
    rng: SmallRng,
    now: SimTime,
}

impl Kernel {
    /// Boots a kernel on Raspberry Pi 3-class hardware.
    pub fn boot(config: KernelConfig, seed: u64) -> Self {
        let latency = LatencyModel::new(config.preemption, vec![profiles::idle_housekeeping()]);
        Kernel {
            config,
            tasks: TaskTable::new(),
            mem: MemoryLedger::rpi3(),
            resources: ResourceSet::rpi3(),
            latency,
            rng: crate::rng::stream_rng(seed),
            now: SimTime::ZERO,
        }
    }

    /// Boots a kernel and wraps it in a shared handle.
    pub fn boot_shared(config: KernelConfig, seed: u64) -> SharedKernel {
        Rc::new(RefCell::new(Self::boot(config, seed)))
    }

    /// The kernel's build configuration.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the simulated clock.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Registers an interference source (a workload starting).
    pub fn add_interference(&mut self, source: InterferenceSource) {
        self.latency.add_source(source);
    }

    /// Removes every interference source with `name` (a throttled or
    /// ended workload). Returns whether anything was removed.
    pub fn remove_interference(&mut self, name: &str) -> bool {
        self.latency.remove_source(name)
    }

    /// Samples one real-time wakeup latency for the highest-priority
    /// FIFO task under the current interference load.
    pub fn sample_rt_latency(&mut self) -> SimDuration {
        self.latency.sample(&mut self.rng)
    }

    /// Borrows the latency model without touching the kernel RNG.
    ///
    /// Monitors that sample the model at high rates (the RT-deadline
    /// probe samples one 400 Hz period per tick) must bring their own
    /// dedicated stream ([`crate::rng::rt_monitor_stream_rng`]) so
    /// their draws stay invisible to the kernel stream the pinned
    /// chaos baselines fingerprint.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Borrows the deterministic RNG (for subsystems that need
    /// randomness tied to the kernel's seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

impl crate::statehash::StateHash for Kernel {
    fn state_hash(&self, h: &mut crate::statehash::StateHasher) {
        // The RNG's internal counter is not observable, but every
        // draw it makes lands in hashed state (sensor noise reaches
        // the estimator, latency samples reach histograms), so a
        // skewed draw sequence still surfaces as a divergence.
        h.write_u8(match self.config.preemption {
            Preemption::None => 0,
            Preemption::Preempt => 1,
            Preemption::PreemptRt => 2,
        });
        crate::statehash::StateHash::state_hash(&self.now, h);
        crate::statehash::StateHash::state_hash(&self.tasks, h);
        crate::statehash::StateHash::state_hash(&self.mem, h);
        crate::statehash::StateHash::state_hash(&self.resources, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ContainerId, Euid, SchedPolicy};

    #[test]
    fn boot_produces_idle_system() {
        let k = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 1);
        assert_eq!(k.tasks.len(), 0);
        assert_eq!(k.mem.used(), 0);
        assert_eq!(k.resources.cpu_utilization(), 0.0);
    }

    #[test]
    fn stock_kernel_has_no_penalty() {
        let c = KernelConfig::STOCK;
        for kind in ResourceKind::ALL {
            assert_eq!(c.throughput_penalty(kind, 3), 1.0);
        }
    }

    #[test]
    fn rt_memory_penalty_matches_figure_10_ratio() {
        // Figure 10: at 3 contenders, memory overhead is 1.8x on
        // PREEMPT vs 2.3x on PREEMPT_RT, a ratio of ~1.28.
        let preempt =
            KernelConfig::NAVIO2_DEFAULT.throughput_penalty(ResourceKind::MemoryBandwidth, 3);
        let rt = KernelConfig::ANDRONE_DEFAULT.throughput_penalty(ResourceKind::MemoryBandwidth, 3);
        let ratio = rt / preempt;
        assert!((1.2..1.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn penalty_grows_with_contenders() {
        let c = KernelConfig::ANDRONE_DEFAULT;
        let p1 = c.throughput_penalty(ResourceKind::Cpu, 1);
        let p3 = c.throughput_penalty(ResourceKind::Cpu, 3);
        assert!(p3 > p1);
        assert!(p1 < 1.02, "single instance overhead stays small: {p1}");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut k = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 2);
        let t0 = k.now();
        k.advance(SimDuration::from_millis(5));
        assert_eq!((k.now() - t0).as_millis(), 5);
    }

    #[test]
    fn tasks_spawn_under_kernel() {
        let mut k = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 3);
        let pid = k
            .tasks
            .spawn("ardupilot", Euid(0), ContainerId(2), SchedPolicy::MAX_RT)
            .unwrap();
        assert!(k.tasks.get(pid).unwrap().policy.is_realtime());
    }

    #[test]
    fn latency_sampling_uses_kernel_seed() {
        let mut a = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 7);
        let mut b = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 7);
        for _ in 0..100 {
            assert_eq!(a.sample_rt_latency(), b.sample_rt_latency());
        }
    }
}
