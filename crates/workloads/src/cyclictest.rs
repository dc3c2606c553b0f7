//! The cyclictest latency benchmark.
//!
//! Configured exactly as the paper runs it (Section 6.2): memory
//! locked, highest SCHED_FIFO priority, a timer thread whose wakeup
//! latency is measured on every loop; 100 million loops in the
//! full-fidelity run "to provide sufficient samples to have a high
//! confidence in encountering worst case latencies".

use androne_simkern::{ContainerId, Euid, Kernel, LogHistogram, SchedPolicy, SimDuration, Summary};

/// Result of a cyclictest run.
#[derive(Debug, Clone)]
pub struct CyclictestResult {
    /// Streaming summary of latencies in microseconds.
    pub summary: Summary,
    /// Log-bucketed histogram (for Figure 11's log-log plot).
    pub histogram: LogHistogram,
    /// Number of samples exceeding ArduPilot's 2500 µs fast-loop
    /// budget.
    pub deadline_misses: u64,
}

impl CyclictestResult {
    /// Average latency, µs.
    pub fn avg_us(&self) -> f64 {
        self.summary.mean()
    }

    /// Maximum latency, µs.
    pub fn max_us(&self) -> f64 {
        self.summary.max()
    }
}

/// ArduPilot's fast loop period at 400 Hz, µs.
pub const ARDUPILOT_DEADLINE_US: f64 = 2_500.0;

/// Runs cyclictest for `loops` iterations in `container` on the
/// given kernel. Interference sources must already be registered on
/// the kernel (via [`Kernel::add_interference`]).
pub fn run(kernel: &mut Kernel, container: ContainerId, loops: u64) -> CyclictestResult {
    // Cyclictest runs as the flight controller does: locked memory,
    // top FIFO priority. A full task table degrades to sampling
    // without the pinned task rather than aborting the benchmark.
    let pid = kernel
        .tasks
        .spawn("cyclictest", Euid(0), container, SchedPolicy::MAX_RT)
        .ok();
    if let Some(pid) = pid {
        if let Some(task) = kernel.tasks.get_mut(pid) {
            task.mlocked = true;
        }
    }

    let mut summary = Summary::new();
    let mut histogram = LogHistogram::new(1.0, 100_000.0, 10);
    let mut deadline_misses = 0;
    for _ in 0..loops {
        let us = kernel.sample_rt_latency().as_micros_f64();
        summary.record(us);
        histogram.record(us);
        if us > ARDUPILOT_DEADLINE_US {
            deadline_misses += 1;
        }
    }
    if let Some(pid) = pid {
        let _ = kernel.tasks.kill(pid);
        kernel.tasks.reap();
    }

    // Account the simulated wall time of the run (1 ms interval per
    // loop, cyclictest's default -i 1000).
    kernel.advance(SimDuration::from_micros(1_000) * loops);

    CyclictestResult {
        summary,
        histogram,
        deadline_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne_simkern::latency::profiles;
    use androne_simkern::KernelConfig;

    const LOOPS: u64 = 300_000;

    fn run_with(
        config: KernelConfig,
        load: Option<fn() -> androne_simkern::InterferenceSource>,
    ) -> CyclictestResult {
        let mut kernel = Kernel::boot(config, 11);
        if let Some(load) = load {
            kernel.add_interference(load());
        }
        run(&mut kernel, ContainerId(2), LOOPS)
    }

    #[test]
    fn rt_idle_matches_paper_band() {
        // Paper: PREEMPT_RT idle avg 10 µs, max 103 µs.
        let r = run_with(KernelConfig::ANDRONE_DEFAULT, None);
        assert!((7.0..14.0).contains(&r.avg_us()), "avg {}", r.avg_us());
        assert!(r.max_us() < 120.0, "max {}", r.max_us());
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    fn preempt_stress_shows_millisecond_tail() {
        // Paper: PREEMPT stress avg 162 µs, max 17,819 µs.
        let r = run_with(KernelConfig::NAVIO2_DEFAULT, Some(profiles::stress_load));
        assert!(r.avg_us() > 100.0, "avg {}", r.avg_us());
        assert!(r.max_us() > 5_000.0, "max {}", r.max_us());
        assert!(r.deadline_misses > 0, "PREEMPT misses the fast loop");
    }

    #[test]
    fn rt_stress_meets_ardupilot_deadline() {
        let r = run_with(KernelConfig::ANDRONE_DEFAULT, Some(profiles::stress_load));
        assert!(r.max_us() < ARDUPILOT_DEADLINE_US, "max {}", r.max_us());
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let r = run_with(KernelConfig::NAVIO2_DEFAULT, Some(profiles::passmark_load));
        assert_eq!(r.histogram.total(), LOOPS);
    }

    #[test]
    fn run_advances_simulated_time_and_cleans_up() {
        let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 1);
        let t0 = kernel.now();
        run(&mut kernel, ContainerId(2), 1_000);
        assert_eq!((kernel.now() - t0).as_millis(), 1_000);
        assert_eq!(kernel.tasks.len(), 0, "cyclictest task reaped");
    }
}
