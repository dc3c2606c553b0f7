//! Network link models.
//!
//! AnDrone communicates with drones over cellular internet (Section
//! 6.5): the prototype tethers to a Nexus 5X on T-Mobile LTE. The
//! paper measures MAVLink command latency over ~150,000 commands in
//! 12 hours: average 70 ms, maximum 356 ms, standard deviation 7.2 ms,
//! with 6 packets lost. RF hobby links run 8–85 ms for comparison.
//!
//! [`LinkModel`] reproduces those distributions: a base propagation
//! delay, log-normal-ish jitter with a rare heavy tail (cell
//! handovers, scheduling stalls), and packet loss. Loss is either
//! independent per packet (`loss_prob`) or bursty via an optional
//! two-state Gilbert–Elliott chain ([`BurstLoss`]): the channel
//! alternates between a Good and a Bad state, each with its own loss
//! probability, so losses cluster the way cellular fades do.

use rand::Rng;

use crate::statehash::{StateHash, StateHasher};
use crate::time::SimDuration;

/// Parameters of a two-state Gilbert–Elliott burst-loss channel.
///
/// Each packet first advances the Good/Bad Markov chain, then is
/// lost with the state's loss probability. The stationary fraction
/// of time spent in the Bad state is
/// `p_good_to_bad / (p_good_to_bad + p_bad_to_good)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Per-packet probability of transitioning Good → Bad.
    pub p_good_to_bad: f64,
    /// Per-packet probability of transitioning Bad → Good.
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad state.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// A cellular fade: rare entry into a Bad state that drops most
    /// packets for a handful of consecutive sends.
    pub fn cellular_fade() -> BurstLoss {
        BurstLoss {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            loss_good: 0.001,
            loss_bad: 0.8,
        }
    }
}

/// Mutable per-channel state for the Gilbert–Elliott chain. Each
/// directional channel owns one so bursts on independent links don't
/// correlate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkState {
    /// Whether the chain is currently in the Bad (lossy) state.
    pub in_bad: bool,
}

impl StateHash for LinkState {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_bool(self.in_bad);
    }
}

/// A one-way network link's delay/loss model.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Base one-way delay in milliseconds.
    pub base_ms: f64,
    /// Mean of the common-case jitter (exponential), ms.
    pub jitter_mean_ms: f64,
    /// Probability a packet hits the heavy tail (handover etc.).
    pub tail_prob: f64,
    /// Mean extra delay in the tail, ms.
    pub tail_mean_ms: f64,
    /// Hard cap on total delay, ms.
    pub max_ms: f64,
    /// Independent packet loss probability (ignored when `burst` is
    /// set — the Gilbert–Elliott chain decides loss instead).
    pub loss_prob: f64,
    /// Optional burst-loss mode; `None` keeps independent loss.
    pub burst: Option<BurstLoss>,
}

impl LinkModel {
    /// A perfect link: zero delay, zero loss. Useful in tests.
    pub const IDEAL: LinkModel = LinkModel {
        base_ms: 0.0,
        jitter_mean_ms: 0.0,
        tail_prob: 0.0,
        tail_mean_ms: 0.0,
        max_ms: 0.0,
        loss_prob: 0.0,
        burst: None,
    };

    /// The LTE cellular link calibrated to Section 6.5's measurements
    /// (avg 70 ms, max 356 ms, stddev 7.2 ms, loss 6/150,000).
    pub fn cellular_lte() -> LinkModel {
        LinkModel {
            base_ms: 64.5,
            jitter_mean_ms: 5.3,
            tail_prob: 0.0018,
            tail_mean_ms: 45.0,
            max_ms: 356.0,
            loss_prob: 6.0 / 150_000.0,
            burst: None,
        }
    }

    /// A typical hobby-grade RF remote-control link (8–85 ms; we model
    /// the mid-range).
    pub fn rf_remote() -> LinkModel {
        LinkModel {
            base_ms: 8.0,
            jitter_mean_ms: 12.0,
            tail_prob: 0.01,
            tail_mean_ms: 25.0,
            max_ms: 85.0,
            loss_prob: 1e-4,
            burst: None,
        }
    }

    /// Samples the fate of one packet on a memoryless channel:
    /// `Some(delay)` if delivered, `None` if lost. Any `burst`
    /// parameters are ignored (there is no chain state to advance);
    /// use [`LinkModel::sample_with`] for burst-loss links.
    pub fn sample(&self, rng: &mut impl Rng) -> Option<SimDuration> {
        if self.loss_prob > 0.0 && rng.gen::<f64>() < self.loss_prob {
            return None;
        }
        self.sample_delay(rng)
    }

    /// Samples one packet, advancing the Gilbert–Elliott chain in
    /// `state` when `burst` is set. With `burst: None` this draws
    /// exactly like [`LinkModel::sample`], so uniform-loss callers
    /// can migrate without perturbing the RNG stream.
    pub fn sample_with(&self, state: &mut LinkState, rng: &mut impl Rng) -> Option<SimDuration> {
        let lost = match self.burst {
            None => self.loss_prob > 0.0 && rng.gen::<f64>() < self.loss_prob,
            Some(b) => {
                if state.in_bad {
                    if b.p_bad_to_good > 0.0 && rng.gen::<f64>() < b.p_bad_to_good {
                        state.in_bad = false;
                    }
                } else if b.p_good_to_bad > 0.0 && rng.gen::<f64>() < b.p_good_to_bad {
                    state.in_bad = true;
                }
                let p = if state.in_bad {
                    b.loss_bad
                } else {
                    b.loss_good
                };
                p > 0.0 && rng.gen::<f64>() < p
            }
        };
        if lost {
            return None;
        }
        self.sample_delay(rng)
    }

    /// The delivered-packet delay draw shared by both sampling modes.
    fn sample_delay(&self, rng: &mut impl Rng) -> Option<SimDuration> {
        let mut ms = self.base_ms;
        if self.jitter_mean_ms > 0.0 {
            let u: f64 = rng.gen::<f64>().max(1e-300);
            ms += -self.jitter_mean_ms * u.ln();
        }
        if self.tail_prob > 0.0 && rng.gen::<f64>() < self.tail_prob {
            let u: f64 = rng.gen::<f64>().max(1e-300);
            ms += -self.tail_mean_ms * u.ln();
        }
        Some(SimDuration::from_secs_f64((ms.min(self.max_ms)) / 1e3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use crate::stream_rng;

    /// The LTE link in a degraded cell: same delay distribution, but
    /// bursty Gilbert–Elliott loss instead of independent loss.
    fn cellular_lte_degraded() -> LinkModel {
        LinkModel {
            burst: Some(BurstLoss::cellular_fade()),
            ..LinkModel::cellular_lte()
        }
    }

    #[test]
    fn cellular_matches_section_65() {
        let link = LinkModel::cellular_lte();
        let mut rng = stream_rng(65);
        let mut s = Summary::new();
        let mut lost = 0u32;
        let n = 150_000;
        for _ in 0..n {
            match link.sample(&mut rng) {
                Some(d) => s.record(d.as_secs_f64() * 1e3),
                None => lost += 1,
            }
        }
        assert!((65.0..75.0).contains(&s.mean()), "avg {} ms", s.mean());
        assert!(s.max() <= 356.0, "max {} ms", s.max());
        assert!(s.max() > 150.0, "tail should be visible: {}", s.max());
        assert!((4.0..11.0).contains(&s.stddev()), "stddev {}", s.stddev());
        assert!(lost <= 20, "lost {lost}");
    }

    #[test]
    fn ideal_link_is_instant_and_lossless() {
        let mut rng = stream_rng(1);
        for _ in 0..1000 {
            assert_eq!(LinkModel::IDEAL.sample(&mut rng), Some(SimDuration::ZERO));
        }
    }

    #[test]
    fn burst_loss_matches_stationary_rate() {
        let link = cellular_lte_degraded();
        let burst = link.burst.expect("degraded link has burst params");
        // The long-run loss rate implied by the two-state chain.
        let pi_bad = burst.p_good_to_bad / (burst.p_good_to_bad + burst.p_bad_to_good);
        let expected = pi_bad * burst.loss_bad + (1.0 - pi_bad) * burst.loss_good;
        let mut rng = stream_rng(66);
        let mut state = LinkState::default();
        let mut lost = 0u32;
        let n = 200_000;
        for _ in 0..n {
            if link.sample_with(&mut state, &mut rng).is_none() {
                lost += 1;
            }
        }
        let measured = f64::from(lost) / f64::from(n);
        assert!(
            (measured - expected).abs() < 0.01,
            "measured {measured:.4}, stationary {expected:.4}"
        );
    }

    #[test]
    fn burst_losses_cluster() {
        // P(loss | previous packet lost) must exceed the marginal
        // loss rate — that is what makes the channel bursty.
        let link = cellular_lte_degraded();
        let mut rng = stream_rng(67);
        let mut state = LinkState::default();
        let (mut lost, mut lost_after_lost, mut prev_lost) = (0u32, 0u32, false);
        let n = 200_000;
        for _ in 0..n {
            let this_lost = link.sample_with(&mut state, &mut rng).is_none();
            if this_lost {
                lost += 1;
                if prev_lost {
                    lost_after_lost += 1;
                }
            }
            prev_lost = this_lost;
        }
        let marginal = f64::from(lost) / f64::from(n);
        let conditional = f64::from(lost_after_lost) / f64::from(lost);
        assert!(
            conditional > 3.0 * marginal,
            "conditional {conditional:.3} vs marginal {marginal:.3}"
        );
    }

    #[test]
    fn sample_with_without_burst_matches_sample() {
        let link = LinkModel::cellular_lte();
        let mut a = stream_rng(68);
        let mut b = stream_rng(68);
        let mut state = LinkState::default();
        for _ in 0..10_000 {
            assert_eq!(link.sample(&mut a), link.sample_with(&mut state, &mut b));
        }
        assert!(!state.in_bad);
    }

    #[test]
    fn rf_link_stays_within_hobby_band() {
        let link = LinkModel::rf_remote();
        let mut rng = stream_rng(2);
        for _ in 0..10_000 {
            if let Some(d) = link.sample(&mut rng) {
                let ms = d.as_secs_f64() * 1e3;
                assert!((8.0..=85.0).contains(&ms), "{ms} ms");
            }
        }
    }
}
