//! Deterministic-backoff retry.
//!
//! A retried call waits out a deterministic exponential backoff — no
//! jitter, no wall clock — so a retried run replays identically under
//! the dual-run sanitizer. The attempt budget is capped: when it runs
//! out the caller gets a typed [`RetryFailure`], never a panic. The
//! cloud façade retries storage writes with it.

use androne_simkern::SimDuration;

/// Retry policy with deterministic exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: SimDuration,
    /// Cap on any single backoff.
    pub max_delay: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: SimDuration::from_millis(5),
            max_delay: SimDuration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The backoff to wait before retry number `retry` (1-based):
    /// `base · 2^(retry-1)`, capped at `max_delay`. Pure function of
    /// the policy — identical on every run.
    pub fn backoff(&self, retry: u32) -> SimDuration {
        let factor = 1u64 << retry.saturating_sub(1).min(32);
        let nanos = self.base_delay.as_nanos().saturating_mul(factor);
        SimDuration::from_nanos(nanos.min(self.max_delay.as_nanos()))
    }
}

/// The typed failure of an exhausted or non-retryable call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryFailure<E> {
    /// Every attempt failed with a retryable error; `last` is the
    /// final one.
    Exhausted { attempts: u32, last: E },
    /// The call failed with an error retrying cannot fix, surfaced
    /// immediately.
    Fatal(E),
}

/// Runs `call` under `policy` for any error type. `retryable`
/// classifies errors worth another attempt; `call` receives the
/// 1-based attempt number; `on_backoff` is invoked with each backoff
/// delay before a retry — callers advance simulated time (or just
/// count) there. Fully deterministic: no jitter, no wall clock.
pub fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    retryable: impl Fn(&E) -> bool,
    mut call: impl FnMut(u32) -> Result<T, E>,
    on_backoff: &mut dyn FnMut(SimDuration),
) -> Result<T, RetryFailure<E>> {
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 1;
    loop {
        match call(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if retryable(&e) && attempt < attempts => {
                on_backoff(policy.backoff(attempt));
                attempt += 1;
            }
            Err(e) if retryable(&e) => return Err(RetryFailure::Exhausted { attempts, last: e }),
            Err(e) => return Err(RetryFailure::Fatal(e)),
        }
    }
}

/// A wave-granular backpressure signal. Admission-controlled services
/// (the cloud order queue) reject submissions with an error carrying
/// the earliest wave a retry can succeed at, so a client waits out
/// exactly that many waves instead of hammering the queue.
pub trait Backpressure {
    /// The earliest wave at which a retry can be admitted, or `None`
    /// when the error is not a backpressure rejection (give up).
    fn retry_wave(&self) -> Option<u64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_millis(5));
        assert_eq!(p.backoff(2), SimDuration::from_millis(10));
        assert_eq!(p.backoff(3), SimDuration::from_millis(20));
        assert_eq!(p.backoff(10), SimDuration::from_millis(100), "capped");
    }

    #[test]
    fn backoff_is_deterministic() {
        let p = RetryPolicy::default();
        for retry in 1..16 {
            assert_eq!(p.backoff(retry), p.backoff(retry));
        }
    }

    #[test]
    fn generic_retry_passes_attempt_numbers_and_classifies() {
        #[derive(Debug, PartialEq, Eq, Clone)]
        enum E {
            Transient,
            Hard,
        }
        let mut seen = Vec::new();
        let out = retry_with_backoff(
            &RetryPolicy::default(),
            |e| *e == E::Transient,
            |attempt| {
                seen.push(attempt);
                if attempt < 3 {
                    Err(E::Transient)
                } else {
                    Ok("done")
                }
            },
            &mut |_| {},
        );
        assert_eq!(out, Ok("done"));
        assert_eq!(seen, vec![1, 2, 3]);

        let out: Result<(), _> = retry_with_backoff(
            &RetryPolicy::default(),
            |e| *e == E::Transient,
            |_| Err(E::Hard),
            &mut |_| {},
        );
        assert_eq!(out, Err(RetryFailure::Fatal(E::Hard)));

        let out: Result<(), _> = retry_with_backoff(
            &RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            |e| *e == E::Transient,
            |_| Err(E::Transient),
            &mut |_| {},
        );
        assert_eq!(
            out,
            Err(RetryFailure::Exhausted {
                attempts: 2,
                last: E::Transient
            })
        );
    }
}
