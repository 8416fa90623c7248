//! Retry with exponential backoff and deterministic, seedable jitter.

use std::time::Duration;

/// How to retry a transient failure.
///
/// Backoff for attempt `k` (1-based) is `base_delay × multiplier^(k-1)`,
/// capped at `max_delay`, then jittered by up to `jitter` of itself using
/// a splitmix64 stream seeded from `seed` — so two runs with the same seed
/// sleep the same schedule, and a fleet of clients with different seeds
/// decorrelates.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_delay: Duration,
    /// Upper bound any single backoff is clamped to.
    pub max_delay: Duration,
    /// Exponential growth factor between attempts.
    pub multiplier: f64,
    /// Fraction of each backoff randomized away (0.0 = none, 0.5 = up to
    /// half). Jitter only ever *shortens* the sleep, so `max_delay` holds.
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `max_attempts` tries, 10 ms base backoff doubling to
    /// at most 500 ms, and 30% jitter.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            multiplier: 2.0,
            jitter: 0.3,
            seed: 0,
        }
    }

    /// A policy that retries immediately — for tests and the fault matrix,
    /// where real sleeps only slow the suite down.
    pub fn immediate(max_attempts: u32) -> Self {
        RetryPolicy {
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            ..Self::new(max_attempts)
        }
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the base backoff.
    pub fn with_base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// The backoff to sleep before attempt `attempt` (1-based; attempt 1
    /// never sleeps). Pure function of the policy — no clock, no RNG
    /// state, so schedules are reproducible and testable.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt <= 1 || self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.multiplier.powi(attempt as i32 - 2);
        let raw = self.base_delay.as_secs_f64() * exp;
        let capped = raw.min(self.max_delay.as_secs_f64());
        // splitmix64 over (seed, attempt): deterministic per-attempt jitter.
        let r = splitmix64(self.seed.wrapping_add(attempt as u64)) as f64 / u64::MAX as f64;
        let jittered = capped * (1.0 - self.jitter * r);
        Duration::from_secs_f64(jittered.max(0.0))
    }

    /// Runs `op` under the policy, retrying failures `is_transient`
    /// accepts. The operation receives its 1-based attempt number.
    ///
    /// Every retry increments the `resilience.retries` telemetry counter.
    pub fn run<T, E>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, E>,
        is_transient: impl Fn(&E) -> bool,
    ) -> Result<T, RetryError<E>> {
        // `max_attempts` is clamped at construction, but it is also a pub
        // field: re-clamp so a hand-built policy with 0 still makes one
        // attempt.
        let max_attempts = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if !is_transient(&e) => return Err(RetryError::Permanent(e)),
                Err(last) if attempt == max_attempts => {
                    return Err(RetryError::Exhausted {
                        attempts: attempt,
                        last,
                    })
                }
                Err(_) => {}
            }
            attempt += 1;
            std::thread::sleep(self.backoff(attempt));
            np_telemetry::counter!("resilience.retries").inc();
        }
    }
}

/// Why a retried operation ultimately failed.
#[derive(Debug)]
pub enum RetryError<E> {
    /// Every attempt failed transiently.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The final transient error.
        last: E,
    },
    /// The operation failed with an error classified non-transient.
    Permanent(E),
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            RetryError::Permanent(e) => write!(f, "permanent failure: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for RetryError<E> {}

/// splitmix64: the standard 64-bit finalizer, used as a stateless PRNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn first_attempt_never_sleeps() {
        assert_eq!(RetryPolicy::new(5).backoff(1), Duration::ZERO);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::new(5).with_seed(42);
        let b = RetryPolicy::new(5).with_seed(42);
        let c = RetryPolicy::new(5).with_seed(43);
        for k in 2..=5 {
            assert_eq!(a.backoff(k), b.backoff(k));
        }
        assert!((2..=5).any(|k| a.backoff(k) != c.backoff(k)));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::new(8)
        };
        assert_eq!(p.backoff(2), Duration::from_millis(10));
        assert_eq!(p.backoff(3), Duration::from_millis(20));
        assert_eq!(p.backoff(4), Duration::from_millis(40));
        // Far past the cap.
        assert_eq!(p.backoff(8), Duration::from_millis(500));
    }

    #[test]
    fn jitter_only_shortens() {
        let p = RetryPolicy::new(6).with_seed(9);
        for k in 2..=6 {
            assert!(p.backoff(k) <= p.max_delay);
            assert!(p.backoff(k) >= Duration::from_secs_f64(p.max_delay.as_secs_f64() * 0.0));
        }
    }

    #[test]
    fn run_retries_transient_until_success() {
        let calls = Cell::new(0u32);
        let out = RetryPolicy::immediate(5).run(
            |attempt| {
                calls.set(calls.get() + 1);
                if attempt < 3 {
                    Err("flaky")
                } else {
                    Ok(attempt)
                }
            },
            |_| true,
        );
        assert_eq!(out.unwrap(), 3);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn run_exhausts_after_max_attempts() {
        let calls = Cell::new(0u32);
        let out: Result<(), _> = RetryPolicy::immediate(3).run(
            |_| {
                calls.set(calls.get() + 1);
                Err("always")
            },
            |_| true,
        );
        assert_eq!(calls.get(), 3);
        match out.unwrap_err() {
            RetryError::Exhausted { attempts: 3, last } => assert_eq!(last, "always"),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn permanent_errors_stop_immediately() {
        let calls = Cell::new(0u32);
        let out: Result<(), _> = RetryPolicy::immediate(5).run(
            |_| {
                calls.set(calls.get() + 1);
                Err("fatal")
            },
            |_| false,
        );
        assert_eq!(calls.get(), 1);
        assert!(matches!(out.unwrap_err(), RetryError::Permanent("fatal")));
    }
}
