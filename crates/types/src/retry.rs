//! The unified retry/timeout/backoff policy.
//!
//! Before this module existed the repo had three hand-rolled copies of
//! "sleep a bit and try again": the client's reconnect loop, the shard
//! coordinator's redial, and the replica puller's reconnect. They agreed
//! on the shape (capped exponential backoff, deterministic jitter) but
//! not on the details, which is exactly how retry storms are born. This
//! is the one implementation all of them now share.
//!
//! Design points:
//!
//! * **Capped exponential** — delays double from `base_delay` up to
//!   `max_delay` and stay there; an unreachable peer costs a bounded,
//!   predictable amount of waiting per attempt.
//! * **Seeded jitter** — each delay is scaled by a factor in [0.5, 1.0)
//!   drawn from a SplitMix64 stream seeded by the policy, so a fleet of
//!   reconnecting replicas does not stampede in sync, yet a test can
//!   replay the exact schedule. The generator is local (no `rand`
//!   dependency): this crate stays std-only.

use std::time::Duration;

/// Reconnect discipline: bounded attempts, capped exponential backoff,
/// deterministic jitter. Retryability itself is the caller's judgment —
/// the policy paces retries, it does not classify errors.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (>= 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per retry up to `max_delay`.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter stream — deterministic so tests can replay a
    /// schedule. Each delay is scaled by a factor in [0.5, 1.0).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay sequence this policy paces retries with. The
    /// iterator is infinite: the *attempts* bound lives in [`RetryPolicy::run`].
    pub(crate) fn backoff(&self) -> Backoff {
        Backoff {
            delay: self.base_delay,
            max: self.max_delay,
            rng: splitmix_seed(self.seed),
        }
    }

    /// Run `op` up to `attempts` times, sleeping a jittered backoff delay
    /// between tries. Only errors `retryable` approves are retried;
    /// anything else surfaces immediately. `op` receives the 0-based
    /// attempt index.
    pub fn run<T, E>(
        &self,
        retryable: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut backoff = self.backoff();
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Err(e) if retryable(&e) && attempt + 1 < attempts => attempt += 1,
                done => return done,
            }
            std::thread::sleep(backoff.next().expect("the backoff sequence is infinite"));
        }
    }
}

/// The jittered capped-exponential delay sequence of a [`RetryPolicy`].
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    delay: Duration,
    max: Duration,
    rng: u64,
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let jittered = self.delay.mul_f64(jitter_frac(&mut self.rng));
        self.delay = (self.delay * 2).min(self.max);
        Some(jittered)
    }
}

/// SplitMix64: the minimal statistically-decent generator, used for
/// jitter here and for every seeded fault schedule (network faults, the
/// in-memory disk's crash states). Seeds are decorated so seed 0 still
/// produces a useful stream.
fn splitmix_seed(seed: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15
}

/// The next draw of the SplitMix64 stream whose state is `state`.
pub fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fraction in [0.5, 1.0) from the top 53 bits of the next draw.
fn jitter_frac(state: &mut u64) -> f64 {
    let x = splitmix_next(state);
    0.5 + (x >> 11) as f64 / (1u64 << 53) as f64 * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            seed: 7,
        };
        let a: Vec<Duration> = p.backoff().take(6).collect();
        let b: Vec<Duration> = p.backoff().take(6).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            let nominal = Duration::from_millis(10 * (1 << i.min(2)) as u64);
            assert!(*d >= nominal / 2 && *d < nominal, "delay {i} = {d:?}");
        }
        let c: Vec<Duration> = RetryPolicy { seed: 8, ..p }.backoff().take(6).collect();
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn run_bounds_attempts_and_respects_retryability() {
        let p = RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            seed: 0,
        };
        let mut calls = 0;
        let out: Result<(), &str> = p.run(
            |_| true,
            |_| {
                calls += 1;
                Err("nope")
            },
        );
        assert_eq!(out, Err("nope"));
        assert_eq!(calls, 4, "attempts includes the first try");

        let mut calls = 0;
        let out: Result<(), &str> = p.run(
            |e| *e != "fatal",
            |_| {
                calls += 1;
                Err("fatal")
            },
        );
        assert_eq!(out, Err("fatal"));
        assert_eq!(calls, 1, "non-retryable errors surface immediately");

        let mut calls = 0;
        let out: Result<u32, &str> = p.run(
            |_| true,
            |attempt| {
                calls += 1;
                if attempt == 2 {
                    Ok(attempt)
                } else {
                    Err("later")
                }
            },
        );
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }
}
