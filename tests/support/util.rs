//! Test helpers that need nothing but `std`: scratch directories, a tier's
//! seed and a generator to spend it, one poll loop. Root tests reach them
//! through `support`; a package's tests include this file by `#[path]`.
#![allow(dead_code)]

use std::ops::Deref;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A directory path under the system temp dir, unique to this process and
/// `tag`, with nothing left at it from an earlier run.
pub fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mammoth-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A fresh [`tmpdir`], created, and removed with everything in it when the
/// guard drops — a failing test's too. It derefs to its path.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let d = tmpdir(tag);
        std::fs::create_dir_all(&d).unwrap();
        Scratch(d)
    }
}

impl Deref for Scratch {
    type Target = PathBuf;
    fn deref(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The seed a tier runs under: the environment variable `var` (so a CI
/// matrix or a failing run can pick it), else `default`.
pub fn seed(var: &str, default: u64) -> u64 {
    let set = std::env::var(var).ok();
    set.and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// xorshift64* — a seedable workload generator without an RNG crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    /// The next value, reduced into `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717) % n
    }
}

/// Poll `f` every 10 ms until it returns `Some`; panic naming `what` once
/// `deadline` has passed.
pub fn wait_for<T>(deadline: Duration, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let t0 = Instant::now();
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}
