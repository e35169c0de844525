//! Test helpers that need nothing but `std`: scratch directories, a tier's
//! seed, one poll loop, a writers' ledger. Root tests reach them
//! through `support`; a package's tests include this file by `#[path]`.
#![allow(dead_code)]

use std::collections::BTreeSet;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::Mutex;
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

/// What writers of distinct values were told about each one: acknowledged,
/// or sent and then failed — such a value may have landed before its
/// acknowledgement was lost. Recovery is checked against it by identity,
/// not by count, so a lost acknowledged row that a durable unacknowledged
/// one stands in for is caught.
#[derive(Default)]
pub struct Ledger(Mutex<[BTreeSet<i64>; 2]>);

impl Ledger {
    /// Record `v` as acknowledged, or as sent without an acknowledgement.
    pub fn record(&self, v: i64, acked: bool) {
        self.0.lock().unwrap()[usize::from(!acked)].insert(v);
    }

    /// How many values were acknowledged.
    pub fn acked(&self) -> usize {
        self.0.lock().unwrap()[0].len()
    }

    /// Whether `recovered`, the values a store holds after the stop, holds
    /// each value at most once, every acknowledged one, none that was never
    /// sent, and at most `extra` unacknowledged ones.
    pub fn check(&self, recovered: &[i64], extra: usize) -> Result<(), String> {
        let [acked, unacked] = &*self.0.lock().unwrap();
        let held: BTreeSet<i64> = recovered.iter().copied().collect();
        let lost: Vec<&i64> = acked.difference(&held).collect();
        let beyond: Vec<&i64> = held.difference(acked).collect();
        let never: Vec<&&i64> = beyond.iter().filter(|v| !unacked.contains(v)).collect();
        if held.len() < recovered.len() {
            Err(format!(
                "{} values recovered twice",
                recovered.len() - held.len()
            ))
        } else if !lost.is_empty() {
            Err(format!("lost acknowledged values {lost:?}"))
        } else if !never.is_empty() {
            Err(format!("recovered values never sent: {never:?}"))
        } else if beyond.len() > extra {
            Err(format!(
                "{} unacknowledged values recovered, at most {extra}: {beyond:?}",
                beyond.len()
            ))
        } else {
            Ok(())
        }
    }
}
