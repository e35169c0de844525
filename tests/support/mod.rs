//! What the integration tests share: the `std`-only helpers of [`util`],
//! the in-process [`cluster`] fixture and the statement and plan generator
//! of the differential tiers, [`gen`]. Each test binary compiles this
//! module and uses a part of it.
#![allow(dead_code)]

pub mod cluster;
pub mod gen;
mod util;

pub use util::*;

use mammoth_storage::{MemFs, Vfs};
use std::path::Path;
use std::sync::Arc;

/// Where the in-memory crash tests keep their store.
pub const STORE: &str = "/store";

/// How many power-loss states a crash test recovers at each kill point,
/// besides the disk as the process left it.
pub const POWER_LOSSES: u64 = 4;

/// The crash seeds of kill point `at_op` under the tier seed `seed`, one
/// per power-loss state: a function of the seed, the op and the state's
/// index, so that a failure replays.
pub fn crash_seeds(seed: u64, at_op: u64) -> impl Iterator<Item = u64> {
    let first = seed.wrapping_mul(1000).wrapping_add(at_op);
    (0..POWER_LOSSES).map(move |k| first.wrapping_add(k << 32))
}

/// What a crash test recovers from: `disk` as the process left it, named
/// `None`, then the power-loss state of each of `seeds`, named by its seed.
pub fn views(
    disk: Arc<MemFs>,
    seeds: impl IntoIterator<Item = u64>,
) -> Vec<(Option<u64>, Arc<MemFs>)> {
    let mut views = vec![(None, disk)];
    for s in seeds {
        let lost = Arc::new(views[0].1.crash(s));
        views.push((Some(s), lost));
    }
    views
}

/// An in-memory disk holding an empty [`STORE`] directory that is itself
/// durable: a power loss then judges the engine, not the test's set-up.
pub fn mem_disk() -> Arc<MemFs> {
    let fs = Arc::new(MemFs::default());
    fs.create_dir_all(Path::new(STORE)).unwrap();
    fs.sync_dir(Path::new("/")).unwrap();
    fs
}
