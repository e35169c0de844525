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

/// An in-memory disk holding an empty [`STORE`] directory that is itself
/// durable: a power loss then judges the engine, not the test's set-up.
pub fn mem_disk() -> Arc<MemFs> {
    let fs = Arc::new(MemFs::default());
    fs.create_dir_all(Path::new(STORE)).unwrap();
    fs.sync_dir(Path::new("/")).unwrap();
    fs
}
