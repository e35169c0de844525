//! What the integration tests share: the `std`-only helpers of [`util`]
//! and the in-process [`cluster`] fixture. Each test binary compiles this
//! module and uses a part of it.
#![allow(dead_code)]

pub mod cluster;
mod util;

pub use util::*;
