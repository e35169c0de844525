//! What the integration tests share: the `std`-only helpers of [`util`],
//! the in-process [`cluster`] fixture and the statement and plan generator
//! of the differential tiers, [`gen`]. Each test binary compiles this
//! module and uses a part of it.
#![allow(dead_code)]

pub mod cluster;
pub mod gen;
mod util;

pub use util::*;
