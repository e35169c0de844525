//! Deterministic workload generators for the experiments.
//!
//! Everything is seeded: the same seed produces the same data on every
//! machine, so EXPERIMENTS.md results are reproducible. The generators
//! cover the data shapes the evaluation needs:
//!
//! * [`columns`] — value distributions (uniform, zipf, sorted,
//!   quasi-sorted, clustered, low-cardinality strings);
//! * [`queries`] — range-query logs for the cracking experiment and a
//!   Skyserver-like log with power-law repetition for the recycler
//!   experiment (substitution for the real Skyserver trace, see DESIGN.md);
//! * [`tpch`] — a TPC-H-like `lineitem` slice for the vectorized-execution
//!   sweep (substitution for audited TPC-H data).

#![deny(unsafe_code)]

pub mod columns;
pub mod queries;
pub mod tpch;

pub use columns::*;
pub use queries::{range_query_log, skyserver_log, QueryPattern, RangeQuery, ReuseQuery};
pub use tpch::LineitemSlice;
