//! The planner subsystem: per-column statistics, a compiled-plan cache,
//! and the cost model feeding the cost-guided optimizer decisions.
//!
//! The paper's §3 split — front end compiles, optimizer tier rewrites,
//! kernel executes — leaves one tier this repo had not grown yet: the
//! *strategic* optimizer that knows the data. This crate holds the three
//! cooperating parts:
//!
//! * [`stats`] — a [`StatsCatalog`] of per-column row counts, null counts,
//!   distinct-value estimates, min/max bounds and equi-depth histograms,
//!   maintained incrementally on DML and folded (rebuilt from the live
//!   columns) at CHECKPOINT. Serializable, so it rides the checkpoint
//!   image and recovery restores it.
//! * [`cache`] — a [`PlanCache`] of compiled, verified, optimized MAL
//!   programs keyed by canonical statement text, with `?N` parameter
//!   slots substituted as constants at EXECUTE time. Entries carry the
//!   column-property premises they were optimized under; a premise
//!   mismatch (or DDL, or recovery) invalidates.
//! * [`cost`] — per-instruction cardinality/cost estimates over a MAL
//!   program ([`estimate_program`]), predicate selectivity from the
//!   histograms, and the small decision procedures the SQL session
//!   consults: predicate ordering, mitosis piece count.

#![deny(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod stats;

pub use cache::{bind_program, referenced_columns, CachedPlan, PlanCache};
pub use cost::{choose_pieces, estimate_program, selectivity, InstrEstimate};
pub use stats::{ColumnStats, Histogram, StatsCatalog, TableStats};
