//! DataCell-style stream processing (§6.2).
//!
//! "The DataCell aims at using the complete software stack of MonetDB to
//! provide a rich data stream management solution. Its salient feature is
//! to focus on incremental bulk-event processing using the binary
//! relational algebra engine. The enhanced SQL functionality allows for
//! general predicate based window processing."
//!
//! The design reproduced here: incoming events buffer in *baskets* (plain
//! column heaps — the same storage as tables); registered continuous
//! queries fire when their window completes, evaluating the window as one
//! BAT-algebra batch instead of tuple-at-a-time like classical stream
//! engines. Windows are tumbling or sliding by row count, with an optional
//! predicate pre-filter ("predicate based window processing").

#![deny(unsafe_code)]

pub mod cell;

pub use cell::{ContinuousQuery, DataCell, WindowKind, WindowResult};
