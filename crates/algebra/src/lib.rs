//! The BAT Algebra (§3).
//!
//! "Each BAT Algebra operator maps to a simple MAL instruction, which has
//! zero degrees of freedom: it does not take complex expressions as
//! parameter. Rather, complex expressions are broken into a sequence of BAT
//! Algebra operators that each perform a simple operation on an entire
//! column of values ('bulk processing')."
//!
//! Operators consume [`Bat`]s and produce new, fully materialized [`Bat`]s —
//! column-at-a-time, never tuple-at-a-time. Inner loops are monomorphized
//! per type and free of interpretation, which is what the paper credits for
//! the instruction-locality advantage over iterator engines.
//!
//! Selections produce *candidate* BATs: a void-headed BAT whose tail holds
//! the qualifying positions (oids) in ascending order, matching the
//! `R:bat[:oid,:oid] := select(B, V)` convention of §3.
//!
//! [`Bat`]: mammoth_storage::Bat

#![deny(unsafe_code)]

pub mod agg;
pub mod arith;
pub mod fetch;
mod flat;
pub mod join;
pub mod mat;
mod multiversion;
#[cfg(test)]
mod oracle;
pub mod radix;
pub mod select;
pub mod sort;

pub use agg::{
    aggregate_scalar, finish_groups, group_by, group_refine, grouped_aggregate, Acc, AggKind,
    AggTail, Reduction,
};
pub use arith::{arith_bat, arith_const, ArithOp};
pub use fetch::{fetch_join, fetch_join_with_head, gather, positions_of, scatter};
pub use flat::{GroupTable, KeyImage};
pub use join::{hash_join, merge_join, nested_loop_join, JoinIndex};
pub use mat::{pack, packsum};
pub use radix::{
    fetch_fixed, mix_key_bat, partitioned_hash_join, radix_cluster, radix_decluster_fixed,
    ClusteredColumn,
};
pub use select::{
    select_cmp, select_cmp_cand, select_eq, select_range, select_range_cand, CmpOp, Pred, RowId,
    ScanTail,
};
pub use sort::{firstn, order, sort_bat, sort_bat_dir, sorted_props, TopN};
