//! Static analysis over MAL plans: the plan verifier and liveness.
//!
//! This is the optimizer's safety tier. [`verify()`] checks any [`Program`]
//! for SSA discipline, opcode arity, BAT/scalar kinds, column types and
//! plan structure; [`liveness::analyze`] computes last-use information that
//! the interpreter and the `garbage_collect` pass use to release
//! intermediates eagerly. [`crate::optimizer::Pipeline`] verifies the plan
//! its passes produce (after every pass in debug builds; once on exit,
//! replaying pass by pass on failure, when opted in via
//! [`crate::optimizer::Pipeline::checked`] in release builds), so a buggy
//! rewrite is pinned to the pass that introduced it.
//!
//! [`Program`]: crate::program::Program

pub mod liveness;
pub mod props;
pub mod verify;

pub use liveness::{analyze as analyze_liveness, Liveness};
pub use props::{
    analyze_with_catalog as analyze_props, bound_column_facts, check_props_enabled, column_facts,
    column_facts_with_scanned_bounds, column_props, Props, CHECK_PROPS_ENV,
};
pub(crate) use props::{
    analyze_with_facts as analyze_props_with_facts, check_bat, Analysis, ColumnFacts as PropFacts,
};
pub(crate) use verify::VerifyError;
pub use verify::{lint, verify, verify_with_catalog, VerifyErrorKind};
