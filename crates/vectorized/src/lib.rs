//! Vectorized (X100-style) execution (§5).
//!
//! "The X100 execution engine … conserves the efficient zero-degree of
//! freedom columnar operators found in MonetDB's BAT Algebra, but embeds
//! them in a pipelined relational execution model, where small slices of
//! columns (called 'vectors'), rather than entire columns are pulled
//! top-down through a relational operator tree. … The vector size is tuned
//! such that all vectors of a (sub-)query together fit into the CPU cache.
//! When used with a vector-size of one (tuple-at-a-time), X100 performance
//! tends to be as slow as a typical RDBMS, while a size between 100 and
//! 1000 improves performance by two orders of magnitude."
//!
//! The engine here is a faithful miniature: a [`pipeline::Pipeline`] pulls
//! fixed-size windows from *borrowed* column slices ([`vector::Column`] —
//! a BAT's tail heap is read where it lies, nothing is copied in), runs
//! them through zero-degree-of-freedom primitives connected by *selection
//! vectors*, and folds them into an aggregate sink.
//!
//! **The serving path.** This is the engine under SQL, not beside it: the
//! MAL optimizer's `fuse_pipeline` pass replaces a select → projection →
//! aggregate chain over one table with a single `vector.pipeline`
//! instruction, and the interpreter executes that instruction by building a
//! [`Pipeline`] over the bound columns' tails and calling
//! [`Pipeline::run`] with [`VECTOR_SIZE`]. The filters and folds are the
//! BAT Algebra's own kernels (`mammoth_algebra::{Pred, Reduction, Acc,
//! GroupTable}`), so the fused instruction answers bit for bit as the
//! column-at-a-time plan it replaces — without the candidate list and the
//! gathered columns that plan materializes in between.
//!
//! The vector size is an explicit argument of [`Pipeline::run`] — set it to
//! 1 and you get the tuple-at-a-time dinosaur, set it to the column length
//! and you get full MonetDB-style materialization; the sweet spot in
//! between is experiment E07, and [`VECTOR_SIZE`] is taken from it.

#![deny(unsafe_code)]

pub mod pipeline;
pub mod primitives;
pub mod vector;

pub use mammoth_algebra::{AggKind, CmpOp};
pub use pipeline::{
    ColRef, Filter, Operand, Out, Output, Pipeline, Sink, SinkKind, Stage, VECTOR_SIZE,
};
pub use primitives::MapOp;
pub use vector::{Column, ColumnSet};
