//! Hardware-conscious cost modeling (§4.4 of the paper).
//!
//! The paper's §4.4 summarizes the *unified hierarchical memory model* of
//! Manegold, Boncz & Kersten: memory access cost is estimated as
//!
//! ```text
//! TMem = Σ_levels ( Ms_i · ls_i  +  Mr_i · lr_i )
//! ```
//!
//! i.e. for every cache level the number of *sequential* and *random*
//! misses, each scored with its miss latency. The challenge is predicting
//! `Ms`/`Mr` per level for database access patterns. This crate provides:
//!
//! * [`hierarchy`] — descriptions of memory hierarchies (cache levels +
//!   TLB), with presets for the CPUs the original papers used and a generic
//!   modern configuration.
//! * [`sim`] — a set-associative, LRU, multi-level cache + TLB *simulator*.
//!   It stands in for the hardware event counters of the original work
//!   (substitution documented in DESIGN.md).
//! * [`pattern`] — the model's basic access patterns (sequential traversal,
//!   random traversal, repetitive random access, interleaved multi-cursor
//!   access) and their sequential composition, which carries each level's
//!   contents from one pattern to the next, with both *analytic* miss
//!   predictions and *executable* address traces, so prediction and
//!   simulation can be compared (experiment E06).
//! * [`cost`] — the `TMem` formula.
//! * [`record`] — the recorder: the observer the kernels report their own
//!   memory traffic to, placing their buffers and feeding the simulator, so
//!   a kernel is its own trace.
//! * [`trace`] — the model of the kernels' radix-cluster and partitioned
//!   hash-join, validated against their recorded traffic, and used to let
//!   the model *choose* the optimal number of radix bits.

#![deny(unsafe_code)]

pub mod cost;
pub mod hierarchy;
pub mod pattern;
pub mod record;
pub mod sim;
pub mod trace;

pub use cost::predict_cost;
pub use hierarchy::MemoryHierarchy;
pub use pattern::{AccessKind, Pattern, Region};
pub use record::Recorder;
pub use sim::HierarchySim;
