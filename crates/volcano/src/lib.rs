//! The dinosaur: a deliberately traditional tuple-at-a-time engine.
//!
//! §3: "Traditional database systems implement each relational algebra
//! operator as an iterator class with a next() method that returns the next
//! tuple ... As a recursive series of method calls is performed to produce
//! a single tuple, computational interpretation overhead is significant."
//!
//! This crate reproduces that design faithfully so the paper's comparisons
//! have a real baseline: NSM slotted pages ([`page`]), a tree-walking
//! per-tuple expression interpreter ([`expr`]) and Volcano-style pull
//! iterators ([`iter`]). Nothing here is a straw man — this is the
//! architecture the textbook teaches; it is simply built for disks, not for
//! caches.

#![deny(unsafe_code)]

pub mod expr;
pub mod iter;
pub mod page;
pub mod table;

pub use expr::Expr;
pub use iter::{FilterOp, HashAggOp, HashJoinOp, LimitOp, ProjectOp, SeqScanOp, SortOp, TupleIter};
pub use page::{HeapFile, Page, Rid, PAGE_SIZE};
pub use table::NsmTable;
