//! The XML/XPath front-end (§3.2).
//!
//! "The work in the Pathfinder project makes it possible to store XML tree
//! structures in relational tables as `<pre,post>` coordinates, represented
//! as a collection of BATs. In fact, the pre-numbers are densely ascending,
//! hence can be represented as a (non-stored) dense TID column … a series
//! of region-joins called staircase joins were added to the system for the
//! purpose of accelerating XPath predicates."
//!
//! * [`xml`] — a minimal XML parser (elements only).
//! * [`encode`] — the pre/post/level/tag encoding; `pre` is the void head.
//! * [`staircase`] — the staircase join for descendant/ancestor/child axes,
//!   plus the naive region join it replaces (the E15 baseline).
//! * [`path`] — evaluation of simple `/a//b` location paths.

#![deny(unsafe_code)]

pub mod encode;
pub mod path;
pub mod staircase;
pub mod xml;

pub use encode::Doc;
pub use path::{eval_path, Axis, Step};
pub use staircase::{
    ancestors_naive, ancestors_staircase, descendants_naive, descendants_staircase,
};
pub use xml::XmlNode;
