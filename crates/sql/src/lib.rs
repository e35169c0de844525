//! The SQL front-end (§3.2).
//!
//! "The relational front-end decomposes tables by column, in BATs with a
//! dense (non-stored) TID head, and a tail column with values. … all
//! front-ends produce code for the same columnar back-end."
//!
//! The dialect covers the engine's experiment needs: `CREATE TABLE`,
//! `DROP TABLE`, multi-row `INSERT`, `DELETE … WHERE`, and `SELECT` with
//! projections, scalar and grouped aggregates, `AND`-composed comparison
//! predicates plus `BETWEEN`, a two-table equi-`JOIN`, `GROUP BY`,
//! `ORDER BY … [DESC]` and `LIMIT`. Queries compile to MAL
//! ([`compile`]), run through the optimizer pipeline, and execute on the
//! BAT Algebra interpreter ([`session::Session`]).

#![deny(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod prepared;
mod printer;
pub mod routing;
pub mod session;

pub use ast::{ColumnRef, JoinClause};
pub use ast::{Predicate, Scalar, SelectItem, SelectStmt, Statement};
pub use compile::compile_select;
pub use parser::{parse_prepare, parse_sql};
pub use prepared::{reject_stray_params, PreparedRegistry, PreparedStmt};
pub use routing::{classify, sql_literal, GatherTable, ScatterPlan};
pub use session::{render_outputs, QueryOutput, Session, StatusProvider};
