//! Shared value types, schemas and errors for the `mammoth` engine.
//!
//! `mammoth` reproduces the MonetDB architecture described in *Database
//! Architecture Evolution: Mammals Flourished long before Dinosaurs became
//! Extinct* (VLDB 2009). This crate holds the vocabulary every other crate
//! speaks: logical types, runtime values, object identifiers (oids), table
//! schemas and the common error type.
//!
//! Following MonetDB, NULL ("nil") is represented *in-domain*: every native
//! type reserves one sentinel value (e.g. `i32::MIN`) rather than keeping a
//! separate validity bitmap. This keeps column heaps plain arrays, which is
//! the property the whole BAT architecture builds on.

#![deny(unsafe_code)]

pub mod error;
pub mod framing;
pub mod native;
pub mod netfault;
pub mod oid;
pub mod retry;
pub mod schema;
pub mod trace;
pub mod value;

pub use error::{Error, Result};
pub use framing::crc32;
pub use native::NativeType;
pub use oid::{Oid, OID_NIL};
pub use retry::{Backoff, RetryPolicy};
pub use schema::{ColumnDef, TableSchema};
pub use trace::{
    validate_trace, validate_trace_line, EventKind, FlushGuard, ProfiledRun, Recorder, TraceEvent,
    TRACE_ENV,
};
pub use value::{LogicalType, Value};
