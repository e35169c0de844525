//! # mammoth
//!
//! A columnar, BAT-algebra database engine in Rust, reproducing the system
//! described in *Database Architecture Evolution: Mammals Flourished long
//! before Dinosaurs became Extinct* (Manegold, Kersten & Boncz, VLDB 2009)
//! — the MonetDB retrospective.
//!
//! This crate is the umbrella: it re-exports every subsystem under one
//! namespace. Most users want [`Database`]:
//!
//! ```
//! use mammoth::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE people (name VARCHAR, age INT)").unwrap();
//! db.execute("INSERT INTO people VALUES ('Roger Moore', 1927)").unwrap();
//! let out = db.execute("SELECT name FROM people WHERE age = 1927").unwrap();
//! assert!(out.to_text().contains("Roger Moore"));
//! ```
//!
//! The subsystems, one per crate (see `DESIGN.md` for the full map):
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | values, schemas, errors |
//! | [`storage`] | BATs, heaps, deltas, catalog, persistence |
//! | [`algebra`] | the BAT Algebra: selects, joins, radix-cluster/-decluster |
//! | [`index`] | hash table, B+-tree, CSS-tree, zone maps |
//! | [`cache`] | cache simulator + the §4.4 cost model |
//! | [`compression`] | RLE, dictionary, PFOR, PFOR-DELTA |
//! | [`bufferpool`] | buffer manager + cooperative scans |
//! | [`cracking`] | self-organizing cracker columns |
//! | [`recycler`] | intermediate-result cache |
//! | [`volcano`] | the tuple-at-a-time NSM baseline |
//! | [`vectorized`] | the X100-style vectorized engine |
//! | [`mal`] | MAL programs, optimizer pipeline, interpreter |
//! | [`parallel`] | multi-core dataflow execution of MAL plans |
//! | [`sql`] | the SQL front-end |
//! | [`server`] | the MAPI-style network server + client |
//! | [`shard`] | hash-partitioned scale-out: scatter-gather coordinator |
//! | [`xpath`] | pre/post XML encoding + staircase join |
//! | [`workload`] | deterministic data/query generators |

#![deny(unsafe_code)]

pub use mammoth_core::{Database, Engine};
pub use mammoth_sql::QueryOutput;

pub use mammoth_algebra as algebra;
pub use mammoth_bufferpool as bufferpool;
pub use mammoth_cache as cache;
pub use mammoth_compression as compression;
pub use mammoth_core as engine;
pub use mammoth_cracking as cracking;
pub use mammoth_index as index;
pub use mammoth_mal as mal;
pub use mammoth_parallel as parallel;
pub use mammoth_recycler as recycler;
pub use mammoth_server as server;
pub use mammoth_shard as shard;
pub use mammoth_sql as sql;
pub use mammoth_storage as storage;
pub use mammoth_stream as stream;
pub use mammoth_types as types;
pub use mammoth_vectorized as vectorized;
pub use mammoth_volcano as volcano;
pub use mammoth_workload as workload;
pub use mammoth_xpath as xpath;
