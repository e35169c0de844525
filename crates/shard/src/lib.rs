//! Sharded scale-out for mammoth: hash-partitioned tables behind a
//! scatter-gather coordinator.
//!
//! MonetDB's mitosis/mergetable optimizer showed that a column store
//! parallelizes by *plan rewriting*: slice the columns, run the plan per
//! slice, recombine with `mat.pack` / `mat.packsum`. This crate applies
//! the identical recipe one level up — the slices live in other
//! *processes*:
//!
//! * [`partition`] decides row placement: FNV-1a over the canonical
//!   encoding of each table's partition key (its first column), modulo
//!   the shard count. Pure arithmetic, stable across restarts.
//! * [`coordinator`] compiles each statement once against a schemas-only
//!   planning catalog, verifies the plan with the MAL analysis tier,
//!   scatters read-only fragments over protocol-v3 `Fragment` messages,
//!   and merges the results through the same combine plans the
//!   in-process mergetable uses ([`mammoth_mal::combine`]). DML routes
//!   to owning shards by partition key; each shard's WAL makes it
//!   durable. Partial failure is typed (`SHARD_UNAVAILABLE`), bounded by
//!   a per-statement deadline, and never returns truncated rows.
//! * [`front`] serves the whole thing over the ordinary mammoth wire
//!   protocol, so any existing client talks to a cluster unchanged; the
//!   `mammoth-shardd` binary wraps it as a daemon.
//!
//! `EXPLAIN SHARDING` reports the partition map, live per-shard row
//! counts, and each shard's health/replica state; `shard.*` trace events
//! profile scatter, route, and gather through the standard
//! `MAMMOTH_TRACE` machinery, and `ha.*` events record the health
//! monitor's suspect → degraded → promote → recovered state machine
//! (see `docs/ha.md` and [`coordinator::CoordinatorConfig::replicas`]).

#![deny(unsafe_code)]

pub mod coordinator;
pub mod front;
pub mod partition;

pub use coordinator::{CoordError, Coordinator, CoordinatorConfig};
pub use front::{FrontConfig, FrontEnd, COORDINATOR_NAME};
pub use partition::{shard_of, PartitionMap};
