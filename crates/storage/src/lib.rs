//! BAT (Binary Association Table) storage — the heart of the MonetDB design.
//!
//! A BAT maps a *head* column of surrogate oids to a *tail* column of values
//! (§3 of the paper). The storage model is the Decomposed Storage Model
//! (DSM, Copeland & Khoshafian 1985): a relational table of `k` columns is
//! stored as `k` BATs that share the same dense head.
//!
//! The key representation tricks reproduced here:
//!
//! * **Void heads** — when the head is a densely ascending oid sequence
//!   (0,1,2,..) it is not stored at all; positional lookup is an O(1) array
//!   read ([`Bat::find_oid`]).
//! * **Typed memory arrays** — tails are plain `Vec<T>` heaps
//!   ([`TailHeap`]); variable-width strings split into an offsets array and
//!   a byte blob with duplicate elimination ([`StrHeap`]).
//! * **Delta columns** — updates accumulate in small insert/delete deltas on
//!   top of an immutable shared base, giving cheap snapshot isolation
//!   ([`delta::VersionedColumn`]).
//! * **Raw-heap persistence** — BATs serialize as little-endian raw heaps
//!   plus a tiny descriptor, mimicking MonetDB's memory-mapped files
//!   ([`persist`]).
//! * **Crash safety** — a redo-only write-ahead log ([`wal`]), atomic
//!   generation-numbered checkpoints ([`persist::checkpoint_catalog`]) and
//!   a deterministic fault-injection VFS ([`fault`]) that the crash-matrix
//!   tests drive to prove every kill point recovers the committed prefix.

#![deny(unsafe_code)]

pub mod bat;
pub mod catalog;
pub mod delta;
pub mod fault;
pub mod heap;
pub mod persist;
pub mod properties;
pub mod ship;
pub mod strheap;
pub mod wal;

pub use bat::{Bat, HeadColumn};
pub use catalog::{Catalog, Table, TableImage};
pub use delta::{ColumnView, DeletionSet, Snapshot, VersionedColumn};
pub use fault::{FaultFs, FaultKind, FaultPlan, RealFs, Vfs};
pub use heap::{FixedTail, TailHeap};
pub use persist::{
    checkpoint_catalog, checkpoint_image_with, read_sidecar, recover, recover_vfs, Recovered,
};
pub use properties::Properties;
pub use ship::{durable_tip, export_image, read_wal_range, Tip};
pub use strheap::StrHeap;
pub use wal::{crc32, Wal, WalCursor, WalRecord, WalReplay};
