//! Access structures used and benchmarked by the engine.
//!
//! * [`hash`] — the bucket-chained hash table used by hash-join. Bucket
//!   count is a power of two so bucket selection is a mask, not a division:
//!   §4.2/[25] found that removing divisions from inner loops is one of the
//!   CPU optimizations that *compound* with cache optimizations. A
//!   division-based hasher is kept for the E04 ablation.
//! * [`btree`] — a pointer-based B+-tree, the "slotted page" style lookup
//!   baseline the paper contrasts with O(1) positional access (§3).
//! * [`css`] — Cache-Sensitive Search tree (Rao & Ross, §7): pointer-free
//!   array layout with arithmetic child addressing and line-sized nodes.
//! * [`zonemap`] — per-block min/max summaries, the simplest form of the
//!   "partial indexing" theme.

#![deny(unsafe_code)]

pub mod btree;
pub mod css;
pub mod hash;
pub mod zonemap;

pub use btree::BPlusTree;
pub use css::CssTree;
pub use hash::{HashTable, KeyHasher, MaskHasher, ModuloHasher};
pub use zonemap::ZoneMap;
