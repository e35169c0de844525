//! Access structures the experiments measure (E04, E09), the Volcano
//! baseline stores its rows in, and the algebra's join oracle probes. No
//! serving path links this crate.
//!
//! * [`hash`] — the bucket-chained hash table of the E04 ablation. Bucket
//!   count is a power of two so bucket selection is a mask, not a division:
//!   §4.2/\[25\] found that removing divisions from inner loops is one of the
//!   CPU optimizations that *compound* with cache optimizations. A
//!   division-based hasher is kept for the E04 ablation.
//! * [`btree`] — a pointer-based B+-tree, the "slotted page" style lookup
//!   baseline the paper contrasts with O(1) positional access (§3).
//! * [`css`] — Cache-Sensitive Search tree (Rao & Ross, §7): pointer-free
//!   array layout with arithmetic child addressing and line-sized nodes.

#![deny(unsafe_code)]

pub mod btree;
pub mod css;
pub mod hash;

pub use btree::BPlusTree;
pub use css::CssTree;
pub use hash::{HashTable, KeyHasher, MaskHasher, ModuloHasher};
