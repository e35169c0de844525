//! Light-weight column compression (§5).
//!
//! "To reduce I/O bandwidth needs, X100 added vectorized ultra-fast
//! compression methods [44] that decompress values in less than 5 CPU cycles
//! per tuple." The schemes reproduced here are the super-scalar family of
//! Zukowski et al. (ICDE 2006): the decompression loops are branch-light,
//! data-dependence-free and patch exceptions *after* the bulk unpack, so a
//! modern CPU can keep multiple iterations in flight.
//!
//! All codecs operate on `i64` logical values (integers of any width widen
//! losslessly) and round-trip exactly, including `i64::MIN` (= nil).
//!
//! * [`rle`] — run-length encoding, for sorted/clustered columns;
//! * [`dict`] — dictionary encoding with bit-packed codes;
//! * [`bitpack`] — fixed-width bit packing of a `[min, max]` frame;
//! * [`pfor`] — Patched Frame-of-Reference: small fixed width for the common
//!   case, out-of-band exception list for outliers;
//! * [`pfor_delta`] — PFOR over deltas, for quasi-sorted columns;
//! * [`scheme`] — a tagged container + a heuristic scheme picker.

#![deny(unsafe_code)]

pub mod bitpack;
pub mod dict;
pub mod pfor;
pub mod pfor_delta;
pub mod rle;
pub mod scheme;

pub use scheme::{compress, compressed_size, decompress, pick_scheme, Compressed, Scheme};
