//! Database cracking (§6.1).
//!
//! "The intuition is to focus on a non-ordered table organization, extending
//! a partial index with each query, i.e., the physical data layout is
//! reorganized within the critical path of query processing. We have shown
//! that this approach is competitive over upfront complete table sorting and
//! that its benefits can be maintained under high update load. The approach
//! does not require knobs."
//!
//! A [`CrackerColumn`] copies the original column once (on the first query)
//! and thereafter *cracks* it: every range query partitions the pieces its
//! bounds fall into, so data touched by queries becomes increasingly
//! ordered. Query results are contiguous slices — no knobs, no upfront
//! sort, cost proportional to what queries actually touch.
//!
//! Updates follow the lazy delta approach of "cracking under updates":
//! inserts and deletes buffer in small side structures consulted by every
//! query and are merged piece-wise once they exceed a threshold.

#![deny(unsafe_code)]

pub mod cracker;
pub mod sideways;

pub use cracker::{Bound, CrackerColumn};
pub use sideways::CrackerMap;
