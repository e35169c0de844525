//! Buffer management and cooperative scans (§5).
//!
//! "Rather than relying on memory-mapped files for I/O, X100 uses an
//! explicit buffer manager optimized for sequential I/O … as well as the
//! cooperative scan I/O scheduling where multiple active queries cooperate
//! to create synergy rather than competition for I/O resources."
//!
//! * [`pool`] — a conventional pin/unpin buffer manager with LRU
//!   replacement over a simulated disk that counts physical reads
//!   (substitution documented in DESIGN.md: a virtual device instead of a
//!   spindle — the *policy* is what the experiment measures).
//! * [`coop`] — a discrete-event model of N concurrent scans under (a) the
//!   traditional LRU demand-paging regime, where each query insists on its
//!   own sequential position, and (b) the Active Buffer Manager regime of
//!   cooperative scans, where queries attach to whatever relevant chunk is
//!   resident and the scheduler loads the chunk wanted by the most queries.

#![deny(unsafe_code)]

pub mod coop;
pub mod pool;

pub use coop::{simulate_scans, ScanPolicy, ScanReport};
pub use pool::{BufferPool, PageId, SimDisk, POOL_PAGE_SIZE};
