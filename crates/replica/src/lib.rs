//! mammoth-replica — WAL-shipping replication for read scale-out.
//!
//! MonetDB scales reads by pointing extra servers at the same committed
//! state; this crate reproduces that shape by *shipping the log*. A
//! replica connects to a primary `mammoth-server` as an ordinary
//! protocol-v2 client, polls `Subscribe{generation, offset}`, and the
//! primary answers with the byte ranges of its durable directory the
//! replica is missing: `CheckpointImage` chunks when the replica must
//! re-anchor (it is behind the last checkpoint, brand new, or divergent)
//! and `WalChunk`s — verbatim WAL file bytes — for the tail, closed by
//! `CaughtUp` carrying the primary's durable tip.
//!
//! The replica mirrors the primary's directory layout *byte for byte*
//! (`ckpt-<g>/`, `wal-<g>`, `CURRENT`), which buys three properties at
//! once:
//!
//! * **Apply = recovery.** Shipped records run through the same
//!   [`mammoth_storage::wal::WalCursor`] framing and
//!   [`mammoth_storage::persist::apply_wal_record`] replay that crash
//!   recovery uses — there is no second apply path to drift.
//! * **Restart is just recovery.** A restarted replica opens its local
//!   directory like any durable session and resumes from its own WAL
//!   length.
//! * **Promotion is recovery in place.** The mirror *is* a valid primary
//!   directory: after draining whatever the dead primary's disk still
//!   holds, the replica rebuilds its session over it and lifts its
//!   read-only gate, without a rename or a restart.
//!
//! Divergence discipline: any local corruption — a bad CRC in the tailed
//! WAL, a chunk that does not extend the local file, a torn tail at
//! restart — wipes the replica's directory and re-bootstraps from the
//! primary's current image. The replica never serves from a prefix it
//! cannot prove is a prefix of the primary's history (recovery's
//! charitable discard-the-tail rule is for *our own* crashes, not for a
//! copy of someone else's log).
//!
//! See `docs/replication.md` for the full protocol walk-through.

#![deny(unsafe_code)]

pub mod applier;
pub mod replica;

pub use applier::Applier;
pub use replica::{Replica, ReplicaConfig};
