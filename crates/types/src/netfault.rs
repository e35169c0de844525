//! FaultNet: deterministic network fault injection at the framing boundary.
//!
//! The storage layer earned its durability guarantees by surviving a
//! scripted `FaultFs` (`crates/storage/src/fault.rs`): every write path is
//! swept with kill-points and the recovery invariant is checked after each
//! one. This module applies the same discipline to the *network*. A seeded
//! schedule of transient faults is installed process-wide and fires at
//! exact framed-I/O operation counts, so a failure interleaving that broke
//! the cluster once can be replayed byte-for-byte with the same seed
//! (`MAMMOTH_NET_FAULT_SEED`).
//!
//! Faults are injected inside [`crate::framing::read_frame`] /
//! [`crate::framing::write_frame`] and at client connect time, which is
//! exactly the wire boundary: the WAL writes frames to disk through the
//! *pure* `split_frame`/`frame_into` half of the codec and is untouched —
//! a network fault can never damage durable state directly, only the
//! traffic about it.
//!
//! Unlike `FaultFs` (whose faults model a crashed process and leave the
//! filesystem dead), FaultNet faults are **transient**: the fault fires
//! once at its scheduled operation and traffic continues afterwards. That
//! models real networks — a refused connect, a torn frame, or a stalled
//! read is an event, not a terminal state — and it is what makes chaos
//! workloads meaningful: the cluster is expected to *recover around* every
//! injected fault, not merely fail cleanly.
//!
//! The fault menu:
//!
//! * **connect refusal** — the nth client connect attempt fails with
//!   `ConnectionRefused` before any socket is opened;
//! * **mid-frame disconnect** (`ReadFault::Disconnect`) — a framed read
//!   fails as if the peer vanished before the header arrived;
//! * **torn frame** (`ReadFault::Torn`) — the header is consumed and
//!   then the connection dies, leaving the stream desynchronized (this is
//!   the case connection poisoning exists for);
//! * **corrupted frame** (`ReadFault::Corrupt`) — the frame arrives but
//!   fails its CRC; the real payload is discarded so corruption can never
//!   leak data upward;
//! * **stall** (`ReadFault::Stall`) — the read blocks past its deadline
//!   and then fails as a timeout;
//! * **one-way partition** (`WriteFault::Drop`) — a framed write
//!   pretends to succeed but sends nothing; only the peer's read deadline
//!   can surface it, which is why deadlines are not optional in this
//!   codebase.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::retry::splitmix_next;

/// Environment variable naming the seed of the chaos tier's schedule
/// ([`plan_from_seed`]).
pub const NET_FAULT_SEED_ENV: &str = "MAMMOTH_NET_FAULT_SEED";

/// A fault fired by a framed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadFault {
    /// The peer vanished before the frame header arrived.
    Disconnect,
    /// The header arrived, then the connection died mid-payload. The
    /// stream is desynchronized afterwards.
    Torn,
    /// The frame arrived but its CRC does not match.
    Corrupt,
    /// The read blocked for this long, then failed as a timeout.
    Stall(Duration),
}

/// A fault fired by a framed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteFault {
    /// The write fails immediately (broken pipe).
    Broken,
    /// One-way partition: the write "succeeds" but nothing is sent.
    Drop,
}

/// A scripted schedule of transient network faults. Operation counts are
/// 0-based and per-class: the nth connect attempt, the nth framed read,
/// the nth framed write — process-wide, in whatever order threads reach
/// the hooks. With a single-threaded workload the interleaving is exact;
/// under concurrency the *schedule* is still deterministic even though
/// which connection draws each fault may vary.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Connect attempts to refuse.
    pub(crate) connects: Vec<u64>,
    /// Framed reads to fault, with the fault to fire.
    pub(crate) reads: Vec<(u64, ReadFault)>,
    /// Framed writes to fault, with the fault to fire.
    pub(crate) writes: Vec<(u64, WriteFault)>,
}

impl NetFaultPlan {
    /// The empty schedule: installs as armed-but-harmless.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }
}

#[derive(Default)]
struct State {
    plan: NetFaultPlan,
    connects_seen: u64,
    reads_seen: u64,
    writes_seen: u64,
    fired: u64,
}

/// Fast-path switch: hooks bail without locking while disarmed, so the
/// production cost of FaultNet is one relaxed atomic load per framed op.
static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Install `plan` process-wide and reset all operation counters.
pub fn install(plan: NetFaultPlan) {
    let mut st = lock();
    *st = State {
        plan,
        ..State::default()
    };
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm fault injection and drop the current schedule.
pub fn clear() {
    ARMED.store(false, Ordering::SeqCst);
    let mut st = lock();
    *st = State::default();
}

/// How many scheduled faults have fired since the last [`install`].
pub fn fired() -> u64 {
    lock().fired
}

/// Derive a bounded transient-fault schedule from a seed. Same seed, same
/// schedule — this is what `MAMMOTH_NET_FAULT_SEED=n` replays. The
/// schedule front-loads faults (the first few hundred framed ops) so short
/// chaos workloads actually meet them, and draws only recoverable kinds.
pub fn plan_from_seed(seed: u64) -> NetFaultPlan {
    let mut s = seed ^ 0x6c62_272e_07bb_0142;
    let mut plan = NetFaultPlan::none();
    plan.connects.push(splitmix_next(&mut s) % 8);
    let mut op = 0u64;
    for _ in 0..6 {
        op += 8 + splitmix_next(&mut s) % 48;
        let fault = match splitmix_next(&mut s) % 4 {
            0 => ReadFault::Disconnect,
            1 => ReadFault::Torn,
            2 => ReadFault::Corrupt,
            _ => ReadFault::Stall(Duration::from_millis(25)),
        };
        plan.reads.push((op, fault));
    }
    let mut op = 0u64;
    for _ in 0..3 {
        op += 15 + splitmix_next(&mut s) % 60;
        let fault = if splitmix_next(&mut s).is_multiple_of(2) {
            WriteFault::Broken
        } else {
            WriteFault::Drop
        };
        plan.writes.push((op, fault));
    }
    plan
}

/// Hook: the client is about to open a TCP connection. Returns the error
/// to fail with when this attempt is scheduled to be refused.
pub fn on_connect() -> Option<std::io::Error> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut st = lock();
    let op = st.connects_seen;
    st.connects_seen += 1;
    if st.plan.connects.contains(&op) {
        st.fired += 1;
        Some(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "injected fault: connection refused",
        ))
    } else {
        None
    }
}

/// Hook: a framed read is starting. Returns the fault to fire, if any.
pub(crate) fn on_read() -> Option<ReadFault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut st = lock();
    let op = st.reads_seen;
    st.reads_seen += 1;
    let hit = st
        .plan
        .reads
        .iter()
        .find(|(at, _)| *at == op)
        .map(|(_, f)| *f);
    if hit.is_some() {
        st.fired += 1;
    }
    hit
}

/// Hook: a framed write is starting. Returns the fault to fire, if any.
pub(crate) fn on_write() -> Option<WriteFault> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut st = lock();
    let op = st.writes_seen;
    st.writes_seen += 1;
    let hit = st
        .plan
        .writes
        .iter()
        .find(|(at, _)| *at == op)
        .map(|(_, f)| *f);
    if hit.is_some() {
        st.fired += 1;
    }
    hit
}

/// Deterministically damage a framed byte stream the way live FaultNet
/// faults damage connections: truncate it (torn frame), flip one bit
/// (corruption), or both. Decoder fuzz tests feed these to `WalCursor` and
/// `split_frame` and assert clean errors — never a panic, never an
/// over-read, never fabricated records.
pub fn mangle(stream: &[u8], seed: u64) -> Vec<u8> {
    let mut s = seed ^ 0x517c_c1b7_2722_0a95;
    let mut out = stream.to_vec();
    if out.is_empty() {
        return out;
    }
    let mode = splitmix_next(&mut s) % 3;
    if mode != 0 {
        let i = (splitmix_next(&mut s) % out.len() as u64) as usize;
        out[i] ^= 1 << (splitmix_next(&mut s) % 8);
    }
    if mode != 1 {
        // strictly shorter, so a mangle is never a no-op
        let cut = (splitmix_next(&mut s) % out.len() as u64) as usize;
        out.truncate(cut);
    }
    out
}

/// Serializes tests that arm the process-global schedule (hook counters are
/// shared, so two arming tests running on parallel test threads would steal
/// each other's faults). Not part of the public API.
#[doc(hidden)]
pub fn test_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = plan_from_seed(42);
        let b = plan_from_seed(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = plan_from_seed(43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert_eq!(a.connects.len(), 1);
        assert_eq!(a.reads.len(), 6);
        assert_eq!(a.writes.len(), 3);
        for (at, _) in &a.reads {
            assert!(*at < 400, "read faults front-loaded, got op {at}");
        }
    }

    #[test]
    fn hooks_fire_on_schedule_and_disarm_cleanly() {
        let _g = test_lock().lock().unwrap_or_else(|e| e.into_inner());
        let mut plan = NetFaultPlan::none();
        plan.connects.push(1);
        plan.reads.push((0, ReadFault::Torn));
        plan.writes.push((2, WriteFault::Drop));
        install(plan);
        assert!(on_connect().is_none(), "connect 0 passes");
        assert!(on_connect().is_some(), "connect 1 refused");
        assert!(on_connect().is_none(), "transient: connect 2 passes again");
        assert_eq!(on_read(), Some(ReadFault::Torn));
        assert_eq!(on_read(), None);
        assert_eq!(on_write(), None);
        assert_eq!(on_write(), None);
        assert_eq!(on_write(), Some(WriteFault::Drop));
        assert_eq!(fired(), 3);
        clear();
        assert!(on_connect().is_none() && on_read().is_none() && on_write().is_none());
    }

    #[test]
    fn mangle_is_deterministic_and_damages() {
        let stream = vec![7u8; 64];
        let a = mangle(&stream, 9);
        assert_eq!(a, mangle(&stream, 9));
        assert!(mangle(&[], 9).is_empty());
        // across a spread of seeds, every mangled stream differs from the
        // original (truncated, flipped, or both)
        for seed in 0..32 {
            assert_ne!(mangle(&stream, seed), stream, "seed {seed} was a no-op");
        }
    }
}
