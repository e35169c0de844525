//! The replica node: a read-only server plus the puller that feeds it.
//!
//! [`Replica::start`] recovers the local mirror (wiping it when the
//! divergence discipline demands), starts a read-only `mammoth-server`
//! on it — writes are refused with `READ_ONLY`, reads and
//! `EXPLAIN REPLICATION` are served — and spawns the puller thread that
//! polls the primary's `Subscribe` endpoint, stages what it ships through
//! [`crate::applier::Applier`], and folds committed statement groups into
//! the serving session.
//!
//! Failover is promotion in place, and it keeps the replica's server (and
//! its client connections) alive: a `PROMOTE` statement — sent by an
//! operator or by the shard coordinator's health monitor — or a direct
//! [`Replica::promote_in_place`] call stops the puller, drains whatever
//! the dead primary's directory (`ReplicaConfig::primary_data`) still
//! holds beyond the replicated prefix (WAL shipping is asynchronous, so
//! the replica may trail by the last poll interval), rebuilds the serving
//! session over the recovered state, and only then lifts the server's
//! read-only gate. Progress is observable through `EXPLAIN REPLICATION`:
//! `role` flips from `replica` to `primary` when promotion completes,
//! which is exactly what the coordinator polls for. The drain reads the
//! dead primary's files directly — no server is involved — and only ever
//! *extends* the local WAL; if the dead primary sits on a generation the
//! replica never reached, the mirror is replaced by a verbatim copy. A
//! torn tail in the drained bytes is fine: recovery discards it exactly as
//! it would after the node's own crash.

use crate::applier::Applier;
use mammoth_server::{Client, RetryPolicy, Server, ServerConfig, SessionSpec, SharedSession};
use mammoth_storage::persist::{apply_wal_record, wal_file_name};
use mammoth_storage::ship::{durable_tip, read_wal_range};
use mammoth_storage::{RealFs, Vfs};
use mammoth_types::trace::{EventKind, Recorder};
use mammoth_types::{Error, Result};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How to run one replica node.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// The primary's `host:port`.
    pub(crate) primary_addr: String,
    /// Local mirror directory (created if missing).
    pub data: PathBuf,
    /// The disk `data` and `primary_data` are on.
    pub fs: Arc<dyn Vfs>,
    /// Listen address for the replica's own read-only server.
    pub addr: String,
    /// Worker threads for the read-only server.
    pub workers: usize,
    /// How long to sleep between polls once caught up.
    pub poll_interval: Duration,
    /// Auth token to present to the primary (empty when it requires none).
    pub primary_token: String,
    /// Client name shown in the primary's traces.
    pub name: String,
    /// Reconnect discipline for the puller's connection to the primary.
    pub retry: RetryPolicy,
    /// Where the primary's data directory lives, when this node can see
    /// it. In-place promotion (`PROMOTE`) drains the unreplicated WAL tail
    /// from here before going read-write; `None` means the primary's disk
    /// is unreachable and the replicated prefix is all that survives.
    pub primary_data: Option<PathBuf>,
}

impl ReplicaConfig {
    pub fn new(primary_addr: impl Into<String>, data: impl Into<PathBuf>) -> ReplicaConfig {
        ReplicaConfig {
            primary_addr: primary_addr.into(),
            data: data.into(),
            fs: Arc::new(RealFs),
            addr: "127.0.0.1:0".into(),
            workers: 2,
            poll_interval: Duration::from_millis(20),
            primary_token: String::new(),
            name: "replica".into(),
            retry: RetryPolicy::default(),
            primary_data: None,
        }
    }
}

/// A point-in-time view of replication progress (also what
/// `EXPLAIN REPLICATION` reports, stringified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    pub generation: u64,
    /// Local WAL bytes staged (the next poll's resume offset).
    pub local_offset: u64,
    /// The primary's WAL length at the last `CaughtUp`.
    pub(crate) primary_offset: u64,
    pub lag_bytes: u64,
    pub caught_up: bool,
    /// Committed statement groups applied to the serving session.
    pub applied_groups: u64,
    /// Full re-anchors (first sync, checkpoint flips, divergence wipes).
    pub bootstraps: u64,
    /// Whether in-place promotion has completed: this node is now a
    /// read-write primary (`role=primary` in `EXPLAIN REPLICATION`).
    pub promoted: bool,
}

#[derive(Default)]
struct Counters {
    generation: AtomicU64,
    local: AtomicU64,
    primary: AtomicU64,
    groups: AtomicU64,
    bootstraps: AtomicU64,
    caught_up: AtomicBool,
    promoted: AtomicBool,
}

impl Counters {
    fn snapshot(&self) -> ReplicaStatus {
        let local = self.local.load(Ordering::SeqCst);
        let primary = self.primary.load(Ordering::SeqCst);
        ReplicaStatus {
            generation: self.generation.load(Ordering::SeqCst),
            local_offset: local,
            primary_offset: primary,
            lag_bytes: primary.saturating_sub(local),
            caught_up: self.caught_up.load(Ordering::SeqCst),
            applied_groups: self.groups.load(Ordering::SeqCst),
            bootstraps: self.bootstraps.load(Ordering::SeqCst),
            promoted: self.promoted.load(Ordering::SeqCst),
        }
    }
}

/// Everything in-place promotion needs, shared between the running
/// [`Replica`] and the server's `PROMOTE` handler (which outlives any
/// borrow of the `Replica` itself — the handler fires on a server worker
/// thread and spawns the promotion onto its own thread).
struct PromoteShared {
    cfg: ReplicaConfig,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    puller: Arc<Mutex<Option<JoinHandle<()>>>>,
    recorder: Arc<Recorder>,
    /// Server-side handles, filled right after `Server::start` (the
    /// handler must be installed *before* the server exists).
    wiring: Mutex<Option<PromoteWiring>>,
    /// First-promotion latch: `PROMOTE` is idempotent.
    begun: AtomicBool,
}

#[derive(Clone)]
struct PromoteWiring {
    read_only: Arc<AtomicBool>,
    shared: Arc<SharedSession>,
    spec: SessionSpec,
}

/// A running replica: read-only server + puller thread.
pub struct Replica {
    server: Option<Server>,
    cfg: ReplicaConfig,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    puller: Arc<Mutex<Option<JoinHandle<()>>>>,
    promo: Arc<PromoteShared>,
    recorder: Arc<Recorder>,
    local_addr: SocketAddr,
}

impl Replica {
    /// Recover/validate the local mirror, start the read-only server, and
    /// begin pulling from the primary. The primary does not need to be up
    /// yet — the puller retries per `cfg.retry` and the server meanwhile
    /// answers from whatever the mirror already holds.
    pub fn start(cfg: ReplicaConfig) -> Result<Replica> {
        let fs = &cfg.fs;
        let t0 = Instant::now();
        let recorder = Arc::new(Recorder::default());
        let counters = Arc::new(Counters::default());

        let (mut applier, wiped) = Applier::open(Arc::clone(fs), &cfg.data)?;

        let status = Arc::clone(&counters);
        let mut spec = SessionSpec::durable_with(Arc::clone(fs), &cfg.data);
        spec.status_provider = Some(Arc::new(move || {
            let s = status.snapshot();
            let role = if s.promoted { "primary" } else { "replica" };
            vec![
                ("role".into(), role.into()),
                ("generation".into(), s.generation.to_string()),
                ("local_offset".into(), s.local_offset.to_string()),
                ("primary_offset".into(), s.primary_offset.to_string()),
                ("lag_bytes".into(), s.lag_bytes.to_string()),
                ("caught_up".into(), s.caught_up.to_string()),
                ("applied_groups".into(), s.applied_groups.to_string()),
                ("bootstraps".into(), s.bootstraps.to_string()),
                ("promoted".into(), s.promoted.to_string()),
            ]
        }));

        let stop = Arc::new(AtomicBool::new(false));
        let puller_slot: Arc<Mutex<Option<JoinHandle<()>>>> = Arc::new(Mutex::new(None));
        let promo = Arc::new(PromoteShared {
            cfg: cfg.clone(),
            counters: Arc::clone(&counters),
            stop: Arc::clone(&stop),
            puller: Arc::clone(&puller_slot),
            recorder: Arc::clone(&recorder),
            wiring: Mutex::new(None),
            begun: AtomicBool::new(false),
        });
        let handler_promo = Arc::clone(&promo);
        let server = Server::start(ServerConfig {
            addr: cfg.addr.clone(),
            workers: cfg.workers,
            read_only: true,
            // The handler only *starts* promotion (on its own thread): the
            // Ok frame means "promotion begun", and the worker thread that
            // relayed the PROMOTE goes back to serving reads immediately.
            promote_handler: Some(Arc::new(move || {
                let p = Arc::clone(&handler_promo);
                std::thread::spawn(move || {
                    let _ = run_promotion(&p);
                });
            })),
            spec: spec.clone(),
            ..ServerConfig::default()
        })?;
        let local_addr = server.local_addr();
        let shared = server.shared_arc();
        *promo.wiring.lock().unwrap_or_else(|e| e.into_inner()) = Some(PromoteWiring {
            read_only: server.read_only_switch(),
            shared: Arc::clone(&shared),
            spec: spec.clone(),
        });

        // The server's recovery just (re)created the local WAL header, or
        // replayed the validated mirror; adopt the on-disk state as-is.
        if !applier.resync()? {
            // Cannot happen after a successful recovery, but if it does,
            // fall back to the divergence discipline.
            applier.reset()?;
        }
        counters
            .generation
            .store(applier.generation(), Ordering::SeqCst);
        counters.local.store(applier.offset(), Ordering::SeqCst);

        let mut r = Replica {
            server: Some(server),
            cfg,
            counters,
            stop,
            puller: puller_slot,
            promo,
            recorder,
            local_addr,
        };
        if wiped {
            r.trace(
                EventKind::ReplBootstrap,
                "wiped divergent mirror at start",
                t0,
            );
        }
        r.spawn_puller(applier, spec, shared);
        Ok(r)
    }

    /// Address of the replica's read-only server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current replication progress.
    pub fn status(&self) -> ReplicaStatus {
        self.counters.snapshot()
    }

    /// Block until the replica has observed a `CaughtUp` matching its
    /// local state, or `timeout` elapses. Returns whether it caught up.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < timeout {
            if self.counters.caught_up.load(Ordering::SeqCst) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// Block until a client sends `SHUTDOWN` to the replica's own port,
    /// then stop replication and flush the trace (the daemon's main loop).
    pub fn wait(mut self) -> Result<ReplicaStatus> {
        if let Some(server) = self.server.take() {
            server.wait()?;
        }
        self.stop_puller();
        self.flush_trace()?;
        Ok(self.counters.snapshot())
    }

    /// Stop pulling and serving; flush the replica's trace. The mirror
    /// stays on disk, ready for a restart to resume from.
    pub fn shutdown(mut self) -> Result<ReplicaStatus> {
        self.stop_puller();
        if let Some(server) = self.server.take() {
            server.shutdown()?;
        }
        self.flush_trace()?;
        Ok(self.counters.snapshot())
    }

    /// Fail over *without* tearing the server down: stop replication,
    /// drain the dead primary's directory (`cfg.primary_data`), rebuild
    /// the serving session over the recovered state, then lift the
    /// read-only gate — existing connections ride through and `role`
    /// flips to `primary`. This is what the `PROMOTE` statement runs
    /// (asynchronously); tests and embedders may call it directly, and
    /// after [`Replica::shutdown`] the data directory is a primary's.
    /// Idempotent: a second call is a no-op. Returns WAL bytes drained.
    pub fn promote_in_place(&self) -> Result<u64> {
        run_promotion(&self.promo)
    }

    fn spawn_puller(
        &mut self,
        mut applier: Applier,
        spec: SessionSpec,
        shared: Arc<SharedSession>,
    ) {
        let cfg = self.cfg.clone();
        let stop = Arc::clone(&self.stop);
        let counters = Arc::clone(&self.counters);
        let recorder = Arc::clone(&self.recorder);
        let handle = std::thread::spawn(move || {
            puller_loop(
                &cfg,
                &stop,
                &counters,
                &recorder,
                &mut applier,
                &spec,
                &shared,
            );
        });
        *self.puller.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
    }

    fn stop_puller(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.puller.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn trace(&self, kind: EventKind, args: impl Into<String>, started: Instant) {
        self.recorder.record(kind, 0, args, started, 0);
    }

    /// Fold the replication events into one `engine="replica"` run and
    /// export it through `MAMMOTH_TRACE` (no-op when the env var is
    /// unset) — same discipline as the server's lifecycle trace.
    fn flush_trace(&self) -> Result<()> {
        self.recorder.flush("replica", 1, &[EventKind::ReplApply])?;
        Ok(())
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.puller.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

/// In-place promotion, shared by the `PROMOTE` handler's thread and
/// [`Replica::promote_in_place`]. Ordering is the whole point:
///
/// 1. latch `begun` (idempotency — a retried `PROMOTE` must not run two
///    promotions);
/// 2. stop the puller, so nothing mutates the mirror under the drain;
/// 3. drain the dead primary's directory: after this, every statement the
///    old primary ever acked is in the local mirror (`acked <= recovered`,
///    and at most one in-flight unacked statement rides along);
/// 4. rebuild the serving session — a fresh recovery over mirror + drained
///    tail;
/// 5. only then flip `promoted` and lift the read-only gate: no write can
///    land on pre-promotion state.
///
/// On failure the latch is released and the gate stays down, so a later
/// `PROMOTE` can retry and readers never see a half-promoted node.
fn run_promotion(promo: &PromoteShared) -> Result<u64> {
    if promo.begun.swap(true, Ordering::SeqCst) {
        return Ok(0);
    }
    let t = Instant::now();
    let result = (|| {
        let wiring = promo
            .wiring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .ok_or_else(|| Error::Internal("promotion requested before server wiring".into()))?;
        promo.stop.store(true, Ordering::SeqCst);
        let handle = promo
            .puller
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        let mut drained = 0u64;
        if let Some(proot) = &promo.cfg.primary_data {
            drained = drain_into(&promo.cfg.fs, &promo.cfg.data, proot)?;
        }
        rebuild_session(&wiring.shared, &wiring.spec)?;
        promo.counters.promoted.store(true, Ordering::SeqCst);
        wiring.read_only.store(false, Ordering::SeqCst);
        Ok(drained)
    })();
    match result {
        Ok(drained) => {
            let from = promo.cfg.primary_data.as_ref();
            let args = format!(
                "in-place drained={drained} bytes from {:?}",
                from.map(|p| p.display().to_string())
            );
            promo.recorder.record(EventKind::ReplPromote, 0, args, t, 0);
            Ok(drained)
        }
        Err(e) => {
            promo.begun.store(false, Ordering::SeqCst);
            Err(e)
        }
    }
}

/// Copy everything the dead primary's directory holds that the local
/// mirror under `data` does not. Returns the number of bytes gained.
fn drain_into(fs: &Arc<dyn Vfs>, data: &Path, proot: &Path) -> Result<u64> {
    let Some(tip) = durable_tip(fs.as_ref(), proot)? else {
        return Ok(0); // primary never committed anything
    };
    let (mut applier, _) = Applier::open(Arc::clone(fs), data)?;
    if tip.gen == applier.generation() {
        if let Some(bytes) = read_wal_range(fs.as_ref(), proot, tip.gen, applier.offset())? {
            applier.append_wal(&bytes)?;
            fs.sync(&data.join(wal_file_name(tip.gen)))?;
            return Ok(bytes.len() as u64);
        }
    }
    // The primary is on a generation we cannot extend: take a verbatim
    // copy of its whole directory (it is small: one checkpoint image,
    // one WAL, CURRENT).
    applier.reset()?;
    let mut copied = 0u64;
    for path in fs.read_dir(proot)? {
        copied += copy_tree(fs.as_ref(), &path, data)?;
    }
    // the copies' own entries, `CURRENT` and `wal-<g>` among them
    fs.sync_dir(data)?;
    Ok(copied)
}

/// Replace the serving session with a fresh recovery of the mirror.
fn rebuild_session(shared: &SharedSession, spec: &SessionSpec) -> Result<()> {
    let fresh = spec.build()?;
    shared
        .with_session_mut(|s| *s = fresh)
        .map_err(|e| Error::Internal(format!("replica session rebuild refused: {e}")))
}

fn puller_loop(
    cfg: &ReplicaConfig,
    stop: &AtomicBool,
    counters: &Counters,
    recorder: &Recorder,
    applier: &mut Applier,
    spec: &SessionSpec,
    shared: &SharedSession,
) {
    let trace = |kind, args: String, started| recorder.record(kind, 0, args, started, 0);
    'reconnect: while !stop.load(Ordering::SeqCst) {
        let mut client = match Client::connect_with_retry(
            &cfg.primary_addr,
            &cfg.name,
            &cfg.primary_token,
            &cfg.retry,
        ) {
            Ok(c) => c,
            Err(_) => {
                counters.caught_up.store(false, Ordering::SeqCst);
                std::thread::sleep(cfg.poll_interval);
                continue;
            }
        };
        while !stop.load(Ordering::SeqCst) {
            let started = Instant::now();
            let batch = match client.subscribe_poll(applier.generation(), applier.offset()) {
                Ok(b) => b,
                Err(_) => {
                    counters.caught_up.store(false, Ordering::SeqCst);
                    continue 'reconnect;
                }
            };
            match applier.apply_batch(&batch) {
                Ok(out) => {
                    if out.bootstrapped {
                        if rebuild_session(shared, spec).is_err() {
                            // Mirror and session disagree irrecoverably;
                            // start over rather than serve mixed state.
                            let _ = applier.reset();
                            counters.caught_up.store(false, Ordering::SeqCst);
                            continue 'reconnect;
                        }
                        counters.bootstraps.fetch_add(1, Ordering::SeqCst);
                        trace(
                            EventKind::ReplBootstrap,
                            format!("gen={} len={}", applier.generation(), applier.offset()),
                            started,
                        );
                    } else if !out.groups.is_empty() {
                        let n = out.groups.len() as u64;
                        let applied = shared.with_session_mut(|s| -> Result<()> {
                            for group in &out.groups {
                                for rec in group {
                                    apply_wal_record(s.catalog_mut(), rec)?;
                                }
                            }
                            Ok(())
                        });
                        match applied {
                            Ok(Ok(())) => {
                                counters.groups.fetch_add(n, Ordering::SeqCst);
                                trace(
                                    EventKind::ReplApply,
                                    format!("groups={n} off={}", applier.offset()),
                                    started,
                                );
                            }
                            _ => {
                                // A record the session cannot apply is
                                // divergence like any other.
                                let _ = applier.reset();
                                let _ = rebuild_session(shared, spec);
                                counters.caught_up.store(false, Ordering::SeqCst);
                                continue;
                            }
                        }
                    }
                    counters
                        .generation
                        .store(applier.generation(), Ordering::SeqCst);
                    counters.local.store(applier.offset(), Ordering::SeqCst);
                    if let Some((tip_gen, tip_off)) = out.tip {
                        counters.primary.store(tip_off, Ordering::SeqCst);
                        let caught = tip_gen == applier.generation() && tip_off == applier.offset();
                        let was = counters.caught_up.swap(caught, Ordering::SeqCst);
                        if caught && !was {
                            trace(
                                EventKind::ReplCaughtUp,
                                format!("gen={tip_gen} off={tip_off}"),
                                started,
                            );
                        }
                        if caught {
                            std::thread::sleep(cfg.poll_interval);
                        }
                    }
                }
                Err(e) => {
                    // Divergence discipline: wipe, serve nothing stale,
                    // re-anchor on the next poll.
                    let _ = applier.reset();
                    let _ = rebuild_session(shared, spec);
                    counters.caught_up.store(false, Ordering::SeqCst);
                    trace(EventKind::ReplBootstrap, format!("reset: {e}"), started);
                }
            }
        }
        return;
    }
}

/// Recursively copy `src` (file or directory) into directory `dst_dir`.
fn copy_tree(fs: &dyn Vfs, src: &Path, dst_dir: &Path) -> Result<u64> {
    let name = src
        .file_name()
        .ok_or_else(|| Error::Corrupt("unnameable file in primary directory".into()))?;
    let dst = dst_dir.join(name);
    // `read` fails on directories, which routes them to the recursive arm.
    match fs.read(src) {
        Ok(bytes) => {
            fs.write_file(&dst, &bytes)?;
            fs.sync(&dst)?;
            Ok(bytes.len() as u64)
        }
        Err(_) => {
            fs.create_dir_all(&dst)?;
            let mut copied = 0u64;
            for child in fs.read_dir(src)? {
                copied += copy_tree(fs, &child, &dst)?;
            }
            fs.sync_dir(&dst)?;
            Ok(copied)
        }
    }
}
