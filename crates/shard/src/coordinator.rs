//! The scatter-gather coordinator.
//!
//! A [`Coordinator`] owns one client connection per shard (`mammoth-server`
//! processes it does not manage) plus a **planning catalog**: the sharded
//! schemas with no rows. Every statement is parsed and compiled exactly
//! once, here, and verified with the MAL analysis tier before any fragment
//! touches the network — a shard never sees a plan the coordinator could
//! not prove well-formed.
//!
//! Execution strategies, in the order [`Coordinator::execute`] tries them:
//!
//! * **DDL** (`CREATE`/`DROP TABLE`, `CHECKPOINT`) broadcasts the
//!   statement, printed back to text, to every shard and mirrors the
//!   change into the planning catalog and partition map.
//! * **DML** routes by partition key: an `INSERT` splits its rows by
//!   [`shard_of`] and ships each shard only its subset (durable via that
//!   shard's WAL); a `DELETE` whose predicate pins the key goes to the one
//!   owning shard, anything else broadcasts.
//! * **SELECT** scatters read-only fragments (protocol v3 `Fragment`
//!   messages) and merges through the same `mat.pack` / `mat.packsum`
//!   machinery the in-process mergetable uses — see
//!   [`mammoth_mal::combine`]. Lossless scalar aggregates merge from
//!   one-row partials; everything else gathers column fragments and
//!   re-runs the original verified plan against the recombined catalog.
//!
//! **Partial failure is typed, never silent**: if any shard is
//! unreachable or times out mid-scatter the statement fails with
//! [`CoordError::Unavailable`] (wire code `SHARD_UNAVAILABLE`); no
//! truncated result table is ever returned. Each statement is bounded by
//! the configured deadline via per-connection read timeouts.
//!
//! A subtlety worth keeping: the gather path optimizes the *original*
//! plan with [`column_facts`] of the **rebuilt** catalog (real gathered
//! rows), never the planning catalog — empty-table facts (0 rows,
//! degenerate min/max) would license rewrites that are unsound for the
//! data actually shipped back.
//!
//! **High availability** (opt-in via [`CoordinatorConfig::replicas`]): a
//! background health monitor ([`Coordinator::start_health_monitor`])
//! probes every primary each `probe_interval`; `suspect_after`
//! consecutive misses confirm a death (`ha.suspect` → `ha.degraded`
//! trace events). While a shard is degraded its **reads** are served by
//! its replica — bounded staleness, never a torn result — and its
//! **writes** fail fast with `SHARD_UNAVAILABLE` rather than land on a
//! WAL that would not survive failover. The monitor then drives the
//! replica's `PROMOTE` path (`ha.promote`), polls `EXPLAIN REPLICATION`
//! until `role=primary`, and swaps the promoted replica in as the
//! shard's new primary (`ha.recovered`), restoring write availability.
//! `EXPLAIN SHARDING` surfaces the whole state machine in its `health`
//! and `replica` columns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mammoth_algebra::CmpOp;
use mammoth_mal::{
    aggregate_combine, column_facts, default_pipeline, default_pipeline_with_props, gather_combine,
    partial_column, shard_partials_table, shard_table_name, verify_with_catalog, GatherColumn,
    Interpreter, MalValue, PartialMerge, Program,
};
use mammoth_server::{Client, ClientError, ErrorCode, Response, RetryPolicy};
use mammoth_sql::{
    classify, compile_select, parse_sql, reject_stray_params, render_outputs, GatherTable,
    Predicate, PreparedRegistry, QueryOutput, Scalar, ScatterPlan, SelectStmt, Statement,
};
use mammoth_storage::{Bat, Catalog, Table};
use mammoth_types::{ColumnDef, Error, EventKind, LogicalType, Recorder, TableSchema, Value};

use crate::partition::{shard_of, PartitionMap, PartitionSpec};

/// How to reach and pace the shard set.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Shard addresses (`host:port`), one `mammoth-server` each. Shard
    /// index in this vector is the shard id the partitioner targets — the
    /// order must be stable across coordinator restarts.
    pub shards: Vec<String>,
    /// Auth token forwarded to every shard (empty when shards run open).
    pub token: String,
    /// Per-statement bound: read timeout on every shard connection. A
    /// shard that dies mid-scatter surfaces as `SHARD_UNAVAILABLE` within
    /// roughly this bound, never as a hang.
    pub deadline: Duration,
    /// Reconnect discipline for (re)dialing a shard. Keep it short — the
    /// retries run inside the statement's deadline budget.
    pub retry: RetryPolicy,
    /// Optional replica address per shard, index-aligned with `shards`
    /// (missing or `None` entries leave that shard without a failover
    /// target). A replica serves degraded reads while its primary is
    /// down and is the `PROMOTE` target once the health monitor confirms
    /// the death.
    pub replicas: Vec<Option<String>>,
    /// How often the health monitor probes each primary; also bounds one
    /// probe's connect timeout.
    pub probe_interval: Duration,
    /// Consecutive missed probes before a primary is declared dead. The
    /// first miss marks the shard *suspect* (`ha.suspect`); this many
    /// marks it *degraded* (`ha.degraded`) and starts failover when a
    /// replica is configured.
    pub suspect_after: u32,
    /// Budget for a replica to reach `role=primary` after `PROMOTE`.
    pub promote_timeout: Duration,
}

impl CoordinatorConfig {
    /// Sensible defaults for `shards`: 2 s deadline, 2 quick dial
    /// attempts, no replicas, 100 ms probes, death after 3 misses.
    pub fn new(shards: Vec<String>) -> CoordinatorConfig {
        CoordinatorConfig {
            shards,
            token: String::new(),
            deadline: Duration::from_secs(2),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(50),
                seed: 0,
            },
            replicas: Vec::new(),
            probe_interval: Duration::from_millis(100),
            suspect_after: 3,
            promote_timeout: Duration::from_secs(5),
        }
    }
}

/// Per-shard availability as the health monitor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// Probes succeed; every statement routes to the primary.
    Healthy,
    /// `n` consecutive probes missed, still below the death threshold.
    /// Statements keep routing to the primary (it may just be slow).
    Suspect(u32),
    /// Confirmed unreachable: reads degrade to the replica, writes fail
    /// fast with `SHARD_UNAVAILABLE`.
    Degraded,
    /// Failover in flight: the replica has been told to `PROMOTE`; reads
    /// still degrade to it (promotion never blocks its read path).
    Promoting,
}

impl Health {
    fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Suspect(_) => "suspect",
            Health::Degraded => "degraded",
            Health::Promoting => "promoting",
        }
    }

    /// Is the primary confirmed dead (reads reroute, writes fail fast)?
    fn is_down(self) -> bool {
        matches!(self, Health::Degraded | Health::Promoting)
    }
}

/// How a coordinated statement fails.
#[derive(Debug)]
pub enum CoordError {
    /// A shard could not be dialed, died mid-statement, or blew the
    /// deadline. Maps to the wire code `SHARD_UNAVAILABLE`; the statement
    /// has no (even partial) result.
    Unavailable(String),
    /// A shard answered with an error frame; passed through verbatim.
    Remote { code: ErrorCode, message: String },
    /// The statement itself is wrong (parse, bind, unsupported shape) or
    /// the coordinator's own merge failed.
    Sql(Error),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Unavailable(m) => write!(f, "SHARD_UNAVAILABLE: {m}"),
            CoordError::Remote { code, message } => write!(f, "{code}: {message}"),
            CoordError::Sql(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<Error> for CoordError {
    fn from(e: Error) -> CoordError {
        CoordError::Sql(e)
    }
}

fn internal(e: impl std::fmt::Display) -> CoordError {
    CoordError::Sql(Error::Internal(e.to_string()))
}

/// The scatter-gather coordinator. Thread-safe: the front end serves each
/// client connection from its own thread against one shared `Coordinator`.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    /// One lazily-dialed connection slot per shard primary; a slot is
    /// cleared on any transport error so the next statement redials.
    pools: Vec<Mutex<Option<Client>>>,
    /// Current primary address per shard. Starts as `cfg.shards` and is
    /// swapped in place when a replica is promoted.
    addrs: Vec<Mutex<String>>,
    /// Failover target per shard; consumed (set `None`) on promotion —
    /// the promoted node is a primary now, not a replica.
    replicas: Vec<Mutex<Option<String>>>,
    /// Lazily-dialed replica connections for degraded reads.
    rpools: Vec<Mutex<Option<Client>>>,
    health: Vec<Mutex<Health>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    /// Schemas only — zero rows. Compilation and verification target.
    planning: Mutex<Catalog>,
    parts: Mutex<PartitionMap>,
    /// Compiled-and-verified scatter plans keyed by normalized statement
    /// text. A repeated statement — ad-hoc or `EXECUTE`d — compiles once
    /// per coordinator lifetime. No per-column premises are needed here:
    /// the planning catalog holds schemas only, so it changes exactly on
    /// DDL, which clears the cache wholesale.
    plans: Mutex<HashMap<String, Arc<PlannedSelect>>>,
    /// `PREPARE`d statements.
    prepared: PreparedRegistry,
    next_frag: AtomicU64,
    recorder: Recorder,
}

/// One cached scatter compilation: the verified single-node program, its
/// output names, the scatter strategy and the referenced table schemas.
struct PlannedSelect {
    prog: Program,
    names: Vec<String>,
    plan: ScatterPlan,
    schemas: Vec<TableSchema>,
}

impl Coordinator {
    pub fn new(cfg: CoordinatorConfig) -> Coordinator {
        assert!(
            !cfg.shards.is_empty(),
            "coordinator needs at least one shard"
        );
        let n = cfg.shards.len();
        let pools = cfg.shards.iter().map(|_| Mutex::new(None)).collect();
        let addrs = cfg.shards.iter().map(|a| Mutex::new(a.clone())).collect();
        let replicas = (0..n)
            .map(|i| Mutex::new(cfg.replicas.get(i).cloned().flatten()))
            .collect();
        let rpools = (0..n).map(|_| Mutex::new(None)).collect();
        let health = (0..n).map(|_| Mutex::new(Health::Healthy)).collect();
        Coordinator {
            cfg,
            pools,
            addrs,
            replicas,
            rpools,
            health,
            monitor: Mutex::new(None),
            stop: Arc::new(AtomicBool::new(false)),
            planning: Mutex::new(Catalog::new()),
            parts: Mutex::new(PartitionMap::default()),
            plans: Mutex::new(HashMap::new()),
            prepared: PreparedRegistry::default(),
            next_frag: AtomicU64::new(1),
            recorder: Recorder::default(),
        }
    }

    pub fn nshards(&self) -> usize {
        self.cfg.shards.len()
    }

    fn trace(&self, kind: EventKind, args: String, started: Instant, rows: u64) {
        self.recorder.record(kind, 0, args, started, rows);
    }

    /// Fold accumulated `shard.*` events into one `engine="shard"` run and
    /// append it to the `MAMMOTH_TRACE` path, mirroring the server's flush.
    pub fn flush_trace(&self) -> std::io::Result<bool> {
        let counted = [EventKind::ShardScatter, EventKind::ShardRoute];
        self.recorder.flush("shard", self.nshards(), &counted)
    }

    /// The shard's current primary address (swapped on failover).
    fn addr_of(&self, i: usize) -> String {
        self.addrs[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn health_of(&self, i: usize) -> Health {
        *self.health[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` on shard `i`'s **primary** connection, dialing if needed.
    /// A shard the monitor has confirmed dead (degraded or promoting)
    /// fails fast without touching the network: writes are never
    /// silently redirected to a replica, so an acked write always landed
    /// on a WAL that survives failover.
    fn with_shard<T>(
        &self,
        i: usize,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, CoordError> {
        let h = self.health_of(i);
        let addr = self.addr_of(i);
        if h.is_down() {
            return Err(CoordError::Unavailable(format!(
                "shard {i} ({addr}) is {}; writes are held until promotion restores a primary",
                h.label()
            )));
        }
        self.run_on(i, &self.pools[i], &addr, f)
    }

    /// Run a **read-only** `f` for shard `i`: against the primary while
    /// it answers probes, degraded to the shard's replica once the
    /// monitor confirms the primary dead. Degraded reads have bounded
    /// staleness — the replica may lag by the statements in flight at
    /// the crash, but a result is always a complete, CRC-checked frame,
    /// never torn. Without a configured replica the read fails typed
    /// like a write would.
    fn with_shard_read<T>(
        &self,
        i: usize,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, CoordError> {
        if self.health_of(i).is_down() {
            let replica = self.replicas[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            if let Some(raddr) = replica {
                return self.run_on(i, &self.rpools[i], &raddr, f);
            }
        }
        let addr = self.addr_of(i);
        self.run_on(i, &self.pools[i], &addr, f)
    }

    /// Dial-and-run against one connection slot. Transport failures —
    /// including a poisoned client after a deadline miss mid-frame —
    /// clear the slot (the next statement redials a fresh connection)
    /// and map to [`CoordError::Unavailable`]; shard-side error frames
    /// pass through and keep the connection.
    fn run_on<T>(
        &self,
        i: usize,
        slot: &Mutex<Option<Client>>,
        addr: &str,
        f: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, CoordError> {
        // Every way a leg is lost traces the same event and types the same.
        let unavailable = |started: Instant, why: &dyn std::fmt::Display| {
            let args = format!("shard={i} addr={addr}");
            self.trace(EventKind::ShardUnavailable, args, started, 0);
            CoordError::Unavailable(format!("shard {i} ({addr}): {why}"))
        };
        let mut slot = slot.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            let started = Instant::now();
            let c =
                Client::connect_with_retry(addr, "mammoth-shard", &self.cfg.token, &self.cfg.retry)
                    .map_err(|e| unavailable(started, &e))?;
            c.set_read_timeout(Some(self.cfg.deadline))
                .map_err(|e| unavailable(started, &e))?;
            *slot = Some(c);
        }
        let started = Instant::now();
        match f(slot.as_mut().expect("dialed above")) {
            Ok(v) => Ok(v),
            Err(ClientError::Server {
                code: ErrorCode::ShuttingDown,
                message,
            }) => {
                // A draining shard is as gone as a dead one for this
                // statement; reclassify so clients see the typed code.
                *slot = None;
                Err(unavailable(started, &message))
            }
            Err(ClientError::Server { code, message }) => {
                // The shard answered; the connection is still in protocol.
                Err(CoordError::Remote { code, message })
            }
            Err(e) => {
                *slot = None;
                Err(unavailable(started, &e))
            }
        }
    }

    /// Run `f(i)` for every shard concurrently; one OS thread per leg so a
    /// slow shard cannot starve the others of its deadline budget.
    fn scatter<T: Send>(
        &self,
        f: impl Fn(usize) -> Result<T, CoordError> + Sync,
    ) -> Vec<Result<T, CoordError>> {
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.nshards()).map(|i| s.spawn(move || f(i))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter leg panicked"))
                .collect()
        })
    }

    /// Broadcast a statement's text to every shard, failing on the first
    /// error (in shard order).
    fn broadcast(&self, sql: &str) -> Result<Vec<Response>, CoordError> {
        let legs = self.scatter(|i| self.with_shard(i, |c| c.query(sql)));
        legs.into_iter().collect()
    }

    // ---------------------------------------------------------------- DDL

    fn create_table(&self, sql: &str, schema: &TableSchema) -> Result<QueryOutput, CoordError> {
        let name = &schema.name;
        {
            let mut planning = self.planning.lock().unwrap_or_else(|e| e.into_inner());
            let table = Table::new(schema.clone()).map_err(CoordError::Sql)?;
            planning.create_table(table).map_err(CoordError::Sql)?;
            if let Err(e) = self
                .parts
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .add_table(schema)
            {
                let _ = planning.drop_table(name);
                return Err(CoordError::Sql(e));
            }
        }
        self.invalidate_plans();
        self.broadcast(sql)?;
        Ok(QueryOutput::Ok)
    }

    fn drop_table(&self, sql: &str, name: &str) -> Result<QueryOutput, CoordError> {
        self.planning
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drop_table(name)
            .map_err(CoordError::Sql)?;
        self.parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove_table(name);
        self.invalidate_plans();
        self.broadcast(sql)?;
        Ok(QueryOutput::Ok)
    }

    /// DDL changed the planning catalog: every cached plan's premises are
    /// void, so the whole cache goes.
    fn invalidate_plans(&self) {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    // ---------------------------------------------------------------- DML

    fn insert(&self, table: &str, rows: Vec<Vec<Scalar>>) -> Result<QueryOutput, CoordError> {
        let spec = self.spec_for(table)?;
        let n = self.nshards();
        let started = Instant::now();
        let mut per_shard: Vec<Vec<Vec<Scalar>>> = vec![Vec::new(); n];
        for row in rows {
            let key = row
                .get(spec.key_index)
                .and_then(Scalar::as_lit)
                .ok_or_else(|| {
                    CoordError::Sql(Error::Internal(format!(
                        "INSERT row has no value for partition key column {}",
                        spec.key_column
                    )))
                })?;
            per_shard[shard_of(key, n)].push(row);
        }
        let mut total: u64 = 0;
        let mut touched = 0usize;
        for (i, rows) in per_shard.into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            touched += 1;
            let table = table.to_string();
            let frag = Statement::Insert { table, rows }.to_string();
            match self.with_shard(i, |c| c.query(&frag))? {
                Response::Affected(k) => total += k,
                other => {
                    return Err(internal(format!(
                        "shard {i} answered INSERT with {other:?}"
                    )))
                }
            }
        }
        self.trace(
            EventKind::ShardRoute,
            format!("insert table={table} shards_touched={touched}"),
            started,
            total,
        );
        Ok(QueryOutput::Affected(total as usize))
    }

    fn delete(
        &self,
        sql: &str,
        table: &str,
        where_: &[Predicate],
    ) -> Result<QueryOutput, CoordError> {
        let spec = self.spec_for(table)?;
        let n = self.nshards();
        let started = Instant::now();
        // A predicate that pins the partition key to one literal means
        // only the owning shard can hold matching rows.
        let pinned = where_.iter().find_map(|p| {
            if p.op == CmpOp::Eq
                && p.col.column == spec.key_column
                && p.col.table.as_ref().is_none_or(|t| t == table)
            {
                p.value.as_lit()
            } else {
                None
            }
        });
        let (total, routed) = match pinned {
            Some(v) => {
                let target = shard_of(v, n);
                let resp = self.with_shard(target, |c| c.query(sql))?;
                match resp {
                    Response::Affected(k) => (k, format!("shard={target}")),
                    other => {
                        return Err(internal(format!(
                            "shard {target} answered DELETE with {other:?}"
                        )))
                    }
                }
            }
            None => {
                let mut total = 0;
                for resp in self.broadcast(sql)? {
                    match resp {
                        Response::Affected(k) => total += k,
                        other => {
                            return Err(internal(format!("a shard answered DELETE with {other:?}")))
                        }
                    }
                }
                (total, "broadcast".into())
            }
        };
        self.trace(
            EventKind::ShardRoute,
            format!("delete table={table} {routed}"),
            started,
            total,
        );
        Ok(QueryOutput::Affected(total as usize))
    }

    fn spec_for(&self, table: &str) -> Result<PartitionSpec, CoordError> {
        self.parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spec(table)
            .cloned()
            .ok_or_else(|| {
                CoordError::Sql(Error::NotFound {
                    kind: "table",
                    name: table.to_string(),
                })
            })
    }

    // ------------------------------------------------------------- health

    /// Per-shard health labels, index-aligned with shard ids — the same
    /// strings the `health` column of `EXPLAIN SHARDING` reports.
    pub fn shard_health(&self) -> Vec<&'static str> {
        self.health
            .iter()
            .map(|h| h.lock().unwrap_or_else(|e| e.into_inner()).label())
            .collect()
    }

    /// Start the background health monitor: probe every primary each
    /// `probe_interval`, declare a death after `suspect_after`
    /// consecutive misses, and drive replica promotion to restore write
    /// availability. The thread holds only a [`std::sync::Weak`]
    /// reference, so dropping the coordinator (without
    /// [`Coordinator::stop_health_monitor`]) also ends it. Idempotent.
    pub fn start_health_monitor(self: &Arc<Coordinator>) {
        let mut guard = self.monitor.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_some() {
            return;
        }
        self.stop.store(false, Ordering::SeqCst);
        let weak = Arc::downgrade(self);
        let stop = Arc::clone(&self.stop);
        let interval = self.cfg.probe_interval;
        let handle = std::thread::Builder::new()
            .name("shard-health".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let Some(c) = weak.upgrade() else { return };
                    c.health_tick();
                    drop(c);
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn shard health monitor");
        *guard = Some(handle);
    }

    /// Stop and join the health monitor (waits out an in-flight
    /// promotion attempt, bounded by `promote_timeout`). Idempotent.
    pub fn stop_health_monitor(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self
            .monitor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// One probe round over every shard, advancing the health state
    /// machine: Healthy → Suspect(1..) → Degraded → (replica configured)
    /// Promoting → Healthy-under-new-address. A primary that answers a
    /// probe while merely suspect or degraded recovers without failover.
    fn health_tick(&self) {
        for i in 0..self.nshards() {
            let addr = self.addr_of(i);
            let started = Instant::now();
            if probe(
                &addr,
                self.cfg.probe_interval.max(Duration::from_millis(10)),
            ) {
                let recovered = {
                    let mut h = self.health[i].lock().unwrap_or_else(|e| e.into_inner());
                    let was_down = matches!(*h, Health::Suspect(_) | Health::Degraded);
                    if was_down {
                        *h = Health::Healthy;
                    }
                    was_down
                };
                if recovered {
                    self.trace(
                        EventKind::HaRecovered,
                        format!("shard={i} addr={addr} probe answered"),
                        started,
                        0,
                    );
                }
                continue;
            }
            let (event, confirmed_dead) = {
                let mut h = self.health[i].lock().unwrap_or_else(|e| e.into_inner());
                match *h {
                    Health::Healthy => {
                        *h = Health::Suspect(1);
                        (Some((EventKind::HaSuspect, 1)), false)
                    }
                    Health::Suspect(k) if k + 1 >= self.cfg.suspect_after => {
                        *h = Health::Degraded;
                        (Some((EventKind::HaDegraded, k + 1)), true)
                    }
                    Health::Suspect(k) => {
                        *h = Health::Suspect(k + 1);
                        (None, false)
                    }
                    // Still degraded: keep retrying failover each tick.
                    Health::Degraded => (None, true),
                    Health::Promoting => (None, false),
                }
            };
            if let Some((kind, misses)) = event {
                self.trace(
                    kind,
                    format!("shard={i} addr={addr} misses={misses}"),
                    started,
                    0,
                );
            }
            if confirmed_dead {
                self.try_failover(i, &addr);
            }
        }
    }

    /// Drive the replica-promotion path for shard `i` and swap the
    /// promoted node in as the new primary. Leaves the shard degraded
    /// (retried next tick) if promotion fails; a no-op without a
    /// configured replica.
    fn try_failover(&self, i: usize, dead: &str) {
        let Some(raddr) = self.replicas[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
        else {
            return;
        };
        *self.health[i].lock().unwrap_or_else(|e| e.into_inner()) = Health::Promoting;
        let started = Instant::now();
        self.trace(
            EventKind::HaPromote,
            format!("shard={i} dead={dead} replica={raddr}"),
            started,
            0,
        );
        match self.drive_promotion(&raddr) {
            Ok(()) => {
                *self.addrs[i].lock().unwrap_or_else(|e| e.into_inner()) = raddr.clone();
                *self.pools[i].lock().unwrap_or_else(|e| e.into_inner()) = None;
                *self.rpools[i].lock().unwrap_or_else(|e| e.into_inner()) = None;
                *self.replicas[i].lock().unwrap_or_else(|e| e.into_inner()) = None;
                *self.health[i].lock().unwrap_or_else(|e| e.into_inner()) = Health::Healthy;
                self.trace(
                    EventKind::HaRecovered,
                    format!("shard={i} promoted={raddr}"),
                    started,
                    0,
                );
            }
            Err(e) => {
                *self.health[i].lock().unwrap_or_else(|e| e.into_inner()) = Health::Degraded;
                self.trace(
                    EventKind::ShardUnavailable,
                    format!("shard={i} promotion of {raddr} failed: {e}"),
                    started,
                    0,
                );
            }
        }
    }

    /// Tell the replica to `PROMOTE`, then poll `EXPLAIN REPLICATION`
    /// until it reports `role=primary` — the in-place WAL drain finished
    /// and the read-only gate lifted — within `promote_timeout`.
    /// `PROMOTE` is idempotent on the replica, so redialing after a
    /// transport hiccup mid-poll is safe.
    fn drive_promotion(&self, raddr: &str) -> std::result::Result<(), String> {
        let deadline = Instant::now() + self.cfg.promote_timeout;
        let dial = || -> std::result::Result<Client, String> {
            let c =
                Client::connect_with_retry(raddr, "mammoth-ha", &self.cfg.token, &self.cfg.retry)
                    .map_err(|e| format!("dial: {e}"))?;
            c.set_read_timeout(Some(self.cfg.deadline))
                .map_err(|e| format!("set timeout: {e}"))?;
            Ok(c)
        };
        let mut client = dial()?;
        client
            .query("PROMOTE")
            .map_err(|e| format!("PROMOTE: {e}"))?;
        loop {
            let role = match client.query("EXPLAIN REPLICATION") {
                Ok(Response::Table { rows, .. }) => {
                    rows.iter().find_map(|r| match (r.first(), r.get(1)) {
                        (Some(Value::Str(k)), Some(Value::Str(v))) if k == "role" => {
                            Some(v.clone())
                        }
                        _ => None,
                    })
                }
                Ok(_) => None,
                Err(_) => {
                    // Poisoned or dropped connection: redial, keep polling.
                    if let Ok(c) = dial() {
                        client = c;
                    }
                    None
                }
            };
            if role.as_deref() == Some("primary") {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "replica {raddr} did not reach role=primary within {:?}",
                    self.cfg.promote_timeout
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // ------------------------------------------------------------- SELECT

    fn select(&self, sel: &SelectStmt) -> Result<QueryOutput, CoordError> {
        let planned = self.planned_select(sel)?;
        match &planned.plan {
            ScatterPlan::Aggregates {
                fragment_sql,
                merges,
            } => self.select_aggregates(planned.names.clone(), fragment_sql, merges),
            ScatterPlan::Gather { tables } => self.select_gather(
                planned.prog.clone(),
                planned.names.clone(),
                tables,
                &planned.schemas,
            ),
        }
    }

    /// Fetch or build the scatter compilation for `sel`. A hit skips
    /// parse-free recompilation *and* re-verification; a miss compiles,
    /// verifies and classifies against the planning catalog with the lock
    /// released before any network hop. Both outcomes trace
    /// (`plan.cache_hit` / `plan.compile`) so the one-compile-per-
    /// coordinator-lifetime property is testable from the outside.
    fn planned_select(&self, sel: &SelectStmt) -> Result<Arc<PlannedSelect>, CoordError> {
        let key = sel.to_string();
        let started = Instant::now();
        let hit = self
            .plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned();
        if let Some(p) = hit {
            self.trace(EventKind::PlanCacheHit, format!("stmt={key}"), started, 0);
            return Ok(p);
        }
        let planned = {
            let planning = self.planning.lock().unwrap_or_else(|e| e.into_inner());
            let (prog, names) = compile_select(&planning, sel).map_err(CoordError::Sql)?;
            verify_with_catalog(&prog, &planning)
                .map_err(|e| internal(format!("coordinator plan failed verification: {e}")))?;
            let plan = classify(&planning, sel);
            let schemas: Vec<TableSchema> = match &plan {
                ScatterPlan::Gather { tables } => tables
                    .iter()
                    .map(|t| planning.table(&t.table).map(|tb| tb.schema.clone()))
                    .collect::<mammoth_types::Result<_>>()
                    .map_err(CoordError::Sql)?,
                ScatterPlan::Aggregates { .. } => Vec::new(),
            };
            Arc::new(PlannedSelect {
                prog,
                names,
                plan,
                schemas,
            })
        };
        self.plans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.clone(), Arc::clone(&planned));
        self.trace(EventKind::PlanCompile, format!("stmt={key}"), started, 0);
        Ok(planned)
    }

    /// Lossless scalar aggregates: ship the statement whole, merge the
    /// one-row partials with the verified [`aggregate_combine`] plan.
    fn select_aggregates(
        &self,
        names: Vec<String>,
        fragment_sql: &str,
        merges: &[PartialMerge],
    ) -> Result<QueryOutput, CoordError> {
        let n = self.nshards();
        let m = merges.len();
        let id = self.next_frag.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        self.trace(
            EventKind::ShardScatter,
            format!("id={id} aggregate shards={n}"),
            started,
            0,
        );
        let legs = self.scatter(|i| self.with_shard_read(i, |c| c.fragment(id, fragment_sql)));
        let mut partials: Vec<Vec<Value>> = Vec::with_capacity(n);
        for (i, leg) in legs.into_iter().enumerate() {
            let (cols, mut rows) = leg?;
            if rows.len() != 1 || cols.len() != m {
                return Err(internal(format!(
                    "shard {i} partial has shape {}x{}, expected 1x{m}",
                    rows.len(),
                    cols.len()
                )));
            }
            partials.push(rows.pop().expect("one row"));
        }
        // The engine types every lossless partial I64 or F64; a column is
        // F64 iff some shard produced a float (all-NULL defaults to I64,
        // which packsum/pack treat identically for nil).
        let types: Vec<LogicalType> = (0..m)
            .map(|j| {
                if partials.iter().any(|r| matches!(r[j], Value::F64(_))) {
                    LogicalType::F64
                } else {
                    LogicalType::I64
                }
            })
            .collect();
        let gather_started = Instant::now();
        let mut stage = Catalog::new();
        for (i, row) in partials.iter().enumerate() {
            let defs = types
                .iter()
                .enumerate()
                .map(|(j, ty)| ColumnDef::new(partial_column(j), *ty))
                .collect();
            let mut t =
                Table::new(TableSchema::new(shard_partials_table(i), defs)).map_err(internal)?;
            t.insert_row(row).map_err(internal)?;
            stage.create_table(t).map_err(internal)?;
        }
        let comb = aggregate_combine(merges, n).map_err(internal)?;
        verify_with_catalog(&comb, &stage)
            .map_err(|e| internal(format!("combine plan failed verification: {e}")))?;
        let outs = Interpreter::new(&stage).run(&comb).map_err(internal)?;
        self.trace(
            EventKind::ShardGather,
            format!("id={id} partials={n}"),
            gather_started,
            1,
        );
        render_outputs(names, outs).map_err(internal)
    }

    /// Everything else: gather each referenced table's column fragments,
    /// rebuild the tables, and re-run the original verified plan.
    fn select_gather(
        &self,
        prog: Program,
        names: Vec<String>,
        tables: &[GatherTable],
        schemas: &[TableSchema],
    ) -> Result<QueryOutput, CoordError> {
        let n = self.nshards();
        let id = self.next_frag.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        self.trace(
            EventKind::ShardScatter,
            format!("id={id} gather tables={}", tables.len()),
            started,
            0,
        );
        let legs = self.scatter(|i| {
            self.with_shard_read(i, |c| {
                let mut per_table = Vec::with_capacity(tables.len());
                for t in tables {
                    per_table.push(c.fragment(id, &t.fragment_sql)?);
                }
                Ok(per_table)
            })
        });
        let mut per_shard = Vec::with_capacity(n);
        for leg in legs {
            per_shard.push(leg?);
        }
        let gather_started = Instant::now();
        // Stage every shard's fragments under __shard{i}__{table} so the
        // verified gather plan can pack them in shard order.
        let mut stage = Catalog::new();
        for (i, shard_tables) in per_shard.iter().enumerate() {
            for ((t, schema), (_, rows)) in tables.iter().zip(schemas).zip(shard_tables.iter()) {
                let mut s = schema.clone();
                s.name = shard_table_name(i, &t.table);
                let mut tb = Table::new(s).map_err(internal)?;
                for row in rows {
                    tb.insert_row(row).map_err(internal)?;
                }
                stage.create_table(tb).map_err(internal)?;
            }
        }
        let columns: Vec<GatherColumn> = tables
            .iter()
            .flat_map(|t| {
                t.columns.iter().map(|c| GatherColumn {
                    table: t.table.clone(),
                    column: c.clone(),
                })
            })
            .collect();
        let comb = gather_combine(&columns, n).map_err(internal)?;
        verify_with_catalog(&comb, &stage)
            .map_err(|e| internal(format!("gather plan failed verification: {e}")))?;
        let packed = Interpreter::new(&stage).run(&comb).map_err(internal)?;
        // Rebuild each table whole from its packed columns.
        let mut gathered = Catalog::new();
        let mut packed = packed.into_iter();
        let mut total_rows: u64 = 0;
        for (t, schema) in tables.iter().zip(schemas) {
            let bats: Vec<Bat> = t
                .columns
                .iter()
                .map(|c| match packed.next() {
                    Some(MalValue::Bat(b)) => {
                        Ok(Arc::try_unwrap(b).unwrap_or_else(|a| (*a).clone()))
                    }
                    other => Err(internal(format!(
                        "gather of {}.{c} produced {other:?}, expected a BAT",
                        t.table
                    ))),
                })
                .collect::<Result<_, _>>()?;
            total_rows += bats.first().map_or(0, |b| b.len() as u64);
            gathered
                .create_table(Table::from_bats(schema.clone(), bats).map_err(internal)?)
                .map_err(internal)?;
        }
        // Optimize the original plan with facts of the REAL gathered data;
        // planning-catalog facts (0 rows) would be unsound here.
        let facts = column_facts(&gathered);
        let opt = default_pipeline_with_props(facts)
            .try_optimize(prog)
            .map_err(|e| internal(format!("optimizer rejected gathered plan: {e}")))?;
        let outs = Interpreter::new(&gathered).run(&opt).map_err(internal)?;
        self.trace(
            EventKind::ShardGather,
            format!("id={id} rows={total_rows}"),
            gather_started,
            total_rows,
        );
        render_outputs(names, outs).map_err(internal)
    }

    // ---------------------------------------------------------- utilities

    fn explain(&self, sel: &SelectStmt) -> Result<QueryOutput, CoordError> {
        let planning = self.planning.lock().unwrap_or_else(|e| e.into_inner());
        let (prog, _) = compile_select(&planning, sel).map_err(CoordError::Sql)?;
        drop(planning);
        // Display only: the coordinator's single-node view of the plan.
        // Fact-dependent rewrites are skipped (no real rows here).
        let opt = default_pipeline()
            .try_optimize(prog)
            .map_err(|e| internal(format!("optimizer rejected plan: {e}")))?;
        let rows = opt
            .to_string()
            .lines()
            .map(|l| vec![Value::Str(l.to_string())])
            .collect();
        Ok(QueryOutput::Table {
            columns: vec!["mal".to_string()],
            rows,
        })
    }

    /// `EXPLAIN SHARDING`: the partition map plus live per-shard row
    /// counts — one result row per (table, shard).
    fn explain_sharding(&self) -> Result<QueryOutput, CoordError> {
        let specs: Vec<(String, PartitionSpec)> = self
            .parts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(t, s)| (t.clone(), s.clone()))
            .collect();
        let mut rows = Vec::new();
        for (table, spec) in &specs {
            let id = self.next_frag.fetch_add(1, Ordering::Relaxed);
            let frag = format!("SELECT COUNT(*) FROM {table}");
            let legs = self.scatter(|i| self.with_shard_read(i, |c| c.fragment(id, &frag)));
            for (i, leg) in legs.into_iter().enumerate() {
                let (_, mut count_rows) = leg?;
                let count = count_rows
                    .pop()
                    .and_then(|mut r| r.pop())
                    .ok_or_else(|| internal("COUNT(*) fragment returned no rows"))?;
                rows.push(vec![
                    Value::Str(table.clone()),
                    Value::Str(spec.key_column.clone()),
                    Value::I64(i as i64),
                    Value::Str(self.addr_of(i)),
                    count,
                    Value::Str(self.health_of(i).label().into()),
                    Value::Str(
                        self.replicas[i]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .clone()
                            .unwrap_or_default(),
                    ),
                ]);
            }
        }
        Ok(QueryOutput::Table {
            columns: vec![
                "table".into(),
                "key_column".into(),
                "shard".into(),
                "addr".into(),
                "rows".into(),
                "health".into(),
                "replica".into(),
            ],
            rows,
        })
    }

    /// Execute one SQL statement across the shard set.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput, CoordError> {
        self.execute_stmt(parse_sql(sql)?)
    }

    /// [`Coordinator::execute`] for a statement that is already parsed —
    /// how the front end's listener hands every statement over.
    pub fn execute_stmt(&self, stmt: Statement) -> Result<QueryOutput, CoordError> {
        reject_stray_params(&stmt)?;
        self.dispatch(stmt)
    }

    /// Route a parsed (and, for `EXECUTE`, parameter-bound) statement.
    fn dispatch(&self, stmt: Statement) -> Result<QueryOutput, CoordError> {
        match stmt {
            Statement::Select(sel) => self.select(&sel),
            Statement::Explain(sel) => self.explain(&sel),
            Statement::ExplainSharding => self.explain_sharding(),
            Statement::Insert { table, rows } => self.insert(&table, rows),
            // What the shards are sent of these is the statement itself,
            // printed: `INSERT` above prints one per shard, and `SELECT`
            // scatters compiled fragments.
            Statement::CreateTable(ref schema) => self.create_table(&stmt.to_string(), schema),
            Statement::DropTable { ref name } => self.drop_table(&stmt.to_string(), name),
            Statement::Delete {
                ref table,
                ref where_,
            } => self.delete(&stmt.to_string(), table, where_),
            Statement::Checkpoint => self.broadcast(&stmt.to_string()).map(|_| QueryOutput::Ok),
            // Fully-bound SELECTs warm the scatter-plan cache at `PREPARE`
            // time, so the first `EXECUTE` is already a `plan.cache_hit`.
            Statement::Prepare { name, stmt } => {
                self.prepared.register(name, *stmt, |p| match &p.stmt {
                    Statement::Select(sel) if p.nparams == 0 => self.planned_select(sel).map(drop),
                    Statement::Select(_) | Statement::Insert { .. } | Statement::Delete { .. } => {
                        Ok(())
                    }
                    _ => Err(CoordError::Sql(Error::Unsupported(
                        "the coordinator prepares SELECT, INSERT and DELETE statements".into(),
                    ))),
                })?;
                Ok(QueryOutput::Ok)
            }
            Statement::Execute { name, args } => {
                // a shard is sent its leg of the bound statement as text
                let non_finite = |v: &&Value| matches!(v, Value::F64(x) if !x.is_finite());
                if let Some(v) = args.iter().find(non_finite) {
                    return Err(CoordError::Sql(Error::Unsupported(format!(
                        "a non-finite float ({v}) has no SQL literal to send a shard"
                    ))));
                }
                let p = self.prepared.lookup(&name, args.len())?;
                self.dispatch(p.stmt.bind_params(&args)?)
            }
            Statement::Deallocate { name } => {
                self.prepared.remove(&name)?;
                Ok(QueryOutput::Ok)
            }
            Statement::Trace(_) => Err(CoordError::Sql(Error::Unsupported(
                "TRACE profiles a single node; connect to a shard directly".into(),
            ))),
            Statement::ExplainReplication | Statement::Promote => {
                Err(CoordError::Sql(Error::Unsupported(format!(
                    "{stmt} is answered by a node, not by the coordinator in front of it"
                ))))
            }
        }
    }
}

/// Liveness probe: can a TCP connect to `addr` complete within
/// `timeout`? Deliberately below the protocol layer — it costs the shard
/// one accept and no session, and it bypasses FaultNet's connect hook so
/// the chaos tier's scheduled faults land on real statements, never on
/// probes.
fn probe(addr: &str, timeout: Duration) -> bool {
    use std::net::ToSocketAddrs;
    let Ok(mut resolved) = addr.to_socket_addrs() else {
        return false;
    };
    resolved
        .next()
        .is_some_and(|sa| std::net::TcpStream::connect_timeout(&sa, timeout).is_ok())
}
