//! The distributed differential-test tier: a 3-shard cluster must be
//! indistinguishable from a single node.
//!
//! The invariants under test:
//!
//! * **Differential equivalence** — a seeded randomized SQL workload
//!   (DDL + mixed DML / point and range SELECTs / aggregates / joins /
//!   GROUP BY) executed through the scatter-gather coordinator produces
//!   *identical* result tables to the same workload on a single-node
//!   [`Session`], under both the serial and the parallel engine on the
//!   shards. Rows compare as multisets except under ORDER BY (on the
//!   unique key), where order is exact.
//! * **Typed partial failure** — killing one shard mid-workload makes
//!   fan-out statements fail with `SHARD_UNAVAILABLE` *within the
//!   coordinator's deadline*: no hang, and never a silently truncated
//!   result. Afterwards every shard's WAL obeys the durability contract
//!   per shard: `acked <= recovered <= acked + 1`.
//! * **Partitioner laws** (property tests) — every row hashes to exactly
//!   one shard, routing is a pure function of (key, shard count) and so
//!   survives coordinator restarts, and the union of per-shard splits is
//!   the original row multiset.
//!
//! Floating-point aggregates are deliberately absent from the randomized
//! workload: the coordinator itself routes `SUM(f64)`/`AVG` through the
//! gather path for exactness, but the recombined table packs shard
//! fragments in shard order, so a *re-run* float sum may associate in a
//! different order than single-node insertion order. Integer aggregates
//! and order-independent float MIN/MAX stay bit-identical.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mammoth_server::{RetryPolicy, Server, ServerConfig, SessionSpec};
use mammoth_shard::{shard_of, CoordError, Coordinator, CoordinatorConfig, PartitionMap};
use mammoth_sql::{QueryOutput, Session};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const NSHARDS: usize = 3;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mammoth-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Start an in-memory shard fleet; `parallel` flips the shards onto the
/// dataflow engine.
fn start_shards(parallel: bool) -> (Vec<Server>, Vec<String>) {
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..NSHARDS {
        let mut spec = SessionSpec::in_memory();
        if parallel {
            spec.parallel = Some(2);
        }
        let srv = Server::start(ServerConfig {
            spec,
            ..ServerConfig::default()
        })
        .unwrap();
        addrs.push(srv.local_addr().to_string());
        servers.push(srv);
    }
    (servers, addrs)
}

fn coordinator(addrs: Vec<String>) -> Coordinator {
    let mut cfg = CoordinatorConfig::new(addrs);
    cfg.deadline = Duration::from_millis(1500);
    cfg.retry = RetryPolicy {
        attempts: 2,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(25),
        seed: 7,
    };
    Coordinator::new(cfg)
}

/// Canonical form: rows rendered to strings; sorted unless `ordered`.
fn canon(out: &QueryOutput, ordered: bool) -> String {
    match out {
        QueryOutput::Ok => "OK".into(),
        QueryOutput::Affected(n) => format!("AFFECTED {n}"),
        QueryOutput::Table { columns, rows } => {
            let mut lines: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            if !ordered {
                lines.sort();
            }
            format!("{columns:?} | {}", lines.join(" ; "))
        }
    }
}

/// One statement, run on both sides and compared.
fn differ(
    coord: &Coordinator,
    single: &mut Session,
    sql: &str,
    ordered: bool,
) -> (bool, Option<String>) {
    let distributed = coord.execute(sql);
    let local = single.execute(sql);
    match (distributed, local) {
        (Ok(d), Ok(l)) => {
            let (d, l) = (canon(&d, ordered), canon(&l, ordered));
            assert_eq!(d, l, "distributed vs single-node diverged on: {sql}");
            (true, Some(d))
        }
        (Err(de), Ok(l)) => {
            panic!("only distributed failed on {sql}: {de} (single-node said {l:?})")
        }
        (Ok(d), Err(le)) => {
            panic!("only single-node failed on {sql}: {le} (distributed said {d:?})")
        }
        // Both reject (e.g. duplicate key-less shapes): acceptable, no
        // message comparison — the layers word errors differently.
        (Err(_), Err(_)) => (false, None),
    }
}

struct Workload {
    rng: StdRng,
    next_id: i64,
    live_ids: Vec<i64>,
}

impl Workload {
    fn new(seed: u64) -> Workload {
        Workload {
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            live_ids: Vec::new(),
        }
    }

    fn word(&mut self) -> String {
        let len = self.rng.random_range(1usize..6);
        (0..len)
            .map(|_| (b'a' + self.rng.random_range(0u8..26)) as char)
            .collect()
    }

    /// The next statement and whether its result order is significant.
    fn next_stmt(&mut self) -> (String, bool) {
        match self.rng.random_range(0u32..10) {
            // Multi-row INSERT into t (weight 3: data must grow).
            0..=2 => {
                let n = self.rng.random_range(1usize..6);
                let rows: Vec<String> = (0..n)
                    .map(|_| {
                        let id = self.next_id;
                        self.next_id += 1;
                        self.live_ids.push(id);
                        let v = self.rng.random_range(-20i64..20);
                        let s = self.word();
                        format!("({id}, {v}, '{s}')")
                    })
                    .collect();
                (format!("INSERT INTO t VALUES {}", rows.join(", ")), false)
            }
            3 => {
                let id = self.next_id;
                self.next_id += 1;
                let w = self.rng.random_range(0i64..50);
                (format!("INSERT INTO u VALUES ({id}, {w})"), false)
            }
            // Point DELETE on the partition key — routes to one shard.
            4 => {
                let id = if self.live_ids.is_empty() || self.rng.random_bool(0.3) {
                    self.rng.random_range(0i64..(self.next_id + 5).max(5))
                } else {
                    let i = self.rng.random_range(0..self.live_ids.len());
                    self.live_ids.swap_remove(i)
                };
                (format!("DELETE FROM t WHERE id = {id}"), false)
            }
            // Range DELETE — broadcasts.
            5 => {
                let c = self.rng.random_range(-20i64..20);
                (
                    format!("DELETE FROM t WHERE v < {c} AND v > {}", c - 3),
                    false,
                )
            }
            // Filtered scan with ORDER BY on the unique key: exact order.
            6 => {
                let c = self.rng.random_range(-20i64..20);
                let lim = self.rng.random_range(1usize..12);
                (
                    format!("SELECT id, v, s FROM t WHERE v >= {c} ORDER BY id LIMIT {lim}"),
                    true,
                )
            }
            // Lossless scalar aggregates — the packsum pushdown path.
            7 => {
                let c = self.rng.random_range(-20i64..20);
                (
                    format!("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE v <= {c}"),
                    false,
                )
            }
            // Grouped aggregate — the gather path, multiset compare.
            8 => ("SELECT v, COUNT(*) FROM t GROUP BY v".into(), false),
            // Join — both tables gathered whole.
            _ => (
                "SELECT t.id, t.v, u.w FROM t JOIN u ON t.id = u.id".into(),
                false,
            ),
        }
    }
}

fn run_differential(seed: u64, parallel: bool) {
    let (servers, addrs) = start_shards(parallel);
    let coord = coordinator(addrs);
    let mut single = Session::new();

    differ(
        &coord,
        &mut single,
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, s VARCHAR)",
        false,
    );
    differ(
        &coord,
        &mut single,
        "CREATE TABLE u (id BIGINT NOT NULL, w BIGINT)",
        false,
    );

    let mut w = Workload::new(seed);
    let mut compared = 0usize;
    for _ in 0..120 {
        let (sql, ordered) = w.next_stmt();
        let (ok, _) = differ(&coord, &mut single, &sql, ordered);
        if ok {
            compared += 1;
        }
    }
    assert!(
        compared > 100,
        "workload degenerated: only {compared} comparisons"
    );

    // The final full-table states agree too.
    differ(
        &coord,
        &mut single,
        "SELECT id, v, s FROM t ORDER BY id",
        true,
    );
    differ(&coord, &mut single, "SELECT id, w FROM u ORDER BY id", true);

    for s in servers {
        s.shutdown().unwrap();
    }
}

#[test]
fn randomized_workload_matches_single_node_serial() {
    for seed in [11, 42] {
        run_differential(seed, false);
    }
}

#[test]
fn randomized_workload_matches_single_node_parallel() {
    run_differential(1009, true);
}

#[test]
fn explain_sharding_accounts_for_every_row() {
    let (servers, addrs) = start_shards(false);
    let coord = coordinator(addrs);
    coord
        .execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)")
        .unwrap();
    let rows: Vec<String> = (0..40).map(|i| format!("({i}, {})", i * 2)).collect();
    coord
        .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    match coord.execute("EXPLAIN SHARDING").unwrap() {
        QueryOutput::Table { columns, rows } => {
            assert_eq!(
                columns,
                vec![
                    "table",
                    "key_column",
                    "shard",
                    "addr",
                    "rows",
                    "health",
                    "replica"
                ]
            );
            for r in &rows {
                assert_eq!(r[5], Value::Str("healthy".into()), "no monitor, no faults");
                assert_eq!(r[6], Value::Str(String::new()), "no replicas configured");
            }
            assert_eq!(rows.len(), NSHARDS, "one report row per shard");
            let total: i64 = rows
                .iter()
                .map(|r| match &r[4] {
                    Value::I64(n) => *n,
                    other => panic!("count column held {other:?}"),
                })
                .sum();
            assert_eq!(total, 40, "per-shard counts must sum to the table size");
            // And the counts match what the partitioner predicts.
            for r in &rows {
                let (Value::I64(shard), Value::I64(count)) = (&r[2], &r[4]) else {
                    panic!("unexpected row shape {r:?}");
                };
                let predicted = (0..40i64)
                    .filter(|k| shard_of(&Value::I64(*k), NSHARDS) == *shard as usize)
                    .count() as i64;
                assert_eq!(*count, predicted, "shard {shard} row count");
            }
        }
        other => panic!("EXPLAIN SHARDING returned {other:?}"),
    }
    for s in servers {
        s.shutdown().unwrap();
    }
}

// --------------------------------------------------------------- failure

/// Kill one shard at a randomized point mid-workload: fan-out statements
/// must fail typed and bounded, and every shard's recovered WAL must hold
/// `acked <= recovered <= acked + 1` rows.
#[test]
fn shard_kill_returns_shard_unavailable_and_wals_recover() {
    for seed in [3u64, 77] {
        shard_kill_case(seed);
    }
}

fn shard_kill_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dirs: Vec<std::path::PathBuf> = (0..NSHARDS)
        .map(|i| tmpdir(&format!("kill-{seed}-{i}")))
        .collect();
    let mut servers: Vec<Option<Server>> = Vec::new();
    let mut addrs = Vec::new();
    for dir in &dirs {
        let srv = Server::start(ServerConfig {
            spec: SessionSpec::durable(dir),
            ..ServerConfig::default()
        })
        .unwrap();
        addrs.push(srv.local_addr().to_string());
        servers.push(Some(srv));
    }
    let deadline = Duration::from_millis(800);
    let mut cfg = CoordinatorConfig::new(addrs);
    cfg.deadline = deadline;
    cfg.retry = RetryPolicy {
        attempts: 2,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(25),
        seed,
    };
    let coord = Coordinator::new(cfg);

    coord
        .execute("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)")
        .unwrap();

    // Acked rows per shard, tracked through the same pure partitioner the
    // coordinator uses — stability of that map is itself under test.
    let mut acked = [0u64; NSHARDS];
    let mut next_id = 0i64;
    let kill_at = rng.random_range(5usize..20);
    let victim = rng.random_range(0..NSHARDS);
    for step in 0..kill_at {
        let n = rng.random_range(1usize..4);
        let mut rows = Vec::new();
        for _ in 0..n {
            let id = next_id;
            next_id += 1;
            rows.push(format!("({id}, {})", id * 3));
        }
        let sql = format!("INSERT INTO t VALUES {}", rows.join(", "));
        match coord.execute(&sql).unwrap() {
            QueryOutput::Affected(k) => assert_eq!(k, n, "step {step}"),
            other => panic!("INSERT answered {other:?}"),
        }
        for id in (next_id - n as i64)..next_id {
            acked[shard_of(&Value::I64(id), NSHARDS)] += 1;
        }
    }

    // Kill the victim (shutdown closes its listener and drains — the
    // coordinator sees connection failures exactly like a dead process).
    servers[victim].take().unwrap().shutdown().unwrap();

    // Fan-out reads now fail typed, within the deadline budget, and
    // return no partial rows (an Err carries none by construction).
    for sql in ["SELECT COUNT(*), SUM(v) FROM t", "SELECT id, v FROM t"] {
        let started = Instant::now();
        match coord.execute(sql) {
            Err(CoordError::Unavailable(msg)) => {
                assert!(
                    msg.contains(&format!("shard {victim}")),
                    "error must name the dead shard: {msg}"
                );
            }
            other => panic!("expected SHARD_UNAVAILABLE for {sql}, got {other:?}"),
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < deadline * 2 + Duration::from_secs(1),
            "{sql} took {elapsed:?}, deadline {deadline:?} — the failure must be bounded"
        );
    }

    // Single-row inserts keep flowing: ones owned by a live shard land
    // and ack; ones owned by the victim fail typed. Either way at most
    // one unacked row can exist per shard.
    for _ in 0..6 {
        let id = next_id;
        next_id += 1;
        let owner = shard_of(&Value::I64(id), NSHARDS);
        let res = coord.execute(&format!("INSERT INTO t VALUES ({id}, 0)"));
        match res {
            Ok(QueryOutput::Affected(1)) => {
                assert_ne!(owner, victim, "the dead shard cannot ack");
                acked[owner] += 1;
            }
            Err(CoordError::Unavailable(_)) => {
                assert_eq!(owner, victim, "only the dead shard may be unavailable");
            }
            other => panic!("single-row INSERT answered {other:?}"),
        }
    }

    // Drain the survivors, then audit every shard's durable state.
    for s in servers.iter_mut() {
        if let Some(srv) = s.take() {
            srv.shutdown().unwrap();
        }
    }
    for (i, dir) in dirs.iter().enumerate() {
        let mut session = Session::open_durable(dir).unwrap();
        let recovered = match session.execute("SELECT COUNT(*) FROM t").unwrap() {
            QueryOutput::Table { rows, .. } => match rows[0][0] {
                Value::I64(n) => n as u64,
                ref other => panic!("COUNT(*) returned {other:?}"),
            },
            other => panic!("COUNT(*) returned {other:?}"),
        };
        assert!(
            acked[i] <= recovered && recovered <= acked[i] + 1,
            "shard {i}: acked {} recovered {recovered}",
            acked[i]
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ------------------------------------------------------------ properties

mod partitioner_props {
    use super::*;
    use proptest::prelude::*;

    /// `(selector, int, string)` → a Value covering every hashable class.
    fn value_from(sel: u8, x: i64, s: &str) -> Value {
        match sel % 6 {
            0 => Value::Null,
            1 => Value::Bool(x % 2 == 0),
            2 => Value::I32(x as i32),
            3 => Value::I64(x),
            4 => Value::F64(x as f64 / 3.0),
            _ => Value::Str(s.to_string()),
        }
    }

    proptest! {
        #[test]
        fn prop_every_value_routes_to_exactly_one_shard(
            picks in proptest::collection::vec((0u8..=255, -5000i64..5000, "[a-z]{0,8}"), 0..64),
            n in 1usize..8,
        ) {
            for (sel, x, s) in &picks {
                let v = value_from(*sel, *x, s);
                let shard = shard_of(&v, n);
                prop_assert!(shard < n, "{v:?} routed to {shard} of {n}");
                // Pure function: re-hashing never moves the row.
                prop_assert_eq!(shard, shard_of(&v, n));
                prop_assert_eq!(shard, shard_of(&v.clone(), n));
            }
        }

        #[test]
        fn prop_routing_survives_coordinator_restart(
            keys in proptest::collection::vec(-5000i64..5000, 0..64),
            n in 1usize..8,
        ) {
            // A "restart" rebuilds the partition map from the same schema
            // list; placement must not move. The map carries no state
            // beyond (key column, shard count), so two independent builds
            // must agree on every row.
            let schema = TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", LogicalType::I64),
                    ColumnDef::new("v", LogicalType::I64),
                ],
            );
            let mut before = PartitionMap::default();
            before.add_table(&schema).unwrap();
            let mut after = PartitionMap::default();
            after.add_table(&schema).unwrap();
            let sb = before.spec("t").unwrap();
            let sa = after.spec("t").unwrap();
            prop_assert_eq!(sb.key_index, sa.key_index);
            prop_assert_eq!(&sb.key_column, &sa.key_column);
            for k in &keys {
                let v = Value::I64(*k);
                prop_assert_eq!(shard_of(&v, n), shard_of(&v, n));
            }
        }

        #[test]
        fn prop_union_of_shard_splits_is_original_multiset(
            rows in proptest::collection::vec((-5000i64..5000, -50i64..50), 0..128),
            n in 1usize..8,
        ) {
            // Split rows by their key like INSERT routing does…
            let mut per_shard: Vec<Vec<(i64, i64)>> = vec![Vec::new(); n];
            for (id, v) in &rows {
                per_shard[shard_of(&Value::I64(*id), n)].push((*id, *v));
            }
            // …then the union of the per-shard "scans" is the table.
            let mut union: Vec<(i64, i64)> = per_shard.into_iter().flatten().collect();
            let mut original = rows.clone();
            union.sort_unstable();
            original.sort_unstable();
            prop_assert_eq!(union, original);
        }
    }
}

// -------------------------------------------------- prepared statements

/// The coordinator and the single-node session keep their prepared
/// statements in the same registry type, so a client that misuses the
/// verbs reads the same words from either: duplicate `PREPARE`, unknown
/// name, wrong arity and a stray `?` fail with byte-identical text.
#[test]
fn prepared_statement_errors_read_the_same_as_single_node() {
    let (servers, addrs) = start_shards(false);
    let coord = coordinator(addrs);
    let mut single = Session::new();
    for setup in [
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)",
        "INSERT INTO t VALUES (1, 10), (2, 20)",
        "PREPARE q AS SELECT v FROM t WHERE id = ?",
    ] {
        coord.execute(setup).unwrap();
        single.execute(setup).unwrap();
    }
    assert_eq!(
        coord.execute("EXECUTE q (2)").unwrap(),
        single.execute("EXECUTE q (2)").unwrap()
    );
    for misuse in [
        "PREPARE q AS SELECT id FROM t",
        "PREPARE Q AS SELECT id FROM t",
        "EXECUTE nope (1)",
        "EXECUTE q",
        "EXECUTE q (1, 2)",
        "DEALLOCATE nope",
        "SELECT v FROM t WHERE id = ?",
        "DELETE FROM t WHERE id = ?",
    ] {
        let sharded = match coord.execute(misuse) {
            Err(CoordError::Sql(e)) => e.to_string(),
            other => panic!("{misuse}: coordinator answered {other:?}"),
        };
        let local = single.execute(misuse).unwrap_err().to_string();
        assert_eq!(sharded, local, "{misuse}");
    }
    for s in servers {
        s.shutdown().unwrap();
    }
}

// -------------------------------------------------- wire-level front end

/// The coordinator's front end speaks the ordinary protocol: an existing
/// `Client` runs DDL, DML, scatter-gather SELECTs, and receives typed
/// `SHARD_UNAVAILABLE` after a shard dies — all over real sockets.
#[test]
fn front_end_serves_ordinary_clients() {
    use mammoth_server::{Client, ClientError, ErrorCode, Response};
    use mammoth_shard::{FrontConfig, FrontEnd};

    let (mut servers, addrs) = start_shards(false);
    let coord = Arc::new(coordinator(addrs));
    let front = FrontEnd::start(FrontConfig::new("127.0.0.1:0"), coord).unwrap();
    let addr = front.local_addr().to_string();

    let mut c = Client::connect(&addr, "itest", "").unwrap();
    assert!(matches!(
        c.query("CREATE TABLE t (id BIGINT NOT NULL, v BIGINT)")
            .unwrap(),
        Response::Ok
    ));
    let rows: Vec<String> = (0..30).map(|i| format!("({i}, {})", 100 - i)).collect();
    assert!(matches!(
        c.query(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap(),
        Response::Affected(30)
    ));
    match c.query("SELECT COUNT(*), MIN(v), MAX(v) FROM t").unwrap() {
        Response::Table { rows, .. } => {
            assert_eq!(
                rows,
                vec![vec![Value::I64(30), Value::I64(71), Value::I64(100)]]
            );
        }
        other => panic!("aggregate over the wire answered {other:?}"),
    }
    match c
        .query("SELECT id FROM t WHERE v > 95 ORDER BY id")
        .unwrap()
    {
        Response::Table { rows, .. } => {
            let ids: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
            let expected: Vec<Value> = (0..5).map(Value::I64).collect();
            assert_eq!(ids, expected.iter().collect::<Vec<_>>());
        }
        other => panic!("scan over the wire answered {other:?}"),
    }

    // A dead shard surfaces as the typed wire code, not a hang or a
    // truncated table.
    servers.remove(1).shutdown().unwrap();
    match c.query("SELECT COUNT(*) FROM t") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
        }
        other => panic!("expected SHARD_UNAVAILABLE frame, got {other:?}"),
    }

    c.quit().unwrap();
    front.shutdown().unwrap();
    for s in servers {
        s.shutdown().unwrap();
    }
}
