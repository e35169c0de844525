//! The distributed differential-test tier: a 3-shard cluster must be
//! indistinguishable from a single node.
//!
//! The invariants under test:
//!
//! * **Differential equivalence** — the statement generator's mixed
//!   workload (`support::gen`: DDL, multi-row INSERTs, point, range and
//!   conjunctive DELETEs, filtered scans, aggregates, GROUP BY, joins,
//!   CHECKPOINT and DROP) executed through the scatter-gather coordinator
//!   produces *identical* result tables to the same workload on a
//!   single-node [`Session`], under both the serial and the parallel engine
//!   on the shards. Rows compare as multisets except under ORDER BY (the
//!   generator orders by the unique key only here), where order is exact.
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
//! Floating-point sums are deliberately absent from the generated workload
//! (`float_sums` is off): the coordinator itself routes `SUM(f64)`/`AVG`
//! through the gather path for exactness, but the recombined table packs
//! shard fragments in shard order, so a *re-run* float sum may associate in
//! a different order than single-node insertion order. Integer aggregates
//! and order-independent float MIN/MAX stay bit-identical.

use std::time::{Duration, Instant};

use mammoth_shard::{shard_of, CoordError, Coordinator, PartitionMap};
use mammoth_sql::{parse_sql, QueryOutput, Scalar, Session, Statement};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};

const NSHARDS: usize = 3;

mod support;
use support::cluster::{Cluster, Spec};
use support::gen::Gen;

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

/// One statement's text, run on both sides and compared; whether both ran
/// it.
fn differ(coord: &Coordinator, single: &mut Session, sql: &str, ctx: &str) -> bool {
    // ORDER BY is on the unique key: the order is exact
    let ordered = matches!(parse_sql(sql), Ok(Statement::Select(s)) if s.order_by.is_some());
    match (coord.execute(sql), single.execute(sql)) {
        (Ok(d), Ok(l)) => {
            let (d, l) = (canon(&d, ordered), canon(&l, ordered));
            assert_eq!(d, l, "distributed vs single-node diverged, {ctx}: {sql}");
            true
        }
        (Err(de), Ok(l)) => {
            panic!("only distributed failed, {ctx}: {sql}: {de} (single-node said {l:?})")
        }
        (Ok(d), Err(le)) => {
            panic!("only single-node failed, {ctx}: {sql}: {le} (distributed said {d:?})")
        }
        // Both reject (a CHECKPOINT on in-memory nodes): acceptable, no
        // message comparison — the layers word errors differently.
        (Err(_), Err(_)) => false,
    }
}

/// 120 statements of the generated workload, on the cluster and on one
/// session, then every live table whole.
fn run_differential(seed: u64, parallel: bool) {
    let mut spec = Spec::in_memory(NSHARDS);
    for shard in &mut spec.shards {
        // `parallel` puts the shards' SELECTs on the dataflow engine
        shard.parallel = parallel.then_some(2);
    }
    let cluster = Cluster::start(spec);
    let coord = cluster.coord();
    let mut single = Session::new();

    let mut g = Gen::new(seed);
    (g.key_order, g.float_sums, g.refusals) = (true, false, false);
    let mut compared = 0usize;
    for step in 0..120 {
        let stmt = g.next().unwrap();
        let ctx = format!("seed {seed} step {step}");
        compared += differ(&coord, &mut single, &g.render(&stmt), &ctx) as usize;
    }
    assert!(
        compared > 100,
        "workload degenerated: only {compared} comparisons"
    );

    // The final full-table states agree too.
    for t in (0..g.tables.len()).filter(|&t| g.live[t]) {
        let schema = &g.tables[t];
        let cols: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        let sql = format!("SELECT {} FROM {} ORDER BY k", cols.join(", "), schema.name);
        differ(&coord, &mut single, &sql, "final state");
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
    let cluster = Cluster::start(Spec::in_memory(NSHARDS));
    let coord = cluster.coord();
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
    let deadline = Duration::from_millis(800);
    let mut cluster = Cluster::start(Spec {
        deadline,
        seed,
        ..Spec::durable(NSHARDS)
    });
    let coord = cluster.coord();
    let mut g = Gen::new(seed);
    g.refusals = false;
    let create = g.create(0);
    coord.execute(&g.render(&create)).unwrap();

    // Acked rows per shard, tracked through the same pure partitioner the
    // coordinator uses — stability of that map is itself under test.
    let mut acked = [0u64; NSHARDS];
    let owner = |row: &[Scalar]| shard_of(row[0].as_lit().unwrap(), NSHARDS);
    let (kill_at, victim) = (5 + g.below(15), g.below(NSHARDS));
    for step in 0..kill_at {
        let stmt = g.insert(0);
        let Statement::Insert { rows, .. } = &stmt else {
            unreachable!()
        };
        let out = coord.execute(&g.render(&stmt)).unwrap();
        let ctx = format!("seed {seed} step {step}: {stmt}");
        assert_eq!(out, QueryOutput::Affected(rows.len()), "{ctx}");
        rows.iter().for_each(|r| acked[owner(r)] += 1);
    }

    // Kill the victim (shutdown closes its listener and drains — the
    // coordinator sees connection failures exactly like a dead process).
    cluster.kill(victim);

    // Fan-out reads now fail typed, within the deadline budget, and
    // return no partial rows (an Err carries none by construction).
    for sql in ["SELECT COUNT(*), SUM(b) FROM t", "SELECT k, b FROM t"] {
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
        let stmt = g.insert_rows(0, 1);
        let Statement::Insert { rows, .. } = &stmt else {
            unreachable!()
        };
        let owner = owner(&rows[0]);
        match coord.execute(&g.render(&stmt)) {
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
    for (i, acked) in acked.into_iter().enumerate() {
        let recovered = cluster.audit(i).len() as u64;
        assert!(
            acked <= recovered && recovered <= acked + 1,
            "shard {i}: acked {acked} recovered {recovered}"
        );
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
    let cluster = Cluster::start(Spec::in_memory(NSHARDS));
    let coord = cluster.coord();
    let mut single = Session::new();
    for setup in [
        "CREATE TABLE t (id BIGINT NOT NULL, v BIGINT, s VARCHAR)",
        "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b')",
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
        "SELECT MAX(s) FROM t",
        "SELECT id, SUM(s) FROM t GROUP BY id",
    ] {
        let sharded = match coord.execute(misuse) {
            Err(CoordError::Sql(e)) => e.to_string(),
            other => panic!("{misuse}: coordinator answered {other:?}"),
        };
        let local = single.execute(misuse).unwrap_err().to_string();
        assert_eq!(sharded, local, "{misuse}");
    }
    // the coordinator compiles a parameterized SELECT when EXECUTE binds it
    // (a single node, at PREPARE): the refusal reads the same either way
    coord
        .execute("PREPARE r AS SELECT AVG(s) FROM t WHERE id > ?")
        .unwrap();
    let sharded = coord.execute("EXECUTE r (0)").unwrap_err().to_string();
    let local = single.execute("SELECT AVG(s) FROM t WHERE id > 0");
    assert_eq!(sharded, local.unwrap_err().to_string());
}

// -------------------------------------------------- wire-level front end

/// The coordinator's front end speaks the ordinary protocol: an existing
/// `Client` runs DDL, DML, scatter-gather SELECTs, and receives typed
/// `SHARD_UNAVAILABLE` after a shard dies — all over real sockets.
#[test]
fn front_end_serves_ordinary_clients() {
    use mammoth_server::{Client, ClientError, ErrorCode, Response};
    use mammoth_shard::FrontConfig;

    let mut cluster = Cluster::start(Spec::in_memory(NSHARDS));
    let front = cluster.front(FrontConfig::new("127.0.0.1:0"));
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
    cluster.kill(1);
    match c.query("SELECT COUNT(*) FROM t") {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::ShardUnavailable);
        }
        other => panic!("expected SHARD_UNAVAILABLE frame, got {other:?}"),
    }

    c.quit().unwrap();
    front.shutdown().unwrap();
}
