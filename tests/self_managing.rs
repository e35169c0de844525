//! Integration tests for the §6.1 "new species": cracking and recycling
//! working inside the full engine, at a scale unit tests don't reach.

use mammoth::cracking::{Bound, CrackerColumn};
use mammoth::mal::{default_pipeline, EventKind, ProfiledRun, Program};
use mammoth::recycler::{run_recycling, run_recycling_profiled, EvictPolicy, Recycler};
use mammoth::sql::{compile_select, parse_sql, render_outputs, Statement};
use mammoth::storage::{Bat, Table};
use mammoth::types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth::workload::{range_query_log, skyserver_log, uniform_i64, QueryPattern};
use mammoth::{Database, QueryOutput};

/// The recycler beside the engine: a [`Database`] takes the writes, its
/// SELECTs are compiled to the column-at-a-time plan (`compile_select` +
/// `default_pipeline()`, unfused — the intermediates are what recycles) and
/// run by the recycling scheduler, and the invalidation a write owes the
/// cache is spelled out, column by column.
struct Recycling {
    db: Database,
    rec: Recycler,
}

impl Recycling {
    /// A database holding `table`, and a roomy cache that admits anything.
    fn over(table: Table) -> Recycling {
        let mut db = Database::new();
        db.catalog_mut().create_table(table).unwrap();
        let rec = Recycler::new(64 << 20, EvictPolicy::BenefitPerByte);
        Recycling { db, rec }
    }

    fn plan(&self, sql: &str) -> (Program, Vec<String>) {
        let Statement::Select(sel) = parse_sql(sql).unwrap() else {
            panic!("not a SELECT: {sql}")
        };
        let (prog, names) = compile_select(self.db.catalog(), &sel).unwrap();
        let prog = default_pipeline().optimize(prog);
        assert!(!prog.to_string().contains("vector.pipeline"), "{prog}");
        (prog, names)
    }

    fn select(&mut self, sql: &str) -> QueryOutput {
        let (prog, names) = self.plan(sql);
        let (outputs, _) = run_recycling(self.db.catalog(), &prog, &mut self.rec).unwrap();
        render_outputs(names, outputs).unwrap()
    }

    fn count(&mut self, sql: &str) -> i64 {
        match self.select(sql) {
            QueryOutput::Table { rows, .. } => rows[0][0].as_i64().unwrap(),
            other => panic!("{sql}: {other:?}"),
        }
    }

    fn profiled(&mut self, sql: &str) -> ProfiledRun {
        let (prog, _) = self.plan(sql);
        run_recycling_profiled(self.db.catalog(), &prog, &mut self.rec)
            .unwrap()
            .1
    }

    /// A write to `table`, then what DML owes the cache.
    fn write(&mut self, sql: &str, table: &str, columns: &[&str]) {
        self.db.execute(sql).unwrap();
        for c in columns {
            self.rec.invalidate(&format!("{table}.{c}"));
        }
    }
}

/// One BIGINT column `t.a` of 300 000 rows cycling through `0..7`.
fn sevens() -> Table {
    let data: Vec<i64> = (0..300_000).map(|i| i % 7).collect();
    let schema = TableSchema::new("t", vec![ColumnDef::new("a", LogicalType::I64)]);
    Table::from_bats(schema, vec![Bat::from_vec(data)]).unwrap()
}

/// Cracking answers every query of a realistic log exactly like a scan,
/// while physically reorganizing the column — and converges: late queries
/// touch almost nothing.
#[test]
fn cracking_converges_on_a_query_log() {
    let n = 200_000;
    let data = uniform_i64(n, 0, 1_000_000, 5);
    let queries = range_query_log(150, 1_000_000, 0.002, QueryPattern::Random, 6);
    let mut cracker = CrackerColumn::new(data.clone());

    let mut touched_first_half = 0u64;
    let mut touched_second_half = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let before = cracker.stats().tuples_touched;
        let got = cracker.select_count(Bound::Incl(q.lo), Bound::Excl(q.hi));
        let expect = data.iter().filter(|&&v| v >= q.lo && v < q.hi).count();
        assert_eq!(got, expect, "query {i}");
        let delta = cracker.stats().tuples_touched - before;
        if i < queries.len() / 2 {
            touched_first_half += delta;
        } else {
            touched_second_half += delta;
        }
    }
    assert!(
        touched_second_half * 4 < touched_first_half,
        "later queries must touch far less: {touched_first_half} vs {touched_second_half}"
    );
    assert!(cracker.check_invariant());
}

/// Cracking under a mixed read/write workload stays exact.
#[test]
fn cracking_with_interleaved_updates() {
    let n = 50_000;
    let data = uniform_i64(n, 0, 100_000, 9);
    let mut cracker = CrackerColumn::new(data.clone()).with_merge_threshold(512);
    // oracle state
    let mut live: Vec<(u32, i64, bool)> = data
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u32, v, true))
        .collect();
    let inserts = uniform_i64(2000, 0, 100_000, 10);
    let queries = range_query_log(100, 100_000, 0.01, QueryPattern::Random, 11);
    for (i, q) in queries.iter().enumerate() {
        // every other query, mutate: 20 inserts + 10 deletes
        if i % 2 == 0 {
            for k in 0..20 {
                let v = inserts[(i * 20 + k) % inserts.len()];
                let row = cracker.insert(v);
                live.push((row, v, true));
            }
            for k in 0..10 {
                let idx = (i * 37 + k * 101) % live.len();
                let (row, _, alive) = live[idx];
                assert_eq!(cracker.delete(row), alive);
                live[idx].2 = false;
            }
        }
        let got = cracker.select_count(Bound::Incl(q.lo), Bound::Excl(q.hi));
        let expect = live
            .iter()
            .filter(|(_, v, alive)| *alive && *v >= q.lo && *v < q.hi)
            .count();
        assert_eq!(got, expect, "query {i}");
    }
    assert!(cracker.check_invariant());
}

/// The recycler pays off on a Skyserver-like log and never serves stale
/// results across DML, over the plans the SQL front-end compiles.
#[test]
fn recycler_on_skyserver_log_with_dml() {
    // moderate table so the test stays quick
    let ra = uniform_i64(20_000, 0, 100_000, 1);
    let dec = uniform_i64(20_000, 0, 100_000, 2);
    let schema = TableSchema::new(
        "sky",
        vec![
            ColumnDef::new("ra", LogicalType::I64),
            ColumnDef::new("dec", LogicalType::I64),
        ],
    );
    let columns = vec![Bat::from_vec(ra.clone()), Bat::from_vec(dec.clone())];
    let mut sky = Recycling::over(Table::from_bats(schema, columns).unwrap());

    let log = skyserver_log(120, 2, 15, 1.1, 100_000, 3);
    let sql = |q: &mammoth::workload::ReuseQuery| {
        let col = if q.column == 0 { "ra" } else { "dec" };
        let (lo, hi) = (q.range.lo, q.range.hi);
        format!("SELECT COUNT({col}) FROM sky WHERE {col} >= {lo} AND {col} <= {hi}")
    };
    let answers: Vec<i64> = log.iter().map(|q| sky.count(&sql(q))).collect();
    let stats = sky.rec.stats().clone();
    assert!(
        stats.exact_hits > 50,
        "a zipf log must hit the recycler hard: {stats:?}"
    );

    // oracle check on a few queries
    for (q, &got) in log.iter().zip(&answers).take(20) {
        let col = if q.column == 0 { &ra } else { &dec };
        let expect = col
            .iter()
            .filter(|&&v| v >= q.range.lo && v <= q.range.hi)
            .count() as i64;
        assert_eq!(got, expect);
    }

    // DML must invalidate: the repeated query now sees the new row, which
    // lies inside the range on either column
    let q = &log[0];
    let before = sky.count(&sql(q));
    let row = format!("INSERT INTO sky VALUES ({0}, {0})", q.range.lo);
    sky.write(&row, "sky", &["ra", "dec"]);
    assert_eq!(
        sky.count(&sql(q)),
        before + 1,
        "recycler must not serve stale counts after INSERT"
    );
}

/// A repeated statement is answered from the cache, and a write followed
/// by its invalidation is not.
#[test]
fn recycler_sees_repeats_and_invalidation() {
    let mut t = Recycling::over(sevens());
    let sql = "SELECT COUNT(a) FROM t WHERE a > 1";
    let first = t.count(sql);
    assert_eq!(t.rec.stats().exact_hits, 0);
    assert_eq!(t.count(sql), first);
    // the bind, the selection and the fetch all come back from the cache
    assert_eq!(t.rec.stats().exact_hits, 3, "{:?}", t.rec.stats());
    t.write("INSERT INTO t VALUES (5)", "t", &["a"]);
    assert_eq!(t.rec.stats().invalidations, 3);
    assert_eq!(t.count(sql), first + 1, "stale cache must not be served");
}

/// `a <= x < b` and `a <= x <= b` are both `algebra.select(x, a, b)` by
/// name; the recycler must not answer one with the other's candidates.
#[test]
fn recycled_range_selects_keep_their_inclusivity_apart() {
    let mut t = Recycling::over(sevens());
    let closed = t.count("SELECT COUNT(a) FROM t WHERE a BETWEEN 2 AND 4");
    let half_open = t.count("SELECT COUNT(a) FROM t WHERE a >= 2 AND a < 4");
    assert_eq!((closed, half_open), (128_571, 85_714));
    // the bind was shared, the selections were not
    assert_eq!(t.rec.stats().exact_hits, 1);
}

/// A profiled run marks what it recycled and carries the cache's own
/// decisions in the same trace, under the engine label the trace schema
/// reserves for it.
#[test]
fn trace_under_recycler_marks_hits() {
    let mut t = Recycling::over(sevens());
    let sql = "SELECT COUNT(a) FROM t WHERE a > 1";
    let kinds = |run: &ProfiledRun, kind: EventKind| {
        let of_kind = run.events.iter().filter(|e| e.kind == kind);
        of_kind.count() as u64
    };

    let cold = t.profiled(sql);
    assert_eq!(cold.engine, "serial+recycler");
    assert_eq!(cold.recycled, 0);
    assert_eq!(kinds(&cold, EventKind::Instr), cold.executed);
    // bind, selection, fetch; the count is a scalar and stays out
    assert_eq!(kinds(&cold, EventKind::RecyclerAdmit), 3);
    assert_eq!(kinds(&cold, EventKind::RecyclerHit), 0);

    let warm = t.profiled(sql);
    assert_eq!(warm.recycled, 3);
    assert_eq!(warm.executed + warm.recycled, cold.executed);
    assert_eq!(kinds(&warm, EventKind::Instr), cold.executed);
    assert_eq!(kinds(&warm, EventKind::RecyclerHit), 3);
    let marked = warm.events.iter().filter(|e| e.recycled);
    // each hit shows twice: on its instruction, and as the cache's event
    assert_eq!(marked.count() as u64, 2 * warm.recycled);
    // tracing was for the profiled runs only
    t.count(sql);
    assert!(t.rec.take_events().is_empty());
}

/// Recycler subsumption: a narrow range can be refined from a cached wide
/// range without touching the base column.
#[test]
fn recycler_subsumption_path() {
    let mut rec = Recycler::new(1 << 20, EvictPolicy::Lru);
    let wide = Bat::from_vec((0..1000i64).collect::<Vec<_>>());
    rec.admit_range(
        "t.a",
        Some(0),
        Some(999),
        "wide",
        wide,
        vec!["t.a".into()],
        100,
    );
    let hit = rec.lookup_covering("t.a", Some(100), Some(200));
    assert!(hit.is_some());
    assert_eq!(rec.stats().subsumption_hits, 1);
    // refine on the hit instead of the base column
    let cached = hit.unwrap();
    let refined = mammoth::algebra::select_range(
        &cached,
        Some(&Value::I64(100)),
        Some(&Value::I64(200)),
        true,
        true,
    )
    .unwrap();
    assert_eq!(refined.len(), 101);
}

mod recycler_equivalence {
    use super::*;
    use mammoth::algebra::{AggKind, CmpOp};
    use mammoth::mal::{Arg, Interpreter, MalValue, OpCode, Program};
    use mammoth::storage::{Bat, Catalog, Table};
    use mammoth::types::{ColumnDef, LogicalType, TableSchema};
    use mammoth::workload::uniform_i64 as gen_i64;
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_bats(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", LogicalType::I64),
                    ColumnDef::new("b", LogicalType::I64),
                ],
            ),
            vec![
                Bat::from_vec(gen_i64(2000, 0, 50, 21)),
                Bat::from_vec(gen_i64(2000, 0, 1000, 22)),
            ],
        )
        .unwrap();
        cat.create_table(t).unwrap();
        cat
    }

    /// `SELECT b, SUM(b), COUNT(b) FROM t WHERE a > cut` as MAL — with
    /// `cut` drawn from a tiny domain, a query log repeats subplans and
    /// the recycler gets real hits.
    fn plan(cut: i64) -> Program {
        let mut p = Program::new();
        let a = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(a), Arg::Const(Value::I64(cut))],
        )[0];
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("b".into())),
            ],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
        let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f)])[0];
        let n = p.push(OpCode::Count, vec![Arg::Var(f)])[0];
        p.push_result(&[f, s, n]);
        p
    }

    /// Outputs compare bit-exactly: BATs by their i64 tails, scalars by
    /// value.
    fn flatten(vals: &[MalValue]) -> (Vec<i64>, Vec<Value>) {
        let mut bats = Vec::new();
        let mut scalars = Vec::new();
        for v in vals {
            match v.as_bat() {
                Some(b) => bats.extend_from_slice(b.tail_slice::<i64>().unwrap()),
                None => scalars.push(v.as_scalar().unwrap().clone()),
            }
        }
        (bats, scalars)
    }

    proptest! {
        // The recycler is pure memoization: over any query log, results
        // with the cache are bit-identical to results without it, and the
        // hit counters only ever grow.
        #[test]
        fn prop_recycler_is_transparent(
            cuts in proptest::collection::vec(0i64..12, 1..24),
        ) {
            let cat = catalog();
            let mut rec = Recycler::new(32 << 20, EvictPolicy::Lru);
            let mut last_hits = 0u64;
            let mut last_lookups = 0u64;
            for &cut in &cuts {
                let prog = plan(cut);
                let plain = Interpreter::new(&cat).run(&prog).unwrap();
                let (cached, _) = run_recycling(&cat, &prog, &mut rec).unwrap();
                prop_assert_eq!(flatten(&plain), flatten(&cached));
                let stats = rec.stats();
                prop_assert!(stats.exact_hits >= last_hits, "hit counter went backwards");
                prop_assert!(stats.lookups >= last_lookups, "lookup counter went backwards");
                prop_assert!(stats.exact_hits <= stats.lookups);
                last_hits = stats.exact_hits;
                last_lookups = stats.lookups;
            }
            // every distinct cut was computed once; repeats must hit
            let distinct = cuts.iter().collect::<std::collections::HashSet<_>>().len();
            if cuts.len() > distinct {
                prop_assert!(last_hits > 0, "repeated subplans never hit the recycler");
            }
        }
    }
}
