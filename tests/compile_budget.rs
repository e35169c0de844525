//! The compile path's budget, counted rather than timed.
//!
//! An ad-hoc SELECT pays parse + compile + optimize on every execution,
//! and most of that used to be the optimizer *framework*: every pass
//! copied the plan, the checked pipeline re-verified it five times, and
//! the optimizer was briefed on every column of every table. Heap
//! allocations are a deterministic proxy for that work — they do not
//! depend on the machine or on what else it is running — so this test pins
//! them for the four `wire_adhoc` statement shapes of the repo benchmark
//! on its `kv` schema, and pins that they do not move when the catalog
//! grows by 200 tables the statements never mention.
//!
//! One test function on purpose: the counter is per thread, and nothing
//! else may allocate on it between the two readings.

use mammoth::mal::{bound_column_facts, default_pipeline_with_props};
use mammoth::sql::{compile_select, parse_sql, Session, Statement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor, so reading it inside the
    // allocator neither allocates nor outlives thread teardown
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const ROWS: i64 = 4096;

/// The benchmark's `kv(k, v, s)`: `k` a permutation of `0..ROWS`, merged
/// into the base columns so the optimizer sees real statistics.
fn kv_session() -> Session {
    let mut s = Session::new();
    s.set_merge_threshold(512);
    s.execute("CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT, s VARCHAR)")
        .unwrap();
    for chunk in 0..ROWS / 512 {
        let rows: Vec<String> = (chunk * 512..(chunk + 1) * 512)
            .map(|i| {
                let k = (i * 1237) % ROWS; // odd multiplier: a permutation
                format!(
                    "({k}, {}, 's{:05}')",
                    (i * 7919) % 1_000_000,
                    (i * 31) % 100_000
                )
            })
            .collect();
        s.execute(&format!("INSERT INTO kv VALUES {}", rows.join(", ")))
            .unwrap();
    }
    s
}

/// point, range, agg, minmax — `benchmark/src/gen.rs`'s `WIRE_SHAPES` with
/// constants in place.
const SHAPES: [&str; 4] = [
    "SELECT v, s FROM kv WHERE k = 1234 AND v <= 1000005",
    "SELECT k, v FROM kv WHERE k >= 100 AND k < 108 AND v <= 1000007",
    "SELECT COUNT(*), SUM(v) FROM kv WHERE k >= 100 AND k < 116 AND v <= 1000009",
    "SELECT MIN(v), MAX(v) FROM kv WHERE k >= 100 AND k < 116 AND v <= 1000011",
];

/// What the session does between compiling a plan and running it: brief
/// the optimizer on the plan's columns, assemble the pipeline, optimize.
const OPTIMIZE_BUDGET: u64 = 60;
/// A whole ad-hoc statement: parse, compile, optimize, execute, render.
const STATEMENT_BUDGET: u64 = 200;

/// `(optimize, whole statement)` allocation counts per shape.
fn measure(s: &Session) -> Vec<(u64, u64)> {
    SHAPES
        .iter()
        .map(|sql| {
            let Statement::Select(sel) = parse_sql(sql).unwrap() else {
                panic!("not a SELECT: {sql}")
            };
            let run = || {
                let (prog, _) = compile_select(s.catalog(), &sel).unwrap();
                allocations(|| {
                    let facts = bound_column_facts(&prog, s.catalog());
                    default_pipeline_with_props(facts)
                        .try_optimize(prog)
                        .unwrap()
                })
            };
            run(); // lazily initialised state is not this statement's cost
            let (optimize, _) = run();
            s.execute_read(sql).unwrap();
            let (statement, out) = allocations(|| s.execute_read(sql).unwrap());
            assert!(matches!(out, mammoth::QueryOutput::Table { .. }));
            (optimize, statement)
        })
        .collect()
}

/// `EXECUTE` of a prepared point SELECT whose plan is cached, handed over
/// as a statement: what the listener does with every `ExecutePrepared`
/// frame. Lookup, bind, execute, render — and no lexer or parser.
const EXECUTE_TYPED: u64 = 71;

/// `(typed, as text)` allocation counts of one warm `EXECUTE`.
fn measure_execute(s: &mut Session) -> (u64, u64) {
    s.execute("PREPARE pt AS SELECT v, s FROM kv WHERE k = ? AND v <= ?")
        .unwrap();
    let text = "EXECUTE pt (1234, 1000005)";
    s.execute(text).unwrap();
    // the frame's decoder has already built the name and the arguments
    let typed = parse_sql(text).unwrap();
    let (typed, a) = allocations(|| s.execute_stmt(typed).unwrap());
    let (as_text, b) = allocations(|| s.execute(text).unwrap());
    assert_eq!(a, b);
    s.execute("DEALLOCATE pt").unwrap();
    (typed, as_text)
}

#[test]
fn compiling_a_statement_stays_inside_its_allocation_budget() {
    let mut s = kv_session();
    let (typed, as_text) = measure_execute(&mut s);
    assert_eq!(typed, EXECUTE_TYPED, "a typed EXECUTE on a warm plan cache");
    assert!(
        typed < as_text,
        "handing over a statement ({typed}) must cost less than its text ({as_text})"
    );
    let small = measure(&s);
    for (sql, (optimize, statement)) in SHAPES.iter().zip(&small) {
        assert!(
            *optimize <= OPTIMIZE_BUDGET,
            "optimizing `{sql}` took {optimize} allocations (budget {OPTIMIZE_BUDGET})"
        );
        assert!(
            *statement <= STATEMENT_BUDGET,
            "`{sql}` took {statement} allocations (budget {STATEMENT_BUDGET})"
        );
    }

    // 200 tables no statement mentions: the compile path may not notice
    for t in 0..200 {
        s.execute(&format!(
            "CREATE TABLE pad{t} (a BIGINT, b BIGINT, c VARCHAR)"
        ))
        .unwrap();
        s.execute(&format!(
            "INSERT INTO pad{t} VALUES (1, 2, 'x'), (3, 4, 'y')"
        ))
        .unwrap();
    }
    assert_eq!(
        measure(&s),
        small,
        "allocations per statement moved with the size of the catalog"
    );
}
