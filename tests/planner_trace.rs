//! The coordinator one-compile regression: a scatter plan is compiled
//! once per coordinator lifetime and every repeat — ad-hoc re-issue or
//! `EXECUTE` of a prepared statement that binds to the same text — is a
//! `plan.cache_hit`, never a second `plan.compile`.
//!
//! This file holds exactly one test on purpose: it mutates the
//! process-global `MAMMOTH_TRACE` environment variable, which would race
//! with any other test in the same binary. Cargo gives every
//! integration-test file its own process, so isolation comes from the
//! file boundary (same discipline as `trace_export.rs`).

use mammoth_sql::QueryOutput;
use mammoth_types::{validate_trace, TRACE_ENV};

mod support;
use support::cluster::{Cluster, Spec};

#[test]
fn coordinator_compiles_each_statement_once_per_lifetime() {
    let path = std::env::temp_dir().join(format!(
        "mammoth_planner_trace_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    std::env::set_var(TRACE_ENV, &path);

    let cluster = Cluster::start(Spec::in_memory(3));
    let coord = cluster.coord();

    coord.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    coord
        .execute("INSERT INTO t VALUES (1, 10), (7, 70), (9, 90)")
        .unwrap();

    // The same ad-hoc statement five times: one compile, four hits.
    for _ in 0..5 {
        let out = coord.execute("SELECT v FROM t WHERE k = 7").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!("expected a table");
        };
        assert_eq!(rows.len(), 1);
    }
    // EXECUTE binds to the *same* statement text, so the prepared path
    // rides the very same cache entry: three more hits, zero compiles.
    coord
        .execute("PREPARE pv AS SELECT v FROM t WHERE k = ?")
        .unwrap();
    for _ in 0..3 {
        let out = coord.execute("EXECUTE pv (7)").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!("expected a table");
        };
        assert_eq!(rows[0][0].as_i64(), Some(70));
    }

    coord.flush_trace().unwrap();
    drop(cluster);
    std::env::remove_var(TRACE_ENV);

    let text = std::fs::read_to_string(&path).expect("trace file must exist");
    // The whole export — coordinator run, shard server runs, any session
    // profiles — must stay tracecheck-clean with the plan events in it.
    validate_trace(&text).expect("trace with plan events must validate");
    let compiles = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"plan.compile\""))
        .count();
    let hits = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"plan.cache_hit\""))
        .count();
    assert_eq!(
        compiles, 1,
        "the coordinator must compile the scatter plan exactly once"
    );
    assert_eq!(hits, 7, "4 ad-hoc repeats + 3 EXECUTEs are all cache hits");
    let _ = std::fs::remove_file(&path);
}
