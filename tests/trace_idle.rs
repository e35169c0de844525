//! A daemon nobody is tracing must not keep a trace.
//!
//! The connection core used to buffer a `server.statement` event — two
//! strings and a push under a mutex — for every statement it served, and
//! the buffer only ever left through the `MAMMOTH_TRACE` export at
//! shutdown: with the variable unset it grew for as long as the server
//! lived (~230 bytes per statement on the repo benchmark's wire
//! workloads). Whether a sink exists is now decided when the server
//! starts.
//!
//! One test per file: it depends on the process-global `MAMMOTH_TRACE`
//! (same discipline as `trace_export.rs`).

use mammoth::server::{Client, Response, Server, ServerConfig, SessionSpec};
use mammoth::types::{Value, TRACE_ENV};

#[test]
fn a_server_without_a_trace_sink_buffers_no_events() {
    std::env::remove_var(TRACE_ENV);
    let srv = Server::start(ServerConfig {
        spec: SessionSpec::in_memory(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(&srv.local_addr().to_string(), "idle", "").unwrap();
    c.query("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT)")
        .unwrap();
    c.query("INSERT INTO t VALUES (0, 10), (1, 11), (2, 12), (3, 13)")
        .unwrap();
    // the Prepare verb still reports the placeholder count — now from the
    // registry the statement was parsed into, not from a second parse
    assert_eq!(
        c.prepare("by_key", "SELECT v FROM t WHERE k = ?").unwrap(),
        1
    );
    assert_eq!(
        c.prepare("none", "SELECT COUNT(*) FROM t").unwrap(),
        0,
        "a statement without placeholders"
    );
    assert_eq!(
        c.prepare("two", "SELECT v FROM t WHERE k >= ? AND k < ?")
            .unwrap(),
        2
    );
    for i in 0..10_000i64 {
        let k = i % 4;
        let resp = if i % 2 == 0 {
            c.query(&format!(
                "SELECT v FROM t WHERE k = {k} AND v <= {}",
                100 + i
            ))
        } else {
            c.execute_prepared("by_key", &[Value::I64(k)])
        };
        match resp.unwrap() {
            Response::Table { rows, .. } => assert_eq!(rows, vec![vec![Value::I64(10 + k)]]),
            other => panic!("statement {i}: {other:?}"),
        }
    }
    assert_eq!(srv.stats().statements, 10_005);
    assert_eq!(
        srv.pending_trace_events(),
        0,
        "no sink was named, yet the server kept events"
    );
    c.quit().unwrap();
    srv.shutdown().unwrap();
}
