//! `wire_adhoc` and `wire_prepared`: an in-process, in-memory
//! `mammoth-server` on loopback, one `Client` connection per client thread,
//! a cache-resident table. Execution is the minority here; lexing,
//! compiling, rendering, framing and the socket are the work.

use super::staged::{self, Engine, StagedOpts};
use super::{
    overhead_ratio, parallelism, plan_cache_metrics, untraced_metrics, Kind, RunOutput,
    TraceOutput, Workload,
};
use crate::gen::{Call, KvData, Reply, Scale, Stmt, WireGen, WIRE_SHAPES};
use crate::harness::{drive, Budget, Samples, Spans, Steady};
use mammoth_server::{Client, ClientMsg, Server, ServerConfig, SessionSpec};
use mammoth_sql::sql_literal;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Untimed blocks (10 statements each) per connection before measuring.
const WARMUP_BLOCKS: usize = 400;

struct Conn {
    client: Client,
    gen: WireGen,
    /// This connection's handles for the four prepared shapes. The
    /// server keeps one registry per shared session, so handles carry the
    /// connection's number.
    handles: [String; 4],
}

pub struct Wire {
    kind: Kind,
    server: Server,
    conns: Vec<Conn>,
}

/// Send one statement and wait for its reply.
fn call(client: &mut Client, handles: &[String; 4], stmt: &Stmt) -> Result<Reply, String> {
    match &stmt.call {
        Call::Sql(sql) => client.query(sql),
        Call::Prepared { stmt, args } => client.execute_prepared(&handles[*stmt], args),
    }
    .map(Into::into)
    .map_err(|e| e.to_string())
}

impl Conn {
    fn exec(&mut self, stmt: &Stmt) -> Result<Reply, String> {
        call(&mut self.client, &self.handles, stmt)
    }

    /// The statement text the server hands its session: ad-hoc SQL as
    /// sent, `ExecutePrepared` rendered to `EXECUTE name (literals)`.
    fn session_text(&self, stmt: &Stmt) -> String {
        match &stmt.call {
            Call::Sql(sql) => sql.clone(),
            Call::Prepared { stmt, args } => {
                let lits: Vec<String> = args.iter().map(sql_literal).collect();
                format!("EXECUTE {} ({})", self.handles[*stmt], lits.join(", "))
            }
        }
    }

    fn request_bytes(&self, stmt: &Stmt) -> u64 {
        let msg = match &stmt.call {
            Call::Sql(sql) => ClientMsg::Query { sql: sql.clone() },
            Call::Prepared { stmt, args } => ClientMsg::ExecutePrepared {
                name: self.handles[*stmt].clone(),
                args: args.clone(),
            },
        };
        msg.encode().len() as u64 + 8
    }
}

/// The SELECT a statement stands for, with its constants inlined — what
/// the staged level compiles to obtain the plan `EXECUTE` gets from the
/// plan cache.
fn select_text(stmt: &Stmt) -> String {
    match &stmt.call {
        Call::Sql(sql) => sql.clone(),
        Call::Prepared { stmt, args } => {
            let mut sql = String::new();
            let mut args = args.iter();
            for part in WIRE_SHAPES[*stmt].split('?') {
                sql.push_str(part);
                if let Some(a) = args.next() {
                    sql.push_str(&sql_literal(a));
                }
            }
            sql
        }
    }
}

impl Workload for Wire {
    fn setup(kind: Kind, seed: u64, scale: Scale) -> Result<Wire, String> {
        let prepared = kind == Kind::WirePrepared;
        let clients = parallelism();
        let data = Arc::new(KvData::generate(seed, scale));
        // A table loaded by INSERT sits in the insert delta until a merge,
        // and every bind of a delta column re-materializes it — hundreds of
        // microseconds that would bury the front end this workload is
        // about. A merge threshold of one load statement folds each chunk
        // into the base columns as it arrives, so the timed phase reads a
        // merged, cache-resident table.
        let spec = SessionSpec {
            merge_threshold: Some(KvData::LOAD_CHUNK),
            ..SessionSpec::in_memory()
        };
        let server = Server::start(ServerConfig {
            workers: clients,
            spec,
            ..ServerConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        // load over the wire, as a user would; the loader leaves before
        // the clients arrive because a worker serves one connection
        let mut loader = Client::connect(&addr, "loader", "").map_err(|e| e.to_string())?;
        for sql in std::iter::once(KvData::DDL.to_string()).chain(data.load_sql()) {
            loader.query(&sql).map_err(|e| format!("load: {e}"))?;
        }
        loader.quit().map_err(|e| e.to_string())?;
        let mut conns = Vec::with_capacity(clients);
        for c in 0..clients {
            let mut client =
                Client::connect(&addr, &format!("client-{c}"), "").map_err(|e| e.to_string())?;
            let handles = std::array::from_fn(|i| format!("q{i}_c{c}"));
            if prepared {
                for (handle, shape) in handles.iter().zip(WIRE_SHAPES) {
                    client
                        .prepare(handle, shape)
                        .map_err(|e| format!("PREPARE {handle}: {e}"))?;
                }
            }
            conns.push(Conn {
                client,
                gen: WireGen::new(data.clone(), seed, c, prepared),
                handles,
            });
        }
        let mut wire = Wire {
            kind,
            server,
            conns,
        };
        let warm = wire.run(Budget::Blocks(WARMUP_BLOCKS)).samples;
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(wire),
        }
    }

    fn run(&mut self, budget: Budget) -> RunOutput {
        let clients = self.conns.len();
        let barrier = Barrier::new(clients);
        let results: Vec<(Samples, Instant, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let Conn {
                            client,
                            gen,
                            handles,
                        } = conn;
                        barrier.wait();
                        let start = Instant::now();
                        let samples = drive(gen, &mut |s: &Stmt| call(client, handles, s), budget);
                        (samples, start, Instant::now())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let start = results.iter().map(|r| r.1).min().expect("clients >= 1");
        let end = results.iter().map(|r| r.2).max().expect("clients >= 1");
        let (mut samples, mut steady) = (Samples::default(), Steady::default());
        for (s, _, _) in results {
            steady.merge(s.steady());
            samples.merge(s);
        }
        let shed = self.server.stats().shed;
        if shed > 0 {
            samples.fail(format!("server shed {shed} connection(s)"));
        }
        RunOutput {
            steady,
            samples,
            clients,
            wall_s: (end - start).as_secs_f64(),
            extras: Vec::new(),
            notes: vec![format!(
                "clients={clients} server_workers={clients} transport=loopback-tcp storage=in-memory"
            )],
        }
    }

    fn trace(&mut self, budget: Budget, spans: &mut Spans) -> TraceOutput {
        // six single-connection passes over the same statements
        let per_pass = budget.split(6);
        let prepared = self.kind == Kind::WirePrepared;
        let shared = self.server.shared_arc();
        let conn = &mut self.conns[0];
        let start = conn.gen.clone();

        let mut gen = start.clone();
        let untraced = drive(&mut gen, &mut |s: &Stmt| conn.exec(s), per_pass);
        let blocks = Budget::Blocks(untraced.blocks);

        // level 4: the client's round trip
        let roundtrip_base = spans.rows.len() as i64;
        let (mut gen, mut id) = (start.clone(), 0u32);
        let traced = drive(
            &mut gen,
            &mut |s: &Stmt| {
                let (r, _) = spans.record("server.roundtrip", id, -1, || conn.exec(s));
                id += 1;
                r
            },
            blocks,
        );

        // level 3: the shared session the server's workers call
        let shared_base = spans.rows.len() as i64;
        let (mut gen, mut id) = (start.clone(), 0u32);
        let mut all = drive(
            &mut gen,
            &mut |s: &Stmt| {
                let text = conn.session_text(s);
                let parent = roundtrip_base + id as i64;
                let (r, _) = spans.record("server.shared", id, parent, || shared.execute(&text));
                id += 1;
                r.map(Into::into).map_err(|e| e.to_string())
            },
            blocks,
        );

        // level 2: the SQL session behind it
        let session_base = spans.rows.len() as i64;
        let (mut gen, mut id) = (start.clone(), 0u32);
        let cache_before = shared
            .with_session_mut(|s| s.plan_cache_stats())
            .unwrap_or_default();
        all.merge(drive(
            &mut gen,
            &mut |s: &Stmt| {
                let text = conn.session_text(s);
                let parent = shared_base + id as i64;
                let r = shared.with_session_mut(|sess| {
                    spans
                        .record("sql.session", id, parent, || sess.execute_read(&text))
                        .0
                });
                id += 1;
                match r {
                    Ok(out) => out.map(Into::into).map_err(|e| e.to_string()),
                    Err(e) => Err(e.to_string()),
                }
            },
            blocks,
        ));
        let cache_after = shared
            .with_session_mut(|s| s.plan_cache_stats())
            .unwrap_or_default();

        // level 1: the staged public calls
        let opts = StagedOpts {
            engine: Engine::Serial,
            wire: true,
            front_end: !prepared,
        };
        let (mut gen, mut id) = (start, 0u32);
        let (mut req_bytes, mut resp_bytes) = (0u64, 0u64);
        all.merge(drive(
            &mut gen,
            &mut |s: &Stmt| {
                let sql = select_text(s);
                let parent = session_base + id as i64;
                req_bytes += conn.request_bytes(s);
                let r = shared.with_session_mut(|sess| {
                    let cat = sess.catalog();
                    let r = staged::run_select(spans, id, parent, cat, &sql, opts);
                    staged::time_verify_and_mitosis(spans, id, cat, &sql, opts.engine)?;
                    r
                });
                id += 1;
                let (reply, bytes) = r.map_err(|e| e.to_string())??;
                resp_bytes += bytes;
                Ok(reply)
            },
            blocks,
        ));

        let p50 = |name: &str| spans.p50_us(name);
        let mut metrics = untraced_metrics(self.kind, &untraced);
        let (execute, render) = (p50("mal.execute"), p50("sql.render"));
        let (encode, decode) = (p50("server.encode"), p50("server.decode"));
        let front_end = p50("sql.parse") + p50("sql.compile") + p50("mal.optimize");
        let inside_session = p50("sql.session") - execute - render - front_end;
        metrics.extend([
            ("sql.parse_us".to_string(), p50("sql.parse")),
            ("sql.compile_us".into(), p50("sql.compile")),
            ("mal.optimize_us".into(), p50("mal.optimize")),
            ("mal.verify_us".into(), p50("mal.verify")),
            ("mal.execute_us".into(), execute),
            ("sql.render_us".into(), render),
            ("server.encode_us".into(), encode),
            ("server.decode_us".into(), decode),
            (
                "server.admit_us".into(),
                p50("server.shared") - p50("sql.session"),
            ),
            (
                "server.wire_us".into(),
                p50("server.roundtrip") - p50("server.shared") - encode - decode,
            ),
            (
                "mal.execute_share".into(),
                spans.total_s("mal.execute") / spans.total_s("server.roundtrip"),
            ),
        ]);
        // what the session spends outside the staged calls is plan-cache
        // lookup and parameter binding for EXECUTE, and predicate
        // reordering, column facts and the statistics lock otherwise
        let leftover = if prepared {
            "planner.lookup_bind_us"
        } else {
            "sql.session_other_us"
        };
        metrics.push((leftover.into(), inside_session));
        metrics.extend(plan_cache_metrics(cache_before, cache_after));
        let n = untraced.attempted() as f64;
        metrics.push(("server.req_bytes_per_stmt".into(), req_bytes as f64 / n));
        metrics.push(("server.resp_bytes_per_stmt".into(), resp_bytes as f64 / n));
        metrics.push(("server.shed".into(), self.server.stats().shed as f64));
        metrics.push((
            "trace_overhead_ratio".into(),
            overhead_ratio(&untraced, &traced),
        ));

        all.merge(untraced);
        all.merge(traced);
        TraceOutput {
            samples: all,
            metrics,
            notes: vec![
                "trace replays on one connection; the end-to-end run uses all of them".into(),
            ],
        }
    }

    fn teardown(self) -> Result<(), String> {
        for conn in self.conns {
            conn.client.quit().map_err(|e| e.to_string())?;
        }
        self.server.shutdown().map_err(|e| e.to_string())?;
        Ok(())
    }
}
