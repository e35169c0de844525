//! `shard_mix`: two in-memory `mammoth-server` shards behind a
//! `Coordinator` whose `execute` the one client calls directly. The only
//! workload where routing, fragment shipping and merging do work; the
//! slower of the two legs sets a read's time.

use super::{overhead_ratio, untraced_metrics, Kind, RunOutput, TraceOutput, Workload};
use crate::gen::{
    Generator, Reply, Scale, ShardData, ShardGen, Stmt, SHARD_FACT_DDL, SHARD_LOG_DDL,
};
use crate::harness::{drive, Budget, Samples, Spans};
use mammoth_server::{Client, Server, ServerConfig, ServerMsg};
use mammoth_shard::{Coordinator, CoordinatorConfig};
use mammoth_sql::{classify, parse_sql, QueryOutput, ScatterPlan, Statement};
use mammoth_storage::{Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 2;
/// Untimed blocks (5 statements each) run before measuring.
const WARMUP_BLOCKS: usize = 20;
const PACKSUM_CLASS: usize = 1;
const GATHER_CLASS: usize = 2;

pub struct ShardMix {
    servers: Vec<Server>,
    coord: Coordinator,
    gen: ShardGen,
}

fn exec(coord: &Coordinator, stmt: &Stmt) -> Result<Reply, String> {
    coord
        .execute(stmt.sql())
        .map(Into::into)
        .map_err(|e| e.to_string())
}

/// The SQL the coordinator ships to each shard for a read: the statement
/// itself for pushed-down aggregates, the filtered columns for a gather.
fn fragment_sql(planning: &Catalog, sql: &str) -> Result<String, String> {
    let Statement::Select(sel) = parse_sql(sql).map_err(|e| e.to_string())? else {
        return Err(format!("not a SELECT: {sql}"));
    };
    match classify(planning, &sel) {
        ScatterPlan::Aggregates { fragment_sql, .. } => Ok(fragment_sql),
        ScatterPlan::Gather { mut tables } if tables.len() == 1 => {
            Ok(tables.remove(0).fragment_sql)
        }
        other => Err(format!("unexpected scatter plan {other:?}")),
    }
}

impl ShardMix {
    /// Every acknowledged INSERT must be in `log`.
    fn audit(&self, samples: &mut Samples) {
        match self.coord.execute("SELECT COUNT(*) FROM log") {
            Ok(QueryOutput::Table { rows, .. })
                if rows.first().and_then(|r| r.first()) == Some(&Value::I64(self.gen.logged)) => {}
            other => samples.fail(format!(
                "log should hold {} acknowledged rows, COUNT(*) gave {other:?}",
                self.gen.logged
            )),
        }
    }

    fn timed(&mut self, budget: Budget) -> (Samples, f64) {
        let coord = &self.coord;
        let t0 = Instant::now();
        let samples = drive(&mut self.gen, &mut |s: &Stmt| exec(coord, s), budget);
        (samples, t0.elapsed().as_secs_f64())
    }
}

impl Workload for ShardMix {
    fn setup(_kind: Kind, seed: u64, scale: Scale) -> Result<ShardMix, String> {
        let data = Arc::new(ShardData::generate(seed, scale));
        let servers: Vec<Server> = (0..SHARDS)
            .map(|_| Server::start(ServerConfig::default()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let coord = Coordinator::new(CoordinatorConfig::new(addrs));
        for sql in [SHARD_FACT_DDL.to_string(), SHARD_LOG_DDL.to_string()]
            .into_iter()
            .chain(data.load_sql())
        {
            coord.execute(&sql).map_err(|e| format!("load: {e}"))?;
        }
        let mut mix = ShardMix {
            servers,
            coord,
            gen: ShardGen::new(data, seed),
        };
        let warm = mix.timed(Budget::Blocks(WARMUP_BLOCKS)).0;
        match warm.first_failure {
            Some(why) => Err(format!("warm-up: {why}")),
            None => Ok(mix),
        }
    }

    fn run(&mut self, budget: Budget) -> RunOutput {
        let (mut samples, wall_s) = self.timed(budget);
        let steady = samples.steady();
        self.audit(&mut samples);
        RunOutput {
            steady,
            samples,
            clients: 1,
            wall_s,
            extras: Vec::new(),
            notes: vec![format!(
                "clients=1 shards={SHARDS} (in-memory, in-process, loopback-tcp) \
                 caller=Coordinator::execute"
            )],
        }
    }

    fn trace(&mut self, budget: Budget, spans: &mut Spans) -> TraceOutput {
        // INSERTs cannot be replayed, so the traced pass runs the blocks
        // that follow the untraced ones (same mix); the leg pass then
        // replays the traced pass's reads, which never change `fact`.
        let per_pass = budget.split(3);
        let (untraced, _) = self.timed(per_pass);
        let blocks = untraced.blocks;

        let start = self.gen.clone();
        let coord = &self.coord;
        let mut id = 0u32;
        let class_span = ["shard.insert", "shard.packsum", "shard.gather"];
        let traced = drive(
            &mut self.gen,
            &mut |s: &Stmt| {
                let (r, _) = spans.record(class_span[s.class], id, -1, || exec(coord, s));
                id += 1;
                r
            },
            Budget::Blocks(blocks),
        );
        let coord_base = spans.rows.len() as i64 - traced.attempted() as i64;

        let mut all = Samples::default();
        let legs = (|| -> Result<(u64, u64), String> {
            // the coordinator plans against schemas without rows
            let mut planning = Catalog::new();
            let int = |n: &str| ColumnDef::new(n, LogicalType::I64);
            let schema = TableSchema::new("fact", vec![int("id"), int("a"), int("g")]);
            planning
                .create_table(Table::new(schema).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let mut clients: Vec<Client> = self
                .servers
                .iter()
                .map(|s| Client::connect(&s.local_addr().to_string(), "leg", ""))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let mut gen = start;
            let (mut gather_bytes, mut gathers) = (0u64, 0u64);
            let mut id = 0u32;
            for _ in 0..blocks {
                for stmt in gen.next_block() {
                    if stmt.class != 0 {
                        let sql = fragment_sql(&planning, stmt.sql())?;
                        let parent = coord_base + id as i64;
                        let mut slowest_ns = 0;
                        for client in &mut clients {
                            let (r, span) = spans.record("shard.leg", id, parent, || {
                                client.fragment(id as u64, &sql)
                            });
                            let leg = &spans.rows[span as usize];
                            slowest_ns = slowest_ns.max(leg.end_ns - leg.start_ns);
                            let (columns, rows) = r.map_err(|e| e.to_string())?;
                            if stmt.class == GATHER_CLASS {
                                let msg = ServerMsg::FragmentResult {
                                    id: id as u64,
                                    columns,
                                    rows,
                                };
                                gather_bytes += msg.encode().len() as u64 + 8;
                            }
                        }
                        // the legs ran one after the other here; a scatter
                        // waits for the slower one
                        if stmt.class == PACKSUM_CLASS {
                            spans.add_measured("shard.packsum_leg_slowest", id, parent, slowest_ns);
                        }
                        gathers += (stmt.class == GATHER_CLASS) as u64;
                    }
                    id += 1;
                }
            }
            for c in clients {
                c.quit().map_err(|e| e.to_string())?;
            }
            Ok((gather_bytes, gathers))
        })();

        let mut metrics = untraced_metrics(Kind::ShardMix, &untraced);
        let p50 = |n: &str| spans.p50_us(n);
        metrics.extend([
            ("shard.insert_us".to_string(), p50("shard.insert")),
            ("shard.packsum_us".into(), p50("shard.packsum")),
            ("shard.gather_us".into(), p50("shard.gather")),
            ("shard.leg_us".into(), p50("shard.leg")),
            (
                "shard.coord_overhead_us".into(),
                p50("shard.packsum") - p50("shard.packsum_leg_slowest"),
            ),
            (
                "trace_overhead_ratio".into(),
                overhead_ratio(&untraced, &traced),
            ),
        ]);
        match legs {
            Ok((bytes, gathers)) if gathers > 0 => metrics.push((
                "shard.gather_bytes_per_stmt".into(),
                bytes as f64 / gathers as f64,
            )),
            Ok(_) => {}
            Err(e) => all.fail(format!("direct legs: {e}")),
        }
        let shed: u64 = self.servers.iter().map(|s| s.stats().shed).sum();
        metrics.push(("server.shed".into(), shed as f64));

        all.merge(untraced);
        all.merge(traced);
        self.audit(&mut all);
        TraceOutput {
            samples: all,
            metrics,
            notes: vec![format!("clients=1 shards={SHARDS}")],
        }
    }

    fn teardown(self) -> Result<(), String> {
        drop(self.coord);
        for s in self.servers {
            s.shutdown().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}
