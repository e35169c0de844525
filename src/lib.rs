//! # mammoth
//!
//! A columnar, BAT-algebra database engine in Rust, reproducing the system
//! described in *Database Architecture Evolution: Mammals Flourished long
//! before Dinosaurs became Extinct* (Manegold, Kersten & Boncz, VLDB 2009)
//! — the MonetDB retrospective.
//!
//! This crate is the umbrella. [`Database`] is the one-object entry point:
//! SQL in, tables out, with the column-store machinery of the paper
//! underneath — BAT storage with void heads, the materializing BAT Algebra,
//! the MAL optimizer pipeline and interpreter, delta-based updates with
//! snapshot isolation, raw-heap persistence, and the XML front-end sharing
//! the same columnar back-end (Figure 1).
//!
//! ```
//! use mammoth::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE people (name VARCHAR, age INT)").unwrap();
//! db.execute("INSERT INTO people VALUES ('Roger Moore', 1927)").unwrap();
//! let out = db.execute("SELECT name FROM people WHERE age = 1927").unwrap();
//! assert!(out.to_text().contains("Roger Moore"));
//! ```
//!
//! It re-exports the serving subsystems, one per crate (see `DESIGN.md` for
//! the full map, evidence crates included):
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | values, schemas, errors |
//! | [`storage`] | BATs, heaps, deltas, catalog, persistence |
//! | [`algebra`] | the BAT Algebra: selects, joins, radix-cluster/-decluster |
//! | [`vectorized`] | the X100-style vectorized engine |
//! | [`mal`] | MAL programs, optimizer pipeline, interpreter |
//! | [`parallel`] | multi-core dataflow execution of MAL plans |
//! | [`sql`] | the SQL front-end |
//! | [`server`] | the MAPI-style network server + client |
//! | [`shard`] | hash-partitioned scale-out: scatter-gather coordinator |

#![deny(unsafe_code)]

pub use mammoth_sql::QueryOutput;

pub use mammoth_algebra as algebra;
pub use mammoth_mal as mal;
pub use mammoth_parallel as parallel;
pub use mammoth_server as server;
pub use mammoth_shard as shard;
pub use mammoth_sql as sql;
pub use mammoth_storage as storage;
pub use mammoth_types as types;
pub use mammoth_vectorized as vectorized;

use mammoth_mal::{parse_program, Interpreter, MalValue};
use mammoth_parallel::{resolve_threads, ParallelExecutor};
use mammoth_sql::Session;
use mammoth_storage::{persist, Bat, Catalog, RealFs, Table};
use mammoth_types::{ColumnDef, Error, LogicalType, ProfiledRun, Result, TableSchema};
use mammoth_xpath::{Doc, XmlNode};
use std::path::Path;

/// Which execution engine SELECTs run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The serial MAL interpreter (the default).
    #[default]
    Serial,
    /// The multi-core dataflow engine: plans are fragmented by the
    /// mitosis/mergetable optimizer modules and executed by a worker pool.
    /// `threads == 0` picks the `MAMMOTH_THREADS` environment variable if
    /// set, otherwise the machine's available parallelism.
    Parallel { threads: usize },
}

/// An embedded mammoth database.
pub struct Database {
    session: Session,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// A fresh in-memory database.
    pub fn new() -> Database {
        Database {
            session: Session::new(),
        }
    }

    /// A database running SELECTs on the chosen [`Engine`].
    ///
    /// With [`Engine::Parallel`], base-column scans are sliced into
    /// fragments (at least two, so the rewrite is exercised even
    /// single-threaded) and the plan executes as a dependency DAG on a
    /// worker pool — see the `mammoth-parallel` crate.
    pub fn with_engine(engine: Engine) -> Database {
        let session = match engine {
            Engine::Serial => Session::new(),
            Engine::Parallel { threads } => {
                let threads = resolve_threads(threads);
                let pieces = threads.max(2);
                Session::new().with_executor(Box::new(ParallelExecutor::new(threads)), pieces)
            }
        };
        Database { session }
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput> {
        self.session.execute(sql)
    }

    /// Execute a textual MAL program directly against the catalog (the
    /// back-end interface of Figure 1).
    pub fn execute_mal(&mut self, mal: &str) -> Result<Vec<MalValue>> {
        let prog = parse_program(mal)?;
        let mut interp = Interpreter::new(self.session.catalog());
        interp.run(&prog)
    }

    pub fn catalog(&self) -> &Catalog {
        self.session.catalog()
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        self.session.catalog_mut()
    }

    /// The per-instruction profile of the most recent profiled SELECT: a
    /// `TRACE <query>` statement, or any SELECT while the `MAMMOTH_TRACE`
    /// environment variable names a trace file.
    pub fn last_profile(&self) -> Option<&ProfiledRun> {
        self.session.last_profile()
    }

    /// Register a table built from pre-existing BATs (bulk load path).
    fn register_table(&mut self, schema: TableSchema, columns: Vec<Bat>) -> Result<()> {
        let table = Table::from_bats(schema, columns)?;
        self.catalog_mut().create_table(table)
    }

    /// Load an XML document as a relational table `<name>(post, level, tag)`
    /// with the dense `pre` rank as the (void) row id — the §3.2 story of
    /// one columnar back-end serving several data models.
    pub fn register_xml(&mut self, name: &str, root: &XmlNode) -> Result<Doc> {
        let doc = Doc::encode(root);
        let (post, level, tag) = doc.to_bats();
        let schema = TableSchema::new(
            name,
            vec![
                ColumnDef::new("post", LogicalType::Oid),
                ColumnDef::new("level", LogicalType::I32),
                ColumnDef::new("tag", LogicalType::Str),
            ],
        );
        self.register_table(schema, vec![post, level, tag])?;
        Ok(doc)
    }

    /// Persist the whole catalog to a directory as an atomic checkpoint,
    /// the layout [`Database::open_durable`] recovers from.
    pub fn save(&self, dir: &Path) -> Result<()> {
        persist::checkpoint_image(&RealFs, &self.catalog().image(), dir).map(|_| ())
    }

    /// Open a database persisted with [`Database::save`]: the checkpoint
    /// that `dir`'s `CURRENT` names.
    pub fn open(dir: &Path) -> Result<Database> {
        let (catalog, _) = persist::load_current(&RealFs, dir)?
            .ok_or_else(|| Error::Io(format!("no checkpoint in {}", dir.display())))?;
        let mut db = Database::new();
        *db.catalog_mut() = catalog;
        Ok(db)
    }

    /// Open a crash-safe database rooted at `dir`: recovery (last atomic
    /// checkpoint + WAL tail replay) runs first, and every subsequent DML
    /// statement is redo-logged and fsync'd before it is acknowledged.
    pub fn open_durable(dir: &Path) -> Result<Database> {
        Ok(Database {
            session: Session::open_durable(dir)?,
        })
    }

    /// Whether this database persists through a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.session.is_durable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mammoth_types::Value;
    use mammoth_xpath::xml::parse_xml;

    #[test]
    fn sql_roundtrip() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let out = db.execute("SELECT b FROM t WHERE a = 2").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows, vec![vec![Value::Str("y".into())]]);
    }

    #[test]
    fn mal_interface() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (5), (7), (5)").unwrap();
        let out = db
            .execute_mal(
                r#"
                a := sql.bind("t", "a");
                c := algebra.thetaselect[==](a, 5);
                io.result(c);
            "#,
            )
            .unwrap();
        assert_eq!(out[0].as_bat().unwrap().len(), 2);
    }

    #[test]
    fn xml_front_end_shares_backend() {
        let mut db = Database::new();
        let tree = parse_xml("<a><b/><b/><c/></a>").unwrap();
        db.register_xml("doc", &tree).unwrap();
        // query the encoding with plain SQL: how many nodes per tag?
        let out = db
            .execute("SELECT tag, COUNT(*) FROM doc GROUP BY tag ORDER BY tag")
            .unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("a".into()), Value::I64(1)],
                vec![Value::Str("b".into()), Value::I64(2)],
                vec![Value::Str("c".into()), Value::I64(1)],
            ]
        );
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mammoth-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(Database::open(&dir).is_err(), "nothing was saved");
        {
            let mut db = Database::new();
            db.execute("CREATE TABLE t (a INT NOT NULL)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            db.execute("DELETE FROM t WHERE a = 2").unwrap();
            db.save(&dir).unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        let out = db.execute("SELECT a FROM t ORDER BY a").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows, vec![vec![Value::I32(1)], vec![Value::I32(3)]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_database_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mammoth-db-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open_durable(&dir).unwrap();
            assert!(db.is_durable());
            db.execute("CREATE TABLE t (a INT NOT NULL)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            db.execute("CHECKPOINT").unwrap();
            db.execute("DELETE FROM t WHERE a = 2").unwrap();
            // dropped without a clean shutdown: the WAL carries the delete
        }
        let mut db = Database::open_durable(&dir).unwrap();
        let out = db.execute("SELECT a FROM t ORDER BY a").unwrap();
        let QueryOutput::Table { rows, .. } = out else {
            panic!()
        };
        assert_eq!(rows, vec![vec![Value::I32(1)], vec![Value::I32(3)]]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_statement_profiles_on_both_engines() {
        use mammoth_storage::Bat;
        let schema = || TableSchema::new("t", vec![ColumnDef::new("a", LogicalType::I64)]);
        let cols = || {
            vec![Bat::from_vec(
                (0..10_000i64).map(|i| i % 97).collect::<Vec<_>>(),
            )]
        };

        let mut serial = Database::new();
        serial.register_table(schema(), cols()).unwrap();
        serial
            .execute("TRACE SELECT COUNT(a) FROM t WHERE a > 40")
            .unwrap();
        let s = serial.last_profile().unwrap().clone();
        assert_eq!(s.engine, "serial");
        assert_eq!(s.threads, 1);
        assert_eq!(s.events.len() as u64, s.executed);

        let mut par = Database::with_engine(Engine::Parallel { threads: 2 });
        par.register_table(schema(), cols()).unwrap();
        par.execute("TRACE SELECT COUNT(a) FROM t WHERE a > 40")
            .unwrap();
        let p = par.last_profile().unwrap();
        assert_eq!(p.engine, "dataflow");
        assert_eq!(p.threads, 2);
        assert_eq!(p.events.len() as u64, p.executed);
        assert!(p.max_inflight >= 1);
        // the mitosis rewrite executes more instructions, fragment-wise
        assert!(p.executed > s.executed);
        // every event's worker id is within the pool
        assert!(p.events.iter().all(|e| e.worker < 2));
        // both trace exports validate against the line schema
        for run in [&s, p] {
            mammoth_types::validate_trace(&run.to_json_lines()).unwrap();
        }
    }

    #[test]
    fn parallel_engine_matches_serial_sql() {
        use mammoth_storage::Bat;
        let schema = || {
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", LogicalType::I64),
                    ColumnDef::new("b", LogicalType::I64),
                ],
            )
        };
        let cols = || {
            vec![
                Bat::from_vec((0..10_000i64).map(|i| i % 97).collect::<Vec<_>>()),
                Bat::from_vec((0..10_000i64).collect::<Vec<_>>()),
            ]
        };
        let queries = [
            "SELECT SUM(b), COUNT(b) FROM t WHERE a > 40",
            "SELECT b FROM t WHERE a = 13 AND b < 500",
            "SELECT a, COUNT(*) FROM t WHERE b < 200 GROUP BY a ORDER BY a",
            "SELECT AVG(b) FROM t WHERE a < 50",
        ];
        let mut serial = Database::new();
        serial.register_table(schema(), cols()).unwrap();
        for threads in [1usize, 4] {
            let mut par = Database::with_engine(Engine::Parallel { threads });
            par.register_table(schema(), cols()).unwrap();
            for q in queries {
                assert_eq!(serial.execute(q).unwrap(), par.execute(q).unwrap(), "{q}");
            }
        }
    }
}
