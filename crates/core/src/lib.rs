//! The mammoth engine façade.
//!
//! [`Database`] is the one-object entry point a downstream user adopts: SQL
//! in, tables out, with the column-store machinery of the paper underneath —
//! BAT storage with void heads, the materializing BAT Algebra, the MAL
//! optimizer pipeline and interpreter, delta-based updates with snapshot
//! isolation, raw-heap persistence, and the XML front-end sharing the same
//! columnar back-end (Figure 1).
//!
//! ```
//! use mammoth_core::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE people (name VARCHAR, age INT)").unwrap();
//! db.execute("INSERT INTO people VALUES ('Roger Moore', 1927), ('Will Smith', 1968)").unwrap();
//! let out = db.execute("SELECT name FROM people WHERE age = 1927").unwrap();
//! println!("{}", out.to_text());
//! ```

#![deny(unsafe_code)]

use mammoth_mal::{parse_program, Interpreter, MalValue};
use mammoth_parallel::ParallelExecutor;
use mammoth_sql::{QueryOutput, Session};
use mammoth_storage::{persist, Bat, Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, Result, TableSchema};
use mammoth_xpath::{Doc, XmlNode};
use std::path::Path;

pub use mammoth_mal::ExecStats;
pub use mammoth_parallel::resolve_threads;
pub use mammoth_sql::QueryOutput as Output;
pub use mammoth_types::{
    validate_trace, validate_trace_line, EventKind, ProfiledRun, TraceEvent, TRACE_ENV,
};

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
    pub fn register_table(&mut self, schema: TableSchema, columns: Vec<Bat>) -> Result<()> {
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

    /// Persist the whole catalog to a directory (raw-heap format).
    pub fn save(&self, dir: &Path) -> Result<()> {
        persist::save_catalog(self.catalog(), dir)
    }

    /// Open a database persisted with [`Database::save`].
    pub fn open(dir: &Path) -> Result<Database> {
        let catalog = persist::load_catalog(dir)?;
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

    /// Fold the WAL into a fresh atomic checkpoint (durable databases only;
    /// the SQL statement `CHECKPOINT` does the same).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.session.checkpoint()
    }

    /// Group-commit batch size: WAL records per fsync (default 1).
    /// Returns `&mut Self` for builder-style chaining.
    pub fn set_wal_batch(&mut self, n: usize) -> &mut Self {
        self.session.set_wal_batch(n);
        self
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
        let dir = std::env::temp_dir().join(format!("mammoth-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join(format!("mammoth-core-durable-{}", std::process::id()));
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
