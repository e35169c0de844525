//! Seeded inputs and their oracle.
//!
//! `--seed` is the only randomness: every table and every statement is a
//! pure function of it, and the program under test sees only the generated
//! tables and statements, never the seed. Each statement carries the
//! answer it must produce, computed here in plain Rust from the generated
//! vectors — no engine code is involved in an expected value.
//!
//! The selection column of the big tables is a random *permutation* of
//! `0..n`, so a range predicate over it selects an exact row count for
//! every seed (work per statement does not drift between seeds) and the
//! oracle answers from arrays re-ordered by that column instead of
//! re-scanning the table.
//!
//! Seed 20240917 is held out: no size, mix or bound in this benchmark was
//! chosen while looking at a run with it.

use mammoth_types::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Workload sizes: the full contract sizes, or the small ones `--quick`
/// and the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    fn pick(self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
    /// 2 MiB a column: one column fills a core's L2 on this host and the
    /// table does not fit. Eight times as many rows (the first sizing) left
    /// the working set in the *shared* L3, and its speed then followed the
    /// host's other tenants: side by side over 25 minutes its quartiles lay
    /// 6.8 % apart at 2^21 rows and 1.1 % at 2^17 (README.md).
    pub fn fact_rows(self) -> usize {
        self.pick(1 << 15, 1 << 18)
    }
    pub fn dim_rows(self) -> usize {
        self.pick(1 << 10, 1 << 13)
    }
    pub fn kv_rows(self) -> usize {
        4096
    }
    pub fn ingest_preload(self) -> usize {
        self.pick(1 << 11, 1 << 14)
    }
    /// Statements between two `CHECKPOINT`s of `ingest_durable`.
    pub fn checkpoint_every(self) -> usize {
        self.pick(250, 1000)
    }
    pub fn shard_rows(self) -> usize {
        self.pick(1 << 11, 1 << 16)
    }
}

/// How a statement reaches the program.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Sql(String),
    /// A statement prepared during set-up, by index into the workload's
    /// prepared-statement list, with typed arguments.
    Prepared {
        stmt: usize,
        args: Vec<Value>,
    },
}

/// What a correct program answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A result table; `ordered` is false when SQL leaves row order open.
    Rows {
        rows: Vec<Vec<Value>>,
        ordered: bool,
    },
    Affected(u64),
    Ok,
}

/// A program's answer, whichever API produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Rows(Vec<Vec<Value>>),
    Affected(u64),
    Ok,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Index into the workload's class names.
    pub class: usize,
    pub call: Call,
    pub expect: Expect,
}

/// Integer widths differ between a literal (`INT` when it fits) and a
/// `BIGINT` column, so integers compare by value.
fn int(v: &Value) -> Option<i64> {
    match v {
        Value::I8(x) => Some(*x as i64),
        Value::I16(x) => Some(*x as i64),
        Value::I32(x) => Some(*x as i64),
        Value::I64(x) => Some(*x),
        _ => None,
    }
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (int(a), int(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

fn sort_key(row: &[Value]) -> String {
    format!("{row:?}")
}

impl Stmt {
    /// The text of a statement sent as SQL.
    pub fn sql(&self) -> &str {
        match &self.call {
            Call::Sql(sql) => sql,
            Call::Prepared { .. } => unreachable!("only the wire workload prepares statements"),
        }
    }

    /// Whether `reply` is the oracle's answer.
    pub fn check(&self, reply: &Reply) -> bool {
        match (&self.expect, reply) {
            (Expect::Ok, Reply::Ok) => true,
            (Expect::Affected(want), Reply::Affected(got)) => want == got,
            (Expect::Rows { rows, ordered }, Reply::Rows(got)) => {
                let same_rows = |a: &[Vec<Value>], b: &[Vec<Value>]| {
                    a.len() == b.len()
                        && a.iter().zip(b).all(|(x, y)| {
                            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_value(p, q))
                        })
                };
                if *ordered || rows.len() <= 1 {
                    return same_rows(rows, got);
                }
                // integers are normalized to one width before sorting so
                // both sides order identically
                let norm = |rs: &[Vec<Value>]| {
                    let mut v: Vec<Vec<Value>> = rs
                        .iter()
                        .map(|r| {
                            r.iter()
                                .map(|c| int(c).map_or_else(|| c.clone(), Value::I64))
                                .collect()
                        })
                        .collect();
                    v.sort_by_key(|r| sort_key(r));
                    v
                };
                same_rows(&norm(rows), &norm(got))
            }
            _ => false,
        }
    }
}

/// A deterministic, unbounded statement sequence. Statements come in
/// *blocks* of `block_len()` that each hold the workload's exact class
/// mix, so a run that stops at a block boundary has measured that mix.
pub trait Generator {
    fn block_len(&self) -> usize;
    fn next_stmt(&mut self) -> Stmt;
    fn next_block(&mut self) -> Vec<Stmt> {
        (0..self.block_len()).map(|_| self.next_stmt()).collect()
    }
    /// Blocks after which the workload's background work has gone through
    /// one whole period; a time-budgeted run stops only on such a boundary.
    fn blocks_per_round(&self) -> usize {
        1
    }
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    // distinct, fixed stream ids keep data and per-client statement
    // sequences independent of each other under one seed
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<i64> {
    let mut v: Vec<i64> = (0..n as i64).collect();
    v.shuffle(rng);
    v
}

// ---------------------------------------------------------------------------
// scan_serial / scan_dataflow
// ---------------------------------------------------------------------------

/// The columns of `fact(a, b, k)` and `dim(k)`, handed to the engine.
#[derive(Debug, PartialEq)]
pub struct ScanColumns {
    pub a: Vec<i64>,
    pub b: Vec<i64>,
    pub k: Vec<i64>,
    pub dim: Vec<i64>,
}

/// What the oracle keeps of the scan tables: `fact` re-ordered by `a`.
pub struct ScanData {
    rows: usize,
    dim_rows: usize,
    /// `b_by_a[v]` is `b` of the row whose `a` equals `v`.
    b_by_a: Vec<i64>,
    k_by_a: Vec<i64>,
}

pub const SCAN_GROUPS: i64 = 1000;

impl ScanData {
    pub fn generate(seed: u64, scale: Scale) -> (ScanColumns, ScanData) {
        let n = scale.fact_rows();
        let d = scale.dim_rows();
        let mut rng = rng_for(seed, 1);
        let a = permutation(n, &mut rng);
        let b: Vec<i64> = (0..n).map(|_| rng.random_range(0..SCAN_GROUPS)).collect();
        // half the foreign keys find a partner in dim
        let k: Vec<i64> = (0..n).map(|_| rng.random_range(0..2 * d as i64)).collect();
        let dim = permutation(d, &mut rng);
        let mut b_by_a = vec![0i64; n];
        let mut k_by_a = vec![0i64; n];
        for i in 0..n {
            b_by_a[a[i] as usize] = b[i];
            k_by_a[a[i] as usize] = k[i];
        }
        let data = ScanData {
            rows: n,
            dim_rows: d,
            b_by_a,
            k_by_a,
        };
        (ScanColumns { a, b, k, dim }, data)
    }
}

pub const SCAN_CLASSES: &[&str] = &[
    "sum_filter",
    "two_pred",
    "group_by",
    "join_count",
    "topn",
    "minmax",
];

/// Seven slots per block, `sum_filter` twice: with an odd slot count the
/// median statement falls inside one class's latency cluster instead of on
/// the boundary between two, where it would flip from run to run.
const SCAN_BLOCK: [usize; 7] = [0, 1, 2, 0, 3, 4, 5];

#[derive(Clone)]
pub struct ScanGen {
    data: Arc<ScanData>,
    rng: StdRng,
    slot: usize,
}

impl ScanGen {
    pub fn new(data: Arc<ScanData>, seed: u64) -> ScanGen {
        ScanGen {
            data,
            rng: rng_for(seed, 2),
            slot: 0,
        }
    }
}

impl Generator for ScanGen {
    fn block_len(&self) -> usize {
        SCAN_BLOCK.len()
    }
    fn next_stmt(&mut self) -> Stmt {
        let class = SCAN_BLOCK[self.slot % SCAN_BLOCK.len()];
        self.slot += 1;
        let d = &*self.data;
        let n = d.rows;
        let i64v = Value::I64;
        // Every window is a fixed share of the table at a fixed place;
        // the seed only jitters it by up to 1/64 of the table. The engine
        // evaluates a range as two selects in statement order, the first
        // of which passes every row on its side of the bound, so a window
        // that roamed the whole table would cost anything from a little
        // to a lot — and a run's total work would depend on the seed.
        // Windows start near 0 and name their upper bound first, so the
        // first select already narrows to about the window; `two_pred`'s
        // BETWEEN, which the parser expands lower bound first, sits at the
        // top of the domain for the same reason. Every class therefore
        // scans the whole 2 MiB column once and materializes
        // intermediates of its window's size.
        let rng = &mut self.rng;
        let mut near = |base: usize| base + rng.random_range(0..n / 64);
        let (sql, expect) = match class {
            0 => {
                let c = near(n / 10);
                let sum: i64 = d.b_by_a[..c].iter().sum();
                (
                    format!("SELECT SUM(b), COUNT(*) FROM fact WHERE a < {c}"),
                    vec![vec![i64v(sum), i64v(c as i64)]],
                )
            }
            1 => {
                let hi = n - near(0);
                let lo = hi - n / 5;
                let mut cnt = 0i64;
                let mut sum = 0i64;
                for v in lo..hi {
                    if d.b_by_a[v] < SCAN_GROUPS / 2 {
                        cnt += 1;
                        sum += v as i64;
                    }
                }
                (
                    format!(
                        "SELECT COUNT(*), SUM(a) FROM fact WHERE a BETWEEN {lo} AND {} AND b < {}",
                        hi - 1,
                        SCAN_GROUPS / 2
                    ),
                    vec![vec![i64v(cnt), i64v(sum)]],
                )
            }
            2 => {
                let lo = near(0);
                let hi = lo + n / 8;
                let mut cnt = vec![0i64; SCAN_GROUPS as usize];
                let mut sum = vec![0i64; SCAN_GROUPS as usize];
                for v in lo..hi {
                    let g = d.b_by_a[v] as usize;
                    cnt[g] += 1;
                    sum[g] += v as i64;
                }
                let rows = (0..SCAN_GROUPS as usize)
                    .filter(|&g| cnt[g] > 0)
                    .map(|g| vec![i64v(g as i64), i64v(cnt[g]), i64v(sum[g])])
                    .collect();
                let sql = format!(
                    "SELECT b, COUNT(*), SUM(a) FROM fact WHERE a < {hi} AND a >= {lo} GROUP BY b"
                );
                return Stmt {
                    class,
                    call: Call::Sql(sql),
                    expect: Expect::Rows {
                        rows,
                        ordered: false,
                    },
                };
            }
            3 => {
                let c = near(n / 16);
                let dims = d.dim_rows as i64;
                let cnt = d.k_by_a[..c].iter().filter(|&&k| k < dims).count();
                (
                    format!(
                        "SELECT COUNT(*) FROM fact JOIN dim ON fact.k = dim.k WHERE fact.a < {c}"
                    ),
                    vec![vec![i64v(cnt as i64)]],
                )
            }
            4 => {
                let lo = near(0);
                let hi = lo + n / 16;
                let rows = (lo..lo + 10)
                    .map(|v| vec![i64v(v as i64), i64v(d.b_by_a[v])])
                    .collect();
                (
                    format!(
                        "SELECT a, b FROM fact WHERE a < {hi} AND a >= {lo} ORDER BY a LIMIT 10"
                    ),
                    rows,
                )
            }
            _ => {
                let lo = near(0);
                let hi = lo + n / 4;
                let min_b = *d.b_by_a[lo..hi].iter().min().expect("non-empty window");
                let max_b = *d.b_by_a[lo..hi].iter().max().expect("non-empty window");
                let min_k = *d.k_by_a[lo..hi].iter().min().expect("non-empty window");
                let max_k = *d.k_by_a[lo..hi].iter().max().expect("non-empty window");
                (
                    format!(
                        "SELECT MIN(b), MAX(b), MIN(k), MAX(k) FROM fact WHERE a < {hi} AND a >= {lo}"
                    ),
                    vec![vec![i64v(min_b), i64v(max_b), i64v(min_k), i64v(max_k)]],
                )
            }
        };
        Stmt {
            class,
            call: Call::Sql(sql),
            expect: Expect::Rows {
                rows: expect,
                ordered: true,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// wire_adhoc / wire_prepared
// ---------------------------------------------------------------------------

/// `kv(k, v, s)`: `k` is `0..rows`, inserted in a seeded order.
pub struct KvData {
    /// Insertion order of the keys.
    pub order: Vec<i64>,
    /// `v[k]`, `s[k]`: the row of key `k`.
    pub v: Vec<i64>,
    pub s: Vec<String>,
}

/// Upper bound (exclusive) of `kv.v`; the always-true `v <= VMAX + i`
/// predicate is what makes every ad-hoc statement textually distinct.
pub const KV_VMAX: i64 = 1_000_000;

impl KvData {
    pub fn generate(seed: u64, scale: Scale) -> KvData {
        let n = scale.kv_rows();
        let mut rng = rng_for(seed, 3);
        let order = permutation(n, &mut rng);
        let v = (0..n).map(|_| rng.random_range(0..KV_VMAX)).collect();
        let s = (0..n)
            .map(|_| format!("s{:05}", rng.random_range(0..100_000u32)))
            .collect();
        KvData { order, v, s }
    }

    pub const DDL: &'static str = "CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT, s VARCHAR)";

    /// Rows per load statement.
    pub const LOAD_CHUNK: usize = 512;

    /// The load as multi-row INSERT statements.
    pub fn load_sql(&self) -> Vec<String> {
        self.order
            .chunks(KvData::LOAD_CHUNK)
            .map(|chunk| {
                let rows: Vec<String> = chunk
                    .iter()
                    .map(|&k| format!("({k}, {}, '{}')", self.v[k as usize], self.s[k as usize]))
                    .collect();
                format!("INSERT INTO kv VALUES {}", rows.join(", "))
            })
            .collect()
    }
}

pub const WIRE_CLASSES: &[&str] = &["point", "range", "agg", "minmax"];

/// The four statement shapes, with `?` where a constant goes: ad-hoc text
/// substitutes literals, the prepared twin binds typed arguments.
pub const WIRE_SHAPES: [&str; 4] = [
    "SELECT v, s FROM kv WHERE k = ? AND v <= ?",
    "SELECT k, v FROM kv WHERE k >= ? AND k < ? AND v <= ?",
    "SELECT COUNT(*), SUM(v) FROM kv WHERE k >= ? AND k < ? AND v <= ?",
    "SELECT MIN(v), MAX(v) FROM kv WHERE k >= ? AND k < ? AND v <= ?",
];

/// 60 % point, 20 % range, 10 % each aggregate: the median sits inside the
/// point cluster and p95/p99 inside the multi-row ones.
const WIRE_BLOCK: [usize; 10] = [0, 1, 0, 2, 0, 0, 1, 0, 3, 0];

#[derive(Clone)]
pub struct WireGen {
    data: Arc<KvData>,
    rng: StdRng,
    prepared: bool,
    issued: i64,
}

impl WireGen {
    /// `client` selects one of the independent per-connection sequences;
    /// the ad-hoc and the prepared workload draw the same keys.
    pub fn new(data: Arc<KvData>, seed: u64, client: usize, prepared: bool) -> WireGen {
        WireGen {
            data,
            rng: rng_for(seed, 100 + client as u64),
            prepared,
            issued: 0,
        }
    }
}

impl Generator for WireGen {
    fn block_len(&self) -> usize {
        WIRE_BLOCK.len()
    }
    fn next_stmt(&mut self) -> Stmt {
        let class = WIRE_BLOCK[self.issued as usize % WIRE_BLOCK.len()];
        let d = &*self.data;
        let n = d.v.len() as i64;
        let cap = KV_VMAX + self.issued;
        self.issued += 1;
        let i64v = Value::I64;
        let (args, rows) = if class == 0 {
            let k = self.rng.random_range(0..n);
            (
                vec![k, cap],
                vec![vec![
                    i64v(d.v[k as usize]),
                    Value::Str(d.s[k as usize].clone()),
                ]],
            )
        } else {
            let w = if class == 1 {
                self.rng.random_range(1..=16)
            } else {
                16
            };
            let lo = self.rng.random_range(0..n - w);
            let vs = &d.v[lo as usize..(lo + w) as usize];
            let rows = match class {
                1 => (lo..lo + w)
                    .map(|k| vec![i64v(k), i64v(d.v[k as usize])])
                    .collect(),
                2 => vec![vec![i64v(w), i64v(vs.iter().sum())]],
                _ => vec![vec![
                    i64v(*vs.iter().min().expect("w >= 1")),
                    i64v(*vs.iter().max().expect("w >= 1")),
                ]],
            };
            (vec![lo, lo + w, cap], rows)
        };
        let call = if self.prepared {
            Call::Prepared {
                stmt: class,
                args: args.into_iter().map(Value::I64).collect(),
            }
        } else {
            let mut sql = String::new();
            let mut it = args.iter();
            for part in WIRE_SHAPES[class].split('?') {
                sql.push_str(part);
                if let Some(a) = it.next() {
                    sql.push_str(&a.to_string());
                }
            }
            Call::Sql(sql)
        };
        Stmt {
            class,
            call,
            expect: Expect::Rows {
                rows,
                ordered: false,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// ingest_durable
// ---------------------------------------------------------------------------

pub const INGEST_CLASSES: &[&str] = &["insert1", "insert8", "delete", "exec_agg", "checkpoint"];
pub const INGEST_DDL: &str = "CREATE TABLE ev (k BIGINT NOT NULL, v BIGINT, s VARCHAR)";
/// The prepared read that runs beside the writes, over the same table.
pub const INGEST_PREPARE: &str =
    "PREPARE agg AS SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM ev WHERE k >= ? AND k < ?";

/// 25 slots: 10 one-row INSERTs, 9 eight-row INSERTs (76 % writes that
/// add rows), 2 DELETEs (8 %) and 4 EXECUTEs (16 %). The issue's
/// 80/5/15 would put p95 exactly on the boundary between the insert and
/// the delete latency cluster; 8 % deletes keep it inside the deletes.
const INGEST_BLOCK: [usize; 25] = [
    0, 1, 3, 0, 1, 0, 1, 2, 0, 1, 3, 0, 1, 0, 1, 3, 0, 1, 0, 1, 2, 0, 1, 3, 0,
];
/// Rows a block inserts (10·1 + 9·8); its two DELETEs remove as many from
/// the old end, so the live table is a sliding window of constant size and
/// checkpoint size — hence write amplification — levels off.
const INGEST_BLOCK_ROWS: i64 = 82;
const INGEST_AGG_SPAN: i64 = 128;

/// The model of table `ev`: keys are issued ascending and deleted from
/// the old end, so the live keys are always `live_lo..next_key`.
#[derive(Clone)]
pub struct IngestGen {
    rng: StdRng,
    /// `v` of key `k` is `values[k]` (kept for every key ever issued).
    values: Vec<i64>,
    live_lo: i64,
    slot: usize,
    since_checkpoint: usize,
    checkpoint_every: usize,
    /// Encoded bytes of the user values inserted so far (the denominator
    /// of write amplification): 8 per integer plus the string's bytes.
    pub user_bytes: u64,
}

impl IngestGen {
    pub fn new(seed: u64, scale: Scale) -> IngestGen {
        IngestGen {
            rng: rng_for(seed, 4),
            values: Vec::new(),
            live_lo: 0,
            slot: 0,
            since_checkpoint: 0,
            checkpoint_every: scale.checkpoint_every(),
            user_bytes: 0,
        }
    }

    pub fn next_key(&self) -> i64 {
        self.values.len() as i64
    }

    pub fn live_rows(&self) -> i64 {
        self.next_key() - self.live_lo
    }

    pub fn live_sum(&self) -> i64 {
        self.values[self.live_lo as usize..].iter().sum()
    }

    /// The literal rows of one INSERT; `tag` pads the row like a payload
    /// column would.
    fn insert_values(&mut self, rows: usize) -> String {
        let mut out = Vec::with_capacity(rows);
        for _ in 0..rows {
            let k = self.next_key();
            let v = self.rng.random_range(0..KV_VMAX);
            let s = format!("e{:04}", k % 10_000);
            self.user_bytes += 16 + s.len() as u64;
            self.values.push(v);
            out.push(format!("({k}, {v}, '{s}')"));
        }
        out.join(", ")
    }

    /// The untimed load: `rows` rows in multi-row INSERTs.
    pub fn preload_sql(&mut self, rows: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut left = rows;
        while left > 0 {
            let n = left.min(512);
            out.push(format!("INSERT INTO ev VALUES {}", self.insert_values(n)));
            left -= n;
        }
        out
    }
}

impl Generator for IngestGen {
    fn block_len(&self) -> usize {
        INGEST_BLOCK.len()
    }
    /// One checkpoint period: a run of whole rounds sees every phase of the
    /// delta's growth and folding equally often.
    fn blocks_per_round(&self) -> usize {
        self.checkpoint_every / INGEST_BLOCK.len()
    }
    /// A block, preceded by a `CHECKPOINT` whenever one is due, so blocks
    /// keep their mix and checkpoints their period.
    fn next_block(&mut self) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(INGEST_BLOCK.len() + 1);
        if self.since_checkpoint >= self.checkpoint_every {
            self.since_checkpoint = 0;
            out.push(Stmt {
                class: 4,
                call: Call::Sql("CHECKPOINT".into()),
                expect: Expect::Ok,
            });
        }
        out.extend((0..INGEST_BLOCK.len()).map(|_| self.next_stmt()));
        out
    }
    fn next_stmt(&mut self) -> Stmt {
        self.since_checkpoint += 1;
        let class = INGEST_BLOCK[self.slot % INGEST_BLOCK.len()];
        self.slot += 1;
        let (sql, expect) = match class {
            0 | 1 => {
                let rows = if class == 0 { 1 } else { 8 };
                (
                    format!("INSERT INTO ev VALUES {}", self.insert_values(rows)),
                    Expect::Affected(rows as u64),
                )
            }
            2 => {
                let lo = self.live_lo;
                let hi = lo + INGEST_BLOCK_ROWS / 2;
                self.live_lo = hi;
                (
                    format!("DELETE FROM ev WHERE k >= {lo} AND k < {hi}"),
                    Expect::Affected((hi - lo) as u64),
                )
            }
            _ => {
                let lo = self
                    .rng
                    .random_range(self.live_lo..self.next_key() - INGEST_AGG_SPAN);
                let hi = lo + INGEST_AGG_SPAN;
                let vs = &self.values[lo as usize..hi as usize];
                let row = vec![
                    Value::I64(INGEST_AGG_SPAN),
                    Value::I64(vs.iter().sum()),
                    Value::I64(*vs.iter().min().expect("non-empty span")),
                    Value::I64(*vs.iter().max().expect("non-empty span")),
                ];
                (
                    format!("EXECUTE agg ({lo}, {hi})"),
                    Expect::Rows {
                        rows: vec![row],
                        ordered: true,
                    },
                )
            }
        };
        Stmt {
            class,
            call: Call::Sql(sql),
            expect,
        }
    }
}

// ---------------------------------------------------------------------------
// shard_mix
// ---------------------------------------------------------------------------

pub const SHARD_CLASSES: &[&str] = &["insert", "packsum", "gather"];
pub const SHARD_FACT_DDL: &str = "CREATE TABLE fact (id BIGINT NOT NULL, a BIGINT, g BIGINT)";
pub const SHARD_LOG_DDL: &str = "CREATE TABLE log (id BIGINT NOT NULL, v BIGINT)";
const SHARD_GROUPS: i64 = 16;
/// 40 % routed INSERT, 40 % pushed-down aggregates, 20 % gather.
const SHARD_BLOCK: [usize; 5] = [0, 1, 0, 1, 2];

/// `fact(id, a, g)`: `id` is the partition key, `a` a permutation.
pub struct ShardData {
    pub a: Vec<i64>,
    pub g: Vec<i64>,
    g_by_a: Vec<i64>,
}

impl ShardData {
    pub fn generate(seed: u64, scale: Scale) -> ShardData {
        let n = scale.shard_rows();
        let mut rng = rng_for(seed, 5);
        let a = permutation(n, &mut rng);
        let g: Vec<i64> = (0..n).map(|_| rng.random_range(0..SHARD_GROUPS)).collect();
        let mut g_by_a = vec![0i64; n];
        for i in 0..n {
            g_by_a[a[i] as usize] = g[i];
        }
        ShardData { a, g, g_by_a }
    }

    pub fn load_sql(&self) -> Vec<String> {
        let ids: Vec<usize> = (0..self.a.len()).collect();
        ids.chunks(512)
            .map(|chunk| {
                let rows: Vec<String> = chunk
                    .iter()
                    .map(|&i| format!("({i}, {}, {})", self.a[i], self.g[i]))
                    .collect();
                format!("INSERT INTO fact VALUES {}", rows.join(", "))
            })
            .collect()
    }
}

#[derive(Clone)]
pub struct ShardGen {
    data: Arc<ShardData>,
    rng: StdRng,
    slot: usize,
    /// Rows acknowledged into `log` so far.
    pub logged: i64,
}

impl ShardGen {
    pub fn new(data: Arc<ShardData>, seed: u64) -> ShardGen {
        ShardGen {
            data,
            rng: rng_for(seed, 6),
            slot: 0,
            logged: 0,
        }
    }
}

impl Generator for ShardGen {
    fn block_len(&self) -> usize {
        SHARD_BLOCK.len()
    }
    fn next_stmt(&mut self) -> Stmt {
        let class = SHARD_BLOCK[self.slot % SHARD_BLOCK.len()];
        self.slot += 1;
        let n = self.data.a.len();
        let (sql, expect) = match class {
            0 => {
                let id = self.logged;
                self.logged += 1;
                let v = self.rng.random_range(0..KV_VMAX);
                (
                    format!("INSERT INTO log VALUES ({id}, {v})"),
                    Expect::Affected(1),
                )
            }
            1 => {
                let c = n / 2 + self.rng.random_range(0..n / 64);
                let c64 = c as i64;
                let row = vec![
                    Value::I64(c64),
                    Value::I64(c64 * (c64 - 1) / 2),
                    Value::I64(0),
                    Value::I64(c64 - 1),
                ];
                (
                    format!("SELECT COUNT(*), SUM(a), MIN(a), MAX(a) FROM fact WHERE a < {c}"),
                    Expect::Rows {
                        rows: vec![row],
                        ordered: true,
                    },
                )
            }
            _ => {
                // fixed place, seeded jitter: see ScanGen
                let width = n / 8;
                let lo = n / 2 + self.rng.random_range(0..n / 64);
                let mut cnt = [0i64; SHARD_GROUPS as usize];
                for v in lo..lo + width {
                    cnt[self.data.g_by_a[v] as usize] += 1;
                }
                let rows = (0..SHARD_GROUPS)
                    .filter(|&g| cnt[g as usize] > 0)
                    .map(|g| vec![Value::I64(g), Value::I64(cnt[g as usize])])
                    .collect();
                (
                    format!(
                        "SELECT g, COUNT(*) FROM fact WHERE a >= {lo} AND a < {} GROUP BY g",
                        lo + width
                    ),
                    Expect::Rows {
                        rows,
                        ordered: false,
                    },
                )
            }
        };
        Stmt {
            class,
            call: Call::Sql(sql),
            expect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale { quick: true };

    fn first<G: Generator>(mut g: G, n: usize) -> Vec<Stmt> {
        (0..n).map(|_| g.next_stmt()).collect()
    }

    #[test]
    fn one_seed_gives_identical_data_and_statements() {
        let ((c1, d1), (c2, d2)) = (ScanData::generate(7, QUICK), ScanData::generate(7, QUICK));
        assert_eq!(c1, c2);
        assert_eq!(
            first(ScanGen::new(Arc::new(d1), 7), 70),
            first(ScanGen::new(Arc::new(d2), 7), 70)
        );
        let kv = |seed| Arc::new(KvData::generate(seed, QUICK));
        let (k1, k2) = (kv(7), kv(7));
        assert_eq!(k1.load_sql(), k2.load_sql());
        for prepared in [false, true] {
            assert_eq!(
                first(WireGen::new(k1.clone(), 7, 1, prepared), 100),
                first(WireGen::new(k2.clone(), 7, 1, prepared), 100)
            );
        }
        let ingest = |seed| {
            let mut g = IngestGen::new(seed, QUICK);
            let load = g.preload_sql(QUICK.ingest_preload());
            let blocks: Vec<Stmt> = (0..24).flat_map(|_| g.next_block()).collect();
            (load, blocks)
        };
        assert_eq!(ingest(7), ingest(7));
        let shard = |seed| Arc::new(ShardData::generate(seed, QUICK));
        let (s1, s2) = (shard(7), shard(7));
        assert_eq!(s1.load_sql(), s2.load_sql());
        assert_eq!(
            first(ShardGen::new(s1, 7), 50),
            first(ShardGen::new(s2, 7), 50)
        );
    }

    #[test]
    fn another_seed_differs() {
        let (c1, d1) = ScanData::generate(7, QUICK);
        let d1 = Arc::new(d1);
        assert_ne!(c1, ScanData::generate(8, QUICK).0);
        assert_ne!(
            first(ScanGen::new(d1.clone(), 7), 14),
            first(ScanGen::new(d1, 8), 14)
        );
        let k = Arc::new(KvData::generate(7, QUICK));
        assert_ne!(k.load_sql(), KvData::generate(8, QUICK).load_sql());
        assert_ne!(
            first(WireGen::new(k.clone(), 7, 0, false), 20),
            first(WireGen::new(k.clone(), 8, 0, false), 20)
        );
        // two connections of one run do not replay each other
        assert_ne!(
            first(WireGen::new(k.clone(), 7, 0, false), 20),
            first(WireGen::new(k, 7, 1, false), 20)
        );
    }

    #[test]
    fn adhoc_and_prepared_draw_the_same_keys() {
        let k = Arc::new(KvData::generate(3, QUICK));
        let adhoc = first(WireGen::new(k.clone(), 3, 0, false), 50);
        let prep = first(WireGen::new(k, 3, 0, true), 50);
        let mut texts = std::collections::HashSet::new();
        for (a, p) in adhoc.iter().zip(&prep) {
            assert_eq!((a.class, &a.expect), (p.class, &p.expect));
            let Call::Sql(sql) = &a.call else {
                panic!("ad-hoc statements are text")
            };
            assert!(texts.insert(sql.clone()), "ad-hoc text repeats: {sql}");
        }
    }

    #[test]
    fn blocks_hold_the_documented_mix() {
        let count = |block: &[usize], class| block.iter().filter(|&&c| c == class).count();
        assert_eq!(count(&SCAN_BLOCK, 0), 2);
        assert!((1..6).all(|c| count(&SCAN_BLOCK, c) == 1));
        assert_eq!(count(&WIRE_BLOCK, 0), 6);
        assert_eq!(count(&INGEST_BLOCK, 0), 10);
        assert_eq!(count(&INGEST_BLOCK, 1), 9);
        assert_eq!(count(&INGEST_BLOCK, 2), 2);
        assert_eq!(count(&INGEST_BLOCK, 3), 4);
        assert_eq!(INGEST_BLOCK_ROWS, 10 + 9 * 8);
        assert_eq!(count(&SHARD_BLOCK, 0), 2);
        assert_eq!(count(&SHARD_BLOCK, 2), 1);
    }

    #[test]
    fn ingest_window_stays_constant_and_checkpoints_recur() {
        let mut g = IngestGen::new(11, QUICK);
        g.preload_sql(QUICK.ingest_preload());
        let before = g.live_rows();
        let stmts: Vec<Stmt> = (0..41).flat_map(|_| g.next_block()).collect();
        assert_eq!(stmts.iter().filter(|s| s.class == 4).count(), 4);
        assert_eq!(stmts.len(), 41 * 25 + 4);
        assert_eq!(g.live_rows(), before);
    }

    #[test]
    fn check_compares_by_value_and_honours_order() {
        let s = Stmt {
            class: 0,
            call: Call::Sql(String::new()),
            expect: Expect::Rows {
                rows: vec![
                    vec![Value::I64(1), Value::I64(5)],
                    vec![Value::I64(2), Value::I64(6)],
                ],
                ordered: false,
            },
        };
        let swapped = Reply::Rows(vec![
            vec![Value::I32(2), Value::I64(6)],
            vec![Value::I32(1), Value::I64(5)],
        ]);
        assert!(s.check(&swapped));
        let ordered = Stmt {
            expect: Expect::Rows {
                rows: match &s.expect {
                    Expect::Rows { rows, .. } => rows.clone(),
                    _ => unreachable!(),
                },
                ordered: true,
            },
            ..s.clone()
        };
        assert!(!ordered.check(&swapped));
        assert!(!s.check(&Reply::Rows(vec![vec![Value::I64(1), Value::I64(5)]])));
        assert!(!s.check(&Reply::Affected(2)));
    }
}
