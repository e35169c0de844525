//! One seeded generator for every differential tier: typed SQL statements
//! over a small schema, the naive model that reads DML back, and the random
//! MAL plans of the property and trace tiers.
//!
//! Every literal is drawn in the parser's image — an integer is `INT` when
//! it fits and `BIGINT` when not, a float is a half — so
//! `parse_sql(&stmt.to_string()) == Ok(stmt)`, and the text a tier sends is
//! exactly the statement it drew (`tests/generator.rs` holds it to that) —
//! in mixed case, as [`Gen::render`] spells it. A tier's limits are fields
//! of [`Gen`], not a second generator.

use mammoth::algebra::{AggKind, ArithOp, CmpOp};
use mammoth::mal::{Arg, OpCode, Program};
use mammoth::sql::Statement;
use mammoth::sql::{
    parse_sql, ColumnRef, JoinClause, Predicate, Rows, Scalar, SelectItem, SelectStmt,
};
use mammoth::storage::{Bat, Catalog, Table};
use mammoth::types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth::vectorized::VECTOR_SIZE;
use mammoth_workload::uniform_i64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WORDS: [&str; 6] = ["", "a", "ab", "b", "it's", "z"];

/// An integer literal, typed as the parser types it.
fn int(x: i64) -> Value {
    i32::try_from(x).map_or(Value::I64(x), Value::I32)
}

/// The literal a column of type `ty` stores as its nil sentinel, if it has
/// one: the read path returns that cell as NULL.
fn sentinel(ty: LogicalType) -> Option<Value> {
    match ty {
        LogicalType::I32 => Some(Value::I32(i32::MIN)),
        LogicalType::I64 => Some(Value::I64(i64::MIN)),
        _ => None,
    }
}

/// `col op lit`.
fn cmp(col: &ColumnRef, op: CmpOp, lit: Value) -> Predicate {
    let (col, value) = (col.clone(), Scalar::Lit(lit));
    Predicate { col, op, value }
}

/// A seeded stream of statements over `tables`, each keyed by its first
/// column: an integer that INSERTs hand out in order, so it is unique. As an
/// [`Iterator`] it yields a mixed workload; the productions are public too.
pub struct Gen {
    rng: StdRng,
    /// What [`Gen::render`] draws from, apart from `rng`: how a statement
    /// is spelled does not change which statements a seed yields.
    case: StdRng,
    pub tables: Vec<TableSchema>,
    /// Whether each table exists: the workload's next statement on a
    /// missing one is its CREATE.
    pub live: Vec<bool>,
    keys: Vec<i64>,
    /// Statements other than SELECTs the workload has yielded.
    writes: usize,
    /// ORDER BY the key only, so that no LIMIT cuts between ties.
    pub key_order: bool,
    /// SUM and AVG over DOUBLE columns, whose value depends on the order of
    /// the terms.
    pub float_sums: bool,
    /// One INSERT in twelve puts a nil sentinel in a NOT NULL column, which
    /// refuses the whole statement, and now and then an aggregate other
    /// than COUNT takes the VARCHAR column, which refuses the SELECT.
    pub refusals: bool,
}

impl Gen {
    /// The standard schema, neither table created yet: `t`, with a column
    /// of each generated type, and `u` to join it with.
    pub fn new(seed: u64) -> Gen {
        let schema = |ddl| match parse_sql(ddl) {
            Ok(Statement::CreateTable(schema)) => schema,
            other => unreachable!("{other:?}"),
        };
        let t = schema("CREATE TABLE t (k BIGINT NOT NULL, i INT, b BIGINT, d DOUBLE, s VARCHAR)");
        let u = schema("CREATE TABLE u (k BIGINT NOT NULL, w INT NOT NULL)");
        Gen {
            rng: StdRng::seed_from_u64(seed),
            case: StdRng::seed_from_u64(!seed),
            tables: vec![t, u],
            live: vec![false; 2],
            keys: vec![0; 2],
            writes: 0,
            key_order: false,
            float_sums: true,
            refusals: true,
        }
    }

    /// A draw from `0..n`, for a tier's own choices.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    /// `stmt` as the text a tier sends: printed, then with the case of
    /// letters outside its string literals flipped at random, so that every
    /// point where a name is folded sees mixed case.
    pub fn render(&mut self, stmt: &Statement) -> String {
        let mut quoted = false;
        let text = stmt.to_string();
        text.chars()
            .map(|c| {
                quoted ^= c == '\'';
                match !quoted && c.is_ascii_alphabetic() && self.case.random_bool(0.5) {
                    false => c,
                    true if c.is_ascii_uppercase() => c.to_ascii_lowercase(),
                    true => c.to_ascii_uppercase(),
                }
            })
            .collect()
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }

    fn column(&self, ti: usize, c: usize, qualify: bool) -> ColumnRef {
        let table = qualify.then_some(self.tables[ti].name.as_str());
        ColumnRef::new(table, &self.tables[ti].columns[c].name)
    }

    pub fn create(&mut self, ti: usize) -> Statement {
        (self.live[ti], self.keys[ti]) = (true, 0);
        Statement::CreateTable(self.tables[ti].clone())
    }

    pub fn drop_table(&mut self, ti: usize) -> Statement {
        self.live[ti] = false;
        let name = self.tables[ti].name.clone();
        Statement::DropTable { name }
    }

    /// A value of column `c` from the data's small domains: keys near the
    /// ones handed out, integers in −20..20, halves, a few words.
    fn datum(&mut self, ti: usize, c: usize) -> Value {
        match self.tables[ti].columns[c].ty {
            _ if c == 0 => int(self.rng.random_range(-2..self.keys[ti] + 2)),
            LogicalType::F64 => Value::F64(self.rng.random_range(-40..40i64) as f64 / 2.0),
            LogicalType::Str => Value::Str(self.pick(&WORDS).into()),
            _ => int(self.rng.random_range(-20..20)),
        }
    }

    /// A literal to compare column `c` with: mostly a datum, else NULL, the
    /// type's nil sentinel or, against an INT, a number no INT holds — an
    /// integer beyond the type, or a half.
    fn literal(&mut self, ti: usize, c: usize) -> Value {
        let ty = self.tables[ti].columns[c].ty;
        match self.below(20) {
            0 | 1 => Value::Null,
            2 | 3 => sentinel(ty).unwrap_or(Value::Null),
            4 | 5 if ty == LogicalType::I32 => int(self.pick(&[5_000_000_000, -5_000_000_000])),
            6 if ty == LogicalType::I32 => {
                Value::F64(self.rng.random_range(-20..20i64) as f64 + 0.5)
            }
            _ => self.datum(ti, c),
        }
    }

    /// One to three conjuncts on table `ti`: comparisons with every
    /// operator, and lower-and-upper bound pairs on one column, which fuse
    /// into one range select unless a bound is NULL or a nil sentinel.
    fn conjuncts(&mut self, ti: usize, qualify: bool) -> Vec<Predicate> {
        use CmpOp::*;
        let mut out = Vec::new();
        for _ in 0..1 + self.below(3) {
            // the key, sorted and NOT NULL, more often than the others
            let c = match self.below(3) {
                0 => 0,
                _ => self.below(self.tables[ti].columns.len()),
            };
            let col = self.column(ti, c, qualify);
            if self.below(3) == 0 {
                let (lo, hi) = (self.literal(ti, c), self.literal(ti, c));
                out.push(cmp(&col, self.pick(&[Gt, Ge]), lo));
                out.push(cmp(&col, self.pick(&[Lt, Le]), hi));
                continue;
            }
            let lit = self.literal(ti, c);
            out.push(cmp(&col, self.pick(&[Eq, Ne, Lt, Le, Gt, Ge]), lit));
        }
        out
    }

    /// A multi-row INSERT into table `ti`.
    pub fn insert(&mut self, ti: usize) -> Statement {
        let n = 1 + self.below(6);
        self.insert_rows(ti, n)
    }

    /// An INSERT of `n` rows with fresh keys, now and then a NULL or a nil
    /// sentinel (stored as NULL) in a nullable column, and with
    /// [`Gen::refusals`] a sentinel in a NOT NULL one.
    pub fn insert_rows(&mut self, ti: usize, n: usize) -> Statement {
        let cols = self.tables[ti].columns.clone();
        let mut rows = Rows::new(cols.len());
        rows.cells.reserve(n * cols.len());
        for _ in 0..n {
            for (c, def) in cols.iter().enumerate() {
                rows.cells.push(Scalar::Lit(match self.below(12) {
                    _ if c == 0 => int(self.keys[ti]),
                    0 if def.nullable => Value::Null,
                    1 if def.nullable => sentinel(def.ty).unwrap_or(Value::Null),
                    _ => self.datum(ti, c),
                }));
            }
            self.keys[ti] += 1;
        }
        if self.refusals && self.below(12) == 0 {
            let strict = cols.iter().enumerate().filter(|(_, d)| !d.nullable);
            let strict: Vec<usize> = strict.map(|(c, _)| c).collect();
            let (r, c) = (self.below(n), self.pick(&strict));
            let sentinel = sentinel(cols[c].ty).expect("an integer column");
            rows.cells[r * cols.len() + c] = Scalar::Lit(sentinel);
        }
        let table = self.tables[ti].name.clone();
        Statement::Insert { table, rows }
    }

    /// A DELETE from table `ti`: of one key, of a key range, or of a
    /// conjunction drawn as a SELECT's is.
    pub fn delete(&mut self, ti: usize) -> Statement {
        let key = self.column(ti, 0, false);
        let lo = self.rng.random_range(-2..self.keys[ti] + 2);
        let hi = lo + 1 + self.below(12) as i64;
        let where_ = match self.below(4) {
            0 => vec![cmp(&key, CmpOp::Eq, int(lo))],
            1 => vec![cmp(&key, CmpOp::Ge, int(lo)), cmp(&key, CmpOp::Lt, int(hi))],
            _ => self.conjuncts(ti, false),
        };
        let table = self.tables[ti].name.clone();
        Statement::Delete { table, where_ }
    }

    /// An aggregate over a column of table `ti`: COUNT of any, MIN and MAX
    /// of a number, SUM and AVG of a number (a DOUBLE with
    /// [`Gen::float_sums`]), and with [`Gen::refusals`] now and then one of
    /// those four over a string.
    fn aggregate(&mut self, ti: usize) -> SelectItem {
        use AggKind::*;
        let c = self.below(self.tables[ti].columns.len());
        let refused = self.refusals && self.below(4) == 0;
        let kinds: &[AggKind] = match self.tables[ti].columns[c].ty {
            LogicalType::Str if refused => &[Sum, Min, Max, Avg],
            LogicalType::Str => &[Count],
            LogicalType::F64 if !self.float_sums => &[Count, Min, Max],
            _ => &[Count, Sum, Min, Max, Avg],
        };
        SelectItem::Agg(self.pick(kinds), self.column(ti, c, false))
    }

    /// A SELECT on table `ti`, mostly filtered: columns (ORDER BY one of them
    /// in either direction, and LIMIT), scalar aggregates, a GROUP BY, or —
    /// from `t` while `u` exists — the join of the two on their keys.
    pub fn select(&mut self, ti: usize) -> Statement {
        let mut sel = self.count(ti);
        if self.below(4) == 0 {
            sel.where_.clear();
        }
        let ncols = self.tables[ti].columns.len();
        sel.items = match self.below(4) {
            3 if ti == 0 && self.live[1] => {
                let (t, u) = (self.column(0, 0, true), self.column(1, 0, true));
                sel.join = Some(JoinClause {
                    table: self.tables[1].name.clone(),
                    left: t.clone(),
                    right: u,
                });
                let (side, c) = (self.below(2), self.below(ncols));
                sel.where_ = self.conjuncts(side, true);
                match self.below(2) {
                    0 => vec![SelectItem::CountStar],
                    _ => vec![t, self.column(0, c, true), self.column(1, 1, true)]
                        .into_iter()
                        .map(SelectItem::Column)
                        .collect(),
                }
            }
            1 => {
                let mut items = vec![SelectItem::CountStar];
                items.extend((0..1 + self.below(3)).map(|_| self.aggregate(ti)));
                items
            }
            2 => {
                let g = self.below(ncols);
                let g = self.column(ti, g, false);
                sel.group_by = vec![g.clone()];
                let mut items = vec![SelectItem::Column(g), SelectItem::CountStar];
                items.extend((0..self.below(3)).map(|_| self.aggregate(ti)));
                items
            }
            _ => {
                let mut cols: Vec<usize> =
                    (0..1 + self.below(3)).map(|_| self.below(ncols)).collect();
                if self.below(2) == 0 {
                    let by = if self.key_order { 0 } else { cols[0] };
                    cols.insert(0, by);
                    sel.order_by = Some((self.column(ti, by, false), self.below(2) == 0));
                    sel.limit = (self.below(4) > 0).then(|| self.below(30));
                }
                cols.iter()
                    .map(|&c| SelectItem::Column(self.column(ti, c, false)))
                    .collect()
            }
        };
        Statement::Select(sel)
    }

    /// `SELECT COUNT(*) FROM … WHERE …` on table `ti`.
    fn count(&mut self, ti: usize) -> SelectStmt {
        SelectStmt {
            items: vec![SelectItem::CountStar],
            from: self.tables[ti].name.clone(),
            join: None,
            where_: self.conjuncts(ti, false),
            group_by: Vec::new(),
            order_by: None,
            limit: None,
        }
    }

    /// `SELECT COUNT(*), SUM(c) FROM … WHERE …` over table `ti`'s second
    /// column `c`: the read [`Model::tally`] answers.
    pub fn tally(&mut self, ti: usize) -> Statement {
        let mut sel = self.count(ti);
        let sum = SelectItem::Agg(AggKind::Sum, self.column(ti, 1, false));
        sel.items.push(sum);
        Statement::Select(sel)
    }

    /// Whether `stmt`, over the generated tables, is one of the statements
    /// [`Gen::refusals`] draws to be refused: an INSERT of a row the table
    /// does not store, or an aggregate other than COUNT over a string.
    pub fn refused(&self, stmt: &Statement) -> bool {
        let schema = |name: &str| self.tables.iter().find(|t| t.name == name).unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                rows.iter().any(|r| stored(schema(table), r).is_none())
            }
            Statement::Select(s) => s.items.iter().any(|item| match item {
                SelectItem::Agg(kind, col) if *kind != AggKind::Count => {
                    let (_, def) = schema(&s.from).column(&col.column).unwrap();
                    !def.ty.is_numeric()
                }
                _ => false,
            }),
            _ => false,
        }
    }
}

/// The mixed workload: a table's CREATE while it does not exist, then
/// INSERTs, DELETEs and SELECTs, now and then a DROP, and every sixteenth
/// write a CHECKPOINT (so a prefix of the writes holds a fixed number of
/// them, whatever the seed).
impl Iterator for Gen {
    type Item = Statement;

    fn next(&mut self) -> Option<Statement> {
        let ti = (self.below(4) == 0) as usize;
        let stmt = match self.below(40) {
            _ if self.writes % 16 == 15 => Statement::Checkpoint,
            _ if !self.live[ti] => self.create(ti),
            0..=13 => self.insert(ti),
            14..=21 => self.delete(ti),
            22..=38 => self.select(ti),
            _ => self.drop_table(ti),
        };
        self.writes += !matches!(stmt, Statement::Select(_)) as usize;
        Some(stmt)
    }
}

/// `stmt` with each literal of its WHERE clause or VALUES rows made a `?`
/// slot, and the literals in slot order: what `PREPARE` caches and
/// `EXECUTE` binds. [`Statement::bind_params`] is its inverse.
pub fn parameterize(stmt: &Statement) -> (Statement, Vec<Value>) {
    let mut body = stmt.clone();
    let slots: Vec<&mut Scalar> = match &mut body {
        Statement::Select(s) => s.where_.iter_mut().map(|p| &mut p.value).collect(),
        Statement::Delete { where_, .. } => where_.iter_mut().map(|p| &mut p.value).collect(),
        Statement::Insert { rows, .. } => rows.cells.iter_mut().collect(),
        _ => Vec::new(),
    };
    let mut args = Vec::new();
    for slot in slots {
        if let Scalar::Lit(v) = std::mem::replace(slot, Scalar::Param(args.len())) {
            args.push(v);
        }
    }
    (body, args)
}

/// Whether `row` — cells as a table with `schema` stores them — satisfies
/// every conjunct under SQL's NULL rules: a comparison with a NULL cell, a
/// NULL literal or a literal the column stores as its nil is never true.
pub fn holds(preds: &[Predicate], schema: &TableSchema, row: &[Value]) -> bool {
    use std::cmp::Ordering::*;
    use CmpOp::*;
    preds.iter().all(|p| {
        let c = schema.column_index(&p.col.column).expect("a column");
        let lit = p.value.as_lit().expect("a literal, not a placeholder");
        let order = row[c]
            .sql_cmp(lit)
            .filter(|_| lit.stored_nil(schema.columns[c].ty) != Some(true));
        matches!(
            (p.op, order),
            (Eq | Le | Ge, Some(Equal))
                | (Ne | Lt | Le, Some(Less))
                | (Ne | Gt | Ge, Some(Greater))
        )
    })
}

/// An INSERT row as a table with `schema` stores it, each cell in its
/// column's type and a nil sentinel as NULL; `None` when the table refuses
/// it (NULL in a NOT NULL column).
pub fn stored(schema: &TableSchema, row: &[Scalar]) -> Option<Vec<Value>> {
    let cells = row.iter().zip(&schema.columns);
    cells
        .map(|(cell, def)| {
            let v = cell.as_lit()?;
            match v.stored_nil(def.ty)? {
                true if def.nullable => Some(Value::Null),
                true => None,
                false => v.coerce(def.ty),
            }
        })
        .collect()
}

/// A table as the naive model holds it: its live rows in insertion order,
/// as [`stored`].
pub struct Model {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
}

impl Model {
    pub fn new(schema: &TableSchema) -> Model {
        let (schema, rows) = (schema.clone(), Vec::new());
        Model { schema, rows }
    }

    /// What an INSERT or DELETE does to the table: the number of rows it
    /// affects, or `None` for an INSERT the table refuses (which changes
    /// nothing).
    pub fn apply(&mut self, stmt: &Statement) -> Option<usize> {
        let before = self.rows.len();
        match stmt {
            Statement::Insert { rows, .. } => {
                let rows = rows.iter().map(|r| stored(&self.schema, r));
                let rows = rows.collect::<Option<Vec<_>>>()?;
                self.rows.extend(rows);
                Some(self.rows.len() - before)
            }
            Statement::Delete { where_, .. } => {
                self.rows.retain(|r| !holds(where_, &self.schema, r));
                Some(before - self.rows.len())
            }
            other => panic!("the model applies INSERT and DELETE, not {other}"),
        }
    }

    /// The answer to a [`Gen::tally`]: the count and the sum, as integers.
    pub fn tally(&self, stmt: &Statement) -> Vec<Option<i64>> {
        let Statement::Select(s) = stmt else {
            panic!("not a SELECT: {stmt}")
        };
        let (mut count, mut sum) = (0, None);
        for r in self
            .rows
            .iter()
            .filter(|r| holds(&s.where_, &self.schema, r))
        {
            count += 1;
            sum = r[1].as_i64().map_or(sum, |x| Some(sum.unwrap_or(0) + x));
        }
        vec![Some(count), sum]
    }
}

// ------------------------------------------------------------- MAL plans

const ROWS: usize = 4096;
const DIM_ROWS: usize = 64;

/// A BIGINT table made from whole columns, as a bulk load makes one.
pub fn int_table(cat: &mut Catalog, name: &str, columns: Vec<(&str, Vec<i64>)>) {
    let (names, data): (Vec<&str>, Vec<Vec<i64>>) = columns.into_iter().unzip();
    let defs = names
        .into_iter()
        .map(|c| ColumnDef::new(c, LogicalType::I64));
    let bats = data.into_iter().map(Bat::from_vec).collect();
    let table = Table::from_bats(TableSchema::new(name, defs.collect()), bats);
    cat.create_table(table.unwrap()).unwrap();
}

/// A fact table `t (c0, c1, s, c2)` of uniform columns — `s` provably
/// sorted and nil-free, `c2` a key into the dimension — and the dimension
/// `d (k)`.
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let fact = vec![
        ("c0", uniform_i64(ROWS, 0, 1000, 11)),
        ("c1", uniform_i64(ROWS, 0, 1000, 12)),
        // provably sorted and nil-free: SortedSelect fires on this one
        ("s", (0..ROWS as i64).collect()),
        ("c2", uniform_i64(ROWS, 0, DIM_ROWS as i64, 13)),
    ];
    int_table(&mut cat, "t", fact);
    int_table(&mut cat, "d", vec![("k", (0..DIM_ROWS as i64).collect())]);
    cat
}

pub fn bind(p: &mut Program, table: &str, column: &str) -> usize {
    let name = |s: &str| Arg::Const(Value::Str(s.into()));
    p.push(OpCode::Bind, vec![name(table), name(column)])[0]
}

/// One randomized plan with scalar results: select on a random column
/// (cuts deliberately range past both interval ends, so accept-all /
/// accept-none proofs fire), project a random payload, an optional calc
/// chain, an optional join against the dimension, scalar aggregates at the
/// end.
pub fn random_plan(rng: &mut StdRng) -> Program {
    let cols = ["c0", "c1", "s", "c2"];
    let mut p = Program::new();
    let sel_col = cols[rng.random_range(0..cols.len())];
    let a = bind(&mut p, "t", sel_col);
    let cmp = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le][rng.random_range(0..4usize)];
    let cut = Arg::Const(Value::I64(rng.random_range(-100..1100)));
    let cands = p.push(OpCode::ThetaSelect(cmp), vec![Arg::Var(a), cut])[0];
    let pay_col = cols[rng.random_range(0..cols.len())];
    let b = bind(&mut p, "t", pay_col);
    let mut v = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(b)])[0];
    for _ in 0..rng.random_range(0..3usize) {
        let op = [ArithOp::Add, ArithOp::Mul][rng.random_range(0..2usize)];
        let k = Arg::Const(Value::I64(rng.random_range(1..10)));
        v = p.push(OpCode::Calc(op), vec![Arg::Var(v), k])[0];
    }
    let mut outs = Vec::new();
    if rng.random_bool(0.5) {
        let fk = bind(&mut p, "t", "c2");
        let keys = p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(fk)])[0];
        let dk = bind(&mut p, "d", "k");
        let j = p.push(OpCode::Join, vec![Arg::Var(keys), Arg::Var(dk)]);
        outs.push(p.push(OpCode::Count, vec![Arg::Var(j[0])])[0]);
    }
    outs.push(p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(v)])[0]);
    outs.push(p.push(OpCode::Count, vec![Arg::Var(v)])[0]);
    p.push_result(&outs);
    p
}

/// One randomized chain the `fuse_pipeline` pass takes whole, as
/// `compile_select` writes it, over `columns` of `table`: one to three
/// selections threading one candidate list (every comparison, and ranges,
/// bounded by `constant`s), fetches through the last list, and one of four
/// sinks — the fetched columns, now and then cut by a LIMIT; a top-N of one
/// of them with the others fetched in its order; global aggregates; a
/// grouping with its key and grouped aggregates.
pub fn random_fusable_plan(
    rng: &mut StdRng,
    table: &str,
    columns: &[(&str, LogicalType)],
    constant: fn(LogicalType, &mut StdRng) -> Value,
) -> Program {
    use AggKind::*;
    let mut p = Program::new();
    let mut cands: Option<usize> = None;
    for _ in 0..rng.random_range(1..4) {
        let (name, ty) = columns[rng.random_range(0..columns.len())];
        let mut args = vec![Arg::Var(bind(&mut p, table, name))];
        args.extend(cands.map(Arg::Var));
        let op = if rng.random_bool(0.5) {
            use CmpOp::*;
            args.push(Arg::Const(constant(ty, rng)));
            OpCode::ThetaSelect([Eq, Ne, Lt, Le, Gt, Ge][rng.random_range(0..6usize)])
        } else {
            // NULL is an open bound here; lo > hi happens and is empty
            args.extend([constant(ty, rng), constant(ty, rng)].map(Arg::Const));
            OpCode::RangeSelect {
                lo_incl: rng.random_bool(0.5),
                hi_incl: rng.random_bool(0.5),
            }
        };
        cands = Some(p.push(op, args)[0]);
    }
    let cands = cands.expect("at least one filter");
    let fetch = |p: &mut Program, column: usize| {
        let bound = bind(p, table, columns[column].0);
        p.push(OpCode::Projection, vec![Arg::Var(cands), Arg::Var(bound)])[0]
    };
    let any = |rng: &mut StdRng| rng.random_range(0..columns.len());
    // aggregates fold every column but a BOOLEAN one
    let folded = |rng: &mut StdRng| loop {
        let c = any(rng);
        if columns[c].1 != LogicalType::Bool {
            break c;
        }
    };
    let kinds = [Count, Sum, Min, Max, Avg];
    let mut outs = Vec::new();
    let sink = rng.random_range(0..4);
    if sink == 0 {
        // emitted columns; now and then cut by a LIMIT
        let limit = rng
            .random_bool(0.25)
            .then(|| rng.random_range(0..2 * VECTOR_SIZE as i64));
        let fetched: Vec<usize> = (0..rng.random_range(1..4))
            .map(|_| fetch(&mut p, any(rng)))
            .collect();
        for v in fetched {
            outs.push(match limit {
                None => v,
                Some(n) => {
                    let cut = [Value::I64(0), Value::I64(n)].map(Arg::Const);
                    let args = [vec![Arg::Var(v)], cut.to_vec()].concat();
                    p.push(OpCode::Slice, args)[0]
                }
            });
        }
    } else if sink == 1 {
        // a top-N: the key sorted, other columns fetched in its order
        let key = fetch(&mut p, any(rng));
        let others: Vec<usize> = (0..rng.random_range(0..3))
            .map(|_| fetch(&mut p, any(rng)))
            .collect();
        let n = match rng.random_range(0..5) {
            0 => 0,
            1 => 1,
            2 => rng.random_range(2..12),
            3 => rng.random_range(0..VECTOR_SIZE as i64 + 2),
            _ => 1 << 40,
        };
        let desc = rng.random_bool(0.5);
        let args = vec![Arg::Var(key), Arg::Const(Value::I64(n))];
        let [sorted, order] = p.push(OpCode::FirstN { desc }, args)[..] else {
            unreachable!("algebra.firstn binds two results")
        };
        outs.push(sorted);
        for v in others {
            outs.push(p.push(OpCode::Projection, vec![Arg::Var(order), Arg::Var(v)])[0]);
        }
    } else if sink == 2 {
        for _ in 0..rng.random_range(1..5) {
            outs.push(if rng.random_range(0..4) == 0 {
                p.push(OpCode::Count, vec![Arg::Var(cands)])[0]
            } else {
                let v = fetch(&mut p, folded(rng));
                let kind = kinds[rng.random_range(0..kinds.len())];
                p.push(OpCode::Aggr(kind), vec![Arg::Var(v)])[0]
            });
        }
    } else {
        let key = fetch(&mut p, any(rng));
        let [gids, ext] = p.push(OpCode::Group, vec![Arg::Var(key)])[..] else {
            unreachable!("group.group binds two results")
        };
        outs.push(p.push(OpCode::Projection, vec![Arg::Var(ext), Arg::Var(key)])[0]);
        for _ in 0..rng.random_range(0..4) {
            let (kind, v) = if rng.random_range(0..4) == 0 {
                (Count, gids)
            } else {
                let v = fetch(&mut p, folded(rng));
                (kinds[rng.random_range(0..kinds.len())], v)
            };
            let args = vec![Arg::Var(v), Arg::Var(gids), Arg::Var(ext)];
            outs.push(p.push(OpCode::AggrGrouped(kind), args)[0]);
        }
    }
    p.push_result(&outs);
    p
}
