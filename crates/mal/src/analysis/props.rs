//! Abstract interpretation of MAL plans over a property lattice.
//!
//! One forward walk infers, per SSA variable, a [`Props`] element:
//! cardinality bounds, a value interval over the non-nil tail values,
//! order/key/nullability flags, and head density. Base binds are seeded
//! from catalog statistics ([`column_facts`], optionally sharpened by zone
//! maps via [`column_facts_with_zonemaps`]); every opcode has a transfer
//! function documented in `docs/mal-analysis.md`, and anything unmodeled
//! falls back to the conservative [`Props::top`].
//!
//! Soundness contract: every fact claimed must hold for the BAT the
//! interpreter actually materializes for that variable. The runtime
//! checker (`MAMMOTH_CHECK_PROPS`, see [`check_bat`]) turns any breach
//! into a hard error, in both the serial and the dataflow engine.
//!
//! The analysis is total: malformed programs degrade to `Top` rather than
//! panic. The only error it reports is an explicit `bat.setprops` claim it
//! cannot confirm — the verifier's hook for rejecting annotated plans
//! whose annotations the dataflow facts do not support.

use crate::program::{Arg, Instr, OpCode, PipelineOut, PipelineSink, PipelineSpec, Program, VarId};
use mammoth_algebra::{AggKind, ArithOp, CmpOp};
use mammoth_index::ZoneMap;
use mammoth_storage::{Bat, Catalog, ColumnView};
use mammoth_types::{LogicalType, NativeType, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// Inferred properties of one BAT-valued variable. Every field is a
/// *may*-bound: `sorted == false` means "not proven sorted", never "proven
/// unsorted". `min`/`max` bound the non-nil tail values only (nil sorts
/// below everything at runtime but carries no value).
#[derive(Debug, Clone, PartialEq)]
pub struct Props {
    /// Inclusive lower bound on the row count.
    pub card_lo: u64,
    /// Inclusive upper bound on the row count; `None` = unbounded.
    pub card_hi: Option<u64>,
    /// Lower bound on every non-nil tail value.
    pub min: Option<Value>,
    /// Upper bound on every non-nil tail value.
    pub max: Option<Value>,
    /// Tail is non-decreasing (nils first).
    pub sorted: bool,
    /// Tail is non-increasing (nils last).
    pub revsorted: bool,
    /// Tail values are pairwise distinct. The analysis only ever claims
    /// `key` together with `sorted || revsorted`, matching what the
    /// runtime ground truth can confirm in one pass.
    pub key: bool,
    /// All tail values are non-nil.
    pub nonil: bool,
    /// Head is void (dense oids).
    pub void_head: bool,
}

impl Props {
    /// The no-information element: anything at all may have happened.
    pub const fn top() -> Props {
        Props {
            card_lo: 0,
            card_hi: None,
            min: None,
            max: None,
            sorted: false,
            revsorted: false,
            key: false,
            nonil: false,
            void_head: false,
        }
    }

    /// An exact cardinality `[n, n]`.
    pub fn with_card(mut self, n: u64) -> Props {
        self.card_lo = n;
        self.card_hi = Some(n);
        self
    }

    /// Whether this element proves every flag in `claims`.
    fn implies(&self, claims: &Claims) -> Option<&'static str> {
        if claims.sorted && !self.sorted {
            return Some("sorted");
        }
        if claims.revsorted && !self.revsorted {
            return Some("revsorted");
        }
        if claims.key && !self.key {
            return Some("key");
        }
        if claims.nonil && !self.nonil {
            return Some("nonil");
        }
        None
    }
}

impl fmt::Display for Props {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.card_hi {
            Some(hi) if hi == self.card_lo => write!(f, "rows={hi}")?,
            Some(hi) => write!(f, "rows={}..{hi}", self.card_lo)?,
            None => write!(f, "rows={}..", self.card_lo)?,
        }
        if self.min.is_some() || self.max.is_some() {
            let side = |v: &Option<Value>| match v {
                Some(v) => v.to_string(),
                None => "?".to_string(),
            };
            write!(f, " vals=[{}, {}]", side(&self.min), side(&self.max))?;
        }
        for (on, name) in [
            (self.sorted, "sorted"),
            (self.revsorted, "revsorted"),
            (self.key, "key"),
            (self.nonil, "nonil"),
            (self.void_head, "dense"),
        ] {
            if on {
                write!(f, " {name}")?;
            }
        }
        Ok(())
    }
}

/// Facts the analysis tracks per BAT variable beyond [`Props`]: the head
/// seqbase when statically known, and — for `algebra.slice(b, i, k)`
/// fragments — the mitosis lineage, so `mat.pack` of a complete fragment
/// group can restore the parent's facts exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct BatFacts {
    pub props: Props,
    /// Void-head seqbase when statically known.
    pub seqbase: Option<u64>,
    /// `(parent var, fragment index, fragment count)` lineage.
    frag: Option<(VarId, u64, u64)>,
}

/// What is known of a variable nothing is known of.
static TOP: BatFacts = BatFacts {
    props: Props::top(),
    seqbase: None,
    frag: None,
};

impl BatFacts {
    /// A freshly materialized result: dense head with seqbase 0.
    fn dense0(mut props: Props) -> BatFacts {
        props.void_head = true;
        BatFacts {
            props,
            seqbase: Some(0),
            frag: None,
        }
    }
}

/// Per-variable verdict of the walk.
#[derive(Debug, Clone, PartialEq)]
enum VarFacts {
    Bat(BatFacts),
    Scalar,
}

/// An explicit `bat.setprops` claim the analysis could not confirm.
#[derive(Debug, Clone, PartialEq)]
pub struct PropsError {
    /// Instruction index of the offending claim.
    pub instr: usize,
    /// `module.function` name.
    pub op: String,
    pub message: String,
}

impl fmt::Display for PropsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instr {} ({}): {}", self.instr, self.op, self.message)
    }
}

impl std::error::Error for PropsError {}

/// Catalog statistics for base binds, by table and column. Names compare
/// the way the catalog's do: case-insensitively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnFacts {
    /// lowercased table -> lowercased column -> facts, and the column's
    /// type when the facts were read off a catalog
    tables: HashMap<String, HashMap<String, (Props, Option<LogicalType>)>>,
}

/// `name` lowercased; borrowed when it already is, as the names a compiled
/// plan binds almost always are.
fn lowercased(name: &str) -> Cow<'_, str> {
    if name.chars().any(char::is_uppercase) {
        Cow::Owned(name.to_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl ColumnFacts {
    pub fn new() -> ColumnFacts {
        ColumnFacts::default()
    }

    /// Record (or replace) the facts of `table.column`, its type unknown.
    pub fn insert(&mut self, table: &str, column: &str, props: Props) {
        self.record(table, column, props, None);
    }

    fn record(&mut self, table: &str, column: &str, props: Props, ty: Option<LogicalType>) {
        let (t, c) = (lowercased(table), lowercased(column));
        match self.tables.get_mut(&*t) {
            Some(columns) => columns.insert(c.into_owned(), (props, ty)),
            None => self
                .tables
                .entry(t.into_owned())
                .or_default()
                .insert(c.into_owned(), (props, ty)),
        };
    }

    fn entry(&self, table: &str, column: &str) -> Option<&(Props, Option<LogicalType>)> {
        self.tables
            .get(&*lowercased(table))?
            .get(&*lowercased(column))
    }

    /// The facts of `table.column`, if recorded.
    pub fn get(&self, table: &str, column: &str) -> Option<&Props> {
        self.entry(table, column).map(|(props, _)| props)
    }

    /// The type of `table.column`, known when its facts came from a catalog
    /// ([`column_facts`], [`bound_column_facts`]) — a pass that emits
    /// type-specific code asks here and leaves alone what it cannot type.
    pub fn type_of(&self, table: &str, column: &str) -> Option<LogicalType> {
        self.entry(table, column)?.1
    }
}

/// Compare two bound values; `None` when incomparable (nil, or mixed
/// non-numeric types). Numeric values compare across widths.
pub fn cmp_vals(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Oid(x), Value::Oid(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::F64(_), _) | (_, Value::F64(_)) => a.as_f64()?.partial_cmp(&b.as_f64()?),
        _ => Some(a.as_i64()?.cmp(&b.as_i64()?)),
    }
}

fn le(a: &Value, b: &Value) -> bool {
    matches!(cmp_vals(a, b), Some(Ordering::Less | Ordering::Equal))
}

fn lt(a: &Value, b: &Value) -> bool {
    matches!(cmp_vals(a, b), Some(Ordering::Less))
}

/// Cheap per-column facts from the delta layer's eager base statistics:
/// exact cardinality always (the *live* rows: `sql.bind` does not yield the
/// deleted ones); order/key/nullability flags and the exact min/max
/// whenever the column has no pending deltas
/// ([`mammoth_storage::ColumnView::stable_props`]).
///
/// This walks the whole catalog — for tests, tools and set-up. A compile
/// path gathers [`bound_column_facts`] instead, so that what a statement
/// costs does not grow with the number of tables it does not touch.
pub fn column_facts(catalog: &Catalog) -> ColumnFacts {
    facts_impl(catalog, false)
}

/// [`column_facts`], additionally folding a zone map over each clean `i64`
/// column into the value interval — the zone-map fact path the tentpole
/// calls for. Costs one scan per column; meant for tests, `malcheck`, and
/// benchmark setup rather than the per-query path.
pub fn column_facts_with_zonemaps(catalog: &Catalog) -> ColumnFacts {
    facts_impl(catalog, true)
}

/// [`column_facts`] for the columns `prog` binds and no others — every fact
/// an analysis of `prog` can ask for.
pub fn bound_column_facts(prog: &Program, catalog: &Catalog) -> ColumnFacts {
    let mut out = ColumnFacts::new();
    for (t, c) in prog.bound_columns() {
        if out.get(t, c).is_none() {
            if let Some((p, ty)) = typed_column_props(catalog, t, c) {
                out.record(t, c, p, Some(ty));
            }
        }
    }
    out
}

/// The [`column_facts`] entry of one column, read live from the catalog;
/// `None` when the catalog has no such column.
pub fn column_props(catalog: &Catalog, table: &str, column: &str) -> Option<Props> {
    typed_column_props(catalog, table, column).map(|(props, _)| props)
}

fn typed_column_props(
    catalog: &Catalog,
    table: &str,
    column: &str,
) -> Option<(Props, LogicalType)> {
    let t = catalog.table(table).ok()?;
    let i = t.schema.column_index(column)?;
    let ty = t.schema.columns[i].ty;
    Some((props_of(t.column(i), ty, false), ty))
}

fn facts_impl(catalog: &Catalog, zonemaps: bool) -> ColumnFacts {
    let mut out = ColumnFacts::new();
    for name in catalog.table_names() {
        let Ok(t) = catalog.table(name) else { continue };
        for (i, cdef) in t.schema.columns.iter().enumerate() {
            let props = props_of(t.column(i), cdef.ty, zonemaps);
            out.record(name, &cdef.name, props, Some(cdef.ty));
        }
    }
    out
}

fn props_of(col: ColumnView<'_>, ty: LogicalType, zonemaps: bool) -> Props {
    let mut p = Props::top().with_card(col.live_len() as u64);
    p.void_head = true;
    if let Some(sp) = col.stable_props() {
        p.sorted = sp.sorted;
        p.revsorted = sp.revsorted;
        p.key = sp.key && (sp.sorted || sp.revsorted);
        p.nonil = sp.nonil;
        p.min = sp.min.clone();
        p.max = sp.max.clone();
        if zonemaps && p.min.is_none() && ty == LogicalType::I64 {
            if let Ok(vals) = col.base().tail_slice::<i64>() {
                let live: Vec<i64> = vals.iter().copied().filter(|&v| v != i64::MIN).collect();
                if let Some((lo, hi)) = ZoneMap::build(&live, 1024).bounds() {
                    p.min = Some(Value::I64(lo));
                    p.max = Some(Value::I64(hi));
                }
            }
        }
    }
    p
}

/// The result of one analysis walk: facts per variable, in plan order.
#[derive(Debug, Clone)]
pub struct Analysis {
    facts: Vec<Option<VarFacts>>,
}

impl Analysis {
    /// The inferred properties of BAT variable `v`, if it is one.
    pub fn props_of(&self, v: VarId) -> Option<&Props> {
        match self.facts.get(v)? {
            Some(VarFacts::Bat(b)) => Some(&b.props),
            _ => None,
        }
    }

    /// Full facts (props + seqbase) of BAT variable `v`.
    pub fn bat_facts(&self, v: VarId) -> Option<&BatFacts> {
        match self.facts.get(v)? {
            Some(VarFacts::Bat(b)) => Some(b),
            _ => None,
        }
    }

    /// Render the inferred facts of an instruction's results, one clause
    /// per result — the `EXPLAIN`/`malcheck --props` line.
    pub fn describe_instr(&self, instr: &Instr) -> String {
        let mut parts = Vec::new();
        for &r in &instr.results {
            match self.facts.get(r) {
                Some(Some(VarFacts::Bat(b))) => parts.push(format!("x{r}: {}", b.props)),
                Some(Some(VarFacts::Scalar)) => parts.push(format!("x{r}: scalar")),
                _ => parts.push(format!("x{r}: ?")),
            }
        }
        parts.join("; ")
    }
}

/// Analyze with no base-bind statistics: binds start at `Top` (plus the
/// dense-head fact every materialized column has).
pub fn analyze(prog: &Program) -> Result<Analysis, PropsError> {
    analyze_with_facts(prog, &ColumnFacts::new())
}

/// Analyze against a live catalog ([`bound_column_facts`] seeds the binds).
pub fn analyze_with_catalog(prog: &Program, catalog: &Catalog) -> Result<Analysis, PropsError> {
    analyze_with_facts(prog, &bound_column_facts(prog, catalog))
}

/// The forward walk. `Err` only for unconfirmable `bat.setprops` claims.
pub fn analyze_with_facts(prog: &Program, facts: &ColumnFacts) -> Result<Analysis, PropsError> {
    let mut a = Analyzer {
        facts: vec![None; prog.nvars()],
        columns: facts,
    };
    for (idx, instr) in prog.instrs.iter().enumerate() {
        a.transfer(idx, instr)?;
    }
    Ok(Analysis { facts: a.facts })
}

struct Analyzer<'a> {
    facts: Vec<Option<VarFacts>>,
    columns: &'a ColumnFacts,
}

impl Analyzer<'_> {
    /// Facts of a BAT argument; `Top` for anything unknown or non-BAT.
    fn bat_arg(&self, instr: &Instr, k: usize) -> &BatFacts {
        match instr.args.get(k) {
            Some(Arg::Var(v)) => match self.facts.get(*v) {
                Some(Some(VarFacts::Bat(b))) => b,
                _ => &TOP,
            },
            _ => &TOP,
        }
    }

    fn const_arg<'i>(&self, instr: &'i Instr, k: usize) -> Option<&'i Value> {
        match instr.args.get(k) {
            Some(Arg::Const(v)) => Some(v),
            _ => None,
        }
    }

    fn set(&mut self, instr: &Instr, k: usize, f: VarFacts) {
        if let Some(&r) = instr.results.get(k) {
            if let Some(slot) = self.facts.get_mut(r) {
                *slot = Some(f);
            }
        }
    }

    fn set_bat(&mut self, instr: &Instr, k: usize, f: BatFacts) {
        self.set(instr, k, VarFacts::Bat(f));
    }

    /// The row count argument `k` of a top-N (`algebra.firstn`, a pipeline's
    /// top-N sink) as a limit: unbounded unless it is a constant.
    fn row_limit(&self, instr: &Instr, k: usize) -> u64 {
        let n = self.const_arg(instr, k).and_then(|v| v.as_i64());
        n.map_or(u64::MAX, |n| n.max(0) as u64)
    }

    fn transfer(&mut self, idx: usize, instr: &Instr) -> Result<(), PropsError> {
        match &instr.op {
            OpCode::Bind => self.t_bind(instr),
            OpCode::ThetaSelect(_) | OpCode::RangeSelect { .. } => {
                let bounds = instr.select_args().map_or(&[][..], |s| s.bounds);
                let verdict = select_verdict(self.bat_arg(instr, 0), &instr.op, bounds);
                let f = self.t_select(instr, verdict);
                self.set_bat(instr, 0, f);
            }
            OpCode::Projection => self.t_projection(instr),
            OpCode::Join => self.t_join(instr),
            OpCode::Group => self.t_group(instr),
            OpCode::GroupRefine => self.t_group_refine(instr),
            OpCode::Aggr(_) | OpCode::Count | OpCode::PackSum => {
                self.set(instr, 0, VarFacts::Scalar);
            }
            OpCode::AggrGrouped(kind) => self.t_aggr_grouped(instr, *kind),
            OpCode::Calc(op) => self.t_calc(instr, *op),
            OpCode::Sort { desc } => self.t_sort(instr, *desc, None),
            OpCode::FirstN { desc } => self.t_sort(instr, *desc, Some(self.row_limit(instr, 1))),
            OpCode::Slice => self.t_slice(instr),
            OpCode::PartSlice => self.t_part_slice(instr),
            OpCode::Pack => self.t_pack(instr),
            OpCode::Mirror => self.t_mirror(instr),
            OpCode::SetProps => self.t_set_props(idx, instr)?,
            OpCode::Pipeline(spec) => self.t_pipeline(instr, spec),
            OpCode::Result | OpCode::Free => {}
        }
        Ok(())
    }

    /// `sql.bind` materializes a column: dense head, seqbase 0, and
    /// whatever the catalog statistics say about the rows.
    fn t_bind(&mut self, instr: &Instr) {
        let known = match (self.const_arg(instr, 0), self.const_arg(instr, 1)) {
            (Some(Value::Str(t)), Some(Value::Str(c))) => self.columns.get(t, c),
            _ => None,
        };
        let props = known.cloned().unwrap_or_else(|| {
            let mut p = Props::top();
            p.void_head = true;
            p
        });
        self.set_bat(instr, 0, BatFacts::dense0(props));
    }

    /// Selections yield candidate lists: over a dense input the result's
    /// oids are strictly ascending, so it is sorted+key+nonil; its values
    /// sit inside `[seqbase, seqbase + n - 1]`. Cardinality is refined by
    /// the interval verdict when the predicate provably keeps all/none.
    ///
    /// With a candidate list the result is the subsequence of it whose rows
    /// qualify: order, key and interval facts carry over from the list,
    /// cardinality is bounded by it, and (every candidate having to name a
    /// row of the input, or the select raises) the input's oid range bounds
    /// the values as well.
    fn t_select(&mut self, instr: &Instr, verdict: SelectVerdict) -> BatFacts {
        let input = self.bat_arg(instr, 0);
        let cand = instr
            .select_args()
            .and_then(|s| s.cand)
            .map(|_| self.bat_arg(instr, 1));
        // the rows tested: the candidates, or every row of the input
        let tested = cand.as_ref().map_or(&input.props, |c| &c.props);
        let mut p = Props::top();
        p.void_head = true;
        p.nonil = true;
        match verdict {
            SelectVerdict::None => {
                p.card_lo = 0;
                p.card_hi = Some(0);
            }
            SelectVerdict::All => {
                p.card_lo = tested.card_lo;
                p.card_hi = tested.card_hi;
            }
            SelectVerdict::Unknown => {
                p.card_lo = 0;
                p.card_hi = tested.card_hi;
            }
        }
        if let Some(c) = &cand {
            p.sorted = c.props.sorted;
            p.key = c.props.key;
            p.min = c.props.min.clone();
            p.max = c.props.max.clone();
        } else if input.props.void_head {
            p.sorted = true;
            p.key = true;
        }
        if let (true, Some(s), Some(hi)) =
            (input.props.void_head, input.seqbase, input.props.card_hi)
        {
            let (first, last) = (Value::Oid(s), Value::Oid(s + hi.saturating_sub(1)));
            p.min = Some(match p.min.take() {
                Some(m) if lt(&first, &m) => m,
                _ => first,
            });
            p.max = Some(match p.max.take() {
                Some(m) if lt(&m, &last) => m,
                _ => last,
            });
        }
        p.revsorted = matches!(p.card_hi, Some(hi) if hi <= 1);
        BatFacts::dense0(p)
    }

    /// `algebra.projection(cands, values)` fetches `values[cands]`: the
    /// result has exactly the candidates' cardinality and draws its values
    /// from the values BAT, so the interval and `nonil` carry over. Order
    /// facts carry over only when the candidates are sorted *and* the
    /// values BAT is dense (ascending oids then fetch ascending positions).
    fn t_projection(&mut self, instr: &Instr) {
        let p = projection_props(&self.bat_arg(instr, 0).props, &self.bat_arg(instr, 1).props);
        self.set_bat(instr, 0, BatFacts::dense0(p));
    }

    /// `algebra.join(l, r)` emits two aligned position lists of unknown
    /// order; rows are at most `|l| * |r|`, and positions are never nil.
    fn t_join(&mut self, instr: &Instr) {
        let l = self.bat_arg(instr, 0);
        let r = self.bat_arg(instr, 1);
        let hi = match (l.props.card_hi, r.props.card_hi) {
            (Some(a), Some(b)) => a.checked_mul(b),
            _ => None,
        };
        for k in 0..2 {
            let mut p = Props::top();
            p.card_hi = hi;
            p.nonil = true;
            self.set_bat(instr, k, BatFacts::dense0(p));
        }
    }

    /// `group.new(b)`: ids are one oid per row in `[0, |b|)`; extents are
    /// first-occurrence positions in ascending order (sorted+key+nonil).
    fn t_group(&mut self, instr: &Instr) {
        let b = self.bat_arg(instr, 0);
        let (ids, ext) = (group_ids_props(b), group_ext_props(b));
        self.set_bat(instr, 0, BatFacts::dense0(ids));
        self.set_bat(instr, 1, BatFacts::dense0(ext));
    }

    /// `group.refine(b, gids)` has the same output shapes as `group.new`.
    fn t_group_refine(&mut self, instr: &Instr) {
        let b = self.bat_arg(instr, 0);
        let (ids, ext) = (group_ids_props(b), group_ext_props(b));
        self.set_bat(instr, 0, BatFacts::dense0(ids));
        self.set_bat(instr, 1, BatFacts::dense0(ext));
    }

    /// Grouped aggregates emit one row per group (the extents' length).
    /// `count` rows are non-nil and bounded by the input's cardinality;
    /// `min`/`max`/`avg` values stay inside the input's interval.
    fn t_aggr_grouped(&mut self, instr: &Instr, kind: AggKind) {
        let vals = &self.bat_arg(instr, 0).props;
        let ext = &self.bat_arg(instr, 2).props;
        let p = grouped_agg_props(kind, vals, vals.card_hi, (ext.card_lo, ext.card_hi));
        self.set_bat(instr, 0, BatFacts::dense0(p));
    }

    /// `vector.pipeline` binds what the chain it fused would have: scalars
    /// for global aggregates; for a grouped sink, a row per group of the
    /// rows its filters keep — the key's values out of the key column,
    /// counts and aggregates as `aggr.sub*` bounds them; for an emitted
    /// column, what [`Analyzer::t_projection`] claims of a fetch through
    /// the candidate list of those rows; for a top-N sink, what
    /// [`Analyzer::t_sort`] claims of `algebra.firstn` over the fetched key
    /// and of a fetch through its order.
    fn t_pipeline(&mut self, instr: &Instr, spec: &PipelineSpec) {
        if spec.binds_scalars() {
            for k in 0..spec.outs.len() {
                self.set(instr, k, VarFacts::Scalar);
            }
            return;
        }
        // rows surviving the filters: the first scans its whole column,
        // each verdict then keeps all, none, or an unknown share
        let driver = &self.bat_arg(instr, spec.filters[0].col).props;
        let mut kept = (driver.card_lo, driver.card_hi);
        for (f, bounds) in spec.filters_with_bounds(&instr.args).into_iter().flatten() {
            match select_verdict(self.bat_arg(instr, f.col), &f.select_op(), bounds) {
                SelectVerdict::All => {}
                SelectVerdict::None => kept = (0, Some(0)),
                SelectVerdict::Unknown => kept.0 = 0,
            }
        }
        // the candidate list the filters stand for: ascending oids of a
        // dense column
        let mut cands = Props::top();
        (cands.card_lo, cands.card_hi) = kept;
        (cands.sorted, cands.key) = (driver.void_head, driver.void_head);
        let fetched = |an: &Self, c: usize| projection_props(&cands, &an.bat_arg(instr, c).props);
        let top = match spec.sink {
            PipelineSink::Top { key, desc } => {
                let limit = self.row_limit(instr, instr.args.len() - 1);
                Some((key, sort_props(&fetched(self, key), desc, Some(limit))))
            }
            _ => None,
        };
        // one group per distinct key among them: at least one if any row
        let groups = (kept.0.min(1), kept.1);
        for (k, out) in spec.outs.iter().enumerate() {
            let p = match (*out, &top) {
                (PipelineOut::Col(c), None) => fetched(self, c),
                (PipelineOut::Col(c), Some((key, (sorted, _)))) if c == *key => sorted.clone(),
                (PipelineOut::Col(c), Some((_, (_, order)))) => {
                    projection_props(order, &self.bat_arg(instr, c).props)
                }
                (PipelineOut::Key, _) => {
                    let PipelineSink::Group(key) = spec.sink else {
                        continue; // the verifier rejects a key without a group
                    };
                    let key = &self.bat_arg(instr, key).props;
                    let mut p = Props::top();
                    (p.card_lo, p.card_hi) = groups;
                    (p.min, p.max, p.nonil) = (key.min.clone(), key.max.clone(), key.nonil);
                    p
                }
                (PipelineOut::Count, _) => {
                    let mut p = grouped_agg_props(AggKind::Count, &Props::top(), kept.1, groups);
                    // a group exists because a row fell into it
                    p.min = Some(Value::I64(1));
                    p
                }
                (PipelineOut::Agg(kind, c), _) => {
                    grouped_agg_props(kind, &self.bat_arg(instr, c).props, kept.1, groups)
                }
            };
            self.set_bat(instr, k, BatFacts::dense0(p));
        }
    }

    /// `batcalc` is element-wise, so cardinality carries over exactly.
    /// Interval/order transfer is attempted for integer column ⍟ integer
    /// constant only, and only when evaluating the operator on both
    /// interval endpoints provably stays inside the widened type's non-nil
    /// domain — integer batcalc wraps, and a wrap (or a landing on the nil
    /// sentinel) would break monotonicity and the bounds alike.
    fn t_calc(&mut self, instr: &Instr, op: ArithOp) {
        let a = self.bat_arg(instr, 0);
        let mut p = Props::top();
        p.card_lo = a.props.card_lo;
        p.card_hi = a.props.card_hi;
        if let Some(t) = self.calc_interval(instr, op, a) {
            (p.min, p.max) = (Some(t.lo), Some(t.hi));
            p.nonil = a.props.nonil;
            (p.sorted, p.revsorted) = if t.flips {
                (a.props.revsorted, a.props.sorted)
            } else {
                (a.props.sorted, a.props.revsorted)
            };
            p.key = t.strict && a.props.key && (p.sorted || p.revsorted);
        }
        self.set_bat(instr, 0, BatFacts::dense0(p));
    }

    /// The endpoint evaluation behind [`Analyzer::t_calc`]: `None` unless
    /// the no-wrap proof goes through.
    fn calc_interval(&self, instr: &Instr, op: ArithOp, a: &BatFacts) -> Option<CalcInterval> {
        // Div/Mod have nil-on-zero and truncation corners; leave them Top.
        if matches!(op, ArithOp::Div | ArithOp::Mod) {
            return None;
        }
        let c = self.const_arg(instr, 1)?;
        let (amin, amax) = (a.props.min.as_ref()?, a.props.max.as_ref()?);
        let in_ty = amin.logical_type()?;
        if amax.logical_type()? != in_ty {
            return None;
        }
        let widened = LogicalType::widen(in_ty, c.logical_type()?)?;
        let int_domain = |t: LogicalType| -> Option<(i128, i128)> {
            match t {
                LogicalType::I8 => Some((i8::MIN as i128 + 1, i8::MAX as i128)),
                LogicalType::I16 => Some((i16::MIN as i128 + 1, i16::MAX as i128)),
                LogicalType::I32 => Some((i32::MIN as i128 + 1, i32::MAX as i128)),
                LogicalType::I64 => Some((i64::MIN as i128 + 1, i64::MAX as i128)),
                _ => None,
            }
        };
        let (dom_lo, dom_hi) = int_domain(widened)?;
        let (lo, hi, k) = (
            amin.as_i64()? as i128,
            amax.as_i64()? as i128,
            c.as_i64()? as i128,
        );
        let (rlo, rhi, flips, strict) = match op {
            ArithOp::Add => (lo + k, hi + k, false, true),
            ArithOp::Sub => (lo - k, hi - k, false, true),
            ArithOp::Mul if k > 0 => (lo * k, hi * k, false, true),
            ArithOp::Mul if k < 0 => (hi * k, lo * k, true, true),
            ArithOp::Mul => (0, 0, false, false), // k == 0
            _ => return None,
        };
        if rlo < dom_lo || rhi > dom_hi {
            return None;
        }
        let as_val = |x: i128| -> Option<Value> {
            match widened {
                LogicalType::I8 => Some(Value::I8(x as i8)),
                LogicalType::I16 => Some(Value::I16(x as i16)),
                LogicalType::I32 => Some(Value::I32(x as i32)),
                LogicalType::I64 => Some(Value::I64(x as i64)),
                _ => None,
            }
        };
        Some(CalcInterval {
            lo: as_val(rlo)?,
            hi: as_val(rhi)?,
            flips,
            strict,
        })
    }

    /// `algebra.sort` permutes the input: same rows, same multiset of
    /// values, sorted one way or the other. The order BAT holds the `|b|`
    /// source positions (non-nil oids). `algebra.firstn` keeps the first
    /// `limit` rows of both results.
    fn t_sort(&mut self, instr: &Instr, desc: bool, limit: Option<u64>) {
        let (sorted, order) = sort_props(&self.bat_arg(instr, 0).props, desc, limit);
        self.set_bat(instr, 0, BatFacts::dense0(sorted));
        self.set_bat(instr, 1, BatFacts::dense0(order));
    }

    /// `bat.slice(b, lo, hi)` keeps a contiguous run: every filter-stable
    /// flag and the interval carry over; the head keeps its void seqbase
    /// shifted by `lo`.
    fn t_slice(&mut self, instr: &Instr) {
        let b = self.bat_arg(instr, 0);
        let bounds = match (self.const_arg(instr, 1), self.const_arg(instr, 2)) {
            (Some(l), Some(h)) => match (l.as_i64(), h.as_i64()) {
                (Some(l), Some(h)) if l >= 0 && h >= l => Some((l as u64, h as u64)),
                _ => None,
            },
            _ => None,
        };
        let mut p = Props::top();
        p.sorted = b.props.sorted;
        p.revsorted = b.props.revsorted;
        p.key = b.props.key;
        p.nonil = b.props.nonil;
        p.min = b.props.min.clone();
        p.max = b.props.max.clone();
        p.void_head = b.props.void_head;
        let taken = |n: u64, lo: u64, hi: u64| n.min(hi).saturating_sub(lo.min(n.min(hi)));
        match bounds {
            Some((lo, hi)) => {
                p.card_lo = taken(b.props.card_lo, lo, hi);
                p.card_hi = Some(match b.props.card_hi {
                    Some(n) => taken(n, lo, hi),
                    None => hi - lo,
                });
            }
            None => {
                p.card_lo = 0;
                p.card_hi = b.props.card_hi;
            }
        }
        let seqbase = match (b.props.void_head, b.seqbase, bounds) {
            (true, Some(s), Some((lo, _))) => Some(s + lo),
            _ => None,
        };
        self.set_bat(
            instr,
            0,
            BatFacts {
                props: p,
                seqbase,
                frag: None,
            },
        );
    }

    /// `algebra.slice(b, i, k)` — the mitosis fragment: rows
    /// `[i*n/k, (i+1)*n/k)` of `b` with the absolute seqbase. It inherits
    /// every filter-stable fact and records its lineage so `mat.pack` of
    /// the complete group can restore `b`'s facts wholesale.
    fn t_part_slice(&mut self, instr: &Instr) {
        let b = self.bat_arg(instr, 0);
        let parent = match instr.args.first() {
            Some(Arg::Var(v)) => Some(*v),
            _ => None,
        };
        let coords = match (self.const_arg(instr, 1), self.const_arg(instr, 2)) {
            (Some(i), Some(k)) => match (i.as_i64(), k.as_i64()) {
                (Some(i), Some(k)) if i >= 0 && k > i => Some((i as u64, k as u64)),
                _ => None,
            },
            _ => None,
        };
        let mut p = Props::top();
        p.sorted = b.props.sorted;
        p.revsorted = b.props.revsorted;
        p.key = b.props.key;
        p.nonil = b.props.nonil;
        p.min = b.props.min.clone();
        p.max = b.props.max.clone();
        p.void_head = b.props.void_head;
        let mut seqbase = None;
        if let (Some((i, k)), Some(hi)) = (coords, b.props.card_hi) {
            if b.props.card_lo == hi {
                let (lo_pos, hi_pos) = (i * hi / k, (i + 1) * hi / k);
                p = p.with_card(hi_pos - lo_pos);
                if b.props.void_head {
                    seqbase = b.seqbase.map(|s| s + lo_pos);
                }
            } else {
                p.card_lo = 0;
                p.card_hi = Some(hi);
            }
        } else {
            p.card_lo = 0;
            p.card_hi = b.props.card_hi;
        }
        self.set_bat(
            instr,
            0,
            BatFacts {
                props: p,
                seqbase,
                frag: parent.zip(coords).map(|(v, (i, k))| (v, i, k)),
            },
        );
    }

    /// `mat.pack` concatenates fragments. Two regimes:
    ///
    /// * the arguments are exactly fragments `0..k` of one parent, in
    ///   order — the concatenation *is* the parent, so its facts (seqbase
    ///   included) are restored wholesale;
    /// * otherwise, fold pairwise: cardinalities add, intervals and
    ///   `nonil` fold, and order survives only when every boundary
    ///   provably keeps it (`prev.max <= next.min` with `next` non-nil —
    ///   a nil in `next` would sort below `prev`'s tail values).
    ///
    /// The runtime always re-derives a dense head for the packed result.
    fn t_pack(&mut self, instr: &Instr) {
        let parts: Vec<&BatFacts> = (0..instr.args.len())
            .map(|k| self.bat_arg(instr, k))
            .collect();
        if let Some(parent) = self.exact_pack_parent(&parts) {
            self.set_bat(instr, 0, parent);
            return;
        }
        let mut p = match parts.first() {
            Some(f) => f.props.clone(),
            None => Props::top(),
        };
        for next in parts.iter().skip(1) {
            let n = &next.props;
            p.card_lo = p.card_lo.saturating_add(n.card_lo);
            p.card_hi = match (p.card_hi, n.card_hi) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            };
            let a_empty = p.card_hi == Some(p.card_lo) && p.card_lo == 0;
            let boundary = |strict: bool| match (&p.max, &n.min) {
                _ if a_empty || n.card_hi == Some(0) => true,
                (Some(am), Some(nm)) if n.nonil => {
                    if strict {
                        lt(am, nm)
                    } else {
                        le(am, nm)
                    }
                }
                _ => false,
            };
            p.key = p.key && n.key && boundary(true);
            p.sorted = p.sorted && n.sorted && boundary(false);
            // a reverse-sorted boundary would need prev.min >= next.max
            // *and* prev non-nil; rare enough to leave unclaimed
            p.revsorted = false;
            p.nonil = p.nonil && n.nonil;
            p.min = match (&p.min, &n.min) {
                (Some(a), Some(b)) => Some(if le(a, b) { a.clone() } else { b.clone() }),
                _ => None,
            };
            p.max = match (&p.max, &n.max) {
                (Some(a), Some(b)) => Some(if le(a, b) { b.clone() } else { a.clone() }),
                _ => None,
            };
        }
        p.key = p.key && (p.sorted || p.revsorted);
        self.set_bat(instr, 0, BatFacts::dense0(p));
    }

    /// The exact-pack detector: all arguments are `algebra.slice`
    /// fragments of one parent with matching `k`, indices `0..k` in order.
    fn exact_pack_parent(&self, parts: &[&BatFacts]) -> Option<BatFacts> {
        let (parent, _, k) = parts.first()?.frag?;
        if k as usize != parts.len() {
            return None;
        }
        for (want, part) in parts.iter().enumerate() {
            let (pv, i, kk) = part.frag?;
            if pv != parent || kk != k || i != want as u64 {
                return None;
            }
        }
        match self.facts.get(parent)? {
            Some(VarFacts::Bat(b)) => Some(b.clone()),
            _ => None,
        }
    }

    /// `bat.mirror(b)` maps head→head: over a dense input the tail is the
    /// oid run `[s, s+n)` — sorted, key, nonil, with an exact interval.
    fn t_mirror(&mut self, instr: &Instr) {
        let b = self.bat_arg(instr, 0);
        let mut p = Props::top();
        p.card_lo = b.props.card_lo;
        p.card_hi = b.props.card_hi;
        if b.props.void_head {
            p.sorted = true;
            p.key = true;
            p.nonil = true;
            if let (Some(s), Some(hi)) = (b.seqbase, b.props.card_hi) {
                p.min = Some(Value::Oid(s));
                p.max = Some(Value::Oid(s + hi.saturating_sub(1)));
            }
        }
        p.revsorted = matches!(p.card_hi, Some(hi) if hi <= 1);
        let seqbase = if b.props.void_head { b.seqbase } else { None };
        p.void_head = b.props.void_head;
        self.set_bat(
            instr,
            0,
            BatFacts {
                props: p,
                seqbase,
                frag: None,
            },
        );
    }

    /// `bat.setprops(b, "claims")` is a runtime identity carrying an
    /// explicit annotation. The analysis must be able to *confirm* every
    /// claimed flag — an unconfirmable claim is the one hard error this
    /// pass reports, which is how annotated-but-wrong plans get rejected.
    fn t_set_props(&mut self, idx: usize, instr: &Instr) -> Result<(), PropsError> {
        let b = self.bat_arg(instr, 0);
        let claims = self
            .const_arg(instr, 1)
            .and_then(|v| match v {
                Value::Str(s) => parse_claims(s),
                _ => None,
            })
            .ok_or_else(|| PropsError {
                instr: idx,
                op: instr.op.name(),
                message: "malformed property claim".into(),
            })?;
        if let Some(flag) = b.props.implies(&claims) {
            return Err(PropsError {
                instr: idx,
                op: instr.op.name(),
                message: format!(
                    "claims '{flag}' but the analysis cannot confirm it (inferred: {})",
                    b.props
                ),
            });
        }
        let b = b.clone();
        self.set_bat(instr, 0, b);
        Ok(())
    }
}

/// What `aggr.sub<kind>` yields over `rows_hi` (at most) values drawn from
/// a BAT with facts `vals`, one row per group: `count` rows are non-nil and
/// bounded by the number of values; `min`/`max`/`avg` stay inside the
/// values' interval.
fn grouped_agg_props(
    kind: AggKind,
    vals: &Props,
    rows_hi: Option<u64>,
    groups: (u64, Option<u64>),
) -> Props {
    let mut p = Props::top();
    (p.card_lo, p.card_hi) = groups;
    match kind {
        AggKind::Count => {
            p.nonil = true;
            p.min = Some(Value::I64(0));
            p.max = rows_hi.and_then(|n| i64::try_from(n).ok()).map(Value::I64);
        }
        AggKind::Min | AggKind::Max => {
            p.min = vals.min.clone();
            p.max = vals.max.clone();
        }
        AggKind::Avg => {
            // averages of values in [min, max] stay in [min, max]
            p.min = vals.min.as_ref().and_then(|v| v.as_f64()).map(Value::F64);
            p.max = vals.max.as_ref().and_then(|v| v.as_f64()).map(Value::F64);
        }
        AggKind::Sum => {}
    }
    p
}

/// What a fetch of `vals[cands]` holds (see [`Analyzer::t_projection`]).
fn projection_props(cands: &Props, vals: &Props) -> Props {
    let mut p = Props::top();
    p.card_lo = cands.card_lo;
    p.card_hi = cands.card_hi;
    p.min = vals.min.clone();
    p.max = vals.max.clone();
    p.nonil = vals.nonil;
    let monotone = cands.sorted && vals.void_head;
    p.sorted = monotone && vals.sorted;
    p.revsorted = monotone && vals.revsorted;
    p.key = monotone && cands.key && vals.key && (p.sorted || p.revsorted);
    p
}

/// `(sorted, order)` of a sort of `b` cut to `limit` rows (see
/// [`Analyzer::t_sort`]).
fn sort_props(b: &Props, desc: bool, limit: Option<u64>) -> (Props, Props) {
    let cut = |n: u64| limit.map_or(n, |l| n.min(l));
    let mut p = Props::top();
    p.card_lo = cut(b.card_lo);
    p.card_hi = b.card_hi.map(cut).or(limit);
    p.min = b.min.clone();
    p.max = b.max.clone();
    p.nonil = b.nonil;
    p.sorted = !desc;
    p.revsorted = desc;
    let mut o = Props::top();
    o.card_lo = p.card_lo;
    o.card_hi = p.card_hi;
    o.nonil = true;
    (p, o)
}

/// Outputs of `group.new`/`group.refine`, first result: one group id per
/// input row, ids in `[0, n)`.
fn group_ids_props(b: &BatFacts) -> Props {
    let mut p = Props::top();
    p.card_lo = b.props.card_lo;
    p.card_hi = b.props.card_hi;
    p.nonil = true;
    p.min = Some(Value::Oid(0));
    p.max = b.props.card_hi.map(|hi| Value::Oid(hi.saturating_sub(1)));
    p
}

/// Second result: first-occurrence positions, emitted in ascending order.
fn group_ext_props(b: &BatFacts) -> Props {
    let mut p = group_ids_props(b);
    p.card_lo = b.props.card_lo.min(1);
    p.sorted = true;
    p.key = true;
    p
}

struct CalcInterval {
    lo: Value,
    hi: Value,
    flips: bool,
    strict: bool,
}

/// What an interval proof says a selection keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectVerdict {
    /// Every row qualifies (requires `nonil`: nil rows never qualify).
    All,
    /// No row qualifies.
    None,
    Unknown,
}

/// Interval verdict for a selection opcode over its `bounds` (the
/// selection's own, or a pipeline filter's); `Unknown` for any other
/// opcode. Public so the optimizer passes prove their rewrites with the
/// same logic the checker validates.
pub fn select_verdict(b: &BatFacts, op: &OpCode, bounds: &[Arg]) -> SelectVerdict {
    match op {
        OpCode::ThetaSelect(op) => select_verdict_theta(b, bounds, *op),
        OpCode::RangeSelect { lo_incl, hi_incl } => {
            select_verdict_range(b, bounds, *lo_incl, *hi_incl)
        }
        _ => SelectVerdict::Unknown,
    }
}

/// Interval verdict for `algebra.thetaselect[op](b, [cand,] c)`: what the
/// predicate keeps of the rows it tests, judged on `b`'s value interval
/// (a candidate list only narrows the rows, never widens the interval).
fn select_verdict_theta(b: &BatFacts, bounds: &[Arg], op: CmpOp) -> SelectVerdict {
    let [Arg::Const(c)] = bounds else {
        return SelectVerdict::Unknown;
    };
    let (min, max) = (&b.props.min, &b.props.max);
    // nil compares with nothing: the runtime returns no candidates — and
    // what it tests for nil is the constant *in the column's type*, whose
    // nil is an in-domain sentinel (a bound, when known, has that type)
    let column = min.as_ref().or(max.as_ref()).and_then(Value::logical_type);
    if c.is_null() || column.is_some_and(|ty| reads_as_nil(c, ty)) {
        return SelectVerdict::None;
    }
    let all = |cond: bool| cond && b.props.nonil;
    let some_all = |lo: &Option<Value>, f: &dyn Fn(&Value) -> bool| lo.as_ref().is_some_and(f);
    let verdict_all = match op {
        CmpOp::Lt => some_all(max, &|m| lt(m, c)),
        CmpOp::Le => some_all(max, &|m| le(m, c)),
        CmpOp::Gt => some_all(min, &|m| lt(c, m)),
        CmpOp::Ge => some_all(min, &|m| le(c, m)),
        CmpOp::Eq => {
            some_all(min, &|m| cmp_vals(m, c) == Some(Ordering::Equal))
                && some_all(max, &|m| cmp_vals(m, c) == Some(Ordering::Equal))
        }
        CmpOp::Ne => some_all(max, &|m| lt(m, c)) || some_all(min, &|m| lt(c, m)),
    };
    if all(verdict_all) {
        return SelectVerdict::All;
    }
    // rows outside the interval can never qualify, nil rows never qualify
    let verdict_none = match op {
        CmpOp::Lt => some_all(min, &|m| le(c, m)),
        CmpOp::Le => some_all(min, &|m| lt(c, m)),
        CmpOp::Gt => some_all(max, &|m| le(m, c)),
        CmpOp::Ge => some_all(max, &|m| lt(m, c)),
        CmpOp::Eq => some_all(max, &|m| lt(m, c)) || some_all(min, &|m| lt(c, m)),
        CmpOp::Ne => {
            some_all(min, &|m| cmp_vals(m, c) == Some(Ordering::Equal))
                && some_all(max, &|m| cmp_vals(m, c) == Some(Ordering::Equal))
                && b.props.nonil
        }
    };
    if verdict_none {
        return SelectVerdict::None;
    }
    SelectVerdict::Unknown
}

/// Whether a select over a column of type `ty` reads the constant `c` as
/// nil: coerced into `ty`, as the kernels coerce it, it is that type's nil
/// sentinel (`algebra.thetaselect[>](b, -9223372036854775808:lng)` compares
/// with NULL).
fn reads_as_nil(c: &Value, ty: LogicalType) -> bool {
    match c.coerce(ty) {
        Some(Value::I8(x)) => x.is_nil(),
        Some(Value::I16(x)) => x.is_nil(),
        Some(Value::I32(x)) => x.is_nil(),
        Some(Value::I64(x)) => x.is_nil(),
        Some(Value::Oid(x)) => x.is_nil(),
        Some(Value::F64(x)) => x.is_nil(),
        _ => false,
    }
}

/// Interval verdict for `algebra.select(b, [cand,] lo, hi, li, hi_incl)`.
/// A bound equal to the column type's nil sentinel needs no case of its
/// own: the range kernels read it as the number it is — the end of the
/// domain no live value lies beyond — and so do the comparisons here.
fn select_verdict_range(
    b: &BatFacts,
    bounds: &[Arg],
    lo_incl: bool,
    hi_incl: bool,
) -> SelectVerdict {
    let [Arg::Const(lo), Arg::Const(hi)] = bounds else {
        return SelectVerdict::Unknown;
    };
    let (bmin, bmax) = (&b.props.min, &b.props.max);
    // open (nil) bounds are unbounded on that side
    let lo_ok_all = lo.is_null()
        || bmin
            .as_ref()
            .is_some_and(|m| if lo_incl { le(lo, m) } else { lt(lo, m) });
    let hi_ok_all = hi.is_null()
        || bmax
            .as_ref()
            .is_some_and(|m| if hi_incl { le(m, hi) } else { lt(m, hi) });
    if lo_ok_all && hi_ok_all && b.props.nonil {
        return SelectVerdict::All;
    }
    let below = !hi.is_null()
        && bmin
            .as_ref()
            .is_some_and(|m| if hi_incl { lt(hi, m) } else { le(hi, m) });
    let above = !lo.is_null()
        && bmax
            .as_ref()
            .is_some_and(|m| if lo_incl { lt(m, lo) } else { le(m, lo) });
    if below || above {
        return SelectVerdict::None;
    }
    SelectVerdict::Unknown
}

/// The flag set a `bat.setprops` annotation may claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Claims {
    pub sorted: bool,
    pub revsorted: bool,
    pub key: bool,
    pub nonil: bool,
}

/// Parse a `"sorted,nonil"`-style claim string; `None` on any unknown
/// token (shared by the verifier, the analysis, and the interpreter).
pub fn parse_claims(s: &str) -> Option<Claims> {
    let mut c = Claims::default();
    for tok in s.split(',') {
        match tok.trim() {
            "sorted" => c.sorted = true,
            "revsorted" => c.revsorted = true,
            "key" => c.key = true,
            "nonil" => c.nonil = true,
            "" => {}
            _ => return None,
        }
    }
    Some(c)
}

/// Environment switch for the runtime checker: `MAMMOTH_CHECK_PROPS` set
/// to anything but `0`/empty.
pub const CHECK_PROPS_ENV: &str = "MAMMOTH_CHECK_PROPS";

pub fn check_props_enabled() -> bool {
    std::env::var(CHECK_PROPS_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The runtime oracle: does `bat` satisfy the inferred `props`? Ground
/// truth comes from a full recomputation
/// ([`Bat::computed_props`]) plus direct head/cardinality checks; the
/// BAT's own runtime property flags are cross-checked too, so a
/// mis-tagged runtime BAT fails even when the analysis claimed nothing.
pub fn check_bat(props: &Props, bat: &Bat) -> Result<(), String> {
    let n = bat.len() as u64;
    if n < props.card_lo {
        return Err(format!(
            "cardinality {n} below inferred floor {}",
            props.card_lo
        ));
    }
    if let Some(hi) = props.card_hi {
        if n > hi {
            return Err(format!("cardinality {n} above inferred ceiling {hi}"));
        }
    }
    if props.void_head && !bat.head().is_void() {
        return Err("inferred dense head, found materialized oids".into());
    }
    let ground = bat.computed_props();
    for (claimed, actual, name) in [
        (props.sorted, ground.sorted, "sorted"),
        (props.revsorted, ground.revsorted, "revsorted"),
        (props.key, ground.key, "key"),
        (props.nonil, ground.nonil, "nonil"),
    ] {
        if claimed && !actual {
            return Err(format!("inferred '{name}' does not hold"));
        }
    }
    if let (Some(bound), Some(actual)) = (&props.min, &ground.min) {
        if lt(actual, bound) {
            return Err(format!("value {actual} below inferred min {bound}"));
        }
    }
    if let (Some(bound), Some(actual)) = (&props.max, &ground.max) {
        if lt(bound, actual) {
            return Err(format!("value {actual} above inferred max {bound}"));
        }
    }
    // runtime-tagged props must be honest as well
    let rt = bat.props();
    for (claimed, actual, name) in [
        (rt.sorted, ground.sorted, "sorted"),
        (rt.revsorted, ground.revsorted, "revsorted"),
        (rt.nonil, ground.nonil, "nonil"),
        (
            rt.key && (ground.sorted || ground.revsorted),
            ground.key,
            "key",
        ),
    ] {
        if claimed && !actual {
            return Err(format!("runtime props claim '{name}' but it does not hold"));
        }
    }
    for (tag, truth, name) in [(&rt.min, &ground.min, "min"), (&rt.max, &ground.max, "max")] {
        if let (Some(t), Some(g)) = (tag, truth) {
            if cmp_vals(t, g) != Some(Ordering::Equal) {
                return Err(format!("runtime {name} {t} disagrees with actual {g}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use mammoth_storage::Table;
    use mammoth_types::{ColumnDef, TableSchema};

    fn catalog_sorted() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_bats(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("s", LogicalType::I64),
                    ColumnDef::new("r", LogicalType::I64),
                ],
            ),
            vec![
                Bat::from_vec((0..100i64).collect::<Vec<_>>()),
                Bat::from_vec((0..100i64).map(|i| (i * 37) % 100).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        cat.create_table(t).unwrap();
        cat
    }

    fn bind(p: &mut Program, t: &str, c: &str) -> VarId {
        p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str(t.into())),
                Arg::Const(Value::Str(c.into())),
            ],
        )[0]
    }

    #[test]
    fn bind_seeds_exact_column_facts() {
        let cat = catalog_sorted();
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        p.push_result(&[s]);
        let a = analyze_with_catalog(&p, &cat).unwrap();
        let props = a.props_of(s).unwrap();
        assert_eq!((props.card_lo, props.card_hi), (100, Some(100)));
        assert!(props.sorted && props.key && props.nonil && props.void_head);
        assert_eq!(props.min, Some(Value::I64(0)));
        assert_eq!(props.max, Some(Value::I64(99)));
    }

    #[test]
    fn select_verdicts_and_candidate_interval() {
        let cat = catalog_sorted();
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        let all = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(s), Arg::Const(Value::I64(1000))],
        )[0];
        let none = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(s), Arg::Const(Value::I64(1000))],
        )[0];
        // `-9223372036854775808:lng` is below every value of the nil-free
        // column, and it is lng's nil: the kernels compare with NULL and
        // select nothing, so "All" would be wrong
        let nil = p.push(
            OpCode::ThetaSelect(CmpOp::Gt),
            vec![Arg::Var(s), Arg::Const(Value::I64(i64::MIN))],
        )[0];
        p.push_result(&[all, none, nil]);
        let a = analyze_with_catalog(&p, &cat).unwrap();
        let pa = a.props_of(all).unwrap();
        assert_eq!((pa.card_lo, pa.card_hi), (100, Some(100)));
        assert!(pa.sorted && pa.key && pa.nonil);
        assert_eq!(pa.min, Some(Value::Oid(0)));
        assert_eq!(pa.max, Some(Value::Oid(99)));
        let pn = a.props_of(none).unwrap();
        assert_eq!(pn.card_hi, Some(0));
        let pnil = a.props_of(nil).unwrap();
        assert_eq!((pnil.card_lo, pnil.card_hi), (0, Some(0)));
    }

    /// A verdict is a claim about what the select kernels return. Held
    /// against them over a nil-free column of every scanned type, for
    /// constants at and beside the type's nil sentinel and the ends of its
    /// domain, as theta constants and as range bounds.
    #[test]
    fn verdicts_agree_with_the_kernels_at_the_nil_sentinels() {
        use mammoth_algebra::{select_cmp, select_range};
        fn held<T: mammoth_storage::FixedTail>(live: [T; 3], consts: Vec<Value>) {
            let bat = Bat::from_vec(live.to_vec());
            let mut props = Props::top().with_card(3);
            props.nonil = true;
            props.min = Some(live[0].to_value());
            props.max = Some(live[2].to_value());
            let facts = BatFacts::dense0(props);
            let judge = |verdict, kept: usize, what: String| match verdict {
                SelectVerdict::All => assert_eq!(kept, 3, "{what}"),
                SelectVerdict::None => assert_eq!(kept, 0, "{what}"),
                SelectVerdict::Unknown => {}
            };
            use CmpOp::*;
            for c in &consts {
                for op in [Eq, Ne, Lt, Le, Gt, Ge] {
                    let bounds = [Arg::Const(c.clone())];
                    let verdict = select_verdict(&facts, &OpCode::ThetaSelect(op), &bounds);
                    let kept = select_cmp(&bat, op, c).unwrap().len();
                    judge(verdict, kept, format!("{op:?} {c:?}"));
                }
                for (lo_incl, hi_incl) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    for (lo, hi) in [(c.clone(), Value::Null), (Value::Null, c.clone())] {
                        let op = OpCode::RangeSelect { lo_incl, hi_incl };
                        let bounds = [Arg::Const(lo.clone()), Arg::Const(hi.clone())];
                        let verdict = select_verdict(&facts, &op, &bounds);
                        let open = |v: &Value| (!v.is_null()).then(|| v.clone());
                        let (l, h) = (open(&lo), open(&hi));
                        let kept = select_range(&bat, l.as_ref(), h.as_ref(), lo_incl, hi_incl);
                        let what = format!("{lo:?} {lo_incl} .. {hi:?} {hi_incl}");
                        judge(verdict, kept.unwrap().len(), what);
                    }
                }
            }
        }
        let ints = |min: i64, max: i64| {
            let at = [min, min + 1, max - 1, max];
            at.map(Value::I64).to_vec()
        };
        held([1i8, 2, 3], ints(i8::MIN.into(), i8::MAX.into()));
        held([1i16, 2, 3], ints(i16::MIN.into(), i16::MAX.into()));
        held([1i32, 2, 3], ints(i32::MIN.into(), i32::MAX.into()));
        held([1i64, 2, 3], ints(i64::MIN, i64::MAX));
        held([i64::MIN + 1, 0, i64::MAX], ints(i64::MIN, i64::MAX));
        let oids = [0, 1, u64::MAX - 1, u64::MAX].map(Value::Oid).to_vec();
        held([1u64, 2, 3], oids.clone());
        held([0u64, 2, u64::MAX - 1], oids);
        let floats = [
            f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN,
            f64::MAX,
            f64::INFINITY,
        ];
        held([1.0f64, 2.0, 3.0], floats.map(Value::F64).to_vec());
        held(
            [f64::NEG_INFINITY, 0.0, f64::INFINITY],
            floats.map(Value::F64).to_vec(),
        );
    }

    #[test]
    fn projection_and_calc_transfer() {
        let cat = catalog_sorted();
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        let c = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(s), Arg::Const(Value::I64(50))],
        )[0];
        let v = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(s)])[0];
        let w = p.push(
            OpCode::Calc(ArithOp::Mul),
            vec![Arg::Var(v), Arg::Const(Value::I64(-2))],
        )[0];
        p.push_result(&[w]);
        let a = analyze_with_catalog(&p, &cat).unwrap();
        let pv = a.props_of(v).unwrap();
        assert!(pv.sorted && pv.key && pv.nonil);
        assert_eq!(pv.min, Some(Value::I64(0)));
        let pw = a.props_of(w).unwrap();
        assert!(pw.revsorted && !pw.sorted && pw.nonil && pw.key);
        assert_eq!(pw.min, Some(Value::I64(-198)));
        assert_eq!(pw.max, Some(Value::I64(0)));
    }

    #[test]
    fn calc_without_overflow_proof_stays_top() {
        let cat = catalog_sorted();
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        let w = p.push(
            OpCode::Calc(ArithOp::Add),
            vec![Arg::Var(s), Arg::Const(Value::I64(i64::MAX))],
        )[0];
        p.push_result(&[w]);
        let a = analyze_with_catalog(&p, &cat).unwrap();
        let pw = a.props_of(w).unwrap();
        assert!(!pw.sorted && pw.min.is_none(), "wrap risk must drop facts");
        assert_eq!(pw.card_hi, Some(100), "cardinality still exact");
    }

    #[test]
    fn pack_of_fragments_restores_parent_facts() {
        let cat = catalog_sorted();
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        let mut parts = Vec::new();
        for i in 0..3i64 {
            parts.push(
                p.push(
                    OpCode::PartSlice,
                    vec![
                        Arg::Var(s),
                        Arg::Const(Value::I64(i)),
                        Arg::Const(Value::I64(3)),
                    ],
                )[0],
            );
        }
        let packed = p.push(OpCode::Pack, parts.iter().map(|&v| Arg::Var(v)).collect())[0];
        p.push_result(&[packed]);
        let a = analyze_with_catalog(&p, &cat).unwrap();
        // fragments keep order facts and the absolute seqbase
        let f1 = a.bat_facts(parts[1]).unwrap();
        assert!(f1.props.sorted && f1.props.nonil);
        assert_eq!(f1.seqbase, Some(33));
        assert_eq!((f1.props.card_lo, f1.props.card_hi), (33, Some(33)));
        // and the pack is the parent again
        assert_eq!(a.bat_facts(packed).unwrap(), a.bat_facts(s).unwrap());
    }

    #[test]
    fn pack_of_unrelated_sorted_parts_needs_boundary_proof() {
        // two selects over the same sorted column: candidate oid intervals
        // overlap, so sortedness of the pack must NOT be claimed... unless
        // the boundary fact holds. Build a case where it provably holds.
        let cat = catalog_sorted();
        let mut p = Program::new();
        let s = bind(&mut p, "t", "s");
        let a1 = p.push(
            OpCode::ThetaSelect(CmpOp::Lt),
            vec![Arg::Var(s), Arg::Const(Value::I64(10))],
        )[0];
        let a2 = p.push(
            OpCode::ThetaSelect(CmpOp::Ge),
            vec![Arg::Var(s), Arg::Const(Value::I64(10))],
        )[0];
        let packed = p.push(OpCode::Pack, vec![Arg::Var(a1), Arg::Var(a2)])[0];
        p.push_result(&[packed]);
        let a = analyze_with_catalog(&p, &cat).unwrap();
        let pp = a.props_of(packed).unwrap();
        // both candidate intervals are [0,99]: boundary unprovable
        assert!(!pp.sorted);
        assert!(pp.nonil);
        assert_eq!(pp.card_hi, Some(200));
        assert_eq!(pp.min, Some(Value::Oid(0)));
        assert_eq!(pp.max, Some(Value::Oid(99)));
    }

    #[test]
    fn setprops_claims_must_be_confirmed() {
        let cat = catalog_sorted();
        let mut p = Program::new();
        let r = bind(&mut p, "t", "r"); // NOT sorted
        let sp = p.push(
            OpCode::SetProps,
            vec![Arg::Var(r), Arg::Const(Value::Str("sorted".into()))],
        )[0];
        p.push_result(&[sp]);
        let err = analyze_with_catalog(&p, &cat).unwrap_err();
        assert!(err.message.contains("sorted"), "{err}");
        // a confirmable claim passes and carries the facts through
        let mut p2 = Program::new();
        let s = bind(&mut p2, "t", "s");
        let sp2 = p2.push(
            OpCode::SetProps,
            vec![Arg::Var(s), Arg::Const(Value::Str("sorted,nonil".into()))],
        )[0];
        p2.push_result(&[sp2]);
        let a = analyze_with_catalog(&p2, &cat).unwrap();
        assert!(a.props_of(sp2).unwrap().sorted);
    }

    #[test]
    fn check_bat_validates_and_rejects() {
        let b = Bat::from_vec(vec![1i64, 2, 3]);
        let mut good = Props::top().with_card(3);
        good.sorted = true;
        good.nonil = true;
        good.min = Some(Value::I64(0));
        good.max = Some(Value::I64(10));
        good.void_head = true;
        check_bat(&good, &b).unwrap();
        let mut bad = good.clone();
        bad.revsorted = true;
        assert!(check_bat(&bad, &b).is_err());
        let mut tight = good.clone();
        tight.max = Some(Value::I64(2));
        assert!(check_bat(&tight, &b).is_err());
        let mut count = good;
        count.card_lo = 4;
        assert!(check_bat(&count, &b).is_err());
    }

    #[test]
    fn unknown_ops_and_malformed_args_degrade_to_top() {
        let mut p = Program::new();
        // join of two unknown binds: Top-ish but still nonil positions
        let a = bind(&mut p, "t", "x");
        let b = bind(&mut p, "u", "y");
        let j = p.push(OpCode::Join, vec![Arg::Var(a), Arg::Var(b)]);
        p.push_result(&[j[0]]);
        let an = analyze(&p).unwrap();
        let pj = an.props_of(j[0]).unwrap();
        assert!(!pj.sorted && pj.card_hi.is_none() && pj.nonil);
    }

    #[test]
    fn display_is_stable() {
        let mut p = Props::top().with_card(42);
        p.sorted = true;
        p.nonil = true;
        p.void_head = true;
        p.min = Some(Value::I64(-3));
        p.max = Some(Value::I64(7));
        assert_eq!(p.to_string(), "rows=42 vals=[-3, 7] sorted nonil dense");
        assert_eq!(Props::top().to_string(), "rows=0..");
    }
}
