//! E22 — Property-driven plan rewrites: what static column properties buy.
//!
//! Two micro-experiments over a 2^22-row table (2^18 at `--quick`),
//! each plan run twice through the same serial interpreter — once
//! optimized by the stock pipeline (no property facts), once by
//! `default_pipeline_with_props` — so the delta is exactly the
//! property-driven rewrites:
//!
//! * **sorted-select** — range probes over a *computed* column (`s * 3`
//!   of the sorted key). Base binds carry exact runtime properties
//!   (computed once at load) and selects/fetches propagate them
//!   dynamically, but a calc output has unknown runtime flags — only the
//!   static no-wrap proof knows it is still sorted. `SortedSelect`
//!   annotates the intermediate, so every probe takes the binary-search
//!   fast path instead of rescanning it. Swept over probe count.
//! * **select-elimination** — `SUM/COUNT` behind a theta select whose
//!   predicate provably accepts every row (`< max+1`) or no row
//!   (`< min`). The interval analysis replaces the select with a mirror
//!   or an empty slice, so the predicate scan disappears entirely.
//!
//! Every optimized plan's answers are compared with the baseline's, a
//! claim of their own. Speedups are measured, not simulated.

use crate::table::TextTable;
use crate::{fmt_secs, timed, Report, Scale};
use mammoth_algebra::{AggKind, ArithOp, CmpOp};
use mammoth_mal::{
    column_facts, default_pipeline, default_pipeline_with_props, Arg, Interpreter, MalValue,
    OpCode, Program,
};
use mammoth_storage::{Bat, Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_workload::uniform_i64;

const SAME_ANSWERS: &str =
    "the property-driven rewrites leave every plan's answers as the stock pipeline's";
const FASTER: &str = "order proofs turn repeated range scans into binary searches, and interval proofs delete trivial selects";

fn build_catalog(rows: usize) -> Catalog {
    let mut cat = Catalog::new();
    // t(s, a, b): s is sorted and nil-free (the binary-search candidate),
    // a is an unordered selection column with a known [0, 1000) interval,
    // b an unordered payload
    let t = Table::from_bats(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("s", LogicalType::I64),
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("b", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec((0..rows as i64).collect()),
            Bat::from_vec(uniform_i64(rows, 0, 1000, 22)),
            Bat::from_vec(uniform_i64(rows, 0, 8191, 23)),
        ],
    )
    .unwrap();
    cat.create_table(t).unwrap();
    cat
}

fn bind(p: &mut Program, t: &str, c: &str) -> usize {
    p.push(
        OpCode::Bind,
        vec![
            Arg::Const(Value::Str(t.into())),
            Arg::Const(Value::Str(c.into())),
        ],
    )[0]
}

/// `probes` narrow range selects over a *computed* column `s * 3`, each
/// counted. The runtime propagates order through selects and fetches on
/// its own, but a calc output has unknown runtime properties — only the
/// static no-wrap proof (`[0, 3n)` fits i64, multiplier positive) knows
/// the result is still sorted. Without the annotation every probe
/// rescans the computed intermediate; with it every probe is a binary
/// search.
fn calc_range_probes(rows: i64, probes: usize) -> Program {
    let mut p = Program::new();
    let s = bind(&mut p, "t", "s");
    let v = p.push(
        OpCode::Calc(ArithOp::Mul),
        vec![Arg::Var(s), Arg::Const(Value::I64(3))],
    )[0];
    let mut outs = Vec::new();
    for k in 0..probes as i64 {
        // distinct narrow windows spread across the value range, so common
        // subexpression elimination cannot merge the probes
        let lo = k * (3 * rows) / probes as i64;
        let w = p.push(
            OpCode::RangeSelect {
                lo_incl: true,
                hi_incl: true,
            },
            vec![
                Arg::Var(v),
                Arg::Const(Value::I64(lo)),
                Arg::Const(Value::I64(lo + 3000)),
            ],
        )[0];
        outs.push(p.push(OpCode::Count, vec![Arg::Var(w)])[0]);
    }
    p.push_result(&outs);
    p
}

/// `SELECT SUM(b), COUNT(b) FROM t WHERE a < cut` on the unordered column.
fn theta_sum_count(cut: i64) -> Program {
    let mut p = Program::new();
    let a = bind(&mut p, "t", "a");
    let c = p.push(
        OpCode::ThetaSelect(CmpOp::Lt),
        vec![Arg::Var(a), Arg::Const(Value::I64(cut))],
    )[0];
    let b = bind(&mut p, "t", "b");
    let v = p.push(OpCode::Projection, vec![Arg::Var(c), Arg::Var(b)])[0];
    let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(v)])[0];
    let n = p.push(OpCode::Count, vec![Arg::Var(v)])[0];
    p.push_result(&[s, n]);
    p
}

fn scalars(vals: &[MalValue]) -> Vec<Value> {
    vals.iter()
        .map(|v| v.as_scalar().expect("scalar output").clone())
        .collect()
}

pub fn run(scale: Scale) -> Report {
    let rows = 1usize << scale.pick(18, 22);
    let cat = build_catalog(rows);
    let facts = column_facts(&cat);
    let mut r = Report::default();

    let mut out = String::new();
    out.push_str("E22  Property-driven rewrites: sorted fast path + select elimination\n");
    out.push_str(&format!(
        "t: 2^{} rows; stock pipeline vs default_pipeline_with_props, serial interpreter\n\n",
        rows.trailing_zeros()
    ));

    // (label, plan, metric name, the sweep's parameter)
    let n = rows as i64;
    let probes = [1, 8, 32].map(|k| {
        let label = format!("calc range, {k} probe{}", if k == 1 { "" } else { "s" });
        let param = ("probes", k.to_string());
        (label, calc_range_probes(n, k), "sorted_select", param)
    });
    let trivial =
        [(1000, "all", "accept-all"), (0, "none", "accept-none")].map(|(cut, which, v)| {
            let label = format!("theta a < {cut} ({which})");
            (
                label,
                theta_sum_count(cut),
                "select_elimination",
                ("verdict", v.to_string()),
            )
        });

    let mut same_answers = true;
    let mut t = TextTable::new(vec!["plan", "baseline", "with props", "speedup"]);
    for (label, prog, metric, (key, value)) in probes.into_iter().chain(trivial) {
        let base = default_pipeline().optimize(prog.clone());
        let with = default_pipeline_with_props(facts.clone()).optimize(prog);
        same_answers &= scalars(&Interpreter::new(&cat).run(&base).unwrap())
            == scalars(&Interpreter::new(&cat).run(&with).unwrap());

        // best of 3 for each variant
        let time3 = |p: &Program| {
            (0..3)
                .map(|_| timed(|| Interpreter::new(&cat).run(p).unwrap()).1)
                .fold(f64::INFINITY, f64::min)
        };
        let t_base = time3(&base);
        let t_with = time3(&with);

        t.row(vec![
            label,
            fmt_secs(t_base),
            fmt_secs(t_with),
            format!("{:.2}x", t_base / t_with),
        ]);
        for (variant, secs) in [("baseline", t_base), ("props", t_with)] {
            r.metric(
                metric,
                &[(key, &value), ("rows", &rows), ("variant", &variant)],
                secs,
            );
        }
    }
    out.push_str(&t.render());
    r.text = out;
    r.exact("extension", SAME_ANSWERS, same_answers)
        .wall_clock("extension", FASTER)
}
