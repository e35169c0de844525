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
//! Every optimized plan's answers are asserted equal to the baseline's
//! before its time is reported. Speedups are measured, not simulated.

use crate::table::TextTable;
use crate::{fmt_secs, record_metric, timed, Metric, Scale};
use mammoth_algebra::{AggKind, ArithOp, CmpOp};
use mammoth_mal::{
    column_facts, default_pipeline, default_pipeline_with_props, Arg, Interpreter, MalValue,
    OpCode, Program,
};
use mammoth_storage::{Bat, Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema, Value};
use mammoth_workload::uniform_i64;

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

pub fn run(scale: Scale) -> String {
    let rows = 1usize << scale.pick(18, 22);
    let cat = build_catalog(rows);
    let facts = column_facts(&cat);

    let mut out = String::new();
    out.push_str("E22  Property-driven rewrites: sorted fast path + select elimination\n");
    out.push_str(&format!(
        "t: 2^{} rows; stock pipeline vs default_pipeline_with_props, serial interpreter\n\n",
        rows.trailing_zeros()
    ));

    // (label, plan, metric name, sweep params)
    type Case = (String, Program, &'static str, Vec<(String, String)>);
    let n = rows as i64;
    let cases: Vec<Case> = vec![
        (
            "calc range, 1 probe".into(),
            calc_range_probes(n, 1),
            "sorted_select",
            vec![("probes".into(), "1".into())],
        ),
        (
            "calc range, 8 probes".into(),
            calc_range_probes(n, 8),
            "sorted_select",
            vec![("probes".into(), "8".into())],
        ),
        (
            "calc range, 32 probes".into(),
            calc_range_probes(n, 32),
            "sorted_select",
            vec![("probes".into(), "32".into())],
        ),
        (
            "theta a < 1000 (all)".into(),
            theta_sum_count(1000),
            "select_elimination",
            vec![("verdict".into(), "accept-all".into())],
        ),
        (
            "theta a < 0 (none)".into(),
            theta_sum_count(0),
            "select_elimination",
            vec![("verdict".into(), "accept-none".into())],
        ),
    ];

    let mut t = TextTable::new(vec!["plan", "baseline", "with props", "speedup"]);
    for (label, prog, metric, params) in &cases {
        let base = default_pipeline().optimize(prog.clone());
        let with = default_pipeline_with_props(facts.clone()).optimize(prog.clone());

        // correctness first: the rewritten plan must answer identically
        let expected = scalars(&Interpreter::new(&cat).run(&base).unwrap());
        assert_eq!(
            scalars(&Interpreter::new(&cat).run(&with).unwrap()),
            expected,
            "{label}: property rewrites must preserve answers"
        );

        // best of 3 for each variant
        let time3 = |p: &Program| {
            (0..3)
                .map(|_| timed(|| Interpreter::new(&cat).run(p).unwrap()).1)
                .fold(f64::INFINITY, f64::min)
        };
        let t_base = time3(&base);
        let t_with = time3(&with);

        t.row(vec![
            label.clone(),
            fmt_secs(t_base),
            fmt_secs(t_with),
            format!("{:.2}x", t_base / t_with),
        ]);
        for (variant, secs) in [("baseline", t_base), ("props", t_with)] {
            let mut params = params.clone();
            params.push(("rows".into(), rows.to_string()));
            params.push(("variant".into(), variant.into()));
            record_metric(Metric {
                experiment: "e22",
                name: metric.to_string(),
                params,
                wall_secs: secs,
                simulated_misses: None,
            });
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nverdict: order proofs turn O(N) range scans into binary search, and\n\
         interval proofs delete provably trivial selects outright; both are\n\
         free at runtime because the properties are inferred statically.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_keep_the_baseline_answers() {
        let r = run(Scale::Quick);
        assert!(r.contains("with props") && r.contains("verdict"), "{r}");
    }
}
