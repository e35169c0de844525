//! The cost model: predicate selectivity from the statistics, per-
//! instruction cardinality/cost estimates over a MAL program, and the
//! small decision procedures the SQL session consults (select-algorithm
//! gating, mitosis piece count).
//!
//! Estimates are heuristic and advisory — classic System-R style
//! independence assumptions, refined by the equi-depth histograms when a
//! column has them. `EXPLAIN` prints them next to each instruction and
//! `TRACE` diffs them against the measured row counts (`est_rows` vs
//! `rows`), so estimation error is observable, not silent.

use crate::stats::StatsCatalog;
use mammoth_algebra::CmpOp;
use mammoth_mal::{Arg, OpCode, PipelineOut, PipelineSink, Program, VarId};
use mammoth_types::Value;
use std::collections::HashMap;

/// Default selectivity for a range predicate whose bound is unknown
/// (a `?N` parameter, or no histogram).
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Target rows per mitosis fragment: fragments smaller than this lose
/// more to per-piece overhead than they gain from parallelism.
const MITOSIS_TARGET_ROWS: u64 = 8192;

/// Estimated output cardinality and cost of one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrEstimate {
    /// Estimated rows in the (first) result BAT; scalar results are 1.
    pub rows: u64,
    /// Estimated work in row-touch units (sum of input cardinalities).
    pub cost: u64,
}

/// Estimated fraction of a column's rows satisfying `col op value`.
/// `value == None` means the bound is statically unknown (a parameter).
/// Falls back to fixed defaults when the column has no statistics.
pub fn selectivity(
    stats: &StatsCatalog,
    table: &str,
    column: &str,
    op: CmpOp,
    value: Option<&Value>,
) -> f64 {
    // comparison with NULL selects nothing in SQL semantics
    if matches!(value, Some(v) if v.is_null()) {
        return 0.0;
    }
    let Some(cs) = stats.column(table, column) else {
        return match op {
            CmpOp::Eq => 0.1,
            CmpOp::Ne => 0.9,
            _ => DEFAULT_RANGE_SELECTIVITY,
        };
    };
    let live = (cs.rows - cs.nulls.min(cs.rows)).max(1) as f64;
    let uniq = 1.0 / cs.ndv_clamped() as f64;
    match op {
        CmpOp::Eq => match (value.and_then(|v| v.as_f64()), &cs.histogram) {
            // histogram refinement: equality is zero outside the
            // recorded value range, else the uniform 1/ndv share
            (Some(x), Some(h)) if h.total > 0 => {
                if x < h.lo || h.bounds.last().is_some_and(|&hi| x > hi) {
                    0.0
                } else {
                    uniq
                }
            }
            _ => uniq,
        },
        CmpOp::Ne => (1.0 - uniq).max(0.0),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let Some(x) = value.and_then(|v| v.as_f64()) else {
                return DEFAULT_RANGE_SELECTIVITY;
            };
            let Some(h) = &cs.histogram else {
                return DEFAULT_RANGE_SELECTIVITY;
            };
            if h.total == 0 {
                return DEFAULT_RANGE_SELECTIVITY;
            }
            let below = h.cdf(x);
            let point = 1.0 / live; // half-open adjustment for one value
            match op {
                CmpOp::Le => below,
                CmpOp::Lt => (below - point).max(0.0),
                CmpOp::Gt => (1.0 - below).max(0.0),
                CmpOp::Ge => (1.0 - below + point).min(1.0),
                _ => unreachable!(),
            }
        }
    }
}

/// Per-instruction cardinality/cost estimates for a whole program,
/// aligned index-for-index with `prog.instrs`.
///
/// Column provenance is threaded through projections so selections over
/// a fetched column still consult that column's statistics. A table the
/// statistics have never seen — one created from whole columns rather
/// than through INSERTs — is as long as `live_rows` says it is.
pub fn estimate_program(
    prog: &Program,
    stats: &StatsCatalog,
    live_rows: impl Fn(&str) -> Option<u64>,
) -> Vec<InstrEstimate> {
    let mut rows: HashMap<VarId, f64> = HashMap::new();
    let mut origin: HashMap<VarId, (String, String)> = HashMap::new();
    let mut out = Vec::with_capacity(prog.instrs.len());

    let arg_rows = |rows: &HashMap<VarId, f64>, a: &Arg| -> Option<f64> {
        match a {
            Arg::Var(v) => rows.get(v).copied(),
            _ => None,
        }
    };

    for instr in &prog.instrs {
        if let OpCode::Pipeline(spec) = &instr.op {
            let e = estimate_pipeline(instr, spec, stats, &rows, &mut origin);
            rows.extend(instr.results.iter().map(|r| (*r, e.rows as f64)));
            out.push(e);
            continue;
        }
        let in_rows: f64 = instr.args.iter().filter_map(|a| arg_rows(&rows, a)).sum();
        // a selection touches the rows it tests — its candidates, when it
        // has a list — not the column and the list both
        let tested = instr
            .select_args()
            .map(|s| s.cand.unwrap_or(s.input))
            .and_then(|a| arg_rows(&rows, a));
        let est: f64 = match &instr.op {
            OpCode::Bind => {
                let (t, c) = match (instr.args.first(), instr.args.get(1)) {
                    (Some(Arg::Const(Value::Str(t))), Some(Arg::Const(Value::Str(c)))) => {
                        (t.clone(), c.clone())
                    }
                    _ => (String::new(), String::new()),
                };
                let n = stats.table(&t).map(|ts| ts.rows).or_else(|| live_rows(&t));
                let n = n.map_or(1000.0, |n| n as f64);
                if let Some(r) = instr.results.first() {
                    origin.insert(*r, (t, c));
                }
                n
            }
            OpCode::ThetaSelect(_) | OpCode::RangeSelect { .. } => {
                let sel = instr.select_args();
                let column = sel.as_ref().and_then(|s| match s.input {
                    Arg::Var(v) => origin.get(v),
                    _ => None,
                });
                let bounds = sel.as_ref().map_or(&[][..], |s| s.bounds);
                tested.unwrap_or(1000.0) * select_selectivity(stats, &instr.op, column, bounds)
            }
            OpCode::Projection => {
                // rows follow the candidate list; provenance follows the
                // projected base column
                let cand = instr
                    .args
                    .first()
                    .and_then(|a| arg_rows(&rows, a))
                    .unwrap_or(0.0);
                if let (Some(Arg::Var(b)), Some(r)) = (instr.args.get(1), instr.results.first()) {
                    if let Some(o) = origin.get(b).cloned() {
                        origin.insert(*r, o);
                    }
                }
                cand
            }
            OpCode::Join => {
                let ra = instr
                    .args
                    .first()
                    .and_then(|a| arg_rows(&rows, a))
                    .unwrap_or(1.0);
                let rb = instr
                    .args
                    .get(1)
                    .and_then(|a| arg_rows(&rows, a))
                    .unwrap_or(1.0);
                let ndv = |k: usize| -> Option<f64> {
                    instr.args.get(k).and_then(|a| match a {
                        Arg::Var(v) => origin
                            .get(v)
                            .and_then(|(t, c)| stats.column(t, c))
                            .map(|cs| cs.ndv_clamped() as f64),
                        _ => None,
                    })
                };
                // classic equi-join estimate: |A|·|B| / max(ndv(a), ndv(b))
                let d = ndv(0).unwrap_or(ra).max(ndv(1).unwrap_or(rb)).max(1.0);
                (ra * rb / d).min(ra * rb)
            }
            OpCode::Group | OpCode::GroupRefine => {
                // group count bounded by input ndv when known
                let base = instr
                    .args
                    .iter()
                    .filter_map(|a| arg_rows(&rows, a))
                    .fold(0.0f64, f64::max);
                instr
                    .args
                    .iter()
                    .find_map(|a| match a {
                        Arg::Var(v) => origin
                            .get(v)
                            .and_then(|(t, c)| stats.column(t, c))
                            .map(|cs| (cs.ndv_clamped() as f64).min(base.max(1.0))),
                        _ => None,
                    })
                    .unwrap_or(base)
            }
            OpCode::Aggr(_) | OpCode::Count | OpCode::PackSum => 1.0,
            OpCode::AggrGrouped(_) => instr
                .args
                .get(2)
                .and_then(|a| arg_rows(&rows, a))
                .unwrap_or(1.0),
            OpCode::FirstN { .. } => {
                let base = instr
                    .args
                    .first()
                    .and_then(|a| arg_rows(&rows, a))
                    .unwrap_or(0.0);
                if let (Some(Arg::Var(v)), Some(r)) = (instr.args.first(), instr.results.first()) {
                    if let Some(o) = origin.get(v).cloned() {
                        origin.insert(*r, o);
                    }
                }
                const_i64(instr.args.get(1)).map_or(base, |n| base.min(n.max(0) as f64))
            }
            OpCode::Calc(_) | OpCode::SetProps | OpCode::Mirror | OpCode::Sort { .. } => {
                // element-wise / order-only: cardinality preserved; so is
                // provenance for the identity-ish ops
                if let (Some(Arg::Var(v)), Some(r)) = (instr.args.first(), instr.results.first()) {
                    if matches!(instr.op, OpCode::SetProps | OpCode::Sort { .. }) {
                        if let Some(o) = origin.get(v).cloned() {
                            origin.insert(*r, o);
                        }
                    }
                }
                instr
                    .args
                    .iter()
                    .filter_map(|a| arg_rows(&rows, a))
                    .fold(0.0f64, f64::max)
            }
            OpCode::Slice => {
                let base = instr
                    .args
                    .first()
                    .and_then(|a| arg_rows(&rows, a))
                    .unwrap_or(0.0);
                let lo = const_i64(instr.args.get(1)).unwrap_or(0).max(0) as f64;
                let hi = const_i64(instr.args.get(2)).map(|h| h.max(0) as f64);
                match hi {
                    Some(h) => (h - lo).max(0.0).min(base),
                    None => base,
                }
            }
            OpCode::PartSlice => {
                let base = instr
                    .args
                    .first()
                    .and_then(|a| arg_rows(&rows, a))
                    .unwrap_or(0.0);
                let k = const_i64(instr.args.get(2)).unwrap_or(1).max(1) as f64;
                base / k
            }
            OpCode::Pack => in_rows,
            OpCode::Pipeline(_) => unreachable!("estimated above"),
            OpCode::Result | OpCode::Free => 0.0,
        };
        for r in &instr.results {
            rows.insert(*r, est);
        }
        out.push(InstrEstimate {
            rows: est.round().max(0.0) as u64,
            cost: tested.unwrap_or(in_rows).round().max(0.0) as u64,
        });
    }
    out
}

/// A `vector.pipeline` costs what the chain it fused touches — the first
/// filter tests every row of its column, each later one the rows the
/// filters before it kept, and every result reads the survivors of its
/// column — without the intermediates in between. Its rows are the sink's:
/// one for global aggregates, the key column's distinct values (at most
/// the surviving rows) for a grouped one, the surviving rows for emitted
/// columns, and at most `n` of them for a top-N. A column result carries
/// its column's provenance on, as the projection it stands for does.
fn estimate_pipeline(
    instr: &mammoth_mal::Instr,
    spec: &mammoth_mal::PipelineSpec,
    stats: &StatsCatalog,
    rows: &HashMap<VarId, f64>,
    origin: &mut HashMap<VarId, (String, String)>,
) -> InstrEstimate {
    let column = |c: usize| match instr.args.get(c) {
        Some(Arg::Var(v)) => Some(v),
        _ => None,
    };
    let scanned = spec.filters.first().and_then(|f| column(f.col));
    let mut kept = scanned.and_then(|v| rows.get(v)).copied().unwrap_or(1000.0);
    let mut cost = 0.0;
    for (f, bounds) in spec.filters_with_bounds(&instr.args).into_iter().flatten() {
        cost += kept;
        let col = column(f.col).and_then(|v| origin.get(v));
        kept *= select_selectivity(stats, &f.select_op(), col, bounds);
    }
    cost += kept * spec.outs.len() as f64;
    let sink_rows = match spec.sink {
        PipelineSink::Rows if spec.binds_scalars() => 1.0,
        PipelineSink::Rows => kept,
        PipelineSink::Group(key) => column(key)
            .and_then(|v| origin.get(v))
            .and_then(|(t, c)| stats.column(t, c))
            .map_or(kept, |cs| (cs.ndv_clamped() as f64).min(kept.max(1.0))),
        PipelineSink::Top { .. } => {
            const_i64(instr.args.last()).map_or(kept, |n| kept.min(n.max(0) as f64))
        }
    };
    for (out, r) in spec.outs.iter().zip(&instr.results) {
        if let PipelineOut::Col(c) = out {
            if let Some(o) = column(*c).and_then(|v| origin.get(v)).cloned() {
                origin.insert(*r, o);
            }
        }
    }
    InstrEstimate {
        rows: sink_rows.round().max(0.0) as u64,
        cost: cost.round().max(0.0) as u64,
    }
}

/// Estimated fraction of the tested rows a selection keeps. `column` is
/// the base column the input traces back to, when it does; a bound that
/// is not a constant (a parameter, a variable) is statically unknown.
fn select_selectivity(
    stats: &StatsCatalog,
    op: &OpCode,
    column: Option<&(String, String)>,
    bounds: &[Arg],
) -> f64 {
    fn known(a: Option<&Arg>) -> Option<&Value> {
        match a {
            Some(Arg::Const(v)) => Some(v),
            _ => None,
        }
    }
    match (op, column) {
        (OpCode::ThetaSelect(op), Some((t, c))) => {
            selectivity(stats, t, c, *op, known(bounds.first()))
        }
        (OpCode::ThetaSelect(CmpOp::Eq), None) => 0.1,
        (OpCode::ThetaSelect(CmpOp::Ne), None) => 0.9,
        (OpCode::RangeSelect { .. }, Some((t, c))) => {
            // a nil bound is open: it cuts nothing
            let side = |a: Option<&Arg>, op| match known(a) {
                Some(v) if !v.is_null() => selectivity(stats, t, c, op, Some(v)),
                _ => 1.0,
            };
            let (s_lo, s_hi) = (
                side(bounds.first(), CmpOp::Ge),
                side(bounds.get(1), CmpOp::Le),
            );
            // both sides come off one CDF, so the kept share is their
            // overlap; where that collapses — no histogram, so two fixed
            // defaults — fall back to independence rather than "no rows"
            match s_lo + s_hi - 1.0 {
                overlap if overlap > 0.0 => overlap.min(1.0),
                _ => s_lo * s_hi,
            }
        }
        _ => DEFAULT_RANGE_SELECTIVITY,
    }
}

fn const_i64(a: Option<&Arg>) -> Option<i64> {
    match a {
        Some(Arg::Const(v)) => v.as_i64(),
        _ => None,
    }
}

/// Mitosis piece count for a table of `rows` rows, capped at
/// `max_pieces` (the session's configured parallelism). Scales down for
/// small tables so fragments stay at least [`MITOSIS_TARGET_ROWS`] rows.
pub fn choose_pieces(rows: u64, max_pieces: usize) -> usize {
    if max_pieces <= 1 || rows == 0 {
        return max_pieces.max(1);
    }
    let by_size = rows.div_ceil(MITOSIS_TARGET_ROWS) as usize;
    by_size.clamp(1, max_pieces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ColumnStats, StatsCatalog};

    fn catalog_with_t() -> StatsCatalog {
        let mut sc = StatsCatalog::new();
        let vals: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        sc.rebuild_table("t", vec![("a".into(), ColumnStats::build_native(&vals))]);
        sc
    }

    #[test]
    fn selectivity_uses_ndv_and_histogram() {
        let sc = catalog_with_t();
        let eq = selectivity(&sc, "t", "a", CmpOp::Eq, Some(&Value::I64(50)));
        assert!((eq - 0.01).abs() < 0.005, "1/ndv for eq, got {eq}");
        let lt = selectivity(&sc, "t", "a", CmpOp::Lt, Some(&Value::I64(50)));
        assert!((lt - 0.5).abs() < 0.1, "cdf for range, got {lt}");
        // out-of-range equality is (near) zero
        let miss = selectivity(&sc, "t", "a", CmpOp::Eq, Some(&Value::I64(5000)));
        assert_eq!(miss, 0.0);
        // NULL bound selects nothing
        assert_eq!(
            selectivity(&sc, "t", "a", CmpOp::Eq, Some(&Value::Null)),
            0.0
        );
        // unknown bound falls back to the default
        assert_eq!(
            selectivity(&sc, "t", "a", CmpOp::Lt, None),
            DEFAULT_RANGE_SELECTIVITY
        );
    }

    #[test]
    fn estimate_program_threads_provenance() {
        let sc = catalog_with_t();
        let mut p = Program::new();
        let b = p.push(
            OpCode::Bind,
            vec![
                Arg::Const(Value::Str("t".into())),
                Arg::Const(Value::Str("a".into())),
            ],
        )[0];
        let s = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(b), Arg::Const(Value::I64(7))],
        )[0];
        let f = p.push(OpCode::Projection, vec![Arg::Var(s), Arg::Var(b)])[0];
        p.push_result(&[f]);
        let est = estimate_program(&p, &sc, |_| None);
        assert_eq!(est.len(), 4);
        assert_eq!(est[0].rows, 1000, "bind = table rows");
        assert_eq!(est[1].rows, 10, "1000/ndv(100) for equality");
        assert_eq!(est[2].rows, 10, "projection follows candidates");
        assert_eq!(est[1].cost, 1000, "select sweeps its input");
    }

    #[test]
    fn candidate_forms_pay_for_the_candidates_only() {
        let sc = catalog_with_t();
        let mut p = Program::new();
        let bind = |p: &mut Program, c: &str| {
            p.push(
                OpCode::Bind,
                vec![
                    Arg::Const(Value::Str("t".into())),
                    Arg::Const(Value::Str(c.into())),
                ],
            )[0]
        };
        let a = bind(&mut p, "a");
        let range = OpCode::RangeSelect {
            lo_incl: true,
            hi_incl: false,
        };
        let bounds = |lo: i64, hi: i64| [Arg::Const(Value::I64(lo)), Arg::Const(Value::I64(hi))];
        let mut args = vec![Arg::Var(a)];
        args.extend(bounds(20, 70));
        let c1 = p.push(range.clone(), args)[0];
        let c2 = p.push(
            OpCode::ThetaSelect(CmpOp::Eq),
            vec![Arg::Var(a), Arg::Var(c1), Arg::Const(Value::I64(30))],
        )[0];
        // a column without statistics: both sides are fixed defaults
        let u = bind(&mut p, "unknown");
        let mut args = vec![Arg::Var(u), Arg::Var(c1)];
        args.extend(bounds(1, 2));
        let c3 = p.push(range, args)[0];
        let top = p.push(
            OpCode::FirstN { desc: false },
            vec![Arg::Var(a), Arg::Const(Value::I64(10))],
        );
        p.push_result(&[c2, c3, top[0]]);
        let est = estimate_program(&p, &sc, |_| None);
        assert!(
            (est[1].rows as i64 - 500).abs() <= 60,
            "half the cdf: {est:?}"
        );
        assert_eq!(est[1].cost, 1000, "the first select sweeps the column");
        assert_eq!(
            est[2].cost, est[1].rows,
            "a threaded select reads its candidates"
        );
        assert_eq!(est[2].rows, (est[1].rows as f64 / 100.0).round() as u64);
        assert_eq!(est[4].cost, est[1].rows);
        assert!(
            est[4].rows > 0 && est[4].rows < est[1].rows,
            "defaults never estimate 0"
        );
        assert_eq!(
            (est[5].rows, est[5].cost),
            (10, 1000),
            "top-N reads all, keeps n"
        );
    }

    #[test]
    fn pieces_scale_with_the_table() {
        assert_eq!(choose_pieces(0, 8), 8, "unknown/empty keeps the default");
        assert_eq!(choose_pieces(100, 8), 1, "tiny table: one piece");
        assert_eq!(choose_pieces(20_000, 8), 3);
        assert_eq!(choose_pieces(1_000_000, 8), 8, "capped at max");
        assert_eq!(choose_pieces(100, 1), 1);
    }
}
