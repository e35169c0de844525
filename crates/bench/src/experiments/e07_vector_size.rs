//! E07 — The vector-size sweep (§5).
//!
//! "When used with a vector-size of one (tuple-at-a-time), X100 performance
//! tends to be as slow as a typical RDBMS, while a size between 100 and
//! 1000 improves performance by two orders of magnitude" — and full-column
//! vectors (MonetDB materialization) give part of that back because the
//! intermediates no longer fit the cache.

use crate::table::TextTable;
use crate::{ns_per, timed, Scale};
use mammoth_vectorized::{
    AggKind, CmpOp, ColRef, Column, ColumnSet, MapOp, Operand, Out, Output, Pipeline, Sink, Stage,
};
use mammoth_workload::LineitemSlice;

/// `SELECT count(*), sum(qty*price) WHERE shipdate <= 10500 AND qty < 25`
/// over [`columns`].
pub fn q1() -> Pipeline {
    Pipeline {
        stages: vec![
            Stage::theta(ColRef::Source(2), CmpOp::Le, 10_500i64),
            Stage::theta(ColRef::Source(0), CmpOp::Lt, 25i64),
            Stage::Map {
                op: MapOp::Mul,
                l: ColRef::Source(0),
                r: Operand::Col(ColRef::Source(1)),
                out: 0,
            },
        ],
        sink: Sink::aggregate(vec![
            Out::Count,
            Out::Agg(AggKind::Sum, ColRef::Computed(0)),
        ]),
        computed_slots: 1,
    }
}

/// `n` generated lineitem rows: the data [`columns`] borrows.
pub fn lineitem(n: usize) -> LineitemSlice {
    LineitemSlice::generate(n, 42)
}

/// Quantity, price and ship date of `li`, read where they lie.
pub fn columns(li: &LineitemSlice) -> ColumnSet<'_> {
    ColumnSet::new(vec![
        Column::I64(&li.quantity),
        Column::I64(&li.extendedprice),
        Column::I64(&li.shipdate),
    ])
    .expect("one slice, one length")
}

pub fn run(scale: Scale) -> String {
    let n = scale.pick(1 << 18, 1 << 22);
    let li = lineitem(n);
    let cols = columns(&li);
    let pipeline = q1();

    let mut out = String::new();
    out.push_str(&format!(
        "E07  Vector-size sweep: Q1-like scan+filter+aggregate over {n} rows\n"
    ));
    out.push_str("paper claim: size 1 ~ tuple-at-a-time RDBMS; 100-1000 ~ 100x better;\n");
    out.push_str("             full-column materialization worse than cache-resident vectors\n\n");

    let sizes: Vec<usize> = vec![
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16_384, 262_144, n,
    ];
    let mut t = TextTable::new(vec!["vector size", "time", "ns/tuple", "speedup vs 1"]);
    let mut t1 = None;
    let mut best = (f64::MAX, 0usize);
    let mut reference = None;
    for vs in sizes {
        let (r, secs) = timed(|| pipeline.run(&cols, vs).unwrap());
        let Output::Scalars(r) = r else {
            unreachable!("a global sink yields scalars")
        };
        match &reference {
            None => reference = Some(r),
            Some(prev) => assert_eq!(prev, &r),
        }
        if t1.is_none() {
            t1 = Some(secs);
        }
        if secs < best.0 {
            best = (secs, vs);
        }
        t.row(vec![
            if vs == n {
                format!("{vs} (full)")
            } else {
                vs.to_string()
            },
            crate::fmt_secs(secs),
            format!("{:.2}", ns_per(secs, n)),
            format!("{:.1}x", t1.unwrap() / secs),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\noptimum at vector size {} ({:.1}x over tuple-at-a-time)\n",
        best.1,
        t1.unwrap() / best.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs() {
        let r = run(Scale::Quick);
        assert!(r.contains("optimum at vector size"));
    }
}
