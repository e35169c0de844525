//! E15 — Staircase join vs naive region join (§3.2, \[8\]).
//!
//! Descendant-axis evaluation over synthetic XML documents of growing
//! size with growing context sets. The staircase join is one sequential
//! pass; the naive region join is a nested loop over (node × context).

use crate::table::TextTable;
use crate::{fmt_secs, timed, Report, Scale};
use mammoth_xpath::encode::{synthetic_tree, Doc};
use mammoth_xpath::{descendants_naive, descendants_staircase};

const SAME_ANSWERS: &str = "the staircase join returns exactly the naive region join's descendants";
const ACCELERATES: &str =
    "staircase joins accelerate XPath steps, the more so the larger the document";

pub fn run(scale: Scale) -> Report {
    let depths = match scale {
        Scale::Quick => vec![6u32, 8],
        Scale::Full => vec![8u32, 10, 12],
    };

    let mut out = String::new();
    out.push_str("E15  Descendant axis: staircase join vs naive region join\n\n");
    let mut same_answers = true;

    let mut t = TextTable::new(vec![
        "doc nodes",
        "context",
        "results",
        "staircase",
        "naive",
        "speedup",
    ]);
    for depth in depths {
        let tree = synthetic_tree(depth, 3, 6, 99);
        let doc = Doc::encode(&tree);
        let context = doc.nodes_with_tag("t1");
        let (fast, t_fast) = timed(|| descendants_staircase(&doc, &context));
        let (naive, t_naive) = timed(|| descendants_naive(&doc, &context));
        same_answers &= fast == naive;
        t.row(vec![
            doc.len().to_string(),
            context.len().to_string(),
            fast.len().to_string(),
            fmt_secs(t_fast),
            fmt_secs(t_naive),
            format!("{:.0}x", t_naive / t_fast.max(1e-9)),
        ]);
    }
    out.push_str(&t.render());
    Report::new(out)
        .exact("§3.2 [8]", SAME_ANSWERS, same_answers)
        .wall_clock("§3.2 [8]", ACCELERATES)
}
