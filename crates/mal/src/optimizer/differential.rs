//! The in-place passes against their retained predecessors
//! ([`super::oracle`]): the same [`Program`] — instructions *and* variable
//! count, hence the same text — after every pass of the serial and the
//! parallel chain, and out of the pipelines end to end.
//!
//! The corpus: every parseable plan under `examples/plans/`, the SELECT
//! corpus of `tests/optimizer_equivalence.rs` compiled by the real front
//! end (plus statements chosen so that each property-driven rewrite
//! fires), hand-built plans for float constants in CSE position, and all
//! of those once more with `language.pass` markers already in place.
//! `mammoth-sql` links the ordinary build of this crate, not the one
//! under test, so its plans cross over as text.

use super::oracle::{
    CommonSubexprOracle, ConstantFoldOracle, DeadCodeOracle, GarbageCollectOracle,
    SelectEliminationOracle, SortedSelectOracle,
};
use super::*;
use crate::mitosis::column_types;
use crate::parser::parse_program;
use mammoth_sql::{compile_select, parse_sql, Statement};
use mammoth_storage::{Bat, Catalog, Table};
use mammoth_types::{ColumnDef, LogicalType, TableSchema};

include!("../../../../tests/corpus/select_queries.rs");

/// Statements over [`catalog`] that make the property tier act: `k` is
/// sorted (sorted-select fires), `a` lies in `[0, 100)` (selections on it
/// are decided), and the last ones do both, so the analysis the two passes
/// share must be walked again in between.
const PROPERTY_QUERIES: &[&str] = &[
    "SELECT a FROM t WHERE k < 100",
    "SELECT a, b FROM t WHERE k >= 10 AND k < 500 AND b > 0",
    "SELECT COUNT(*), SUM(b) FROM t WHERE k = 7",
    "SELECT a FROM t WHERE a < 1000",
    "SELECT a FROM t WHERE a > 1000",
    "SELECT b FROM t WHERE b > 0 AND a < 1000",
    "SELECT b FROM t WHERE b > 0 AND a > 1000",
    "SELECT a FROM t WHERE a < 1000 AND k >= 10 AND k < 500",
    "SELECT a, s FROM t WHERE a < 1000 AND b < 1000 AND k = 7",
    "PREPARE p AS SELECT a FROM t WHERE a < 1000 AND k < ? AND b >= ?",
];

/// `t(a, b, s, k)` and `u(a, w)`: the tables of the SELECT corpus, with a
/// sorted key column added.
fn catalog(rows: i64) -> Catalog {
    let mut cat = Catalog::new();
    let strs: Vec<String> = (0..rows).map(|i| format!("val_{}", (i * 7) % 8)).collect();
    let t = Table::from_bats(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("b", LogicalType::I64),
                ColumnDef::new("s", LogicalType::Str),
                ColumnDef::new("k", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec((0..rows).map(|i| (i * 37) % 100).collect::<Vec<_>>()),
            Bat::from_vec((0..rows).map(|i| (i * 53) % 100 - 50).collect::<Vec<_>>()),
            Bat::from_strings(strs.iter().map(|s| Some(s.as_str()))),
            Bat::from_vec((0..rows).collect::<Vec<_>>()),
        ],
    )
    .unwrap();
    cat.create_table(t).unwrap();
    let u = Table::from_bats(
        TableSchema::new(
            "u",
            vec![
                ColumnDef::new("a", LogicalType::I64),
                ColumnDef::new("w", LogicalType::I64),
            ],
        ),
        vec![
            Bat::from_vec((0..rows / 2).map(|i| (i * 11) % 100).collect::<Vec<_>>()),
            Bat::from_vec((0..rows / 2).map(|i| (i * 3) % 10).collect::<Vec<_>>()),
        ],
    )
    .unwrap();
    cat.create_table(u).unwrap();
    cat
}

struct Case {
    name: String,
    prog: Program,
    facts: PropFacts,
    types: ColumnTypes,
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();

    // the example plans: once with no statistics at all, once with every
    // column they bind a sorted, non-nil 0..100
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mal"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "plan corpus went missing");
    for path in files {
        let Ok(prog) = parse_program(&std::fs::read_to_string(&path).unwrap()) else {
            continue; // bad_*.mal that do not even parse
        };
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut sorted = analysis::Props::top().with_card(100);
        sorted.void_head = true;
        (sorted.sorted, sorted.key, sorted.nonil) = (true, true, true);
        (sorted.min, sorted.max) = (Some(Value::I64(0)), Some(Value::I64(99)));
        let (mut dense, mut types) = (PropFacts::new(), ColumnTypes::new());
        for (t, c) in prog.bound_columns() {
            dense.record(t, c, sorted.clone(), None);
            types.insert((t.to_string(), c.to_string()), LogicalType::I64);
        }
        for (label, facts) in [("no facts", PropFacts::new()), ("sorted facts", dense)] {
            cases.push(Case {
                name: format!("{name} ({label})"),
                prog: prog.clone(),
                facts,
                types: types.clone(),
            });
        }
    }

    // the SELECT corpus, compiled by the front end
    let cat = catalog(2000);
    let facts = analysis::column_facts(&cat);
    for sql in QUERIES.iter().chain(PROPERTY_QUERIES) {
        cases.push(compiled_case(&cat, &facts, sql));
    }

    // float constants where CSE compares them: 0.0 and -0.0 are different
    // constants, one NaN is the same constant as itself
    let mut p = Program::new();
    let a = p.push(
        OpCode::Bind,
        vec![
            Arg::Const(Value::Str("t".into())),
            Arg::Const(Value::Str("a".into())),
        ],
    )[0];
    let outs: Vec<VarId> = [0.0, -0.0, 0.0, f64::NAN, f64::NAN, -0.0, 1.5, 1.5]
        .into_iter()
        .map(|c| {
            p.push(
                OpCode::Calc(ArithOp::Add),
                vec![Arg::Var(a), Arg::Const(Value::F64(c))],
            )[0]
        })
        .collect();
    p.push_result(&outs);
    cases.push(Case {
        name: "float constants".into(),
        prog: p,
        facts: facts.clone(),
        types: column_types(&cat),
    });

    // everything again with end-of-life markers already in the plan
    let marked: Vec<Case> = cases
        .iter()
        .map(|c| Case {
            name: format!("{} +language.pass", c.name),
            prog: GarbageCollectOracle.run(c.prog.clone()),
            facts: c.facts.clone(),
            types: c.types.clone(),
        })
        .collect();
    cases.extend(marked);
    cases
}

type Passes = Vec<Box<dyn OptimizerPass>>;

/// The serial chain — `default_pipeline_with_props` and `garbage_collect`
/// — as the new passes and as their predecessors. `fuse_pipeline` has no
/// predecessor to compare with (it never copied): both sides run the same
/// one, over what the passes before it made of the plan.
fn serial_chain(facts: &PropFacts) -> (Passes, Passes) {
    let shared = Arc::new(facts.clone());
    let new: Passes = vec![
        Box::new(ConstantFold),
        Box::new(CommonSubexpr),
        Box::new(SelectElimination::new(shared.clone())),
        Box::new(SortedSelect::new(shared.clone())),
        Box::new(DeadCode),
        Box::new(FusePipeline::new(shared.clone())),
        Box::new(GarbageCollect),
    ];
    let old: Passes = vec![
        Box::new(ConstantFoldOracle),
        Box::new(CommonSubexprOracle),
        Box::new(SelectEliminationOracle(facts.clone())),
        Box::new(SortedSelectOracle(facts.clone())),
        Box::new(DeadCodeOracle),
        Box::new(FusePipeline::new(shared)),
        Box::new(GarbageCollectOracle),
    ];
    (new, old)
}

/// The chain of `parallel_pipeline_with_props`. `mitosis`, `mergetable`
/// and `fuse_pipeline` have no predecessor to compare with (the first two
/// kept their logic and stopped copying); both sides run the same ones.
fn parallel_chain(pieces: usize, c: &Case) -> (Passes, Passes) {
    let shared = Arc::new(c.facts.clone());
    let new: Passes = vec![
        Box::new(ConstantFold),
        Box::new(CommonSubexpr),
        Box::new(SelectElimination::new(shared.clone())),
        Box::new(Mitosis::new(pieces)),
        Box::new(Mergetable::with_types(c.types.clone())),
        Box::new(SortedSelect::new(shared.clone())),
        Box::new(DeadCode),
        Box::new(FusePipeline::new(shared.clone())),
        Box::new(GarbageCollect),
    ];
    let old: Passes = vec![
        Box::new(ConstantFoldOracle),
        Box::new(CommonSubexprOracle),
        Box::new(SelectEliminationOracle(c.facts.clone())),
        Box::new(Mitosis::new(pieces)),
        Box::new(Mergetable::with_types(c.types.clone())),
        Box::new(SortedSelectOracle(c.facts.clone())),
        Box::new(DeadCodeOracle),
        Box::new(FusePipeline::new(shared)),
        Box::new(GarbageCollectOracle),
    ];
    (new, old)
}

/// The same program: text, and (through `Debug`, which unlike `==` takes a
/// NaN constant to equal itself) every instruction and the variable count.
fn assert_same(new: &Program, old: &Program, case: &str, pass: &str) {
    assert_eq!(new.to_string(), old.to_string(), "{case}: {pass}");
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{case}: {pass}");
}

/// Run both chains in step; after every pass the new side — run alone, and
/// run as a pipeline step over the shared analysis — must equal the old.
/// Returns the final program and how many walks the new side needed.
fn chains_agree(case: &Case, new: &Passes, old: &Passes) -> (Program, usize) {
    let mut shared = SharedAnalysis::default();
    let (mut a, mut b) = (case.prog.clone(), case.prog.clone());
    for (n, o) in new.iter().zip(old) {
        let alone = n.run(a.clone());
        a = n.run_with(a, &mut shared);
        b = o.run(b);
        assert_same(&alone, &b, &case.name, n.name());
        assert_same(&a, &b, &case.name, n.name());
    }
    (a, shared.walks())
}

#[test]
fn serial_passes_match_their_predecessors_pass_by_pass_and_end_to_end() {
    for case in corpus() {
        let (new, old) = serial_chain(&case.facts);
        let (expect, walks) = chains_agree(&case, &new, &old);
        assert!(walks <= 2, "{}: {walks} analyses in one run", case.name);
        let pipeline = default_pipeline_with_props(case.facts.clone()).with(GarbageCollect);
        let out = pipeline.run_passes(case.prog.clone(), false).unwrap();
        assert_same(&out, &expect, &case.name, "serial pipeline");
        // a plan the verifier accepts comes out of the checked pipeline,
        // whichever way it checks
        if analysis::verify(&expect).is_ok() && analysis::verify(&case.prog).is_ok() {
            for verify in [Verify::Never, Verify::EachPass, Verify::OnExit] {
                let out = pipeline.run_verifying(case.prog.clone(), verify).unwrap();
                assert_same(&out, &expect, &case.name, "checked serial pipeline");
            }
        }
    }
}

#[test]
fn parallel_passes_match_their_predecessors_pass_by_pass_and_end_to_end() {
    for case in corpus() {
        for pieces in [2usize, 3] {
            let (new, old) = parallel_chain(pieces, &case);
            let (expect, _) = chains_agree(&case, &new, &old);
            let pipeline =
                parallel_pipeline_with_props(pieces, case.types.clone(), case.facts.clone());
            let out = pipeline.run_passes(case.prog.clone(), false).unwrap();
            assert_same(&out, &expect, &case.name, "parallel pipeline");
        }
    }
}

#[test]
fn each_pass_alone_matches_its_predecessor_on_every_plan() {
    for case in corpus() {
        let (new, old) = serial_chain(&case.facts);
        for (n, o) in new.iter().zip(&old) {
            let (new, old) = (n.run(case.prog.clone()), o.run(case.prog.clone()));
            assert_same(&new, &old, &case.name, n.name());
        }
    }
}

/// One walk serves both property-driven passes; a second one happens
/// exactly when select elimination changed the plan under it.
#[test]
fn the_shared_analysis_is_walked_again_only_after_a_change() {
    let cat = catalog(2000);
    let facts = analysis::column_facts(&cat);
    let walks_for = |sql: &str| {
        let case = compiled_case(&cat, &facts, sql);
        let (new, old) = serial_chain(&case.facts);
        let before = new[1].run(new[0].run(case.prog.clone()));
        let eliminated = new[2].run(before.clone()) != before;
        let (out, walks) = chains_agree(&case, &new, &old);
        (out.to_string(), eliminated, walks)
    };
    // nothing decided, nothing sorted: one walk, no rewrite
    let (_, eliminated, walks) = walks_for("SELECT a FROM t WHERE b > 0");
    assert_eq!((eliminated, walks), (false, 1));
    // sorted-select rewrites, but it is the last reader: still one walk
    let (text, eliminated, walks) = walks_for("SELECT a FROM t WHERE k < 100");
    assert!(text.contains("bat.setprops"), "{text}");
    assert_eq!((eliminated, walks), (false, 1));
    // select elimination fires: sorted-select must see the plan it left
    let (text, eliminated, walks) =
        walks_for("SELECT a FROM t WHERE a < 1000 AND k >= 10 AND k < 500");
    assert!(
        text.contains("bat.mirror") && text.contains("bat.setprops"),
        "{text}"
    );
    assert_eq!((eliminated, walks), (true, 2));
}

/// `sql` (a SELECT, or a PREPARE of one) as the front end compiles it.
fn compiled_case(cat: &Catalog, facts: &PropFacts, sql: &str) -> Case {
    let stmt = match parse_sql(sql).unwrap() {
        Statement::Prepare { stmt, .. } => *stmt,
        stmt => stmt,
    };
    let Statement::Select(sel) = stmt else {
        panic!("not a SELECT: {sql}")
    };
    let (compiled, _) = compile_select(cat, &sel).unwrap();
    Case {
        name: sql.to_string(),
        prog: parse_program(&compiled.to_string()).unwrap(),
        facts: facts.clone(),
        types: column_types(cat),
    }
}
