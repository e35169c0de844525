//! Golden-file test for the JSON trace schema.
//!
//! A fixed two-join plan over a fixed four-row catalog is profiled on the
//! serial interpreter; with timestamps zeroed, every other field of the
//! trace — opcodes, argument renderings, row counts, heap bytes, the run
//! header — is fully deterministic. The serialized trace must match
//! `tests/golden/two_join_trace.jsonl` byte for byte.
//!
//! If an intentional schema change lands, regenerate the golden file with
//! `BLESS=1 cargo test --test trace_golden` and review the diff like any
//! other code change: every field that moved is a consumer you may have
//! broken.

use mammoth::mal::{Arg, Interpreter, OpCode, Program};
use mammoth::storage::Catalog;
use mammoth::types::validate_trace;

use mammoth::algebra::AggKind;

mod support;
use support::gen::{bind, int_table};

const GOLDEN: &str = "tests/golden/two_join_trace.jsonl";

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    int_table(
        &mut cat,
        "ages",
        vec![("age", vec![1907, 1927, 1927, 1968])],
    );
    cat
}

/// The fixture: two self-joins on `ages.age` feeding a SUM — the same
/// shape the interpreter's liveness tests use.
fn two_join_plan() -> Program {
    let mut p = Program::new();
    let age1 = bind(&mut p, "ages", "age");
    let age2 = bind(&mut p, "ages", "age");
    let j1 = p.push(OpCode::Join, vec![Arg::Var(age1), Arg::Var(age2)]);
    let f1 = p.push(OpCode::Projection, vec![Arg::Var(j1[0]), Arg::Var(age1)])[0];
    let j2 = p.push(OpCode::Join, vec![Arg::Var(f1), Arg::Var(age2)]);
    let f2 = p.push(OpCode::Projection, vec![Arg::Var(j2[0]), Arg::Var(f1)])[0];
    let s = p.push(OpCode::Aggr(AggKind::Sum), vec![Arg::Var(f2)])[0];
    p.push_result(&[s]);
    p
}

#[test]
fn two_join_trace_matches_golden_file() {
    let cat = catalog();
    let mut interp = Interpreter::new(&cat).profiled(true);
    interp.run(&two_join_plan()).unwrap();
    let mut run = interp.profiled_run("serial");
    run.zero_timestamps();
    let got = run.to_json_lines();

    // whatever we compare against, the trace must self-validate
    let (runs, events) = validate_trace(&got).expect("trace must pass its own schema");
    assert_eq!(runs, 1);
    assert_eq!(events as u64, run.executed);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {GOLDEN} ({e}); run with BLESS=1"));
    assert_eq!(
        got, want,
        "trace schema drifted from {GOLDEN}; if intentional, re-bless with BLESS=1"
    );
}
