//! Scheduler stress: randomized DAG-shaped MAL programs — wide fan-out
//! (every variable may feed many consumers) and wide fan-in (variadic
//! `mat.pack` / `mat.packsum` nodes) — executed on the dataflow worker pool
//! at several thread counts. For every seeded program the parallel engine
//! must return exactly the serial interpreter's answer, release every slot
//! exactly once, and be deterministic across repeated runs.

use mammoth::mal::{
    verify_with_catalog, Arg, GarbageCollect, Interpreter, OpCode, OptimizerPass, Program, VarId,
};
use mammoth::parallel::run_dataflow;
use mammoth::storage::Catalog;
use mammoth::types::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod support;
use support::gen::{bind, int_table};

const ROWS: usize = 256;
/// Packing concatenates, so lengths can grow; keep programs bounded.
const MAX_PACK_ROWS: usize = 50_000;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let vals: Vec<i64> = (0..ROWS as i64).map(|i| (i * 7) % 13 - 6).collect();
    int_table(&mut cat, "t", vec![("v", vals)]);
    cat
}

/// A random straight-line program whose dependency graph is a wide DAG:
/// every step picks its operands uniformly among all live variables.
fn build_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Program::new();
    // (var, length) of every BAT-valued variable
    let mut bats: Vec<(VarId, usize)> = Vec::new();
    let mut scalars: Vec<VarId> = Vec::new();

    for _ in 0..3 {
        let b = bind(&mut p, "t", "v");
        bats.push((b, ROWS));
    }
    scalars.push(p.push(OpCode::Count, vec![Arg::Var(bats[0].0)])[0]);

    let steps = 40 + (seed as usize % 21);
    for _ in 0..steps {
        let pick =
            |rng: &mut StdRng, bats: &[(VarId, usize)]| bats[rng.random_range(0..bats.len())];
        match rng.random_range(0..6u32) {
            // element-wise arithmetic: keeps length, fans out freely
            0 | 1 => {
                let (b, len) = pick(&mut rng, &bats);
                let op = if rng.random_bool(0.5) {
                    mammoth::algebra::ArithOp::Add
                } else {
                    mammoth::algebra::ArithOp::Sub
                };
                let c = rng.random_range(-9i64..10);
                let r = p.push(
                    OpCode::Calc(op),
                    vec![Arg::Var(b), Arg::Const(Value::I64(c))],
                )[0];
                bats.push((r, len));
            }
            // variadic fan-in: concatenate 2..=5 random fragments
            2 => {
                let n = rng.random_range(2usize..6);
                let picked: Vec<(VarId, usize)> = (0..n).map(|_| pick(&mut rng, &bats)).collect();
                let total: usize = picked.iter().map(|&(_, l)| l).sum();
                if total > MAX_PACK_ROWS {
                    continue;
                }
                let r = p.push(
                    OpCode::Pack,
                    picked.iter().map(|&(v, _)| Arg::Var(v)).collect(),
                )[0];
                bats.push((r, total));
            }
            // horizontal fragmentation: shrinks length
            3 => {
                let (b, len) = pick(&mut rng, &bats);
                let k = rng.random_range(2i64..5);
                let i = rng.random_range(0..k);
                let r = p.push(
                    OpCode::PartSlice,
                    vec![
                        Arg::Var(b),
                        Arg::Const(Value::I64(i)),
                        Arg::Const(Value::I64(k)),
                    ],
                )[0];
                bats.push((r, len / k as usize));
            }
            // scalar sinks: more fan-out targets for packsum
            4 => {
                let (b, _) = pick(&mut rng, &bats);
                scalars.push(p.push(OpCode::Count, vec![Arg::Var(b)])[0]);
            }
            _ => {
                let (b, _) = pick(&mut rng, &bats);
                scalars.push(
                    p.push(
                        OpCode::Aggr(mammoth::algebra::AggKind::Sum),
                        vec![Arg::Var(b)],
                    )[0],
                );
            }
        }
    }

    // fan-in finale: merge up to 8 scalars and 3 fragments
    let take = scalars.len().min(8);
    let s = p.push(
        OpCode::PackSum,
        scalars[scalars.len() - take..]
            .iter()
            .map(|&v| Arg::Var(v))
            .collect(),
    )[0];
    let finale: Vec<Arg> = (0..3)
        .map(|_| Arg::Var(bats[rng.random_range(0..bats.len())].0))
        .collect();
    let big = p.push(OpCode::Pack, finale)[0];
    let n = p.push(OpCode::Count, vec![Arg::Var(big)])[0];
    p.push_result(&[s, n]);
    p
}

fn assert_same(a: &[mammoth::mal::MalValue], b: &[mammoth::mal::MalValue], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (mammoth::mal::MalValue::Scalar(x), mammoth::mal::MalValue::Scalar(y)) => {
                assert_eq!(x, y, "{ctx}")
            }
            (mammoth::mal::MalValue::Bat(x), mammoth::mal::MalValue::Bat(y)) => {
                assert_eq!(x.head(), y.head(), "{ctx}");
                assert_eq!(
                    x.tail_slice::<i64>().unwrap(),
                    y.tail_slice::<i64>().unwrap(),
                    "{ctx}"
                );
            }
            _ => panic!("{ctx}: value kind mismatch"),
        }
    }
}

#[test]
fn random_dags_agree_with_serial_and_release_exactly_once() {
    let cat = catalog();
    for seed in 0..100u64 {
        let prog = build_program(seed);
        verify_with_catalog(&prog, &cat).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // language.pass markers exercise slot release under concurrency
        let prog = GarbageCollect.run(prog);
        verify_with_catalog(&prog, &cat).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let mut interp = Interpreter::new(&cat);
        let serial = interp.run(&prog).unwrap();
        let released = interp.stats().released_early;
        assert_eq!(interp.stats().double_releases, 0, "seed {seed}: serial");
        for threads in [2usize, 8] {
            let ctx = format!("seed {seed}, threads {threads}");
            let (first, stats) = run_dataflow(&cat, &prog, threads).unwrap();
            assert_eq!(stats.double_releases, 0, "{ctx}: a slot was released twice");
            assert_eq!(
                stats.released_early, released,
                "{ctx}: one release per marker"
            );
            assert_same(&serial, &first, &ctx);
            // a second run must be byte-for-byte deterministic
            let (second, stats2) = run_dataflow(&cat, &prog, threads).unwrap();
            assert_same(&first, &second, &ctx);
            assert_eq!(stats2.double_releases, 0, "{ctx}");
        }
    }
}
