//! Kill-point sweep: for EVERY mutating filesystem operation in a
//! DML + checkpoint workload, inject a fault at exactly that operation,
//! then recover from disk and check the result against an in-memory
//! oracle. The invariant under test is the committed-prefix guarantee:
//!
//! * recovery NEVER panics and never reports corruption as success;
//! * the recovered state is exactly the state after some acknowledged
//!   prefix of statements — `states[acked]`, or `states[acked + 1]` when
//!   the crash landed between making a statement durable and
//!   acknowledging it (fsync'd but the OK never returned).
//!
//! The workload is the statement generator's (`support::gen`), deterministic
//! per seed; `MAMMOTH_FAULT_SEED` selects one (the CI crash matrix runs
//! seeds 1..=4).

use std::path::Path;
use std::sync::Arc;

use mammoth_sql::{Session, Statement};
use mammoth_storage::{FaultFs, FaultKind, FaultPlan};
use mammoth_types::{TableSchema, Value};

mod support;
use support::gen::Gen;
use support::{seed, Scratch};

/// Small merge threshold so the workload crosses it and logs Merge records.
const MERGE_THRESHOLD: usize = 8;

/// Writes per seed: one CHECKPOINT among them, and some 70–80 mutating
/// filesystem operations, each a kill point.
const WRITES: usize = 24;

type Dump = Vec<(String, TableSchema, Vec<Vec<Value>>)>;

/// The writes of the generated workload under `seed` — DDL, multi-row
/// inserts (the torn-batch case), predicate deletes, a CHECKPOINT, DROPs —
/// all valid (no refusals), as text; its reads write nothing, so no kill
/// point falls in one. Insert volume crosses `MERGE_THRESHOLD`, so Merge
/// records appear too.
fn statements(seed: u64) -> Vec<String> {
    let mut g = Gen::new(seed);
    g.refusals = false;
    let writes = g.by_ref().filter(|s| !matches!(s, Statement::Select(_)));
    let writes: Vec<Statement> = writes.take(WRITES).collect();
    writes.iter().map(|s| g.render(s)).collect()
}

/// Run the workload on a plain in-memory session, recording the logical
/// state after every statement. `states[k]` = state once `k` statements
/// have been acknowledged.
fn oracle_states(stmts: &[String]) -> Vec<Dump> {
    let mut s = Session::new();
    s.set_merge_threshold(MERGE_THRESHOLD);
    let mut states = vec![s.catalog().logical_dump()];
    for q in stmts {
        // CHECKPOINT needs a durable store and changes no logical state;
        // every other statement must be valid for the oracle
        if !q.eq_ignore_ascii_case("CHECKPOINT") {
            s.execute(q)
                .unwrap_or_else(|e| panic!("oracle rejected {q:?}: {e}"));
        }
        states.push(s.catalog().logical_dump());
    }
    states
}

/// Execute the workload through a fault-injecting VFS. Returns how many
/// statements were acknowledged before the injected crash (all of them if
/// the fault never fired).
fn run_until_crash(fs: Arc<FaultFs>, dir: &Path, stmts: &[String]) -> usize {
    let vfs: Arc<dyn mammoth_storage::Vfs> = Arc::clone(&fs) as _;
    let Ok(mut s) = Session::open_durable_with(vfs, dir.to_path_buf()) else {
        return 0; // crashed while opening the store: nothing acknowledged
    };
    s.set_merge_threshold(MERGE_THRESHOLD);
    let mut acked = 0;
    for q in stmts {
        if s.execute(q).is_err() {
            break; // the process is dead from here on
        }
        acked += 1;
    }
    acked
}

/// Recover with the real filesystem and return the logical state. Any
/// panic here is itself a sweep failure (the harness would abort).
fn recovered_dump(dir: &Path) -> Dump {
    let s = Session::open_durable(dir.to_path_buf())
        .unwrap_or_else(|e| panic!("recovery must not fail after a crash: {e}"));
    s.catalog().logical_dump()
}

#[test]
fn fault_free_run_recovers_final_state() {
    let stmts = statements(seed("MAMMOTH_FAULT_SEED", 0));
    let states = oracle_states(&stmts);
    let dir = Scratch::new("dura-clean");
    let fs = Arc::new(FaultFs::new(FaultPlan::none()));
    let acked = run_until_crash(Arc::clone(&fs), &dir, &stmts);
    assert_eq!(acked, stmts.len(), "fault-free run must ack everything");
    assert!(fs.op_count() > 0);
    assert_eq!(recovered_dump(&dir), *states.last().unwrap());
}

#[test]
fn kill_point_sweep_recovers_committed_prefix() {
    let seed = seed("MAMMOTH_FAULT_SEED", 0);
    let stmts = statements(seed);
    let states = oracle_states(&stmts);

    // measure the op budget of a clean run; every one of those ops is a
    // kill point
    let probe_dir = Scratch::new("dura-probe");
    let probe = Arc::new(FaultFs::new(FaultPlan::none()));
    run_until_crash(Arc::clone(&probe), &probe_dir, &stmts);
    let total_ops = probe.op_count();
    assert!(total_ops > 20, "workload too small to be interesting");

    let kinds = [
        FaultKind::Fail,
        FaultKind::ShortWrite(1),
        FaultKind::ShortWrite(7),
        FaultKind::CrashAfter,
    ];
    let mut checked = 0u64;
    for kind in kinds {
        for at_op in 0..total_ops {
            let dir = Scratch::new("dura-sweep");
            let fs = Arc::new(FaultFs::new(FaultPlan { at_op, kind }));
            let acked = run_until_crash(Arc::clone(&fs), &dir, &stmts);
            let got = recovered_dump(&dir);
            // `acked` statements definitely committed; one more may have
            // become durable without being acknowledged
            let next = (acked + 1).min(states.len() - 1);
            assert!(
                got == states[acked] || got == states[next],
                "seed {seed}, {kind:?} at op {at_op} (fired on {:?}): recovered \
                 state matches neither {acked} nor {next} acknowledged statements",
                fs.fired_on(),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 4 * total_ops);
}
