//! Kill-point sweep: for EVERY mutating filesystem operation in a
//! DML + checkpoint workload, inject a fault at exactly that operation,
//! then recover and check the result against an in-memory oracle. The
//! store lives on an in-memory disk that forgets what was never synced
//! (`MemFs`; the model is in `crates/storage/src/fault.rs`), and every
//! kill point recovers twice: from the disk as the process left it (the
//! page cache survived), and from one state a power loss may leave
//! (`MemFs::crash`). The invariant under test is the committed-prefix
//! guarantee:
//!
//! * recovery NEVER panics and never reports corruption as success;
//! * the recovered state is exactly the state after some acknowledged
//!   prefix of statements — `states[acked]`, or `states[acked + 1]` when
//!   the crash landed between making a statement durable and
//!   acknowledging it (fsync'd but the OK never returned).
//!
//! The workload is the statement generator's (`support::gen`), deterministic
//! per seed; `MAMMOTH_FAULT_SEED` selects one (the CI crash matrix runs
//! seeds 1..=4). A failure names the fault kind, the op and the crash seed.

use std::path::Path;
use std::sync::Arc;

use mammoth_sql::{Session, Statement};
use mammoth_storage::{persist, FaultFs, FaultKind, FaultPlan, MemFs};
use mammoth_types::{TableSchema, Value};

mod support;
use support::gen::Gen;
use support::{mem_disk, seed, STORE};

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
fn run_until_crash(fs: Arc<FaultFs>, stmts: &[String]) -> usize {
    let Ok(mut s) = Session::open_durable_with(fs, STORE.into()) else {
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

/// The power-loss state a kill point recovers from, a function of the
/// workload seed and the op so that a failure replays.
fn crash_seed(seed: u64, at_op: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(at_op)
}

/// Recover the store on `disk` and return its logical state; `torn`
/// counts the recoveries that discarded a torn WAL tail.
fn recovered_dump(disk: Arc<MemFs>, torn: &mut usize) -> mammoth_types::Result<Dump> {
    *torn += usize::from(persist::recover_vfs(disk.as_ref(), Path::new(STORE))?.tail_discarded);
    Ok(Session::open_durable_with(disk, STORE.into())?
        .catalog()
        .logical_dump())
}

/// Run the workload under `plan` on a fresh disk, then recover from the
/// volatile view and from the power-loss state `crash_seed`: recovery must
/// not fail, and must give `states[acked]` or `states[acked + 1]`. Returns
/// the operation the fault fired on.
fn check_kill_point(
    seed: u64,
    stmts: &[String],
    states: &[Dump],
    plan: FaultPlan,
    crash_seed: u64,
    torn: &mut usize,
) -> Option<String> {
    let disk = mem_disk();
    let fs = Arc::new(FaultFs::new(disk.clone(), plan));
    let acked = run_until_crash(Arc::clone(&fs), stmts);
    let lost = Arc::new(disk.crash(crash_seed));
    let case = match fs.fired_on() {
        Some(op) => format!(
            "seed {seed}, {:?} at {op}, crash seed {crash_seed}",
            plan.kind
        ),
        None => format!("seed {seed}, no fault, crash seed {crash_seed}"),
    };
    // `acked` statements definitely committed; one more may have become
    // durable without being acknowledged
    let next = (acked + 1).min(states.len() - 1);
    for (view, disk) in [("the volatile view", disk), ("the power loss", lost)] {
        let got = recovered_dump(disk, torn)
            .unwrap_or_else(|e| panic!("{case}: recovery from {view} failed: {e}"));
        assert!(
            got == states[acked] || got == states[next],
            "{case}: recovered from {view}, the state matches neither {acked} nor {next} \
             acknowledged statements",
        );
    }
    fs.fired_on()
}

#[test]
fn fault_free_run_recovers_final_state() {
    let seed = seed("MAMMOTH_FAULT_SEED", 0);
    let stmts = statements(seed);
    let states = oracle_states(&stmts);
    // a plan that never fires: the power fails after the last statement
    check_kill_point(seed, &stmts, &states, FaultPlan::none(), seed, &mut 0);
}

#[test]
fn kill_point_sweep_recovers_committed_prefix() {
    let seed = seed("MAMMOTH_FAULT_SEED", 0);
    let stmts = statements(seed);
    let states = oracle_states(&stmts);

    // measure the op budget of a clean run; every one of those ops is a
    // kill point
    let probe = Arc::new(FaultFs::new(mem_disk(), FaultPlan::none()));
    assert_eq!(run_until_crash(Arc::clone(&probe), &stmts), stmts.len());
    let total_ops = probe.op_count();
    assert!(total_ops > 20, "workload too small to be interesting");

    let (mut checked, mut torn) = (0u64, 0);
    for kind in [FaultKind::Fail, FaultKind::CrashAfter] {
        for at_op in 0..total_ops {
            let plan = FaultPlan { at_op, kind };
            let crash = crash_seed(seed, at_op);
            check_kill_point(seed, &stmts, &states, plan, crash, &mut torn);
            checked += 2;
        }
    }
    assert_eq!(checked, 4 * total_ops);
    // a power loss can tear a WAL append: the sweep must reach that case
    assert!(torn > 0, "seed {seed}: no recovery discarded a torn tail");
}

/// A new log's directory entry must be synced when the log is created.
/// Without that `sync_dir` (op 3) the sweep reports seed 1, `Fail` at op
/// 12 (`sync /store/wal-0`, five statements acknowledged), crash seed
/// 1012: the power loss drops `wal-0`, and with it every statement
/// acknowledged since the store was created. With it, that sync is op 13.
#[test]
fn power_loss_keeps_a_new_log() {
    let stmts = statements(1);
    let states = oracle_states(&stmts);
    let plan = FaultPlan {
        at_op: 13,
        kind: FaultKind::Fail,
    };
    let fired = check_kill_point(1, &stmts, &states, plan, 1012, &mut 0);
    assert_eq!(fired.as_deref(), Some("op 13: sync /store/wal-0"));
}
