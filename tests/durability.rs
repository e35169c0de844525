//! Kill-point sweep: for EVERY mutating filesystem operation in a
//! DML + checkpoint workload, inject a fault at exactly that operation,
//! then recover and check the result against an in-memory oracle. The
//! store lives on an in-memory disk that forgets what was never synced
//! (`MemFs`; the model is in `crates/storage/src/fault.rs`), and every
//! kill point is recovered from the disk as the process left it (the page
//! cache survived) and from `POWER_LOSSES` states a power loss may leave
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
//!
//! The replica's sweep does the same to a replica's mirror: it faults
//! every operation of an `Applier` staging what a primary ships, and holds
//! each recovered mirror to a committed prefix of the primary that a
//! catch-up poll then brings level with the primary.

use std::path::Path;
use std::sync::Arc;

use mammoth_replica::Applier;
use mammoth_server::server::subscription_batch;
use mammoth_server::ServerMsg;
use mammoth_sql::{Session, Statement};
use mammoth_storage::{persist, FaultFs, FaultKind, FaultPlan, MemFs};
use mammoth_types::{TableSchema, Value};

mod support;
use support::gen::Gen;
use support::{crash_seeds, mem_disk, seed, views, STORE};

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

/// Recover the store on `disk` and return its logical state; `torn`, when
/// given, counts the recoveries that discarded a torn WAL tail.
fn recovered_dump(disk: Arc<MemFs>, torn: Option<&mut usize>) -> mammoth_types::Result<Dump> {
    if let Some(torn) = torn {
        let rec = persist::recover_vfs(disk.as_ref(), Path::new(STORE))?;
        *torn += usize::from(rec.tail_discarded);
    }
    Ok(Session::open_durable_with(disk, STORE.into())?
        .catalog()
        .logical_dump())
}

/// How a failure names its case: `(seed, kind, op, crash seed)`.
fn case(seed: u64, plan: FaultPlan, fired: Option<String>, view: Option<u64>) -> String {
    let at = match fired {
        Some(op) => format!("{:?} at {op}", plan.kind),
        None => "no fault".into(),
    };
    match view {
        Some(crash) => format!("seed {seed}, {at}, crash seed {crash}"),
        None => format!("seed {seed}, {at}, the volatile view"),
    }
}

/// Run the workload under `plan` on a fresh disk, then recover from the
/// volatile view and from the power-loss state of each crash seed:
/// recovery must not fail, and must give `states[acked]` or
/// `states[acked + 1]`. Returns the operation the fault fired on.
fn check_kill_point(
    seed: u64,
    stmts: &[String],
    states: &[Dump],
    plan: FaultPlan,
    seeds: impl IntoIterator<Item = u64>,
    torn: &mut usize,
) -> Option<String> {
    let disk = mem_disk();
    let fs = Arc::new(FaultFs::new(disk.clone(), plan));
    let acked = run_until_crash(Arc::clone(&fs), stmts);
    // `acked` statements definitely committed; one more may have become
    // durable without being acknowledged
    let next = (acked + 1).min(states.len() - 1);
    for (i, (view, disk)) in views(disk, seeds).into_iter().enumerate() {
        let case = case(seed, plan, fs.fired_on(), view);
        // a second recovery learns whether the tail was torn: once per
        // kill point, from its first power loss, is enough to count
        let torn = (i == 1).then_some(&mut *torn);
        let got =
            recovered_dump(disk, torn).unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
        assert!(
            got == states[acked] || got == states[next],
            "{case}: the state matches neither {acked} nor {next} acknowledged statements",
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
    let seeds = crash_seeds(seed, u64::MAX);
    check_kill_point(seed, &stmts, &states, FaultPlan::none(), seeds, &mut 0);
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

    let mut torn = 0;
    for kind in [FaultKind::Fail, FaultKind::CrashAfter] {
        for at_op in 0..total_ops {
            let plan = FaultPlan { at_op, kind };
            let seeds = crash_seeds(seed, at_op);
            check_kill_point(seed, &stmts, &states, plan, seeds, &mut torn);
        }
    }
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
    let fired = check_kill_point(1, &stmts, &states, plan, [1012], &mut 0);
    assert_eq!(fired.as_deref(), Some("op 13: sync /store/wal-0"));
}

/// A store's own directory must be durable once the engine creates it.
/// Without the `sync_dir` of its parent that recovery makes when it
/// creates the root, a power loss can drop `/store` with every statement
/// acknowledged in it; the sweeps above cannot see that, since
/// `mem_disk` makes the directory durable first.
#[test]
fn power_loss_keeps_a_new_store() {
    let disk = Arc::new(MemFs::default());
    let mut s = Session::open_durable_with(disk.clone(), STORE.into()).unwrap();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    for i in 0..3 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let want = s.catalog().logical_dump();
    let seeds = crash_seeds(seed("MAMMOTH_FAULT_SEED", 0), u64::MAX);
    for (view, disk) in views(disk, seeds) {
        let got = recovered_dump(disk, None).unwrap();
        assert!(got == want, "{view:?} (crash seed) lost acknowledged rows");
    }
}

/// Where the replica's sweep keeps the mirror.
const MIRROR: &str = "/mirror";

/// The statements of the replica's sweep, one group per poll: the first
/// poll bootstraps from a checkpoint image, the third re-anchors after a
/// checkpoint flip, the others ship WAL chunks.
const POLLS: [&[&str]; 4] = [
    &[
        "CREATE TABLE t (a INT, s VARCHAR)",
        "INSERT INTO t VALUES (1, 'one'), (2, 'two')",
        "INSERT INTO t VALUES (3, 'three')",
        "CHECKPOINT",
        "INSERT INTO t VALUES (4, 'four')",
    ],
    &[
        "INSERT INTO t VALUES (5, 'five')",
        "DELETE FROM t WHERE a = 2",
    ],
    &[
        "CHECKPOINT",
        "INSERT INTO t VALUES (6, 'six'), (7, 'seven')",
    ],
    &[
        "INSERT INTO t VALUES (8, 'eight')",
        "DELETE FROM t WHERE a > 6",
    ],
];

/// What a primary running [`POLLS`] ships a replica: each poll's batch as
/// the primary's own `subscription_batch` builds it for a mirror that
/// applied every earlier one, the primary's state after each statement,
/// and its disk at the end.
struct Shipped {
    batches: Vec<Vec<ServerMsg>>,
    states: Vec<Dump>,
    primary: Arc<MemFs>,
}

/// What the primary on `primary` answers the poll of the mirror `a`.
fn poll(primary: &MemFs, a: &Applier) -> Vec<ServerMsg> {
    let (gen, off) = (a.generation(), a.offset());
    subscription_batch(primary, Path::new(STORE), gen, off)
        .unwrap()
        .0
}

fn shipped() -> Shipped {
    let primary = mem_disk();
    let mut s = Session::open_durable_with(primary.clone(), STORE.into()).unwrap();
    let mut states = vec![s.catalog().logical_dump()];
    let (mut mirror, _) = Applier::open(Arc::new(MemFs::default()), MIRROR).unwrap();
    let mut batches = Vec::new();
    for stmts in POLLS {
        for q in stmts {
            s.execute(q).unwrap();
            states.push(s.catalog().logical_dump());
        }
        let batch = poll(&primary, &mirror);
        mirror.apply_batch(&batch).unwrap();
        batches.push(batch);
    }
    let image = |b: &Vec<ServerMsg>| match b[0] {
        ServerMsg::CheckpointImage { generation, .. } => generation > 0,
        _ => false,
    };
    let anchors: Vec<bool> = batches.iter().map(image).collect();
    assert_eq!(
        anchors,
        [true, false, true, false],
        "the polls ship images where meant"
    );
    Shipped {
        batches,
        states,
        primary,
    }
}

/// Stage every batch through an `Applier` on `fs` until one fails.
fn stage(fs: Arc<FaultFs>, batches: &[Vec<ServerMsg>]) {
    let Ok((mut a, _)) = Applier::open(fs, MIRROR) else {
        return;
    };
    for batch in batches {
        if a.apply_batch(batch).is_err() {
            return; // the process is dead from here on
        }
    }
}

/// The logical state recovered from the mirror on `disk`.
fn mirror_dump(disk: &Arc<MemFs>) -> mammoth_types::Result<Dump> {
    let s = Session::open_durable_with(disk.clone(), MIRROR.into())?;
    Ok(s.catalog().logical_dump())
}

/// Restart a replica on `disk` as `Replica::start` does — open the
/// applier, recover the mirror, adopt what recovery left — and hold the
/// mirror to a committed prefix of the primary; then poll the primary, as
/// the puller does, until the mirror equals the primary.
fn check_mirror(case: &str, disk: Arc<MemFs>, shipped: &Shipped) {
    let (mut a, _) =
        Applier::open(disk.clone(), MIRROR).unwrap_or_else(|e| panic!("{case}: open: {e}"));
    let got = mirror_dump(&disk).unwrap_or_else(|e| panic!("{case}: {e}"));
    assert!(
        shipped.states.contains(&got),
        "{case}: the mirror holds no committed prefix of the primary"
    );
    if !a.resync().unwrap() {
        a.reset().unwrap();
    }
    let caught_up = (0..3).any(|_| match a.apply_batch(&poll(&shipped.primary, &a)) {
        Ok(out) => out.tip == Some((a.generation(), a.offset())),
        Err(_) => a.reset().map(|_| false).unwrap(),
    });
    assert!(caught_up, "{case}: the mirror never caught up");
    let got = mirror_dump(&disk).unwrap_or_else(|e| panic!("{case}: {e}"));
    assert!(
        Some(&got) == shipped.states.last(),
        "{case}: after catching up, the mirror differs from the primary"
    );
}

/// Stage the shipped batches under `plan` on a fresh disk, then check the
/// mirror on the volatile view and on the power-loss state of each crash
/// seed. Returns the operation the fault fired on.
fn check_mirror_kill_point(
    seed: u64,
    shipped: &Shipped,
    plan: FaultPlan,
    seeds: impl IntoIterator<Item = u64>,
) -> Option<String> {
    let disk = Arc::new(MemFs::default());
    let fs = Arc::new(FaultFs::new(disk.clone(), plan));
    stage(Arc::clone(&fs), &shipped.batches);
    for (view, disk) in views(disk, seeds) {
        check_mirror(&case(seed, plan, fs.fired_on(), view), disk, shipped);
    }
    fs.fired_on()
}

#[test]
fn replica_kill_point_sweep_recovers_a_committed_prefix() {
    let seed = seed("MAMMOTH_FAULT_SEED", 0);
    let shipped = shipped();
    let probe = Arc::new(FaultFs::new(Arc::new(MemFs::default()), FaultPlan::none()));
    stage(Arc::clone(&probe), &shipped.batches);
    let total_ops = probe.op_count();
    assert!(
        total_ops > 20,
        "too few replica operations to be interesting"
    );
    for kind in [FaultKind::Fail, FaultKind::CrashAfter] {
        for at_op in 0..=total_ops {
            let plan = FaultPlan { at_op, kind };
            check_mirror_kill_point(seed, &shipped, plan, crash_seeds(seed, at_op));
        }
    }
}

/// A checkpoint image's files, and then its directory, must be synced
/// before `CURRENT` flips to it. After a clean run, the power loss of crash
/// seed 1 keeps `CURRENT` naming `ckpt-2`; without the directory's
/// `sync_dir` it loses `ckpt-2/catalog.mmth`, and without the files' `sync`
/// it keeps them torn ("seal checksum mismatch"). Either way the mirror
/// cannot recover.
#[test]
fn replica_power_loss_keeps_a_checkpoint() {
    check_mirror_kill_point(1, &shipped(), FaultPlan::none(), [1]);
}
