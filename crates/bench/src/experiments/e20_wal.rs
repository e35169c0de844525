//! E20 — WAL overhead and group commit (durability extension).
//!
//! The redo log puts one append + one fsync on every statement's commit
//! path (batch = 1). Group commit amortizes the fsync over `batch`
//! statements at the cost of the durability of the last `batch - 1`
//! acknowledged statements. Measured: per-statement INSERT cost through
//! the SQL layer, in-memory vs durable at commit batch sizes 1 / 64 /
//! 4096, plus the checkpoint cost that truncates the log.

use crate::table::TextTable;
use crate::{fmt_secs, ns_per, timed, tmpdir, Report, Scale};
use mammoth_sql::Session;

const GROUP_COMMIT: &str =
    "the per-commit fsync dominates, and group commit approaches the in-memory rate";

fn insert_sweep(s: &mut Session, n: usize) -> f64 {
    timed(|| {
        for i in 0..n {
            s.execute(&format!("INSERT INTO t VALUES ({}, 'row-{i}')", i % 997))
                .unwrap();
        }
    })
    .1
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 9, 1 << 13);
    let mut r = Report::default();

    let mut out = String::new();
    out.push_str(&format!(
        "E20  WAL overhead: {n} single-row INSERT statements through SQL\n\n"
    ));

    let mut t = TextTable::new(vec!["configuration", "per statement", "vs in-memory"]);

    // baseline: no durability at all (one throwaway pass first — the
    // process-warm-up otherwise lands entirely on this measurement)
    let mut warm = Session::new();
    warm.execute("CREATE TABLE t (a INT NOT NULL, s TEXT)")
        .unwrap();
    insert_sweep(&mut warm, n);
    let mut mem = Session::new();
    mem.execute("CREATE TABLE t (a INT NOT NULL, s TEXT)")
        .unwrap();
    let t_mem = insert_sweep(&mut mem, n);
    t.row(vec![
        "in-memory (no WAL)".into(),
        format!("{:.0} ns", ns_per(t_mem, n)),
        "-".into(),
    ]);
    r.metric(
        "insert_sweep",
        &[("statements", &n), ("wal_batch", &"none")],
        t_mem,
    );

    for batch in [1usize, 64, 4096] {
        let dir = tmpdir("e20", &format!("b{batch}"));
        let mut s = Session::open_durable(dir.clone()).unwrap();
        s.set_wal_batch(batch);
        s.execute("CREATE TABLE t (a INT NOT NULL, s TEXT)")
            .unwrap();
        let t_wal = insert_sweep(&mut s, n);
        t.row(vec![
            format!("WAL, commit batch {batch}"),
            format!("{:.0} ns", ns_per(t_wal, n)),
            format!("{:.1}x", t_wal / t_mem.max(1e-12)),
        ]);
        r.metric(
            "insert_sweep",
            &[("statements", &n), ("wal_batch", &batch)],
            t_wal,
        );
        if batch == 1 {
            // checkpoint cost: fold the catalog, truncate the log
            let (_, t_ckpt) = timed(|| s.checkpoint().unwrap());
            out.push_str(&format!(
                "checkpoint after {n} inserts: {} (folds deltas, truncates WAL)\n\n",
                fmt_secs(t_ckpt)
            ));
            r.metric("checkpoint", &[("statements", &n)], t_ckpt);
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    out.push_str(&t.render());
    r.text = out;
    r.wall_clock("extension", GROUP_COMMIT)
}
