//! E20 — WAL overhead and group commit (durability extension).
//!
//! The redo log puts one append + one fsync on every statement's commit
//! path (batch = 1). Group commit amortizes the fsync over `batch`
//! statements at the cost of the durability of the last `batch - 1`
//! acknowledged statements. Measured: per-statement INSERT cost through
//! the SQL layer, in-memory vs durable at commit batch sizes 1 / 64 /
//! 4096, plus the checkpoint cost that truncates the log.

use crate::table::TextTable;
use crate::{fmt_secs, ns_per, record_metric, timed, Metric, Scale};
use mammoth_sql::Session;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mammoth-e20-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn insert_sweep(s: &mut Session, n: usize) -> f64 {
    let (res, t) = timed(|| {
        for i in 0..n {
            s.execute(&format!("INSERT INTO t VALUES ({}, 'row-{i}')", i % 997))
                .unwrap();
        }
    });
    let () = res;
    t
}

pub fn run(scale: Scale) -> String {
    let n = scale.pick(1 << 9, 1 << 13);

    let mut out = String::new();
    out.push_str(&format!(
        "E20  WAL overhead: {n} single-row INSERT statements through SQL\n"
    ));
    out.push_str("redo logging costs one fsync per commit batch; group commit trades\n");
    out.push_str("tail durability for throughput\n\n");

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
        "1.0x".into(),
    ]);
    record_metric(Metric {
        experiment: "e20",
        name: "insert_sweep".into(),
        params: vec![
            ("statements".into(), n.to_string()),
            ("wal_batch".into(), "none".into()),
        ],
        wall_secs: t_mem,
        simulated_misses: None,
    });

    for batch in [1usize, 64, 4096] {
        let dir = tmpdir(&format!("b{batch}"));
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
        record_metric(Metric {
            experiment: "e20",
            name: "insert_sweep".into(),
            params: vec![
                ("statements".into(), n.to_string()),
                ("wal_batch".into(), batch.to_string()),
            ],
            wall_secs: t_wal,
            simulated_misses: None,
        });
        if batch == 1 {
            // checkpoint cost: fold the catalog, truncate the log
            let (_, t_ckpt) = timed(|| s.checkpoint().unwrap());
            out.push_str(&format!(
                "checkpoint after {n} inserts: {} (folds deltas, truncates WAL)\n\n",
                fmt_secs(t_ckpt)
            ));
            record_metric(Metric {
                experiment: "e20",
                name: "checkpoint".into(),
                params: vec![("statements".into(), n.to_string())],
                wall_secs: t_ckpt,
                simulated_misses: None,
            });
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    out.push_str(&t.render());
    out.push_str("\nnote: the batch-1 fsync dominates; larger batches approach the\n");
    out.push_str("in-memory rate while risking only unacknowledged tail statements.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_sweep_reports_every_batch() {
        let r = run(Scale::Quick);
        assert!(
            r.contains("checkpoint after") && r.contains("in-memory (no WAL)"),
            "{r}"
        );
    }
}
