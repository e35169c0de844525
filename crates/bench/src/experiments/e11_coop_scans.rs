//! E11 — Cooperative scans (§5, \[45\]).
//!
//! N concurrent full-table scans through a buffer far smaller than the
//! table, under (a) classical per-query LRU demand paging and (b) the
//! Active Buffer Manager's relevance-driven cooperative policy. Reported:
//! physical I/O volume and completion times — "synergy rather than
//! competition for I/O resources".

use crate::table::TextTable;
use crate::{Report, Scale};
use mammoth_bufferpool::{simulate_scans, ScanPolicy};

const SHARED_PASS: &str = "cooperative scans read no more chunks than LRU, and fewer whenever staggered scans share the table";

pub fn run(scale: Scale) -> Report {
    let npages = scale.pick(128, 1024);
    let bufpages = npages / 8;

    let mut out = String::new();
    out.push_str(&format!(
        "E11  Concurrent scans of a {npages}-chunk table through a {bufpages}-chunk buffer\n\n"
    ));
    let mut coop_saves = true;

    let mut t = TextTable::new(vec![
        "queries",
        "arrival",
        "LRU reads",
        "coop reads",
        "I/O saved",
        "LRU avg done",
        "coop avg done",
    ]);
    for &q in &[1usize, 2, 4, 8, 16] {
        for (aname, arrivals) in [
            ("together", vec![0u64; q]),
            (
                "staggered",
                (0..q as u64).map(|i| i * (npages as u64 / 4)).collect(),
            ),
        ] {
            let lru = simulate_scans(npages, bufpages, &arrivals, ScanPolicy::Lru);
            let coop = simulate_scans(npages, bufpages, &arrivals, ScanPolicy::Cooperative);
            coop_saves &= if q > 1 && aname == "staggered" {
                coop.disk_reads < lru.disk_reads
            } else {
                coop.disk_reads <= lru.disk_reads
            };
            t.row(vec![
                q.to_string(),
                aname.to_string(),
                lru.disk_reads.to_string(),
                coop.disk_reads.to_string(),
                format!(
                    "{:.0}%",
                    (1.0 - coop.disk_reads as f64 / lru.disk_reads.max(1) as f64) * 100.0
                ),
                format!("{:.0}", lru.avg_completion),
                format!("{:.0}", coop.avg_completion),
            ]);
        }
    }
    out.push_str(&t.render());
    Report::new(out).simulated("§5 [45]", SHARED_PASS, coop_saves)
}
