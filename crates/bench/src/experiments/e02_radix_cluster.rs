//! E02 — Radix-cluster: single-pass thrashing vs multi-pass (§4.2).
//!
//! Clusters N tuples on B radix bits with 1, 2 and 3 passes. The §4.2
//! claim: one pass with many clusters thrashes TLB and cache; multiple
//! passes with few clusters each reach the same H much cheaper. Reported
//! both as wall-clock on this machine and as simulated cache/TLB misses.

use crate::table::TextTable;
use crate::{ns_per, timed, Report, Scale};
use mammoth_algebra::radix_cluster;
use mammoth_cache::trace::{cluster_passes, max_safe_bits_per_pass, radix_cluster_trace};
use mammoth_cache::{HierarchySim, MemoryHierarchy};
use mammoth_types::Oid;
use mammoth_workload::uniform_keys;

const MULTI_PASS: &str =
    "once 2^B exceeds the TLB entries and cache lines, several passes cluster more cheaply than one";

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 18, 1 << 22);
    let keys = uniform_keys(n, 42);
    let oids: Vec<Oid> = (0..n as u64).collect();

    let mut out = String::new();
    out.push_str(&format!(
        "E02  Radix-cluster pass/bits sweep over {n} tuples (wall-clock, this machine)\n\n"
    ));

    let mut t = TextTable::new(vec!["bits", "H", "1 pass", "2 passes", "3 passes", "best"]);
    for bits in [4u32, 6, 8, 10, 12, 14, 16] {
        let mut times = Vec::new();
        for passes in 1..=3u32 {
            let schedule = cluster_passes(bits, bits.div_ceil(passes));
            if schedule.len() != passes as usize {
                times.push(None);
                continue;
            }
            let (_, secs) = timed(|| radix_cluster(&keys, &oids, &schedule));
            times.push(Some(secs));
        }
        let best = (0..3)
            .filter(|&i| times[i].is_some())
            .min_by(|&a, &b| times[a].unwrap().total_cmp(&times[b].unwrap()))
            .unwrap();
        t.row(vec![
            bits.to_string(),
            (1u64 << bits).to_string(),
            times[0].map_or("-".into(), |s| format!("{:.1} ns/t", ns_per(s, n))),
            times[1].map_or("-".into(), |s| format!("{:.1} ns/t", ns_per(s, n))),
            times[2].map_or("-".into(), |s| format!("{:.1} ns/t", ns_per(s, n))),
            format!("{} pass(es)", best + 1),
        ]);
    }
    out.push_str(&t.render());

    // simulated misses on the generic hierarchy (smaller n: sim is O(1) per
    // access but constants matter)
    let sim_n = scale.pick(1 << 14, 1 << 17);
    let h = MemoryHierarchy::generic_modern();
    // past the model's per-pass budget, one pass's cursors outnumber the
    // TLB entries or the L1 lines
    let budget = max_safe_bits_per_pass(&h);
    out.push_str(&format!(
        "\nsimulated cache+TLB cost (generic hierarchy, per-pass budget {budget} bits, \
         {sim_n} tuples, 8B records):\n"
    ));
    let mut report = Report::default();
    let mut multi_pass_wins = true;
    let mut t = TextTable::new(vec!["bits", "1 pass (cycles/t)", "2 passes", "3 passes"]);
    for bits in [6u32, 10, 14] {
        let mut row = vec![bits.to_string()];
        let mut cycles = Vec::new();
        for passes in 1..=3u32 {
            let schedule = cluster_passes(bits, bits.div_ceil(passes));
            if schedule.len() != passes as usize {
                row.push("-".into());
                continue;
            }
            let mut sim = HierarchySim::new(&h);
            let (_, secs) = timed(|| sim.run(radix_cluster_trace(sim_n, 8, &schedule, 7)));
            let cost = sim.cost();
            row.push(format!("{:.1}", cost as f64 / sim_n as f64));
            cycles.push(cost);
            // the predicate's inputs, which a pinned failure pins
            report.metric(
                "simulated_cluster",
                &[("bits", &bits), ("passes", &passes), ("cycles", &cost)],
                secs,
            );
        }
        if bits > budget {
            multi_pass_wins &= cycles[1..].iter().any(|&c| c < cycles[0]);
        }
        t.row(row);
    }
    out.push_str(&t.render());
    report.text = out;
    report
        .simulated("§4.2", MULTI_PASS, multi_pass_wins)
        .wall_clock("§4.2", MULTI_PASS)
}
