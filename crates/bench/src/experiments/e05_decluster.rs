//! E05 — Projection (tuple reconstruction) strategies (§4.3).
//!
//! After a join, payload columns must be fetched through a join index in
//! arbitrary order. Strategies compared:
//!
//! * **DSM naive post-projection** — `out[i] = column[index[i]]`, random
//!   access over the whole column;
//! * **DSM radix-decluster** — the [28] algorithm: bounded-region cluster,
//!   gather, sequential merge;
//! * **NSM pre-projection** — payload travels with the key through the
//!   join as full rows (modeled as an array of 64-byte structs gathered at
//!   the same positions: the row store's cache line per tuple).

use crate::table::TextTable;
use crate::{fmt_secs, ns_per, timed, Report, Scale};
use mammoth_algebra::radix_decluster_fixed;
use mammoth_cache::{AccessKind, HierarchySim, MemoryHierarchy};
use mammoth_workload::uniform_i64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const FEWER_CYCLES: &str =
    "radix-decluster post-projects with fewer memory cycles than a naive positional fetch";
const BEST_STRATEGY: &str =
    "radix-decluster makes DSM post-projection the best projection strategy";

/// A 64-byte NSM row: the projected column plus 7 siblings.
#[derive(Clone, Copy)]
#[repr(C)]
struct NsmRow {
    cols: [i64; 8],
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 18, 1 << 24);
    let fetches = n / 2;
    let column = uniform_i64(n, 0, 1 << 30, 5);
    let mut rng = StdRng::seed_from_u64(9);
    let positions: Vec<u32> = (0..fetches)
        .map(|_| rng.random_range(0..n as u32))
        .collect();
    // NSM table: same column embedded in 64-byte rows
    let rows: Vec<NsmRow> = column.iter().map(|&v| NsmRow { cols: [v; 8] }).collect();

    let mut out = String::new();
    out.push_str(&format!(
        "E05  Post-projection of {fetches} tuples from a {n}-row column\n\n"
    ));

    // best of 2
    let naive_fetch = || -> Vec<i64> { positions.iter().map(|&p| column[p as usize]).collect() };
    let (naive, t_naive_a) = timed(naive_fetch);
    let (_, t_naive_b) = timed(naive_fetch);
    let t_naive = t_naive_a.min(t_naive_b);

    // decluster with regions sized to ~a quarter of the L2 cache; best of 2
    let l2 = 1 << 20;
    let region_bytes = l2 / 4;
    let regions = ((n * 8) as f64 / region_bytes as f64).ceil().max(1.0);
    let bits = (regions.log2().ceil() as u32).clamp(1, 12);
    let (fast, t_fast_a) = timed(|| radix_decluster_fixed(&positions, &column, bits));
    let (_, t_fast_b) = timed(|| radix_decluster_fixed(&positions, &column, bits));
    let t_fast = t_fast_a.min(t_fast_b);
    assert_eq!(naive, fast);

    let (nsm, t_nsm) = timed(|| {
        positions
            .iter()
            .map(|&p| rows[p as usize].cols[0])
            .collect::<Vec<i64>>()
    });
    assert_eq!(naive, nsm);

    let mut t = TextTable::new(vec!["strategy", "time", "ns/fetch", "vs naive"]);
    t.row(vec![
        "DSM naive post-fetch".into(),
        fmt_secs(t_naive),
        format!("{:.1}", ns_per(t_naive, fetches)),
        "-".into(),
    ]);
    t.row(vec![
        format!("DSM radix-decluster ({bits} bits)"),
        fmt_secs(t_fast),
        format!("{:.1}", ns_per(t_fast, fetches)),
        format!("{:.2}x", t_naive / t_fast),
    ]);
    t.row(vec![
        "NSM pre-projection (64B rows)".into(),
        fmt_secs(t_nsm),
        format!("{:.1}", ns_per(t_nsm, fetches)),
        format!("{:.2}x", t_naive / t_nsm),
    ]);
    out.push_str(&t.render());

    // Simulated misses: modern cores overlap DRAM misses (deep MLP), which
    // compresses the wall-clock gap; the *miss counts* — what the paper's
    // era was bound by — still show radix-decluster's advantage.
    let sim_n = scale.pick(1 << 16, 1 << 21); // > LLC at full scale
    let sim_m = sim_n / 2;
    let h = MemoryHierarchy::generic_modern();
    let mut rng = StdRng::seed_from_u64(10);
    let sim_pos: Vec<u32> = (0..sim_m)
        .map(|_| rng.random_range(0..sim_n as u32))
        .collect();
    let sim_bits = 6u32;
    let shift = (usize::BITS - sim_n.max(1).leading_zeros()).saturating_sub(sim_bits);

    let base_pos = 0u64; // positions array
    let base_col = 1 << 30; // column
    let base_clu = 2 << 30; // clustered positions
    let base_val = 3 << 30; // gathered values
    let base_out = 4 << 30; // output

    // naive: read positions sequentially, fetch column at random
    let mut naive_trace: Vec<(u64, AccessKind)> = Vec::with_capacity(2 * sim_m);
    for (i, &p) in sim_pos.iter().enumerate() {
        naive_trace.push((base_pos + 4 * i as u64, AccessKind::Sequential));
        naive_trace.push((base_col + 8 * p as u64, AccessKind::Random));
    }
    let mut sim = HierarchySim::new(&h);
    sim.run(naive_trace);
    let naive_cost = sim.cost();

    // decluster: three bounded passes
    let mut dc_trace: Vec<(u64, AccessKind)> = Vec::with_capacity(8 * sim_m);
    let hh = 1usize << sim_bits;
    let per = sim_m.div_ceil(hh).max(1);
    let mut cursors = vec![0usize; hh];
    // phase 1: scatter positions into clusters (bounded cursors)
    for (i, &p) in sim_pos.iter().enumerate() {
        dc_trace.push((base_pos + 4 * i as u64, AccessKind::Sequential));
        let c = (p as usize) >> shift;
        let slot = (c * per + cursors[c].min(per - 1)) as u64;
        cursors[c] += 1;
        dc_trace.push((base_clu + 4 * slot, AccessKind::Sequential));
    }
    // phase 2: per cluster, read positions sequentially, gather in-region
    let mut k = 0u64;
    let mut by_cluster: Vec<Vec<u32>> = vec![Vec::new(); hh];
    for &p in &sim_pos {
        by_cluster[(p as usize) >> shift].push(p);
    }
    for cluster in &by_cluster {
        for &p in cluster {
            dc_trace.push((base_clu + 4 * k, AccessKind::Sequential));
            dc_trace.push((base_col + 8 * p as u64, AccessKind::Random));
            dc_trace.push((base_val + 8 * k, AccessKind::Sequential));
            k += 1;
        }
    }
    // phase 3: merge (bounded read cursors + sequential write)
    let mut cursors = vec![0u64; hh];
    let offsets: Vec<u64> = {
        let mut acc = 0u64;
        by_cluster
            .iter()
            .map(|c| {
                let o = acc;
                acc += c.len() as u64;
                o
            })
            .collect()
    };
    for (i, &p) in sim_pos.iter().enumerate() {
        dc_trace.push((base_pos + 4 * i as u64, AccessKind::Sequential));
        let c = (p as usize) >> shift;
        dc_trace.push((
            base_val + 8 * (offsets[c] + cursors[c]),
            AccessKind::Sequential,
        ));
        cursors[c] += 1;
        dc_trace.push((base_out + 8 * i as u64, AccessKind::Sequential));
    }
    let mut sim = HierarchySim::new(&h);
    sim.run(dc_trace);
    let dc_cost = sim.cost();

    out.push_str(&format!(
        "\nsimulated memory cost ({sim_m} fetches from {sim_n} rows, {sim_bits} radix bits):\n\
         naive post-fetch {naive_cost} cycles vs radix-decluster {dc_cost} cycles ({:.2}x fewer)\n",
        naive_cost as f64 / dc_cost as f64
    ));
    Report::new(out)
        .simulated("§4.3", FEWER_CYCLES, dc_cost < naive_cost)
        .wall_clock("§4.3", BEST_STRATEGY)
}
