//! E05 — Projection (tuple reconstruction) strategies (§4.3).
//!
//! After a join, payload columns must be fetched through a join index in
//! arbitrary order. Strategies compared:
//!
//! * **DSM naive post-projection** — `out[i] = column[index[i]]`, random
//!   access over the whole column;
//! * **DSM radix-decluster** — the \[28\] algorithm: bounded-region cluster,
//!   gather, sequential merge;
//! * **NSM pre-projection** — payload travels with the key through the
//!   join as full rows (modeled as an array of 64-byte structs gathered at
//!   the same positions: the row store's cache line per tuple).

use crate::table::TextTable;
use crate::{fmt_secs, ns_per, timed, Report, Scale};
use mammoth_algebra::{fetch_fixed, radix_decluster_fixed};
use mammoth_cache::{HierarchySim, MemoryHierarchy, Recorder};
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
    let naive_fetch = || fetch_fixed(&positions, &column, &mut ());
    let (naive, t_naive_a) = timed(naive_fetch);
    let (_, t_naive_b) = timed(naive_fetch);
    let t_naive = t_naive_a.min(t_naive_b);

    // decluster with regions sized to ~a quarter of the L2 cache; best of 2
    let l2 = 1 << 20;
    let region_bytes = l2 / 4;
    let regions = ((n * 8) as f64 / region_bytes as f64).ceil().max(1.0);
    let bits = (regions.log2().ceil() as u32).clamp(1, 12);
    let (fast, t_fast_a) = timed(|| radix_decluster_fixed(&positions, &column, bits, &mut ()));
    let (_, t_fast_b) = timed(|| radix_decluster_fixed(&positions, &column, bits, &mut ()));
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
    let sim_column: Vec<i64> = (0..sim_n as i64).collect();
    let sim_bits = 6u32;
    let [mut naive, mut dc] = [(); 2].map(|_| HierarchySim::new(&h));
    let mut rec = Recorder::new(|a, k| naive.access(a, k));
    fetch_fixed(&sim_pos, &sim_column, &mut rec);
    let mut rec = Recorder::new(|a, k| dc.access(a, k));
    radix_decluster_fixed(&sim_pos, &sim_column, sim_bits, &mut rec);
    let (naive_cost, dc_cost) = (naive.cost(), dc.cost());

    out.push_str(&format!(
        "\nsimulated memory cost ({sim_m} fetches from {sim_n} rows, {sim_bits} radix bits):\n\
         naive post-fetch {naive_cost} cycles vs radix-decluster {dc_cost} cycles ({:.2}x fewer)\n",
        naive_cost as f64 / dc_cost as f64
    ));
    Report::new(out)
        .simulated("§4.3", FEWER_CYCLES, dc_cost < naive_cost)
        .wall_clock("§4.3", BEST_STRATEGY)
}
