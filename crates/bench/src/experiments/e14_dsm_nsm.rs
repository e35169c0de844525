//! E14 — DSM vs NSM under block-oriented processing (§5, \[46\]).
//!
//! \[46\]'s finding, reproduced in miniature: *sequential* operators (scan +
//! aggregate one attribute) love DSM — they touch only the bytes they need;
//! *random-access* operators (fetch whole tuples by position) prefer NSM —
//! one cache line delivers the whole tuple, where DSM pays one miss per
//! attribute.

use crate::table::TextTable;
use crate::{ns_per, timed, Report, Scale};
use mammoth_workload::uniform_i64;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CROSSOVER: &str = "DSM wins sequential scans and NSM wins random whole-tuple access";

const ARITY: usize = 8;
/// PAX block size in rows (block = ARITY minipages of this many values).
const PAX_BLOCK: usize = 4096;

/// A PAX block: NSM paging, DSM layout inside ([5], §7).
struct PaxBlock {
    minipages: Vec<Vec<i64>>,
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 18, 1 << 22);
    // DSM: eight separate columns
    let dsm: Vec<Vec<i64>> = (0..ARITY)
        .map(|c| uniform_i64(n, 0, 1 << 30, c as u64))
        .collect();
    // NSM: the same data as an array of 8-attribute structs
    let mut nsm: Vec<[i64; ARITY]> = vec![[0; ARITY]; n];
    for (c, col) in dsm.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            nsm[i][c] = v;
        }
    }
    // PAX: blocks of PAX_BLOCK rows, column-wise inside each block
    let pax: Vec<PaxBlock> = (0..n.div_ceil(PAX_BLOCK))
        .map(|b| {
            let lo = b * PAX_BLOCK;
            let hi = ((b + 1) * PAX_BLOCK).min(n);
            PaxBlock {
                minipages: (0..ARITY).map(|c| dsm[c][lo..hi].to_vec()).collect(),
            }
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "E14  DSM vs NSM over {n} rows x {ARITY} attributes (i64)\n\n"
    ));

    // sequential: sum one attribute
    let (s_dsm, t_seq_dsm) = timed(|| dsm[3].iter().fold(0i64, |a, &v| a.wrapping_add(v)));
    let (s_nsm, t_seq_nsm) = timed(|| nsm.iter().fold(0i64, |a, r| a.wrapping_add(r[3])));
    let (s_pax, t_seq_pax) = timed(|| {
        pax.iter().fold(0i64, |a, b| {
            b.minipages[3].iter().fold(a, |a, &v| a.wrapping_add(v))
        })
    });
    assert_eq!(s_dsm, s_nsm);
    assert_eq!(s_dsm, s_pax);

    // random: reconstruct whole tuples at random positions
    let probes = n / 4;
    let mut rng = StdRng::seed_from_u64(7);
    let positions: Vec<usize> = (0..probes).map(|_| rng.random_range(0..n)).collect();
    let (r_nsm, t_rand_nsm) = timed(|| {
        let mut acc = 0i64;
        for &p in &positions {
            let row = &nsm[p];
            for &v in row {
                acc = acc.wrapping_add(v);
            }
        }
        acc
    });
    let (r_dsm, t_rand_dsm) = timed(|| {
        let mut acc = 0i64;
        for &p in &positions {
            for col in &dsm {
                acc = acc.wrapping_add(col[p]);
            }
        }
        acc
    });
    let (r_pax, t_rand_pax) = timed(|| {
        let mut acc = 0i64;
        for &p in &positions {
            let b = &pax[p / PAX_BLOCK];
            let o = p % PAX_BLOCK;
            for mp in &b.minipages {
                acc = acc.wrapping_add(mp[o]);
            }
        }
        acc
    });
    assert_eq!(r_dsm, r_nsm);
    assert_eq!(r_dsm, r_pax);

    let mut t = TextTable::new(vec!["operator", "DSM", "NSM", "PAX", "winner"]);
    let winner3 = |d: f64, n_: f64, p: f64| {
        if d <= n_ && d <= p {
            "DSM"
        } else if n_ <= p {
            "NSM"
        } else {
            "PAX"
        }
    };
    t.row(vec![
        "sequential: sum 1 of 8 attributes".into(),
        format!("{:.2} ns/row", ns_per(t_seq_dsm, n)),
        format!("{:.2} ns/row", ns_per(t_seq_nsm, n)),
        format!("{:.2} ns/row", ns_per(t_seq_pax, n)),
        winner3(t_seq_dsm, t_seq_nsm, t_seq_pax).to_string(),
    ]);
    t.row(vec![
        "random: fetch whole tuples".into(),
        format!("{:.2} ns/row", ns_per(t_rand_dsm, probes)),
        format!("{:.2} ns/row", ns_per(t_rand_nsm, probes)),
        format!("{:.2} ns/row", ns_per(t_rand_pax, probes)),
        winner3(t_rand_dsm, t_rand_nsm, t_rand_pax).to_string(),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nsequential DSM advantage: {:.1}x; random NSM advantage: {:.1}x\n",
        t_seq_nsm / t_seq_dsm,
        t_rand_dsm / t_rand_nsm
    ));
    Report::new(out).wall_clock("§5 [46]", CROSSOVER)
}
