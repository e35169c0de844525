//! E04 — CPU and memory optimizations compound (§4.2, \[25\]).
//!
//! "Extensive experiments show that memory and CPU optimization boost each
//! other, i.e., their combined improvement is larger than the sum of their
//! individual improvements."
//!
//! The 2×2 ablation: {division-based vs division-free hash function} ×
//! {no partitioning vs radix partitioning}, all running the same join.

use crate::table::TextTable;
use crate::{ns_per, timed, Report, Scale};
use mammoth_algebra::radix_cluster;
use mammoth_cache::trace::cluster_passes;
use mammoth_index::{HashTable, KeyHasher, MaskHasher, ModuloHasher};
use mammoth_types::Oid;
use mammoth_workload::permutation;

const COMPOUND: &str = "memory and CPU optimizations boost each other: combined, they gain more than the sum of their gains alone";

/// A join over raw u64 keys, parametrized by hasher and partitioning.
fn join_with<H: KeyHasher>(hasher: H, lk: &[u64], rk: &[u64], bits: u32) -> usize {
    let oids_l: Vec<Oid> = (0..lk.len() as u64).collect();
    let oids_r: Vec<Oid> = (0..rk.len() as u64).collect();
    let passes = cluster_passes(bits, 6);
    let lc = radix_cluster(lk.to_vec(), oids_l, &passes, &mut ());
    let rc = radix_cluster(rk.to_vec(), oids_r, &passes, &mut ());
    let mut matches = 0usize;
    for c in 0..lc.cluster_count() {
        let (lks, _) = lc.cluster(c);
        let (rks, _) = rc.cluster(c);
        if lks.is_empty() || rks.is_empty() {
            continue;
        }
        let table = HashTable::build_with(hasher.clone(), rks);
        for &key in lks {
            for j in table.candidates(key) {
                if rks[j] == key {
                    matches += 1;
                }
            }
        }
    }
    matches
}

pub fn run(scale: Scale) -> Report {
    let n = scale.pick(1 << 17, 1 << 23);
    let lk: Vec<u64> = permutation(n, 3).into_iter().map(|x| x as u64).collect();
    let rk: Vec<u64> = permutation(n, 4).into_iter().map(|x| x as u64).collect();
    let bits = 12u32.min((n as f64).log2() as u32 - 6);

    let mut out = String::new();
    out.push_str(&format!(
        "E04  CPU x memory ablation over a {n}-tuple join (2x2 design)\n\n"
    ));

    // best of 3 interleaved repetitions per variant (VM timing noise)
    let mut best = [f64::MAX; 4];
    for _ in 0..3 {
        let (m, t) = timed(|| join_with(ModuloHasher, &lk, &rk, 0));
        assert_eq!(m, n);
        best[0] = best[0].min(t);
        let (m, t) = timed(|| join_with(MaskHasher, &lk, &rk, 0));
        assert_eq!(m, n);
        best[1] = best[1].min(t);
        let (m, t) = timed(|| join_with(ModuloHasher, &lk, &rk, bits));
        assert_eq!(m, n);
        best[2] = best[2].min(t);
        let (m, t) = timed(|| join_with(MaskHasher, &lk, &rk, bits));
        assert_eq!(m, n);
        best[3] = best[3].min(t);
    }
    let (t_base, t_cpu, t_mem, t_both) = (best[0], best[1], best[2], best[3]);

    let mut t = TextTable::new(vec!["variant", "hash fn", "partitioned", "time", "speedup"]);
    t.row(vec![
        "baseline".into(),
        "modulo (idiv)".into(),
        "no".into(),
        format!("{:.1} ns/t", ns_per(t_base, n)),
        "-".to_string(),
    ]);
    t.row(vec![
        "CPU only".into(),
        "multiply+mask".into(),
        "no".into(),
        format!("{:.1} ns/t", ns_per(t_cpu, n)),
        format!("{:.2}x", t_base / t_cpu),
    ]);
    t.row(vec![
        "memory only".into(),
        "modulo (idiv)".into(),
        format!("{bits} bits"),
        format!("{:.1} ns/t", ns_per(t_mem, n)),
        format!("{:.2}x", t_base / t_mem),
    ]);
    t.row(vec![
        "both".into(),
        "multiply+mask".into(),
        format!("{bits} bits"),
        format!("{:.1} ns/t", ns_per(t_both, n)),
        format!("{:.2}x", t_base / t_both),
    ]);
    out.push_str(&t.render());

    let gain_cpu = t_base - t_cpu;
    let gain_mem = t_base - t_mem;
    let gain_both = t_base - t_both;
    out.push_str(&format!(
        "\nabsolute gains: cpu {:.0}ms + mem {:.0}ms = {:.0}ms vs combined {:.0}ms\n",
        gain_cpu * 1e3,
        gain_mem * 1e3,
        (gain_cpu + gain_mem) * 1e3,
        gain_both * 1e3
    ));
    Report::new(out).wall_clock("§4.2 [25]", COMPOUND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_agree() {
        let lk: Vec<u64> = permutation(1 << 10, 3)
            .into_iter()
            .map(|x| x as u64)
            .collect();
        let rk: Vec<u64> = permutation(1 << 10, 4)
            .into_iter()
            .map(|x| x as u64)
            .collect();
        assert_eq!(join_with(ModuloHasher, &lk, &rk, 0), 1 << 10);
        assert_eq!(join_with(MaskHasher, &lk, &rk, 4), 1 << 10);
    }
}
