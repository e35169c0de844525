//! E01 — Figure 2, literally.
//!
//! Clusters the figure's relations L and R on the lowest 3 bits in two
//! passes (2 bits, then 1) and joins the matching clusters, printing the
//! cluster layout the way the figure draws it.

use crate::table::TextTable;
use crate::{Report, Scale};
use mammoth_algebra::{partitioned_hash_join, radix_cluster};
use mammoth_storage::Bat;
use mammoth_types::Oid;

const FIGURE: &str = "two passes cluster L and R on their lowest 3 bits, and the cluster-wise join finds the figure's five black tuples";

const L: [i64; 12] = [57, 17, 3, 47, 92, 81, 20, 6, 96, 75, 3, 66];
const R: [i64; 8] = [17, 35, 32, 47, 20, 96, 10, 66];
/// The figure's black tuples, as (L oid, R oid): values 17, 47, 20, 96, 66.
const BLACK: [(Oid, Oid); 5] = [(1, 0), (3, 3), (6, 4), (8, 5), (11, 7)];

pub fn run(_scale: Scale) -> Report {
    let mut out = String::new();
    out.push_str("E01  Figure 2: partitioned hash-join with 2-pass radix-cluster (H=8, B=3)\n\n");

    let mut clusters_match = true;
    for (name, rel) in [("L", &L[..]), ("R", &R[..])] {
        let keys: Vec<u64> = rel.iter().map(|&x| x as u64).collect();
        let oids: Vec<Oid> = (0..rel.len() as u64).collect();
        let cc = radix_cluster(keys, oids, &[2, 1], &mut ());
        clusters_match &= cc.cluster_count() == 8 && cc.keys.len() == rel.len();
        let mut t = TextTable::new(vec!["cluster (bits)", format!("{name} values").as_str()]);
        for c in 0..cc.cluster_count() {
            let (vals, _) = cc.cluster(c);
            clusters_match &= vals.iter().all(|&v| v & 7 == c as u64);
            let rendered: Vec<String> = vals.iter().map(|v| format!("{v:02}")).collect();
            t.row(vec![
                format!("{c:03b}"),
                if rendered.is_empty() {
                    "-".to_string()
                } else {
                    rendered.join(" ")
                },
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }

    let (left, right) = (Bat::from_vec(L.to_vec()), Bat::from_vec(R.to_vec()));
    let ji = partitioned_hash_join(&left, &right, &[2, 1], &mut ())
        .unwrap()
        .sorted();
    let matches: Vec<(Oid, Oid)> = ji.left.iter().copied().zip(ji.right).collect();
    let mut t = TextTable::new(vec!["L oid", "R oid", "value (the figure's black tuples)"]);
    for &(l, r) in &matches {
        t.row(vec![
            l.to_string(),
            r.to_string(),
            L[l as usize].to_string(),
        ]);
    }
    out.push_str(&t.render());
    Report::new(out).exact("§4.2 Figure 2", FIGURE, clusters_match && matches == BLACK)
}
