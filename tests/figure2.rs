//! Integration test: Figure 2 — partitioned hash-join with two-pass
//! radix-cluster, H = 8 ⇔ B = 3, on the exact values printed in the paper.
//!
//! Figure 2 shows relations L and R clustered on the lowest 3 bits of the
//! values (first pass: the 2 leftmost of those bits; second pass: the
//! remaining bit), after which corresponding clusters are hash-joined. The
//! figure highlights the matching ("black") tuples.

use mammoth::algebra::{hash_join, partitioned_hash_join, radix_cluster};
use mammoth::storage::Bat;
use mammoth::types::Oid;

/// Relation L from the figure (left column, top to bottom).
const L: [i64; 12] = [57, 17, 3, 47, 92, 81, 20, 6, 96, 75, 3, 66];
/// Relation R from the figure.
const R: [i64; 8] = [17, 35, 32, 47, 20, 96, 10, 66];

#[test]
fn two_pass_cluster_groups_on_low_3_bits() {
    let keys: Vec<u64> = L.iter().map(|&x| x as u64).collect();
    let oids: Vec<Oid> = (0..L.len() as u64).collect();
    // 2-pass: 2 leftmost bits of the low-3 window, then the last bit
    let cc = radix_cluster(keys.clone(), oids, &[2, 1], &mut ());
    assert_eq!(cc.cluster_count(), 8);
    // clusters are in ascending order of the 3-bit value, and every value
    // sits in the cluster of its low 3 bits — the figure's invariant
    for c in 0..8 {
        let (cluster, _) = cc.cluster(c);
        for &v in cluster {
            assert_eq!(
                (v & 0b111) as usize,
                c,
                "value {v} (bits {:03b}) in cluster {c}",
                v & 0b111
            );
        }
    }
    // nothing lost, nothing invented
    assert_eq!(cc.keys.len(), L.len());
    let mut sorted: Vec<u64> = cc.keys.clone();
    sorted.sort_unstable();
    let mut orig: Vec<u64> = keys;
    orig.sort_unstable();
    assert_eq!(sorted, orig);
}

#[test]
fn one_and_two_pass_clustering_agree() {
    let keys: Vec<u64> = L.iter().map(|&x| x as u64).collect();
    let oids: Vec<Oid> = (0..L.len() as u64).collect();
    let one = radix_cluster(keys.clone(), oids.clone(), &[3], &mut ());
    let two = radix_cluster(keys, oids, &[2, 1], &mut ());
    assert_eq!(one.keys, two.keys);
    assert_eq!(one.oids, two.oids);
    assert_eq!(one.bounds, two.bounds);
}

#[test]
fn partitioned_join_finds_the_black_tuples() {
    let l = Bat::from_vec(L.to_vec());
    let r = Bat::from_vec(R.to_vec());
    let ji = partitioned_hash_join(&l, &r, &[2, 1], &mut ())
        .unwrap()
        .sorted();
    // the figure's matches: values present in both relations
    let mut matched_values: Vec<i64> = ji.left.iter().map(|&o| L[o as usize]).collect();
    matched_values.sort_unstable();
    assert_eq!(matched_values, vec![17, 20, 47, 66, 96]);
    // and the partitioned join agrees with the plain hash join
    let plain = hash_join(&l, &r).unwrap().sorted();
    assert_eq!(ji, plain);
}

#[test]
fn join_pairs_point_at_matching_tuples() {
    let l = Bat::from_vec(L.to_vec());
    let r = Bat::from_vec(R.to_vec());
    let ji = partitioned_hash_join(&l, &r, &[2, 1], &mut ()).unwrap();
    assert_eq!(ji.len(), 5);
    for (lo, ro) in ji.left.iter().zip(&ji.right) {
        assert_eq!(
            L[*lo as usize], R[*ro as usize],
            "join index pairs equal values"
        );
    }
}
