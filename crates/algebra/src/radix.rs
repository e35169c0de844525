//! Radix-Cluster, Partitioned Hash-Join and Radix-Decluster (§4).
//!
//! * [`radix_cluster`] divides a column into `H = 2^B` clusters on the lower
//!   `B` bits of its key image using `P` passes, "starting with the leftmost
//!   bits" (§4.2, Figure 2). Keeping the per-pass cluster count below the
//!   number of cache lines and TLB entries avoids thrashing while still
//!   reaching a high overall `H`.
//! * [`partitioned_hash_join`] clusters both sides, then hash-joins the
//!   matching cluster pairs — each pair's working set fits the cache.
//! * [`radix_decluster`] performs cache-friendly positional projection
//!   through an arbitrarily-ordered join index ([28], §4.3): cluster the
//!   index by fetch-position region, gather per region, then merge back to
//!   output order in one sequential pass with `H` bounded cursors.

use crate::flat::JoinTable;
use crate::join::{verify_eq, JoinIndex, JoinKeys};
use mammoth_storage::{Bat, TailHeap};
use mammoth_types::{Error, NativeType, Oid, Result};

/// Build the nil-aware u64 key image of a tail column: the images
/// [`crate::flat`] hashes in place, copied out for the clustering passes.
///
/// Integer types are sign-extended through i64 so that, e.g., an `i32`
/// column joins correctly against an `i64` column. The image is injective
/// ("exact") for all fixed-width types; strings use a content hash and must
/// be re-verified on match.
pub fn mix_key_bat(b: &Bat) -> Result<JoinKeys> {
    let (keys, nils) = crate::flat::with_images!(b, |images| images.unzip());
    Ok(JoinKeys {
        keys,
        nils,
        exact: b.tail().as_str_heap().is_none(),
    })
}

/// A column clustered on the lower `bits` of its key image.
#[derive(Debug, Clone)]
pub struct ClusteredColumn {
    /// Key images, arranged cluster by cluster.
    pub keys: Vec<u64>,
    /// The oid (or, in [`partitioned_hash_join`], the row number) of each
    /// key, aligned with `keys`.
    pub oids: Vec<Oid>,
    /// Total radix bits; clusters appear in increasing bit-value order.
    pub bits: u32,
    /// `2^bits + 1` boundaries: cluster `c` occupies `bounds[c]..bounds[c+1]`.
    pub bounds: Vec<usize>,
}

impl ClusteredColumn {
    pub fn cluster_count(&self) -> usize {
        self.bounds.len() - 1
    }

    pub fn cluster(&self, c: usize) -> (&[u64], &[Oid]) {
        let (s, e) = (self.bounds[c], self.bounds[c + 1]);
        (&self.keys[s..e], &self.oids[s..e])
    }
}

/// Multi-pass radix-cluster of `(key, oid)` pairs on
/// `B = Σ bits_per_pass` bits, as in Figure 2.
///
/// Pass `p` clusters on the most significant `bits_per_pass[p]` bits of the
/// remaining low-`B` window, sub-dividing each existing cluster. Every pass
/// is a stable counting sort, so tuples with equal low bits stay in input
/// order.
pub fn radix_cluster(keys: &[u64], oids: &[Oid], bits_per_pass: &[u32]) -> ClusteredColumn {
    assert_eq!(keys.len(), oids.len());
    let total_bits: u32 = bits_per_pass.iter().sum();
    assert!(total_bits <= 32, "more than 2^32 clusters is unreasonable");
    let n = keys.len();
    let h = 1usize << total_bits;

    let mut src_k = keys.to_vec();
    let mut src_o = oids.to_vec();
    let mut dst_k = vec![0u64; n];
    let mut dst_o = vec![0 as Oid; n];
    let mut bounds = vec![0, n];
    let mut shift_high = total_bits;

    for &b in bits_per_pass {
        let shift = shift_high - b;
        let mask = (1u64 << b) - 1;
        let sub = 1usize << b;
        let mut new_bounds = Vec::with_capacity((bounds.len() - 1) * sub + 1);
        new_bounds.push(0);
        // each existing cluster is sub-divided independently: the later
        // passes operate on (cache-sized) fragments, which is the whole
        // point of multi-pass clustering
        for w in bounds.windows(2) {
            let (s, e) = (w[0], w[1]);
            let mut hist = vec![0usize; sub];
            for &k in &src_k[s..e] {
                hist[((k >> shift) & mask) as usize] += 1;
            }
            let mut cursors = Vec::with_capacity(sub);
            let mut acc = s;
            for c in hist {
                cursors.push(acc);
                acc += c;
                new_bounds.push(acc);
            }
            for i in s..e {
                let d = ((src_k[i] >> shift) & mask) as usize;
                dst_k[cursors[d]] = src_k[i];
                dst_o[cursors[d]] = src_o[i];
                cursors[d] += 1;
            }
        }
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_o, &mut dst_o);
        bounds = new_bounds;
        shift_high = shift;
    }

    // with zero passes `bounds` is still the one cluster 0..n
    debug_assert_eq!(bounds.len(), h + 1);
    ClusteredColumn {
        keys: src_k,
        oids: src_o,
        bits: total_bits,
        bounds,
    }
}

/// Radix-clustered partitioned hash-join (§4.1–4.2, Figure 2).
///
/// Both relations are clustered on the same `B = Σ bits_per_pass` bits by
/// [`radix_cluster`], each cluster carrying the row numbers of its keys;
/// then one [`JoinTable`] is rebuilt in place over each right cluster and
/// probed with the matching left cluster, so every build works on one
/// cache-sized table at the same addresses.
pub fn partitioned_hash_join(l: &Bat, r: &Bat, bits_per_pass: &[u32]) -> Result<JoinIndex> {
    let lk = mix_key_bat(l)?;
    let rk = mix_key_bat(r)?;
    let exact = lk.exact && rk.exact;
    // nil rows are excluded before clustering (they never match)
    let (lkeys, lrows) = strip_nils(&lk);
    let (rkeys, rrows) = strip_nils(&rk);
    let lc = radix_cluster(&lkeys, &lrows, bits_per_pass);
    let rc = radix_cluster(&rkeys, &rrows, bits_per_pass);

    let mut out = JoinIndex::default();
    out.left.reserve(lkeys.len().min(rkeys.len()));
    out.right.reserve(lkeys.len().min(rkeys.len()));
    let mut table = JoinTable::build(std::iter::empty());
    for c in 0..lc.cluster_count() {
        let (lks, lrs) = lc.cluster(c);
        let (rks, rrs) = rc.cluster(c);
        if lks.is_empty() || rks.is_empty() {
            continue;
        }
        table.rebuild(rks.iter().map(|&key| (key, false)));
        for (&key, &i) in lks.iter().zip(lrs) {
            for j in table.matches(key) {
                let (i, j) = (i as usize, rrs[j] as usize);
                if verify_eq(l, r, i, j, exact) {
                    out.left.push(l.oid_at(i));
                    out.right.push(r.oid_at(j));
                }
            }
        }
    }
    Ok(out)
}

/// The non-nil keys of `k` and their row numbers.
fn strip_nils(k: &JoinKeys) -> (Vec<u64>, Vec<Oid>) {
    let live = k
        .keys
        .iter()
        .zip(&k.nils)
        .enumerate()
        .filter(|(_, (_, &nil))| !nil);
    live.map(|(row, (&key, _))| (key, row as Oid)).unzip()
}

/// Cache-conscious positional projection through an arbitrary join index.
///
/// `index` is a BAT whose tail holds fetch oids into `column` in *output
/// order* (e.g. the probe-side join index). A naive fetch reads `column` at
/// random; radix-decluster bounds every random access:
///
/// 1. **cluster** the index entries into `2^bits` buffers by fetch-position
///    region (one sequential read, `2^bits` cursors);
/// 2. **fetch** per buffer — each buffer's positions fall in one
///    `len/2^bits` slice of `column`, which fits the cache;
/// 3. **merge** back to output order in one sequential pass that replays the
///    cluster function (again `2^bits` cursors, no random access).
///
/// Unlike radix-cluster this is single-pass, hence the scalability limit
/// §4.3 notes: `2^bits` must stay below the cache-line budget.
pub fn radix_decluster(index: &Bat, column: &Bat, bits: u32) -> Result<Bat> {
    let oids = index.tail_slice::<Oid>()?;
    let n = column.len();
    let seqbase = match column.head() {
        mammoth_storage::HeadColumn::Void { seqbase } => *seqbase,
        mammoth_storage::HeadColumn::Oids(_) => {
            return Err(Error::Unsupported(
                "radix_decluster needs a void-headed column".into(),
            ))
        }
    };
    // region shift so that position >> shift < 2^bits
    let need_bits = usize::BITS - n.max(1).leading_zeros();
    let shift = need_bits.saturating_sub(bits);
    let h = 1usize << bits;

    // phase 1: cluster positions (and remember each entry's cluster by
    // replaying the radix function in phase 3 — nothing extra to store)
    let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); h];
    for &o in oids {
        if o < seqbase || (o - seqbase) as usize >= n {
            return Err(Error::OutOfRange {
                index: o,
                len: n as u64,
            });
        }
        let pos = (o - seqbase) as usize;
        clusters[pos >> shift].push(pos as u32);
    }

    // phase 2: per-cluster gather (bounded region of `column`)
    let positions_by_cluster: Vec<Vec<usize>> = clusters
        .iter()
        .map(|c| c.iter().map(|&p| p as usize).collect())
        .collect();
    let fetched: Vec<TailHeap> = positions_by_cluster
        .iter()
        .map(|pos| column.tail().take(pos))
        .collect();

    // phase 3: merge back to output order
    let mut cursors = vec![0usize; h];
    let mut out = TailHeap::with_capacity(column.ty(), oids.len());
    for &o in oids {
        let pos = (o - seqbase) as usize;
        let c = pos >> shift;
        let k = cursors[c];
        cursors[c] += 1;
        out.push_value(&fetched[c].value(k))?;
    }
    Ok(Bat::dense(0, out))
}

/// Fast typed variant of [`radix_decluster`] for fixed-width columns,
/// avoiding the dynamic `Value` path in the merge phase. This is the
/// version the benchmarks exercise: flat counting-sort buffers, no
/// per-cluster allocation.
pub fn radix_decluster_fixed<T: NativeType + mammoth_storage::FixedTail>(
    positions: &[u32],
    column: &[T],
    bits: u32,
) -> Vec<T> {
    let n = column.len();
    let need_bits = usize::BITS - n.max(1).leading_zeros();
    let shift = need_bits.saturating_sub(bits);
    let h = 1usize << bits;
    let m = positions.len();

    // histogram + prefix sums: one flat cluster-major buffer
    let mut offsets = vec![0u32; h + 1];
    for &p in positions {
        offsets[((p as usize) >> shift) + 1] += 1;
    }
    for c in 0..h {
        offsets[c + 1] += offsets[c];
    }

    // phase 1: scatter positions into cluster order (h bounded cursors)
    let mut clustered: Vec<u32> = vec![0; m];
    {
        let mut cursors = offsets[..h].to_vec();
        for &p in positions {
            let c = (p as usize) >> shift;
            clustered[cursors[c] as usize] = p;
            cursors[c] += 1;
        }
    }

    // phase 2: gather values per cluster — each cluster's positions fall in
    // one n/2^bits slice of `column`, which is cache resident
    let mut vals: Vec<T> = Vec::with_capacity(m);
    // SAFETY-free version: plain iteration (LLVM elides the bounds checks
    // because `clustered` holds values we just wrote from `positions`)
    for &p in &clustered {
        vals.push(column[p as usize]);
    }

    // phase 3: merge back to output order (h bounded read cursors,
    // sequential write)
    let mut out: Vec<T> = Vec::with_capacity(m);
    let mut cursors = offsets[..h].to_vec();
    for &p in positions {
        let c = (p as usize) >> shift;
        out.push(vals[cursors[c] as usize]);
        cursors[c] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::fetch_join;
    use crate::join::hash_join;
    use proptest::prelude::*;

    /// The exact Figure 2 example: relation L, lower 3 bits, 2-pass (2+1).
    #[test]
    fn figure2_left_relation() {
        let l: Vec<u64> = vec![57, 17, 3, 47, 92, 81, 20, 6, 96, 37, 66, 75];
        let oids: Vec<Oid> = (0..l.len() as u64).collect();
        let cc = radix_cluster(&l, &oids, &[2, 1]);
        assert_eq!(cc.cluster_count(), 8);
        // every cluster holds values agreeing on the lower 3 bits,
        // clusters appear in increasing bit order
        for c in 0..8 {
            let (keys, _) = cc.cluster(c);
            for &k in keys {
                assert_eq!((k & 7) as usize, c, "value {k} in cluster {c}");
            }
        }
        // nothing lost
        let mut all = cc.keys.clone();
        all.sort_unstable();
        let mut orig = l.clone();
        orig.sort_unstable();
        assert_eq!(all, orig);
    }

    #[test]
    fn passes_are_stable() {
        let keys = vec![8u64, 0, 8, 0, 8];
        let oids: Vec<Oid> = (0..5).collect();
        let cc = radix_cluster(&keys, &oids, &[1, 1, 1, 1]);
        // cluster 0: the 0s in original order
        let (k0, o0) = cc.cluster(0);
        assert_eq!(k0, &[0, 0]);
        assert_eq!(o0, &[1, 3]);
        let (k8, o8) = cc.cluster(8);
        assert_eq!(k8, &[8, 8, 8]);
        assert_eq!(o8, &[0, 2, 4]);
    }

    #[test]
    fn single_and_multi_pass_agree() {
        let keys: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let oids: Vec<Oid> = (0..512).collect();
        let one = radix_cluster(&keys, &oids, &[6]);
        let two = radix_cluster(&keys, &oids, &[3, 3]);
        let three = radix_cluster(&keys, &oids, &[2, 2, 2]);
        assert_eq!(one.keys, two.keys);
        assert_eq!(one.oids, two.oids);
        assert_eq!(one.bounds, three.bounds);
        assert_eq!(two.oids, three.oids);
    }

    #[test]
    fn zero_bits_is_one_cluster() {
        let keys = vec![3u64, 1, 2];
        let oids = vec![0 as Oid, 1, 2];
        let cc = radix_cluster(&keys, &oids, &[]);
        assert_eq!(cc.cluster_count(), 1);
        assert_eq!(cc.keys, keys);
        assert_eq!(cc.oids, oids);
    }

    #[test]
    fn partitioned_join_matches_hash_join() {
        let l = Bat::from_vec(vec![5i64, 1, 9, 1, 7, 3, -4, 5]);
        let r = Bat::from_vec(vec![1i64, 3, 3, 9, 2, -4]);
        let expect = hash_join(&l, &r).unwrap().sorted();
        for passes in [&[][..], &[2], &[2, 2]] {
            let got = partitioned_hash_join(&l, &r, passes).unwrap().sorted();
            assert_eq!(got, expect, "passes={passes:?}");
        }
    }

    #[test]
    fn partitioned_join_strings() {
        let l = Bat::from_strings([Some("a"), Some("b"), None, Some("a")]);
        let r = Bat::from_strings([Some("b"), Some("a")]);
        let got = partitioned_hash_join(&l, &r, &[2]).unwrap().sorted();
        let expect = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(got, expect);
    }

    #[test]
    fn decluster_equals_fetch_join() {
        let column = Bat::from_vec((0..1000i64).map(|i| i * 3).collect::<Vec<_>>());
        let idx: Vec<Oid> = (0..500).map(|i| (i * 977) % 1000).collect();
        let index = Bat::from_vec(idx);
        for bits in [0u32, 2, 5] {
            let a = radix_decluster(&index, &column, bits).unwrap();
            let b = fetch_join(&index, &column).unwrap();
            assert_eq!(
                a.tail_slice::<i64>().unwrap(),
                b.tail_slice::<i64>().unwrap(),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn decluster_fixed_matches_naive() {
        let column: Vec<i64> = (0..257).map(|i| i * 7).collect();
        let positions: Vec<u32> = (0..100).map(|i| (i * 89) % 257).collect();
        let naive: Vec<i64> = positions.iter().map(|&p| column[p as usize]).collect();
        for bits in [0u32, 1, 3, 6] {
            assert_eq!(radix_decluster_fixed(&positions, &column, bits), naive);
        }
    }

    #[test]
    fn decluster_bounds_checked() {
        let column = Bat::from_vec(vec![1i32, 2]);
        let index = Bat::from_vec(vec![5u64 as Oid]);
        assert!(radix_decluster(&index, &column, 2).is_err());
    }

    #[test]
    fn mix_widens_integers() {
        let a = mix_key_bat(&Bat::from_vec(vec![-2i32])).unwrap();
        let b = mix_key_bat(&Bat::from_vec(vec![-2i64])).unwrap();
        assert_eq!(a.keys[0], b.keys[0]);
        assert!(a.exact && b.exact);
        let s = mix_key_bat(&Bat::from_strings([Some("x"), None])).unwrap();
        assert!(!s.exact);
        assert!(s.nils[1]);
    }

    proptest! {
        #[test]
        fn prop_cluster_is_partition(keys in proptest::collection::vec(0u64..1000, 0..200),
                                     passes in proptest::collection::vec(0u32..3, 0..3)) {
            let oids: Vec<Oid> = (0..keys.len() as u64).collect();
            let cc = radix_cluster(&keys, &oids, &passes);
            let bits: u32 = passes.iter().sum();
            // lengths preserved
            prop_assert_eq!(cc.keys.len(), keys.len());
            prop_assert_eq!(*cc.bounds.last().unwrap(), keys.len());
            // oids map back to their original keys
            for (k, o) in cc.keys.iter().zip(&cc.oids) {
                prop_assert_eq!(*k, keys[*o as usize]);
            }
            // cluster membership respects the radix
            let mask = (1u64 << bits) - 1;
            for c in 0..cc.cluster_count() {
                let (ks, _) = cc.cluster(c);
                for k in ks {
                    prop_assert_eq!(k & mask, c as u64);
                }
            }
        }

        #[test]
        fn prop_partitioned_equals_hash(
            lv in proptest::collection::vec(-30i64..30, 0..80),
            rv in proptest::collection::vec(-30i64..30, 0..80),
            passes in proptest::collection::vec(0u32..3, 0..3),
            lbase in 0u64..1000,
            rbase in 0u64..1000,
        ) {
            // the kernel maps its clusters' row numbers to oids
            let l = Bat::dense(lbase, TailHeap::I64(lv));
            let r = Bat::dense(rbase, TailHeap::I64(rv));
            let got = partitioned_hash_join(&l, &r, &passes).unwrap().sorted();
            let expect = hash_join(&l, &r).unwrap().sorted();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_decluster_equals_naive(
            n in 1usize..300,
            picks in proptest::collection::vec(0usize..300, 0..150),
            bits in 0u32..5,
        ) {
            let column = Bat::from_vec((0..n as i64).collect::<Vec<_>>());
            let idx: Vec<Oid> = picks.iter().map(|&p| (p % n) as Oid).collect();
            let index = Bat::from_vec(idx);
            let a = radix_decluster(&index, &column, bits).unwrap();
            let b = fetch_join(&index, &column).unwrap();
            prop_assert_eq!(a.tail_slice::<i64>().unwrap(), b.tail_slice::<i64>().unwrap());
        }
    }
}
