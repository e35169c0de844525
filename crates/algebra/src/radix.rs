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

use crate::join::{JoinIndex, JoinKeys};
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
    /// Original oids, aligned with `keys`.
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

    // with zero passes there is a single cluster
    if bits_per_pass.is_empty() {
        return ClusteredColumn {
            keys: src_k,
            oids: src_o,
            bits: 0,
            bounds: vec![0, n],
        };
    }
    debug_assert_eq!(bounds.len(), h + 1);
    ClusteredColumn {
        keys: src_k,
        oids: src_o,
        bits: total_bits,
        bounds,
    }
}

/// Split `bits` into passes of at most `max_per_pass` bits each.
pub fn even_passes(bits: u32, max_per_pass: u32) -> Vec<u32> {
    if bits == 0 {
        return vec![];
    }
    let m = max_per_pass.max(1);
    let np = bits.div_ceil(m);
    let base = bits / np;
    let extra = bits % np;
    (0..np).map(|i| base + u32::from(i < extra)).collect()
}

/// Radix-clustered partitioned hash-join (§4.1–4.2, Figure 2).
///
/// Both relations are clustered on the same `bits` (in `P` passes of at
/// most `max_bits_per_pass`), then corresponding clusters are hash-joined.
pub fn partitioned_hash_join(
    l: &Bat,
    r: &Bat,
    bits: u32,
    max_bits_per_pass: u32,
) -> Result<JoinIndex> {
    let lk = mix_key_bat(l)?;
    let rk = mix_key_bat(r)?;
    let exact = lk.exact && rk.exact;
    let passes = even_passes(bits, max_bits_per_pass);

    let l_oids: Vec<Oid> = (0..l.len()).map(|i| l.oid_at(i)).collect();
    let r_oids: Vec<Oid> = (0..r.len()).map(|i| r.oid_at(i)).collect();
    // nil rows are excluded before clustering (they never match)
    let (lkeys, loids) = strip_nils(&lk, &l_oids);
    let (rkeys, roids) = strip_nils(&rk, &r_oids);

    let lc = radix_cluster(&lkeys, &loids, &passes);
    let rc = radix_cluster(&rkeys, &roids, &passes);

    let mut out = JoinIndex::default();
    out.left.reserve(lkeys.len().min(rkeys.len()));
    out.right.reserve(lkeys.len().min(rkeys.len()));

    // One scratch bucket-chained table shared by all clusters: buckets are
    // validated by an epoch stamp instead of being cleared, so per-cluster
    // setup is O(cluster), not O(buckets). This is the "CPU optimization"
    // half of §4.2 applied to our own inner loop.
    let max_cluster = (0..rc.cluster_count())
        .map(|c| rc.bounds[c + 1] - rc.bounds[c])
        .max()
        .unwrap_or(0);
    let nbuckets = max_cluster.next_power_of_two().max(4);
    let mask = (nbuckets - 1) as u64;
    let mut bucket_head = vec![0u32; nbuckets];
    let mut bucket_epoch = vec![0u32; nbuckets];
    let mut next = vec![0u32; max_cluster];
    let mut epoch = 0u32;

    #[inline(always)]
    fn bucket_of(key: u64, mask: u64) -> usize {
        ((key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) & mask) as usize
    }

    for c in 0..lc.cluster_count() {
        let (lks, los) = lc.cluster(c);
        let (rks, ros) = rc.cluster(c);
        if lks.is_empty() || rks.is_empty() {
            continue;
        }
        epoch = epoch.wrapping_add(1);
        if epoch == 0 {
            bucket_epoch.fill(0);
            epoch = 1;
        }
        // build on the right cluster
        for (j, &key) in rks.iter().enumerate() {
            let b = bucket_of(key, mask);
            next[j] = if bucket_epoch[b] == epoch {
                bucket_head[b]
            } else {
                0
            };
            bucket_head[b] = (j + 1) as u32;
            bucket_epoch[b] = epoch;
        }
        // probe with the left cluster
        for (i, &key) in lks.iter().enumerate() {
            let b = bucket_of(key, mask);
            if bucket_epoch[b] != epoch {
                continue;
            }
            let mut cur = bucket_head[b];
            while cur != 0 {
                let j = (cur - 1) as usize;
                if rks[j] == key && verify_pair(l, r, los[i], ros[j], exact) {
                    out.left.push(los[i]);
                    out.right.push(ros[j]);
                }
                cur = next[j];
            }
        }
    }
    Ok(out)
}

fn strip_nils(k: &JoinKeys, oids: &[Oid]) -> (Vec<u64>, Vec<Oid>) {
    let mut keys = Vec::with_capacity(k.keys.len());
    let mut os = Vec::with_capacity(oids.len());
    for ((&key, &nil), &oid) in k.keys.iter().zip(&k.nils).zip(oids) {
        if !nil {
            keys.push(key);
            os.push(oid);
        }
    }
    (keys, os)
}

fn verify_pair(l: &Bat, r: &Bat, lo: Oid, ro: Oid, exact: bool) -> bool {
    if exact {
        return true;
    }
    match (l.find_oid(lo), r.find_oid(ro)) {
        (Some(i), Some(j)) => match (l.tail().as_str_heap(), r.tail().as_str_heap()) {
            (Some(a), Some(b)) => a.get(i) == b.get(j),
            _ => true,
        },
        _ => false,
    }
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
    fn even_pass_split() {
        assert_eq!(even_passes(7, 3), vec![3, 2, 2]);
        assert_eq!(even_passes(6, 6), vec![6]);
        assert_eq!(even_passes(0, 4), Vec::<u32>::new());
    }

    #[test]
    fn partitioned_join_matches_hash_join() {
        let l = Bat::from_vec(vec![5i64, 1, 9, 1, 7, 3, -4, 5]);
        let r = Bat::from_vec(vec![1i64, 3, 3, 9, 2, -4]);
        let expect = hash_join(&l, &r).unwrap().sorted();
        for bits in [0u32, 2, 4] {
            let got = partitioned_hash_join(&l, &r, bits, 2).unwrap().sorted();
            assert_eq!(got, expect, "bits={bits}");
        }
    }

    #[test]
    fn partitioned_join_strings() {
        let l = Bat::from_strings([Some("a"), Some("b"), None, Some("a")]);
        let r = Bat::from_strings([Some("b"), Some("a")]);
        let got = partitioned_hash_join(&l, &r, 2, 2).unwrap().sorted();
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
                                     bits in 0u32..6) {
            let oids: Vec<Oid> = (0..keys.len() as u64).collect();
            let cc = radix_cluster(&keys, &oids, &even_passes(bits, 2));
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
            bits in 0u32..5,
        ) {
            let l = Bat::from_vec(lv);
            let r = Bat::from_vec(rv);
            let got = partitioned_hash_join(&l, &r, bits, 2).unwrap().sorted();
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
