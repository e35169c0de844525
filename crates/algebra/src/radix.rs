//! Radix-Cluster, Partitioned Hash-Join and Radix-Decluster (§4).
//!
//! * [`radix_cluster`] divides a column into `H = 2^B` clusters on the lower
//!   `B` bits of its key image using `P` passes, "starting with the leftmost
//!   bits" (§4.2, Figure 2). Keeping the per-pass cluster count below the
//!   number of cache lines and TLB entries avoids thrashing while still
//!   reaching a high overall `H`.
//! * [`partitioned_hash_join`] clusters both sides, then hash-joins the
//!   matching cluster pairs — each pair's working set fits the cache.
//! * [`radix_decluster_fixed`] performs cache-friendly positional projection
//!   through an arbitrarily-ordered join index (\[28\], §4.3): cluster the
//!   index by fetch-position region, gather per region, then merge back to
//!   output order in one sequential pass with `H` bounded cursors.
//!
//! Each kernel reports its memory traffic to the [`Mem`] observer it is
//! handed: serving code passes `&mut ()`, and the cache simulator replays
//! what its recorder saw, so the kernel is its own trace.

use crate::flat::JoinTable;
use crate::join::{verify_eq, JoinIndex, JoinKeys};
use mammoth_storage::Bat;
use mammoth_types::AccessKind::{Random, Sequential};
use mammoth_types::{Buf, Mem, NativeType, Oid, Result};
use std::mem::size_of;

/// Bytes of a key image, an oid and a cluster bound.
const W: usize = size_of::<u64>();

/// Build the nil-aware u64 key image of a tail column: the images the
/// flat hash tables hash in place, copied out for the clustering passes.
///
/// Integer types are sign-extended through i64 so that, e.g., an `i32`
/// column joins correctly against an `i64` column. The image is injective
/// ("exact") for all fixed-width types; strings use a content hash and must
/// be re-verified on match.
pub(crate) fn mix_key_bat(b: &Bat) -> Result<JoinKeys> {
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
    /// The names of `keys`, `oids` and `bounds` to the observer that saw
    /// them written.
    bufs: [Buf; 3],
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
/// order: per cluster, one read of its keys counts the sub-clusters into a
/// cursor array, a prefix sum turns the counts into cursors, and a second
/// read scatters keys and oids to their cursors in the other of two
/// buffers. The input vectors are the first pass's source; with no pass
/// they come back as the one cluster.
pub fn radix_cluster(
    keys: Vec<u64>,
    oids: Vec<Oid>,
    bits_per_pass: &[u32],
    mem: &mut impl Mem,
) -> ClusteredColumn {
    assert_eq!(keys.len(), oids.len());
    let total_bits: u32 = bits_per_pass.iter().sum();
    assert!(total_bits <= 32, "more than 2^32 clusters is unreasonable");
    let n = keys.len();

    let mut src = (keys, oids, [mem.buffer(), mem.buffer()]);
    let mut bounds = vec![0, n];
    let mut bounds_buf = mem.buffer();
    if let Some(&widest) = bits_per_pass.iter().max() {
        let mut dst = (vec![0; n], vec![0; n], [mem.buffer(), mem.buffer()]);
        // one cursor per sub-cluster, reused by every cluster of every pass
        let mut cursors = vec![0usize; 1 << widest];
        let cursors_buf = mem.buffer();
        let mut shift_high = total_bits;
        for &b in bits_per_pass {
            let shift = shift_high - b;
            let digit = |k: u64| ((k >> shift) & ((1 << b) - 1)) as usize;
            let cursors = &mut cursors[..1 << b];
            let (keys, oids, [kbuf, obuf]) = &src;
            let (dst_k, dst_o, [dst_kbuf, dst_obuf]) = &mut dst;
            let mut new_bounds = Vec::with_capacity(((bounds.len() - 1) << b) + 1);
            let new_bounds_buf = mem.buffer();
            mem.write(new_bounds_buf, 0, W, Sequential);
            new_bounds.push(0);
            // each existing cluster is sub-divided independently: the later
            // passes operate on (cache-sized) fragments, which is the whole
            // point of multi-pass clustering
            for (c, w) in bounds.windows(2).enumerate() {
                mem.read(bounds_buf, c + 1, W, Sequential);
                let (s, e) = (w[0], w[1]);
                for (d, count) in cursors.iter_mut().enumerate() {
                    mem.write(cursors_buf, d, W, Sequential);
                    *count = 0;
                }
                for (i, &k) in (s..).zip(&keys[s..e]) {
                    mem.read(*kbuf, i, W, Sequential);
                    mem.write(cursors_buf, digit(k), W, Random);
                    cursors[digit(k)] += 1;
                }
                let mut at = s;
                for (d, cursor) in cursors.iter_mut().enumerate() {
                    mem.write(cursors_buf, d, W, Sequential);
                    (*cursor, at) = (at, at + *cursor);
                    mem.write(new_bounds_buf, new_bounds.len(), W, Sequential);
                    new_bounds.push(at);
                }
                for i in s..e {
                    mem.read(*kbuf, i, W, Sequential);
                    mem.read(*obuf, i, W, Sequential);
                    let d = digit(keys[i]);
                    mem.write(cursors_buf, d, W, Random);
                    let to = cursors[d];
                    mem.write(*dst_kbuf, to, W, Sequential);
                    mem.write(*dst_obuf, to, W, Sequential);
                    dst_k[to] = keys[i];
                    dst_o[to] = oids[i];
                    cursors[d] += 1;
                }
            }
            std::mem::swap(&mut src, &mut dst);
            (bounds, bounds_buf) = (new_bounds, new_bounds_buf);
            shift_high = shift;
        }
    }

    debug_assert_eq!(bounds.len(), (1usize << total_bits) + 1);
    let (keys, oids, [kbuf, obuf]) = src;
    ClusteredColumn {
        keys,
        oids,
        bits: total_bits,
        bounds,
        bufs: [kbuf, obuf, bounds_buf],
    }
}

/// Radix-clustered partitioned hash-join (§4.1–4.2, Figure 2).
///
/// Both relations are clustered on the same `B = Σ bits_per_pass` bits by
/// [`radix_cluster`], each cluster carrying the row numbers of its keys;
/// then one hash table is rebuilt in place over each right cluster and
/// probed with the matching left cluster, so every build works on one
/// cache-sized table at the same addresses. The observer sees the
/// clustering and the join, from the non-nil key images on; the images
/// themselves are extracted unobserved.
pub fn partitioned_hash_join(
    l: &Bat,
    r: &Bat,
    bits_per_pass: &[u32],
    mem: &mut impl Mem,
) -> Result<JoinIndex> {
    let lk = mix_key_bat(l)?;
    let rk = mix_key_bat(r)?;
    let exact = lk.exact && rk.exact;
    // nil rows are excluded before clustering (they never match)
    let (lkeys, lrows) = strip_nils(&lk);
    let (rkeys, rrows) = strip_nils(&rk);
    let lc = radix_cluster(lkeys, lrows, bits_per_pass, mem);
    let rc = radix_cluster(rkeys, rrows, bits_per_pass, mem);
    let ([lkbuf, lobuf, lbbuf], [rkbuf, robuf, rbbuf]) = (lc.bufs, rc.bufs);

    let mut out = JoinIndex::default();
    out.left.reserve(lc.keys.len().min(rc.keys.len()));
    out.right.reserve(lc.keys.len().min(rc.keys.len()));
    let out_bufs = [mem.buffer(), mem.buffer()];
    let mut table = JoinTable::build(std::iter::empty(), (rkbuf, 0), mem);
    for c in 0..lc.cluster_count() {
        mem.read(lbbuf, c + 1, W, Sequential);
        mem.read(rbbuf, c + 1, W, Sequential);
        let (lks, lrs) = lc.cluster(c);
        let (rks, rrs) = rc.cluster(c);
        if lks.is_empty() || rks.is_empty() {
            continue;
        }
        let (ls, rs) = (lc.bounds[c], rc.bounds[c]);
        table.rebuild(rks.iter().map(|&key| (key, false)), (rkbuf, rs), mem);
        for (at, (&key, &i)) in (ls..).zip(lks.iter().zip(lrs)) {
            mem.read(lkbuf, at, W, Sequential);
            mem.read(lobuf, at, W, Sequential);
            table.each_match(key, mem, |j, mem| {
                mem.read(robuf, rs + j, W, Random);
                let (i, j) = (i as usize, rrs[j] as usize);
                if verify_eq(l, r, i, j, exact) {
                    mem.write(out_bufs[0], out.left.len(), W, Sequential);
                    mem.write(out_bufs[1], out.right.len(), W, Sequential);
                    out.left.push(l.oid_at(i));
                    out.right.push(r.oid_at(j));
                }
            });
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

/// Naive positional fetch, `column[p]` for every position in order: the
/// random-access post-projection [`radix_decluster_fixed`] bounds. A
/// position at or past `column.len()` panics.
pub fn fetch_fixed<T: Copy>(positions: &[u32], column: &[T], mem: &mut impl Mem) -> Vec<T> {
    let bufs = [mem.buffer(), mem.buffer(), mem.buffer()];
    gather(positions, column, bufs, mem)
}

/// [`fetch_fixed`] over named buffers: `positions` is `pos`, `column` is
/// `col`, and the result is written as `out`.
fn gather<T: Copy>(
    positions: &[u32],
    column: &[T],
    [pos, col, out]: [Buf; 3],
    mem: &mut impl Mem,
) -> Vec<T> {
    let mut vals = Vec::with_capacity(positions.len());
    for (i, &p) in positions.iter().enumerate() {
        mem.read(pos, i, size_of::<u32>(), Sequential);
        mem.read(col, p as usize, size_of::<T>(), Random);
        mem.write(out, i, size_of::<T>(), Sequential);
        vals.push(column[p as usize]);
    }
    vals
}

/// Cache-conscious positional projection of a fixed-width column through
/// an arbitrary join index: `column[p]` for every `p` of `positions`, in
/// order, as [`fetch_fixed`] computes it. A naive fetch reads `column` at
/// random; radix-decluster bounds every random access:
///
/// 1. **cluster** the positions into `2^bits` regions of `column` (one
///    histogram read and one scatter, `2^bits` cursors);
/// 2. **fetch** per region — each region's positions fall in one
///    `len/2^bits` slice of `column`, which fits the cache;
/// 3. **merge** back to output order in one sequential pass that replays the
///    cluster function (again `2^bits` cursors, no random access).
///
/// Unlike radix-cluster this is single-pass, hence the scalability limit
/// §4.3 notes: `2^bits` must stay below the cache-line budget. The
/// clusters are flat counting-sort buffers, with no per-cluster
/// allocation. A position at or past `column.len()` panics.
pub fn radix_decluster_fixed<T: NativeType + mammoth_storage::FixedTail>(
    positions: &[u32],
    column: &[T],
    bits: u32,
    mem: &mut impl Mem,
) -> Vec<T> {
    const P: usize = size_of::<u32>();
    let n = column.len();
    let need_bits = usize::BITS - n.max(1).leading_zeros();
    let shift = need_bits.saturating_sub(bits);
    let h = 1usize << bits;
    let m = positions.len();
    let cluster = |p: u32| (p as usize) >> shift;
    let [pos_buf, col_buf] = [mem.buffer(), mem.buffer()];

    // histogram + prefix sums: one flat cluster-major buffer
    let mut offsets = vec![0u32; h + 1];
    let offsets_buf = mem.buffer();
    for (i, &p) in positions.iter().enumerate() {
        mem.read(pos_buf, i, P, Sequential);
        mem.write(offsets_buf, cluster(p) + 1, P, Random);
        offsets[cluster(p) + 1] += 1;
    }
    for c in 0..h {
        mem.write(offsets_buf, c + 1, P, Sequential);
        offsets[c + 1] += offsets[c];
    }

    // phase 1: scatter positions into cluster order (h bounded cursors,
    // a copy of the offsets phase 3 reads again)
    let mut cursors = offsets[..h].to_vec();
    let cursors_buf = mem.buffer();
    for c in 0..h {
        mem.read(offsets_buf, c, P, Sequential);
        mem.write(cursors_buf, c, P, Sequential);
    }
    let mut clustered: Vec<u32> = vec![0; m];
    let clustered_buf = mem.buffer();
    for (i, &p) in positions.iter().enumerate() {
        mem.read(pos_buf, i, P, Sequential);
        let c = cluster(p);
        mem.write(cursors_buf, c, P, Random);
        mem.write(clustered_buf, cursors[c] as usize, P, Sequential);
        clustered[cursors[c] as usize] = p;
        cursors[c] += 1;
    }

    // phase 2: gather values per cluster — each cluster's positions fall in
    // one n/2^bits slice of `column`, which is cache resident
    let vals_buf = mem.buffer();
    let vals = gather(&clustered, column, [clustered_buf, col_buf, vals_buf], mem);

    // phase 3: merge back to output order (h bounded read cursors, the
    // offsets themselves; sequential write)
    let mut out: Vec<T> = Vec::with_capacity(m);
    let out_buf = mem.buffer();
    for (i, &p) in positions.iter().enumerate() {
        mem.read(pos_buf, i, P, Sequential);
        let c = cluster(p);
        mem.write(offsets_buf, c, P, Random);
        mem.read(vals_buf, offsets[c] as usize, size_of::<T>(), Sequential);
        mem.write(out_buf, i, size_of::<T>(), Sequential);
        out.push(vals[offsets[c] as usize]);
        offsets[c] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::fetch_join;
    use crate::join::hash_join;
    use mammoth_storage::TailHeap;
    use proptest::prelude::*;

    fn cluster(keys: &[u64], oids: &[Oid], passes: &[u32]) -> ClusteredColumn {
        radix_cluster(keys.to_vec(), oids.to_vec(), passes, &mut ())
    }

    /// [`radix_decluster_fixed`] through a join index BAT, as `fetch_join`
    /// takes it.
    fn decluster(index: &Bat, column: &Bat, bits: u32) -> Vec<i64> {
        let positions: Vec<u32> = index
            .tail_slice::<Oid>()
            .unwrap()
            .iter()
            .map(|&o| o as u32)
            .collect();
        radix_decluster_fixed(
            &positions,
            column.tail_slice::<i64>().unwrap(),
            bits,
            &mut (),
        )
    }

    /// The exact Figure 2 example: relation L, lower 3 bits, 2-pass (2+1).
    #[test]
    fn figure2_left_relation() {
        let l: Vec<u64> = vec![57, 17, 3, 47, 92, 81, 20, 6, 96, 37, 66, 75];
        let oids: Vec<Oid> = (0..l.len() as u64).collect();
        let cc = cluster(&l, &oids, &[2, 1]);
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
        let cc = cluster(&keys, &oids, &[1, 1, 1, 1]);
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
        let one = cluster(&keys, &oids, &[6]);
        let two = cluster(&keys, &oids, &[3, 3]);
        let three = cluster(&keys, &oids, &[2, 2, 2]);
        assert_eq!(one.keys, two.keys);
        assert_eq!(one.oids, two.oids);
        assert_eq!(one.bounds, three.bounds);
        assert_eq!(two.oids, three.oids);
    }

    #[test]
    fn zero_bits_is_one_cluster() {
        let keys = vec![3u64, 1, 2];
        let oids = vec![0 as Oid, 1, 2];
        let cc = cluster(&keys, &oids, &[]);
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
            let got = partitioned_hash_join(&l, &r, passes, &mut ())
                .unwrap()
                .sorted();
            assert_eq!(got, expect, "passes={passes:?}");
        }
    }

    #[test]
    fn partitioned_join_strings() {
        let l = Bat::from_strings([Some("a"), Some("b"), None, Some("a")]);
        let r = Bat::from_strings([Some("b"), Some("a")]);
        let got = partitioned_hash_join(&l, &r, &[2], &mut ())
            .unwrap()
            .sorted();
        let expect = hash_join(&l, &r).unwrap().sorted();
        assert_eq!(got, expect);
    }

    #[test]
    fn decluster_equals_fetch_join() {
        let column = Bat::from_vec((0..1000i64).map(|i| i * 3).collect::<Vec<_>>());
        let idx: Vec<Oid> = (0..500).map(|i| (i * 977) % 1000).collect();
        let index = Bat::from_vec(idx);
        for bits in [0u32, 2, 5] {
            let b = fetch_join(&index, &column).unwrap();
            assert_eq!(
                decluster(&index, &column, bits),
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
        assert_eq!(fetch_fixed(&positions, &column, &mut ()), naive);
        for bits in [0u32, 1, 3, 6] {
            assert_eq!(
                radix_decluster_fixed(&positions, &column, bits, &mut ()),
                naive
            );
        }
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
            let cc = cluster(&keys, &oids, &passes);
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
            let got = partitioned_hash_join(&l, &r, &passes, &mut ()).unwrap().sorted();
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
            let b = fetch_join(&index, &column).unwrap();
            prop_assert_eq!(decluster(&index, &column, bits), b.tail_slice::<i64>().unwrap());
        }
    }
}
