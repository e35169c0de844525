//! Bucket-chained hash table.
//!
//! The layout follows MonetDB: two plain arrays, `buckets` (head of chain
//! per bucket) and `next` (chain link per tuple). No tuple data is copied —
//! the table stores *positions into the build column*, which the caller
//! dereferences. This keeps the structure compact and the build loop free
//! of allocation.
//!
//! Two hash strategies are provided to support the E04 CPU-cost ablation:
//! [`MaskHasher`] (multiplicative hash + power-of-two mask, division-free)
//! and [`ModuloHasher`] (hash modulo a prime bucket count — one integer
//! division per access, the classical textbook choice §4.2 warns about).

/// Sentinel for "no entry" in `buckets`/`next` (tuple positions are stored
/// +1 so 0 can mean empty).
const EMPTY: u32 = 0;

/// A strategy mapping a key's 64-bit mix to a bucket index.
pub trait KeyHasher: Clone {
    /// Number of buckets to allocate for `n` tuples.
    fn bucket_count(&self, n: usize) -> usize;
    /// Map `key` to a bucket in `[0, bucket_count)`.
    fn bucket(&self, key: u64, nbuckets: usize) -> usize;
}

/// Division-free: Fibonacci multiplicative mixing, power-of-two buckets.
#[derive(Debug, Clone, Default)]
pub struct MaskHasher;

impl KeyHasher for MaskHasher {
    fn bucket_count(&self, n: usize) -> usize {
        n.next_power_of_two().max(4)
    }

    #[inline(always)]
    fn bucket(&self, key: u64, nbuckets: usize) -> usize {
        let mix = key.wrapping_mul(0x9E3779B97F4A7C15);
        // take the top bits: the multiplier pushes entropy upward
        (mix >> (64 - nbuckets.trailing_zeros() as u64)) as usize
    }
}

/// Division-based: bucket = key mod prime. One idiv in every inner loop
/// iteration — the CPU cost §4.2/\[25\] measured and removed.
#[derive(Debug, Clone, Default)]
pub struct ModuloHasher;

fn prime_at_least(n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 4 {
            return x >= 2;
        }
        if x.is_multiple_of(2) {
            return false;
        }
        let mut d = 3;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 2;
        }
        true
    }
    let mut x = n.max(5) | 1;
    while !is_prime(x) {
        x += 2;
    }
    x
}

impl KeyHasher for ModuloHasher {
    fn bucket_count(&self, n: usize) -> usize {
        prime_at_least(n)
    }

    #[inline(always)]
    fn bucket(&self, key: u64, nbuckets: usize) -> usize {
        (key % nbuckets as u64) as usize
    }
}

/// A bucket-chained hash table over positions `0..n` of a build column.
#[derive(Debug, Clone)]
pub struct HashTable<H: KeyHasher = MaskHasher> {
    hasher: H,
    nbuckets: usize,
    buckets: Vec<u32>,
    next: Vec<u32>,
}

impl<H: KeyHasher> HashTable<H> {
    /// Build a table over `keys[i]` (already mixed to u64 by the caller,
    /// e.g. by sign-flipping an i64 or transmuting an f64).
    pub fn build_with(hasher: H, keys: &[u64]) -> HashTable<H> {
        let nbuckets = hasher.bucket_count(keys.len());
        let mut buckets = vec![EMPTY; nbuckets];
        let mut next = vec![EMPTY; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            let b = hasher.bucket(k, nbuckets);
            next[i] = buckets[b];
            buckets[b] = (i + 1) as u32;
        }
        HashTable {
            hasher,
            nbuckets,
            buckets,
            next,
        }
    }

    /// Number of buckets allocated.
    pub fn bucket_count(&self) -> usize {
        self.nbuckets
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// Iterate the chain of positions whose key hashes like `key`
    /// (candidates — the caller must re-check equality on the build column).
    #[inline]
    pub fn candidates(&self, key: u64) -> Chain<'_> {
        let b = self.hasher.bucket(key, self.nbuckets);
        Chain {
            next: &self.next,
            cur: self.buckets[b],
        }
    }

    /// Convenience: positions where `keys[pos] == key` exactly, for u64 key
    /// columns.
    pub fn lookup<'a>(&'a self, keys: &'a [u64], key: u64) -> impl Iterator<Item = usize> + 'a {
        self.candidates(key).filter(move |&p| keys[p] == key)
    }

    /// Average chain length over non-empty buckets (diagnostics).
    pub fn avg_chain_len(&self) -> f64 {
        let used = self.buckets.iter().filter(|&&b| b != EMPTY).count();
        if used == 0 {
            0.0
        } else {
            self.len() as f64 / used as f64
        }
    }
}

impl HashTable<MaskHasher> {
    /// Build with the default division-free hasher.
    pub fn build(keys: &[u64]) -> HashTable<MaskHasher> {
        HashTable::build_with(MaskHasher, keys)
    }
}

/// Iterator over one bucket chain.
pub struct Chain<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cur == EMPTY {
            return None;
        }
        let pos = (self.cur - 1) as usize;
        self.cur = self.next[pos];
        Some(pos)
    }
}

/// Mix an i64 key into the u64 space the table expects.
#[inline(always)]
pub fn mix_i64(x: i64) -> u64 {
    x as u64
}

/// Mix an i32 key.
#[inline(always)]
pub fn mix_i32(x: i32) -> u64 {
    x as u32 as u64
}

/// Mix an f64 key by bit pattern (canonicalizing -0.0 to 0.0).
#[inline(always)]
pub fn mix_f64(x: f64) -> u64 {
    let x = if x == 0.0 { 0.0 } else { x };
    x.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lookup_finds_all_duplicates() {
        let keys = vec![5u64, 7, 5, 9, 5];
        let t = HashTable::build(&keys);
        let mut hits: Vec<usize> = t.lookup(&keys, 5).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2, 4]);
        assert_eq!(t.lookup(&keys, 8).count(), 0);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn empty_table() {
        let t = HashTable::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.candidates(42).count(), 0);
    }

    #[test]
    fn modulo_hasher_uses_prime_buckets() {
        let t = HashTable::build_with(ModuloHasher, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(t.bucket_count(), 11);
        let keys = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.lookup(&keys, k).collect::<Vec<_>>(), vec![i]);
        }
    }

    #[test]
    fn mask_hasher_power_of_two() {
        assert_eq!(MaskHasher.bucket_count(1000), 1024);
        assert_eq!(MaskHasher.bucket_count(0), 4);
        // all buckets must be in range
        for k in 0..10_000u64 {
            assert!(MaskHasher.bucket(k, 1024) < 1024);
        }
    }

    #[test]
    fn prime_helper() {
        assert_eq!(prime_at_least(2), 5); // floor of 5 keeps tables non-degenerate
        assert_eq!(prime_at_least(10), 11);
        assert_eq!(prime_at_least(11), 11);
        assert_eq!(prime_at_least(12), 13);
    }

    #[test]
    fn chain_len_diagnostic() {
        let keys: Vec<u64> = (0..64).map(|_| 1).collect();
        let t = HashTable::build(&keys);
        assert_eq!(t.avg_chain_len(), 64.0); // all collide on purpose
    }

    #[test]
    fn mixers() {
        assert_eq!(mix_i32(-1), 0xFFFF_FFFF);
        assert_eq!(mix_i64(-1), u64::MAX);
        assert_eq!(mix_f64(0.0), mix_f64(-0.0));
        assert_ne!(mix_f64(1.0), mix_f64(2.0));
    }

    proptest! {
        #[test]
        fn prop_agrees_with_std_hashmap(keys in proptest::collection::vec(0u64..64, 0..200)) {
            use std::collections::HashMap;
            let mut expect: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                expect.entry(k).or_default().push(i);
            }
            for hasher_mask in [true, false] {
                let check = |probe: u64, got: &mut Vec<usize>| {
                    got.sort_unstable();
                    let want = expect.get(&probe).cloned().unwrap_or_default();
                    assert_eq!(*got, want);
                };
                if hasher_mask {
                    let t = HashTable::build(&keys);
                    for probe in 0..64u64 {
                        check(probe, &mut t.lookup(&keys, probe).collect());
                    }
                } else {
                    let t = HashTable::build_with(ModuloHasher, &keys);
                    for probe in 0..64u64 {
                        check(probe, &mut t.lookup(&keys, probe).collect());
                    }
                }
            }
        }
    }
}
