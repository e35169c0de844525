//! PFOR: Patched Frame-of-Reference.
//!
//! Per block of 1024 values, choose a frame base (the block minimum) and a
//! bit width that covers most values; outliers become *exceptions*, stored
//! out-of-band and patched back after the branch-free bulk unpack. This is
//! the decomposition that makes the decode loop super-scalar: the common
//! path has no branches, and the (rare) patch loop runs afterwards.

use crate::bitpack;

pub const BLOCK: usize = 1024;

/// One encoded block.
#[derive(Debug, Clone)]
pub struct PforBlock {
    pub base: i64,
    pub width: u32,
    pub n: usize,
    /// Packed `width`-bit offsets from `base` (exceptions hold 0).
    pub packed: Vec<u64>,
    /// Positions of exceptions within the block.
    pub(crate) exc_pos: Vec<u32>,
    /// Exception values (verbatim).
    pub(crate) exc_val: Vec<i64>,
}

/// A PFOR-encoded column.
#[derive(Debug, Clone)]
pub struct PforEncoded {
    pub blocks: Vec<PforBlock>,
    pub len: usize,
}

/// Choose the width that minimizes packed-bits + exception cost.
fn choose_width(offsets: &[u64]) -> u32 {
    let mut widths: Vec<u32> = offsets.iter().map(|&o| bitpack::bits_for(o)).collect();
    widths.sort_unstable();
    let n = widths.len();
    let mut best = (u64::MAX, 64u32);
    // candidate widths: cover the p-th largest value for a few percentiles
    for &w in &[
        widths[n - 1],        // no exceptions
        widths[n * 99 / 100], // ~1% exceptions
        widths[n * 95 / 100], // ~5% exceptions
        widths[n / 2],        // half exceptions (pathological guard)
    ] {
        let w = w.max(1);
        let exceptions = widths.iter().filter(|&&x| x > w).count() as u64;
        let cost = (n as u64) * w as u64 + exceptions * (64 + 32);
        if cost < best.0 {
            best = (cost, w);
        }
    }
    best.1
}

fn encode_block(values: &[i64]) -> PforBlock {
    let base = *values.iter().min().unwrap();
    let offsets: Vec<u64> = values
        .iter()
        .map(|&v| (v as i128 - base as i128) as u64)
        .collect();
    let width = choose_width(&offsets);
    let limit = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut exc_pos = Vec::new();
    let mut exc_val = Vec::new();
    let mut small = Vec::with_capacity(values.len());
    for (i, &off) in offsets.iter().enumerate() {
        if off > limit {
            exc_pos.push(i as u32);
            exc_val.push(values[i]);
            small.push(0);
        } else {
            small.push(off);
        }
    }
    PforBlock {
        base,
        width,
        n: values.len(),
        packed: bitpack::pack(&small, width),
        exc_pos,
        exc_val,
    }
}

/// Encode a column into PFOR blocks.
pub fn encode(values: &[i64]) -> PforEncoded {
    let blocks = values.chunks(BLOCK).map(encode_block).collect();
    PforEncoded {
        blocks,
        len: values.len(),
    }
}

/// Decode one block into `out` (appends `n` values).
pub(crate) fn decode_block(b: &PforBlock, out: &mut Vec<i64>) {
    let start = out.len();
    // bulk: branch-free unpack + base add
    let raw = bitpack::unpack(&b.packed, b.n, b.width);
    out.extend(raw.iter().map(|&o| b.base.wrapping_add(o as i64)));
    // patch: exceptions overwrite after the fact
    for (&p, &v) in b.exc_pos.iter().zip(&b.exc_val) {
        out[start + p as usize] = v;
    }
}

/// Decode the whole column.
pub fn decode(e: &PforEncoded) -> Vec<i64> {
    let mut out = Vec::with_capacity(e.len);
    for b in &e.blocks {
        decode_block(b, &mut out);
    }
    out
}

/// Encoded size in bytes.
pub(crate) fn encoded_bytes(e: &PforEncoded) -> usize {
    e.blocks
        .iter()
        .map(|b| 8 + 4 + 8 + b.packed.len() * 8 + b.exc_pos.len() * 4 + b.exc_val.len() * 8)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_smooth_data() {
        let v: Vec<i64> = (0..5000).map(|i| 1000 + (i % 50)).collect();
        let e = encode(&v);
        assert_eq!(decode(&e), v);
        assert!(e.blocks.iter().all(|b| b.exc_val.is_empty()));
        // 50 distinct offsets fit in 6 bits: big ratio
        assert!(encoded_bytes(&e) * 8 < v.len() * 8 * 2);
    }

    #[test]
    fn outliers_become_exceptions() {
        // high outliers are patched; a low outlier becomes the frame base
        let mut v: Vec<i64> = (0..1024).map(|i| 10 + (i % 4)).collect();
        v[100] = 1_000_000_000;
        v[700] = 2_000_000_000;
        let e = encode(&v);
        assert_eq!(decode(&e), v);
        let exc: usize = e.blocks.iter().map(|b| b.exc_val.len()).sum();
        assert_eq!(exc, 2, "exactly the two outliers are exceptions");
        // width stays tiny despite the outliers
        assert!(e.blocks[0].width <= 2, "width {}", e.blocks[0].width);
    }

    #[test]
    fn low_outlier_becomes_frame_base() {
        let mut v: Vec<i64> = vec![10; 1024];
        v[999] = -5_000_000;
        let e = encode(&v);
        assert_eq!(decode(&e), v);
        assert_eq!(e.blocks[0].base, -5_000_000);
    }

    #[test]
    fn negative_and_extreme_values() {
        let v = vec![i64::MIN, i64::MAX, 0, -1, 1];
        let e = encode(&v);
        assert_eq!(decode(&e), v);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(decode(&encode(&[])), Vec::<i64>::new());
        assert_eq!(decode(&encode(&[7])), vec![7]);
    }

    #[test]
    fn multi_block() {
        let v: Vec<i64> = (0..3000).map(|i| i * 17 % 997).collect();
        let e = encode(&v);
        assert_eq!(e.blocks.len(), 3);
        assert_eq!(decode(&e), v);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in proptest::collection::vec(proptest::num::i64::ANY, 0..2500)) {
            prop_assert_eq!(decode(&encode(&v)), v);
        }

        #[test]
        fn prop_skewed_roundtrip(
            mut v in proptest::collection::vec(0i64..100, 100..1500),
            outliers in proptest::collection::vec((0usize..100, proptest::num::i64::ANY), 0..20),
        ) {
            for (i, val) in outliers {
                let n = v.len();
                v[i % n] = val;
            }
            prop_assert_eq!(decode(&encode(&v)), v);
        }
    }
}
