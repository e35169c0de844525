//! Fixed-width bit packing.
//!
//! Values are stored as `width`-bit unsigned offsets from a frame base
//! (frame-of-reference). The unpack loop reads whole `u64` words and shifts
//! — no branches, no data dependences between iterations.

/// Bits needed to represent `v`.
#[inline]
pub(crate) fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Pack each `values[i]` (must fit in `width` bits) into a dense bit stream.
pub fn pack(values: &[u64], width: u32) -> Vec<u64> {
    assert!(width <= 64);
    if width == 0 {
        return Vec::new();
    }
    let total_bits = values.len() * width as usize;
    let mut out = vec![0u64; total_bits.div_ceil(64)];
    let mut bitpos = 0usize;
    for &v in values {
        debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
        let word = bitpos / 64;
        let off = (bitpos % 64) as u32;
        out[word] |= v << off;
        if off + width > 64 {
            out[word + 1] |= v >> (64 - off);
        }
        bitpos += width as usize;
    }
    out
}

/// Unpack `n` `width`-bit values from `packed`.
pub(crate) fn unpack(packed: &[u64], n: usize, width: u32) -> Vec<u64> {
    assert!(width <= 64);
    let mut out = Vec::with_capacity(n);
    if width == 0 {
        out.resize(n, 0);
        return out;
    }
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut bitpos = 0usize;
    for _ in 0..n {
        let word = bitpos / 64;
        let off = (bitpos % 64) as u32;
        let mut v = packed[word] >> off;
        if off + width > 64 {
            v |= packed[word + 1] << (64 - off);
        }
        out.push(v & mask);
        bitpos += width as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_widths() {
        for width in [1u32, 3, 7, 8, 13, 31, 32, 33, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..100u64).map(|i| (i * 0x9E3779B9) & mask).collect();
            let packed = pack(&values, width);
            assert_eq!(unpack(&packed, values.len(), width), values, "w={width}");
        }
    }

    #[test]
    fn zero_width_is_all_zeros() {
        let packed = pack(&[0, 0, 0], 0);
        assert!(packed.is_empty());
        assert_eq!(unpack(&packed, 3, 0), vec![0, 0, 0]);
    }

    #[test]
    fn packing_is_dense() {
        let values = vec![1u64; 64];
        assert_eq!(pack(&values, 1).len(), 1); // 64 bits in one word
        assert_eq!(pack(&values, 3).len(), 3); // 192 bits in three words
    }

    proptest! {
        #[test]
        fn prop_roundtrip(values in proptest::collection::vec(0u64..(1 << 17), 0..200)) {
            let width = 17;
            let packed = pack(&values, width);
            prop_assert_eq!(unpack(&packed, values.len(), width), values);
        }
    }
}
