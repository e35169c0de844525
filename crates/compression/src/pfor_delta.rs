//! PFOR-DELTA: PFOR over consecutive differences.
//!
//! Quasi-sorted columns (timestamps, dense keys) have tiny deltas with the
//! occasional jump — exactly the "small common case + rare exception" shape
//! PFOR's patching handles well.

use crate::pfor::{self, PforEncoded};

/// A PFOR-DELTA encoded column: first value verbatim, deltas PFOR-packed.
#[derive(Debug, Clone)]
pub struct PforDeltaEncoded {
    pub first: i64,
    pub deltas: PforEncoded,
    pub len: usize,
}

/// Encode.
pub fn encode(values: &[i64]) -> PforDeltaEncoded {
    if values.is_empty() {
        return PforDeltaEncoded {
            first: 0,
            deltas: pfor::encode(&[]),
            len: 0,
        };
    }
    let deltas: Vec<i64> = values.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
    PforDeltaEncoded {
        first: values[0],
        deltas: pfor::encode(&deltas),
        len: values.len(),
    }
}

/// Decode: bulk-unpack the deltas, then one prefix-sum pass.
pub fn decode(e: &PforDeltaEncoded) -> Vec<i64> {
    if e.len == 0 {
        return Vec::new();
    }
    let deltas = pfor::decode(&e.deltas);
    let mut out = Vec::with_capacity(e.len);
    let mut cur = e.first;
    out.push(cur);
    for &d in &deltas {
        cur = cur.wrapping_add(d);
        out.push(cur);
    }
    out
}

/// Encoded size in bytes.
pub(crate) fn encoded_bytes(e: &PforDeltaEncoded) -> usize {
    8 + pfor::encoded_bytes(&e.deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorted_data_compresses_hard() {
        let v: Vec<i64> = (0..10_000).map(|i| 1_000_000 + i * 3).collect();
        let e = encode(&v);
        assert_eq!(decode(&e), v);
        // constant deltas of 3: ~2 bits per value
        assert!(
            encoded_bytes(&e) < v.len(),
            "got {} bytes for {} values",
            encoded_bytes(&e),
            v.len()
        );
    }

    #[test]
    fn quasi_sorted_with_jumps() {
        let mut v: Vec<i64> = (0..2048).collect();
        v[512] = 1_000_000;
        v[513] = 513; // resume the sequence
        let e = encode(&v);
        assert_eq!(decode(&e), v);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(decode(&encode(&[])), Vec::<i64>::new());
        assert_eq!(decode(&encode(&[-9])), vec![-9]);
    }

    #[test]
    fn wrapping_deltas() {
        let v = vec![i64::MAX, i64::MIN, 0];
        let e = encode(&v);
        assert_eq!(decode(&e), v);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in proptest::collection::vec(proptest::num::i64::ANY, 0..1500)) {
            prop_assert_eq!(decode(&encode(&v)), v);
        }
    }
}
