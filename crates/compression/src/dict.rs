//! Dictionary encoding with bit-packed codes.

use crate::bitpack;
use std::collections::HashMap;

/// A dictionary-encoded column: distinct values plus packed codes.
#[derive(Debug, Clone)]
pub struct DictEncoded {
    /// Distinct values in first-appearance order.
    pub dictionary: Vec<i64>,
    /// Packed `code_width`-bit codes, one per row.
    pub codes: Vec<u64>,
    pub(crate) code_width: u32,
    pub len: usize,
}

/// Encode; worthwhile when the number of distinct values is small.
pub fn encode(values: &[i64]) -> DictEncoded {
    let mut dict = Vec::new();
    let mut map: HashMap<i64, u64> = HashMap::new();
    let mut raw_codes = Vec::with_capacity(values.len());
    for &v in values {
        let next = dict.len() as u64;
        let code = *map.entry(v).or_insert_with(|| {
            dict.push(v);
            next
        });
        raw_codes.push(code);
    }
    let code_width = bitpack::bits_for(dict.len().saturating_sub(1) as u64).max(1);
    let codes = bitpack::pack(&raw_codes, code_width);
    DictEncoded {
        dictionary: dict,
        codes,
        code_width,
        len: values.len(),
    }
}

/// Decode all rows.
pub fn decode(e: &DictEncoded) -> Vec<i64> {
    let raw = bitpack::unpack(&e.codes, e.len, e.code_width);
    raw.iter().map(|&c| e.dictionary[c as usize]).collect()
}

/// Encoded size in bytes.
pub(crate) fn encoded_bytes(e: &DictEncoded) -> usize {
    e.dictionary.len() * 8 + e.codes.len() * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let v = vec![7i64, 7, -2, 7, 100, -2];
        let e = encode(&v);
        assert_eq!(e.dictionary, vec![7, -2, 100]);
        assert_eq!(e.code_width, 2);
        assert_eq!(decode(&e), v);
    }

    #[test]
    fn single_value_column() {
        let v = vec![42i64; 100];
        let e = encode(&v);
        assert_eq!(e.dictionary.len(), 1);
        assert_eq!(e.code_width, 1);
        assert!(encoded_bytes(&e) < 8 * 100 / 4);
        assert_eq!(decode(&e), v);
    }

    #[test]
    fn empty() {
        let e = encode(&[]);
        assert_eq!(decode(&e), Vec::<i64>::new());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in proptest::collection::vec(-8i64..8, 0..400)) {
            prop_assert_eq!(decode(&encode(&v)), v);
        }

    }
}
