//! Tagged compressed columns and a heuristic scheme picker.

use crate::{bitpack, dict, pfor, pfor_delta, rle};

/// Available compression schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No compression (the fallback that is never worse than 1.0x + ε).
    Plain,
    Rle,
    Dict,
    Pfor,
    PforDelta,
}

impl Scheme {
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Plain => "plain",
            Scheme::Rle => "rle",
            Scheme::Dict => "dict",
            Scheme::Pfor => "pfor",
            Scheme::PforDelta => "pfor-delta",
        }
    }
}

/// A compressed column.
#[derive(Debug, Clone)]
pub enum Compressed {
    Plain(Vec<i64>),
    Rle(Vec<rle::Run>),
    Dict(dict::DictEncoded),
    Pfor(pfor::PforEncoded),
    PforDelta(pfor_delta::PforDeltaEncoded),
}

#[cfg(test)]
impl Compressed {
    fn scheme(&self) -> Scheme {
        match self {
            Compressed::Plain(_) => Scheme::Plain,
            Compressed::Rle(_) => Scheme::Rle,
            Compressed::Dict(_) => Scheme::Dict,
            Compressed::Pfor(_) => Scheme::Pfor,
            Compressed::PforDelta(_) => Scheme::PforDelta,
        }
    }
}

/// Compress with an explicit scheme.
pub fn compress(values: &[i64], scheme: Scheme) -> Compressed {
    match scheme {
        Scheme::Plain => Compressed::Plain(values.to_vec()),
        Scheme::Rle => Compressed::Rle(rle::encode(values)),
        Scheme::Dict => Compressed::Dict(dict::encode(values)),
        Scheme::Pfor => Compressed::Pfor(pfor::encode(values)),
        Scheme::PforDelta => Compressed::PforDelta(pfor_delta::encode(values)),
    }
}

/// Decompress any scheme.
pub fn decompress(c: &Compressed) -> Vec<i64> {
    match c {
        Compressed::Plain(v) => v.clone(),
        Compressed::Rle(r) => rle::decode(r),
        Compressed::Dict(d) => dict::decode(d),
        Compressed::Pfor(p) => pfor::decode(p),
        Compressed::PforDelta(p) => pfor_delta::decode(p),
    }
}

/// Encoded size in bytes.
pub fn compressed_size(c: &Compressed) -> usize {
    match c {
        Compressed::Plain(v) => v.len() * 8,
        Compressed::Rle(r) => rle::encoded_bytes(r),
        Compressed::Dict(d) => dict::encoded_bytes(d),
        Compressed::Pfor(p) => pfor::encoded_bytes(p),
        Compressed::PforDelta(p) => pfor_delta::encoded_bytes(p),
    }
}

/// Pick a scheme from a sample of the data (X100-style per-column choice):
/// long runs → RLE; few distinct values → DICT; small sorted deltas →
/// PFOR-DELTA; small value range → PFOR; otherwise plain.
pub fn pick_scheme(values: &[i64]) -> Scheme {
    if values.len() < 16 {
        return Scheme::Plain;
    }
    let sample = &values[..values.len().min(4096)];
    // run structure
    let runs = rle::encode(sample).len();
    if runs * 8 <= sample.len() {
        return Scheme::Rle;
    }
    // distinct count (bounded probe)
    let mut distinct = std::collections::HashSet::new();
    let mut too_many = false;
    for &v in sample {
        distinct.insert(v);
        if distinct.len() > 256 {
            too_many = true;
            break;
        }
    }
    if !too_many {
        return Scheme::Dict;
    }
    // sortedness / delta size
    let sorted_pairs = sample.windows(2).filter(|w| w[0] <= w[1]).count();
    if sorted_pairs * 10 >= sample.len() * 9 {
        return Scheme::PforDelta;
    }
    // value range
    let (min, max) = sample
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let range = (max as i128 - min as i128) as u64;
    if bitpack::bits_for(range) <= 32 {
        return Scheme::Pfor;
    }
    Scheme::Plain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_all(v: &[i64]) {
        for s in [
            Scheme::Plain,
            Scheme::Rle,
            Scheme::Dict,
            Scheme::Pfor,
            Scheme::PforDelta,
        ] {
            let c = compress(v, s);
            assert_eq!(c.scheme(), s);
            assert_eq!(decompress(&c), v, "scheme {s:?}");
        }
    }

    #[test]
    fn every_scheme_roundtrips() {
        roundtrip_all(&[]);
        roundtrip_all(&[1, 1, 1, 5, -3, 1 << 40, i64::MIN, i64::MAX]);
        let v: Vec<i64> = (0..5000).map(|i| (i * 37) % 101).collect();
        roundtrip_all(&v);
    }

    #[test]
    fn picker_recognizes_shapes() {
        let runs: Vec<i64> = (0..4000).map(|i| i / 500).collect();
        assert_eq!(pick_scheme(&runs), Scheme::Rle);

        let lowcard: Vec<i64> = (0..4000).map(|i| (i * 7919) % 50).collect();
        assert_eq!(pick_scheme(&lowcard), Scheme::Dict);

        let sorted: Vec<i64> = (0..4000).map(|i| i * i).collect();
        assert_eq!(pick_scheme(&sorted), Scheme::PforDelta);

        let narrow: Vec<i64> = (0..4000).map(|i| (i * 2654435761i64) % 100_000).collect();
        assert!(matches!(pick_scheme(&narrow), Scheme::Pfor | Scheme::Dict));

        assert_eq!(pick_scheme(&[1, 2, 3]), Scheme::Plain);
    }

    #[test]
    fn picked_scheme_actually_compresses() {
        let data: Vec<i64> = (0..8000).map(|i| 500_000 + i).collect();
        let s = pick_scheme(&data);
        let c = compress(&data, s);
        assert!(compressed_size(&c) < data.len() * 8 / 4);
        assert_eq!(decompress(&c), data);
    }
}
