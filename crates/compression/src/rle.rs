//! Run-length encoding.

/// One run: `count` repetitions of `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub value: i64,
    pub count: u32,
}

/// Encode into runs. Runs longer than `u32::MAX` split.
pub fn encode(values: &[i64]) -> Vec<Run> {
    let mut out = Vec::new();
    let mut it = values.iter();
    let Some(&first) = it.next() else {
        return out;
    };
    let mut cur = Run {
        value: first,
        count: 1,
    };
    for &v in it {
        if v == cur.value && cur.count < u32::MAX {
            cur.count += 1;
        } else {
            out.push(cur);
            cur = Run { value: v, count: 1 };
        }
    }
    out.push(cur);
    out
}

/// Decode runs back to values.
pub fn decode(runs: &[Run]) -> Vec<i64> {
    let n: usize = runs.iter().map(|r| r.count as usize).sum();
    let mut out = Vec::with_capacity(n);
    for r in runs {
        out.resize(out.len() + r.count as usize, r.value);
    }
    out
}

/// Encoded size in bytes (value + count per run).
pub(crate) fn encoded_bytes(runs: &[Run]) -> usize {
    runs.len() * (8 + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encodes_runs() {
        let v = vec![5i64, 5, 5, 2, 2, 9];
        let r = encode(&v);
        assert_eq!(
            r,
            vec![
                Run { value: 5, count: 3 },
                Run { value: 2, count: 2 },
                Run { value: 9, count: 1 },
            ]
        );
        assert_eq!(decode(&r), v);
    }

    #[test]
    fn empty_input() {
        assert!(encode(&[]).is_empty());
        assert!(decode(&[]).is_empty());
    }

    #[test]
    fn ratio_on_sorted_data() {
        let v: Vec<i64> = (0..10_000).map(|i| i / 100).collect();
        let r = encode(&v);
        assert_eq!(r.len(), 100);
        assert!(encoded_bytes(&r) * 10 < v.len() * 8);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in proptest::collection::vec(-5i64..5, 0..300)) {
            prop_assert_eq!(decode(&encode(&v)), v);
        }

    }
}
