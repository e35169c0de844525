//! Zone maps: per-block min/max summaries.
//!
//! The lightest instance of the paper's "fast access to what matters only"
//! theme — a scan can skip any block whose `[min, max]` cannot intersect the
//! predicate. Unlike a sorted index it costs one pass to build and nothing
//! to maintain order.

use std::fmt::Debug;

/// Min/max of one block of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Zone<K> {
    pub min: K,
    pub max: K,
}

/// Per-block min/max over a column.
#[derive(Debug, Clone)]
pub struct ZoneMap<K: Ord + Copy + Debug> {
    zones: Vec<Zone<K>>,
}

impl<K: Ord + Copy + Debug> ZoneMap<K> {
    /// Build with `block_rows` rows per zone.
    pub fn build(data: &[K], block_rows: usize) -> ZoneMap<K> {
        assert!(block_rows > 0, "block_rows must be positive");
        let zones = data
            .chunks(block_rows)
            .map(|chunk| {
                let mut min = chunk[0];
                let mut max = chunk[0];
                for &v in &chunk[1..] {
                    if v < min {
                        min = v;
                    }
                    if v > max {
                        max = v;
                    }
                }
                Zone { min, max }
            })
            .collect();
        ZoneMap { zones }
    }

    /// Global `[min, max]` over the whole column, folded from the zones.
    /// `None` for an empty column. Feeds base-bind value intervals in the
    /// MAL property analysis.
    pub fn bounds(&self) -> Option<(K, K)> {
        let mut it = self.zones.iter();
        let first = it.next()?;
        let (mut min, mut max) = (first.min, first.max);
        for z in it {
            if z.min < min {
                min = z.min;
            }
            if z.max > max {
                max = z.max;
            }
        }
        Some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_fold_all_zones() {
        let data = vec![7i64, 3, 9, 1, 8];
        let zm = ZoneMap::build(&data, 2);
        assert_eq!(zm.bounds(), Some((1, 9)));
        let empty = ZoneMap::build(&[] as &[i64], 4);
        assert_eq!(empty.bounds(), None);
    }
}
