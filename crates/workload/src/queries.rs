//! Query-log generators.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One range query over a value domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeQuery {
    pub lo: i64,
    pub hi: i64,
}

/// How range-query predicates move over time (the cracking literature's
/// access patterns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryPattern {
    /// Uniformly random ranges.
    Random,
    /// Ranges concentrate in a hot fraction of the domain.
    Focused { hot_fraction: f64 },
    /// Ranges sweep the domain left to right (worst case for cracking's
    /// convergence claims, good for testing).
    Sequential,
}

/// Generate `n` range queries over `[0, domain)` selecting about
/// `selectivity` of it each.
pub fn range_query_log(
    n: usize,
    domain: i64,
    selectivity: f64,
    pattern: QueryPattern,
    seed: u64,
) -> Vec<RangeQuery> {
    assert!(domain > 0);
    let width = ((domain as f64 * selectivity) as i64).clamp(1, domain);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let lo = match pattern {
                QueryPattern::Random => rng.random_range(0..(domain - width + 1)),
                QueryPattern::Focused { hot_fraction } => {
                    let hot = ((domain as f64) * hot_fraction) as i64;
                    let span = (hot - width).max(1);
                    rng.random_range(0..span)
                }
                QueryPattern::Sequential => {
                    let steps = (domain - width).max(1);
                    (i as i64 * steps / n.max(1) as i64).min(steps - 1)
                }
            };
            RangeQuery { lo, hi: lo + width }
        })
        .collect()
}

/// One query of the reuse (Skyserver-like) log: a range over one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseQuery {
    pub column: usize,
    pub range: RangeQuery,
}

/// A log with power-law *repetition*: a small set of distinct queries is
/// drawn zipf-style, so some queries recur many times — the property the
/// Skyserver log has and the recycler exploits (\[19\]; substitution noted
/// in DESIGN.md).
pub fn skyserver_log(
    n: usize,
    ncolumns: usize,
    distinct_queries: usize,
    skew: f64,
    domain: i64,
    seed: u64,
) -> Vec<ReuseQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    // the pool of distinct queries
    let pool: Vec<ReuseQuery> = (0..distinct_queries.max(1))
        .map(|_| {
            let width = rng.random_range(domain / 50..domain / 5).max(1);
            let lo = rng.random_range(0..(domain - width).max(1));
            ReuseQuery {
                column: rng.random_range(0..ncolumns.max(1)),
                range: RangeQuery { lo, hi: lo + width },
            }
        })
        .collect();
    // zipf ranks over the pool
    let mut weights: Vec<f64> = (1..=pool.len())
        .map(|k| 1.0 / (k as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            pool[weights.partition_point(|&c| c < u)].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_deterministic_and_bounded() {
        let a = range_query_log(100, 10_000, 0.01, QueryPattern::Random, 3);
        let b = range_query_log(100, 10_000, 0.01, QueryPattern::Random, 3);
        assert_eq!(a, b);
        for q in &a {
            assert!(q.lo >= 0 && q.hi <= 10_000 && q.lo < q.hi);
            assert_eq!(q.hi - q.lo, 100);
        }
    }

    #[test]
    fn sequential_sweeps() {
        let log = range_query_log(10, 1000, 0.05, QueryPattern::Sequential, 1);
        assert!(log.windows(2).all(|w| w[0].lo <= w[1].lo));
        assert!(log[0].lo < log[9].lo);
    }

    #[test]
    fn focused_stays_hot() {
        let log = range_query_log(
            200,
            10_000,
            0.01,
            QueryPattern::Focused { hot_fraction: 0.1 },
            2,
        );
        assert!(log.iter().all(|q| q.hi <= 1100));
    }

    #[test]
    fn skyserver_log_repeats() {
        let log = skyserver_log(1000, 4, 50, 1.1, 100_000, 7);
        assert_eq!(log.len(), 1000);
        let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for q in &log {
            *counts.entry(format!("{q:?}")).or_default() += 1;
        }
        assert!(counts.len() <= 50);
        let max = counts.values().max().unwrap();
        assert!(
            *max > 1000 / 50 * 3,
            "head query should repeat far above the mean: {max}"
        );
        assert!(log.iter().all(|q| q.column < 4));
    }
}
