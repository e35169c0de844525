//! A TPC-H-like `lineitem` slice.
//!
//! The vectorized-execution experiments need a scan+filter+aggregate
//! workload with realistic column shapes (quantities, prices, discounts,
//! dates). This generator produces a deterministic slice with the same
//! value distributions TPC-H specifies, without claiming conformance
//! (substitution documented in DESIGN.md).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Columns of the slice (money in cents, dates in days since epoch).
#[derive(Debug, Clone)]
pub struct LineitemSlice {
    pub quantity: Vec<i64>,          // 1..=50
    pub extendedprice: Vec<i64>,     // 90_000..=10_500_000 cents
    pub(crate) discount: Vec<i64>,   // 0..=10 (percent)
    pub(crate) tax: Vec<i64>,        // 0..=8 (percent)
    pub shipdate: Vec<i64>,          // ~7 years of days
    pub(crate) returnflag: Vec<i64>, // 0..=2  (A/N/R)
    pub(crate) linestatus: Vec<i64>, // 0..=1  (O/F)
}

impl LineitemSlice {
    /// Generate `n` rows.
    pub fn generate(n: usize, seed: u64) -> LineitemSlice {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = LineitemSlice {
            quantity: Vec::with_capacity(n),
            extendedprice: Vec::with_capacity(n),
            discount: Vec::with_capacity(n),
            tax: Vec::with_capacity(n),
            shipdate: Vec::with_capacity(n),
            returnflag: Vec::with_capacity(n),
            linestatus: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let qty = rng.random_range(1..=50i64);
            s.quantity.push(qty);
            // price correlates with quantity, as in TPC-H
            let unit = rng.random_range(90_000..=210_000i64);
            s.extendedprice.push(qty * unit / 10);
            s.discount.push(rng.random_range(0..=10));
            s.tax.push(rng.random_range(0..=8));
            s.shipdate.push(rng.random_range(8766..=11322)); // 1994..2001-ish
            s.returnflag.push(rng.random_range(0..=2));
            s.linestatus.push(rng.random_range(0..=1));
        }
        s
    }

    pub fn len(&self) -> usize {
        self.quantity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.quantity.is_empty()
    }

    /// Reference answer for the Q1-like aggregate used in E07/E08:
    /// `count, sum(qty), sum(price)` for rows with
    /// `shipdate <= cutoff AND quantity < qty_bound`.
    pub fn q1_reference(&self, cutoff: i64, qty_bound: i64) -> (i64, i64, i64) {
        let mut count = 0;
        let mut sq = 0;
        let mut sp = 0;
        for i in 0..self.len() {
            if self.shipdate[i] <= cutoff && self.quantity[i] < qty_bound {
                count += 1;
                sq += self.quantity[i];
                sp += self.extendedprice[i];
            }
        }
        (count, sq, sp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let a = LineitemSlice::generate(1000, 42);
        let b = LineitemSlice::generate(1000, 42);
        assert_eq!(a.quantity, b.quantity);
        assert_eq!(a.extendedprice, b.extendedprice);
        assert!(a.quantity.iter().all(|&q| (1..=50).contains(&q)));
        assert!(a.discount.iter().all(|&d| (0..=10).contains(&d)));
        assert!(a.returnflag.iter().all(|&f| (0..=2).contains(&f)));
    }

    #[test]
    fn q1_reference_counts() {
        let s = LineitemSlice::generate(10_000, 1);
        let (c, sq, sp) = s.q1_reference(i64::MAX, i64::MAX);
        assert_eq!(c, 10_000);
        assert_eq!(sq, s.quantity.iter().sum::<i64>());
        assert_eq!(sp, s.extendedprice.iter().sum::<i64>());
        let (c2, _, _) = s.q1_reference(10_000, 25);
        assert!(c2 < c && c2 > 0);
    }
}
