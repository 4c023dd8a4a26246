//! Stirling numbers of the second kind, computed and cached in log space.
//!
//! The Bernoulli estimator (Theorem 1 of the BotMeter paper) evaluates
//! `S(n, m)` — the number of ways to partition `n` labelled items into `m`
//! non-empty unlabelled blocks — for `n` in the hundreds, where the raw
//! values exceed 1e300. We therefore keep the whole triangle as natural
//! logarithms, filled row by row with the recurrence
//! `S(n, m) = m·S(n−1, m) + S(n−1, m−1)` in log-sum-exp form.
//!
//! `StirlingTable` is the single-owner cache; [`SharedStirling`] wraps it
//! behind an `Arc` so one filled triangle can serve every landscape cell
//! across a worker pool.

use crate::special::LogSumAcc;
use std::sync::{Arc, PoisonError, RwLock};

/// A growable cache of `ln S(n, m)` (Stirling numbers of the second kind).
///
/// Rows are materialised lazily: asking for row `n` fills the triangle up
/// to `n` on first use and answers from the cache afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct StirlingTable {
    /// `rows[n][m]` = ln S(n, m) for 0 <= m <= n. Rows sit behind `Arc`s
    /// so whole-row borrows ([`row`](Self::row)) are a pointer clone — the
    /// Theorem-1 posterior sum reads a full row per `n` and would
    /// otherwise pay a lock/lookup per `(n, m)` pair.
    rows: Vec<Arc<Vec<f64>>>,
}

impl StirlingTable {
    /// The whole row `[ln S(n, 0), …, ln S(n, n)]`, filling the triangle up
    /// to `n` first (`S(0, 0) = 1` by convention; `S(n, 0) = 0` for `n > 0`
    /// reads `-inf`). The returned handle shares the cached storage.
    pub(crate) fn row(&mut self, n: u64) -> Arc<Vec<f64>> {
        self.fill_to(n as usize);
        Arc::clone(&self.rows[n as usize])
    }

    /// [`row`](Self::row) without filling: `None` when row `n` is not yet
    /// materialised.
    pub(crate) fn peek_row(&self, n: u64) -> Option<Arc<Vec<f64>>> {
        self.rows.get(n as usize).map(Arc::clone)
    }

    fn fill_to(&mut self, n: usize) {
        if self.rows.is_empty() {
            // Row 0: S(0,0) = 1.
            self.rows.push(Arc::new(vec![0.0]));
        }
        while self.rows.len() <= n {
            let prev = self.rows.last().expect("row 0 exists");
            let row_n = self.rows.len();
            let mut row = Vec::with_capacity(row_n + 1);
            // m = 0: S(n,0) = 0 for n > 0.
            row.push(f64::NEG_INFINITY);
            for m in 1..row_n {
                let mut acc = LogSumAcc::new();
                acc.add((m as f64).ln() + prev[m]);
                acc.add(prev[m - 1]);
                row.push(acc.value());
            }
            // m = n: S(n,n) = 1.
            row.push(0.0);
            self.rows.push(Arc::new(row));
        }
    }
}

/// A thread-safe, clone-shared Stirling triangle: one `StirlingTable`
/// behind an `Arc`, so that cloning the handle shares the underlying table
/// instead of refilling it.
///
/// Every cached value is a pure function of its indices (`ln S(n, m)`),
/// and rows are always filled by the same
/// deterministic recurrence regardless of which caller triggers the fill —
/// so answers are bit-identical to the unshared path no matter how reads
/// and fills interleave across threads. That is what lets
/// `BotMeter::chart` hand one handle to every landscape cell under a
/// parallel [`ExecPolicy`] without touching the determinism contract.
///
/// [`ExecPolicy`]: https://docs.rs/botmeter-exec
///
/// # Example
///
/// ```
/// use botmeter_stats::SharedStirling;
/// let tables = SharedStirling::new();
/// let other = tables.clone(); // shares, does not copy
/// // S(4, 2) = 7
/// assert!((tables.ln_stirling2_row(4)[2] - 7f64.ln()).abs() < 1e-12);
/// // The clone hands back the row the first handle filled.
/// assert!(std::sync::Arc::ptr_eq(&tables.ln_stirling2_row(4), &other.ln_stirling2_row(4)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedStirling {
    stirling: Arc<RwLock<StirlingTable>>,
}

impl SharedStirling {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        SharedStirling::default()
    }

    /// The full Stirling row `[ln S(n, 0), …, ln S(n, n)]`, filling the
    /// triangle up to `n` on first use. Reads take a shared lock; only a
    /// miss upgrades to the write lock to extend the triangle. One
    /// shared-lock acquisition hands back the whole row, so hot loops that
    /// need `ln S(n, m)` for every `m` (the Theorem-1 occupancy sum) index
    /// a plain slice instead of paying a lock per `(n, m)` pair.
    pub fn ln_stirling2_row(&self, n: u64) -> Arc<Vec<f64>> {
        {
            let table = self.stirling.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(row) = table.peek_row(n) {
                return row;
            }
        }
        let mut table = self
            .stirling
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        table.row(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::ln_binomial;
    use proptest::prelude::*;

    /// `ln S(n, m)` read off the table's row; `-inf` for `m > n`.
    fn ln_s(t: &mut StirlingTable, n: u64, m: u64) -> f64 {
        if m > n {
            f64::NEG_INFINITY
        } else {
            t.row(n)[m as usize]
        }
    }

    /// Exact small values via the u128 recurrence, for cross-checking.
    fn exact(n: usize, m: usize) -> u128 {
        let mut rows: Vec<Vec<u128>> = vec![vec![1]];
        for r in 1..=n {
            let prev = &rows[r - 1];
            let mut row = vec![0u128; r + 1];
            for k in 1..=r {
                let carry = if k < prev.len() { prev[k] } else { 0 };
                let diag = prev[k - 1];
                row[k] = (k as u128) * carry + diag;
            }
            rows.push(row);
        }
        if m <= n {
            rows[n][m]
        } else {
            0
        }
    }

    #[test]
    fn matches_exact_small_triangle() {
        let mut t = StirlingTable::default();
        for n in 0u64..=25 {
            for m in 0u64..=n {
                let want = exact(n as usize, m as usize);
                let got = ln_s(&mut t, n, m);
                if want == 0 {
                    assert_eq!(got, f64::NEG_INFINITY, "S({n},{m}) should be 0");
                } else {
                    let w = (want as f64).ln();
                    assert!(
                        (got - w).abs() < 1e-9 * (1.0 + w.abs()),
                        "S({n},{m}): got ln {got}, want ln {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn known_values() {
        let mut t = StirlingTable::default();
        assert!((ln_s(&mut t, 5, 3).exp() - 25.0).abs() < 1e-9);
        assert!((ln_s(&mut t, 6, 3).exp() - 90.0).abs() < 1e-9);
        assert!((ln_s(&mut t, 7, 4).exp() - 350.0).abs() < 1e-7);
    }

    #[test]
    fn zero_cases() {
        let mut t = StirlingTable::default();
        assert_eq!(ln_s(&mut t, 3, 5), f64::NEG_INFINITY);
        assert_eq!(ln_s(&mut t, 4, 0), f64::NEG_INFINITY);
        assert_eq!(ln_s(&mut t, 0, 0), 0.0);
    }

    #[test]
    fn large_rows_stay_finite() {
        let mut t = StirlingTable::default();
        // S(500, 250) overflows f64 massively; log value must be finite.
        let v = ln_s(&mut t, 500, 250);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn cache_is_incremental() {
        let mut t = StirlingTable::default();
        ln_s(&mut t, 10, 5);
        assert_eq!(t.rows.len(), 11);
        ln_s(&mut t, 4, 2);
        assert_eq!(t.rows.len(), 11, "smaller query must not shrink/refill");
        ln_s(&mut t, 12, 12);
        assert_eq!(t.rows.len(), 13);
    }

    #[test]
    fn peek_row_only_answers_filled_rows() {
        let mut t = StirlingTable::default();
        assert!(t.peek_row(4).is_none(), "unfilled row");
        let filled = t.row(4);
        assert!(Arc::ptr_eq(&t.peek_row(4).expect("filled"), &filled));
    }

    #[test]
    fn shared_matches_owned_table_bit_for_bit() {
        let shared = SharedStirling::new();
        let mut owned = StirlingTable::default();
        // Query in a scrambled order to show fill order is irrelevant.
        for &(n, m) in &[(30u64, 7u64), (5, 2), (60, 60), (12, 0), (45, 13)] {
            assert_eq!(
                shared.ln_stirling2_row(n)[m as usize],
                ln_s(&mut owned, n, m)
            );
        }
        assert_eq!(shared.stirling.read().unwrap().rows.len(), owned.rows.len());
    }

    #[test]
    fn shared_clones_share_fills_across_threads() {
        let shared = SharedStirling::new();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tables = shared.clone();
                std::thread::spawn(move || tables.ln_stirling2_row(80 + i)[10])
            })
            .collect();
        let mut reference = StirlingTable::default();
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.join().expect("no panic");
            assert_eq!(got, ln_s(&mut reference, 80 + i as u64, 10));
        }
        assert_eq!(shared.stirling.read().unwrap().rows.len(), 84);
    }

    #[test]
    fn row_sum_equals_bell_number() {
        // Σ_m S(n,m) = Bell(n). Bell(10) = 115975.
        let mut t = StirlingTable::default();
        let mut acc = crate::special::LogSumAcc::new();
        for m in 0..=10 {
            acc.add(ln_s(&mut t, 10, m));
        }
        assert!((acc.value() - 115_975f64.ln()).abs() < 1e-9);
    }

    proptest! {
        /// Stirling column identity: S(n,2) = 2^(n-1) - 1.
        #[test]
        fn stirling_second_column(n in 2u64..60) {
            let mut t = StirlingTable::default();
            let got = ln_s(&mut t, n, 2);
            let want = (2f64.powi(n as i32 - 1) - 1.0).ln();
            prop_assert!((got - want).abs() < 1e-8 * (1.0 + want.abs()));
        }

        /// Stirling "triangular" identity: S(n, n-1) = C(n, 2).
        #[test]
        fn stirling_near_diagonal(n in 2u64..200) {
            let mut t = StirlingTable::default();
            let got = ln_s(&mut t, n, n - 1);
            let want = ln_binomial(n, 2);
            prop_assert!((got - want).abs() < 1e-8 * (1.0 + want.abs()));
        }
    }
}
