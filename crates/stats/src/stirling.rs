//! Stirling numbers of the second kind, computed and cached in log space.
//!
//! The Bernoulli estimator (Theorem 1 of the BotMeter paper) evaluates
//! `S(n, m)` — the number of ways to partition `n` labelled items into `m`
//! non-empty unlabelled blocks — for `n` in the hundreds, where the raw
//! values exceed 1e300. We therefore keep the whole triangle as natural
//! logarithms, filled row by row with the recurrence
//! `S(n, m) = m·S(n−1, m) + S(n−1, m−1)` in log-sum-exp form.
//!
//! [`StirlingTable`] is the single-owner cache; [`SharedStirling`] wraps it
//! (plus a memoized `ln_binomial` row cache) behind `Arc`s so one filled
//! triangle can serve every landscape cell across a worker pool.

use crate::special::{ln_binomial, LogSumAcc};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A growable cache of `ln S(n, m)` (Stirling numbers of the second kind).
///
/// Rows are materialised lazily: asking for `ln_stirling2(n, m)` fills the
/// triangle up to row `n` on first use and answers from the cache afterwards.
///
/// # Example
///
/// ```
/// use botmeter_stats::StirlingTable;
/// let mut t = StirlingTable::new();
/// // S(4, 2) = 7
/// assert!((t.ln_stirling2(4, 2) - 7f64.ln()).abs() < 1e-12);
/// // S(n, 1) = 1 for n >= 1
/// assert_eq!(t.ln_stirling2(9, 1), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StirlingTable {
    /// `rows[n][m]` = ln S(n, m) for 0 <= m <= n. Rows sit behind `Arc`s
    /// so whole-row borrows ([`row`](Self::row)) are a pointer clone — the
    /// Theorem-1 posterior sum reads a full row per `n` and would
    /// otherwise pay a lock/lookup per `(n, m)` pair.
    rows: Vec<Arc<Vec<f64>>>,
}

impl StirlingTable {
    /// Creates an empty table (row 0 is synthesised on demand).
    pub fn new() -> Self {
        StirlingTable { rows: Vec::new() }
    }

    /// `ln S(n, m)`; returns `-inf` for the zero cases (`m > n`, or `m == 0`
    /// with `n > 0`). `S(0, 0) = 1` by convention.
    pub fn ln_stirling2(&mut self, n: u64, m: u64) -> f64 {
        if m > n {
            return f64::NEG_INFINITY;
        }
        let n = n as usize;
        let m = m as usize;
        self.fill_to(n);
        self.rows[n][m]
    }

    /// `ln S(n, m)` without filling: `Some` when row `n` is already
    /// materialised (the zero cases answer without any row), `None` when a
    /// [`fill_to`](Self::ln_stirling2) pass is still needed.
    pub fn peek(&self, n: u64, m: u64) -> Option<f64> {
        if m > n {
            return Some(f64::NEG_INFINITY);
        }
        self.rows.get(n as usize).map(|row| row[m as usize])
    }

    /// The whole row `[ln S(n, 0), …, ln S(n, n)]`, filling the triangle up
    /// to `n` first. The returned handle shares the cached storage.
    pub fn row(&mut self, n: u64) -> Arc<Vec<f64>> {
        self.fill_to(n as usize);
        Arc::clone(&self.rows[n as usize])
    }

    /// [`row`](Self::row) without filling: `None` when row `n` is not yet
    /// materialised.
    pub fn peek_row(&self, n: u64) -> Option<Arc<Vec<f64>>> {
        self.rows.get(n as usize).map(Arc::clone)
    }

    /// Number of rows currently materialised (for diagnostics/tests).
    pub fn rows_filled(&self) -> usize {
        self.rows.len()
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

/// A thread-safe, clone-shared combinatorics cache: one [`StirlingTable`]
/// plus memoized `ln_binomial` rows, both behind `Arc`s so that cloning the
/// handle shares the underlying tables instead of refilling them.
///
/// Every cached value is a pure function of its indices (`ln S(n, m)` and
/// `ln C(n, k)` respectively), and rows are always filled by the same
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
/// assert!((tables.ln_stirling2(4, 2) - 7f64.ln()).abs() < 1e-12);
/// // The clone sees the row the first handle filled.
/// assert!(other.stirling_rows_filled() >= 5);
/// let row = tables.ln_binomial_row(10);
/// assert!((row[3] - 120f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedStirling {
    stirling: Arc<RwLock<StirlingTable>>,
    binomial_rows: Arc<RwLock<HashMap<u64, Arc<Vec<f64>>>>>,
}

impl SharedStirling {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        SharedStirling::default()
    }

    /// `ln S(n, m)` — the shared equivalent of
    /// [`StirlingTable::ln_stirling2`]. Reads take a shared lock; only a
    /// miss upgrades to the write lock to extend the triangle.
    pub fn ln_stirling2(&self, n: u64, m: u64) -> f64 {
        {
            let table = self.stirling.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(v) = table.peek(n, m) {
                return v;
            }
        }
        let mut table = self
            .stirling
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        table.ln_stirling2(n, m)
    }

    /// The full Stirling row `[ln S(n, 0), …, ln S(n, n)]`, filling the
    /// triangle up to `n` on first use. One shared-lock acquisition hands
    /// back the whole row, so hot loops that need `ln S(n, m)` for every
    /// `m` (the Theorem-1 occupancy sum) index a plain slice instead of
    /// paying a lock per `(n, m)` pair. Values are identical to
    /// [`ln_stirling2`](Self::ln_stirling2) entry by entry.
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

    /// The full row `[ln C(n, 0), …, ln C(n, n)]`, memoized per `n`. Rows
    /// are computed with [`ln_binomial`] entry by entry, so the cached
    /// values are bit-identical to calling the free function directly.
    pub fn ln_binomial_row(&self, n: u64) -> Arc<Vec<f64>> {
        {
            let rows = self
                .binomial_rows
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(row) = rows.get(&n) {
                return Arc::clone(row);
            }
        }
        // Compute outside any lock; a racing fill of the same row produces
        // the identical vector, so last-writer-wins is harmless.
        let row: Arc<Vec<f64>> = Arc::new((0..=n).map(|k| ln_binomial(n, k)).collect());
        let mut rows = self
            .binomial_rows
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(rows.entry(n).or_insert(row))
    }

    /// Rows of the Stirling triangle currently materialised.
    pub fn stirling_rows_filled(&self) -> usize {
        self.stirling
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .rows_filled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut t = StirlingTable::new();
        for n in 0u64..=25 {
            for m in 0u64..=n {
                let want = exact(n as usize, m as usize);
                let got = t.ln_stirling2(n, m);
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
        let mut t = StirlingTable::new();
        assert!((t.ln_stirling2(5, 3).exp() - 25.0).abs() < 1e-9);
        assert!((t.ln_stirling2(6, 3).exp() - 90.0).abs() < 1e-9);
        assert!((t.ln_stirling2(7, 4).exp() - 350.0).abs() < 1e-7);
    }

    #[test]
    fn zero_cases() {
        let mut t = StirlingTable::new();
        assert_eq!(t.ln_stirling2(3, 5), f64::NEG_INFINITY);
        assert_eq!(t.ln_stirling2(4, 0), f64::NEG_INFINITY);
        assert_eq!(t.ln_stirling2(0, 0), 0.0);
    }

    #[test]
    fn large_rows_stay_finite() {
        let mut t = StirlingTable::new();
        // S(500, 250) overflows f64 massively; log value must be finite.
        let v = t.ln_stirling2(500, 250);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn cache_is_incremental() {
        let mut t = StirlingTable::new();
        t.ln_stirling2(10, 5);
        assert_eq!(t.rows_filled(), 11);
        t.ln_stirling2(4, 2);
        assert_eq!(t.rows_filled(), 11, "smaller query must not shrink/refill");
        t.ln_stirling2(12, 12);
        assert_eq!(t.rows_filled(), 13);
    }

    #[test]
    fn peek_only_answers_filled_rows() {
        let mut t = StirlingTable::new();
        assert_eq!(t.peek(2, 5), Some(f64::NEG_INFINITY), "zero case is free");
        assert_eq!(t.peek(4, 2), None, "unfilled row");
        let filled = t.ln_stirling2(4, 2);
        assert_eq!(t.peek(4, 2), Some(filled));
    }

    #[test]
    fn shared_matches_owned_table_bit_for_bit() {
        let shared = SharedStirling::new();
        let mut owned = StirlingTable::new();
        // Query in a scrambled order to show fill order is irrelevant.
        for &(n, m) in &[(30u64, 7u64), (5, 2), (60, 60), (12, 0), (45, 13)] {
            assert_eq!(shared.ln_stirling2(n, m), owned.ln_stirling2(n, m));
        }
        assert_eq!(shared.stirling_rows_filled(), owned.rows_filled());
    }

    #[test]
    fn shared_binomial_rows_match_free_function() {
        let shared = SharedStirling::new();
        let row = shared.ln_binomial_row(25);
        assert_eq!(row.len(), 26);
        for k in 0..=25u64 {
            assert_eq!(row[k as usize], ln_binomial(25, k));
        }
        // Second request hits the cache (same allocation).
        assert!(Arc::ptr_eq(&row, &shared.ln_binomial_row(25)));
    }

    #[test]
    fn shared_clones_share_fills_across_threads() {
        let shared = SharedStirling::new();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tables = shared.clone();
                std::thread::spawn(move || tables.ln_stirling2(80 + i, 10))
            })
            .collect();
        let mut reference = StirlingTable::new();
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.join().expect("no panic");
            assert_eq!(got, reference.ln_stirling2(80 + i as u64, 10));
        }
        assert_eq!(shared.stirling_rows_filled(), 84);
    }

    #[test]
    fn row_sum_equals_bell_number() {
        // Σ_m S(n,m) = Bell(n). Bell(10) = 115975.
        let mut t = StirlingTable::new();
        let mut acc = crate::special::LogSumAcc::new();
        for m in 0..=10 {
            acc.add(t.ln_stirling2(10, m));
        }
        assert!((acc.value() - 115_975f64.ln()).abs() < 1e-9);
    }
}
