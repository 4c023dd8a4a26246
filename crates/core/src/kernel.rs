//! The memoized Theorem-1 segment kernel: two tables, split where ρ
//! enters.
//!
//! The expected bot count of a segment is a function of four values — the
//! segment kind, its length, the barrel size `θq` and the prior start
//! density `ρ` — but almost all of its cost is a function of the first
//! three only: per sampled start span `l̃`, the gap/occupancy rows and the
//! row `config[n] = config_probability(l̃, n)` never see ρ, which enters
//! solely as the `Poisson(n; ρ·l̃)` weight on each `config[n]`
//! ([`ShapeTables`]). `MB`'s fixpoint asks for the *same* shapes at a *new*
//! ρ every round, so [`SegmentKernelCache`] keeps both halves:
//!
//! * the **shape table** `(kind, len, θq) → ShapeTables` — the ρ-free half.
//!   A shape is derived once; every later density, fixpoint round, cell and
//!   `botmeterd` publish re-weights its rows and extends them only where a
//!   denser prior pushes the posterior sum further. Every entry is a pure
//!   function of `(l̃, θq, n)`, so pricing against shared rows is
//!   bit-identical to [`expected_bots_for_shape`](crate::expected_bots_for_shape)
//!   on fresh ones. Bounded by the distinct shapes ever priced (at most 48
//!   sampled spans each, rows as long as the largest `n` reached).
//! * the **memo** `(shape, ρ̃) → value` — across a multi-server,
//!   multi-epoch landscape the same quadruples recur: a converged fixpoint
//!   re-probes its last round, epochs repeat the same arc shapes, servers
//!   behind the same border see the same pools. Grows with every distinct
//!   density ever asked for.
//!
//! The ρ axis is continuous, so exact-bit keying of the memo would only
//! ever hit once the fixpoint has converged. The cache therefore snaps ρ
//! onto a geometric grid of relative pitch [`RHO_GRID`] *before both keying
//! and evaluating*: the cached value is the exact kernel value at the
//! snapped density, so a cache hit never returns an approximation of its
//! key — the only approximation is the bounded `ρ → ρ̃` snap
//! ([`SegmentKernelCache::snap_rho`]), and the uncached kernel at `ρ̃` is
//! the bit-identical reference.

use crate::segments::{Segment, SegmentKind};
use crate::theorem1::{KernelStats, ShapeTables};
use botmeter_stats::SharedStirling;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Relative pitch of the geometric ρ grid: `1e-6` — far below the
/// estimator's statistical error, far above f64 noise.
const RHO_GRID: f64 = 1e-6;

/// The exact inputs the Theorem-1 kernel is a pure function of — the memo
/// key of [`SegmentKernelCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// How the segment terminates.
    pub kind: SegmentKind,
    /// Segment length in pool positions.
    pub len: usize,
    /// Barrel size (after any detection-window scaling).
    pub theta_q: usize,
    /// Bit pattern of the (snapped) start density.
    rho_bits: u64,
}

/// The ρ-free part of a [`KernelKey`]: `(kind, len, θq)`.
pub(crate) type ShapeKey = (SegmentKind, usize, usize);

impl KernelKey {
    /// The (snapped) start density the kernel evaluates at.
    pub fn rho(&self) -> f64 {
        f64::from_bits(self.rho_bits)
    }

    /// The shape whose shared rows the key is priced against.
    pub(crate) fn shape(&self) -> ShapeKey {
        (self.kind, self.len, self.theta_q)
    }
}

/// One cached kernel evaluation: the value, whether it was a memo hit, and
/// the kernel work performed (zero on a hit).
#[derive(Debug, Clone, Copy)]
pub struct KernelEval {
    /// Expected number of bots covering the segment.
    pub value: f64,
    /// Whether the memo table already held the key.
    pub memo_hit: bool,
    /// Gap-table work done computing the value ([`KernelStats::default`]
    /// on a hit).
    pub stats: KernelStats,
}

/// The ρ-free rows of every shape priced so far, keyed by `(kind, len, θq)`.
/// Each shape has its own lock, so evaluations of different shapes never
/// wait for each other.
type ShapeTable = HashMap<ShapeKey, Arc<Mutex<ShapeTables>>>;

/// Concurrent cache for the Theorem-1 segment kernel: the memo of finished
/// values keyed by [`KernelKey`], and the shape table of ρ-free rows a
/// memo miss is priced against (module docs).
///
/// Cloning the cache — as sharing an
/// [`EstimationContext`](crate::EstimationContext) across landscape cells
/// effectively does — shares both tables, so a value computed for one cell
/// is a hit for every other cell, epoch and fixpoint round of the same
/// chart, and a shape derived for one density is re-weighted, not
/// re-derived, at every other.
///
/// # Example
///
/// ```
/// use botmeter_core::{Segment, SegmentKind, SegmentKernelCache};
/// use botmeter_stats::SharedStirling;
///
/// let cache = SegmentKernelCache::default();
/// let tables = SharedStirling::new();
/// let seg = Segment { start: 7, len: 500, kind: SegmentKind::Middle };
/// let first = cache.expected_bots(&seg, 500, 1e-3, &tables);
/// assert!(!first.memo_hit);
/// // Same shape at a different start position: pure cache hit.
/// let shifted = Segment { start: 99, len: 500, kind: SegmentKind::Middle };
/// let second = cache.expected_bots(&shifted, 500, 1e-3, &tables);
/// assert!(second.memo_hit);
/// assert_eq!(first.value.to_bits(), second.value.to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SegmentKernelCache {
    map: Arc<RwLock<HashMap<KernelKey, f64>>>,
    shapes: Arc<RwLock<ShapeTable>>,
}

impl SegmentKernelCache {
    /// The density the kernel will actually evaluate at for a requested
    /// `rho`: `ρ̃ = exp(round(ln ρ / grid) · grid)` on the module's grid, so
    /// `ρ̃/ρ ∈ [e^{−grid/2}, e^{grid/2}]` and densities within half a pitch
    /// of each other share one memo entry. Non-finite or non-positive
    /// inputs pass through untouched for the kernel's own validation to
    /// reject.
    pub(crate) fn snap_rho(&self, rho: f64) -> f64 {
        if !(rho.is_finite() && rho > 0.0) {
            return rho;
        }
        ((rho.ln() / RHO_GRID).round() * RHO_GRID).exp()
    }

    /// The memo key for a segment shape at density `rho` (snapping ρ).
    pub fn key(&self, kind: SegmentKind, len: usize, theta_q: usize, rho: f64) -> KernelKey {
        KernelKey {
            kind,
            len,
            theta_q,
            rho_bits: self.snap_rho(rho).to_bits(),
        }
    }

    /// The cached value for `key`, if present.
    pub fn get(&self, key: &KernelKey) -> Option<f64> {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied()
    }

    /// Caches `value` for `key`. First write wins: the kernel is a pure
    /// function of the key, so concurrent computes of the same key produce
    /// the same value and keeping the first is merely the cheapest
    /// tie-break.
    pub fn insert(&self, key: KernelKey, value: f64) {
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(value);
    }

    /// Evaluates the kernel at the key's (snapped) inputs against the
    /// shape's shared rows, bypassing the memo. Holds the shape's lock for
    /// the evaluation: concurrent calls on one shape run one after the
    /// other, in either order to the same bits.
    pub(crate) fn compute(&self, key: &KernelKey, tables: &SharedStirling) -> (f64, KernelStats) {
        let shape = key.shape();
        let existing = self
            .shapes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&shape)
            .cloned();
        let rows = existing.unwrap_or_else(|| {
            let fresh = ShapeTables::new(key.kind, key.len, key.theta_q);
            let mut shapes = self.shapes.write().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(
                shapes
                    .entry(shape)
                    .or_insert_with(|| Arc::new(Mutex::new(fresh))),
            )
        });
        // Rows are append-only and every entry is complete when pushed, so
        // a panic mid-evaluation leaves them valid.
        let mut rows = rows.lock().unwrap_or_else(PoisonError::into_inner);
        rows.expected_bots(key.rho(), tables)
    }

    /// Cached [`expected_bots_for_shape`](crate::expected_bots_for_shape):
    /// look the shape up, computing and caching on a miss.
    pub fn expected_bots(
        &self,
        segment: &Segment,
        theta_q: usize,
        rho: f64,
        tables: &SharedStirling,
    ) -> KernelEval {
        let key = self.key(segment.kind, segment.len, theta_q, rho);
        if let Some(value) = self.get(&key) {
            return KernelEval {
                value,
                memo_hit: true,
                stats: KernelStats::default(),
            };
        }
        let (value, stats) = self.compute(&key, tables);
        self.insert(key, value);
        KernelEval {
            value,
            memo_hit: false,
            stats,
        }
    }

    /// Number of memoized `(shape, ρ̃)` values.
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Number of distinct shapes `(kind, len, θq)` whose ρ-free rows are
    /// held.
    pub fn shape_count(&self) -> usize {
        self.shapes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem1::{expected_bots_for_segment, expected_bots_for_shape};
    use proptest::prelude::*;

    fn seg(len: usize, kind: SegmentKind) -> Segment {
        Segment {
            start: 0,
            len,
            kind,
        }
    }

    #[test]
    fn cached_value_is_the_uncached_kernel_at_the_snapped_density() {
        let cache = SegmentKernelCache::default();
        let tables = SharedStirling::new();
        for (len, tq, rho) in [(500, 500, 1e-3), (730, 500, 6.4e-3), (12, 9, 2e-2)] {
            for kind in [SegmentKind::Middle, SegmentKind::Boundary] {
                let s = seg(len, kind);
                let direct = expected_bots_for_segment(&s, tq, cache.snap_rho(rho), &tables);
                let cached = cache.expected_bots(&s, tq, rho, &tables);
                assert!(!cached.memo_hit);
                assert_eq!(cached.value.to_bits(), direct.to_bits());
                assert!(cache.expected_bots(&s, tq, rho, &tables).memo_hit);
            }
        }
    }

    #[test]
    fn snapping_stays_within_the_grid_and_collides_near_densities() {
        let cache = SegmentKernelCache::default();
        let rho = 6.4e-3;
        let snapped = cache.snap_rho(rho);
        assert!((snapped / rho).ln().abs() <= RHO_GRID / 2.0 + 1e-15);
        // A density within a hair of the first must share the cache line.
        let near = rho * (1.0 + RHO_GRID / 8.0);
        let tables = SharedStirling::new();
        let s = seg(700, SegmentKind::Boundary);
        let first = cache.expected_bots(&s, 500, rho, &tables);
        let second = cache.expected_bots(&s, 500, near, &tables);
        assert!(!first.memo_hit && second.memo_hit);
        assert_eq!(first.value.to_bits(), second.value.to_bits());
    }

    #[test]
    fn snap_is_idempotent() {
        let cache = SegmentKernelCache::default();
        for rho in [1e-9, 1e-3, 0.5, 64.0 / 10_000.0] {
            let once = cache.snap_rho(rho);
            assert_eq!(once.to_bits(), cache.snap_rho(once).to_bits());
        }
    }

    #[test]
    fn non_finite_rho_passes_through_unsnapped() {
        let cache = SegmentKernelCache::default();
        assert!(cache.snap_rho(f64::NAN).is_nan());
        assert_eq!(cache.snap_rho(0.0), 0.0);
        assert_eq!(cache.snap_rho(-1.0), -1.0);
    }

    #[test]
    fn clones_share_the_memo_table() {
        let cache = SegmentKernelCache::default();
        let tables = SharedStirling::new();
        let s = seg(500, SegmentKind::Middle);
        assert!(!cache.expected_bots(&s, 500, 1e-3, &tables).memo_hit);
        let clone = cache.clone();
        assert!(clone.expected_bots(&s, 500, 1e-3, &tables).memo_hit);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn start_position_is_not_part_of_the_key() {
        let cache = SegmentKernelCache::default();
        let tables = SharedStirling::new();
        let a = Segment {
            start: 3,
            len: 120,
            kind: SegmentKind::Boundary,
        };
        let b = Segment { start: 9_000, ..a };
        assert!(!cache.expected_bots(&a, 100, 1e-3, &tables).memo_hit);
        assert!(cache.expected_bots(&b, 100, 1e-3, &tables).memo_hit);
    }

    #[test]
    fn a_second_density_reweights_the_rows_the_first_left_behind() {
        let cache = SegmentKernelCache::default();
        let tables = SharedStirling::new();
        let s = seg(2000, SegmentKind::Boundary);
        let first = cache.expected_bots(&s, 500, 64.0 / 10_000.0, &tables);
        assert!(first.stats.gap_tables_built > 0);
        assert!(first.stats.config_entries_computed > 0);
        assert_eq!(first.stats.config_entries_reused, 0);
        // A sparser prior stops its posterior sums earlier: nothing to
        // derive, everything read.
        let sparser = cache.expected_bots(&s, 500, 32.0 / 10_000.0, &tables);
        assert!(!sparser.memo_hit, "a new density is a memo miss");
        assert_eq!(sparser.stats.gap_tables_built, 0);
        assert_eq!(sparser.stats.config_entries_computed, 0);
        assert!(sparser.stats.config_entries_reused > 0);
        // A denser one reads what is there and extends it.
        let denser = cache.expected_bots(&s, 500, 256.0 / 10_000.0, &tables);
        assert!(denser.stats.config_entries_computed > 0);
        assert!(denser.stats.config_entries_reused > 0);
        assert_eq!((cache.len(), cache.shape_count()), (3, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Pricing against shared rows equals pricing on fresh tables, bit
        /// for bit, whatever was priced before: three neighbouring shapes
        /// (another `θq`, the other kind) go through one cache interleaved,
        /// so a row served to the wrong `l̃`/`θq` shows, and densities come
        /// ascending, descending or shuffled, so a row a sparse prior left
        /// short must be extended by a denser one, and a long one read by a
        /// sparser one.
        #[test]
        fn shared_rows_price_bit_identically_to_fresh_tables(
            len in 2usize..3000,
            theta_q in 20usize..600,
            boundary in any::<bool>(),
            rhos in prop::collection::vec((1.0f64..10.0, 1u32..6), 1..13),
            order in 0u8..3,
        ) {
            let mut rhos: Vec<f64> =
                rhos.into_iter().map(|(m, e)| m * 10f64.powi(-(e as i32))).collect();
            match order {
                0 => rhos.sort_by(f64::total_cmp),
                1 => rhos.sort_by(|a, b| b.total_cmp(a)),
                _ => {}
            }
            let (kind, other) = if boundary {
                (SegmentKind::Boundary, SegmentKind::Middle)
            } else {
                (SegmentKind::Middle, SegmentKind::Boundary)
            };
            let shapes = [(kind, len, theta_q), (kind, len, theta_q + 1), (other, len, theta_q)];
            let cache = SegmentKernelCache::default();
            let tables = SharedStirling::new();
            for &rho in &rhos {
                for (kind, len, theta_q) in shapes {
                    let shared = cache.compute(&cache.key(kind, len, theta_q, rho), &tables).0;
                    let snapped = cache.snap_rho(rho);
                    let fresh =
                        expected_bots_for_shape(kind, len, theta_q, snapped, &SharedStirling::new())
                            .0;
                    prop_assert_eq!(
                        shared.to_bits(), fresh.to_bits(),
                        "{:?} len {} θq {} at ρ {} after {:?}: {} vs {}",
                        kind, len, theta_q, rho, rhos, shared, fresh
                    );
                }
            }
            prop_assert_eq!(cache.shape_count(), shapes.len());
        }
    }
}
