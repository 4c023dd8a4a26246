//! Estimation context: everything an estimator knows besides the lookups.

use crate::kernel::SegmentKernelCache;
use botmeter_dga::DgaFamily;
use botmeter_dns::{DomainName, FxHashMap, ObservedLookup, SimDuration, TtlPolicy};
use botmeter_stats::SharedStirling;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// One epoch's query pool, indexed the way the set-statistic estimators
/// (`MB`, `MC`, `MS`) read it: by position and by name, with the
/// registered (valid) positions beside it. A pure function of
/// `(family, epoch)`; built once per context by
/// [`EstimationContext::pool_index`].
#[derive(Debug)]
pub struct PoolIndex {
    pool: Vec<DomainName>,
    positions: FxHashMap<DomainName, usize>,
    valid: Vec<usize>,
}

impl PoolIndex {
    fn build(family: &DgaFamily, epoch: u64) -> Self {
        let pool = family.pool_for_epoch(epoch);
        let positions = pool
            .iter()
            .enumerate()
            .map(|(i, d)| (d.clone(), i))
            .collect();
        PoolIndex {
            pool,
            positions,
            valid: family.valid_indices(epoch),
        }
    }

    /// The ordered query pool.
    pub fn pool(&self) -> &[DomainName] {
        &self.pool
    }

    /// The pool position of `domain` (the last one, should a dictionary
    /// pool repeat a name); `None` for a name outside this epoch's pool.
    pub fn position(&self, domain: &DomainName) -> Option<usize> {
        self.positions.get(domain).copied()
    }

    /// Positions of the registered domains, ascending and distinct.
    pub fn valid(&self) -> &[usize] {
        &self.valid
    }

    /// Whether position `i` holds a registered domain.
    pub fn is_valid(&self, i: usize) -> bool {
        self.valid.binary_search(&i).is_ok()
    }
}

/// How many epochs' [`PoolIndex`] one context keeps before dropping the
/// lowest-numbered one. Small on purpose: reuse happens between the cells
/// and publishes of the few epochs around a stream's head, while a pool
/// held is one text buffer, the `Vec` of names and the position map —
/// ≈1.2 MB for a 10 k pool — that stays resident, and a long-running
/// `botmeterd` must not hold a pool per day it ever saw. (Keeping all 20
/// epochs of a chart once measured 10–20 % *slower* than rebuilding each;
/// that was the allocator churn of 20 000 heap objects per pool, and with
/// pools batch-built 4 and 32 measure the same — DESIGN.md §12.) A dropped
/// epoch asked for again is rebuilt.
const POOL_INDEX_EPOCHS: usize = 4;

type PoolIndexSlot = Arc<OnceLock<Arc<PoolIndex>>>;

/// The analyst-supplied knowledge an estimator runs with (Fig. 2, steps
/// 6–7): the targeted DGA family (taxonomy cell + `θ` parameters), the
/// network's cache TTL policy, the trace's timestamp granularity, and —
/// optionally — the detection window of the upstream D3 algorithm.
///
/// # Example
///
/// ```
/// use botmeter_core::EstimationContext;
/// use botmeter_dga::DgaFamily;
/// use botmeter_dns::{SimDuration, TtlPolicy};
///
/// let ctx = EstimationContext::new(
///     DgaFamily::new_goz(),
///     TtlPolicy::paper_default(),
///     SimDuration::from_millis(100),
/// );
/// assert_eq!(ctx.family().name(), "newGoZ");
/// assert!(ctx.detection_window().is_none()); // perfect D3 by default
/// ```
#[derive(Debug, Clone)]
pub struct EstimationContext {
    family: DgaFamily,
    ttl: TtlPolicy,
    granularity: SimDuration,
    detection_window: Option<HashSet<DomainName>>,
    tables: SharedStirling,
    kernel: SegmentKernelCache,
    pools: Arc<Mutex<BTreeMap<u64, PoolIndexSlot>>>,
}

impl EstimationContext {
    /// Creates a context with a perfect (full-pool) detection window and
    /// the default (quantized) segment-kernel cache.
    pub fn new(family: DgaFamily, ttl: TtlPolicy, granularity: SimDuration) -> Self {
        EstimationContext {
            family,
            ttl,
            granularity,
            detection_window: None,
            tables: SharedStirling::new(),
            kernel: SegmentKernelCache::default(),
            pools: Arc::default(),
        }
    }

    /// Replaces the segment-kernel cache — e.g.
    /// [`SegmentKernelCache::exact`] to turn ρ quantization off and make
    /// cached estimation bit-identical to the uncached kernel.
    #[must_use]
    pub fn with_kernel_cache(mut self, kernel: SegmentKernelCache) -> Self {
        self.kernel = kernel;
        self
    }

    /// Restricts the context to an imperfect D3 detection window: only
    /// `known` domains were detectable (and therefore matched upstream).
    #[must_use]
    pub fn with_detection_window(mut self, known: HashSet<DomainName>) -> Self {
        self.detection_window = Some(known);
        self
    }

    /// The targeted DGA family.
    pub fn family(&self) -> &DgaFamily {
        &self.family
    }

    /// The network's cache TTL policy (`δl` for negative caching).
    pub fn ttl(&self) -> TtlPolicy {
        self.ttl
    }

    /// Timestamp granularity of the observed trace.
    pub fn granularity(&self) -> SimDuration {
        self.granularity
    }

    /// The D3 detection window, if imperfect (`None` = full pool known).
    pub fn detection_window(&self) -> Option<&HashSet<DomainName>> {
        self.detection_window.as_ref()
    }

    /// The shared combinatorics cache (Stirling triangle + `ln_binomial`
    /// rows). Cloning the context — as `BotMeter::chart` effectively does
    /// by handing `&ctx` to every landscape cell — shares the underlying
    /// tables, so the triangle is filled once per chart instead of once
    /// per cell.
    pub fn tables(&self) -> &SharedStirling {
        &self.tables
    }

    /// The shared Theorem-1 segment-kernel memo table
    /// ([`SegmentKernelCache`]): like [`tables`](Self::tables), handing the
    /// context to every landscape cell shares one memo table across the
    /// whole chart, so a segment shape priced for one cell is a cache hit
    /// for every other cell, epoch and fixpoint round.
    pub fn kernel_cache(&self) -> &SegmentKernelCache {
        &self.kernel
    }

    /// The indexed query pool of `epoch`, built on first use and shared —
    /// like [`tables`](Self::tables) — by every cell, estimator and
    /// charting round that holds this context (or a clone of it): two
    /// cells of one epoch, or two `botmeterd` publishes, generate and index
    /// the pool once. Callers racing for a missing epoch wait for one
    /// build; other epochs build concurrently.
    pub fn pool_index(&self, epoch: u64) -> Arc<PoolIndex> {
        // The evicted pool is freed after the lock is released.
        let (slot, _evicted) = {
            let mut pools = self.pools.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = Arc::clone(pools.entry(epoch).or_default());
            let evicted = (pools.len() > POOL_INDEX_EPOCHS).then(|| {
                let oldest = pools.keys().copied().find(|&e| e != epoch);
                pools.remove(&oldest.expect("more than one epoch is held"))
            });
            (slot, evicted)
        };
        Arc::clone(slot.get_or_init(|| Arc::new(PoolIndex::build(&self.family, epoch))))
    }

    /// Whether a domain is inside the detection window (always true when
    /// the window is perfect).
    pub fn detectable(&self, domain: &DomainName) -> bool {
        self.detection_window
            .as_ref()
            .is_none_or(|w| w.contains(domain))
    }

    /// The epoch the (single-epoch) lookup slice belongs to: the epoch of
    /// its first lookup. `None` for an empty slice.
    pub fn epoch_of(&self, lookups: &[ObservedLookup]) -> Option<u64> {
        lookups
            .first()
            .map(|l| l.t.epoch_day(self.family.epoch_len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dns::{ServerId, SimInstant};

    #[test]
    fn accessors_and_defaults() {
        let ctx = EstimationContext::new(
            DgaFamily::murofet(),
            TtlPolicy::paper_default(),
            SimDuration::from_millis(100),
        );
        assert_eq!(ctx.ttl().negative(), SimDuration::from_hours(2));
        assert_eq!(ctx.granularity(), SimDuration::from_millis(100));
        assert!(ctx.detectable(&"anything.example".parse().unwrap()));
    }

    #[test]
    fn detection_window_limits_detectable() {
        let known: HashSet<DomainName> = ["a.example".parse().unwrap()].into_iter().collect();
        let ctx = EstimationContext::new(
            DgaFamily::murofet(),
            TtlPolicy::paper_default(),
            SimDuration::ZERO,
        )
        .with_detection_window(known);
        assert!(ctx.detectable(&"a.example".parse().unwrap()));
        assert!(!ctx.detectable(&"b.example".parse().unwrap()));
        assert_eq!(ctx.detection_window().unwrap().len(), 1);
    }

    #[test]
    fn epoch_of_lookup_slices() {
        let ctx = EstimationContext::new(
            DgaFamily::murofet(),
            TtlPolicy::paper_default(),
            SimDuration::ZERO,
        );
        assert_eq!(ctx.epoch_of(&[]), None);
        let lookup = ObservedLookup::new(
            SimInstant::ZERO + SimDuration::from_hours(30),
            ServerId(1),
            "a.example".parse().unwrap(),
        );
        assert_eq!(ctx.epoch_of(&[lookup]), Some(1));
    }

    #[test]
    fn pool_index_equals_the_per_call_derivation() {
        for family in [DgaFamily::new_goz(), DgaFamily::conficker_c()] {
            let ctx = EstimationContext::new(
                family.clone(),
                TtlPolicy::paper_default(),
                SimDuration::ZERO,
            );
            for epoch in [0u64, 3] {
                let index = ctx.pool_index(epoch);
                let pool = family.pool_for_epoch(epoch);
                let positions: FxHashMap<_, usize> = pool
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (d.clone(), i))
                    .collect();
                let valid = family.valid_indices(epoch);
                assert_eq!(index.pool(), &pool[..]);
                assert_eq!(index.valid(), &valid[..]);
                for (i, domain) in pool.iter().enumerate() {
                    assert_eq!(index.position(domain), positions.get(domain).copied());
                    assert_eq!(index.is_valid(i), valid.contains(&i));
                }
                let foreign = family.pool_for_epoch(epoch + 50)[0].clone();
                assert_eq!(index.position(&foreign), positions.get(&foreign).copied());
            }
        }
    }

    #[test]
    fn pool_index_is_built_once_per_epoch_and_shared_by_clones() {
        let ctx = EstimationContext::new(
            DgaFamily::new_goz(),
            TtlPolicy::paper_default(),
            SimDuration::ZERO,
        );
        let first = ctx.pool_index(2);
        assert!(Arc::ptr_eq(&first, &ctx.pool_index(2)));
        assert!(Arc::ptr_eq(&first, &ctx.clone().pool_index(2)));
        assert!(!Arc::ptr_eq(&first, &ctx.pool_index(3)));
        // Two cells of epoch 2 through an estimator: same index after.
        let lookups: Vec<ObservedLookup> = first.pool()[..40]
            .iter()
            .map(|d| {
                ObservedLookup::new(
                    SimInstant::ZERO + SimDuration::from_hours(49),
                    ServerId(1),
                    d.clone(),
                )
            })
            .collect();
        use crate::Estimator;
        let a = crate::CoverageEstimator.estimate(&lookups, &ctx);
        let b = crate::CoverageEstimator.estimate(&lookups[..20], &ctx);
        assert!(a > 0.0 && b > 0.0);
        assert!(Arc::ptr_eq(&first, &ctx.pool_index(2)));
    }

    #[test]
    fn pool_index_keeps_a_bounded_window_of_epochs() {
        let ctx = EstimationContext::new(
            DgaFamily::murofet(),
            TtlPolicy::paper_default(),
            SimDuration::ZERO,
        );
        let oldest = ctx.pool_index(0);
        for epoch in 1..=POOL_INDEX_EPOCHS as u64 {
            ctx.pool_index(epoch);
        }
        let held = ctx.pools.lock().unwrap();
        assert_eq!(held.len(), POOL_INDEX_EPOCHS);
        assert!(!held.contains_key(&0), "the oldest epoch went first");
        drop(held);
        // Asked for again, it is rebuilt to the same content.
        let rebuilt = ctx.pool_index(0);
        assert!(!Arc::ptr_eq(&oldest, &rebuilt));
        assert_eq!(oldest.pool(), rebuilt.pool());
    }
}
