//! Estimation context: everything an estimator knows besides the lookups.

use crate::kernel::SegmentKernelCache;
use botmeter_dga::DgaFamily;
use botmeter_dns::{DomainName, FxHashMap, SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use botmeter_stats::SharedStirling;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// One epoch's query pool as generated: the ordered names and the
/// registered (valid) positions. A pure function of `(family, epoch)`,
/// generated once per chart ([`PoolTable`]) and read by both the chart's
/// matcher, which pins it, and the set-statistic estimators.
#[derive(Debug)]
pub(crate) struct EpochPool {
    pub(crate) names: Vec<DomainName>,
    valid: Vec<usize>,
}

/// One epoch's query pool, indexed by position and by name, with the
/// registered (valid) positions beside it: what a
/// [`CellStats`](crate::CellStats) derives its positions, distinct and
/// volume lanes against. Handed out by [`EstimationContext::pool_index`];
/// the name → position map is built by the first
/// [`position`](Self::position) call, so a chart whose model reads only
/// lookups (`MP`, `MT`) never pays for it.
#[derive(Debug)]
pub struct PoolIndex {
    pub(crate) pool: Arc<EpochPool>,
    positions: OnceLock<FxHashMap<DomainName, usize>>,
}

impl PoolIndex {
    /// The ordered query pool.
    pub fn pool(&self) -> &[DomainName] {
        &self.pool.names
    }

    /// The pool position of `domain` (the last one, should a dictionary
    /// pool repeat a name); `None` for a name outside this epoch's pool.
    pub fn position(&self, domain: &DomainName) -> Option<usize> {
        let positions = self.positions.get_or_init(|| {
            let names = self.pool.names.iter().enumerate();
            names.map(|(i, d)| (d.clone(), i)).collect()
        });
        positions.get(domain).copied()
    }

    /// Positions of the registered domains, ascending and distinct.
    pub fn valid(&self) -> &[usize] {
        &self.pool.valid
    }

    /// Whether position `i` holds a registered domain.
    pub fn is_valid(&self, i: usize) -> bool {
        self.pool.valid.binary_search(&i).is_ok()
    }
}

/// How many epochs' [`PoolIndex`] one pool table keeps before dropping the
/// lowest-numbered one. It bounds what nothing else pins: the name →
/// position map (≈0.65 MB for a 10 k pool) and the pools of a context
/// charting without a live matcher (text buffer + `Vec` of names, ≈0.55 MB
/// more). Small on purpose: reuse happens between the cells and publishes
/// of the few epochs around a stream's head, and a long-running `botmeterd`
/// must not hold a map per day it ever saw — the pools themselves it holds
/// through its matcher, whose set pins their text anyway, for exactly its
/// configured epoch window. (4 and 32 measure the same — DESIGN.md §12.) A
/// dropped epoch asked for again is re-indexed; its pool is generated again
/// only if no matcher holds it.
const POOL_INDEX_EPOCHS: usize = 4;

type PoolIndexSlot = Arc<OnceLock<Arc<PoolIndex>>>;

#[derive(Debug, Default)]
struct HeldPools {
    /// Every pool a matcher or an index still holds, by epoch. Weak: the
    /// table finds a pinned pool however long ago it was generated, and
    /// keeps none alive itself.
    live: BTreeMap<u64, Weak<EpochPool>>,
    /// The last [`POOL_INDEX_EPOCHS`] epochs' indices, strongly.
    window: BTreeMap<u64, PoolIndexSlot>,
}

/// One chart's pools: the single place a `(family, epoch)` pool is
/// generated in this crate. A [`BotMeter`](crate::BotMeter) owns one and
/// hands it to the matchers and estimation contexts it makes, so
/// [`matcher_for`](crate::BotMeter::matcher_for) and the estimators read
/// one generation of each epoch; clones share the table.
#[derive(Debug, Clone, Default)]
pub(crate) struct PoolTable {
    held: Arc<Mutex<HeldPools>>,
    obs: Obs,
}

impl PoolTable {
    /// The same table reporting `chart.pools_built` (one per pool
    /// generated) through `obs`.
    pub(crate) fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn held(&self) -> MutexGuard<'_, HeldPools> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool of `epoch`: the live one while anything holds it,
    /// generated (outside the lock) otherwise. Callers racing for a missing
    /// epoch each generate it and the first to register wins, so holders
    /// of one epoch always share one pool.
    fn pool(&self, family: &DgaFamily, epoch: u64) -> Arc<EpochPool> {
        if let Some(live) = self.held().live.get(&epoch).and_then(Weak::upgrade) {
            return live;
        }
        let built = Arc::new(EpochPool {
            names: family.pool_for_epoch(epoch),
            valid: family.valid_indices(epoch),
        });
        self.obs.counter_add("chart.pools_built", 1);
        let mut held = self.held();
        held.live.retain(|_, pool| pool.strong_count() > 0);
        match held.live.get(&epoch).and_then(Weak::upgrade) {
            Some(first) => first,
            None => {
                held.live.insert(epoch, Arc::downgrade(&built));
                built
            }
        }
    }

    /// The pools of `epochs` in epoch order, the missing ones generated
    /// one job per epoch across `policy`'s workers.
    pub(crate) fn pools(
        &self,
        family: &DgaFamily,
        epochs: Range<u64>,
        policy: ExecPolicy,
    ) -> Vec<Arc<EpochPool>> {
        let jobs = epochs.end.saturating_sub(epochs.start) as usize;
        botmeter_exec::run_indexed_with(policy, &self.obs, jobs, |i| {
            self.pool(family, epochs.start + i as u64)
        })
    }

    /// [`EstimationContext::pool_index`] on this table.
    fn index(&self, family: &DgaFamily, epoch: u64) -> Arc<PoolIndex> {
        // The evicted index is freed after the lock is released.
        let (slot, _evicted) = {
            let mut held = self.held();
            let slot = Arc::clone(held.window.entry(epoch).or_default());
            let evicted = (held.window.len() > POOL_INDEX_EPOCHS).then(|| {
                let oldest = held.window.keys().copied().find(|&e| e != epoch);
                held.window
                    .remove(&oldest.expect("more than one epoch is held"))
            });
            (slot, evicted)
        };
        Arc::clone(slot.get_or_init(|| {
            Arc::new(PoolIndex {
                pool: self.pool(family, epoch),
                positions: OnceLock::new(),
            })
        }))
    }
}

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
    pools: PoolTable,
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
            pools: PoolTable::default(),
        }
    }

    /// Reads pools from `pools` — the table of the [`BotMeter`](crate::BotMeter)
    /// that made this context — instead of a private one.
    #[must_use]
    pub(crate) fn with_pool_table(mut self, pools: PoolTable) -> Self {
        self.pools = pools;
        self
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

    /// The indexed query pool of `epoch`, shared — like
    /// [`tables`](Self::tables) — by every cell, estimator and charting
    /// round that holds this context (or a clone of it), and, for a context
    /// made by [`BotMeter::estimation_context`](crate::BotMeter::estimation_context),
    /// with the meter's matchers: the pool a live
    /// [`ChartMatcher`](crate::ChartMatcher) was built from is the pool
    /// indexed here, not a second generation. Callers racing for a missing
    /// epoch wait for one build; other epochs build concurrently.
    pub fn pool_index(&self, epoch: u64) -> Arc<PoolIndex> {
        self.pools.index(&self.family, epoch)
    }

    /// Whether a domain is inside the detection window (always true when
    /// the window is perfect).
    pub fn detectable(&self, domain: &DomainName) -> bool {
        self.detection_window
            .as_ref()
            .is_none_or(|w| w.contains(domain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dns::{ObservedLookup, ServerId, SimInstant};

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
        let held = ctx.pools.held();
        assert_eq!(held.window.len(), POOL_INDEX_EPOCHS);
        assert!(!held.window.contains_key(&0), "the oldest epoch went first");
        drop(held);
        // Asked for again, it is rebuilt to the same content.
        let rebuilt = ctx.pool_index(0);
        assert!(!Arc::ptr_eq(&oldest, &rebuilt));
        assert_eq!(oldest.pool(), rebuilt.pool());
    }

    fn live_pools(table: &PoolTable) -> usize {
        let held = table.held();
        held.live.values().filter(|p| p.strong_count() > 0).count()
    }

    #[test]
    fn a_meters_matcher_and_contexts_share_one_pool_per_epoch() {
        let (obs, registry) = Obs::collecting();
        let meter =
            crate::BotMeter::new(crate::BotMeterConfig::new(DgaFamily::new_goz())).with_obs(obs);
        let matcher = meter.matcher_for(0..20);
        let built = || registry.snapshot().counter("chart.pools_built");
        assert_eq!(built(), Some(20));
        // Any context of the meter, however many: the matcher's pools.
        for ctx in [meter.estimation_context(), meter.estimation_context()] {
            for epoch in 0..20 {
                let index = ctx.pool_index(epoch);
                assert!(matcher.shares_pool(&index), "epoch {epoch}");
                assert_eq!(
                    index.pool(),
                    &meter.config().family().pool_for_epoch(epoch)[..]
                );
            }
        }
        // A second matcher over an overlapping window generates only what
        // is missing; a context of its own shares nothing.
        let wider = meter.matcher_for(15..22);
        assert_eq!(built(), Some(22));
        let ctx = meter.estimation_context();
        assert!(wider.shares_pool(&ctx.pool_index(17)) && matcher.shares_pool(&ctx.pool_index(17)));
        let standalone = EstimationContext::new(
            DgaFamily::new_goz(),
            TtlPolicy::paper_default(),
            SimDuration::ZERO,
        );
        assert!(!matcher.shares_pool(&standalone.pool_index(17)));
        assert_eq!(built(), Some(22), "a private table reports nowhere");

        // The matchers pinned every pool; without them the window bounds
        // what the table keeps alive.
        assert_eq!(live_pools(&ctx.pools), 22);
        drop((matcher, wider));
        assert!(live_pools(&ctx.pools) <= POOL_INDEX_EPOCHS);
        for epoch in 0..20 {
            ctx.pool_index(epoch);
            assert!(live_pools(&ctx.pools) <= POOL_INDEX_EPOCHS, "epoch {epoch}");
        }
        assert!(
            ctx.pools.held().live.len() <= POOL_INDEX_EPOCHS + 1,
            "dead entries are pruned"
        );
    }

    #[test]
    fn position_map_is_built_by_the_first_position_call() {
        let ctx = EstimationContext::new(
            DgaFamily::murofet(),
            TtlPolicy::paper_default(),
            SimDuration::ZERO,
        );
        let index = ctx.pool_index(1);
        assert!(index.is_valid(index.valid()[0]));
        assert!(
            index.positions.get().is_none(),
            "pool and valid positions need no map"
        );
        assert_eq!(index.position(&index.pool()[7].clone()), Some(7));
        assert!(index.positions.get().is_some());
    }
}
