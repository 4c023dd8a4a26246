//! The Bernoulli estimator `MB` — §IV-D.
//!
//! The density fixpoint has one driver: the lockstep loop in
//! [`Estimator::estimate_batch`], which advances every cell of a chart
//! round by round over the shared segment-kernel cache.
//! [`Estimator::estimate`] is that loop on a batch of one.

use crate::config::EstimationContext;
use crate::estimator::{CellSlice, Estimator};
use crate::kernel::{KernelKey, ShapeKey};
use crate::segments::{extract_segments, Segment};
use crate::theorem1::KernelStats;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_obs::{saturating_ns, Obs};
use std::collections::{BTreeSet, HashMap};

/// `MB`: the estimator for randomcut-barrel DGAs (`AR`, e.g. newGoZ).
///
/// `AR` imposes a global circular order on the pool; each bot queries `θq`
/// consecutive positions from a random start, stopping early at an arc
/// boundary (a registered C2 domain). The distinct NXDs observed during an
/// epoch therefore form *segments* whose lengths and endpoints encode the
/// bot count: `MB` extracts the segments
/// ([`extract_segments`](crate::extract_segments)), applies Theorem 1 to
/// each ([`expected_bots_for_segment`](crate::expected_bots_for_segment))
/// and sums.
///
/// Because it consumes only the *set* of queried NXDs, `MB` is immune to
/// negative-cache masking, timestamp granularity and activation-rate
/// dynamics — but directly exposed to D3 detection-window misses, exactly
/// the trade-off Fig. 6 reports.
///
/// The per-segment posterior needs a prior start density `ρ = N/P` (see
/// [`crate::expected_bots_for_segment`]); since `N` is what we are
/// estimating, the estimator runs a fixpoint: start from the deterministic
/// lower bound `Σ ⌈l/θq⌉`, estimate, feed the estimate back as the prior,
/// repeat. The map is a contraction, and a secant-accelerated step
/// ([`DensityFixpoint`]) drives it to convergence at the
/// [`SegmentKernelCache`](crate::SegmentKernelCache) ρ resolution — the
/// final round re-probes the keys the previous one cached, so a converged
/// cell costs only memo hits.
///
/// See the faithfulness note on [`crate::expected_bots_for_segment`]: the
/// printed Theorem 1 needed reconstruction, and
/// [`CoverageEstimator`](crate::CoverageEstimator) serves as the
/// independently-derived cross-check for this taxonomy cell.
///
/// # Detection-window handling
///
/// By default the estimator is *window-aware*: positions outside the D3
/// detection window are treated as unobservable and spliced out of the
/// circle (with `θq` scaled accordingly) rather than read as "not
/// queried". The paper's MB evidently lacked this repair — its Fig. 6(e)
/// error grows steeply with the missing rate, which is exactly what
/// [`window_naive`](Self::window_naive) reproduces: every hidden domain
/// shatters covered arcs into extra segments, each billed for at least one
/// bot.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliEstimator {
    window_aware: bool,
}

/// Hard cap on fixpoint rounds for the prior start density (the loop
/// normally stops much earlier, as soon as the density converges at the
/// kernel cache's ρ resolution).
const MAX_FIXPOINT_ROUNDS: usize = 32;

/// Secant-accelerated fixpoint iteration on one cell's start density.
///
/// Plain Picard iteration `N̂ ← F(N̂)` contracts slowly near saturation
/// (~0.7 ratio per round at the pipeline-bench scale, i.e. dozens of
/// rounds to reach the cache grid), so once two iterates exist the step
/// switches to the secant update on the residual `g(x) = F(x) − x`,
/// falling back to the Picard step whenever the secant step is undefined
/// or leaves the valid domain. Convergence is detected at the
/// [`SegmentKernelCache`](crate::SegmentKernelCache) ρ resolution: when two
/// successive evaluations snap to the same density, the second probes
/// exactly the keys the first cached — pure memo hits returning
/// bit-identical values — so iterating further cannot change the estimate.
struct DensityFixpoint {
    circle_len: f64,
    /// Current iterate (bot count).
    x: f64,
    /// Previous iterate and its residual, for the secant step.
    prev: Option<(f64, f64)>,
    /// Snapped density (bit pattern) of the previous kernel evaluation.
    last_snap: Option<u64>,
    estimate: f64,
    converged: bool,
}

impl DensityFixpoint {
    fn new(initial: f64, circle_len: usize) -> Self {
        DensityFixpoint {
            circle_len: circle_len as f64,
            x: initial,
            prev: None,
            last_snap: None,
            estimate: initial,
            converged: false,
        }
    }

    /// The prior start density the next kernel evaluation runs at.
    fn density(&self) -> f64 {
        (self.x / self.circle_len).max(1e-9)
    }

    /// Feeds back one evaluation: `f = F(x)` at the current density,
    /// `snapped_bits` the bit pattern of the snapped density it keyed on.
    fn advance(&mut self, f: f64, snapped_bits: u64) {
        self.estimate = f;
        if self.last_snap == Some(snapped_bits) {
            self.converged = true;
            return;
        }
        self.last_snap = Some(snapped_bits);
        let g = f - self.x;
        let next = match self.prev {
            Some((x_prev, g_prev)) if g != g_prev => {
                let step = self.x - g * (self.x - x_prev) / (g - g_prev);
                if step.is_finite() && step > 0.0 {
                    step
                } else {
                    f
                }
            }
            _ => f,
        };
        self.prev = Some((self.x, g));
        self.x = next;
    }
}

/// Everything `MB` derives from one cell's lookups before any kernel
/// evaluation: the extracted segments, the (possibly window-scaled) barrel
/// size and circle length, and the deterministic lower-bound estimate the
/// fixpoint starts from.
struct CellPlan {
    segments: Vec<Segment>,
    theta_q: usize,
    circle_len: usize,
    initial: f64,
}

impl BernoulliEstimator {
    /// The paper-faithful variant that ignores the detection window when
    /// extracting segments (used by the Fig. 6(e) reproduction to show
    /// the degradation the paper reports).
    pub fn window_naive() -> Self {
        BernoulliEstimator {
            window_aware: false,
        }
    }

    /// Extracts one cell's segments and fixpoint seed; `None` when the
    /// cell contributes nothing (no in-pool NXD sightings).
    fn plan(&self, lookups: &[ObservedLookup], ctx: &EstimationContext) -> Option<CellPlan> {
        if lookups.is_empty() {
            return None;
        }
        let family = ctx.family();
        let epoch = ctx.epoch_of(lookups).expect("non-empty slice");
        let index = ctx.pool_index(epoch);
        let pool = index.pool();

        // Distinct observed NXD positions (valid-domain sightings carry no
        // segment information; domains from other epochs' pools are dropped).
        let mut nxd_positions: BTreeSet<usize> = BTreeSet::new();
        for lookup in lookups {
            if let Some(i) = index.position(&lookup.domain) {
                if !index.is_valid(i) {
                    nxd_positions.insert(i);
                }
            }
        }
        if nxd_positions.is_empty() {
            return None;
        }
        // With an imperfect D3 detection window, positions outside the
        // window are simply *unobservable* — treating them as "not
        // queried" would shatter every covered arc into one fragment per
        // known domain and overcount wildly. Instead, work on the
        // compressed circle of detectable positions (valid domains stay as
        // boundaries) and scale θq by the detectable fraction: a barrel of
        // θq consecutive true positions covers ≈ θq·w/P detectable ones.
        let (positions, valid, circle_len, theta_q) =
            if self.window_aware && ctx.detection_window().is_some() {
                let mut compressed_of_pool: Vec<Option<usize>> = vec![None; pool.len()];
                let mut kept = 0usize;
                for (i, domain) in pool.iter().enumerate() {
                    if index.is_valid(i) || ctx.detectable(domain) {
                        compressed_of_pool[i] = Some(kept);
                        kept += 1;
                    }
                }
                let positions: Vec<usize> = nxd_positions
                    .iter()
                    .filter_map(|&i| compressed_of_pool[i])
                    .collect();
                let valid_c: Vec<usize> = index
                    .valid()
                    .iter()
                    .filter_map(|&i| compressed_of_pool[i])
                    .collect();
                let theta_q = family.params().theta_q();
                let scaled = ((theta_q as f64) * kept as f64 / pool.len() as f64)
                    .round()
                    .max(1.0) as usize;
                (positions, valid_c, kept, scaled)
            } else {
                let positions: Vec<usize> = nxd_positions.into_iter().collect();
                let valid = index.valid().to_vec();
                (positions, valid, pool.len(), family.params().theta_q())
            };
        if positions.is_empty() {
            return None;
        }
        let segments = extract_segments(&positions, &valid, circle_len);
        let initial = segments
            .iter()
            .map(|s| (s.len as f64 / theta_q as f64).ceil().max(1.0))
            .sum();
        Some(CellPlan {
            segments,
            theta_q,
            circle_len,
            initial,
        })
    }
}

impl Default for BernoulliEstimator {
    fn default() -> Self {
        BernoulliEstimator { window_aware: true }
    }
}

impl Estimator for BernoulliEstimator {
    fn name(&self) -> &'static str {
        "Bernoulli"
    }

    /// The one-cell, [`ExecPolicy::Sequential`], unobserved call of
    /// [`estimate_batch`](Self::estimate_batch): `MB`'s density fixpoint is
    /// driven from one place, so a cell estimated alone cannot drift from
    /// the same cell estimated inside a chart.
    fn estimate(&self, lookups: &[ObservedLookup], ctx: &EstimationContext) -> f64 {
        // The epoch only labels a latency histogram, which `noop` drops.
        let cell = CellSlice { epoch: 0, lookups };
        self.estimate_batch(&[cell], ctx, ExecPolicy::Sequential, &Obs::noop())[0]
    }

    /// Per-*segment* batch scheduling: all cells advance through the
    /// fixpoint in lockstep, and each round flattens every cell's segments
    /// into one work list — probed against the shared
    /// [`SegmentKernelCache`](crate::SegmentKernelCache), deduplicated, and
    /// only the *distinct missing keys* fanned out through `botmeter-exec`,
    /// one task per distinct shape. One huge server's segments therefore
    /// spread across all workers instead of serializing behind a single
    /// per-cell task.
    ///
    /// Determinism: the probe/dedup pass runs on the calling thread in
    /// (cell, segment) order, a worker prices its shape's pending densities
    /// against rows no other worker touches (every row entry a pure
    /// function of its indices, every value bit-identical to a fresh-table
    /// evaluation), results are inserted back in first-seen key order and
    /// summed per cell in segment order — so estimates, both cache tables
    /// at every round barrier, and the `chart.kernel.*` /
    /// `chart.segments.scheduled` counters are all independent of
    /// [`ExecPolicy`] and of which other cells share the batch:
    /// [`estimate`](Self::estimate) is this function on one cell.
    fn estimate_batch(
        &self,
        cells: &[CellSlice<'_>],
        ctx: &EstimationContext,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> Vec<f64> {
        let tables = ctx.tables();
        let cache = ctx.kernel_cache();

        // Phase A: per-cell planning (pool indexing + segment extraction),
        // one task per cell.
        let mut cell_ns = vec![0u64; cells.len()];
        let plan_cell = |i: usize| -> (Option<CellPlan>, u64) {
            let start = obs.clock();
            let plan = self.plan(cells[i].lookups, ctx);
            let ns = start.map_or(0, |t| saturating_ns(t.elapsed()));
            (plan, ns)
        };
        let planned: Vec<(Option<CellPlan>, u64)> = if !policy.is_sequential() && cells.len() > 1 {
            botmeter_exec::run_indexed_with(policy, obs, cells.len(), plan_cell)
        } else {
            (0..cells.len()).map(plan_cell).collect()
        };
        let mut plans: Vec<Option<CellPlan>> = Vec::with_capacity(cells.len());
        for (i, (plan, ns)) in planned.into_iter().enumerate() {
            cell_ns[i] += ns;
            plans.push(plan);
        }
        let mut fixpoints: Vec<Option<DensityFixpoint>> = plans
            .iter()
            .map(|p| {
                p.as_ref()
                    .map(|p| DensityFixpoint::new(p.initial, p.circle_len))
            })
            .collect();
        let mut estimates: Vec<f64> = plans
            .iter()
            .map(|p| p.as_ref().map_or(0.0, |p| p.initial))
            .collect();

        // Counter totals, accumulated locally and published once.
        let mut memo_hits = 0u64;
        let mut memo_misses = 0u64;
        let mut scheduled = 0u64;
        let mut kernel_stats = KernelStats::default();

        // Fixpoint rounds in lockstep across cells; a cell drops out of
        // the round as soon as its own density converges, exactly as its
        // sequential fixpoint would stop. Per (cell, segment) task: the
        // cached value, or an index into this round's deduped missing-key
        // list.
        enum Slot {
            Hit(f64),
            Pending(usize),
        }
        for _ in 0..MAX_FIXPOINT_ROUNDS {
            let active = |f: &Option<DensityFixpoint>| f.as_ref().is_some_and(|f| !f.converged);
            if !fixpoints.iter().any(active) {
                break;
            }
            let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(cells.len());
            // The snapped-density bits each active cell keyed this round on.
            let mut round_snaps: Vec<Option<u64>> = vec![None; cells.len()];
            let mut missing: Vec<KernelKey> = Vec::new();
            let mut missing_index: HashMap<KernelKey, usize> = HashMap::new();
            for (i, plan) in plans.iter().enumerate() {
                let (Some(plan), fixpoint) = (plan, &fixpoints[i]) else {
                    slots.push(Vec::new());
                    continue;
                };
                if !active(fixpoint) {
                    slots.push(Vec::new());
                    continue;
                }
                let fixpoint = fixpoint.as_ref().expect("active implies present");
                let start = obs.clock();
                let density = fixpoint.density();
                round_snaps[i] = Some(cache.snap_rho(density).to_bits());
                let mut cell_slots = Vec::with_capacity(plan.segments.len());
                for s in &plan.segments {
                    let key = cache.key(s.kind, s.len, plan.theta_q, density);
                    match cache.get(&key) {
                        Some(v) => {
                            memo_hits += 1;
                            cell_slots.push(Slot::Hit(v));
                        }
                        None => {
                            // A key already pending this round is served by
                            // the shared compute — a hit; only the first
                            // sighting of a shape is a miss and gets
                            // scheduled.
                            let idx = match missing_index.get(&key) {
                                Some(&idx) => {
                                    memo_hits += 1;
                                    idx
                                }
                                None => {
                                    memo_misses += 1;
                                    missing.push(key);
                                    missing_index.insert(key, missing.len() - 1);
                                    missing.len() - 1
                                }
                            };
                            cell_slots.push(Slot::Pending(idx));
                        }
                    }
                }
                slots.push(cell_slots);
                if let Some(t) = start {
                    cell_ns[i] += saturating_ns(t.elapsed());
                }
            }

            // Compute the distinct missing keys — the flattened per-segment
            // work list the policy schedules — as one task per distinct
            // *shape*: a task prices its shape's pending densities in
            // first-seen key order against the shape's shared rows, so no
            // two workers ever wait on one shape's lock.
            scheduled += missing.len() as u64;
            let mut by_shape: Vec<Vec<usize>> = Vec::new();
            let mut shape_index: HashMap<ShapeKey, usize> = HashMap::new();
            for (k, key) in missing.iter().enumerate() {
                let g = *shape_index.entry(key.shape()).or_insert_with(|| {
                    by_shape.push(Vec::new());
                    by_shape.len() - 1
                });
                by_shape[g].push(k);
            }
            let compute = |g: usize| -> Vec<(f64, KernelStats)> {
                by_shape[g]
                    .iter()
                    .map(|&k| cache.compute(&missing[k], tables))
                    .collect()
            };
            let per_shape: Vec<Vec<(f64, KernelStats)>> =
                if !policy.is_sequential() && by_shape.len() > 1 {
                    botmeter_exec::run_indexed_with(policy, obs, by_shape.len(), compute)
                } else {
                    (0..by_shape.len()).map(compute).collect()
                };
            let mut computed = vec![0.0f64; missing.len()];
            for (keys, evals) in by_shape.iter().zip(&per_shape) {
                for (&k, (value, stats)) in keys.iter().zip(evals) {
                    computed[k] = *value;
                    kernel_stats.merge(*stats);
                }
            }
            for (key, value) in missing.iter().zip(&computed) {
                cache.insert(*key, *value);
            }

            // Deterministic reduction: per-cell sum in segment order, fed
            // back into the cell's fixpoint state.
            for (i, cell_slots) in slots.iter().enumerate() {
                let Some(snapped) = round_snaps[i] else {
                    continue;
                };
                let start = obs.clock();
                let f: f64 = cell_slots
                    .iter()
                    .map(|slot| match slot {
                        Slot::Hit(v) => *v,
                        Slot::Pending(k) => computed[*k],
                    })
                    .sum();
                let fixpoint = fixpoints[i].as_mut().expect("active implies present");
                fixpoint.advance(f, snapped);
                estimates[i] = fixpoint.estimate;
                if let Some(t) = start {
                    cell_ns[i] += saturating_ns(t.elapsed());
                }
            }
        }

        obs.counter_add("chart.kernel.memo_hits", memo_hits);
        obs.counter_add("chart.kernel.memo_misses", memo_misses);
        obs.counter_add(
            "chart.kernel.gap_tables_built",
            kernel_stats.gap_tables_built,
        );
        obs.counter_add(
            "chart.kernel.gap_table_reuse",
            kernel_stats.gap_table_reuses,
        );
        obs.counter_add(
            "chart.kernel.config_entries_computed",
            kernel_stats.config_entries_computed,
        );
        obs.counter_add(
            "chart.kernel.config_entries_reused",
            kernel_stats.config_entries_reused,
        );
        obs.counter_add("chart.segments.scheduled", scheduled);
        // Neither table evicts: the memo grows with every distinct density
        // ever priced, the shape table with every distinct shape.
        obs.gauge_max("chart.kernel.memo_entries", cache.len() as u64);
        obs.gauge_max("chart.kernel.shape_entries", cache.shape_count() as u64);
        if obs.enabled() {
            for (cell, &ns) in cells.iter().zip(&cell_ns) {
                obs.observe_ns("chart.estimate_ns", ns);
                obs.observe_ns(&format!("chart.epoch{}.estimate_ns", cell.epoch), ns);
            }
        }
        estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absolute_relative_error;
    use botmeter_dga::DgaFamily;
    use botmeter_dns::{ServerId, SimDuration, SimInstant, TtlPolicy};
    use botmeter_sim::ScenarioSpec;

    fn ctx(family: DgaFamily) -> EstimationContext {
        EstimationContext::new(
            family,
            TtlPolicy::paper_default(),
            SimDuration::from_millis(100),
        )
    }

    #[test]
    fn empty_stream_is_zero() {
        assert_eq!(
            BernoulliEstimator::default().estimate(&[], &ctx(DgaFamily::new_goz())),
            0.0
        );
    }

    #[test]
    fn single_bot_trace_estimates_near_one() {
        // Hand-build one bot's worth of lookups: θq consecutive NXDs that
        // do not touch a boundary (an m-segment).
        let family = DgaFamily::new_goz();
        let pool = family.pool_for_epoch(0);
        let valid: BTreeSet<usize> = family.valid_indices(0).into_iter().collect();
        // Find a stretch of θq positions with no valid domain inside or
        // adjacent.
        let theta_q = family.params().theta_q();
        let start = (0..pool.len())
            .find(|&s| (s..=s + theta_q).all(|i| !valid.contains(&(i % pool.len()))))
            .expect("10k pool with 5 valid domains has such a stretch");
        let lookups: Vec<ObservedLookup> = (0..theta_q)
            .map(|k| {
                ObservedLookup::new(
                    SimInstant::from_millis(1000 * k as u64),
                    ServerId(1),
                    pool[(start + k) % pool.len()].clone(),
                )
            })
            .collect();
        let est = BernoulliEstimator::default().estimate(&lookups, &ctx(family));
        assert!((est - 1.0).abs() < 1e-2, "one full barrel ⇒ one bot: {est}");
    }

    #[test]
    fn foreign_domains_are_ignored() {
        let family = DgaFamily::new_goz();
        let lookups = vec![ObservedLookup::new(
            SimInstant::ZERO,
            ServerId(1),
            "unrelated.example".parse().unwrap(),
        )];
        assert_eq!(
            BernoulliEstimator::default().estimate(&lookups, &ctx(family)),
            0.0
        );
    }

    #[test]
    fn small_population_end_to_end() {
        // In the unsaturated regime MB should land in the right ballpark.
        let mut errors = Vec::new();
        for seed in 0..4 {
            let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
                .population(16)
                .seed(seed)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let c = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            let est = BernoulliEstimator::default().estimate(outcome.observed(), &c);
            errors.push(absolute_relative_error(
                est,
                outcome.ground_truth()[0] as f64,
            ));
        }
        let mean: f64 = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 1.0, "mean ARE {mean} ({errors:?})");
    }

    #[test]
    fn estimate_grows_with_population() {
        let run = |n: u64| {
            let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
                .population(n)
                .seed(77)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let c = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            BernoulliEstimator::default().estimate(outcome.observed(), &c)
        };
        let small = run(8);
        let large = run(64);
        assert!(
            large > small,
            "estimate should grow with N: {small} vs {large}"
        );
    }

    #[test]
    fn one_cell_estimate_equals_its_slot_in_a_lockstep_batch() {
        // Two cells of different size, so their fixpoints converge in
        // different rounds and the batch keeps iterating one after the
        // other dropped out.
        let cell = |n: u64, seed: u64| {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .population(n)
                .seed(seed)
                .build()
                .unwrap()
                .run(ExecPolicy::default())
                .observed()
                .to_vec()
        };
        let (small, large) = (cell(8, 3), cell(48, 4));
        let mb = BernoulliEstimator::default();
        let slice = |lookups| CellSlice { epoch: 0, lookups };
        for (first, second) in [(&small, &large), (&large, &small)] {
            // Alone first, then batched, on one shared context — and the
            // other way round on another — so neither a warm nor a cold
            // cache can tell the two spellings apart.
            let shared = ctx(DgaFamily::new_goz());
            let alone = [mb.estimate(first, &shared), mb.estimate(second, &shared)];
            let batched = mb.estimate_batch(
                &[slice(first), slice(second)],
                &shared,
                ExecPolicy::with_threads(2),
                &Obs::noop(),
            );
            let cold = ctx(DgaFamily::new_goz());
            let batched_cold = mb.estimate_batch(
                &[slice(first), slice(second)],
                &cold,
                ExecPolicy::Sequential,
                &Obs::noop(),
            );
            let alone_after = [mb.estimate(first, &cold), mb.estimate(second, &cold)];
            for i in 0..2 {
                assert!(alone[i] > 0.0);
                assert_eq!(alone[i].to_bits(), batched[i].to_bits());
                assert_eq!(alone[i].to_bits(), batched_cold[i].to_bits());
                assert_eq!(alone[i].to_bits(), alone_after[i].to_bits());
            }
        }
    }

    #[test]
    fn estimator_name() {
        assert_eq!(BernoulliEstimator::default().name(), "Bernoulli");
    }
}
