//! The Timing estimator `MT` — Algorithm 1 of the paper.

use crate::config::EstimationContext;
use crate::estimator::{CellStats, Estimator, Lane};
use botmeter_dns::{DomainName, FxBuildHasher, FxHashSet, SimInstant};

/// `MT`: attributes lookups to distinct bots using three temporal
/// heuristics (Algorithm 1):
///
/// 1. a bot never queries the same NXD twice within an epoch, so a lookup
///    for a domain an entry already holds cannot be "absorbed" by it;
/// 2. an activation lasts at most `θq·δi`, so entries older than that
///    cannot absorb new lookups;
/// 3. fixed-interval DGAs emit lookups on a `δi` lattice: a lookup whose
///    gap to the entry's start is not a multiple of `δi` belongs to a
///    different bot. (Skipped when the family has no fixed interval —
///    Ramnit/Qakbot's `δi = none` — which is exactly why `MT` collapses on
///    them in Table II. A zero `δi`, which only a deserialised
///    `DgaParams` can carry, spans no lattice either and is treated the
///    same way.)
///
/// Each unabsorbed lookup opens a new entry; the final entry count is the
/// population estimate.
///
/// `MT` is the only estimator applicable to *every* taxonomy cell, but it
/// inherits all the weaknesses the paper demonstrates: caching masks whole
/// bots (fatal for `AU`), and coarse timestamp granularity destroys
/// heuristic 3.
///
/// # Cost: `O(n · live entries)`, on any arrival order
///
/// A lookup goes to the *first* entry, in opening order, that none of the
/// three heuristics rejects. Rejection is a conjunction of three pure
/// tests on `(entry, lookup)`, so the order they run in cannot change
/// which entry that is: the two integer tests (#2, #3) run first and the
/// domain test (#1) last, on the few entries that survive them.
///
/// Entries that #2 rejects are not visited at all. An entry's start
/// `t_star` is the timestamp of the lookup that opened it, so while
/// entries have been opened at non-decreasing timestamps — always, for
/// an in-order cell — `t_star` is sorted in opening order, the expired
/// entries (`t_star + θq·δi <= t`) form a prefix, and a binary search
/// finds where it ends; skipping it drops only entries #2 would have
/// rejected one by one, so the result is exact, not approximate. The
/// lookup's own timestamp may still run backwards (an entry absorbs a
/// late lookup without moving its `t_star`); only *opening* an entry
/// earlier than the previous one breaks the invariant, as
/// reordered/jittered streams do. From then on the scan starts at the
/// first entry again, which is the plain Algorithm 1 loop.
///
/// The entries are two arrays: the opening times, which the binary
/// search and the lattice test read, and one Fx-hashed table of
/// `(entry, domain)` pairs for the whole cell, which holds every entry's
/// domains and is sized once to the cell (each lookup adds exactly one
/// pair). Heuristic #1 *is* the insert: a pair already present rejects
/// the entry and leaves the table as it was, a new pair is the
/// absorption. So each surviving candidate costs one Fx probe, and the
/// estimate — a function of the membership answers alone — is the same
/// bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingEstimator;

impl Estimator for TimingEstimator {
    fn name(&self) -> &'static str {
        "Timing"
    }

    fn lanes(&self) -> &'static [Lane] {
        &[Lane::Lookups]
    }

    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64 {
        let lookups = cell.lookups();
        let params = ctx.family().params();
        let lattice_ms = params
            .timing()
            .fixed_interval()
            .map(|di| di.as_millis())
            .filter(|&ms| ms > 0);
        let max_duration = params.max_activation_duration();

        // Entry `i` opened at `t_star[i]` and holds the domains `d` with
        // `(i, d)` in `held`.
        let mut t_star: Vec<SimInstant> = Vec::new();
        let mut held: FxHashSet<(usize, &DomainName)> =
            FxHashSet::with_capacity_and_hasher(lookups.len(), FxBuildHasher::default());
        // Whether `t_star` is still sorted in opening order.
        let mut sorted = true;

        for lookup in lookups {
            // Heuristic #2: entry's activation already over.
            let expired = |start: &SimInstant| *start + max_duration <= lookup.t;
            let first_live = if sorted {
                t_star.partition_point(expired)
            } else {
                0
            };
            let mut live = t_star[first_live..].iter().zip(first_live..);
            let absorbed = live.any(|(&start, entry)| {
                if expired(&start) {
                    return false;
                }
                // Heuristic #3: off the δi lattice ⇒ different bot.
                if let Some(di) = lattice_ms {
                    if lookup.t.saturating_since(start).as_millis() % di != 0 {
                        return false;
                    }
                }
                // Heuristic #1: same domain ⇒ different bot. `false` means
                // the entry already holds it; `true` is the absorption.
                held.insert((entry, &lookup.domain))
            });
            if !absorbed {
                sorted &= t_star.last().is_none_or(|&last| last <= lookup.t);
                held.insert((t_star.len(), &lookup.domain));
                t_star.push(lookup.t);
            }
        }
        t_star.len() as f64
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dga::{BarrelClass, DgaFamily, DgaParams, QueryTiming};
    use botmeter_dns::{ObservedLookup, ServerId, SimDuration, TtlPolicy};
    use botmeter_faults::{FaultModel, FaultPlan};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Algorithm 1 as it was written before the live-window scan: every
    /// entry ever opened is visited for every lookup, heuristics in the
    /// paper's order. Kept verbatim as the reference the differential
    /// tests hold [`TimingEstimator::estimate`] to, bit for bit.
    fn reference_estimate(lookups: &[ObservedLookup], ctx: &EstimationContext) -> f64 {
        let params = ctx.family().params();
        let delta_i = params.timing().fixed_interval();
        let max_duration = params.max_activation_duration();

        struct Entry {
            t_star: SimInstant,
            domains: HashSet<DomainName>,
        }
        let mut entries: Vec<Entry> = Vec::new();

        for lookup in lookups {
            let mut absorbed = false;
            for entry in &mut entries {
                // Heuristic #1: same domain ⇒ different bot.
                if entry.domains.contains(&lookup.domain) {
                    continue;
                }
                // Heuristic #2: entry's activation already over.
                if entry.t_star + max_duration <= lookup.t {
                    continue;
                }
                // Heuristic #3: off the δi lattice ⇒ different bot.
                if let Some(di) = delta_i {
                    let gap = lookup.t.saturating_since(entry.t_star).as_millis();
                    if gap % di.as_millis() != 0 {
                        continue;
                    }
                }
                entry.domains.insert(lookup.domain.clone());
                absorbed = true;
                break;
            }
            if !absorbed {
                let mut domains = HashSet::new();
                domains.insert(lookup.domain.clone());
                entries.push(Entry {
                    t_star: lookup.t,
                    domains,
                });
            }
        }
        entries.len() as f64
    }

    fn ctx_for(family: DgaFamily) -> EstimationContext {
        EstimationContext::new(family, TtlPolicy::paper_default(), SimDuration::ZERO)
    }

    fn family_with(params: DgaParams) -> DgaFamily {
        DgaFamily::builder("mt-test", params)
            .barrel(BarrelClass::RandomCut)
            .build()
            .unwrap()
    }

    fn test_family(theta_q: usize, delta_i_ms: u64) -> DgaFamily {
        family_with(
            DgaParams::new(
                99,
                1,
                theta_q,
                QueryTiming::Fixed(SimDuration::from_millis(delta_i_ms)),
            )
            .unwrap(),
        )
    }

    fn irregular_family(theta_q: usize) -> DgaFamily {
        family_with(
            DgaParams::new(
                99,
                1,
                theta_q,
                QueryTiming::Irregular {
                    min: SimDuration::from_millis(100),
                    max: SimDuration::from_millis(500),
                },
            )
            .unwrap(),
        )
    }

    fn obs(ms: u64, name: &str) -> ObservedLookup {
        ObservedLookup::new(
            SimInstant::from_millis(ms),
            ServerId(1),
            name.parse().unwrap(),
        )
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let ctx = ctx_for(test_family(10, 500));
        assert_eq!(TimingEstimator.estimate(&[], &ctx), 0.0);
    }

    #[test]
    fn single_bot_train_is_one_entry() {
        // One bot: lookups every 500 ms, distinct domains.
        let ctx = ctx_for(test_family(10, 500));
        let stream: Vec<_> = (0..5)
            .map(|k| obs(k * 500, &format!("d{k}.example")))
            .collect();
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 1.0);
    }

    #[test]
    fn heuristic1_same_domain_splits_bots() {
        // Two lookups of the SAME domain on the lattice: must be two bots.
        let ctx = ctx_for(test_family(10, 500));
        let stream = vec![obs(0, "same.example"), obs(500, "same.example")];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 2.0);
    }

    #[test]
    fn heuristic1_holds_a_domain_per_entry() {
        // Entry 0 holds `a` and then `b`; entry 1 opens on `a` at 500 ms,
        // on entry 0's lattice. The `b` at 1 500 ms is rejected by entry 0,
        // which holds it, and absorbed by entry 1, which does not: a
        // domain held by one entry says nothing about another.
        let ctx = ctx_for(test_family(10, 500));
        let stream = vec![
            obs(0, "a.example"),
            obs(500, "a.example"),
            obs(1_000, "b.example"),
            obs(1_500, "b.example"),
        ];
        assert_eq!(reference_estimate(&stream, &ctx), 2.0);
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 2.0);
    }

    #[test]
    fn heuristic2_stale_entry_cannot_absorb() {
        // θq·δi = 10 × 500 ms = 5 s. A lookup 6 s later is a new bot even
        // though it sits on the lattice.
        let ctx = ctx_for(test_family(10, 500));
        let stream = vec![obs(0, "a.example"), obs(6000, "b.example")];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 2.0);
    }

    #[test]
    fn heuristic3_off_lattice_splits_bots() {
        // Gap of 750 ms is not a multiple of δi = 500 ms (paper's example).
        let ctx = ctx_for(test_family(10, 500));
        let stream = vec![obs(0, "a.example"), obs(750, "b.example")];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 2.0);
        // ...while 1000 ms is absorbed.
        let stream = vec![obs(0, "a.example"), obs(1000, "b.example")];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 1.0);
    }

    #[test]
    fn no_fixed_interval_skips_heuristic3() {
        let ctx = ctx_for(irregular_family(10));
        // Off-lattice gap, distinct domains, within duration: absorbed,
        // because heuristic #3 cannot run.
        let stream = vec![obs(0, "a.example"), obs(750, "b.example")];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 1.0);
    }

    #[test]
    fn two_interleaved_bots_with_offset_phase() {
        // Bot A at 0, 500, 1000...; bot B at 250, 750...: B's phase is off
        // A's lattice, so MT separates them.
        let ctx = ctx_for(test_family(10, 500));
        let stream = vec![
            obs(0, "a1.example"),
            obs(250, "b1.example"),
            obs(500, "a2.example"),
            obs(750, "b2.example"),
        ];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 2.0);
    }

    #[test]
    fn deserialised_zero_interval_has_no_lattice() {
        // `DgaParams::new` rejects δi = 0, but `Deserialize` bypasses it.
        let params: DgaParams = serde_json::from_str(
            r#"{"theta_nx":99,"theta_valid":1,"theta_q":10,"timing":{"Fixed":0}}"#,
        )
        .unwrap();
        assert_eq!(params.timing().fixed_interval(), Some(SimDuration::ZERO));
        let ctx = ctx_for(family_with(params));
        // θq·δi = 0: every entry is expired the moment it opens.
        let stream = vec![
            obs(0, "a.example"),
            obs(0, "b.example"),
            obs(7, "c.example"),
        ];
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 3.0);
    }

    #[test]
    fn entry_opened_out_of_order_after_a_skipped_prefix() {
        // θq·δi = 5 s. The second lookup skips the expired first entry;
        // the next three then open entries *earlier* than it (off the
        // first entry's lattice, same domain as the second), leaving
        // t_star = [0, 30 000, 1 250, 1 350, 1 450] — no longer sorted, so
        // the expired entries are no prefix and the last lookup must still
        // find the live second entry behind them.
        let ctx = ctx_for(test_family(10, 500));
        let stream = vec![
            obs(0, "x.example"),
            obs(30_000, "x.example"),
            obs(1_250, "x.example"),
            obs(1_350, "x.example"),
            obs(1_450, "x.example"),
            obs(31_000, "y.example"),
        ];
        assert_eq!(reference_estimate(&stream, &ctx), 5.0);
        assert_eq!(TimingEstimator.estimate(&stream, &ctx), 5.0);
    }

    /// One synthetic bot of the differential streams: `(start ms, lookup
    /// count, starts on the 500 ms lattice?, first domain index)`.
    type BotSpec = (u64, usize, bool, usize);

    /// The merged, time-ordered lookups of `bots`. Domains come from a pool
    /// of `pool` names, so bots collide on them (heuristic #1); a bot on
    /// the lattice starts at a multiple of 500 ms and one off it does not
    /// (heuristic #3); starts spread over 3 min against a `θq·δi` of
    /// 1–20 s, so most entries expire while the stream runs (heuristic #2).
    fn bot_stream(
        bots: &[BotSpec],
        pool: usize,
        gap_ms: u64,
        granularity_ms: u64,
    ) -> Vec<ObservedLookup> {
        let mut stream: Vec<ObservedLookup> = bots
            .iter()
            .flat_map(|&(start, count, on_lattice, first_domain)| {
                let start = start - start % 500 + if on_lattice { 0 } else { 130 };
                (0..count).map(move |k| {
                    let t = SimInstant::from_millis(start + k as u64 * gap_ms)
                        .quantize(SimDuration::from_millis(granularity_ms));
                    obs(
                        t.as_millis(),
                        &format!("d{}.example", (first_domain + k) % pool),
                    )
                })
            })
            .collect();
        stream.sort_by_key(|l| l.t);
        stream
    }

    fn fault(kind: usize) -> Option<FaultModel> {
        match kind {
            0 => None,
            1 => Some(FaultModel::Reorder {
                rate: 0.5,
                max_displacement: 40,
            }),
            2 => Some(FaultModel::Jitter {
                max: SimDuration::from_millis(30_000),
            }),
            _ => Some(FaultModel::Duplicate { rate: 0.3 }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The live-window scan returns exactly what the full scan does:
        /// in-order and Reorder/Jitter/Duplicate-faulted streams, raw and
        /// quantised to 1 s / 1 min (runs of equal timestamps), `δi` fixed
        /// and `δi = none`, several interleaved bots on and off each
        /// other's lattice.
        #[test]
        fn estimate_is_bit_identical_to_the_full_scan(
            bots in prop::collection::vec(
                (0u64..180_000, 1usize..14, any::<bool>(), 0usize..12),
                1..16,
            ),
            pool in 2usize..12,
            theta_q in 2usize..40,
            fixed in any::<bool>(),
            granularity in 0usize..3,
            fault_kind in 0usize..4,
            fault_seed in any::<u64>(),
        ) {
            let granularity_ms = [0, 1_000, 60_000][granularity];
            let (family, gap_ms) = if fixed {
                (test_family(theta_q, 500), 500)
            } else {
                (irregular_family(theta_q), 370)
            };
            let mut stream = bot_stream(&bots, pool, gap_ms, granularity_ms);
            if let Some(model) = fault(fault_kind) {
                stream = FaultPlan::new(fault_seed).with(model).apply(stream).0;
            }
            let ctx = ctx_for(family);
            prop_assert_eq!(
                TimingEstimator.estimate(&stream, &ctx).to_bits(),
                reference_estimate(&stream, &ctx).to_bits()
            );
        }
    }

    /// The routes `Auto` sends to `MT`, on simulated cells: Conficker.C
    /// (`AS`, 24 bots, ≈13 k lookups) and Necurs (`AP`, δi = 500 ms, 40
    /// bots, ≈11 k lookups), in order and under Jitter and Reorder — the
    /// binary search and the unsorted fallback on traffic the generator,
    /// not a hand-picked spec, shaped.
    #[test]
    fn simulated_cells_estimate_bit_identically_to_the_full_scan() {
        use botmeter_sim::ScenarioSpec;
        for (family, population) in [(DgaFamily::conficker_c(), 24), (DgaFamily::necurs(), 40)] {
            let outcome = ScenarioSpec::builder(family)
                .population(population)
                .seed(11)
                .build()
                .unwrap()
                .run(botmeter_exec::ExecPolicy::default());
            let ctx = EstimationContext::new(
                outcome.family().clone(),
                outcome.ttl(),
                outcome.granularity(),
            );
            for fault_kind in 0..3 {
                let mut stream = outcome.observed().to_vec();
                if let Some(model) = fault(fault_kind) {
                    stream = FaultPlan::new(7).with(model).apply(stream).0;
                }
                let reference = reference_estimate(&stream, &ctx);
                assert!(
                    reference > 1.0,
                    "{}: a degenerate cell",
                    ctx.family().name()
                );
                assert_eq!(
                    TimingEstimator.estimate(&stream, &ctx).to_bits(),
                    reference.to_bits(),
                    "{}, fault {:?}",
                    ctx.family().name(),
                    fault(fault_kind)
                );
            }
        }
    }

    #[test]
    fn estimator_name() {
        assert_eq!(TimingEstimator.name(), "Timing");
    }

    #[test]
    fn end_to_end_on_randomcut_simulation() {
        use botmeter_sim::ScenarioSpec;
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(5)
            .build()
            .unwrap()
            .run(botmeter_exec::ExecPolicy::default());
        let ctx = EstimationContext::new(
            outcome.family().clone(),
            outcome.ttl(),
            outcome.granularity(),
        );
        let est = TimingEstimator.estimate(outcome.observed(), &ctx);
        let actual = outcome.ground_truth()[0] as f64;
        let are = crate::absolute_relative_error(est, actual);
        assert!(
            are < 0.5,
            "MT on AR should be decent: est {est} vs {actual}"
        );
    }
}
