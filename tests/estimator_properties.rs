//! Property-based tests over the estimator library's invariants.

use botmeter::core::{
    absolute_relative_error, expected_bots_for_shape, extract_segments, BernoulliEstimator,
    CoverageEstimator, EstimationContext, Estimator, PoissonEstimator, Segment, SegmentKernelCache,
    SegmentKind, TimingEstimator,
};
use botmeter::dga::{BarrelClass, DgaFamily, DgaParams, QueryTiming};
use botmeter::dns::{DomainName, ObservedLookup, ServerId, SimDuration, SimInstant, TtlPolicy};
use botmeter::exec::ExecPolicy;
use botmeter::stats::SharedStirling;
use proptest::prelude::*;

fn test_family(theta_nx: usize, theta_valid: usize, theta_q: usize) -> DgaFamily {
    DgaFamily::builder(
        "prop-test",
        DgaParams::new(
            theta_nx,
            theta_valid,
            theta_q,
            QueryTiming::Fixed(SimDuration::from_secs(1)),
        )
        .expect("valid params"),
    )
    .barrel(BarrelClass::RandomCut)
    .build()
    .expect("consistent family")
}

fn ctx(family: DgaFamily) -> EstimationContext {
    EstimationContext::new(family, TtlPolicy::paper_default(), SimDuration::ZERO)
}

/// Builds a lookup stream from (millis, domain-index) pairs over a pool.
fn lookups_from(family: &DgaFamily, pairs: &[(u64, usize)]) -> Vec<ObservedLookup> {
    let pool = family.pool_for_epoch(0);
    pairs
        .iter()
        .map(|&(ms, idx)| {
            ObservedLookup::new(
                SimInstant::from_millis(ms),
                ServerId(1),
                pool[idx % pool.len()].clone(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MT never reports more bots than lookups, and at least one for a
    /// non-empty stream.
    #[test]
    fn timing_estimate_bounds(pairs in prop::collection::vec((0u64..86_400_000, 0usize..500), 1..120)) {
        let family = test_family(499, 1, 100);
        let mut sorted = pairs.clone();
        sorted.sort();
        let lookups = lookups_from(&family, &sorted);
        let est = TimingEstimator.estimate(&lookups, &ctx(family));
        prop_assert!(est >= 1.0);
        prop_assert!(est <= lookups.len() as f64);
    }

    /// MP is at least the number of visible activations and finite.
    #[test]
    fn poisson_estimate_sane(pairs in prop::collection::vec((0u64..86_400_000, 0usize..500), 1..120)) {
        let family = test_family(499, 1, 100);
        let mut sorted = pairs.clone();
        sorted.sort();
        let lookups = lookups_from(&family, &sorted);
        let est = PoissonEstimator::new().estimate(&lookups, &ctx(family));
        prop_assert!(est.is_finite());
        prop_assert!(est >= 1.0);
    }

    /// Segment extraction is a partition: lengths sum to the number of
    /// distinct positions, segments never overlap a valid index, and all
    /// runs are maximal.
    #[test]
    fn segments_partition_positions(
        positions in prop::collection::btree_set(0usize..400, 1..120),
        valid in prop::collection::btree_set(400usize..410, 1..5),
    ) {
        let nxd: Vec<usize> = positions.iter().copied().collect();
        let val: Vec<usize> = valid.iter().copied().collect();
        let segments = extract_segments(&nxd, &val, 410);
        let total: usize = segments.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, positions.len());
        // Each segment's covered range is entirely inside the NXD set.
        for seg in &segments {
            for k in 0..seg.len {
                let p = (seg.start + k) % 410;
                prop_assert!(positions.contains(&p), "segment covers non-queried {p}");
            }
            // Maximality: the positions right before and after are not NXDs.
            let before = (seg.start + 410 - 1) % 410;
            let after = (seg.start + seg.len) % 410;
            prop_assert!(!positions.contains(&before));
            prop_assert!(!positions.contains(&after));
        }
    }

    /// ARE is scale-invariant: scaling estimate and actual together leaves
    /// it unchanged.
    #[test]
    fn are_scale_invariance(est in 0.0f64..1e6, actual in 1e-3f64..1e6, scale in 1e-3f64..1e3) {
        let a = absolute_relative_error(est, actual);
        let b = absolute_relative_error(est * scale, actual * scale);
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a));
    }

    /// The Theorem 1 segment expectation is monotone in segment length for
    /// m-segments and always at least ~1.
    #[test]
    fn theorem1_monotone_in_length(extra in 0usize..60, theta_q in 20usize..60) {
        let tables = SharedStirling::new();
        let (base, longer) = (theta_q, theta_q + extra);
        let e1 = expected_bots_for_shape(SegmentKind::Middle, base, theta_q, 1e-3, &tables).0;
        let e2 = expected_bots_for_shape(SegmentKind::Middle, longer, theta_q, 1e-3, &tables).0;
        prop_assert!(e1 >= 0.99, "{e1}");
        prop_assert!(e2 >= e1 - 1e-6, "len {base} -> {e1}, len {longer} -> {e2}");
    }

    /// The Bernoulli estimator is permutation-invariant over the lookup
    /// stream (it only reads the distinct-NXD set).
    #[test]
    fn bernoulli_order_invariant(seed in 0u64..20) {
        use botmeter::sim::ScenarioSpec;
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(8)
            .seed(seed)
            .build()
            .expect("valid")
            .run(ExecPolicy::default());
        let c = EstimationContext::new(
            outcome.family().clone(), outcome.ttl(), outcome.granularity());
        let forward = BernoulliEstimator::default().estimate(outcome.observed(), &c);
        let mut reversed = outcome.observed().to_vec();
        reversed.reverse();
        // Keep one element at the front from the same epoch (epoch is read
        // from the first lookup; reversal preserves the epoch here because
        // the scenario spans one epoch).
        let backward = BernoulliEstimator::default().estimate(&reversed, &c);
        prop_assert!((forward - backward).abs() < 1e-9);
    }

    /// The kernel cache evaluates at the snapped density: its value is
    /// bit-identical to the uncached kernel at its key's `ρ̃` (so the hit
    /// value is never an approximation of the key it is stored under),
    /// and replaying ρ — or any ρ in the same grid bucket — is a hit
    /// returning the same bits.
    #[test]
    fn kernel_cache_quantized_matches_uncached_at_snapped_rho(
        len in 2usize..3000,
        theta_q in 20usize..600,
        rho_mantissa in 1.0f64..10.0,
        rho_neg_exp in 1u32..6,
        boundary in any::<bool>(),
    ) {
        let rho = rho_mantissa * 10f64.powi(-(rho_neg_exp as i32));
        let kind = if boundary { SegmentKind::Boundary } else { SegmentKind::Middle };
        let seg = Segment { start: 0, len, kind };
        let tables = SharedStirling::new();

        let cache = SegmentKernelCache::default();
        let snapped = cache.key(kind, len, theta_q, rho).rho();
        let relative_shift = (snapped - rho).abs() / rho;
        prop_assert!(relative_shift < 1e-5, "snap moved ρ by {relative_shift}");
        let uncached = expected_bots_for_shape(kind, len, theta_q, snapped, &tables).0;

        let first = cache.expected_bots(&seg, theta_q, rho, &tables);
        prop_assert!(!first.memo_hit);
        prop_assert_eq!(first.value.to_bits(), uncached.to_bits(),
                        "cache diverged from uncached kernel at snapped ρ: {} vs {uncached}",
                        first.value);
        let replay = cache.expected_bots(&seg, theta_q, rho, &tables);
        prop_assert!(replay.memo_hit, "identical query must hit the memo table");
        prop_assert_eq!(replay.value.to_bits(), uncached.to_bits());
        // Any density that snaps to the same bucket must hit with the
        // identical stored value.
        let nearby = snapped * (1.0 + 1e-8);
        if cache.key(kind, len, theta_q, nearby).rho() == snapped {
            let replay = cache.expected_bots(&seg, theta_q, nearby, &tables);
            prop_assert!(replay.memo_hit);
            prop_assert_eq!(replay.value.to_bits(), uncached.to_bits());
        }
    }

    /// The Coverage estimator is monotone in the volume of observed
    /// lookups: truncating the stream cannot raise the estimate.
    #[test]
    fn coverage_monotone_in_volume(seed in 0u64..12, keep in 0.2f64..1.0) {
        use botmeter::sim::ScenarioSpec;
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(seed)
            .build()
            .expect("valid")
            .run(ExecPolicy::default());
        let c = EstimationContext::new(
            outcome.family().clone(), outcome.ttl(), outcome.granularity());
        let full = CoverageEstimator.estimate(outcome.observed(), &c);
        let cut = (outcome.observed().len() as f64 * keep) as usize;
        let truncated = &outcome.observed()[..cut.max(1)];
        let partial = CoverageEstimator.estimate(truncated, &c);
        prop_assert!(partial <= full + 1e-6,
                     "truncated stream gave higher estimate: {partial} > {full}");
    }
}

/// Per-segment parallel charting is bit-identical to sequential charting,
/// and the observed trace it charts is the same whatever shard width the
/// pipeline ran at: all four `ExecPolicy` × `PipelineMode` combinations
/// produce the same landscape bits and the same deterministic estimator
/// counters (memo hits/misses, scheduled segments, cell counts).
#[test]
fn charting_is_bit_identical_across_policies_and_pipeline_modes() {
    use botmeter::core::{BotMeter, BotMeterConfig, ChartRequest};
    use botmeter::dns::SimDuration;
    use botmeter::obs::Obs;
    use botmeter::sim::{PipelineMode, ScenarioSpec};

    // Pin the worker count so the parallel paths actually run on
    // single-core machines.
    std::env::set_var("BOTMETER_THREADS", "4");
    let run = |mode| {
        ScenarioSpec::builder(DgaFamily::new_goz())
            .population(64)
            .num_epochs(2)
            .seed(13)
            .pipeline(mode)
            .build()
            .expect("valid scenario")
            .run(ExecPolicy::parallel())
    };
    let default_width = run(PipelineMode::Streaming { shard: None });
    let ten_minutes = run(PipelineMode::Streaming {
        shard: Some(SimDuration::from_secs(600)),
    });
    assert_eq!(
        default_width.observed(),
        ten_minutes.observed(),
        "pipeline modes disagree on the observed trace"
    );

    let mut landscapes = Vec::new();
    let mut counters = Vec::new();
    for (mode, outcome) in [("default", &default_width), ("600 s", &ten_minutes)] {
        for policy in [ExecPolicy::Sequential, ExecPolicy::parallel()] {
            let (obs, registry) = Obs::collecting();
            let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
            landscapes.push((
                mode,
                policy,
                meter.chart_with(
                    &ChartRequest::new(outcome.observed())
                        .epochs(0..2)
                        .policy(policy),
                ),
            ));
            counters.push(registry.snapshot().deterministic_counters());
        }
    }
    let (_, _, reference) = &landscapes[0];
    for (mode, policy, landscape) in &landscapes[1..] {
        assert_eq!(
            landscape, reference,
            "landscape diverged for {mode} / {policy:?}"
        );
    }
    for (i, observed_counters) in counters.iter().enumerate().skip(1) {
        assert_eq!(
            observed_counters, &counters[0],
            "deterministic counters diverged for variant {i}"
        );
    }
}

#[test]
fn timing_estimator_is_exact_on_disjoint_trains() {
    // k bots with non-overlapping activation windows and distinct domains.
    let family = test_family(499, 1, 10);
    let pool_len = 500;
    let mut lookups = Vec::new();
    for bot in 0..7u64 {
        let start = bot * 3_600_000; // one per hour; far apart
        for k in 0..5u64 {
            lookups.push((start + k * 1000, (bot * 50 + k) as usize % pool_len));
        }
    }
    let lookups = lookups_from(&family, &lookups);
    let est = TimingEstimator.estimate(&lookups, &ctx(family));
    assert_eq!(est, 7.0);
}

#[test]
fn domain_name_roundtrip_through_stream() {
    // DomainName parsing/serialisation is stable through a whole pipeline.
    let family = DgaFamily::qakbot();
    for d in family.pool_for_epoch(0).iter().take(50) {
        let s = d.to_string();
        let back: DomainName = s.parse().expect("roundtrip");
        assert_eq!(*d, back);
    }
}
