//! Property-based tests for the simulator.

use botmeter_dga::DgaFamily;
use botmeter_dns::SimDuration;
use botmeter_exec::ExecPolicy;
use botmeter_sim::{ActivationModel, EvasionStrategy, ScenarioSpec, WaveConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A scenario's raw trace is always time-sorted, its observed trace a
    /// subset (by multiset of domains), and ground truth non-negative.
    #[test]
    fn scenario_invariants(seed in any::<u64>(), population in 1u64..40) {
        let (outcome, raw) = ScenarioSpec::builder(DgaFamily::torpig())
            .population(population)
            .seed(seed)
            .build()
            .expect("valid")
            .run_reference();
        for w in raw.windows(2) {
            prop_assert!(w[0].t <= w[1].t);
        }
        prop_assert!(outcome.observed().len() <= raw.len());
        prop_assert_eq!(outcome.ground_truth().len(), 1);
    }

    /// Activation sampling respects the window for every model.
    #[test]
    fn activations_stay_in_window(seed in any::<u64>(), sigma in 0.1f64..3.0) {
        use botmeter_dns::SimInstant;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let day = SimDuration::from_days(1);
        let start = SimInstant::ZERO + day * 3;
        for model in [ActivationModel::ConstantRate, ActivationModel::DynamicRate { sigma }] {
            let times = model.sample_times(32, day, start, day, &mut rng);
            for t in times {
                prop_assert!(t >= start && t < start + day);
            }
        }
    }

    /// Wave series never go negative and respond to the outbreak knob.
    #[test]
    fn wave_series_sane(seed in any::<u64>(), days in 1usize..400) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let series = WaveConfig::default().daily_series(days, &mut rng);
        prop_assert_eq!(series.len(), days);
        // u64 is non-negative by construction; check the magnitudes stay
        // within a sane multiple of the configured peak scale.
        prop_assert!(series.iter().all(|&n| n < 100_000));
    }

    /// Duty-cycle evasion reduces the realised active population.
    #[test]
    fn duty_cycle_thins_ground_truth(seed in any::<u64>()) {
        let base = ScenarioSpec::builder(DgaFamily::torpig())
            .population(64)
            .seed(seed)
            .build()
            .expect("valid")
            .run(ExecPolicy::default());
        let thinned = ScenarioSpec::builder(DgaFamily::torpig())
            .population(64)
            .evasion(EvasionStrategy::DutyCycle { active_prob: 0.2 })
            .seed(seed)
            .build()
            .expect("valid")
            .run(ExecPolicy::default());
        prop_assert!(thinned.ground_truth()[0] <= base.ground_truth()[0]);
    }

    /// Coordinated bursts push every raw lookup's activation into the
    /// first fraction of the epoch (lookups themselves may trail by at
    /// most one activation duration).
    #[test]
    fn burst_compresses_schedule(seed in any::<u64>()) {
        let (_, raw) = ScenarioSpec::builder(DgaFamily::torpig())
            .population(32)
            .evasion(EvasionStrategy::CoordinatedBurst { window_fraction: 0.1 })
            .seed(seed)
            .build()
            .expect("valid")
            .run_reference();
        let day_ms = SimDuration::from_days(1).as_millis();
        let bound = day_ms / 10
            + DgaFamily::torpig().params().max_activation_duration().as_millis();
        for l in &raw {
            prop_assert!(l.t.as_millis() <= bound, "lookup at {}", l.t);
        }
    }
}

#[test]
fn enterprise_ground_truth_matches_wave_schedule() {
    use botmeter_sim::EnterpriseSpec;
    // The realised per-day bot activations equal the wave's schedule by
    // construction; verify via the distinct malicious client ids per day.
    let outcome = EnterpriseSpec::quick(42).run();
    // At least one active day exists across infections.
    let any_active = outcome
        .ground_truth()
        .iter()
        .any(|series| series.iter().any(|&n| n > 0));
    assert!(any_active);
}

#[test]
fn constant_rate_gaps_are_exponential() {
    use botmeter_dns::SimInstant;
    use botmeter_stats::{ks_critical_value, ks_statistic};
    // Pool many epochs of activation gaps and KS-test them against the
    // Exp(λ0) law the paper's §V-A model prescribes.
    let mut rng = ChaCha12Rng::seed_from_u64(99);
    let day = SimDuration::from_days(1);
    let population = 256u64;
    let lambda_per_ms = population as f64 / day.as_millis() as f64;
    let mut gaps = Vec::new();
    for _ in 0..20 {
        let times = ActivationModel::ConstantRate.sample_times(
            population,
            day,
            SimInstant::ZERO,
            day,
            &mut rng,
        );
        for w in times.windows(2) {
            gaps.push((w[1].as_millis() - w[0].as_millis()) as f64);
        }
    }
    assert!(gaps.len() > 4000, "need a large sample, got {}", gaps.len());
    let d = ks_statistic(&gaps, |x| 1.0 - (-lambda_per_ms * x.max(0.0)).exp());
    // Millisecond discretisation adds ~λ·1ms ≈ 3e-3 of distance on top of
    // sampling noise; allow the 1% critical value plus that bias.
    let bound = ks_critical_value(gaps.len(), 0.01) + 2.0 * lambda_per_ms * 1.0;
    assert!(d < bound, "KS {d} vs bound {bound}");
}
