//! Property-based tests for the simulator.

use botmeter_dga::DgaFamily;
use botmeter_dns::SimDuration;
use botmeter_exec::ExecPolicy;
use botmeter_sim::{EvasionStrategy, ScenarioSpec};
use proptest::prelude::*;

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
