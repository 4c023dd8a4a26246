//! End-to-end fused streaming pipeline: simulate → cache-filter → fault →
//! match, with no phase ever holding the whole trace. Each shard the
//! scenario releases feeds a [`StreamMatcher`] immediately, and the final
//! matched traffic (and the landscape charted from it) must be
//! bit-identical to matching and charting the same run's whole observed
//! trace in one batch.

use botmeter::core::{BotMeter, BotMeterConfig, ChartRequest};
use botmeter::dga::DgaFamily;
use botmeter::exec::ExecPolicy;
use botmeter::faults::{FaultModel, FaultPlan};
use botmeter::matcher::{match_stream, ExactMatcher, StreamMatcher};
use botmeter::obs::Obs;
use botmeter::sim::ScenarioSpec;

fn spec() -> ScenarioSpec {
    ScenarioSpec::builder(DgaFamily::new_goz())
        .population(64)
        .num_epochs(2)
        .seed(19)
        .faults(
            FaultPlan::new(5)
                .with(FaultModel::Drop { rate: 0.2 })
                .with(FaultModel::Reorder {
                    rate: 0.2,
                    max_displacement: 4,
                }),
        )
        .build()
        .expect("valid scenario")
}

#[test]
fn fused_streaming_match_equals_batch_match() {
    std::env::set_var("BOTMETER_THREADS", "4");
    for policy in [ExecPolicy::Sequential, ExecPolicy::parallel()] {
        // Fused: every released shard goes straight into the matcher.
        let spec = spec();
        let matcher = ExactMatcher::from_family(spec.family(), 0..2);
        let mut stream_matcher = StreamMatcher::new(&matcher, policy, Obs::noop());
        let outcome = spec.run_streaming_into(policy, &mut |shard| stream_matcher.ingest(shard));
        let matched = stream_matcher.finish();

        // Batch: match the whole observed stream of the same run.
        let expected = match_stream(outcome.observed(), &matcher, policy);
        assert_eq!(matched, expected, "matched traffic diverged ({policy:?})");

        // And the landscape charted from the streamed matches agrees with
        // the one charted from the observed trace.
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let from_stream = meter.chart_with(
            &ChartRequest::from_matched(&matched)
                .epochs(0..2)
                .policy(policy),
        );
        let from_batch = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..2)
                .policy(policy),
        );
        assert_eq!(from_stream, from_batch, "landscape diverged ({policy:?})");
    }
}
