//! End-to-end fused streaming pipeline: simulate → cache-filter → fault →
//! match, with no phase ever holding the whole trace. Each shard the
//! scenario releases feeds a [`StreamMatcher`] immediately, and the final
//! matched traffic (and the landscape charted from it) must be
//! bit-identical to the batch pipeline's.

use botmeter::core::{BotMeter, BotMeterConfig, ChartRequest};
use botmeter::dga::DgaFamily;
use botmeter::exec::ExecPolicy;
use botmeter::faults::{FaultModel, FaultPlan};
use botmeter::matcher::{match_stream, ExactMatcher, StreamMatcher};
use botmeter::obs::Obs;
use botmeter::sim::{FnSink, PipelineMode, ScenarioSpec};

fn spec(mode: PipelineMode) -> ScenarioSpec {
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
        .pipeline(mode)
        .build()
        .expect("valid scenario")
}

#[test]
fn fused_streaming_match_equals_batch_match() {
    std::env::set_var("BOTMETER_THREADS", "4");
    for policy in [ExecPolicy::Sequential, ExecPolicy::parallel()] {
        // Reference: materialize everything, then match the whole stream.
        let batch = spec(PipelineMode::Materialize).run(policy);
        let matcher = ExactMatcher::from_family(batch.family(), 0..2);
        let expected = match_stream(batch.observed(), &matcher, policy);

        // Fused: every released shard goes straight into the matcher.
        let streaming_spec = spec(PipelineMode::Streaming { shard: None });
        let mut stream_matcher = StreamMatcher::new(&matcher, policy, Obs::noop());
        let mut sink = FnSink(|chunk: &[_]| stream_matcher.ingest(chunk));
        let outcome = streaming_spec.run_streaming_into(policy, &mut sink);
        let matched = stream_matcher.finish();

        assert!(outcome.raw().is_empty(), "streaming materialized the trace");
        assert_eq!(
            outcome.observed(),
            batch.observed(),
            "observed trace diverged ({policy:?})"
        );
        assert_eq!(matched, expected, "matched traffic diverged ({policy:?})");

        // And the landscape charted from the streamed observations agrees.
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let from_stream = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..2)
                .policy(policy),
        );
        let from_batch = meter.chart_with(
            &ChartRequest::new(batch.observed())
                .epochs(0..2)
                .policy(policy),
        );
        assert_eq!(from_stream, from_batch, "landscape diverged ({policy:?})");
    }
}
