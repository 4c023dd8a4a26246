//! End-to-end integration: simulate → cache-filter → match → estimate,
//! across the taxonomy.

use botmeter::core::{
    absolute_relative_error, BotMeter, BotMeterConfig, ChartRequest, EstimationContext, Estimator,
    ModelKind, PoissonEstimator, TimingEstimator,
};
use botmeter::dga::DgaFamily;
use botmeter::dns::ServerId;
use botmeter::exec::ExecPolicy;
use botmeter::matcher::{match_stream, ExactMatcher};
use botmeter::sim::ScenarioSpec;

fn run(family: DgaFamily, n: u64, seed: u64) -> botmeter::sim::ScenarioOutcome {
    ScenarioSpec::builder(family)
        .population(n)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::default())
}

#[test]
fn full_pipeline_recovers_au_population() {
    let mut errors = Vec::new();
    for seed in 0..5 {
        let outcome = run(DgaFamily::murofet(), 64, seed);
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let landscape = meter.chart_with(&ChartRequest::new(outcome.observed()));
        errors.push(absolute_relative_error(
            landscape.total_for_epoch(0),
            outcome.ground_truth()[0] as f64,
        ));
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 0.5, "AU pipeline mean ARE {mean}: {errors:?}");
}

#[test]
fn full_pipeline_recovers_ar_population_via_coverage() {
    let mut errors = Vec::new();
    for seed in 0..5 {
        let outcome = run(DgaFamily::new_goz(), 128, 100 + seed);
        let meter =
            BotMeter::new(BotMeterConfig::new(outcome.family().clone()).model(ModelKind::Coverage));
        let landscape = meter.chart_with(&ChartRequest::new(outcome.observed()));
        errors.push(absolute_relative_error(
            landscape.total_for_epoch(0),
            outcome.ground_truth()[0] as f64,
        ));
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 0.35, "AR pipeline mean ARE {mean}: {errors:?}");
}

#[test]
fn timing_estimator_works_on_sampling_barrels() {
    // AS (Conficker.C): random barrels dodge the cache, so MT sees almost
    // every bot.
    let outcome = run(DgaFamily::conficker_c(), 32, 7);
    let ctx = EstimationContext::new(
        outcome.family().clone(),
        outcome.ttl(),
        outcome.granularity(),
    );
    let est = TimingEstimator.estimate(outcome.observed(), &ctx);
    let are = absolute_relative_error(est, outcome.ground_truth()[0] as f64);
    assert!(are < 0.4, "MT on AS: ARE {are}");
}

#[test]
fn matcher_strips_foreign_traffic_before_estimation() {
    // Run two families at once; each family's matcher must only pass its
    // own domains through.
    let goz = run(DgaFamily::new_goz(), 32, 3);
    let murofet = run(DgaFamily::murofet(), 32, 3);
    let mut combined = goz.observed().to_vec();
    combined.extend(murofet.observed().iter().cloned());
    combined.sort_by_key(|l| l.t);

    let goz_matcher = ExactMatcher::from_family(goz.family(), 0..2);
    let matched = match_stream(&combined, &goz_matcher, ExecPolicy::default());
    let goz_only = match_stream(goz.observed(), &goz_matcher, ExecPolicy::default());
    assert_eq!(
        matched.total_matched(),
        goz_only.total_matched(),
        "murofet lookups leaked through the newGoZ matcher"
    );
}

#[test]
fn landscape_separates_servers_in_star_topology() {
    use botmeter::dga::DgaFamily;
    use botmeter::dns::{SimInstant, TopologyBuilder, TtlPolicy};

    // Hand-route two bot populations behind different local resolvers.
    let family = DgaFamily::new_goz();
    let authority = family.authority_for_epochs(1);
    let mut builder = TopologyBuilder::new(TtlPolicy::paper_default());
    let servers = [
        builder.add_resolver_under_border(),
        builder.add_resolver_under_border(),
    ];
    let mut topo = builder.build();

    // Re-simulate raw traffic (only the whole-trace reference run keeps
    // it), then route clients by parity.
    let (_, raw_trace) = ScenarioSpec::builder(family.clone())
        .population(32)
        .seed(11)
        .build()
        .expect("valid scenario")
        .run_reference();
    for raw in &raw_trace {
        let leaf = if raw.client.0 % 2 == 0 {
            servers[0]
        } else {
            servers[1]
        };
        topo.assign_client(raw.client, leaf).expect("leaf exists");
    }
    let mut observed = Vec::new();
    for raw in &raw_trace {
        if let Some(obs) = topo.process(raw, &authority).expect("routable") {
            observed.push(obs);
        }
    }
    assert!(observed.iter().any(|o| o.server == servers[0]));
    assert!(observed.iter().any(|o| o.server == servers[1]));

    let meter = BotMeter::new(BotMeterConfig::new(family).model(ModelKind::Coverage));
    let landscape = meter.chart_with(&ChartRequest::new(&observed));
    assert!(landscape.estimate(servers[0], 0) > 0.0);
    assert!(landscape.estimate(servers[1], 0) > 0.0);
    let _ = SimInstant::ZERO;
}

#[test]
fn pipeline_is_deterministic() {
    let a = run(DgaFamily::necurs(), 16, 9);
    let b = run(DgaFamily::necurs(), 16, 9);
    assert_eq!(a.observed(), b.observed());
    let meter = BotMeter::new(BotMeterConfig::new(a.family().clone()));
    assert_eq!(
        meter.chart_with(&ChartRequest::new(a.observed())),
        meter.chart_with(&ChartRequest::new(b.observed()))
    );
}

#[test]
fn poisson_beats_timing_on_uniform_barrel_at_scale() {
    // The paper's central claim for AU, reproduced at N = 256.
    let outcome = run(DgaFamily::murofet(), 256, 21);
    let ctx = EstimationContext::new(
        outcome.family().clone(),
        outcome.ttl(),
        outcome.granularity(),
    );
    let actual = outcome.ground_truth()[0] as f64;
    let matched = match_stream(
        outcome.observed(),
        &ExactMatcher::from_family(outcome.family(), 0..2),
        ExecPolicy::default(),
    );
    let lookups = matched.for_server(ServerId(1));
    let mp = absolute_relative_error(PoissonEstimator::new().estimate(lookups, &ctx), actual);
    let mt = absolute_relative_error(TimingEstimator.estimate(lookups, &ctx), actual);
    assert!(mp < mt, "MP ({mp}) should beat MT ({mt}) at N=256 on AU");
    assert!(mt > 0.5, "MT should collapse on AU at scale, got {mt}");
}
