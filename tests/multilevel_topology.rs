//! Multi-level hierarchy integration: the paper's Fig. 1 setting with
//! several caching levels between clients and the vantage point.

use botmeter::core::{BotMeter, BotMeterConfig, ChartRequest, ModelKind};
use botmeter::dga::DgaFamily;
use botmeter::dns::{ClientId, ObservedLookup, RawLookup, ServerId, TopologyBuilder, TtlPolicy};
use botmeter::sim::{ScenarioOutcome, ScenarioSpec};

/// The whole-trace reference run: the flat single-resolver outcome beside
/// the pre-cache trace the tests below route through a tree of their own.
fn simulate(family: DgaFamily, population: u64, seed: u64) -> (ScenarioOutcome, Vec<RawLookup>) {
    ScenarioSpec::builder(family)
        .population(population)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run_reference()
}

/// Routes a simulated raw trace through a two-level tree: two sites under
/// the border, two floors under each site. Returns the border-visible
/// stream and the site each client was assigned to.
fn route_through_tree(
    family: &DgaFamily,
    raw_trace: &[RawLookup],
) -> (Vec<ObservedLookup>, ServerId, ServerId) {
    let mut b = TopologyBuilder::new(TtlPolicy::paper_default());
    let site_a = b.add_resolver_under_border();
    let site_b = b.add_resolver_under_border();
    let floor_a1 = b.add_resolver(site_a).expect("site exists");
    let floor_a2 = b.add_resolver(site_a).expect("site exists");
    let floor_b1 = b.add_resolver(site_b).expect("site exists");
    let mut topo = b.build();

    let authority = family.authority_for_epochs(2);
    let mut observed = Vec::new();
    for raw in raw_trace {
        let floor = match raw.client.0 % 3 {
            0 => floor_a1,
            1 => floor_a2,
            _ => floor_b1,
        };
        topo.assign_client(raw.client, floor).expect("floor exists");
        if let Some(obs) = topo.process(raw, &authority).expect("routable") {
            observed.push(obs);
        }
    }
    (observed, site_a, site_b)
}

#[test]
fn border_attributes_lookups_to_sites_not_floors() {
    let (outcome, raw) = simulate(DgaFamily::new_goz(), 48, 13);
    let (observed, site_a, site_b) = route_through_tree(outcome.family(), &raw);
    assert!(!observed.is_empty());
    // Everything the border sees is attributed to a *site* (its direct
    // children), never to the floors two levels down.
    for o in &observed {
        assert!(
            o.server == site_a || o.server == site_b,
            "leaked floor id {}",
            o.server
        );
    }
    assert!(observed.iter().any(|o| o.server == site_a));
    assert!(observed.iter().any(|o| o.server == site_b));
}

#[test]
fn intermediate_caches_absorb_cross_floor_duplicates() {
    // The same domain queried from two floors of one site must reach the
    // border at most once per TTL window: the site cache absorbs the
    // second floor's miss.
    let (outcome, raw) = simulate(DgaFamily::murofet(), 32, 14);
    let (tree_observed, _, _) = route_through_tree(outcome.family(), &raw);

    // Against the flat single-local baseline on the same raw trace, each
    // of the two *sites* dedupes independently, so the border can see each
    // domain at most once per site per TTL window: tree visibility is
    // bounded by 2× flat. (Floors alone would give 3×; the site-level
    // caches are what keep it at 2×.)
    assert!(
        tree_observed.len() <= 2 * outcome.observed().len(),
        "tree visibility {} exceeds sites × flat bound ({})",
        tree_observed.len(),
        2 * outcome.observed().len()
    );
    // And the site caches genuinely absorb something: visibility stays
    // strictly below the no-shared-cache worst case of one forward per
    // floor per window.
    assert!(
        tree_observed.len() > outcome.observed().len(),
        "two independent sites should leak more than one shared cache"
    );
}

#[test]
fn landscape_ranks_the_heavier_site_first() {
    let (outcome, raw) = simulate(DgaFamily::new_goz(), 60, 15);
    let (observed, site_a, site_b) = route_through_tree(outcome.family(), &raw);

    // Two of three floors (≈ 2/3 of bots) hang under site A.
    let meter =
        BotMeter::new(BotMeterConfig::new(outcome.family().clone()).model(ModelKind::Coverage));
    let landscape = meter.chart_with(&ChartRequest::new(&observed));
    let a = landscape.estimate(site_a, 0);
    let b = landscape.estimate(site_b, 0);
    assert!(a > 0.0 && b > 0.0);
    assert!(
        a > b,
        "site A (2 floors, est {a}) should outrank site B (1 floor, est {b})"
    );
    let ranked = landscape.ranked_servers();
    assert_eq!(ranked[0].0, site_a);
    // The totals should land near the simulated population.
    let total = a + b;
    let actual = outcome.ground_truth()[0] as f64;
    assert!(
        (total - actual).abs() / actual < 0.6,
        "summed landscape {total} vs actual {actual}"
    );
    let _ = ClientId(0);
}
