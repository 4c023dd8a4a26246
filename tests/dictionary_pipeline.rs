//! End-to-end pipeline over the dictionary DGA (Suppobox): the analyst
//! workflow the paper's Fig. 2 describes, on a family whose names are
//! word pairs rather than gibberish.

use botmeter::core::{absolute_relative_error, EstimationContext, Estimator, PoissonEstimator};
use botmeter::dga::DgaFamily;
use botmeter::dns::ServerId;
use botmeter::exec::ExecPolicy;
use botmeter::matcher::{match_stream, ExactMatcher};
use botmeter::sim::ScenarioSpec;

fn suppobox() -> DgaFamily {
    DgaFamily::by_name("suppobox").expect("suppobox is a preset")
}

#[test]
fn suppobox_is_a_dictionary_family() {
    let f = suppobox();
    // Lexically benign: pure letters, word-like lengths. That every label
    // is a pair of Suppobox's words is held by dga's unit test
    // `suppobox_pools_are_distinct_word_pairs`.
    for d in f.pool_for_epoch(0).iter().take(20) {
        let label = d.as_str().split('.').next().expect("a label");
        assert!(label.chars().all(|c| c.is_ascii_lowercase()));
        assert!(label.len() >= 10);
    }
}

#[test]
fn suppobox_exact_matcher_drives_the_full_pipeline() {
    // Simulate a Suppobox infection, match it against the family's pools
    // and run the estimation pipeline off the matched stream.
    let outcome = ScenarioSpec::builder(suppobox())
        .population(32)
        .seed(11)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::default());
    let matcher = ExactMatcher::from_family(outcome.family(), 0..2);

    let matched = match_stream(outcome.observed(), &matcher, ExecPolicy::default());
    assert!(matched.total_matched() > 0, "matcher matched nothing");
    let lookups = matched.for_server(ServerId(1));

    // Suppobox is AU: the Poisson estimator applies.
    let ctx = EstimationContext::new(
        outcome.family().clone(),
        outcome.ttl(),
        outcome.granularity(),
    );
    let est = PoissonEstimator::new().estimate(lookups, &ctx);
    let are = absolute_relative_error(est, outcome.ground_truth()[0] as f64);
    assert!(are < 0.7, "ARE {are} on dictionary-DGA pipeline");
}

#[test]
fn dictionary_pools_may_share_domains_across_epochs() {
    // Unlike the gibberish families, word-pair pools drawn from a finite
    // dictionary can re-use names on different days (as real dictionary
    // DGAs do). The matcher-over-epochs union handles this shape.
    let f = suppobox();
    let union = ExactMatcher::from_family(&f, 0..30);
    let total_with_dupes: usize = (0..30).map(|e| f.pool_for_epoch(e).len()).sum();
    assert!(
        union.len() <= total_with_dupes,
        "union cannot exceed the concatenation"
    );
    // Every day's pool is still internally distinct.
    for epoch in 0..30 {
        let pool = f.pool_for_epoch(epoch);
        let set: std::collections::HashSet<_> = pool.iter().collect();
        assert_eq!(set.len(), pool.len(), "epoch {epoch} has duplicates");
    }
}
