//! Invariants of the caching-and-forwarding substrate, checked end-to-end
//! on simulated traffic.

use botmeter::dga::DgaFamily;
use botmeter::dns::{RawLookup, SimDuration, TtlPolicy};
use botmeter::exec::ExecPolicy;
use botmeter::sim::{ScenarioOutcome, ScenarioSpec};
use std::collections::{HashMap, HashSet};

fn spec(family: DgaFamily, ttl: TtlPolicy, seed: u64) -> ScenarioSpec {
    ScenarioSpec::builder(family)
        .population(32)
        .ttl(ttl)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

fn outcome(family: DgaFamily, ttl: TtlPolicy, seed: u64) -> ScenarioOutcome {
    spec(family, ttl, seed).run(ExecPolicy::default())
}

/// The pipeline's outcome beside the pre-cache trace it was filtered from
/// (which only the whole-trace reference run keeps).
fn outcome_and_raw(family: DgaFamily, seed: u64) -> (ScenarioOutcome, Vec<RawLookup>) {
    let spec = spec(family, TtlPolicy::paper_default(), seed);
    let (reference, raw) = spec.run_reference();
    let o = spec.run(ExecPolicy::default());
    assert_eq!(o.raw_lookups(), reference.raw_lookups());
    (o, raw)
}

#[test]
fn observed_domains_are_subset_of_raw() {
    let (o, raw) = outcome_and_raw(DgaFamily::new_goz(), 1);
    let raw_domains: HashSet<_> = raw.iter().map(|l| l.domain.clone()).collect();
    for obs in o.observed() {
        assert!(
            raw_domains.contains(&obs.domain),
            "observed a domain never queried: {}",
            obs.domain
        );
    }
}

#[test]
fn per_domain_observed_counts_never_exceed_raw() {
    let (o, raw) = outcome_and_raw(DgaFamily::conficker_c(), 2);
    let mut raw_counts: HashMap<&str, usize> = HashMap::new();
    for l in &raw {
        *raw_counts.entry(l.domain.as_str()).or_insert(0) += 1;
    }
    let mut obs_counts: HashMap<&str, usize> = HashMap::new();
    for l in o.observed() {
        *obs_counts.entry(l.domain.as_str()).or_insert(0) += 1;
    }
    for (domain, &obs) in &obs_counts {
        assert!(
            obs <= raw_counts[domain],
            "{domain}: observed {obs} > raw {}",
            raw_counts[domain]
        );
    }
}

#[test]
fn first_sighting_of_every_domain_is_never_masked() {
    // The cache can only absorb a lookup if an earlier one populated it.
    let (o, raw) = outcome_and_raw(DgaFamily::new_goz(), 3);
    let mut first_raw: HashMap<&str, u64> = HashMap::new();
    for l in &raw {
        first_raw
            .entry(l.domain.as_str())
            .or_insert(l.t.as_millis());
    }
    let mut seen_observed: HashSet<&str> = HashSet::new();
    for l in o.observed() {
        seen_observed.insert(l.domain.as_str());
    }
    for (domain, _) in first_raw {
        assert!(
            seen_observed.contains(domain),
            "{domain} was queried but never reached the border"
        );
    }
}

#[test]
fn longer_negative_ttl_masks_more() {
    let family = DgaFamily::murofet();
    let short = outcome(
        family.clone(),
        TtlPolicy::paper_default().with_negative(SimDuration::from_mins(20)),
        4,
    );
    let long = outcome(
        family,
        TtlPolicy::paper_default().with_negative(SimDuration::from_mins(320)),
        4,
    );
    // Same seed → identical raw traffic; only the cache differs.
    assert_eq!(short.raw_lookups(), long.raw_lookups());
    assert!(
        long.observed().len() < short.observed().len(),
        "5x negative TTL must absorb more: {} vs {}",
        long.observed().len(),
        short.observed().len()
    );
}

#[test]
fn observed_stream_is_time_ordered() {
    let o = outcome(DgaFamily::necurs(), TtlPolicy::paper_default(), 5);
    for w in o.observed().windows(2) {
        assert!(w[0].t <= w[1].t);
    }
}

#[test]
fn uniform_barrel_masking_grows_with_population() {
    // The AU caching effect: the visible fraction shrinks as N grows.
    let visible_fraction = |n: u64| {
        let o = ScenarioSpec::builder(DgaFamily::murofet())
            .population(n)
            .seed(6)
            .build()
            .expect("valid")
            .run(ExecPolicy::default());
        o.observed().len() as f64 / o.raw_lookups() as f64
    };
    let small = visible_fraction(8);
    let large = visible_fraction(128);
    assert!(
        large < small,
        "visible fraction should shrink with N: {small} -> {large}"
    );
}
