//! Property-based tests for the D3 matching stage.

use botmeter_dga::DgaFamily;
use botmeter_dns::{ObservedLookup, ServerId, SimInstant};
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream, DetectionWindow, DomainMatcher, ExactMatcher};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The detection window's surviving fraction tracks 1 − x and is a
    /// strict subset of the exact matcher.
    #[test]
    fn window_fraction_tracks_rate(rate in 0.0f64..1.0, seed in any::<u64>()) {
        let exact = ExactMatcher::from_family(&DgaFamily::new_goz(), 0..1);
        let window = DetectionWindow::new(&exact, rate, seed);
        let frac = window.len() as f64 / exact.len() as f64;
        prop_assert!((frac - (1.0 - rate)).abs() < 0.03,
                     "rate {rate}: kept {frac}");
        prop_assert!(window.known_domains().iter().all(|d| exact.matches(d)));
    }

    /// match_stream conserves lookups: matched + unmatched == scanned, and
    /// grouping preserves per-server arrival order.
    #[test]
    fn match_stream_conservation(
        entries in prop::collection::vec((0u64..1_000_000, 0u32..4, any::<bool>()), 0..80),
    ) {
        let evil: ExactMatcher = (0..10)
            .map(|i| format!("evil{i}.example").parse().unwrap())
            .collect();
        let mut sorted = entries.clone();
        sorted.sort();
        let stream: Vec<ObservedLookup> = sorted
            .iter()
            .enumerate()
            .map(|(i, &(ms, server, is_evil))| {
                let domain = if is_evil {
                    format!("evil{}.example", i % 10)
                } else {
                    format!("benign{i}.example")
                };
                ObservedLookup::new(
                    SimInstant::from_millis(ms),
                    ServerId(server),
                    domain.parse().unwrap(),
                )
            })
            .collect();
        let matched = match_stream(&stream, &evil, ExecPolicy::Sequential);
        prop_assert_eq!(matched.total_scanned(), stream.len());
        let expected = sorted.iter().filter(|e| e.2).count();
        prop_assert_eq!(matched.total_matched(), expected);
        for (_, lookups) in matched.iter() {
            for w in lookups.windows(2) {
                prop_assert!(w[0].t <= w[1].t);
            }
        }
    }

    /// Exact matching never has false positives against other families'
    /// pools (distinct generators cannot collide).
    #[test]
    fn exact_no_cross_family_hits(epoch in 0u64..20) {
        let goz = ExactMatcher::from_family(&DgaFamily::new_goz(), epoch..epoch + 1);
        for d in DgaFamily::conficker_c().pool_for_epoch(epoch).iter().take(200) {
            prop_assert!(!goz.matches(d));
        }
    }
}
