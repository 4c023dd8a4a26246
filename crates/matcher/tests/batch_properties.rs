//! Property pin for the matching path: the stream scan must be
//! indistinguishable from a hand-rolled one-at-a-time filter.

use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream, DomainMatcher, ExactMatcher};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stream scan is equivalent to a hand-rolled one-at-a-time
    /// filter: same hit count, same per-server totals.
    #[test]
    fn stream_scan_equals_one_at_a_time_filter(
        entries in prop::collection::vec((0u64..1_000, 0u32..4, any::<bool>()), 0..200),
    ) {
        use botmeter_dns::{ObservedLookup, ServerId, SimInstant};
        let mut sorted = entries;
        sorted.sort_unstable();
        let stream: Vec<ObservedLookup> = sorted
            .iter()
            .map(|&(ms, server, evil)| {
                let name = if evil { "evil.biz" } else { "benign.net" };
                ObservedLookup::new(
                    SimInstant::from_millis(ms),
                    ServerId(server),
                    name.parse().unwrap(),
                )
            })
            .collect();
        let m = ExactMatcher::from_domains(["evil.biz".parse().unwrap()]);
        let matched = match_stream(&stream, &m, ExecPolicy::Sequential);
        let expected: Vec<&ObservedLookup> =
            stream.iter().filter(|l| m.matches(&l.domain)).collect();
        prop_assert_eq!(matched.total_matched(), expected.len());
        prop_assert_eq!(matched.total_scanned(), stream.len());
        for server in 0u32..4 {
            let want: Vec<_> = expected
                .iter()
                .filter(|l| l.server == ServerId(server))
                .map(|l| (*l).clone())
                .collect();
            prop_assert_eq!(matched.for_server(ServerId(server)), want.as_slice());
        }
    }
}
