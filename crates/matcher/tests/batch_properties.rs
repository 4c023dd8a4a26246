//! Property pins for the matching path: the stream scan must be
//! indistinguishable from a hand-rolled one-at-a-time filter, and
//! `PatternMatcher` must agree with the structural definition of a pattern
//! match written out below, on domains that exercise every clause.

use botmeter_dga::Charset;
use botmeter_dns::DomainName;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream, DomainMatcher, PatternMatcher};
use proptest::prelude::*;

/// TLDs the generated domains draw from; the pattern matchers under test
/// accept only the first three, so the rest exercise the reject paths
/// (shared suffixes included: `info`/`io`, `net`/`t`).
const TLD_POOL: [&str; 6] = ["biz", "net", "info", "com", "io", "t"];
const ALLOWED_TLDS: [&str; 3] = ["biz", "net", "info"];

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
        let m = PatternMatcher::new(1, 10, Charset::AlphaNumeric, &["biz"]);
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

    /// Whole-domain pattern matching agrees with the structural
    /// definition: exactly two labels, an allowed TLD, and a first label
    /// whose length is in range and whose characters are all in the
    /// alphabet.
    #[test]
    fn pattern_domain_match_equals_structural_reference(
        head in "[a-z0-9]{1,20}",
        mid in "[a-z0-9]{0,6}",
        tld_idx in 0usize..6,
        min in 1usize..12,
    ) {
        let charset = if min % 2 == 0 { Charset::Alpha } else { Charset::AlphaNumeric };
        let max = min + (tld_idx % 7) + 1;
        let m = PatternMatcher::new(min, max, charset, &ALLOWED_TLDS);
        let text = if mid.is_empty() {
            format!("{head}.{}", TLD_POOL[tld_idx])
        } else {
            format!("{head}.{mid}.{}", TLD_POOL[tld_idx])
        };
        let d: DomainName = text.parse().expect("generated domains are valid");
        let label = d.first_label();
        let in_alphabet = |c: char| match charset {
            Charset::Alpha => c.is_ascii_lowercase(),
            Charset::AlphaNumeric => c.is_ascii_lowercase() || c.is_ascii_digit(),
        };
        let reference = d.label_count() == 2
            && ALLOWED_TLDS.contains(&d.tld())
            && (min..=max).contains(&label.len())
            && label.chars().all(in_alphabet);
        prop_assert_eq!(m.matches(&d), reference, "domain {}", d);
    }
}
