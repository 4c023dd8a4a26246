//! Property pins for the vectorized matching hot path: the batch probe
//! entry point must be indistinguishable from one-at-a-time probing, and
//! the byte-class `PatternMatcher` sweep must agree with the scalar
//! per-`char` reference check on *arbitrary* input — including non-ASCII
//! bytes that can never appear in a validated [`DomainName`] but do reach
//! [`PatternMatcher::label_matches`] directly.

use botmeter_dga::Charset;
use botmeter_dns::DomainName;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream, DomainMatcher, ExactMatcher, PatternMatcher};
use proptest::prelude::*;

/// TLDs the generated domains draw from; the pattern matchers under test
/// accept only the first three, so the rest exercise the trie's reject
/// paths (shared suffixes included: `info`/`io`, `net`/`t`).
const TLD_POOL: [&str; 6] = ["biz", "net", "info", "com", "io", "t"];
const ALLOWED_TLDS: [&str; 3] = ["biz", "net", "info"];

fn domains_from(entries: &[(bool, u32)]) -> Vec<DomainName> {
    entries
        .iter()
        .map(|&(evil, idx)| {
            let s = if evil {
                format!("evil{}.biz", idx % 40)
            } else {
                format!("benign{idx}.net")
            };
            s.parse().expect("generated domains are valid")
        })
        .collect()
}

/// Probes every domain through `matches_batch` (in `split`-sized blocks)
/// and asserts the verdicts equal one-at-a-time `matches` calls.
fn assert_batch_equals_singles<M: DomainMatcher + Sync>(
    matcher: &M,
    domains: &[DomainName],
    split: usize,
) -> Result<(), TestCaseError> {
    let singles: Vec<bool> = domains.iter().map(|d| matcher.matches(d)).collect();
    let refs: Vec<&DomainName> = domains.iter().collect();
    // One whole-slice batch.
    let mut hits = vec![true; 3]; // stale contents must be cleared
    matcher.matches_batch(&refs, &mut hits);
    prop_assert_eq!(&hits, &singles, "whole-slice batch diverged");
    // Arbitrary re-blocking: concatenated block verdicts are identical.
    let mut blocked = Vec::new();
    for block in refs.chunks(split.max(1)) {
        let mut block_hits = Vec::new();
        matcher.matches_batch(block, &mut block_hits);
        prop_assert_eq!(block_hits.len(), block.len());
        blocked.extend(block_hits);
    }
    prop_assert_eq!(&blocked, &singles, "blocked batch diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch probes ≡ single probes for the exact (hash-set) matcher,
    /// under any blocking of the input.
    #[test]
    fn exact_batch_probes_equal_single_probes(
        entries in prop::collection::vec((any::<bool>(), 0u32..50), 0..60),
        split in 1usize..9,
    ) {
        let domains = domains_from(&entries);
        let evil: ExactMatcher = entries
            .iter()
            .filter(|e| e.0)
            .map(|e| format!("evil{}.biz", e.1 % 40).parse().unwrap())
            .collect();
        assert_batch_equals_singles(&evil, &domains, split)?;
        // Boxed/borrowed matcher stacks forward the batch path too.
        let boxed: Box<dyn DomainMatcher + Sync> = Box::new(evil);
        assert_batch_equals_singles(&boxed, &domains, split)?;
    }

    /// Batch probes ≡ single probes for the byte-class pattern matcher.
    #[test]
    fn pattern_batch_probes_equal_single_probes(
        entries in prop::collection::vec((any::<bool>(), 0u32..50), 0..60),
        split in 1usize..9,
        min in 1usize..8,
    ) {
        let domains = domains_from(&entries);
        let m = PatternMatcher::new(min, min + 6, Charset::AlphaNumeric, &ALLOWED_TLDS);
        assert_batch_equals_singles(&m, &domains, split)?;
    }

    /// The block-probing stream scan is equivalent to a hand-rolled
    /// one-at-a-time filter: same hit count, same per-server totals.
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

    /// The byte-class label sweep agrees with the scalar per-`char`
    /// reference on arbitrary printable-ASCII + Latin/Greek/CJK input
    /// (multi-byte UTF-8 exercises the ≥ 0x80 byte-class entries).
    #[test]
    fn byte_class_label_check_equals_scalar(
        ascii in "[ -~]{0,40}",
        latin in "[à-ÿ]{0,6}",
        exotic in "[λ中а-я]{0,4}",
        min in 1usize..16,
    ) {
        let label = format!("{ascii}{latin}{exotic}");
        for charset in [Charset::Alpha, Charset::AlphaNumeric] {
            let m = PatternMatcher::new(min, min + 9, charset, &ALLOWED_TLDS);
            prop_assert_eq!(
                m.label_matches(&label),
                m.label_matches_scalar(&label),
                "charset {:?}, label {:?}", charset, label
            );
        }
    }

    /// Whole-domain byte-class matching (trie tail + table head) agrees
    /// with the structural reference built from the public accessors.
    #[test]
    fn pattern_domain_match_equals_structural_reference(
        head in "[a-z0-9]{1,20}",
        mid in "[a-z0-9]{0,6}",
        tld_idx in 0usize..6,
        min in 1usize..12,
    ) {
        let charset = if min % 2 == 0 { Charset::Alpha } else { Charset::AlphaNumeric };
        let m = PatternMatcher::new(min, min + (tld_idx % 7) + 1, charset, &ALLOWED_TLDS);
        let text = if mid.is_empty() {
            format!("{head}.{}", TLD_POOL[tld_idx])
        } else {
            format!("{head}.{mid}.{}", TLD_POOL[tld_idx])
        };
        let d: DomainName = text.parse().expect("generated domains are valid");
        let reference = d.label_count() == 2
            && ALLOWED_TLDS.contains(&d.tld())
            && m.label_matches_scalar(d.first_label());
        prop_assert_eq!(m.matches(&d), reference, "domain {}", d);
    }
}
