//! Property-based tests for the DNS substrate.

use botmeter_dns::{
    trace, Answer, ClientId, DnsCache, DomainId, DomainInterner, DomainName, ObservedLookup,
    ParseDomainError, RawLookup, ServerId, SimDuration, SimInstant, StaticAuthority, Topology,
    TtlPolicy,
};
use proptest::prelude::*;
use std::io::ErrorKind;

/// The tree decoder `serde_json::from_str` used to be (the vendored
/// crate's test oracle, included by path).
#[path = "../../../vendor/serde_json/tests/oracle/mod.rs"]
mod oracle;

/// What one item of a trace read comes to: a record, or which error on
/// which line.
#[derive(Debug, PartialEq)]
enum Read {
    Record(ObservedLookup),
    Io(ErrorKind),
    Parse(usize),
    TooLong(usize),
}

impl From<Result<ObservedLookup, trace::TraceError>> for Read {
    fn from(item: Result<ObservedLookup, trace::TraceError>) -> Self {
        match item {
            Ok(record) => Read::Record(record),
            Err(trace::TraceError::Io(e)) => Read::Io(e.kind()),
            Err(trace::TraceError::Parse { line, .. }) => Read::Parse(line),
            Err(trace::TraceError::LineTooLong { line, .. }) => Read::TooLong(line),
            Err(other) => panic!("a read cannot fail with {other}"),
        }
    }
}

/// `trace::read_jsonl_iter` as it was written before the reused line
/// buffer: the whole input in memory, a fresh `String` per line, each
/// decoded through the tree path; a line is judged too long, then not
/// UTF-8, then blank, then malformed. Test-side reference only.
fn reference_read_jsonl_iter(input: &[u8]) -> Vec<Read> {
    input
        .split(|&byte| byte == b'\n')
        .enumerate()
        .filter_map(|(i, line)| {
            if line.len() > trace::MAX_LINE_BYTES {
                return Some(Read::TooLong(i + 1));
            }
            let Ok(line) = String::from_utf8(line.to_vec()) else {
                return Some(Read::Io(ErrorKind::InvalidData));
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                return None;
            }
            Some(match oracle::de::tree_from_str(trimmed) {
                Ok(record) => Read::Record(record),
                Err(_) => Read::Parse(i + 1),
            })
        })
        .collect()
}

fn arb_domain() -> impl Strategy<Value = DomainName> {
    "[a-z][a-z0-9]{2,20}".prop_map(|label| format!("{label}.example").parse().expect("valid"))
}

/// Multi-label names with 2–5 labels of varying width, so the interner's
/// label-boundary table sees every label count the arena stores.
fn arb_deep_domain() -> impl Strategy<Value = DomainName> {
    prop::collection::vec("[a-z][a-z0-9]{0,15}", 2..6)
        .prop_map(|labels| labels.join(".").parse().expect("joined valid labels parse"))
}

/// Name validation as it was written before the one-pass byte loop: split
/// into labels, judge each label whole. Test-side reference only.
fn reference_validate(s: &str) -> Result<(), ParseDomainError> {
    if s.is_empty() {
        return Err(ParseDomainError::Empty);
    }
    if s.len() > 253 {
        return Err(ParseDomainError::TooLong(s.len()));
    }
    for label in s.split('.') {
        if label.is_empty() {
            return Err(ParseDomainError::EmptyLabel);
        }
        if label.len() > 63 {
            return Err(ParseDomainError::LabelTooLong(label.len()));
        }
        if label.starts_with('-') || label.ends_with('-') {
            return Err(ParseDomainError::HyphenAtEdge);
        }
        for c in label.chars() {
            if !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-') {
                return Err(ParseDomainError::BadCharacter(c));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Domain parsing accepts what it should and round-trips exactly.
    #[test]
    fn domain_roundtrip(d in arb_domain()) {
        let s = d.to_string();
        let back: DomainName = s.parse().expect("roundtrip");
        prop_assert_eq!(d, back);
    }

    /// Fuzz: parsing arbitrary printable garbage never panics, and every
    /// accepted name satisfies the documented invariants and round-trips
    /// through its display form.
    #[test]
    fn domain_parse_total_on_printable_garbage(s in "[ -~]{0,80}") {
        // Graceful rejection is the point; only accepted names carry proofs.
        if let Ok(d) = s.parse::<DomainName>() {
            let text = d.to_string();
            prop_assert!(!text.is_empty() && text.len() <= 253);
            prop_assert!(text.split('.').all(|l| !l.is_empty() && l.len() <= 63));
            let back: DomainName = text.parse().expect("accepted names round-trip");
            prop_assert_eq!(d, back);
        }
    }

    /// The one-pass byte validator answers exactly as the label-by-label
    /// reference does — same acceptance, same error variant and payload —
    /// on inputs built to break several rules at once.
    #[test]
    fn domain_validation_matches_the_label_by_label_reference(
        labels in prop::collection::vec("[ab0_Aé-]{0,70}", 0..6),
    ) {
        let s = labels.join(".");
        match (s.parse::<DomainName>(), reference_validate(&s)) {
            (Ok(d), Ok(())) => {
                prop_assert_eq!(d.as_str(), s.as_str());
                prop_assert_eq!(d.id(), DomainId::of(&s));
            }
            (Err(got), Err(expected)) => prop_assert_eq!(got, expected, "{:?}", s),
            (got, expected) => prop_assert!(false, "{s:?}: {got:?} vs reference {expected:?}"),
        }
    }

    /// Fuzz: dot-heavy inputs (leading/trailing/doubled dots) are rejected
    /// gracefully — an empty label must never survive parsing.
    #[test]
    fn domain_parse_rejects_empty_labels(label in "[a-z]{1,10}") {
        for bad in [
            format!(".{label}.example"),
            format!("{label}..example"),
            format!("{label}.example."),
            ".".to_string(),
        ] {
            prop_assert!(bad.parse::<DomainName>().is_err(), "accepted {bad:?}");
        }
    }

    /// Fuzz: names over 253 bytes are rejected even when every label is
    /// individually valid.
    #[test]
    fn domain_parse_rejects_oversize_names(labels in 6usize..12) {
        let name = (0..labels).map(|_| "a".repeat(50)).collect::<Vec<_>>().join(".");
        prop_assert!(name.len() > 253);
        prop_assert!(name.parse::<DomainName>().is_err());
    }

    /// Fuzz: a single bad character anywhere poisons the whole name.
    #[test]
    fn domain_parse_rejects_bad_characters(
        prefix in "[a-z]{1,8}",
        bad in "[A-Z_!@#$%&* ]",
        suffix in "[a-z]{1,8}",
    ) {
        let name = format!("{prefix}{bad}{suffix}.example");
        prop_assert!(name.parse::<DomainName>().is_err(), "accepted {name:?}");
    }

    /// Fuzz: labels may contain interior hyphens but never edge hyphens.
    #[test]
    fn domain_parse_hyphen_placement(label in "[a-z]{1,8}") {
        prop_assert!(format!("-{label}.example").parse::<DomainName>().is_err());
        prop_assert!(format!("{label}-.example").parse::<DomainName>().is_err());
        prop_assert!(format!("a-{label}.example").parse::<DomainName>().is_ok());
    }

    /// A cache entry is served strictly before its expiry and never after.
    #[test]
    fn cache_expiry_boundary(
        d in arb_domain(),
        stored_at in 0u64..1_000_000,
        ttl_ms in 1u64..10_000_000,
        probe_offset in 0u64..20_000_000,
    ) {
        let mut cache = DnsCache::new();
        let t0 = SimInstant::from_millis(stored_at);
        let policy = TtlPolicy::new(SimDuration::ZERO, SimDuration::from_millis(ttl_ms));
        cache.store(t0, d.clone(), Answer::NxDomain, &policy);
        let probe = t0 + SimDuration::from_millis(probe_offset);
        let hit = cache.lookup(probe, &d).is_some();
        prop_assert_eq!(hit, probe_offset < ttl_ms);
    }

    /// Quantisation floors to a lattice point no further than g−1 away.
    #[test]
    fn quantize_properties(ms in 0u64..10_000_000, g in 1u64..100_000) {
        let t = SimInstant::from_millis(ms);
        let q = t.quantize(SimDuration::from_millis(g));
        prop_assert!(q <= t);
        prop_assert_eq!(q.as_millis() % g, 0);
        prop_assert!(ms - q.as_millis() < g);
    }

    /// Instant arithmetic: (t + d) − d == t and ordering is preserved.
    #[test]
    fn instant_arithmetic(ms in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
        let t = SimInstant::from_millis(ms);
        let dur = SimDuration::from_millis(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert!(t + dur >= t);
        prop_assert_eq!((t + dur) - t, dur);
    }

    /// Through a single-resolver topology, the same domain is never
    /// forwarded twice within its TTL, regardless of client interleaving.
    #[test]
    fn no_double_forwarding_within_ttl(
        offsets in prop::collection::vec(0u64..3_600_000, 2..40),
        d in arb_domain(),
    ) {
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        let mut forwarded = 0;
        for (i, &ms) in sorted.iter().enumerate() {
            let raw = RawLookup::new(
                SimInstant::from_millis(ms),
                ClientId(i as u32),
                d.clone(),
            );
            if topo.process(&raw, &auth).expect("routable").is_some() {
                forwarded += 1;
            }
        }
        // All lookups fall within one 2h negative TTL window of the first.
        prop_assert_eq!(forwarded, 1, "offsets {:?}", sorted);
    }

    /// Trace JSONL round-trips arbitrary observed streams.
    #[test]
    fn trace_roundtrip(
        entries in prop::collection::vec((0u64..1_000_000, 0u32..5), 0..50),
    ) {
        let records: Vec<ObservedLookup> = entries
            .iter()
            .enumerate()
            .map(|(i, &(ms, server))| ObservedLookup::new(
                SimInstant::from_millis(ms),
                ServerId(server),
                format!("d{i}.example").parse().expect("valid"),
            ))
            .collect();
        let mut buf = Vec::new();
        trace::write_jsonl(&records, &mut buf).expect("write");
        let back: Vec<ObservedLookup> = trace::read_jsonl(buf.as_slice()).expect("read");
        // A decoded name owns exactly its own text: holders that keep a few
        // decoded names (the sketch's sample, the daemon's cell stores) pin
        // nothing else.
        prop_assert!(back.iter().all(|r| r.domain.backing_len() == r.domain.as_str().len()));
        prop_assert_eq!(records, back);
    }

    /// Reading a trace one reused buffer at a time yields what reading it a
    /// `String` per line through the tree decoder yielded: the same records,
    /// the same error variants on the same 1-based line numbers, over
    /// records, blank and whitespace lines, CRLF endings, lines that are
    /// not UTF-8, lines that are not the record, lines past the length cap
    /// (by one byte and by more, valid records and not), and a last line
    /// with or without its newline. `read_jsonl` is that up to the first error.
    #[test]
    fn trace_read_matches_the_line_per_string_tree_reader(
        lines in prop::collection::vec((0u8..13, 0u64..1_000_000, any::<u8>()), 0..24),
        final_newline in any::<bool>(),
    ) {
        let mut input = Vec::new();
        for (i, &(kind, ms, byte)) in lines.iter().enumerate() {
            let record = format!("{{\"t\":{ms},\"server\":{},\"domain\":\"d{i}.example\"}}", byte % 5);
            match kind {
                0..=3 => input.extend_from_slice(record.as_bytes()),
                4 => input.extend_from_slice(format!("  {record}\t\r").as_bytes()),
                5 => {}
                6 => input.extend_from_slice(b" \t \r"),
                // Not UTF-8, in and out of a string.
                7 => {
                    input.extend_from_slice(record.as_bytes());
                    let at = input.len() - 1 - usize::from(byte) % record.len();
                    input[at] = 0x80 | byte;
                }
                // Not the record: cut short, wrong type, bad name, not JSON.
                8 => input.extend_from_slice(&record.as_bytes()[..usize::from(byte) % record.len()]),
                9 => input.extend_from_slice(record.replace("\"server\":", "\"server\":\"x\",\"was\":").as_bytes()),
                10 => input.extend_from_slice(record.replace(".example", ".EXAMPLE").as_bytes()),
                // Around the length cap: a record padded to it, and past it.
                11 => {
                    input.extend_from_slice(record.as_bytes());
                    let over = [0, 1, usize::from(byte) * 4096][usize::from(byte) % 3];
                    let width = trace::MAX_LINE_BYTES + over - record.len();
                    input.resize(input.len() + width, if byte % 2 == 0 { b' ' } else { b'x' });
                }
                _ => input.extend_from_slice(record.replace("\"t\"", "\"x\":[1,{\"y\":null}],\"t\"").as_bytes()),
            }
            if i + 1 < lines.len() || final_newline {
                input.push(b'\n');
            }
        }
        let expected = reference_read_jsonl_iter(&input);
        let read: Vec<Read> = trace::read_jsonl_iter(input.as_slice()).map(Read::from).collect();
        prop_assert_eq!(&read, &expected);
        let all_or_first_error = trace::read_jsonl::<ObservedLookup, _>(input.as_slice());
        match expected.iter().find(|item| !matches!(item, Read::Record(_))) {
            None => {
                let records: Vec<Read> =
                    all_or_first_error.expect("every line read").into_iter().map(Read::Record).collect();
                prop_assert_eq!(&records, &expected);
            }
            Some(first_error) => prop_assert_eq!(&Read::from(all_or_first_error.map(|_| unreachable!())), first_error),
        }
    }

    /// Round-trip: every interned name resolves back from its id equal to
    /// what went in, one entry per distinct name, and an id the interner
    /// never issued resolves to nothing.
    #[test]
    fn interner_round_trips_arbitrary_names(
        names in prop::collection::vec(arb_deep_domain(), 1..40),
    ) {
        let mut interner = DomainInterner::new();
        for name in &names {
            let handle = interner.intern(name.clone());
            prop_assert_eq!(&handle, name);
        }
        for name in &names {
            prop_assert_eq!(interner.resolve(name.id()), Some(name));
        }
        let distinct: std::collections::HashSet<&str> =
            names.iter().map(DomainName::as_str).collect();
        prop_assert_eq!(interner.len(), distinct.len());
        let stranger = DomainId::of("never-interned.invalid");
        prop_assert!(interner.resolve(stranger).is_none());
    }

    /// Cache hit/miss counters always sum to the number of lookups.
    #[test]
    fn cache_stats_conservation(ops in prop::collection::vec((0u64..100, any::<bool>()), 1..100)) {
        let mut cache = DnsCache::new();
        let ttl = TtlPolicy::paper_default();
        let mut lookups = 0u64;
        for (i, &(key, store)) in ops.iter().enumerate() {
            let d: DomainName = format!("k{key}.example").parse().expect("valid");
            let t = SimInstant::from_millis(i as u64 * 1000);
            if store {
                cache.store(t, d, Answer::NxDomain, &ttl);
            } else {
                cache.lookup(t, &d);
                lookups += 1;
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits() + s.misses, lookups);
    }
}
