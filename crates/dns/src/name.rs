//! Validated domain names.
//!
//! Domain names flow through every layer of BotMeter — generated by DGAs,
//! cached by resolvers, matched by the D3 stage and consumed by estimators —
//! so they are validated once at the boundary and cheap to clone afterwards.
//!
//! A [`DomainName`] is a span of a shared `Arc<str>` text buffer plus its
//! [`DomainId`]. There are two ways to make one, and both run the same
//! one-pass validation:
//!
//! * **one name** — [`FromStr`] / serde decode: the buffer is exactly the
//!   name's own text, one allocation per name;
//! * **many names** — a [`DomainBatch`]: text is appended to one growing
//!   buffer, each name is validated and fingerprinted in place, and
//!   [`finish`](DomainBatch::finish) hands out every name over **one**
//!   allocation. A DGA pool of 10 000–50 000 names (paper §III-A, Table I)
//!   is then one text buffer and one `Vec`, not tens of thousands of heap
//!   objects to make, pass between threads and free.
//!
//! Shared buffers come with one rule: **a name kept past its batch, out of a
//! strict few of that batch, owns its text** — take a
//! [`detached`](DomainName::detached) copy, or the few pin the whole buffer
//! (200–650 KB for a paper-sized pool). Holders of (nearly) whole pools —
//! matchers, pool indexes, the simulator's interner — share the buffer; that
//! is the point.

use crate::intern::DomainId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// A validated, lower-case DNS name such as `"q3hbx07a.example"`.
///
/// Validation rules (a pragmatic subset of RFC 1035 sufficient for DGA
/// domains): 1–253 ASCII characters, labels of 1–63 characters separated by
/// single dots, each label made of `a-z`, `0-9` and `-` (no leading or
/// trailing hyphen), at least one label.
///
/// # Example
///
/// ```
/// use botmeter_dns::DomainName;
/// let d: DomainName = "abc123.evil.example".parse()?;
/// assert_eq!(d.tld(), "example");
/// assert!("..".parse::<DomainName>().is_err());
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
/// Alongside the text, every name carries its [`DomainId`] — a 64-bit
/// content fingerprint computed once here. `Hash` writes only that `u64`
/// (so TTL-cache and matcher probes do not re-hash the string), while
/// equality still compares the text after an id fast-path, keeping hash
/// collisions harmless. Where the text lives — a buffer of its own or a
/// [`DomainBatch`]'s — is not observable through any of these.
#[derive(Debug, Clone)]
pub struct DomainName {
    /// The buffer holding the text: the name's own, or its batch's.
    buf: Arc<str>,
    /// Where the name starts in `buf`.
    start: u32,
    /// The name's length in bytes (≤ 253).
    len: u32,
    id: DomainId,
}

// A name rides in every trace record (`ObservedLookup` is 48 bytes with
// it); the span cost 8 bytes over the bare `Arc<str>` + id and must not
// grow again unnoticed (DESIGN.md §8).
const _: () = assert!(std::mem::size_of::<DomainName>() == 32);

impl DomainName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }

    /// The name's bytes. Validated names are pure ASCII, so byte indices
    /// and `char` indices coincide.
    pub fn as_bytes(&self) -> &[u8] {
        let start = self.start as usize;
        &self.buf.as_bytes()[start..start + self.len as usize]
    }

    /// The name's precomputed content fingerprint.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// The final label (top-level domain).
    pub fn tld(&self) -> &str {
        self.as_str()
            .rsplit('.')
            .next()
            .expect("validated: has a label")
    }

    /// An equal name backed by exactly its own text. Whoever keeps a few
    /// names of a [`DomainBatch`] past the batch takes these, so the few do
    /// not pin the whole batch's buffer (see the module docs).
    pub fn detached(&self) -> DomainName {
        DomainName {
            buf: Arc::from(self.as_str()),
            start: 0,
            len: self.len,
            id: self.id,
        }
    }

    /// Length of the buffer this name keeps alive — equal to the name's own
    /// length exactly when it is detached. For retention tests.
    #[doc(hidden)]
    pub fn backing_len(&self) -> usize {
        self.buf.len()
    }
}

impl FromStr for DomainName {
    type Err = ParseDomainError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let id = check(s)?;
        Ok(DomainName {
            buf: Arc::from(s),
            start: 0,
            len: s.len() as u32,
            id,
        })
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        // Ids are pure functions of the text: differing ids prove differing
        // text without touching it; equal ids still require a text compare
        // so a fingerprint collision cannot conflate two names. Bytes, not
        // `str`: a byte slice of the buffer needs no char-boundary checks,
        // and this runs once per matcher or cache hit.
        self.id == other.id && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One u64, computed once at parse time: with `FxBuildHasher` this
        // makes a cache or matcher probe a single multiply.
        state.write_u64(self.id.0);
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DomainName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Ordering stays lexicographic on the text (sorted exports, feed
        // listings) — ids order arbitrarily.
        self.as_str().cmp(other.as_str())
    }
}

impl Serialize for DomainName {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for DomainName {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        /// Parses the text the format lends: checked and copied into the
        /// name's own buffer in one step, no `String` in between.
        struct NameVisitor;

        impl serde::de::Visitor<'_> for NameVisitor {
            type Value = DomainName;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a string")
            }

            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<DomainName, E> {
                v.parse().map_err(E::custom)
            }
        }

        deserializer.deserialize_str(NameVisitor)
    }
}

/// Builds many [`DomainName`]s over **one** shared text buffer.
///
/// Append a name's text with [`push`](Self::push) /
/// [`push_str`](Self::push_str), then [`commit`](Self::commit) it: the
/// appended text is validated and fingerprinted in place — the same single
/// pass [`FromStr`] runs, so a batch-built name is *checked*, never assumed
/// — and becomes the batch's next name. [`roll_back`](Self::roll_back)
/// takes the last name out again (how a deduping caller un-does a repeat).
/// [`finish`](Self::finish) freezes the text into one `Arc<str>` every
/// returned name points into.
///
/// # Example
///
/// ```
/// use botmeter_dns::{DomainBatch, DomainName};
/// let mut batch = DomainBatch::with_capacity(2, 32);
/// batch.push_str("abc");
/// batch.push_str(".example");
/// batch.commit()?;
/// batch.push_str("NOT OK");
/// assert!(batch.commit().is_err()); // refused, and its text is gone
/// batch.push_str("xyz.example");
/// batch.commit()?;
/// let names = batch.finish();
/// assert_eq!(names[0], "abc.example".parse::<DomainName>()?);
/// assert_eq!(names[1].as_str(), "xyz.example");
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Default)]
pub struct DomainBatch {
    /// Every committed name's text back to back, then the open name's.
    text: String,
    /// `(start, len, id)` of each committed name.
    spans: Vec<(u32, u32, DomainId)>,
}

impl DomainBatch {
    /// An empty batch pre-sized for `names` names of `bytes` total text, so
    /// a caller that knows its pool's shape grows neither allocation.
    pub fn with_capacity(names: usize, bytes: usize) -> Self {
        DomainBatch {
            text: String::with_capacity(bytes),
            spans: Vec::with_capacity(names),
        }
    }

    /// Appends one character to the open name.
    pub fn push(&mut self, c: char) {
        self.text.push(c);
    }

    /// Appends text to the open name.
    pub fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
    }

    /// Where the open name starts: the end of the committed text.
    fn committed_len(&self) -> usize {
        self.spans
            .last()
            .map_or(0, |&(start, len, _)| start as usize + len as usize)
    }

    /// Validates the open name and makes it the batch's next name,
    /// returning its fingerprint.
    ///
    /// # Errors
    ///
    /// The name-validation failure; the open text is discarded with it.
    ///
    /// # Panics
    ///
    /// Panics if the name would start past the 4 GiB a span's `u32` offset
    /// can address (eight orders of magnitude above a DGA pool).
    pub fn commit(&mut self) -> Result<DomainId, ParseDomainError> {
        let start = self.committed_len();
        match check(&self.text[start..]) {
            Ok(id) => {
                let len = (self.text.len() - start) as u32;
                self.spans.push((span_start(start), len, id));
                Ok(id)
            }
            Err(e) => {
                self.text.truncate(start);
                Err(e)
            }
        }
    }

    /// Takes the most recently committed name out of the batch again,
    /// together with any open text after it.
    pub fn roll_back(&mut self) {
        if let Some((start, _, _)) = self.spans.pop() {
            self.text.truncate(start as usize);
        }
    }

    /// Number of committed names.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no name has been committed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The text of the `index`-th committed name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get(&self, index: usize) -> &str {
        let (start, len, _) = self.spans[index];
        &self.text[start as usize..start as usize + len as usize]
    }

    /// Freezes the batch: every committed name, in commit order, over one
    /// shared allocation. Open (uncommitted) text is dropped.
    pub fn finish(mut self) -> Vec<DomainName> {
        self.text.truncate(self.committed_len());
        let buf: Arc<str> = Arc::from(self.text);
        self.spans
            .into_iter()
            .map(|(start, len, id)| DomainName {
                buf: Arc::clone(&buf),
                start,
                len,
                id,
            })
            .collect()
    }
}

/// A span's start offset, refusing — never wrapping — past `u32`.
fn span_start(offset: usize) -> u32 {
    u32::try_from(offset).expect("a name batch addresses at most 4 GiB of text")
}

/// The one validation routine: a single pass over the bytes, shared by
/// [`FromStr`] and [`DomainBatch::commit`], that returns the fingerprint of
/// the text it accepted.
///
/// Which error a malformed name gets is behaviour: `Empty`, then `TooLong`,
/// then per label from the left `EmptyLabel`, `LabelTooLong`,
/// `HyphenAtEdge`, `BadCharacter` (the label's first offending character) —
/// so a label is judged when it ends, not at its first bad byte.
fn check(s: &str) -> Result<DomainId, ParseDomainError> {
    let bytes = s.as_bytes();
    if bytes.is_empty() {
        return Err(ParseDomainError::Empty);
    }
    if bytes.len() > 253 {
        return Err(ParseDomainError::TooLong(bytes.len()));
    }
    let mut label_start = 0;
    let mut first_bad = None;
    for i in 0..=bytes.len() {
        match bytes.get(i) {
            Some(b'a'..=b'z' | b'0'..=b'9' | b'-') => {}
            Some(b'.') | None => {
                let label = &bytes[label_start..i];
                let (Some(&first), Some(&last)) = (label.first(), label.last()) else {
                    return Err(ParseDomainError::EmptyLabel);
                };
                if label.len() > 63 {
                    return Err(ParseDomainError::LabelTooLong(label.len()));
                }
                if first == b'-' || last == b'-' {
                    return Err(ParseDomainError::HyphenAtEdge);
                }
                if let Some(at) = first_bad {
                    // The first byte outside the alphabet starts a
                    // character (UTF-8 continuation bytes never come first).
                    let c = s[at..].chars().next().expect("offset is inside the text");
                    return Err(ParseDomainError::BadCharacter(c));
                }
                label_start = i + 1;
            }
            Some(_) => {
                first_bad.get_or_insert(i);
            }
        }
    }
    Ok(DomainId::of(s))
}

/// Why a string failed to parse as a [`DomainName`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseDomainError {
    /// The input was empty.
    Empty,
    /// The whole name exceeds 253 characters.
    TooLong(usize),
    /// A label between dots was empty (`".."`, leading or trailing dot).
    EmptyLabel,
    /// A label exceeds 63 characters.
    LabelTooLong(usize),
    /// A label starts or ends with `-`.
    HyphenAtEdge,
    /// A character outside `a-z`, `0-9`, `-`, `.` was found.
    BadCharacter(char),
}

impl fmt::Display for ParseDomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDomainError::Empty => write!(f, "domain name is empty"),
            ParseDomainError::TooLong(n) => write!(f, "domain name has {n} bytes (max 253)"),
            ParseDomainError::EmptyLabel => write!(f, "domain name contains an empty label"),
            ParseDomainError::LabelTooLong(n) => write!(f, "label has {n} bytes (max 63)"),
            ParseDomainError::HyphenAtEdge => {
                write!(f, "label starts or ends with a hyphen")
            }
            ParseDomainError::BadCharacter(c) => {
                write!(f, "invalid character {c:?} in domain name")
            }
        }
    }
}

impl std::error::Error for ParseDomainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_typical_dga_names() {
        for s in [
            "a.example",
            "q3hbx07a4mlp.biz",
            "0-0.ru",
            "xj2-9ab.info",
            "x.co.uk",
        ] {
            assert!(s.parse::<DomainName>().is_ok(), "{s} should parse");
        }
    }

    #[test]
    fn rejects_malformed_names() {
        assert_eq!("".parse::<DomainName>(), Err(ParseDomainError::Empty));
        assert_eq!(
            "a..b".parse::<DomainName>(),
            Err(ParseDomainError::EmptyLabel)
        );
        assert_eq!(
            ".a".parse::<DomainName>(),
            Err(ParseDomainError::EmptyLabel)
        );
        assert_eq!(
            "-a.example".parse::<DomainName>(),
            Err(ParseDomainError::HyphenAtEdge)
        );
        assert_eq!(
            "a-.example".parse::<DomainName>(),
            Err(ParseDomainError::HyphenAtEdge)
        );
        assert_eq!(
            "A.example".parse::<DomainName>(),
            Err(ParseDomainError::BadCharacter('A'))
        );
        assert_eq!(
            "a_b.example".parse::<DomainName>(),
            Err(ParseDomainError::BadCharacter('_'))
        );
    }

    #[test]
    fn rejects_oversized() {
        let long_label = "a".repeat(64);
        assert!(matches!(
            format!("{long_label}.example").parse::<DomainName>(),
            Err(ParseDomainError::LabelTooLong(64))
        ));
        let long_name = vec!["abcdefgh"; 32].join(".");
        assert!(matches!(
            long_name.parse::<DomainName>(),
            Err(ParseDomainError::TooLong(_))
        ));
    }

    #[test]
    fn accessors() {
        let d: DomainName = "foo.bar.example".parse().unwrap();
        assert_eq!(d.tld(), "example");
        assert_eq!(d.as_str(), "foo.bar.example");
        assert_eq!(d.to_string(), "foo.bar.example");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let d: DomainName = "foo.example".parse().unwrap();
        let e = d.clone();
        assert_eq!(d, e);
        // Same allocation (Arc pointer equality).
        assert!(std::ptr::eq(d.as_str(), e.as_str()));
    }

    #[test]
    fn serde_roundtrip_and_rejects_invalid() {
        let d: DomainName = "foo.example".parse().unwrap();
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, "\"foo.example\"");
        let back: DomainName = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        let bad: Result<DomainName, _> = serde_json::from_str("\"NOT OK\"");
        assert!(bad.is_err());
    }

    #[test]
    fn error_messages_are_lowercase_informative() {
        let e = "a..b".parse::<DomainName>().unwrap_err();
        assert!(e.to_string().contains("empty label"));
    }

    /// Which error a malformed name gets, pinned per variant and where two
    /// apply: `Empty`, `TooLong`, then per label from the left `EmptyLabel`,
    /// `LabelTooLong`, `HyphenAtEdge`, `BadCharacter`.
    #[test]
    fn error_variants_and_their_precedence() {
        use ParseDomainError::*;
        let label64_with_underscore = format!("{}_{}", "a".repeat(40), "b".repeat(23));
        let over_253_with_everything = format!("-A..{}", "x".repeat(250));
        let table: Vec<(&str, ParseDomainError)> = vec![
            ("", Empty),
            (&over_253_with_everything, TooLong(254)),
            (".", EmptyLabel),
            ("a.", EmptyLabel),
            ("a..-b", EmptyLabel),   // left to right: "" before "-b"
            ("-b..a", HyphenAtEdge), // ... and "-b" before ""
            (&label64_with_underscore, LabelTooLong(64)), // length before alphabet
            ("-A.x", HyphenAtEdge),  // edge before alphabet, same label
            ("a_-.x", HyphenAtEdge), // ... also when the bad byte comes first
            ("a.B-", HyphenAtEdge),
            ("-", HyphenAtEdge),
            ("ok.a_b!c", BadCharacter('_')), // the label's first offender
            ("A_.b-", BadCharacter('A')),    // an earlier label's error wins
            ("a b.x", BadCharacter(' ')),
            ("é.x", BadCharacter('é')), // decoded, not its first byte
            ("ab€c.x", BadCharacter('€')),
        ];
        for (input, expected) in table {
            assert_eq!(input.parse::<DomainName>(), Err(expected), "{input:?}");
            // The batch commit is the same routine, and a refused name
            // leaves no text behind.
            let mut batch = DomainBatch::default();
            batch.push_str("kept.example");
            batch.commit().unwrap();
            batch.push_str(input);
            assert_eq!(batch.commit(), Err(expected), "{input:?} in a batch");
            batch.push_str("next.example");
            batch.commit().unwrap();
            let names: Vec<String> = batch.finish().iter().map(|d| d.to_string()).collect();
            assert_eq!(names, ["kept.example", "next.example"]);
        }
        // A 63-byte label and a 253-byte name are the largest accepted.
        let label63 = "a".repeat(63);
        let name253 = format!("{label63}.{label63}.{label63}.{}", "b".repeat(61));
        assert_eq!(name253.len(), 253);
        assert!(name253.parse::<DomainName>().is_ok());
    }

    fn batch_of(texts: &[&str]) -> Vec<DomainName> {
        let mut batch = DomainBatch::with_capacity(texts.len(), 0);
        for text in texts {
            batch.push_str(text);
            batch.commit().unwrap();
        }
        batch.finish()
    }

    /// A batch-built name and the same text parsed alone are one value to
    /// every observer: where the text lives is not part of the name.
    #[test]
    fn batch_built_names_are_indistinguishable_from_parsed_ones() {
        use crate::{DomainInterner, FxHashSet};
        let texts = ["foo.bar.example", "a.example", "q3hbx07a4mlp.biz", "single"];
        let batched = batch_of(&texts);
        assert_eq!(batched.len(), texts.len());
        for (b, text) in batched.iter().zip(texts) {
            let p: DomainName = text.parse().unwrap();
            assert_eq!(*b, p);
            assert_eq!(p, *b);
            assert_eq!(b.id(), p.id());
            assert_eq!(b.cmp(&p), std::cmp::Ordering::Equal);
            assert_eq!(b.to_string(), text);
            assert_eq!(b.as_str(), text);
            assert_eq!(b.as_bytes(), p.as_bytes());
            assert_eq!(<DomainName as AsRef<str>>::as_ref(b), text);
            assert_eq!(b.tld(), p.tld());
            assert_eq!(
                serde_json::to_string(b).unwrap(),
                serde_json::to_string(&p).unwrap()
            );
            let decoded: DomainName = serde_json::from_str(&format!("\"{text}\"")).unwrap();
            assert_eq!(*b, decoded);
            // One hash-set entry holds both, whichever went in first.
            let set: FxHashSet<DomainName> = [b.clone(), p.clone()].into_iter().collect();
            assert_eq!(set.len(), 1);
            assert!(set.contains(&decoded));
            // The interner canonicalises across representations, both ways.
            let mut interner = DomainInterner::new();
            let canonical = interner.intern(b.clone());
            assert!(std::ptr::eq(
                interner.intern(p.clone()).as_str(),
                canonical.as_str()
            ));
            let mut interner = DomainInterner::new();
            let canonical = interner.intern(p.clone());
            assert!(std::ptr::eq(
                interner.intern(b.clone()).as_str(),
                canonical.as_str()
            ));
            assert_eq!(interner.len(), 1);
        }
        // Ordering across a batch is the text's, not the buffer position's.
        let mut sorted = batched.clone();
        sorted.sort();
        let mut expected = texts.to_vec();
        expected.sort_unstable();
        assert!(sorted.iter().map(DomainName::as_str).eq(expected));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DomainName>();
        assert_send_sync::<DomainBatch>();
    }

    #[test]
    fn a_batch_is_one_buffer_and_detached_names_own_their_text() {
        let names = batch_of(&["abc.example", "defgh.example"]);
        let total = "abc.example".len() + "defgh.example".len();
        assert!(names.iter().all(|d| d.backing_len() == total));
        // Back to back in one allocation.
        assert!(std::ptr::eq(
            names[0].as_str().as_bytes().as_ptr_range().end,
            names[1].as_str().as_ptr()
        ));
        let own = names[1].detached();
        assert_eq!(own, names[1]);
        assert_eq!(own.backing_len(), own.as_str().len());
        // The one-name constructors never share.
        let parsed: DomainName = "abc.example".parse().unwrap();
        assert_eq!(parsed.backing_len(), "abc.example".len());
    }

    #[test]
    fn roll_back_takes_the_last_name_and_open_text_out() {
        let mut batch = DomainBatch::default();
        assert!(batch.is_empty());
        batch.roll_back(); // nothing to undo
        batch.push_str("one.example");
        let id = batch.commit().unwrap();
        assert_eq!(id, DomainId::of("one.example"));
        batch.push_str("two.example");
        batch.commit().unwrap();
        batch.push_str("open text, never committed");
        batch.roll_back();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(0), "one.example");
        batch.push('x');
        batch.push_str(".example");
        batch.commit().unwrap();
        batch.push_str("dangling");
        let names = batch.finish();
        assert_eq!(names.len(), 2);
        assert_eq!(names[1].as_str(), "x.example");
        assert_eq!(names[1].backing_len(), "one.examplex.example".len());
        assert!(DomainBatch::default().finish().is_empty());
    }

    /// A batch never wraps a span offset: past `u32` it refuses.
    #[test]
    #[should_panic(expected = "at most 4 GiB")]
    fn span_offsets_refuse_to_wrap() {
        assert_eq!(span_start(u32::MAX as usize), u32::MAX);
        span_start(u32::MAX as usize + 1);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a: DomainName = "aaa.example".parse().unwrap();
        let b: DomainName = "bbb.example".parse().unwrap();
        assert!(a < b);
    }
}
