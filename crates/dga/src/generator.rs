//! Deterministic pseudo-random domain generation.
//!
//! Real DGAs derive their domains from a seed (often the current date).
//! This generator reproduces the property the estimators care about —
//! deterministic, collision-free, lexically random names per
//! `(family, stream, index)` — via SplitMix64 mixing, so the whole
//! simulation is reproducible without any malware code.
//!
//! A pool is thousands of names made, held and dropped together, so
//! [`DomainGenerator::batch`] writes them straight into one
//! [`DomainBatch`] text buffer — validated in place like any parsed name —
//! instead of building a `String` and an `Arc` per name.
//! [`DomainGenerator::domain`] is the same label routine run for a batch of
//! one.

use botmeter_dns::{DomainBatch, DomainName, FxBuildHasher, FxHashMap};
use botmeter_stats::mix64;
use serde::{Deserialize, Serialize};

/// The character alphabet a generator draws labels from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Charset {
    /// Lower-case letters only (e.g. Conficker-style names).
    Alpha,
    /// Lower-case letters and digits (e.g. newGoZ-style names).
    AlphaNumeric,
}

impl Charset {
    fn pick(&self, r: u64) -> char {
        match self {
            Charset::Alpha => (b'a' + (r % 26) as u8) as char,
            Charset::AlphaNumeric => {
                let i = (r % 36) as u8;
                if i < 26 {
                    (b'a' + i) as char
                } else {
                    (b'0' + (i - 26)) as char
                }
            }
        }
    }
}

/// How a generator builds the pseudo-random first label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NameStyle {
    /// Random characters from a [`Charset`], with a length range
    /// (Conficker/newGoZ-style gibberish).
    Chars {
        /// Shortest label length.
        min_len: usize,
        /// Longest label length.
        max_len: usize,
        /// The alphabet.
        charset: Charset,
    },
    /// Concatenated dictionary words (Suppobox-style): lexically benign
    /// labels that evade entropy-based detectors.
    Dictionary {
        /// The word list (each word lower-case ASCII letters).
        words: Vec<String>,
        /// Words concatenated per label (Suppobox uses two).
        words_per_name: usize,
    },
}

/// A deterministic domain-name generator for one DGA family.
///
/// `domain(stream, index)` is a pure function: the same triple of
/// `(generator seed, stream, index)` always yields the same name, and the
/// label length varies deterministically within `[min_len, max_len]`.
///
/// # Example
///
/// ```
/// use botmeter_dga::{Charset, DomainGenerator};
/// let g = DomainGenerator::new("newgoz", 42, 12, 20, Charset::AlphaNumeric, "net");
/// let a = g.domain(0, 7);
/// let b = g.domain(0, 7);
/// assert_eq!(a, b); // deterministic
/// assert!(a.as_str().ends_with(".net"));
/// assert_ne!(a, g.domain(1, 7)); // different stream → different name
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainGenerator {
    label: String,
    seed: u64,
    style: NameStyle,
    tld: String,
}

impl DomainGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `min_len` is zero, `min_len > max_len`, or `tld` is not a
    /// plausible TLD label (1–16 lower-case letters).
    pub fn new(
        label: &str,
        seed: u64,
        min_len: usize,
        max_len: usize,
        charset: Charset,
        tld: &str,
    ) -> Self {
        assert!(min_len >= 1 && min_len <= max_len, "bad length range");
        assert!(
            !tld.is_empty() && tld.len() <= 16 && tld.chars().all(|c| c.is_ascii_lowercase()),
            "bad tld {tld:?}"
        );
        DomainGenerator {
            label: label.to_owned(),
            seed,
            style: NameStyle::Chars {
                min_len,
                max_len,
                charset,
            },
            tld: tld.to_owned(),
        }
    }

    /// Creates a dictionary-style generator (Suppobox-class DGAs): each
    /// label concatenates `words_per_name` words from `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, any word is not 1–20 lower-case ASCII
    /// letters, `words_per_name` is zero, or the TLD is implausible.
    pub fn dictionary(
        label: &str,
        seed: u64,
        words: &[&str],
        words_per_name: usize,
        tld: &str,
    ) -> Self {
        assert!(!words.is_empty(), "dictionary must be non-empty");
        assert!(words_per_name >= 1, "need at least one word per name");
        assert!(
            words.iter().all(|w| {
                !w.is_empty() && w.len() <= 20 && w.chars().all(|c| c.is_ascii_lowercase())
            }),
            "dictionary words must be 1-20 lower-case ASCII letters"
        );
        assert!(
            !tld.is_empty() && tld.len() <= 16 && tld.chars().all(|c| c.is_ascii_lowercase()),
            "bad tld {tld:?}"
        );
        DomainGenerator {
            label: label.to_owned(),
            seed,
            style: NameStyle::Dictionary {
                words: words.iter().map(|w| (*w).to_owned()).collect(),
                words_per_name,
            },
            tld: tld.to_owned(),
        }
    }

    /// The family label this generator was built for.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Shortest first-label length this generator produces.
    pub fn min_len(&self) -> usize {
        match &self.style {
            NameStyle::Chars { min_len, .. } => *min_len,
            NameStyle::Dictionary {
                words,
                words_per_name,
            } => words_per_name * words.iter().map(String::len).min().expect("non-empty"),
        }
    }

    /// Longest first-label length this generator produces.
    pub fn max_len(&self) -> usize {
        match &self.style {
            NameStyle::Chars { max_len, .. } => *max_len,
            NameStyle::Dictionary {
                words,
                words_per_name,
            } => words_per_name * words.iter().map(String::len).max().expect("non-empty"),
        }
    }

    /// The alphabet labels are drawn from (dictionary names are pure
    /// letters).
    pub fn charset(&self) -> Charset {
        match &self.style {
            NameStyle::Chars { charset, .. } => *charset,
            NameStyle::Dictionary { .. } => Charset::Alpha,
        }
    }

    /// The label-construction style.
    pub fn style(&self) -> &NameStyle {
        &self.style
    }

    /// The TLD every generated domain ends with.
    pub fn tld(&self) -> &str {
        &self.tld
    }

    /// Appends the text of the `index`-th name of stream `stream` to
    /// `out`'s open name — the one label routine behind both
    /// [`domain`](Self::domain) and [`batch`](Self::batch).
    fn write_name(&self, stream: u64, index: u64, out: &mut DomainBatch) {
        let mut state = mix64(self.seed ^ mix64(stream.wrapping_add(0x5bd1_e995)));
        state = mix64(state ^ mix64(index.wrapping_add(0x1000_0193)));
        // Mix the label into the stream so different families with the same
        // numeric seed cannot collide.
        for &b in self.label.as_bytes() {
            state = mix64(state ^ b as u64);
        }
        let mut r = state;
        match &self.style {
            NameStyle::Chars {
                min_len,
                max_len,
                charset,
            } => {
                let span = (max_len - min_len + 1) as u64;
                let len = min_len + (state % span) as usize;
                for _ in 0..len {
                    r = mix64(r);
                    out.push(charset.pick(r));
                }
            }
            NameStyle::Dictionary {
                words,
                words_per_name,
            } => {
                for _ in 0..*words_per_name {
                    r = mix64(r);
                    out.push_str(&words[(r % words.len() as u64) as usize]);
                }
            }
        }
        out.push('.');
        out.push_str(&self.tld);
    }

    /// Longest name (label, dot, TLD) this generator writes, in bytes.
    fn max_name_len(&self) -> usize {
        self.max_len() + 1 + self.tld.len()
    }

    /// Generates the `index`-th domain of stream `stream` (a stream is
    /// typically an epoch or a sliding-window batch) — a batch of one, so
    /// the name owns exactly its own text.
    pub fn domain(&self, stream: u64, index: u64) -> DomainName {
        let mut one = DomainBatch::with_capacity(1, self.max_name_len());
        self.write_name(stream, index, &mut one);
        one.commit()
            .expect("generated names are valid by construction");
        one.finish().pop().expect("one committed name")
    }

    /// Generates a batch of `count` *distinct* domains for one stream, all
    /// over one shared text buffer (see [`DomainBatch`]): names are written
    /// straight into it, so a pool costs a handful of allocations, not
    /// two per name.
    ///
    /// Character-style generators essentially never collide; dictionary
    /// generators draw from a small combination space (Suppobox has a few
    /// thousand word pairs), so colliding indices are skipped until the
    /// batch is full.
    ///
    /// # Panics
    ///
    /// Panics if the style cannot produce `count` distinct names (a
    /// dictionary with fewer combinations than the pool needs).
    pub fn batch(&self, stream: u64, count: usize) -> Vec<DomainName> {
        let mut out = DomainBatch::with_capacity(count, count * self.max_name_len());
        // Dedupe on fingerprint → first index carrying it; a fingerprint
        // hit is confirmed on the text, so a collision between distinct
        // names cannot drop one.
        let mut first_with_id =
            FxHashMap::with_capacity_and_hasher(count, FxBuildHasher::default());
        let mut index = 0u64;
        let give_up = count as u64 * 1000 + 10_000;
        while out.len() < count {
            self.write_name(stream, index, &mut out);
            let id = out
                .commit()
                .expect("generated names are valid by construction");
            let at = out.len() - 1;
            let first = *first_with_id.entry(id).or_insert(at);
            if first != at {
                let name = out.get(at);
                // Same id, different text is a fingerprint collision
                // (≈2⁻⁶⁴ a pair); only then is every later name compared.
                if out.get(first) == name || (first + 1..at).any(|i| out.get(i) == name) {
                    out.roll_back();
                }
            }
            index += 1;
            assert!(
                index < give_up,
                "generator cannot produce {count} distinct names (dictionary too small?)"
            );
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn gen() -> DomainGenerator {
        DomainGenerator::new("test", 7, 10, 16, Charset::AlphaNumeric, "example")
    }

    #[test]
    fn deterministic_across_instances() {
        let a = gen().domain(3, 14);
        let b = gen().domain(3, 14);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_within_batch() {
        let batch = gen().batch(0, 50_000);
        let set: HashSet<_> = batch.iter().collect();
        assert_eq!(set.len(), 50_000, "collision inside one epoch's pool");
    }

    #[test]
    fn distinct_across_streams_and_labels() {
        let a: HashSet<_> = gen().batch(0, 5000).into_iter().collect();
        let b: HashSet<_> = gen().batch(1, 5000).into_iter().collect();
        assert!(a.is_disjoint(&b), "cross-epoch pool collision");
        let other = DomainGenerator::new("other", 7, 10, 16, Charset::AlphaNumeric, "example");
        let c: HashSet<_> = other.batch(0, 5000).into_iter().collect();
        assert!(a.is_disjoint(&c), "cross-family collision");
    }

    #[test]
    fn respects_length_range_and_tld() {
        let g = gen();
        let mut lens = HashSet::new();
        for i in 0..500 {
            let d = g.domain(0, i);
            let first = d.first_label();
            assert!(first.len() >= 10 && first.len() <= 16, "{d}");
            assert_eq!(d.tld(), "example");
            lens.insert(first.len());
        }
        assert!(lens.len() > 3, "length should vary: {lens:?}");
    }

    #[test]
    fn alpha_charset_has_no_digits() {
        let g = DomainGenerator::new("alpha", 1, 8, 12, Charset::Alpha, "com");
        for i in 0..200 {
            let d = g.domain(0, i);
            assert!(
                d.first_label().chars().all(|c| c.is_ascii_lowercase()),
                "{d}"
            );
        }
    }

    #[test]
    fn alphanumeric_uses_digits_eventually() {
        let g = DomainGenerator::new("an", 1, 12, 12, Charset::AlphaNumeric, "com");
        let has_digit = (0..200)
            .map(|i| g.domain(0, i))
            .any(|d| d.first_label().chars().any(|c| c.is_ascii_digit()));
        assert!(has_digit);
    }

    #[test]
    #[should_panic(expected = "bad length range")]
    fn rejects_zero_min_len() {
        DomainGenerator::new("x", 1, 0, 5, Charset::Alpha, "com");
    }

    #[test]
    #[should_panic(expected = "bad tld")]
    fn rejects_bad_tld() {
        DomainGenerator::new("x", 1, 5, 8, Charset::Alpha, "COM");
    }

    #[test]
    fn label_accessor() {
        assert_eq!(gen().label(), "test");
    }

    #[test]
    fn dictionary_names_concatenate_words() {
        let words = ["red", "blue", "stone", "river"];
        let g = DomainGenerator::dictionary("suppo", 3, &words, 2, "net");
        for i in 0..100 {
            let d = g.domain(0, i);
            let label = d.first_label();
            // Every label decomposes into two dictionary words.
            let ok = words
                .iter()
                .any(|a| label.starts_with(a) && words.contains(&&label[a.len()..]));
            assert!(ok, "{label} is not two dictionary words");
            assert_eq!(d.tld(), "net");
        }
        assert_eq!(g.min_len(), 6); // red+red
        assert_eq!(g.max_len(), 10); // stone+river / river+stone
        assert_eq!(g.charset(), Charset::Alpha);
    }

    #[test]
    fn dictionary_deterministic_and_varied() {
        let words = ["alpha", "beta", "gamma", "delta", "omega"];
        let g = DomainGenerator::dictionary("d", 9, &words, 2, "com");
        assert_eq!(g.domain(4, 2), g.domain(4, 2));
        let distinct: HashSet<_> = (0..200u64).map(|i| g.domain(0, i)).collect();
        assert!(
            distinct.len() > 15,
            "only {} distinct names",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "dictionary must be non-empty")]
    fn empty_dictionary_panics() {
        DomainGenerator::dictionary("x", 1, &[], 2, "com");
    }

    #[test]
    #[should_panic(expected = "lower-case ASCII")]
    fn bad_word_panics() {
        DomainGenerator::dictionary("x", 1, &["ok", "Bad"], 2, "com");
    }
}
