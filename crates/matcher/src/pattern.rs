//! Lexical pattern matching: the "algorithmic patterns of DGA domains"
//! input mode of Fig. 2 (step 2).
//!
//! Analysts who have reverse-engineered a DGA often describe its output
//! lexically — label alphabet, label length range, TLDs — rather than by
//! enumeration. [`PatternMatcher`] holds such a profile and matches in
//! O(name length), independent of pool size.

use crate::DomainMatcher;
use botmeter_dga::{Charset, DgaFamily};
use botmeter_dns::DomainName;
use std::collections::HashSet;

/// A lexical DGA-domain pattern.
///
/// Matches when the first label's length is within the configured range,
/// all its characters are in the alphabet, the label count is exactly two
/// (DGA names are `<random>.<tld>`), and the TLD is in the allowed set.
///
/// # Example
///
/// ```
/// use botmeter_dga::DgaFamily;
/// use botmeter_matcher::{DomainMatcher, PatternMatcher};
///
/// let family = DgaFamily::new_goz();
/// let m = PatternMatcher::for_family(&family);
/// // Every generated domain matches its own family's pattern...
/// assert!(family.pool_for_epoch(0).iter().all(|d| m.matches(d)));
/// // ...but a benign name does not.
/// assert!(!m.matches(&"www.benign.example".parse()?));
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PatternMatcher {
    min_len: usize,
    max_len: usize,
    charset: Charset,
    tlds: HashSet<String>,
}

impl PatternMatcher {
    /// Builds a pattern from an explicit profile.
    ///
    /// # Panics
    ///
    /// Panics if `min_len == 0`, `min_len > max_len` or `tlds` is empty.
    pub fn new(min_len: usize, max_len: usize, charset: Charset, tlds: &[&str]) -> Self {
        assert!(min_len >= 1 && min_len <= max_len, "bad length range");
        assert!(!tlds.is_empty(), "at least one TLD required");
        PatternMatcher {
            min_len,
            max_len,
            charset,
            tlds: tlds.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// The pattern describing `family`'s generator output.
    pub fn for_family(family: &DgaFamily) -> Self {
        let g = family.generator();
        PatternMatcher {
            min_len: g.min_len(),
            max_len: g.max_len(),
            charset: g.charset(),
            tlds: std::iter::once(g.tld().to_owned()).collect(),
        }
    }

    /// Whether `label` fits the pattern's length range (in bytes) and
    /// alphabet. Accepts arbitrary (even non-ASCII) input: the alphabet is
    /// ASCII, so any other character rejects.
    pub fn label_matches(&self, label: &str) -> bool {
        (self.min_len..=self.max_len).contains(&label.len())
            && label.bytes().all(|b| match self.charset {
                Charset::Alpha => b.is_ascii_lowercase(),
                Charset::AlphaNumeric => b.is_ascii_lowercase() || b.is_ascii_digit(),
            })
    }
}

impl DomainMatcher for PatternMatcher {
    fn matches(&self, domain: &DomainName) -> bool {
        domain.label_count() == 2
            && self.tlds.contains(domain.tld())
            && self.label_matches(domain.first_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn matches_own_family_pools_across_epochs() {
        for family in [DgaFamily::murofet(), DgaFamily::conficker_c()] {
            let m = PatternMatcher::for_family(&family);
            for epoch in 0..3 {
                assert!(
                    family.pool_for_epoch(epoch).iter().all(|x| m.matches(x)),
                    "{} epoch {epoch}",
                    family.name()
                );
            }
        }
    }

    #[test]
    fn rejects_wrong_tld_and_structure() {
        let m = PatternMatcher::new(5, 10, Charset::Alpha, &["biz"]);
        assert!(m.matches(&d("abcdef.biz")));
        assert!(!m.matches(&d("abcdef.com")), "wrong TLD");
        assert!(!m.matches(&d("a.b.biz")), "three labels");
        assert!(!m.matches(&d("abcd.biz")), "too short");
        assert!(!m.matches(&d("abcdefghijk.biz")), "too long");
        assert!(!m.matches(&d("abc4ef.biz")), "digit under Alpha charset");
    }

    #[test]
    fn alphanumeric_accepts_digits() {
        let m = PatternMatcher::new(5, 10, Charset::AlphaNumeric, &["net"]);
        assert!(m.matches(&d("a1b2c3.net")));
    }

    #[test]
    fn label_check_rejects_text_outside_the_alphabet() {
        let m = PatternMatcher::new(3, 6, Charset::Alpha, &["com"]);
        assert!(m.label_matches("abcdef"));
        assert!(!m.label_matches("abc-de"), "punctuation");
        assert!(!m.label_matches("abc.de"), "a separator");
        assert!(!m.label_matches("ABCDEF"), "upper case");
        assert!(!m.label_matches("abcdé"), "non-ASCII");
    }

    #[test]
    fn multiple_tlds() {
        let m = PatternMatcher::new(3, 8, Charset::Alpha, &["com", "net", "org"]);
        assert!(m.matches(&d("abc.com")));
        assert!(m.matches(&d("abc.org")));
        assert!(!m.matches(&d("abc.io")));
    }

    #[test]
    fn pattern_false_positive_rate_on_short_benign_names_is_real() {
        // Patterns are coarser than lists: a benign name with the right
        // shape *does* match. This documents the trade-off.
        let m = PatternMatcher::new(5, 10, Charset::Alpha, &["com"]);
        assert!(m.matches(&d("google.com")));
    }

    #[test]
    #[should_panic(expected = "at least one TLD")]
    fn empty_tlds_panics() {
        PatternMatcher::new(5, 10, Charset::Alpha, &[]);
    }

    #[test]
    #[should_panic(expected = "bad length range")]
    fn inverted_range_panics() {
        PatternMatcher::new(10, 5, Charset::Alpha, &["com"]);
    }
}
