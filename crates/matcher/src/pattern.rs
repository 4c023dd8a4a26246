//! Lexical pattern matching: the "algorithmic patterns of DGA domains"
//! input mode of Fig. 2 (step 2).
//!
//! Analysts who have reverse-engineered a DGA often describe its output
//! lexically — label alphabet, label length range, TLDs — rather than by
//! enumeration. [`PatternMatcher`] compiles such a profile and matches in
//! O(label length), independent of pool size.
//!
//! The hot loop is byte-level: the alphabet compiles to a 256-entry
//! byte-class table swept over the interned name bytes in 8-byte lanes
//! (branch-free inside a lane, so the compiler can keep the accumulator in
//! a register and unroll), and the allowed TLDs compile to an
//! Aho-Corasick-style reversed-suffix automaton walked backwards from the
//! end of the name — no per-character decode, no string hashing, no
//! allocation per probe.

use crate::DomainMatcher;
use botmeter_dga::{Charset, DgaFamily};
use botmeter_dns::DomainName;
use std::collections::HashSet;
use std::fmt;

/// Lane width of the byte-class sweep: one register's worth of bytes
/// checked per unrolled step.
const SWEEP_LANE: usize = 8;

/// The compiled alphabet: `table[b]` is `true` iff byte `b` may appear in
/// the DGA label. Indexed by the raw interned bytes, so any non-ASCII byte
/// (≥ 0x80, impossible in a validated [`DomainName`] but reachable through
/// [`PatternMatcher::label_matches`]) rejects exactly like the scalar
/// `char`-level check it replaced.
#[derive(Clone)]
struct ByteClassTable([bool; 256]);

impl ByteClassTable {
    fn compile(charset: Charset) -> Self {
        let mut table = [false; 256];
        for b in b'a'..=b'z' {
            table[b as usize] = true;
        }
        if charset == Charset::AlphaNumeric {
            for b in b'0'..=b'9' {
                table[b as usize] = true;
            }
        }
        ByteClassTable(table)
    }

    /// Whether every byte of `label` is in the class. Swept in
    /// [`SWEEP_LANE`]-byte chunks with a branch-free `&=` accumulator per
    /// lane; the remainder is checked scalar.
    #[inline]
    fn allows_all(&self, label: &[u8]) -> bool {
        let mut lanes = label.chunks_exact(SWEEP_LANE);
        for lane in &mut lanes {
            let mut ok = true;
            for &b in lane {
                ok &= self.0[b as usize];
            }
            if !ok {
                return false;
            }
        }
        lanes.remainder().iter().all(|&b| self.0[b as usize])
    }
}

/// An Aho-Corasick-style multi-pattern tail automaton over the *reversed*
/// TLD bytes: walking backwards from the end of a name either falls off
/// the automaton (not an allowed TLD) or reaches the label separator with
/// the current state telling whether the consumed label is terminal.
/// One table-indexed transition per byte, for any number of TLDs.
#[derive(Clone)]
struct TldTrie {
    /// `next[node][byte]` — `u16::MAX` is the absent-transition sentinel.
    next: Vec<[u16; 256]>,
    terminal: Vec<bool>,
}

const NO_TRANSITION: u16 = u16::MAX;

impl TldTrie {
    fn compile<'a>(tlds: impl IntoIterator<Item = &'a str>) -> Self {
        let mut trie = TldTrie {
            next: vec![[NO_TRANSITION; 256]],
            terminal: vec![false],
        };
        for tld in tlds {
            let mut node = 0usize;
            for &b in tld.as_bytes().iter().rev() {
                let slot = trie.next[node][b as usize];
                node = if slot == NO_TRANSITION {
                    let id = trie.next.len();
                    assert!(id < NO_TRANSITION as usize, "TLD set too large");
                    trie.next[node][b as usize] = id as u16;
                    trie.next.push([NO_TRANSITION; 256]);
                    trie.terminal.push(false);
                    id
                } else {
                    slot as usize
                };
            }
            trie.terminal[node] = true;
        }
        trie
    }

    #[inline]
    fn step(&self, node: usize, byte: u8) -> Option<usize> {
        match self.next[node][byte as usize] {
            NO_TRANSITION => None,
            n => Some(n as usize),
        }
    }

    #[inline]
    fn is_terminal(&self, node: usize) -> bool {
        self.terminal[node]
    }
}

/// A compiled lexical DGA-domain pattern.
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
#[derive(Clone)]
pub struct PatternMatcher {
    min_len: usize,
    max_len: usize,
    charset: Charset,
    table: ByteClassTable,
    tlds: HashSet<String>,
    tld_trie: TldTrie,
}

impl fmt::Debug for PatternMatcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PatternMatcher")
            .field("min_len", &self.min_len)
            .field("max_len", &self.max_len)
            .field("charset", &self.charset)
            .field("tlds", &self.tlds)
            .finish()
    }
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
        Self::compile(
            min_len,
            max_len,
            charset,
            tlds.iter().map(|s| (*s).to_owned()).collect(),
        )
    }

    /// Compiles the pattern describing `family`'s generator output.
    pub fn for_family(family: &DgaFamily) -> Self {
        let g = family.generator();
        Self::compile(
            g.min_len(),
            g.max_len(),
            g.charset(),
            std::iter::once(g.tld().to_owned()).collect(),
        )
    }

    fn compile(min_len: usize, max_len: usize, charset: Charset, tlds: HashSet<String>) -> Self {
        let table = ByteClassTable::compile(charset);
        let tld_trie = TldTrie::compile(tlds.iter().map(String::as_str));
        PatternMatcher {
            min_len,
            max_len,
            charset,
            table,
            tlds,
            tld_trie,
        }
    }

    fn char_allowed(&self, c: char) -> bool {
        match self.charset {
            Charset::Alpha => c.is_ascii_lowercase(),
            Charset::AlphaNumeric => c.is_ascii_lowercase() || c.is_ascii_digit(),
        }
    }

    /// Whether `label` fits the pattern's length range and alphabet, via
    /// the byte-class table sweep the hot path uses. Accepts arbitrary
    /// (even non-ASCII) input; any byte outside the compiled class — which
    /// is always a subset of ASCII — rejects.
    pub fn label_matches(&self, label: &str) -> bool {
        let bytes = label.as_bytes();
        bytes.len() >= self.min_len && bytes.len() <= self.max_len && self.table.allows_all(bytes)
    }

    /// The scalar per-`char` reference implementation of
    /// [`label_matches`](Self::label_matches), kept verbatim so the
    /// `batch_properties` suite can pin the byte-class sweep against it on
    /// arbitrary input.
    pub fn label_matches_scalar(&self, label: &str) -> bool {
        label.len() >= self.min_len
            && label.len() <= self.max_len
            && label.chars().all(|c| self.char_allowed(c))
    }

    /// The byte-level match the hot loop runs: exactly
    /// [`DomainMatcher::matches`], on the name's raw bytes.
    #[inline]
    pub fn matches_bytes(&self, bytes: &[u8]) -> bool {
        // Tail check: walk the reversed-TLD automaton backwards until the
        // label separator. Falling off the automaton, consuming the whole
        // name (single label), or stopping in a non-terminal state all
        // reject.
        let mut node = 0usize;
        let mut i = bytes.len();
        while i > 0 && bytes[i - 1] != b'.' {
            match self.tld_trie.step(node, bytes[i - 1]) {
                Some(next) => node = next,
                None => return false,
            }
            i -= 1;
        }
        if i == 0 || !self.tld_trie.is_terminal(node) {
            return false;
        }
        // Head check: everything before the separator must be one label of
        // the right length over the compiled alphabet. `.` is never in a
        // byte class, so a three-label name (whose head still contains a
        // dot) rejects here — equivalent to the old `label_count() == 2`.
        let head = &bytes[..i - 1];
        head.len() >= self.min_len && head.len() <= self.max_len && self.table.allows_all(head)
    }
}

impl DomainMatcher for PatternMatcher {
    fn matches(&self, domain: &DomainName) -> bool {
        self.matches_bytes(domain.as_bytes())
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
