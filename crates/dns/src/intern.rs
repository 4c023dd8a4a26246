//! Tokenized domain identities: content fingerprints, a fast hasher and an
//! interner for the hot matching path.
//!
//! Domain names are the hottest values in the pipeline: every raw lookup
//! probes a TTL cache, every observed lookup probes the matcher's confirmed
//! set, and both are keyed by name. Re-hashing a 10–60 byte string with a
//! DoS-resistant hasher on every probe dominates those paths, so each
//! [`DomainName`](crate::DomainName) carries a [`DomainId`] — a 64-bit
//! content fingerprint computed once at construction. `Hash` for a domain
//! name writes only that `u64`, and the [`FxHasher`] in this module folds a
//! `u64` into a table slot with a single multiply, so cache and matcher
//! probes cost one multiply instead of one string hash. Equality still
//! compares the underlying text (after an id fast-path), so a fingerprint
//! collision can never conflate two distinct names.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the FxHash family (Firefox's `rustc-hash` lineage):
/// a 64-bit odd constant with good avalanche behaviour under
/// rotate-xor-multiply mixing.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hashes a byte string with the FxHash rotate-xor-multiply scheme.
///
/// This is **not** a cryptographic or DoS-resistant hash; it is a fast,
/// deterministic content fingerprint. BotMeter's inputs are simulation
/// traces (or analyst-supplied feeds), not adversarial hash-flooding
/// attempts, and every equality check still falls back to the full string.
///
/// # Example
///
/// ```
/// use botmeter_dns::fx_hash64;
/// assert_eq!(fx_hash64(b"a.example"), fx_hash64(b"a.example"));
/// assert_ne!(fx_hash64(b"a.example"), fx_hash64(b"b.example"));
/// ```
pub fn fx_hash64(bytes: &[u8]) -> u64 {
    let mut hash = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = fx_mix(hash, word);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        hash = fx_mix(hash, u64::from_le_bytes(tail));
    }
    // Fold in the length so "a\0\0..." padding cannot collide with "a".
    finalize(fx_mix(hash, bytes.len() as u64))
}

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Murmur3-style avalanche finalizer. The rotate-multiply rounds only
/// propagate bit differences upward, leaving the low bits — the ones a hash
/// table indexes with — clustered for similar strings; the xor-shifts fold
/// the well-mixed high bits back down.
#[inline]
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A 64-bit content fingerprint of a domain name.
///
/// Equal names always have equal ids; distinct names have distinct ids with
/// overwhelming probability (and code that must be collision-proof — the
/// cache, the matcher — compares the text when ids agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u64);

impl DomainId {
    /// Fingerprints a name's text. `DomainName` construction calls this
    /// once; everything downstream reuses the stored id.
    pub fn of(text: &str) -> DomainId {
        DomainId(fx_hash64(text.as_bytes()))
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A fast, non-cryptographic [`Hasher`] in the FxHash family.
///
/// Designed for keys that already hash themselves as a single `u64` (like
/// `DomainName`, which writes its [`DomainId`]): one `write_u64` is one
/// rotate-xor-multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        self.hash = fx_mix(self.hash, fx_hash64(bytes));
    }

    fn write_u8(&mut self, i: u8) {
        self.hash = fx_mix(self.hash, i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.hash = fx_mix(self.hash, i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.hash = fx_mix(self.hash, i);
    }

    fn write_usize(&mut self, i: usize) {
        self.hash = fx_mix(self.hash, i as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`] — the hot-path table type for
/// domain-keyed state (resolver caches, matcher sets, valid-domain sets).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Where one interned name lives inside the interner's arenas: its byte
/// range in the contiguous `bytes` storage and its label-boundary range in
/// the `label_starts` table. Both are plain offsets, so `DomainId → bytes`
/// resolution is two array indexes with no pointer chase.
#[derive(Debug, Clone, Copy)]
struct ArenaSpan {
    /// Start of the name's bytes in the bytes arena.
    offset: u32,
    /// Name length in bytes (validated names are ≤ 253 bytes).
    len: u16,
    /// Start of the name's label boundaries in the label-offset arena.
    label_offset: u32,
    /// Number of labels (≤ 127 for a validated name).
    label_count: u16,
}

/// Canonicalises [`DomainName`](crate::DomainName)s: interning a name
/// returns the first equal instance seen, so text that arrives from several
/// sources — a pool generated twice, a decoded record and the pool it was
/// drawn from — is held once. The canonical instance keeps the backing it
/// arrived with: a batch-built pool name goes on sharing its pool's one
/// buffer (interning a whole pool allocates nothing per name), a parsed
/// name keeps its own.
///
/// Every interned name is also appended to a contiguous **bytes arena**
/// with an offset table, so a [`DomainId`] resolves back to its text
/// ([`resolve_bytes`](Self::resolve_bytes) / [`resolve_str`](Self::resolve_str)
/// / [`resolve`](Self::resolve)) by indexing — no `Arc` dereference, no
/// hash-table walk over `Arc<str>` allocations scattered across the heap.
/// Label boundaries are precomputed at intern time, so
/// [`tld_of`](Self::tld_of), [`first_label_of`](Self::first_label_of) and
/// [`labels_of`](Self::labels_of) never rescan the text for dots.
///
/// # Example
///
/// ```
/// use botmeter_dns::{DomainInterner, DomainName};
/// let mut interner = DomainInterner::new();
/// let a: DomainName = "abc.example".parse()?;
/// let b: DomainName = "abc.example".parse()?;
/// assert!(!std::ptr::eq(a.as_str(), b.as_str())); // two allocations
/// let a = interner.intern(a);
/// let b = interner.intern(b);
/// assert!(std::ptr::eq(a.as_str(), b.as_str())); // one canonical Arc
/// assert_eq!(interner.len(), 1);
/// assert_eq!(interner.resolve_str(a.id()), Some("abc.example"));
/// assert_eq!(interner.tld_of(a.id()), Some("example"));
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainInterner {
    table: FxHashSet<crate::DomainName>,
    /// `DomainId` → slot in `names`/`spans`.
    slots: FxHashMap<DomainId, u32>,
    /// Canonical names by slot, for zero-cost rehydration at egress edges.
    names: Vec<crate::DomainName>,
    /// Contiguous, append-only storage of every interned name's bytes.
    bytes: Vec<u8>,
    /// Per-slot location of a name's bytes and label boundaries.
    spans: Vec<ArenaSpan>,
    /// Concatenated per-name label start positions (name-relative; a
    /// validated name is ≤ 253 bytes, so `u8` positions suffice).
    label_starts: Vec<u8>,
}

impl DomainInterner {
    /// An empty interner.
    pub fn new() -> Self {
        DomainInterner::default()
    }

    /// An empty interner pre-sized for `capacity` distinct names.
    pub fn with_capacity(capacity: usize) -> Self {
        DomainInterner {
            table: FxHashSet::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            slots: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            names: Vec::with_capacity(capacity),
            bytes: Vec::new(),
            spans: Vec::with_capacity(capacity),
            label_starts: Vec::new(),
        }
    }

    /// Returns the canonical instance of `name`, registering it if it is
    /// new. The returned value always compares equal to the input; if an
    /// equal name was interned before, that instance's text is the one
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics if a distinct name with the same 64-bit fingerprint was
    /// interned before — a content-hash collision (probability ~2⁻⁶⁴ per
    /// pair) that would make id-resident records ambiguous.
    pub fn intern(&mut self, name: crate::DomainName) -> crate::DomainName {
        match self.table.get(&name) {
            Some(canonical) => canonical.clone(),
            None => {
                self.register(&name);
                self.table.insert(name.clone());
                name
            }
        }
    }

    /// Appends a new name to the bytes/label arenas and its id to the slot
    /// table. Only called for names not yet in `table`.
    fn register(&mut self, name: &crate::DomainName) {
        let id = name.id();
        if let Some(&slot) = self.slots.get(&id) {
            // `table` missed but the id is taken: a fingerprint collision
            // between distinct texts. Refuse rather than conflate.
            assert!(
                self.names[slot as usize] == *name,
                "DomainId fingerprint collision: {:?} vs {:?}",
                self.names[slot as usize].as_str(),
                name.as_str(),
            );
            return;
        }
        let text = name.as_bytes();
        let offset = u32::try_from(self.bytes.len()).expect("bytes arena exceeds u32 range");
        let label_offset =
            u32::try_from(self.label_starts.len()).expect("label arena exceeds u32 range");
        self.bytes.extend_from_slice(text);
        // A label starts at 0 and after every dot; positions fit in u8
        // because validated names are at most 253 bytes long.
        self.label_starts.push(0);
        let mut label_count = 1u16;
        for (i, &b) in text.iter().enumerate() {
            if b == b'.' {
                self.label_starts.push((i + 1) as u8);
                label_count += 1;
            }
        }
        let slot = u32::try_from(self.names.len()).expect("slot table exceeds u32 range");
        self.spans.push(ArenaSpan {
            offset,
            len: text.len() as u16,
            label_offset,
            label_count,
        });
        self.names.push(name.clone());
        self.slots.insert(id, slot);
    }

    /// Parses and interns a string in one step.
    ///
    /// # Errors
    ///
    /// Propagates the name-validation failure.
    pub fn intern_str(&mut self, s: &str) -> Result<crate::DomainName, crate::ParseDomainError> {
        Ok(self.intern(s.parse()?))
    }

    /// Whether an equal name has already been interned.
    pub fn contains(&self, name: &crate::DomainName) -> bool {
        self.table.contains(name)
    }

    /// Whether a name with this fingerprint has been interned.
    pub fn contains_id(&self, id: DomainId) -> bool {
        self.slots.contains_key(&id)
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The arena span of an interned id, if any.
    #[inline]
    fn span(&self, id: DomainId) -> Option<ArenaSpan> {
        self.slots.get(&id).map(|&slot| self.spans[slot as usize])
    }

    /// The interned name's bytes, straight out of the contiguous arena —
    /// the zero-indirection representation byte-level matchers sweep.
    #[inline]
    pub fn resolve_bytes(&self, id: DomainId) -> Option<&[u8]> {
        self.span(id)
            .map(|s| &self.bytes[s.offset as usize..s.offset as usize + s.len as usize])
    }

    /// The interned name's text. Arena bytes are validated ASCII, so the
    /// UTF-8 check is a formality the optimiser sees through.
    #[inline]
    pub fn resolve_str(&self, id: DomainId) -> Option<&str> {
        self.resolve_bytes(id)
            .map(|b| std::str::from_utf8(b).expect("interned names are ASCII"))
    }

    /// The canonical [`DomainName`](crate::DomainName) for an interned id —
    /// the rehydration point where id-resident records regain their text
    /// (a refcount on the canonical instance's buffer) at egress edges.
    #[inline]
    pub fn resolve(&self, id: DomainId) -> Option<&crate::DomainName> {
        self.slots.get(&id).map(|&slot| &self.names[slot as usize])
    }

    /// The final label (TLD) of an interned name, via the precomputed
    /// label-boundary table — no rescan for dots.
    #[inline]
    pub fn tld_of(&self, id: DomainId) -> Option<&str> {
        let s = self.span(id)?;
        let last = self.label_starts[(s.label_offset + u32::from(s.label_count) - 1) as usize];
        let bytes =
            &self.bytes[s.offset as usize + last as usize..s.offset as usize + s.len as usize];
        Some(std::str::from_utf8(bytes).expect("interned names are ASCII"))
    }

    /// The first label (the DGA-generated part) of an interned name, via
    /// the precomputed label boundaries.
    #[inline]
    pub fn first_label_of(&self, id: DomainId) -> Option<&str> {
        let s = self.span(id)?;
        let end = if s.label_count > 1 {
            // The next label starts one past this label's trailing dot.
            s.offset as usize + self.label_starts[(s.label_offset + 1) as usize] as usize - 1
        } else {
            s.offset as usize + s.len as usize
        };
        let bytes = &self.bytes[s.offset as usize..end];
        Some(std::str::from_utf8(bytes).expect("interned names are ASCII"))
    }

    /// Number of labels of an interned name.
    #[inline]
    pub fn label_count_of(&self, id: DomainId) -> Option<usize> {
        self.span(id).map(|s| s.label_count as usize)
    }

    /// Iterates an interned name's labels left to right, from the
    /// precomputed boundary table.
    pub fn labels_of(&self, id: DomainId) -> Option<impl Iterator<Item = &str>> {
        let s = self.span(id)?;
        let starts = &self.label_starts
            [s.label_offset as usize..s.label_offset as usize + s.label_count as usize];
        let name = &self.bytes[s.offset as usize..s.offset as usize + s.len as usize];
        Some(starts.iter().enumerate().map(move |(i, &start)| {
            let end = starts
                .get(i + 1)
                .map(|&next| next as usize - 1)
                .unwrap_or(name.len());
            std::str::from_utf8(&name[start as usize..end]).expect("interned names are ASCII")
        }))
    }

    /// Total bytes held by the contiguous bytes arena.
    pub fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainName;
    use std::hash::BuildHasher;

    #[test]
    fn fingerprint_is_deterministic_and_length_aware() {
        assert_eq!(fx_hash64(b"abc.example"), fx_hash64(b"abc.example"));
        assert_ne!(fx_hash64(b"a"), fx_hash64(b"a\0"));
        assert_ne!(fx_hash64(b""), fx_hash64(b"\0"));
        // 8-byte boundary handling: chunked and tail bytes both mixed.
        assert_ne!(fx_hash64(b"12345678"), fx_hash64(b"12345679"));
        assert_ne!(fx_hash64(b"123456789"), fx_hash64(b"123456788"));
    }

    #[test]
    fn fingerprints_spread_over_generated_names() {
        // A crude avalanche check on the low bits (the bits a hash table
        // actually uses): 4096 uniform draws into 4096 buckets occupy
        // ~63% of them (1 - 1/e); heavy clustering would land far lower.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let h = fx_hash64(format!("bot{i}.example").as_bytes());
            low_bits.insert(h & 0xfff);
        }
        assert!(
            low_bits.len() > 2400,
            "low bits cluster: {}",
            low_bits.len()
        );
    }

    #[test]
    fn hasher_uses_written_u64_directly() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(42u64);
        let b = build.hash_one(42u64);
        assert_eq!(a, b);
        assert_ne!(build.hash_one(42u64), build.hash_one(43u64));
    }

    #[test]
    fn interner_canonicalises_allocations() {
        let mut interner = DomainInterner::with_capacity(8);
        let a: DomainName = "x.example".parse().unwrap();
        let b: DomainName = "x.example".parse().unwrap();
        let a = interner.intern(a);
        let b = interner.intern(b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(interner.len(), 1);
        assert!(interner.contains(&a));
        let c = interner.intern_str("y.example").unwrap();
        assert_eq!(interner.len(), 2);
        assert!(!interner.is_empty());
        assert_ne!(a, c);
    }

    #[test]
    fn domain_ids_match_fingerprints() {
        let d: DomainName = "q3hbx07a.example".parse().unwrap();
        assert_eq!(d.id(), DomainId::of("q3hbx07a.example"));
        assert_eq!(d.id().0, fx_hash64(b"q3hbx07a.example"));
        assert_eq!(format!("{}", DomainId(0xabc)), "0000000000000abc");
    }

    #[test]
    fn arena_resolves_interned_ids() {
        let mut interner = DomainInterner::new();
        let a = interner.intern_str("foo.bar.example").unwrap();
        let b = interner.intern_str("x.co").unwrap();
        assert!(interner.contains_id(a.id()));
        assert_eq!(interner.resolve_str(a.id()), Some("foo.bar.example"));
        assert_eq!(interner.resolve_bytes(b.id()), Some(&b"x.co"[..]));
        assert_eq!(interner.resolve(a.id()), Some(&a));
        assert_eq!(interner.resolve(DomainId(12345)), None);
        assert!(!interner.contains_id(DomainId(12345)));
        assert_eq!(
            interner.arena_bytes(),
            "foo.bar.example".len() + "x.co".len()
        );
        // Re-interning an equal name must not grow the arena.
        interner.intern_str("foo.bar.example").unwrap();
        assert_eq!(
            interner.arena_bytes(),
            "foo.bar.example".len() + "x.co".len()
        );
    }

    #[test]
    fn label_offsets_match_rescanning_accessors() {
        let mut interner = DomainInterner::new();
        for s in [
            "a.example",
            "foo.bar.example",
            "q3hbx07a4mlp.biz",
            "0-0.ru",
            "x.co.uk",
            "single",
            "a.b.c.d.e.f",
        ] {
            let name = interner.intern_str(s).unwrap();
            let id = name.id();
            assert_eq!(interner.tld_of(id), Some(name.tld()), "{s}");
            assert_eq!(interner.first_label_of(id), Some(name.first_label()), "{s}");
            assert_eq!(interner.label_count_of(id), Some(name.label_count()), "{s}");
            assert_eq!(
                interner.labels_of(id).unwrap().collect::<Vec<_>>(),
                name.labels().collect::<Vec<_>>(),
                "{s}"
            );
        }
        assert!(interner.labels_of(DomainId(7)).is_none());
        assert_eq!(interner.tld_of(DomainId(7)), None);
        assert_eq!(interner.first_label_of(DomainId(7)), None);
    }
}
