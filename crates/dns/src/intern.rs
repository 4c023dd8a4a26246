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

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the FxHash family (Firefox's `rustc-hash` lineage):
/// a 64-bit odd constant with good avalanche behaviour under
/// rotate-xor-multiply mixing.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hashes a byte string: one 64×64→128-bit multiply by the FxHash
/// constant per 8-byte word, folded back to 64 bits, then the length and
/// an avalanche finalizer.
///
/// This is **not** a cryptographic or DoS-resistant hash; it is a fast,
/// deterministic content fingerprint. BotMeter's inputs are simulation
/// traces (or analyst-supplied feeds), not adversarial hash-flooding
/// attempts, and every equality check still falls back to the full string.
pub(crate) fn fx_hash64(bytes: &[u8]) -> u64 {
    let mut hash = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = fold_mix(hash, word);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        hash = fold_mix(hash, u64::from_le_bytes(tail));
    }
    // Fold in the length so "a\0\0..." padding cannot collide with "a".
    finalize(fold_mix(hash, bytes.len() as u64))
}

#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// One fingerprint round: a 64×64→128-bit multiply folded back to 64 bits
/// (high half xor low half), so a difference anywhere in the word reaches
/// every bit of the state. [`fx_mix`]'s product carries a difference only
/// upward: one in a word's top bits survives only in the state's top bits,
/// and a difference in the next word's low byte could cancel it — the
/// `site000090` / `site000840` collision of the benign catalog.
#[inline]
fn fold_mix(hash: u64, word: u64) -> u64 {
    let product = u128::from(hash ^ word) * u128::from(FX_SEED);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Murmur3-style avalanche finalizer: the xor-shifts and multiplies make
/// every bit of the result, the low ones a hash table indexes with
/// included, depend on every bit of the state.
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

/// Canonicalises [`DomainName`](crate::DomainName)s: interning a name
/// returns the first equal instance seen, so text that arrives from several
/// sources — a pool generated twice, a decoded record and the pool it was
/// drawn from — is held once. The canonical instance keeps the backing it
/// arrived with: a batch-built pool name goes on sharing its pool's one
/// buffer (interning a whole pool allocates nothing per name), a parsed
/// name keeps its own. The canonical instances are numbered by dense
/// **slots** in first-sighting order ([`slot`](Self::slot),
/// [`names`](Self::names)), for callers that keep per-domain state in flat
/// arrays; [`resolve`](Self::resolve) is the way back from an id-resident
/// record.
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
/// assert!(std::ptr::eq(a.as_str(), b.as_str())); // one canonical instance
/// assert_eq!(interner.len(), 1);
/// assert_eq!(interner.resolve(a.id()), Some(&a));
/// assert_eq!(interner.slot(&b), 0);
/// assert_eq!(interner.names(), &[a][..]);
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainInterner {
    slots: FxHashMap<DomainId, u32>,
    names: Vec<crate::DomainName>,
}

impl DomainInterner {
    /// An empty interner.
    pub fn new() -> Self {
        DomainInterner::default()
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
        let slot = self.slot(&name);
        self.names[slot as usize].clone()
    }

    /// The dense slot of `name`, registering it if it is new: interned
    /// names are numbered 0, 1, 2, … in first-sighting order, and
    /// [`names`](Self::names)`[slot]` is the canonical instance.
    ///
    /// # Panics
    ///
    /// On a fingerprint collision, as [`intern`](Self::intern), or past
    /// 2³² distinct names.
    pub fn slot(&mut self, name: &crate::DomainName) -> u32 {
        match self.slots.entry(name.id()) {
            Entry::Vacant(vacant) => {
                let slot = u32::try_from(self.names.len()).expect("fewer than 2^32 interned names");
                self.names.push(name.clone());
                *vacant.insert(slot)
            }
            Entry::Occupied(seen) => {
                let canonical = &self.names[*seen.get() as usize];
                // The id is taken by another text: refuse rather than
                // conflate. This check is what lets id equality stand in
                // for name equality.
                assert!(
                    canonical == name,
                    "DomainId fingerprint collision: {:?} vs {:?}",
                    canonical.as_str(),
                    name.as_str(),
                );
                *seen.get()
            }
        }
    }

    /// Every canonical instance, indexed by slot.
    pub fn names(&self) -> &[crate::DomainName] {
        &self.names
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The canonical [`DomainName`](crate::DomainName) for an interned id —
    /// the rehydration point where id-resident records regain their text
    /// (a refcount on the canonical instance's buffer) at egress edges.
    #[inline]
    pub fn resolve(&self, id: DomainId) -> Option<&crate::DomainName> {
        self.slots.get(&id).map(|&slot| &self.names[slot as usize])
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

    /// Structured names that differ in a few bytes at a word's top end —
    /// the benign catalog's shape and numbered host names — must not
    /// share a fingerprint: `DomainInterner` panics on such a pair.
    #[test]
    fn structured_names_have_distinct_fingerprints() {
        let collisions = |names: &mut dyn Iterator<Item = String>| {
            let mut seen = HashSet::new();
            names
                .filter(|n| !seen.insert(fx_hash64(n.as_bytes())))
                .count()
        };
        let catalog = &mut (0..20_000).map(|i| format!("site{i:06}.benign.example"));
        assert_eq!(collisions(catalog), 0, "catalog collisions");
        let hosts = &mut (0..1_000_000).map(|i| format!("host-{i}.corp.example"));
        assert_eq!(collisions(hosts), 0, "host-N collisions");
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

    /// The first instance interned is the one kept and handed back, whether
    /// it is a span of a batch's buffer or a parsed name with its own text.
    #[test]
    fn interner_keeps_the_first_instance_across_backings() {
        let batch_built = || {
            let mut batch = crate::DomainBatch::with_capacity(1, 16);
            batch.push_str("x.example");
            batch.commit().unwrap();
            batch.finish().remove(0)
        };
        let parsed = || "x.example".parse::<DomainName>().unwrap();
        for (first, second) in [(batch_built(), parsed()), (parsed(), batch_built())] {
            let mut interner = DomainInterner::new();
            assert!(interner.is_empty());
            let canonical = interner.intern(first.clone());
            assert!(std::ptr::eq(canonical.as_str(), first.as_str()));
            let again = interner.intern(second.clone());
            assert_eq!(again, second);
            assert!(std::ptr::eq(again.as_str(), first.as_str()));
            assert!(!std::ptr::eq(again.as_str(), second.as_str()));
            assert_eq!(interner.len(), 1);
            let resolved = interner.resolve(second.id()).unwrap();
            assert!(std::ptr::eq(resolved.as_str(), first.as_str()));
            let other = interner.intern("y.example".parse().unwrap());
            assert_ne!(other, canonical);
            assert_eq!(interner.len(), 2);
        }
    }

    #[test]
    fn resolve_of_a_never_interned_id_is_none() {
        let mut interner = DomainInterner::new();
        assert_eq!(interner.resolve(DomainId::of("x.example")), None);
        interner.intern("x.example".parse().unwrap());
        assert_eq!(interner.resolve(DomainId::of("y.example")), None);
        assert_eq!(interner.resolve(DomainId(12345)), None);
    }

    #[test]
    fn domain_ids_match_fingerprints() {
        let d: DomainName = "q3hbx07a.example".parse().unwrap();
        assert_eq!(d.id(), DomainId::of("q3hbx07a.example"));
        assert_eq!(d.id().0, fx_hash64(b"q3hbx07a.example"));
        assert_eq!(format!("{}", DomainId(0xabc)), "0000000000000abc");
    }
}
