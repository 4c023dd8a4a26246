//! Deterministic seed derivation.
//!
//! Parameter sweeps in the BotMeter benchmarks run thousands of trials, each
//! of which must be (a) statistically independent of its siblings and
//! (b) exactly reproducible from a single base seed. [`SeedSequence`]
//! provides both by hashing `(base, label...)` tuples through the SplitMix64
//! finalizer, whose output is a high-quality 64-bit mix.

/// The SplitMix64 finalizer: a fast, well-distributed 64-bit mixing function.
///
/// # Example
///
/// ```
/// let a = botmeter_stats::mix64(1);
/// let b = botmeter_stats::mix64(2);
/// assert_ne!(a, b);
/// ```
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hierarchical seed deriver.
///
/// A `SeedSequence` is a base seed plus a path of stream labels; each
/// [`fork`](Self::fork) extends the path, and [`seed`](Self::seed) collapses
/// the path into a 64-bit seed. Sibling forks produce unrelated seeds.
///
/// # Example
///
/// ```
/// use botmeter_stats::SeedSequence;
/// let root = SeedSequence::new(42);
/// let s1 = root.fork(0).seed();
/// let s2 = root.fork(1).seed();
/// assert_ne!(s1, s2);
/// // Reproducible:
/// assert_eq!(s1, SeedSequence::new(42).fork(0).seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Creates a root sequence from a base seed.
    pub fn new(base: u64) -> Self {
        SeedSequence { state: mix64(base) }
    }

    /// Derives a child sequence for stream `label`.
    #[must_use]
    pub fn fork(&self, label: u64) -> Self {
        SeedSequence {
            state: mix64(self.state ^ mix64(label.wrapping_add(0xA5A5_A5A5_A5A5_A5A5))),
        }
    }

    /// Derives a child sequence from a string label (e.g. a DGA family name).
    #[must_use]
    pub fn fork_str(&self, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.fork(h)
    }

    /// The 64-bit seed at this node.
    pub fn seed(&self) -> u64 {
        mix64(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_bijective_sample() {
        // No collisions over a contiguous block (a bijection can't collide).
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn forks_are_distinct_and_stable() {
        let root = SeedSequence::new(7);
        let mut seen = HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(root.fork(i).seed()), "fork {i} collided");
        }
        assert_eq!(root.fork(3).seed(), SeedSequence::new(7).fork(3).seed());
    }

    #[test]
    fn nested_forks_differ_from_flat() {
        let root = SeedSequence::new(1);
        assert_ne!(root.fork(1).fork(2).seed(), root.fork(2).fork(1).seed());
        assert_ne!(root.fork(1).fork(2).seed(), root.fork(1).seed());
    }

    #[test]
    fn string_forks() {
        let root = SeedSequence::new(9);
        assert_ne!(
            root.fork_str("newgoz").seed(),
            root.fork_str("ramnit").seed()
        );
        assert_eq!(
            root.fork_str("newgoz").seed(),
            root.fork_str("newgoz").seed()
        );
    }
}
