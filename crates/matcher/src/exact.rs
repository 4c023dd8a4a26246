//! Exact matching: the "confirmed domains" input of §II-B.

use crate::DomainMatcher;
use botmeter_dga::DgaFamily;
use botmeter_dns::{DomainName, FxBuildHasher, FxHashSet};
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use std::ops::Range;

/// Matches against an explicit set of confirmed DGA domains (e.g. a
/// DGArchive export, or — in simulation — the family's own pools).
///
/// # Example
///
/// ```
/// use botmeter_matcher::{DomainMatcher, ExactMatcher};
/// let m: ExactMatcher = ["a.example".parse().unwrap()].into_iter().collect();
/// assert!(m.matches(&"a.example".parse().unwrap()));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactMatcher {
    /// Confirmed names behind the Fx hasher: a membership probe hashes the
    /// lookup's pre-computed `DomainId` with one multiply instead of
    /// re-hashing the domain string.
    domains: FxHashSet<DomainName>,
}

impl ExactMatcher {
    /// Builds a matcher from any collection of confirmed domains.
    pub fn from_domains<I: IntoIterator<Item = DomainName>>(domains: I) -> Self {
        ExactMatcher {
            domains: domains.into_iter().collect(),
        }
    }

    /// Builds the *perfect-knowledge* matcher for a family: every pool
    /// domain of every epoch in `epochs` (what a D3 algorithm with a full
    /// detection window would know).
    ///
    /// The pools are generated one job per epoch on the default worker
    /// pool (`BOTMETER_THREADS=1`, or one core, generates them inline) and
    /// folded in epoch order by [`from_pools`](Self::from_pools), so the
    /// set does not depend on the worker count.
    pub fn from_family(family: &DgaFamily, epochs: Range<u64>) -> Self {
        Self::from_family_under(family, epochs, ExecPolicy::default())
    }

    fn from_family_under(family: &DgaFamily, epochs: Range<u64>, policy: ExecPolicy) -> Self {
        let jobs = epochs.end.saturating_sub(epochs.start) as usize;
        let pools = botmeter_exec::run_indexed_with(policy, &Obs::noop(), jobs, |i| {
            family.pool_for_epoch(epochs.start + i as u64)
        });
        Self::from_pools(pools.iter().map(Vec::as_slice))
    }

    /// Builds a matcher from already generated pools: their names,
    /// inserted pool by pool in the order given.
    ///
    /// The set is pre-sized to the summed pool lengths, so building from a
    /// large window (newGoZ pools 10 000 names per epoch) does one
    /// allocation instead of a rehash cascade.
    pub fn from_pools<'a, I>(pools: I) -> Self
    where
        I: IntoIterator<Item = &'a [DomainName]>,
        I::IntoIter: Clone,
    {
        let pools = pools.into_iter();
        let expected: usize = pools.clone().map(<[DomainName]>::len).sum();
        let mut domains = FxHashSet::with_capacity_and_hasher(expected, FxBuildHasher::default());
        for pool in pools {
            domains.extend(pool.iter().cloned());
        }
        ExactMatcher { domains }
    }

    /// Number of confirmed domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The underlying confirmed-domain set.
    pub fn domains(&self) -> &FxHashSet<DomainName> {
        &self.domains
    }
}

impl DomainMatcher for ExactMatcher {
    fn matches(&self, domain: &DomainName) -> bool {
        self.domains.contains(domain)
    }
}

impl FromIterator<DomainName> for ExactMatcher {
    fn from_iter<I: IntoIterator<Item = DomainName>>(iter: I) -> Self {
        Self::from_domains(iter)
    }
}

impl Extend<DomainName> for ExactMatcher {
    fn extend<I: IntoIterator<Item = DomainName>>(&mut self, iter: I) {
        self.domains.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_family_covers_all_requested_epochs() {
        let f = DgaFamily::torpig(); // pool of 100/day
        let m = ExactMatcher::from_family(&f, 0..3);
        assert_eq!(m.len(), 300);
        for epoch in 0..3 {
            for d in f.pool_for_epoch(epoch) {
                assert!(m.matches(&d), "epoch {epoch} domain {d} missed");
            }
        }
        // Epoch 3 is outside the window.
        let missed = f
            .pool_for_epoch(3)
            .into_iter()
            .filter(|d| m.matches(d))
            .count();
        assert_eq!(missed, 0);
    }

    /// Under any worker count `from_family` is the fold it replaced —
    /// each epoch's pool generated and moved into the pre-sized set in
    /// turn: the same names in the same iteration order. Rotating (Necurs), sliding-window (Ranbyus) and mixture
    /// (Pykspa) pools included.
    #[test]
    fn from_family_does_not_depend_on_the_worker_count() {
        for (family, epochs) in [
            (DgaFamily::new_goz(), 0..5u64),
            (DgaFamily::conficker_c(), 2..4),
            (DgaFamily::necurs(), 0..9),
            (DgaFamily::ranbyus(), 28..35),
            (DgaFamily::pykspa(), 0..5),
        ] {
            let expected: usize = epochs.clone().map(|e| family.pool_for_epoch(e).len()).sum();
            let mut domains =
                FxHashSet::with_capacity_and_hasher(expected, FxBuildHasher::default());
            for epoch in epochs.clone() {
                domains.extend(family.pool_for_epoch(epoch));
            }
            let reference = ExactMatcher { domains };
            for policy in [
                ExecPolicy::Sequential,
                ExecPolicy::with_threads(1),
                ExecPolicy::with_threads(2),
                ExecPolicy::with_threads(4),
                ExecPolicy::with_threads(7),
            ] {
                let what = format!("{} / {policy:?}", family.name());
                let built = ExactMatcher::from_family_under(&family, epochs.clone(), policy);
                assert!(built.domains().iter().eq(reference.domains()), "{what}");
            }
        }
        assert!(ExactMatcher::from_family(&DgaFamily::torpig(), 3..3).is_empty());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = ExactMatcher::from_family(&DgaFamily::torpig(), 3..1);
        assert!(reversed.is_empty());
    }

    /// Where a name's text lives — a pool's shared buffer or a decoded
    /// record's own — is invisible to matching, in both directions.
    #[test]
    fn pool_built_and_decoded_names_match_each_other() {
        let f = DgaFamily::torpig();
        let pooled = ExactMatcher::from_family(&f, 0..2);
        let json = serde_json::to_string(&f.pool_for_epoch(1)).unwrap();
        let decoded: Vec<DomainName> = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded.len(), 100);
        assert!(decoded.iter().all(|d| pooled.matches(d)));
        let from_decoded = ExactMatcher::from_domains(decoded);
        assert!(f.pool_for_epoch(1).iter().all(|d| from_decoded.matches(d)));
        assert!(!f.pool_for_epoch(0).iter().any(|d| from_decoded.matches(d)));
    }

    #[test]
    fn rejects_foreign_domains() {
        let f = DgaFamily::murofet();
        let m = ExactMatcher::from_family(&f, 0..1);
        assert!(!m.matches(&"www.benign.example".parse().unwrap()));
    }

    #[test]
    fn collect_extend_empty() {
        let mut m: ExactMatcher = std::iter::empty().collect();
        assert!(m.is_empty());
        m.extend(["x.example".parse().unwrap()]);
        assert_eq!(m.len(), 1);
        assert!(m.domains().contains(&"x.example".parse().unwrap()));
    }

    #[test]
    fn trait_object_composition() {
        let m = ExactMatcher::from_domains(["a.example".parse().unwrap()]);
        let boxed: Box<dyn DomainMatcher> = Box::new(m);
        assert!(boxed.matches(&"a.example".parse().unwrap()));
        let by_ref: &dyn DomainMatcher = &boxed;
        assert!(by_ref.matches(&"a.example".parse().unwrap()));
    }
}
