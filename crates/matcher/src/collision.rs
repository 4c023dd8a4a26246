//! Collision cases (§II-B): pool domains that coincide with legitimately
//! registered names.
//!
//! A small fraction of a DGA's pseudo-random domains may collide with real,
//! benign registrations. Such domains resolve positively (and get cached
//! under the long *positive* TTL), and a careful analyst excludes them from
//! the NXD statistics the estimators consume. [`CollisionFilter`] wraps any
//! matcher and subtracts a known collision list.

use crate::DomainMatcher;
use botmeter_dns::DomainName;
use botmeter_obs::Obs;
use std::collections::HashSet;

/// A matcher wrapper that excludes known collision domains.
///
/// # Example
///
/// ```
/// use botmeter_matcher::{CollisionFilter, DomainMatcher, ExactMatcher};
///
/// let matcher = ExactMatcher::from_domains([
///     "dga1.example".parse()?,
///     "collide.example".parse()?,
/// ]);
/// let filtered = CollisionFilter::new(matcher, ["collide.example".parse()?]);
/// assert!(filtered.matches(&"dga1.example".parse()?));
/// assert!(!filtered.matches(&"collide.example".parse()?));
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CollisionFilter<M> {
    inner: M,
    collisions: HashSet<DomainName>,
    obs: Obs,
}

impl<M: DomainMatcher> CollisionFilter<M> {
    /// Wraps `inner`, excluding the given collision domains.
    pub fn new<I: IntoIterator<Item = DomainName>>(inner: M, collisions: I) -> Self {
        CollisionFilter {
            inner,
            collisions: collisions.into_iter().collect(),
            obs: Obs::noop(),
        }
    }

    /// Attaches an observability handle: every collision-list probe (i.e.
    /// every domain the inner matcher accepted) bumps the
    /// `matcher.collision_checks` counter, and exclusions bump
    /// `matcher.collisions_excluded`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The wrapped matcher.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: DomainMatcher> DomainMatcher for CollisionFilter<M> {
    fn matches(&self, domain: &DomainName) -> bool {
        if !self.inner.matches(domain) {
            return false;
        }
        let collided = self.collisions.contains(domain);
        if self.obs.enabled() {
            self.obs.counter_add("matcher.collision_checks", 1);
            if collided {
                self.obs.counter_add("matcher.collisions_excluded", 1);
            }
        }
        !collided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactMatcher;
    use botmeter_dga::DgaFamily;

    #[test]
    fn excludes_only_listed_collisions() {
        let family = DgaFamily::torpig();
        let pool = family.pool_for_epoch(0);
        let matcher = ExactMatcher::from_family(&family, 0..1);
        let filtered = CollisionFilter::new(matcher, [pool[3].clone(), pool[7].clone()]);
        assert!(!filtered.matches(&pool[3]));
        assert!(!filtered.matches(&pool[7]));
        assert!(filtered.matches(&pool[0]));
        assert!(filtered.matches(&pool[99]));
    }

    #[test]
    fn empty_collision_list_is_transparent() {
        let family = DgaFamily::torpig();
        let matcher = ExactMatcher::from_family(&family, 0..1);
        let filtered = CollisionFilter::new(matcher, []);
        for d in family.pool_for_epoch(0) {
            assert!(filtered.matches(&d));
        }
        assert!(filtered.inner().len() == 100);
    }

    #[test]
    fn composes_with_trait_objects() {
        let matcher = ExactMatcher::from_domains(["a.example".parse().unwrap()]);
        let filtered: Box<dyn DomainMatcher> = Box::new(CollisionFilter::new(
            matcher,
            ["a.example".parse().unwrap()],
        ));
        assert!(!filtered.matches(&"a.example".parse().unwrap()));
    }
}
