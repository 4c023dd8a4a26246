//! Authoritative resolution: the oracle that decides whether a domain is
//! registered (resolves to an address) or yields NXDOMAIN at a given time.
//!
//! In the BotMeter setting, the botmaster registers `θ∃` domains from each
//! epoch's query pool as C2 servers and everything else is NXDOMAIN (§III).
//! The DGA crate implements [`Authority`] for its registrar; this module
//! carries the trait and a simple set-backed implementation.

use crate::name::DomainName;
use crate::time::SimInstant;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// The outcome of an authoritative DNS resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Answer {
    /// The domain resolves to an address (positive answer).
    Address(Ipv4Addr),
    /// The domain does not exist (negative answer, "NXD" in the paper).
    NxDomain,
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Address(ip) => write!(f, "{ip}"),
            Answer::NxDomain => write!(f, "NXDOMAIN"),
        }
    }
}

/// An authoritative name source: answers "does this domain exist *now*?".
///
/// Time-dependence matters because DGA C2 registrations rotate per epoch —
/// the same domain may be valid today and NXDOMAIN tomorrow.
pub trait Authority {
    /// Resolves `domain` at simulation time `t`.
    fn resolve(&self, t: SimInstant, domain: &DomainName) -> Answer;
}

impl<A: Authority + ?Sized> Authority for &A {
    fn resolve(&self, t: SimInstant, domain: &DomainName) -> Answer {
        (**self).resolve(t, domain)
    }
}

impl<A: Authority + ?Sized> Authority for Box<A> {
    fn resolve(&self, t: SimInstant, domain: &DomainName) -> Answer {
        (**self).resolve(t, domain)
    }
}

/// A time-invariant authority backed by a set of registered domains.
///
/// # Example
///
/// ```
/// use botmeter_dns::{Answer, Authority, SimInstant, StaticAuthority};
/// let auth = StaticAuthority::from_domains(["c2.example".parse()?]);
/// assert!(auth.resolve(SimInstant::ZERO, &"c2.example".parse()?) != Answer::NxDomain);
/// assert_eq!(auth.resolve(SimInstant::ZERO, &"nx.example".parse()?), Answer::NxDomain);
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct StaticAuthority {
    registered: HashSet<DomainName>,
}

impl StaticAuthority {
    /// An authority with no registered domains: everything is NXDOMAIN.
    pub fn empty() -> Self {
        StaticAuthority::default()
    }

    /// Builds an authority from registered domains.
    pub fn from_domains<I: IntoIterator<Item = DomainName>>(domains: I) -> Self {
        StaticAuthority {
            registered: domains.into_iter().collect(),
        }
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// Whether no domain is registered.
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }
}

impl Authority for StaticAuthority {
    fn resolve(&self, _t: SimInstant, domain: &DomainName) -> Answer {
        if self.registered.contains(domain) {
            // A fixed, recognisable sinkhole-style address.
            Answer::Address(Ipv4Addr::new(198, 51, 100, 1))
        } else {
            Answer::NxDomain
        }
    }
}

impl FromIterator<DomainName> for StaticAuthority {
    fn from_iter<I: IntoIterator<Item = DomainName>>(iter: I) -> Self {
        Self::from_domains(iter)
    }
}

impl Extend<DomainName> for StaticAuthority {
    fn extend<I: IntoIterator<Item = DomainName>>(&mut self, iter: I) {
        self.registered.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn empty_authority_all_nx() {
        let a = StaticAuthority::empty();
        assert!(a.is_empty());
        assert_eq!(
            a.resolve(SimInstant::ZERO, &d("x.example")),
            Answer::NxDomain
        );
    }

    #[test]
    fn registered_domains_resolve() {
        let a = StaticAuthority::from_domains([d("a.example"), d("b.example")]);
        assert_eq!(a.len(), 2);
        assert!(a.resolve(SimInstant::ZERO, &d("a.example")) != Answer::NxDomain);
        assert!(a.resolve(SimInstant::ZERO, &d("b.example")) != Answer::NxDomain);
        assert!(a.resolve(SimInstant::ZERO, &d("c.example")) == Answer::NxDomain);
    }

    #[test]
    fn collect_and_extend() {
        let mut a: StaticAuthority = vec![d("a.example")].into_iter().collect();
        a.extend([d("b.example")]);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn trait_object_and_reference_impls() {
        let a = StaticAuthority::from_domains([d("a.example")]);
        let by_ref: &dyn Authority = &a;
        assert!(by_ref.resolve(SimInstant::ZERO, &d("a.example")) != Answer::NxDomain);
        let boxed: Box<dyn Authority> = Box::new(a);
        assert!(boxed.resolve(SimInstant::ZERO, &d("a.example")) != Answer::NxDomain);
    }

    #[test]
    fn answer_display() {
        assert_eq!(Answer::NxDomain.to_string(), "NXDOMAIN");
        assert!(Answer::Address(Ipv4Addr::LOCALHOST)
            .to_string()
            .contains("127.0.0.1"));
    }
}
