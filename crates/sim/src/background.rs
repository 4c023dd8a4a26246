//! Benign enterprise background traffic.
//!
//! The enterprise trace of §V-B contains mostly *benign* DNS lookups: the
//! estimators never see them (the D3 matcher filters them out), but they
//! exercise the matcher and make the trace realistic. Domain popularity is
//! Zipf-distributed over a fixed catalog — the classic shape of enterprise
//! DNS workloads.

use crate::filter::SlotLookup;
use botmeter_dns::{Answer, Authority, ClientId, DomainName, SimDuration, SimInstant};
use botmeter_stats::{Poisson, SampleU64, Zipf};
use rand::Rng;
use std::net::Ipv4Addr;

/// Generator of benign background lookups for a population of clients.
#[derive(Debug, Clone)]
pub(crate) struct BenignTraffic {
    catalog: Vec<DomainName>,
    popularity: Zipf,
    lookups_per_client: f64,
}

impl BenignTraffic {
    /// Creates a generator with a `catalog_len`-domain catalog, Zipf
    /// exponent `zipf_s`, and a mean of `lookups_per_client` benign lookups
    /// per active client per day.
    ///
    /// # Panics
    ///
    /// Panics if `catalog_len == 0` or `lookups_per_client <= 0`.
    pub(crate) fn new(catalog_len: usize, zipf_s: f64, lookups_per_client: f64) -> Self {
        assert!(catalog_len > 0, "catalog must be non-empty");
        assert!(lookups_per_client > 0.0, "lookup rate must be positive");
        let catalog = (0..catalog_len)
            .map(|i| {
                format!("site{i:06}.benign.example")
                    .parse()
                    .expect("constructed names are valid")
            })
            .collect();
        BenignTraffic {
            catalog,
            popularity: Zipf::new(catalog_len, zipf_s).expect("validated above"),
            lookups_per_client,
        }
    }

    /// The catalog in popularity order: index 0 is the Zipf rank-1 domain.
    pub(crate) fn catalog(&self) -> &[DomainName] {
        &self.catalog
    }

    /// Appends one day of benign lookups for the given active clients,
    /// starting at `day_start`, to `out`, each domain as its catalog index:
    /// the caller gives the catalog the slots `0..catalog().len()`.
    /// Lookups are *not* sorted.
    pub(crate) fn day_slots<R: Rng + ?Sized>(
        &self,
        day_start: SimInstant,
        active_clients: &[u32],
        rng: &mut R,
        out: &mut Vec<SlotLookup>,
    ) {
        let day_ms = SimDuration::from_days(1).as_millis();
        let count_dist = Poisson::new(self.lookups_per_client).expect("rate validated");
        out.reserve((active_clients.len() as f64 * self.lookups_per_client) as usize + 16);
        for &client in active_clients {
            let count = count_dist.sample(rng);
            for _ in 0..count {
                let rank = self.popularity.sample(rng) as u32;
                let t = day_start + SimDuration::from_millis(rng.gen_range(0..day_ms));
                out.push(SlotLookup {
                    t,
                    client: ClientId(client),
                    slot: rank - 1,
                });
            }
        }
    }
}

/// Authority view of the benign catalog: every catalog domain resolves.
///
/// Combine with a DGA registrar via [`DualAuthority`] so one topology run
/// can answer both traffic classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenignAuthority;

impl Authority for BenignAuthority {
    fn resolve(&self, _t: SimInstant, domain: &DomainName) -> Answer {
        if domain.as_str().ends_with(".benign.example") {
            Answer::Address(Ipv4Addr::new(192, 0, 2, 80))
        } else {
            Answer::NxDomain
        }
    }
}

/// Chains two authorities: the first positive answer wins.
#[derive(Debug, Clone, Copy)]
pub struct DualAuthority<A, B> {
    first: A,
    second: B,
}

impl<A: Authority, B: Authority> DualAuthority<A, B> {
    /// Combines two authorities.
    pub fn new(first: A, second: B) -> Self {
        DualAuthority { first, second }
    }
}

impl<A: Authority, B: Authority> Authority for DualAuthority<A, B> {
    fn resolve(&self, t: SimInstant, domain: &DomainName) -> Answer {
        match self.first.resolve(t, domain) {
            Answer::NxDomain => self.second.resolve(t, domain),
            positive => positive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn day(
        traffic: &BenignTraffic,
        start: SimInstant,
        clients: &[u32],
        seed: u64,
    ) -> Vec<SlotLookup> {
        let mut out = Vec::new();
        traffic.day_slots(
            start,
            clients,
            &mut ChaCha12Rng::seed_from_u64(seed),
            &mut out,
        );
        out
    }

    #[test]
    fn day_volume_scales_with_clients() {
        let traffic = BenignTraffic::new(100, 1.0, 5.0);
        let clients: Vec<u32> = (0..200).collect();
        let n = day(&traffic, SimInstant::ZERO, &clients, 1).len() as f64;
        assert!((n - 1000.0).abs() < 150.0, "volume {n}");
    }

    #[test]
    fn lookups_fall_within_the_day_and_the_catalog() {
        let traffic = BenignTraffic::new(50, 1.0, 3.0);
        let start = SimInstant::ZERO + SimDuration::from_days(7);
        for l in &day(&traffic, start, &[1, 2, 3], 2) {
            assert!(l.t >= start && l.t < start + SimDuration::from_days(1));
            assert!((l.slot as usize) < traffic.catalog().len());
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let traffic = BenignTraffic::new(1000, 1.1, 50.0);
        let clients: Vec<u32> = (0..100).collect();
        let lookups = day(&traffic, SimInstant::ZERO, &clients, 3);
        assert_eq!(traffic.catalog()[0].as_str(), "site000000.benign.example");
        let top = lookups.iter().filter(|l| l.slot == 0).count() as f64;
        let frac = top / lookups.len() as f64;
        assert!(frac > 0.05, "rank-1 share {frac} too flat for Zipf(1.1)");
    }

    #[test]
    fn benign_authority_resolves_catalog_only() {
        let auth = BenignAuthority;
        assert!(auth
            .resolve(SimInstant::ZERO, &"x.benign.example".parse().unwrap())
            .is_positive());
        assert!(!auth
            .resolve(SimInstant::ZERO, &"x.evil.example".parse().unwrap())
            .is_positive());
    }

    #[test]
    fn dual_authority_prefers_first_positive() {
        use botmeter_dns::StaticAuthority;
        let a = StaticAuthority::from_domains(["a.example".parse().unwrap()]);
        let dual = DualAuthority::new(&a, BenignAuthority);
        assert!(dual
            .resolve(SimInstant::ZERO, &"a.example".parse().unwrap())
            .is_positive());
        assert!(dual
            .resolve(SimInstant::ZERO, &"z.benign.example".parse().unwrap())
            .is_positive());
        assert!(!dual
            .resolve(SimInstant::ZERO, &"nx.example".parse().unwrap())
            .is_positive());
    }

    #[test]
    #[should_panic(expected = "catalog must be non-empty")]
    fn empty_catalog_panics() {
        BenignTraffic::new(0, 1.0, 1.0);
    }
}
