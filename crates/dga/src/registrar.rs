//! The registrar oracle: which DGA domains actually resolve on which day.
//!
//! In the paper's model the botmaster registers `θ∃` domains from each
//! epoch's pool; every other pool domain — and every domain outside the
//! pool — is NXDOMAIN. [`EpochAuthority`] precomputes the valid sets for a
//! range of epochs and implements [`botmeter_dns::Authority`], so it can be
//! plugged straight into the DNS topology.

use crate::family::DgaFamily;
use botmeter_dns::{Answer, Authority, DomainName, FxHashSet, SimDuration, SimInstant};
use std::net::Ipv4Addr;

/// A time-varying authority answering for one DGA family's C2 rotations
/// over a precomputed range of epochs.
///
/// Outside the precomputed range everything is NXDOMAIN (a conservative
/// default: an unregistered future).
///
/// # Example
///
/// ```
/// use botmeter_dga::DgaFamily;
/// use botmeter_dns::{Answer, Authority, SimInstant};
///
/// let family = DgaFamily::murofet();
/// let auth = family.authority_for_epochs(2);
/// let c2 = &family.valid_domains(0)[0];
/// assert!(auth.resolve(SimInstant::ZERO, c2) != Answer::NxDomain);
/// // The same domain is NOT registered on day 1 (fresh pool).
/// let day1 = SimInstant::ZERO + family.epoch_len();
/// assert!(auth.resolve(day1, c2) == Answer::NxDomain);
/// ```
#[derive(Debug, Clone)]
pub struct EpochAuthority {
    epoch_len: SimDuration,
    /// Per-epoch registered sets behind the Fx hasher: resolving a lookup
    /// probes with the name's pre-computed fingerprint, not a string hash.
    valid_by_epoch: Vec<FxHashSet<DomainName>>,
    c2_address: Ipv4Addr,
}

impl EpochAuthority {
    /// Precomputes valid sets for `family` over epochs `0..num_epochs`.
    pub fn build(family: &DgaFamily, num_epochs: u64) -> Self {
        Self::from_valid_domains(
            family.epoch_len(),
            (0..num_epochs).map(|e| family.valid_domains(e)),
        )
    }

    /// An authority over registered sets the caller already holds, one per
    /// epoch from epoch 0 — for callers that have materialised the pools
    /// anyway and would otherwise pay [`build`](Self::build) generating
    /// each of them a second time.
    pub fn from_valid_domains(
        epoch_len: SimDuration,
        valid_by_epoch: impl IntoIterator<Item = Vec<DomainName>>,
    ) -> Self {
        EpochAuthority {
            epoch_len,
            valid_by_epoch: valid_by_epoch
                .into_iter()
                .map(|valid| valid.into_iter().collect())
                .collect(),
            c2_address: Ipv4Addr::new(203, 0, 113, 66),
        }
    }

    /// Appends the registered set of the next epoch (epoch
    /// [`num_epochs`](Self::num_epochs)), for callers that generate pools
    /// as they go and cover each epoch just before its first lookup.
    pub fn push_epoch(&mut self, valid: Vec<DomainName>) {
        self.valid_by_epoch.push(valid.into_iter().collect());
    }

    /// Number of precomputed epochs.
    pub fn num_epochs(&self) -> u64 {
        self.valid_by_epoch.len() as u64
    }

    /// The valid (registered) domains of one epoch, if precomputed.
    pub fn valid_domains(&self, epoch: u64) -> Option<&FxHashSet<DomainName>> {
        self.valid_by_epoch.get(epoch as usize)
    }
}

impl Authority for EpochAuthority {
    fn resolve(&self, t: SimInstant, domain: &DomainName) -> Answer {
        let epoch = t.epoch_day(self.epoch_len) as usize;
        match self.valid_by_epoch.get(epoch) {
            Some(set) if set.contains(domain) => Answer::Address(self.c2_address),
            _ => Answer::NxDomain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::PoolClass;

    #[test]
    fn resolves_only_registered_epoch_domains() {
        let f = DgaFamily::new_goz();
        let auth = f.authority_for_epochs(3);
        assert_eq!(auth.num_epochs(), 3);
        for epoch in 0..3u64 {
            let t = SimInstant::ZERO + f.epoch_len() * epoch + SimDuration::from_hours(1);
            let valid = f.valid_domains(epoch);
            for d in &valid {
                assert!(auth.resolve(t, d) != Answer::NxDomain, "epoch {epoch}: {d}");
            }
            // A non-registered pool domain is NXD.
            let pool = f.pool_for_epoch(epoch);
            let nx = pool
                .iter()
                .find(|d| !valid.contains(d))
                .expect("pool has NXDs");
            assert!(auth.resolve(t, nx) == Answer::NxDomain);
        }
    }

    #[test]
    fn from_valid_domains_answers_like_build() {
        let f = DgaFamily::new_goz();
        let built = f.authority_for_epochs(3);
        let given =
            EpochAuthority::from_valid_domains(f.epoch_len(), (0..3).map(|e| f.valid_domains(e)));
        let mut pushed = EpochAuthority::from_valid_domains(f.epoch_len(), []);
        for e in 0..3 {
            pushed.push_epoch(f.valid_domains(e));
        }
        assert_eq!(given.num_epochs(), 3);
        assert_eq!(pushed.num_epochs(), 3);
        for epoch in 0..4u64 {
            let t = SimInstant::ZERO + f.epoch_len() * epoch;
            for d in f.pool_for_epoch(epoch) {
                assert_eq!(given.resolve(t, &d), built.resolve(t, &d), "{epoch}: {d}");
                assert_eq!(pushed.resolve(t, &d), built.resolve(t, &d), "{epoch}: {d}");
            }
        }
    }

    #[test]
    fn outside_precomputed_range_is_nx() {
        let f = DgaFamily::murofet();
        let auth = f.authority_for_epochs(1);
        let far_future = SimInstant::ZERO + SimDuration::from_days(100);
        let c2 = &f.valid_domains(0)[0];
        assert!(auth.resolve(far_future, c2) == Answer::NxDomain);
    }

    #[test]
    fn foreign_domains_are_nx() {
        let f = DgaFamily::murofet();
        let auth = f.authority_for_epochs(1);
        let foreign: DomainName = "www.benign.example".parse().unwrap();
        assert!(auth.resolve(SimInstant::ZERO, &foreign) == Answer::NxDomain);
    }

    /// The retention rule: a pool is one text buffer per generated batch,
    /// and the few registered names that outlive it — what `valid_domains`
    /// hands out and an authority keeps for every epoch — own exactly their
    /// own text, so they never keep a pool's buffer alive.
    #[test]
    fn registered_names_own_their_text_while_pools_share_one_buffer() {
        for f in [
            DgaFamily::new_goz(),
            DgaFamily::conficker_c(),
            DgaFamily::ranbyus(), // sliding window: a buffer per daily batch
            DgaFamily::pykspa(),  // mixture: a buffer per component
        ] {
            let pool = f.pool_for_epoch(2);
            if f.pool_class() == PoolClass::DrainReplenish {
                let pool_text: usize = pool.iter().map(|d| d.as_str().len()).sum();
                assert!(pool.iter().all(|d| d.backing_len() == pool_text));
            }
            let valid = f.valid_domains(2);
            assert_eq!(valid.len(), f.params().theta_valid());
            for d in &valid {
                assert!(pool.contains(d));
                assert_eq!(d.backing_len(), d.as_str().len(), "{}: {d}", f.name());
            }
            let auth = f.authority_for_epochs(3);
            for epoch in 0..3 {
                for d in auth.valid_domains(epoch).unwrap() {
                    assert_eq!(d.backing_len(), d.as_str().len(), "{}: {d}", f.name());
                }
            }
        }
    }

    #[test]
    fn valid_domains_accessor() {
        let f = DgaFamily::conficker_c();
        let auth = f.authority_for_epochs(1);
        assert_eq!(auth.valid_domains(0).unwrap().len(), 5);
        assert!(auth.valid_domains(9).is_none());
    }
}
