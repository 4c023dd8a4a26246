//! Property-based tests for the DGA library.

use botmeter_dga::{draw_barrel, BarrelClass, DgaFamily, DgaParams, QueryTiming};
use botmeter_dns::{Answer, SimDuration};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every barrel class yields in-range, length-clamped barrels; the
    /// non-sampling classes yield distinct indices.
    #[test]
    fn barrels_are_well_formed(
        seed in any::<u64>(),
        pool_len in 1usize..5000,
        theta_q in 1usize..1000,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for class in [
            BarrelClass::Uniform,
            BarrelClass::Sampling,
            BarrelClass::RandomCut,
            BarrelClass::Permutation,
        ] {
            let b = draw_barrel(class, pool_len, theta_q, &mut rng);
            prop_assert_eq!(b.len(), theta_q.min(pool_len), "{}", class);
            prop_assert!(b.iter().all(|&i| i < pool_len), "{}", class);
            let distinct: HashSet<_> = b.iter().collect();
            prop_assert_eq!(distinct.len(), b.len(), "{} has duplicates", class);
        }
    }

    /// RandomCut barrels are modularly consecutive from their start.
    #[test]
    fn randomcut_consecutive(seed in any::<u64>(), pool_len in 2usize..5000, theta_q in 1usize..500) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let b = draw_barrel(BarrelClass::RandomCut, pool_len, theta_q, &mut rng);
        for w in b.windows(2) {
            prop_assert_eq!(w[1], (w[0] + 1) % pool_len);
        }
    }

    /// Pools are deterministic per epoch and disjoint across epochs for
    /// daily drain-and-replenish families.
    #[test]
    fn pools_deterministic_and_disjoint(epoch in 0u64..200) {
        let f = DgaFamily::torpig();
        let a = f.pool_for_epoch(epoch);
        let b = f.pool_for_epoch(epoch);
        prop_assert_eq!(&a, &b);
        let next: HashSet<_> = f.pool_for_epoch(epoch + 1).into_iter().collect();
        prop_assert!(a.iter().all(|d| !next.contains(d)));
    }

    /// Valid indices are always θ∃ distinct positions inside the pool.
    #[test]
    fn valid_indices_well_formed(epoch in 0u64..500) {
        for f in [DgaFamily::murofet(), DgaFamily::new_goz(), DgaFamily::pykspa()] {
            let v = f.valid_indices(epoch);
            prop_assert_eq!(v.len(), f.params().theta_valid());
            let set: HashSet<_> = v.iter().collect();
            prop_assert_eq!(set.len(), v.len());
            let len = f.pool_for_epoch(epoch).len();
            prop_assert!(v.iter().all(|&i| i < len));
        }
    }

    /// Sliding-window pools share exactly the expected overlap between
    /// consecutive steady-state epochs.
    #[test]
    fn sliding_window_overlap(epoch in 31u64..120) {
        let f = DgaFamily::ranbyus(); // 40/day, 31-day window
        let a: HashSet<_> = f.pool_for_epoch(epoch).into_iter().collect();
        let b: HashSet<_> = f.pool_for_epoch(epoch + 1).into_iter().collect();
        prop_assert_eq!(a.intersection(&b).count(), 30 * 40);
    }

    /// Custom families round-trip their parameters.
    #[test]
    fn builder_roundtrip(theta_nx in 10usize..5000, theta_valid in 0usize..5, frac in 0.1f64..1.0) {
        let theta_q = ((theta_nx + theta_valid) as f64 * frac).max(1.0) as usize;
        let params = DgaParams::new(
            theta_nx, theta_valid, theta_q,
            QueryTiming::Fixed(SimDuration::from_millis(500)),
        ).expect("valid");
        let f = DgaFamily::builder("custom", params)
            .barrel(BarrelClass::Sampling)
            .seed(9)
            .build()
            .expect("consistent");
        prop_assert_eq!(f.params().theta_nx(), theta_nx);
        prop_assert_eq!(f.pool_for_epoch(0).len(), theta_nx + theta_valid);
    }

    /// The registrar resolves exactly the valid domains of each epoch.
    #[test]
    fn registrar_matches_valid_sets(epoch in 0u64..5) {
        use botmeter_dns::{Authority, SimInstant};
        let f = DgaFamily::torpig();
        let auth = f.authority_for_epochs(6);
        let t = SimInstant::ZERO + f.epoch_len() * epoch + SimDuration::from_mins(1);
        let valid: HashSet<_> = f.valid_domains(epoch).into_iter().collect();
        for d in f.pool_for_epoch(epoch) {
            prop_assert_eq!(auth.resolve(t, &d) != Answer::NxDomain, valid.contains(&d));
        }
    }

    /// Mixture pools never place C2 domains in the noise component.
    #[test]
    fn mixture_noise_is_never_valid(epoch in 0u64..50) {
        let f = DgaFamily::pykspa();
        let pool = f.pool_for_epoch(epoch);
        let valid: HashSet<usize> = f.valid_indices(epoch).into_iter().collect();
        // Useful part is the first θ∃+θ∅ = 200 positions.
        prop_assert!(valid.iter().all(|&i| i < 200));
        prop_assert_eq!(pool.len(), 16_200);
    }
}
