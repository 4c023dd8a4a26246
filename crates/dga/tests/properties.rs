//! Property-based tests for the DGA library.

use botmeter_dga::{
    draw_barrel, BarrelClass, Charset, DgaFamily, DgaParams, DomainGenerator, PoolModel,
    QueryTiming,
};
use botmeter_dns::{DomainName, SimDuration};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::collections::HashSet;

/// `DomainGenerator::batch` as it was first written: one `domain(stream, i)`
/// per index from 0, keeping first sightings. Test-side reference only.
fn reference_batch(g: &DomainGenerator, stream: u64, count: usize) -> Vec<DomainName> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut index = 0;
    while out.len() < count {
        let d = g.domain(stream, index);
        if seen.insert(d.clone()) {
            out.push(d);
        }
        index += 1;
    }
    out
}

/// Same names, same order — and the batch is one buffer while every
/// reference name owns its text.
fn assert_batch_is_the_reference(g: &DomainGenerator, stream: u64, count: usize) {
    let batch = g.batch(stream, count);
    let reference = reference_batch(g, stream, count);
    assert_eq!(batch, reference);
    let text: usize = batch.iter().map(|d| d.as_str().len()).sum();
    assert!(batch.iter().all(|d| d.backing_len() == text));
    assert!(reference
        .iter()
        .all(|d| d.backing_len() == d.as_str().len()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A character-style pool is the per-index reference, name for name —
    /// down to label ranges short enough (26² names) to repeat often.
    #[test]
    fn chars_batch_is_the_per_index_reference(
        seed in any::<u64>(),
        stream in any::<u64>(),
        label in "[a-z0-9]{1,8}",
        min_len in 2usize..7,
        extra in 0usize..5,
        alpha in any::<bool>(),
        count in 0usize..200,
    ) {
        let charset = if alpha { Charset::Alpha } else { Charset::AlphaNumeric };
        let g = DomainGenerator::new(&label, seed, min_len, min_len + extra, charset, "example");
        assert_batch_is_the_reference(&g, stream, count);
    }

    /// A dictionary small enough that most indices repeat an earlier name:
    /// the skipped repeats are the reference's, up to 60 % of the whole
    /// combination space.
    #[test]
    fn dictionary_batch_is_the_per_index_reference(
        seed in any::<u64>(),
        stream in any::<u64>(),
        vocabulary in 3usize..9,
        words_per_name in 1usize..3,
        fill_percent in 0usize..61,
    ) {
        // Equal-length words: every word sequence spells a distinct label.
        let words = ["red", "blu", "grn", "ylw", "blk", "wht", "gry", "pnk"];
        let g = DomainGenerator::dictionary("dict", seed, &words[..vocabulary], words_per_name, "net");
        let combinations = vocabulary.pow(words_per_name as u32);
        assert_batch_is_the_reference(&g, stream, combinations * fill_percent / 100);
    }

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
            let len = f.pool_for_epoch_len(epoch);
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
            prop_assert_eq!(auth.resolve(t, &d).is_positive(), valid.contains(&d));
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

    /// PoolModel::steady_pool_len is consistent with materialised pools at
    /// steady state.
    #[test]
    fn steady_len_consistent(per_day in 1usize..60, back in 0u64..40, forward in 0u64..10) {
        let m = PoolModel::SlidingWindow { back, forward, per_day };
        let useful = ((back + forward + 1) as usize) * per_day;
        prop_assert_eq!(m.steady_pool_len(useful), useful);
    }
}

/// Two one-word names exist; asking for a third still fails loudly.
#[test]
#[should_panic(expected = "cannot produce 3 distinct names")]
fn batch_larger_than_the_dictionary_space_panics() {
    DomainGenerator::dictionary("tiny", 1, &["red", "blu"], 1, "net").batch(0, 3);
}
