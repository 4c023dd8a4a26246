//! Query-pool models: how each epoch's pool of pseudo-random domains is
//! derived (§III-A).

use crate::generator::DomainGenerator;
use botmeter_dns::DomainName;
use serde::{Deserialize, Serialize};

/// A concrete query-pool model with its configuration.
///
/// The *stream* fed to the [`DomainGenerator`] is chosen so that pools are
/// deterministic, epochs share domains exactly when the model says they
/// should (sliding windows re-use past batches; drain-and-replenish with a
/// rotation > 1 keeps the pool constant for several epochs), and different
/// mixture components never collide.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum PoolModel {
    /// The pool is regenerated wholesale every `rotation` epochs
    /// (`rotation = 1` for daily DGAs like Murofet; Necurs uses 4).
    DrainReplenish {
        /// Epochs between pool refreshes.
        rotation: u64,
    },
    /// A window of daily batches: at epoch `e` the pool is the concatenation
    /// of the batches for days `e - back ..= e + forward`, oldest first.
    SlidingWindow {
        /// Days of past batches kept (30 for Ranbyus and PushDo).
        back: u64,
        /// Days of future batches pre-generated (15 for PushDo).
        forward: u64,
        /// Domains per daily batch.
        per_day: usize,
    },
    /// One useful sub-pool (where the C2 domains live) plus noise sub-pools
    /// from interleaved decoy DGA instances (Pykspa: 200 useful + 16 000
    /// noise).
    MultipleMixture {
        /// Sizes of the noise components, appended after the useful pool.
        noise_sizes: Vec<usize>,
    },
}

impl PoolModel {
    /// Simple daily drain-and-replenish (the paper's default).
    pub(crate) fn daily() -> Self {
        PoolModel::DrainReplenish { rotation: 1 }
    }

    /// Total pool length at a steady-state epoch, given the size of the
    /// useful pool (`θ∃ + θ∅`).
    pub(crate) fn steady_pool_len(&self, useful_len: usize) -> usize {
        match self {
            PoolModel::DrainReplenish { .. } => useful_len,
            PoolModel::SlidingWindow {
                back,
                forward,
                per_day,
            } => ((back + forward + 1) as usize) * per_day,
            PoolModel::MultipleMixture { noise_sizes } => {
                useful_len + noise_sizes.iter().sum::<usize>()
            }
        }
    }

    /// Materialises the ordered pool for `epoch`.
    ///
    /// `useful_len` is `θ∃ + θ∅`; for the sliding-window model it must equal
    /// the window size (validated at family construction).
    pub(crate) fn pool_for_epoch(
        &self,
        generator: &DomainGenerator,
        useful_len: usize,
        epoch: u64,
    ) -> Vec<DomainName> {
        match self {
            PoolModel::DrainReplenish { rotation } => {
                let stream = epoch / rotation.max(&1);
                generator.batch(stream, useful_len)
            }
            PoolModel::SlidingWindow {
                back,
                forward,
                per_day,
            } => {
                let start = epoch.saturating_sub(*back);
                let end = epoch + forward;
                let mut pool = Vec::with_capacity(((end - start + 1) as usize) * per_day);
                for day in start..=end {
                    pool.extend(generator.batch(day, *per_day));
                }
                pool
            }
            PoolModel::MultipleMixture { noise_sizes } => {
                let components = 1 + noise_sizes.len() as u64;
                let mut pool = generator.batch(epoch * components, useful_len);
                for (i, &size) in noise_sizes.iter().enumerate() {
                    pool.extend(generator.batch(epoch * components + 1 + i as u64, size));
                }
                pool
            }
        }
    }

    /// Length of the index range in which the registrar may place valid
    /// domains: the whole pool, except for mixtures, where only the useful
    /// component hosts C2 domains.
    pub(crate) fn valid_index_range(&self, useful_len: usize) -> usize {
        match self {
            PoolModel::MultipleMixture { .. } => useful_len,
            _ => self.steady_pool_len(useful_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Charset;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn generator() -> DomainGenerator {
        DomainGenerator::new("pool-test", 11, 10, 14, Charset::AlphaNumeric, "example")
    }

    #[test]
    fn drain_replenish_rotates_fully() {
        let m = PoolModel::daily();
        let g = generator();
        let p0: HashSet<_> = m.pool_for_epoch(&g, 100, 0).into_iter().collect();
        let p1: HashSet<_> = m.pool_for_epoch(&g, 100, 1).into_iter().collect();
        assert_eq!(p0.len(), 100);
        assert!(p0.is_disjoint(&p1), "daily pools must not overlap");
    }

    #[test]
    fn drain_replenish_rotation_keeps_pool_stable() {
        let m = PoolModel::DrainReplenish { rotation: 4 };
        let g = generator();
        let p0 = m.pool_for_epoch(&g, 50, 0);
        let p3 = m.pool_for_epoch(&g, 50, 3);
        let p4 = m.pool_for_epoch(&g, 50, 4);
        assert_eq!(p0, p3, "same 4-day window → same pool");
        assert_ne!(p0, p4, "next window → fresh pool");
    }

    #[test]
    fn sliding_window_overlaps_by_shift() {
        let m = PoolModel::SlidingWindow {
            back: 30,
            forward: 0,
            per_day: 40,
        };
        let g = generator();
        let e = 40;
        let p0: Vec<_> = m.pool_for_epoch(&g, 1240, e);
        assert_eq!(p0.len(), 31 * 40, "Ranbyus-style pool is 1240 domains");
        let p1 = m.pool_for_epoch(&g, 1240, e + 1);
        let s0: HashSet<_> = p0.iter().collect();
        let s1: HashSet<_> = p1.iter().collect();
        let shared = s0.intersection(&s1).count();
        assert_eq!(shared, 30 * 40, "one batch expires, one enters");
    }

    #[test]
    fn sliding_window_early_epochs_are_shorter() {
        let m = PoolModel::SlidingWindow {
            back: 30,
            forward: 15,
            per_day: 30,
        };
        let g = generator();
        // At epoch 0 only days 0..=15 exist.
        assert_eq!(m.pool_for_epoch(&g, 1380, 0).len(), 16 * 30);
        // At steady state (epoch >= 30): 46 batches (PushDo's 1380 domains).
        assert_eq!(m.pool_for_epoch(&g, 1380, 30).len(), 46 * 30);
        assert_eq!(m.steady_pool_len(1380), 1380);
    }

    #[test]
    fn mixture_appends_noise_components() {
        let m = PoolModel::MultipleMixture {
            noise_sizes: vec![16_000],
        };
        let g = generator();
        let pool = m.pool_for_epoch(&g, 200, 3);
        assert_eq!(pool.len(), 16_200);
        assert_eq!(m.steady_pool_len(200), 16_200);
        assert_eq!(m.valid_index_range(200), 200, "C2s only in useful part");
        // Useful and noise parts are disjoint.
        let useful: HashSet<_> = pool[..200].iter().collect();
        let noise: HashSet<_> = pool[200..].iter().collect();
        assert!(useful.is_disjoint(&noise));
    }

    #[test]
    fn mixture_components_rotate_independently_of_each_other() {
        let m = PoolModel::MultipleMixture {
            noise_sizes: vec![500],
        };
        let g = generator();
        let p0: HashSet<_> = m.pool_for_epoch(&g, 100, 0).into_iter().collect();
        let p1: HashSet<_> = m.pool_for_epoch(&g, 100, 1).into_iter().collect();
        assert!(p0.is_disjoint(&p1));
    }

    #[test]
    fn valid_range_spans_whole_pool_for_non_mixture() {
        assert_eq!(PoolModel::daily().valid_index_range(800), 800);
        let sw = PoolModel::SlidingWindow {
            back: 30,
            forward: 0,
            per_day: 40,
        };
        assert_eq!(sw.valid_index_range(1240), 1240);
    }

    #[test]
    fn serde_roundtrip() {
        let m = PoolModel::SlidingWindow {
            back: 30,
            forward: 15,
            per_day: 30,
        };
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(m, serde_json::from_str::<PoolModel>(&json).unwrap());
    }

    proptest! {
        /// PoolModel::steady_pool_len is consistent with materialised pools at
        /// steady state.
        #[test]
        fn steady_len_consistent(per_day in 1usize..60, back in 0u64..40, forward in 0u64..10) {
            let m = PoolModel::SlidingWindow { back, forward, per_day };
            let useful = ((back + forward + 1) as usize) * per_day;
            prop_assert_eq!(m.steady_pool_len(useful), useful);
        }
    }
}
