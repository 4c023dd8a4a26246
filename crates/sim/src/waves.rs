//! Infection-wave processes: daily active-bot population series.
//!
//! Fig. 7 of the paper shows each DGA's *daily* active population over a
//! year: long quiet stretches, sharp outbreaks into the tens-to-hundreds
//! range, roughly exponential decay as remediation bites, and occasional
//! re-flare-ups. [`WaveConfig`] is a regime-switching generator with exactly
//! those dynamics, used by the enterprise scenario as the ground-truth
//! population schedule.

use botmeter_stats::{Bernoulli, LogNormal, SampleF64};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of a regime-switching daily infection wave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveConfig {
    /// Per-day probability of a fresh outbreak while quiet.
    pub outbreak_prob: f64,
    /// Peak population of an outbreak is drawn log-normally around this.
    pub peak_median: f64,
    /// Log-scale spread of outbreak peaks.
    pub peak_sigma: f64,
    /// Daily survival factor during decay (fraction of bots still active
    /// the next day).
    pub decay: f64,
    /// Population below which the wave is considered extinguished.
    pub floor: f64,
}

impl WaveConfig {
    /// A faster-moving wave for short simulations and tests.
    pub fn brisk() -> Self {
        WaveConfig {
            outbreak_prob: 0.15,
            peak_median: 30.0,
            peak_sigma: 0.8,
            decay: 0.6,
            floor: 1.0,
        }
    }

    /// Generates `days` of daily active-bot counts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of domain (probabilities outside
    /// `[0, 1]`, non-positive peak, decay outside `(0, 1)`).
    pub(crate) fn daily_series<R: Rng + ?Sized>(&self, days: usize, rng: &mut R) -> Vec<u64> {
        assert!(
            (0.0..=1.0).contains(&self.outbreak_prob),
            "outbreak_prob must be a probability"
        );
        assert!(self.peak_median > 0.0, "peak_median must be positive");
        assert!(
            self.decay > 0.0 && self.decay < 1.0,
            "decay must be in (0, 1)"
        );
        let outbreak = Bernoulli::new(self.outbreak_prob).expect("validated above");
        let peak = LogNormal::new(self.peak_median.ln(), self.peak_sigma).expect("validated above");
        let mut level = 0.0f64;
        let mut out = Vec::with_capacity(days);
        for _ in 0..days {
            if level < self.floor {
                level = 0.0;
                if outbreak.sample(rng) {
                    level = peak.sample(rng).max(1.0);
                }
            } else {
                // Decay with mild day-to-day jitter.
                let jitter = 1.0 + 0.2 * (rng.gen::<f64>() - 0.5);
                level *= self.decay * jitter;
                // A re-flare-up can stack on top of a live wave.
                if outbreak.sample(rng) {
                    level += peak.sample(rng).max(1.0);
                }
            }
            out.push(level.round() as u64);
        }
        out
    }
}

impl Default for WaveConfig {
    /// Matches the visual scale of Fig. 7: outbreaks every few weeks,
    /// peaks of a few tens (occasionally ~100+), multi-day decay tails.
    fn default() -> Self {
        WaveConfig {
            outbreak_prob: 0.04,
            peak_median: 20.0,
            peak_sigma: 1.0,
            decay: 0.75,
            floor: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn series_has_outbreaks_and_quiet_days() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let series = WaveConfig::default().daily_series(365, &mut rng);
        let active_days = series.iter().filter(|&&n| n > 0).count();
        assert!(active_days > 10, "too quiet: {active_days} active days");
        assert!(active_days < 365, "never quiet");
        let peak = *series.iter().max().unwrap();
        assert!(peak >= 10, "peak {peak} too small for Fig. 7 scale");
    }

    #[test]
    fn decay_is_visible_after_peaks() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let series = WaveConfig::default().daily_series(2000, &mut rng);
        // Find a clear peak and check the following day is mostly smaller.
        let mut decays = 0;
        let mut checks = 0;
        for w in series.windows(2) {
            if w[0] >= 20 {
                checks += 1;
                if w[1] < w[0] {
                    decays += 1;
                }
            }
        }
        assert!(checks > 0);
        assert!(
            decays as f64 / checks as f64 > 0.6,
            "decay should dominate after peaks ({decays}/{checks})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = WaveConfig::default().daily_series(100, &mut ChaCha12Rng::seed_from_u64(3));
        let b = WaveConfig::default().daily_series(100, &mut ChaCha12Rng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn brisk_config_is_more_active() {
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let calm = WaveConfig::default().daily_series(200, &mut rng);
        let brisk = WaveConfig::brisk().daily_series(200, &mut rng);
        let active = |s: &[u64]| s.iter().filter(|&&n| n > 0).count();
        assert!(active(&brisk) > active(&calm));
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1)")]
    fn bad_decay_panics() {
        let cfg = WaveConfig {
            decay: 1.5,
            ..WaveConfig::default()
        };
        cfg.daily_series(10, &mut ChaCha12Rng::seed_from_u64(5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Wave series never go negative and respond to the outbreak knob.
        #[test]
        fn wave_series_sane(seed in any::<u64>(), days in 1usize..400) {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let series = WaveConfig::default().daily_series(days, &mut rng);
            prop_assert_eq!(series.len(), days);
            // u64 is non-negative by construction; check the magnitudes stay
            // within a sane multiple of the configured peak scale.
            prop_assert!(series.iter().all(|&n| n < 100_000));
        }
    }
}
