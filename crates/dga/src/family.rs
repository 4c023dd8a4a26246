//! [`DgaFamily`]: one fully-specified DGA — taxonomy cell + Table I
//! parameters + deterministic generation of pools, C2 registrations and
//! barrels.

use crate::barrel::draw_barrel;
use crate::generator::{Charset, DomainGenerator};
use crate::params::{DgaParams, QueryTiming};
use crate::pool::PoolModel;
use crate::registrar::EpochAuthority;
use crate::taxonomy::{BarrelClass, PoolClass};
use botmeter_dns::{DomainName, SimDuration};
use botmeter_stats::mix64;
use rand::Rng;
use std::fmt;

/// A fully-specified DGA family.
///
/// Combines a taxonomy cell (pool model × barrel model), the scalar
/// parameters of the paper's Table I, and a deterministic domain generator.
/// All per-epoch artifacts — the ordered query pool, the registrar's `θ∃`
/// valid C2 positions, a bot's barrel — derive from the family seed.
///
/// # Example
///
/// ```
/// use botmeter_dga::DgaFamily;
/// let conficker = DgaFamily::conficker_c();
/// assert_eq!(conficker.params().theta_q(), 500);
/// assert_eq!(conficker.pool_for_epoch(0).len(), 50_000);
/// assert_eq!(conficker.valid_indices(0).len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct DgaFamily {
    name: String,
    params: DgaParams,
    pool_model: PoolModel,
    barrel_class: BarrelClass,
    generator: DomainGenerator,
    epoch_len: SimDuration,
    seed: u64,
}

impl DgaFamily {
    /// Starts building a custom family; see [`DgaFamilyBuilder`].
    pub fn builder(name: &str, params: DgaParams) -> DgaFamilyBuilder {
        DgaFamilyBuilder {
            name: name.to_owned(),
            params,
            pool_model: PoolModel::daily(),
            barrel_class: BarrelClass::Uniform,
            charset: Charset::AlphaNumeric,
            len_range: (12, 18),
            tld: "example".to_owned(),
            epoch_len: SimDuration::from_days(1),
            seed: 0x00b0_73e7,
        }
    }

    /// The family's name (e.g. `"newGoZ"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scalar parameters `(θ∅, θ∃, θq, δi)`.
    pub fn params(&self) -> DgaParams {
        self.params
    }

    /// Which pool-model axis cell this family occupies.
    pub fn pool_class(&self) -> PoolClass {
        match self.pool_model {
            PoolModel::DrainReplenish { .. } => PoolClass::DrainReplenish,
            PoolModel::SlidingWindow { .. } => PoolClass::SlidingWindow,
            PoolModel::MultipleMixture { .. } => PoolClass::MultipleMixture,
        }
    }

    /// The concrete pool model.
    pub fn pool_model(&self) -> &PoolModel {
        &self.pool_model
    }

    /// The deterministic generator producing this family's domains
    /// (exposes the lexical profile the pattern matcher compiles against).
    pub fn generator(&self) -> &DomainGenerator {
        &self.generator
    }

    /// Which barrel-model axis cell this family occupies.
    pub fn barrel_class(&self) -> BarrelClass {
        self.barrel_class
    }

    /// Length of one epoch (one day for every family in the paper).
    pub fn epoch_len(&self) -> SimDuration {
        self.epoch_len
    }

    /// The ordered query pool for `epoch`.
    pub fn pool_for_epoch(&self, epoch: u64) -> Vec<DomainName> {
        self.pool_model
            .pool_for_epoch(&self.generator, self.params.pool_size(), epoch)
    }

    /// Positions (pool indices) of the `θ∃` domains the botmaster registers
    /// for `epoch`. Deterministic per `(family seed, epoch)`.
    pub fn valid_indices(&self, epoch: u64) -> Vec<usize> {
        let pool_len = self
            .pool_for_epoch_len(epoch)
            .min(self.pool_model.valid_index_range(self.params.pool_size()));
        let want = self.params.theta_valid().min(pool_len);
        let mut out = Vec::with_capacity(want);
        let mut state = mix64(self.seed ^ mix64(epoch ^ 0xc2b2_ae35));
        while out.len() < want {
            state = mix64(state);
            let idx = (state % pool_len as u64) as usize;
            if !out.contains(&idx) {
                out.push(idx);
            }
        }
        out.sort_unstable();
        out
    }

    /// The actual pool length at `epoch` (differs from the steady-state
    /// length only for early sliding-window epochs).
    pub fn pool_for_epoch_len(&self, epoch: u64) -> usize {
        match &self.pool_model {
            PoolModel::SlidingWindow {
                back,
                forward,
                per_day,
            } => {
                let start = epoch.saturating_sub(*back);
                ((epoch + forward - start + 1) as usize) * per_day
            }
            other => other.steady_pool_len(self.params.pool_size()),
        }
    }

    /// The registered C2 domains for `epoch`, each owning its own text:
    /// these `θ∃` names outlive the pool they were picked from (an
    /// [`EpochAuthority`] keeps every epoch's), and a shared name would keep
    /// the whole pool's buffer alive with it.
    pub fn valid_domains(&self, epoch: u64) -> Vec<DomainName> {
        let pool = self.pool_for_epoch(epoch);
        self.valid_indices(epoch)
            .into_iter()
            .map(|i| pool[i].detached())
            .collect()
    }

    /// Draws one bot's query barrel for `epoch`: the ordered pool indices
    /// it will query until hitting a valid domain or exhausting the barrel.
    pub fn draw_barrel<R: Rng + ?Sized>(&self, epoch: u64, rng: &mut R) -> Vec<usize> {
        draw_barrel(
            self.barrel_class,
            self.pool_for_epoch_len(epoch),
            self.params.theta_q(),
            rng,
        )
    }

    /// Builds the authority (registrar oracle) covering epochs
    /// `0..num_epochs`.
    pub fn authority_for_epochs(&self, num_epochs: u64) -> EpochAuthority {
        EpochAuthority::build(self, num_epochs)
    }

    // ---- Presets -----------------------------------------------------
    // Parameters for the four prototypes come from Table I of the paper;
    // the remaining families use documented approximations (DESIGN.md §3).

    /// Murofet — `AU` prototype (Table I): θ∅ = 798, θ∃ = 2, θq = 798,
    /// δi = 500 ms, daily drain-and-replenish, uniform barrel.
    pub fn murofet() -> DgaFamily {
        Self::builder(
            "Murofet",
            DgaParams::new(
                798,
                2,
                798,
                QueryTiming::Fixed(SimDuration::from_millis(500)),
            )
            .expect("preset params are valid"),
        )
        .barrel(BarrelClass::Uniform)
        .charset(Charset::Alpha)
        .label_len(12, 20)
        .tld("biz")
        .build()
        .expect("preset is consistent")
    }

    /// Conficker.C — `AS` prototype (Table I): θ∅ = 49 995, θ∃ = 5,
    /// θq = 500, δi = 1 s, daily drain-and-replenish, sampling barrel.
    pub fn conficker_c() -> DgaFamily {
        Self::builder(
            "Conficker.C",
            DgaParams::new(
                49_995,
                5,
                500,
                QueryTiming::Fixed(SimDuration::from_secs(1)),
            )
            .expect("preset params are valid"),
        )
        .barrel(BarrelClass::Sampling)
        .charset(Charset::Alpha)
        .label_len(4, 9)
        .tld("org")
        .build()
        .expect("preset is consistent")
    }

    /// newGoZ — `AR` prototype (Table I): θ∅ = 9 995, θ∃ = 5, θq = 500,
    /// δi = 1 s, daily drain-and-replenish, randomcut barrel.
    pub fn new_goz() -> DgaFamily {
        Self::builder(
            "newGoZ",
            DgaParams::new(9_995, 5, 500, QueryTiming::Fixed(SimDuration::from_secs(1)))
                .expect("preset params are valid"),
        )
        .barrel(BarrelClass::RandomCut)
        .charset(Charset::AlphaNumeric)
        .label_len(14, 24)
        .tld("net")
        .build()
        .expect("preset is consistent")
    }

    /// Necurs — `AP` prototype (Table I): θ∅ = 2 046, θ∃ = 2, θq = 2 046,
    /// δi = 500 ms, pool rotated every 4 days, permutation barrel.
    pub fn necurs() -> DgaFamily {
        Self::builder(
            "Necurs",
            DgaParams::new(
                2_046,
                2,
                2_046,
                QueryTiming::Fixed(SimDuration::from_millis(500)),
            )
            .expect("preset params are valid"),
        )
        .pool(PoolModel::DrainReplenish { rotation: 4 })
        .barrel(BarrelClass::Permutation)
        .charset(Charset::Alpha)
        .label_len(7, 21)
        .tld("cc")
        .build()
        .expect("preset is consistent")
    }

    /// Srizbi — `AU` (documented approximation): θ∅ = 498, θ∃ = 2,
    /// θq = 500, δi = 500 ms.
    pub fn srizbi() -> DgaFamily {
        Self::builder(
            "Srizbi",
            DgaParams::new(
                498,
                2,
                500,
                QueryTiming::Fixed(SimDuration::from_millis(500)),
            )
            .expect("preset params are valid"),
        )
        .barrel(BarrelClass::Uniform)
        .charset(Charset::Alpha)
        .label_len(4, 8)
        .tld("com")
        .build()
        .expect("preset is consistent")
    }

    /// Torpig — `AU` (documented approximation): θ∅ = 98, θ∃ = 2,
    /// θq = 100, δi = 1 s.
    pub fn torpig() -> DgaFamily {
        Self::builder(
            "Torpig",
            DgaParams::new(98, 2, 100, QueryTiming::Fixed(SimDuration::from_secs(1)))
                .expect("preset params are valid"),
        )
        .barrel(BarrelClass::Uniform)
        .charset(Charset::Alpha)
        .label_len(6, 12)
        .tld("com")
        .build()
        .expect("preset is consistent")
    }

    /// Ramnit — `AU` with **no fixed query interval** (Table II lists
    /// δi = none): θ∅ = 298, θ∃ = 2, θq = 300, gaps 100 ms – 3 s.
    pub fn ramnit() -> DgaFamily {
        Self::builder(
            "Ramnit",
            DgaParams::new(
                298,
                2,
                300,
                QueryTiming::Irregular {
                    min: SimDuration::from_millis(100),
                    max: SimDuration::from_secs(3),
                },
            )
            .expect("preset params are valid"),
        )
        .barrel(BarrelClass::Uniform)
        .charset(Charset::Alpha)
        .label_len(8, 20)
        .tld("com")
        .build()
        .expect("preset is consistent")
    }

    /// Qakbot — `AU` with **no fixed query interval** (Table II lists
    /// δi = none): θ∅ = 4 995, θ∃ = 5, θq = 5 000, gaps 100 ms – 3 s.
    pub fn qakbot() -> DgaFamily {
        Self::builder(
            "Qakbot",
            DgaParams::new(
                4_995,
                5,
                5_000,
                QueryTiming::Irregular {
                    min: SimDuration::from_millis(100),
                    max: SimDuration::from_secs(3),
                },
            )
            .expect("preset params are valid"),
        )
        .barrel(BarrelClass::Uniform)
        .charset(Charset::AlphaNumeric)
        .label_len(8, 25)
        .tld("org")
        .build()
        .expect("preset is consistent")
    }

    /// Ranbyus — sliding-window pool (§III-A): 40 fresh domains/day over a
    /// 31-day window (1 240 domains), uniform barrel.
    pub fn ranbyus() -> DgaFamily {
        Self::builder(
            "Ranbyus",
            DgaParams::new(
                1_238,
                2,
                1_240,
                QueryTiming::Fixed(SimDuration::from_millis(500)),
            )
            .expect("preset params are valid"),
        )
        .pool(PoolModel::SlidingWindow {
            back: 30,
            forward: 0,
            per_day: 40,
        })
        .barrel(BarrelClass::Uniform)
        .charset(Charset::AlphaNumeric)
        .label_len(14, 14)
        .tld("su")
        .build()
        .expect("preset is consistent")
    }

    /// PushDo — sliding-window pool (§III-A): 30 domains/day over a
    /// −30..+15-day window (1 380 domains), uniform barrel.
    pub fn pushdo() -> DgaFamily {
        Self::builder(
            "PushDo",
            DgaParams::new(
                1_378,
                2,
                1_380,
                QueryTiming::Fixed(SimDuration::from_millis(500)),
            )
            .expect("preset params are valid"),
        )
        .pool(PoolModel::SlidingWindow {
            back: 30,
            forward: 15,
            per_day: 30,
        })
        .barrel(BarrelClass::Uniform)
        .charset(Charset::Alpha)
        .label_len(7, 12)
        .tld("kz")
        .build()
        .expect("preset is consistent")
    }

    /// Suppobox — a *dictionary* DGA (documented approximation): labels
    /// concatenate two English words, defeating entropy-based detectors;
    /// θ∅ = 126, θ∃ = 2, θq = 128, δi = 1 s, uniform barrel. Unlike the
    /// gibberish families, its daily pools can re-use word pairs across
    /// epochs — exactly the behaviour real dictionary DGAs exhibit.
    pub fn suppobox() -> DgaFamily {
        const WORDS: &[&str] = &[
            "ability", "account", "action", "amount", "animal", "answer", "article", "autumn",
            "balance", "banner", "basket", "battle", "beauty", "belief", "bottle", "branch",
            "breath", "bridge", "butter", "camera", "candle", "canvas", "carbon", "castle",
            "cattle", "change", "charge", "choice", "circle", "client", "closet", "coffee",
            "column", "comfort", "command", "common", "copper", "corner", "cotton", "county",
            "couple", "course", "cousin", "credit", "culture", "custom", "damage", "danger",
            "debate", "decade", "degree", "design", "detail", "device", "dinner", "doctor",
            "dollar", "double", "dragon", "driver", "editor", "effect", "effort", "energy",
            "engine", "estate", "event", "expert", "fabric", "factor", "family", "farmer",
            "father", "figure", "finger", "flight", "flower", "forest", "fortune", "friend",
            "future", "garden", "gather", "ground", "growth", "guitar", "hammer", "harbor",
            "health", "height", "history", "hollow", "honey", "humor", "island", "jacket",
            "journey", "jungle", "kitchen", "ladder", "leader", "league", "legend", "letter",
            "little", "luxury", "magnet", "manner", "marble", "margin", "market", "master",
            "matter", "meadow", "member", "memory", "metal", "method", "middle", "minute",
            "mirror", "moment", "monkey", "mother", "motion", "nature", "needle", "nation",
        ];
        let params = DgaParams::new(126, 2, 128, QueryTiming::Fixed(SimDuration::from_secs(1)))
            .expect("preset params are valid");
        let generator = DomainGenerator::dictionary("Suppobox", 0x00b0_73e7, WORDS, 2, "net");
        DgaFamily {
            name: "Suppobox".to_owned(),
            params,
            pool_model: PoolModel::daily(),
            barrel_class: BarrelClass::Uniform,
            generator,
            epoch_len: SimDuration::from_days(1),
            seed: 0x00b0_73e7,
        }
    }

    /// Pykspa — multiple-mixture pool (§III-A): 200 useful + 16 000 noisy
    /// domains, sampling barrel.
    pub fn pykspa() -> DgaFamily {
        Self::builder(
            "Pykspa",
            DgaParams::new(
                198,
                2,
                200,
                QueryTiming::Fixed(SimDuration::from_millis(500)),
            )
            .expect("preset params are valid"),
        )
        .pool(PoolModel::MultipleMixture {
            noise_sizes: vec![16_000],
        })
        .barrel(BarrelClass::Sampling)
        .charset(Charset::Alpha)
        .label_len(6, 13)
        .tld("info")
        .build()
        .expect("preset is consistent")
    }

    /// The paper's four Table I prototypes in `AU, AS, AR, AP` order.
    pub fn table1_prototypes() -> Vec<DgaFamily> {
        vec![
            Self::murofet(),
            Self::conficker_c(),
            Self::new_goz(),
            Self::necurs(),
        ]
    }

    /// Every family preset shipped with the library.
    pub fn all_presets() -> Vec<DgaFamily> {
        vec![
            Self::murofet(),
            Self::srizbi(),
            Self::torpig(),
            Self::ramnit(),
            Self::qakbot(),
            Self::ranbyus(),
            Self::pushdo(),
            Self::conficker_c(),
            Self::pykspa(),
            Self::new_goz(),
            Self::necurs(),
            Self::suppobox(),
        ]
    }

    /// Looks a preset up by (case-insensitive) name, e.g. `"newgoz"` or
    /// `"Conficker.C"`.
    pub fn by_name(name: &str) -> Option<DgaFamily> {
        let needle = name.to_ascii_lowercase().replace(['.', '-', '_'], "");
        Self::all_presets()
            .into_iter()
            .find(|f| f.name().to_ascii_lowercase().replace(['.', '-', '_'], "") == needle)
    }
}

impl fmt::Display for DgaFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} / {}] θ∅={} θ∃={} θq={} δi={}",
            self.name,
            self.pool_class(),
            self.barrel_class,
            self.params.theta_nx(),
            self.params.theta_valid(),
            self.params.theta_q(),
            self.params.timing()
        )
    }
}

/// Builder for custom [`DgaFamily`] instances.
///
/// # Example
///
/// ```
/// use botmeter_dga::{BarrelClass, DgaFamily, DgaParams, QueryTiming};
/// use botmeter_dns::SimDuration;
///
/// let params = DgaParams::new(98, 2, 100, QueryTiming::Fixed(SimDuration::from_secs(1)))?;
/// let family = DgaFamily::builder("custom", params)
///     .barrel(BarrelClass::RandomCut)
///     .tld("info")
///     .seed(99)
///     .build()?;
/// assert_eq!(family.name(), "custom");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DgaFamilyBuilder {
    name: String,
    params: DgaParams,
    pool_model: PoolModel,
    barrel_class: BarrelClass,
    charset: Charset,
    len_range: (usize, usize),
    tld: String,
    epoch_len: SimDuration,
    seed: u64,
}

impl DgaFamilyBuilder {
    /// Sets the pool model (default: daily drain-and-replenish).
    pub fn pool(mut self, model: PoolModel) -> Self {
        self.pool_model = model;
        self
    }

    /// Sets the barrel class (default: uniform).
    pub fn barrel(mut self, class: BarrelClass) -> Self {
        self.barrel_class = class;
        self
    }

    /// Sets the label charset (default: alphanumeric).
    pub fn charset(mut self, charset: Charset) -> Self {
        self.charset = charset;
        self
    }

    /// Sets the generated label length range (default: 12–18).
    pub fn label_len(mut self, min: usize, max: usize) -> Self {
        self.len_range = (min, max);
        self
    }

    /// Sets the TLD of generated domains (default: `example`).
    pub fn tld(mut self, tld: &str) -> Self {
        self.tld = tld.to_owned();
        self
    }

    /// Sets the epoch length (default: one day).
    pub fn epoch_len(mut self, epoch_len: SimDuration) -> Self {
        self.epoch_len = epoch_len;
        self
    }

    /// Sets the family seed all deterministic draws derive from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates cross-field consistency and builds the family.
    ///
    /// # Errors
    ///
    /// * [`FamilyError::PoolSizeMismatch`] — a sliding-window model whose
    ///   window size disagrees with `θ∅ + θ∃`;
    /// * [`FamilyError::BarrelExceedsPool`] — `θq` larger than the full
    ///   (steady-state) pool including noise components;
    /// * [`FamilyError::ZeroEpoch`] — a zero epoch length;
    /// * [`FamilyError::BadLabelLength`] — a zero or inverted label length
    ///   range;
    /// * [`FamilyError::BadTld`] — a TLD that is not 1–16 lower-case ASCII
    ///   letters.
    pub fn build(self) -> Result<DgaFamily, FamilyError> {
        if self.epoch_len.is_zero() {
            return Err(FamilyError::ZeroEpoch);
        }
        // Pre-empt the DomainGenerator constructor's assertions so a bad
        // analyst-supplied range or TLD surfaces as a typed error instead
        // of a panic.
        let (min_len, max_len) = self.len_range;
        if min_len == 0 || min_len > max_len {
            return Err(FamilyError::BadLabelLength {
                min: min_len,
                max: max_len,
            });
        }
        if self.tld.is_empty()
            || self.tld.len() > 16
            || !self.tld.chars().all(|c| c.is_ascii_lowercase())
        {
            return Err(FamilyError::BadTld);
        }
        let useful = self.params.pool_size();
        if let PoolModel::SlidingWindow {
            back,
            forward,
            per_day,
        } = self.pool_model
        {
            let window = ((back + forward + 1) as usize) * per_day;
            if window != useful {
                return Err(FamilyError::PoolSizeMismatch {
                    window,
                    pool: useful,
                });
            }
        }
        let full = self.pool_model.steady_pool_len(useful);
        if self.params.theta_q() > full {
            return Err(FamilyError::BarrelExceedsPool {
                theta_q: self.params.theta_q(),
                pool: full,
            });
        }
        let generator = DomainGenerator::new(
            &self.name,
            self.seed,
            self.len_range.0,
            self.len_range.1,
            self.charset,
            &self.tld,
        );
        Ok(DgaFamily {
            name: self.name,
            params: self.params,
            pool_model: self.pool_model,
            barrel_class: self.barrel_class,
            generator,
            epoch_len: self.epoch_len,
            seed: self.seed,
        })
    }
}

/// Cross-field inconsistency detected when building a [`DgaFamily`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FamilyError {
    /// Sliding-window size and `θ∅ + θ∃` disagree.
    PoolSizeMismatch {
        /// Window size implied by the pool model.
        window: usize,
        /// `θ∅ + θ∃` from the parameters.
        pool: usize,
    },
    /// `θq` exceeds the full steady-state pool (including noise).
    BarrelExceedsPool {
        /// The offending barrel size.
        theta_q: usize,
        /// Full pool length.
        pool: usize,
    },
    /// Epoch length was zero.
    ZeroEpoch,
    /// Generated-label length range was zero or inverted.
    BadLabelLength {
        /// Configured minimum label length.
        min: usize,
        /// Configured maximum label length.
        max: usize,
    },
    /// The TLD is not a plausible label (1–16 lower-case ASCII letters).
    BadTld,
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::PoolSizeMismatch { window, pool } => write!(
                f,
                "sliding window holds {window} domains but θ∅+θ∃ = {pool}"
            ),
            FamilyError::BarrelExceedsPool { theta_q, pool } => {
                write!(f, "θq = {theta_q} exceeds full pool of {pool}")
            }
            FamilyError::ZeroEpoch => write!(f, "epoch length must be positive"),
            FamilyError::BadLabelLength { min, max } => {
                write!(f, "label length range {min}..={max} is empty or zero")
            }
            FamilyError::BadTld => {
                write!(f, "TLD must be 1-16 lower-case ASCII letters")
            }
        }
    }
}

impl std::error::Error for FamilyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::collections::HashSet;

    #[test]
    fn table1_parameters_match_paper() {
        let m = DgaFamily::murofet();
        assert_eq!(
            (
                m.params().theta_nx(),
                m.params().theta_valid(),
                m.params().theta_q()
            ),
            (798, 2, 798)
        );
        assert_eq!(
            m.params().timing().fixed_interval(),
            Some(SimDuration::from_millis(500))
        );

        let c = DgaFamily::conficker_c();
        assert_eq!(
            (
                c.params().theta_nx(),
                c.params().theta_valid(),
                c.params().theta_q()
            ),
            (49_995, 5, 500)
        );

        let g = DgaFamily::new_goz();
        assert_eq!(
            (
                g.params().theta_nx(),
                g.params().theta_valid(),
                g.params().theta_q()
            ),
            (9_995, 5, 500)
        );
        assert_eq!(g.barrel_class(), BarrelClass::RandomCut);

        let n = DgaFamily::necurs();
        assert_eq!(
            (
                n.params().theta_nx(),
                n.params().theta_valid(),
                n.params().theta_q()
            ),
            (2_046, 2, 2_046)
        );
        assert_eq!(n.barrel_class(), BarrelClass::Permutation);
    }

    #[test]
    fn valid_indices_deterministic_distinct_in_range() {
        let f = DgaFamily::new_goz();
        let v1 = f.valid_indices(5);
        let v2 = f.valid_indices(5);
        assert_eq!(v1, v2);
        assert_eq!(v1.len(), 5);
        let set: HashSet<_> = v1.iter().collect();
        assert_eq!(set.len(), 5);
        assert!(v1.iter().all(|&i| i < 10_000));
        assert_ne!(f.valid_indices(6), v1, "fresh registrations per epoch");
    }

    #[test]
    fn valid_domains_are_in_pool() {
        let f = DgaFamily::murofet();
        let pool: HashSet<_> = f.pool_for_epoch(2).into_iter().collect();
        for d in f.valid_domains(2) {
            assert!(pool.contains(&d));
        }
    }

    #[test]
    fn mixture_valid_indices_stay_in_useful_part() {
        let f = DgaFamily::pykspa();
        for epoch in 0..20 {
            for idx in f.valid_indices(epoch) {
                assert!(idx < 200, "C2 index {idx} leaked into noise pool");
            }
        }
    }

    #[test]
    fn necurs_pool_rotates_every_four_days() {
        let f = DgaFamily::necurs();
        assert_eq!(f.pool_for_epoch(0), f.pool_for_epoch(3));
        assert_ne!(f.pool_for_epoch(3), f.pool_for_epoch(4));
        assert_eq!(f.pool_for_epoch(0).len(), 2_048);
    }

    #[test]
    fn sliding_window_presets_consistent() {
        let r = DgaFamily::ranbyus();
        assert_eq!(r.params().pool_size(), 1_240);
        assert_eq!(r.pool_for_epoch(40).len(), 1_240);
        let p = DgaFamily::pushdo();
        assert_eq!(p.params().pool_size(), 1_380);
        assert_eq!(p.pool_for_epoch(40).len(), 1_380);
    }

    #[test]
    fn draw_barrel_respects_class() {
        let f = DgaFamily::new_goz();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let b = f.draw_barrel(0, &mut rng);
        assert_eq!(b.len(), 500);
        for w in b.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % 10_000);
        }
    }

    #[test]
    fn builder_rejects_inconsistencies() {
        let params =
            DgaParams::new(100, 2, 102, QueryTiming::Fixed(SimDuration::from_secs(1))).unwrap();
        // Sliding window of the wrong size.
        let err = DgaFamily::builder("x", params)
            .pool(PoolModel::SlidingWindow {
                back: 1,
                forward: 0,
                per_day: 10,
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            FamilyError::PoolSizeMismatch {
                window: 20,
                pool: 102
            }
        );
        // Zero epoch.
        let err = DgaFamily::builder("x", params)
            .epoch_len(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, FamilyError::ZeroEpoch);
    }

    #[test]
    fn builder_rejects_bad_label_range_and_tld_without_panicking() {
        let params =
            DgaParams::new(100, 2, 102, QueryTiming::Fixed(SimDuration::from_secs(1))).unwrap();
        // Previously these reached DomainGenerator::new's assertions and
        // aborted; a typed error must come back instead.
        let err = DgaFamily::builder("x", params)
            .label_len(0, 8)
            .build()
            .unwrap_err();
        assert_eq!(err, FamilyError::BadLabelLength { min: 0, max: 8 });
        let err = DgaFamily::builder("x", params)
            .label_len(9, 4)
            .build()
            .unwrap_err();
        assert_eq!(err, FamilyError::BadLabelLength { min: 9, max: 4 });
        for bad_tld in ["", "UPPER", "has.dot", "waaaaaaaaaytoolongtld"] {
            let err = DgaFamily::builder("x", params)
                .tld(bad_tld)
                .build()
                .unwrap_err();
            assert_eq!(err, FamilyError::BadTld, "tld {bad_tld:?}");
        }
        assert!(FamilyError::BadTld.to_string().contains("TLD"));
        assert!(FamilyError::BadLabelLength { min: 9, max: 4 }
            .to_string()
            .contains("9..=4"));
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = DgaFamily::conficker_c().to_string();
        assert!(s.contains("Conficker.C") && s.contains("sampling") && s.contains("49995"));
    }

    #[test]
    fn prototypes_cover_four_barrel_classes() {
        let protos = DgaFamily::table1_prototypes();
        let classes: HashSet<_> = protos.iter().map(|f| f.barrel_class()).collect();
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn all_presets_build_and_have_unique_names() {
        let presets = DgaFamily::all_presets();
        assert_eq!(presets.len(), 12);
        let names: HashSet<&str> = presets.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), presets.len());
    }

    #[test]
    fn by_name_is_forgiving() {
        assert_eq!(DgaFamily::by_name("newGoZ").unwrap().name(), "newGoZ");
        assert_eq!(DgaFamily::by_name("newgoz").unwrap().name(), "newGoZ");
        assert_eq!(
            DgaFamily::by_name("conficker.c").unwrap().name(),
            "Conficker.C"
        );
        assert_eq!(
            DgaFamily::by_name("CONFICKERC").unwrap().name(),
            "Conficker.C"
        );
        assert!(DgaFamily::by_name("no-such-dga").is_none());
    }

    #[test]
    fn suppobox_pools_are_distinct_word_pairs() {
        let f = DgaFamily::suppobox();
        let pool = f.pool_for_epoch(0);
        assert_eq!(pool.len(), 128);
        let distinct: HashSet<_> = pool.iter().collect();
        assert_eq!(distinct.len(), 128, "in-epoch duplicates");
        assert!(pool
            .iter()
            .all(|d| d.first_label().chars().all(|c| c.is_ascii_lowercase())));
    }

    #[test]
    fn family_error_messages() {
        let e = FamilyError::BarrelExceedsPool {
            theta_q: 10,
            pool: 5,
        };
        assert!(e.to_string().contains("exceeds"));
    }
}
