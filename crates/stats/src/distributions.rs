//! Random-variate samplers implemented from first principles.
//!
//! The simulator needs exponential inter-arrival times (Poisson processes),
//! normal draws (the σ-modulated activation-rate experiment of Fig. 6(d)),
//! Poisson counts, log-normal rates and Zipf-distributed benign domain
//! popularity. Each sampler is a small value type with an explicit
//! constructor that validates its parameters, and samples from any
//! caller-provided [`rand::Rng`].

use rand::Rng;

/// Types that can draw an `f64` variate from an RNG.
pub trait SampleF64 {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Types that can draw a `u64` variate from an RNG.
pub trait SampleU64 {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// # Example
///
/// ```
/// use botmeter_stats::{Exponential, SampleF64};
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
/// let exp = Exponential::new(2.0).unwrap();
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `lambda` is not finite and strictly positive.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(ParamError::new("exponential rate must be finite and > 0"));
        }
        Ok(Exponential { lambda })
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl SampleF64 for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; gen::<f64>() is in [0,1), so 1-u is in (0,1].
        let u: f64 = rng.gen();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Normal distribution `N(mu, sigma^2)` via the Marsaglia polar method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `sigma < 0` or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !(mu.is_finite() && sigma.is_finite() && sigma >= 0.0) {
            return Err(ParamError::new("normal requires finite mu and sigma >= 0"));
        }
        Ok(Normal { mu, sigma })
    }
}

impl SampleF64 for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.mu;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mu + self.sigma * u * factor;
            }
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma^2))`.
///
/// Used for the dynamic activation-rate multiplier `e^{κ}`, `κ ~ N(0, σ²)`
/// in the paper's Fig. 6(d) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Creates the distribution of `exp(N(mu, sigma^2))`.
    ///
    /// # Errors
    ///
    /// Same domain requirements as [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(LogNormal {
            normal: Normal::new(mu, sigma)?,
        })
    }
}

impl SampleF64 for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Knuth's multiplication method for `lambda <= 30`; for larger means, a
/// normal approximation with continuity correction (the harness only uses
/// large-λ draws for background-traffic volume, where a 0.1% error in shape
/// is irrelevant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `lambda` is not finite and strictly positive.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(ParamError::new("poisson mean must be finite and > 0"));
        }
        Ok(Poisson { lambda })
    }
}

impl SampleU64 for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda <= 30.0 {
            let limit = (-self.lambda).exp();
            let mut product: f64 = rng.gen();
            let mut count = 0u64;
            while product > limit {
                product *= rng.gen::<f64>();
                count += 1;
            }
            count
        } else {
            let n = Normal::new(self.lambda, self.lambda.sqrt()).expect("valid by construction");
            let x = n.sample(rng) + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }
}

/// Bernoulli distribution returning `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns `Err` unless `0 <= p <= 1`.
    pub fn new(p: f64) -> Result<Self, ParamError> {
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(ParamError::new("bernoulli p must be in [0, 1]"));
        }
        Ok(Bernoulli { p })
    }

    /// Draws one trial.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.p
    }
}

/// Zipf distribution on `{1, ..., n}` with exponent `s`, sampled by
/// inversion against a precomputed CDF.
///
/// Models the popularity ranking of benign domains in the enterprise
/// background-traffic generator. `n` is bounded (a domain catalog), so an
/// explicit CDF plus binary search is simple and exact.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over ranks `1..=n`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("zipf support must be non-empty"));
        }
        if !(s.is_finite() && s >= 0.0) {
            return Err(ParamError::new("zipf exponent must be finite and >= 0"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Clamp the final entry to exactly 1.0 against rounding.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Zipf { cdf })
    }
}

impl SampleU64 for Zipf {
    /// Samples a rank in `1..=n`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx.min(self.cdf.len() - 1) + 1) as u64
    }
}

/// Invalid distribution parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    msg: &'static str,
}

impl ParamError {
    fn new(msg: &'static str) -> Self {
        ParamError { msg }
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.msg)
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn exponential_mean_close() {
        let d = Exponential::new(4.0).unwrap();
        let mut r = rng(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut r = rng(2);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn normal_zero_sigma_is_constant() {
        let d = Normal::new(5.0, 0.0).unwrap();
        let mut r = rng(3);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    fn lognormal_median() {
        // Median of exp(N(mu, s^2)) is exp(mu).
        let d = LogNormal::new(1.0, 0.75).unwrap();
        let mut r = rng(4);
        let n = 50_000;
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        assert!(
            (median - std::f64::consts::E).abs() < 0.1,
            "median {median}"
        );
    }

    #[test]
    fn poisson_small_lambda_mean_var() {
        let d = Poisson::new(3.5).unwrap();
        let mut r = rng(5);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.06, "mean {mean}");
        assert!((var - 3.5).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let d = Poisson::new(500.0).unwrap();
        let mut r = rng(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn bernoulli_frequency() {
        let d = Bernoulli::new(0.3).unwrap();
        let mut r = rng(7);
        let n = 100_000;
        let hits = (0..n).filter(|_| d.sample(&mut r)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn bernoulli_bounds() {
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(1.1).is_err());
        let always = Bernoulli::new(1.0).unwrap();
        let never = Bernoulli::new(0.0).unwrap();
        let mut r = rng(8);
        assert!(always.sample(&mut r));
        assert!(!never.sample(&mut r));
    }

    #[test]
    fn zipf_rank_ordering() {
        let d = Zipf::new(100, 1.0).unwrap();
        let mut r = rng(9);
        let n = 200_000;
        let mut counts = vec![0u64; 101];
        for _ in 0..n {
            counts[d.sample(&mut r) as usize] += 1;
        }
        // Rank 1 must dominate rank 10 roughly 10:1 under s = 1.
        let ratio = counts[1] as f64 / counts[10] as f64;
        assert!((ratio - 10.0).abs() < 2.0, "ratio {ratio}");
        // All mass within support.
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let d = Zipf::new(4, 0.0).unwrap();
        let mut r = rng(10);
        let n = 40_000;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            counts[d.sample(&mut r) as usize] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let f = count as f64 / n as f64;
            assert!((f - 0.25).abs() < 0.02, "rank {k}: {f}");
        }
    }

    #[test]
    fn zipf_rejects_empty_support() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
    }

    #[test]
    fn param_error_displays() {
        let e = Exponential::new(0.0).unwrap_err();
        assert!(e.to_string().contains("exponential"));
    }
}
