//! Descriptive statistics: means, variances, percentiles and five-number
//! summaries used by the experiment harness to build the paper's error-bar
//! plots (25th–75th percentile of absolute relative error).

use crate::kahan::KahanSum;
use serde::{Deserialize, Serialize};

/// Arithmetic mean of a slice; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(botmeter_stats::mean(&[1.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: KahanSum = xs.iter().copied().collect();
    s.value() / xs.len() as f64
}

/// Sample variance (Bessel-corrected); `0.0` for fewer than two points.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let mut acc = KahanSum::new();
    for &x in xs {
        acc.add((x - m) * (x - m));
    }
    acc.value() / (xs.len() - 1) as f64
}

/// Sample standard deviation; `0.0` for fewer than two points.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Percentile with linear interpolation between order statistics
/// (the "exclusive-free" R-7 definition used by most plotting stacks).
///
/// `p` is in `[0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` outside `[0, 100]`.
///
/// # Example
///
/// ```
/// let v = botmeter_stats::percentile(&[1.0, 2.0, 3.0, 4.0], 50.0);
/// assert_eq!(v, 2.5);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "p must be in [0, 100], got {p}");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (p / 100.0) * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// A five-number-plus summary of a sample: count, mean, standard deviation,
/// min/max and the quartiles the paper's error bars are built from.
///
/// # Example
///
/// ```
/// use botmeter_stats::Summary;
/// let s = Summary::from_slice(&[0.1, 0.2, 0.3, 0.4, 0.5]);
/// assert_eq!(s.median(), 0.3);
/// assert_eq!(s.q25(), 0.2);
/// assert_eq!(s.q75(), 0.4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: usize,
    mean: f64,
    std_dev: f64,
    min: f64,
    q25: f64,
    median: f64,
    q75: f64,
    max: f64,
}

impl Summary {
    /// Builds a summary from a sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn from_slice(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "Summary of empty sample");
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: sorted[0],
            q25: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q75: percentile_sorted(&sorted, 75.0),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }
    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
    /// Minimum.
    pub fn min(&self) -> f64 {
        self.min
    }
    /// 25th percentile (lower edge of the paper's error bars).
    pub fn q25(&self) -> f64 {
        self.q25
    }
    /// Median.
    pub fn median(&self) -> f64 {
        self.median
    }
    /// 75th percentile (upper edge of the paper's error bars).
    pub fn q75(&self) -> f64 {
        self.q75
    }
    /// Maximum.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} q25={:.4} med={:.4} q75={:.4} max={:.4}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.q25,
            self.median,
            self.q75,
            self.max
        )
    }
}

/// Welford online accumulator for mean/variance without storing the sample.
///
/// # Example
///
/// ```
/// use botmeter_stats::OnlineMoments;
/// let mut m = OnlineMoments::new();
/// for x in [2.0, 4.0, 6.0] {
///     m.push(x);
/// }
/// assert_eq!(m.mean(), 4.0);
/// assert_eq!(m.std_dev(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Bessel-corrected sample variance (`0.0` with fewer than two points).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Extend<f64> for OnlineMoments {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_empty_and_single() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[7.0]), 7.0);
    }

    #[test]
    fn variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        // population var 4.0 => sample var 4.0 * 8/7
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_degenerate() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&xs, 25.0) - 17.5).abs() < 1e-12);
        assert!((percentile(&xs, 75.0) - 32.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 100]")]
    fn percentile_bad_p_panics() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_slice(&xs);
        assert_eq!(s.count(), 100);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
        assert!((s.median() - 50.5).abs() < 1e-12);
        assert!(s.q25() < s.median() && s.median() < s.q75());
    }

    #[test]
    fn summary_display_nonempty() {
        let s = Summary::from_slice(&[1.0]);
        let text = s.to_string();
        assert!(text.contains("n=1"));
    }

    #[test]
    fn summary_serde_roundtrip() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let json = serde_json::to_string(&s).unwrap();
        let back: Summary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn online_moments_match_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut m = OnlineMoments::new();
        m.extend(xs.iter().copied());
        assert!((m.mean() - mean(&xs)).abs() < 1e-12);
        assert!((m.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(m.count(), xs.len() as u64);
    }

    #[test]
    fn online_moments_empty() {
        let m = OnlineMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.std_dev(), 0.0);
    }
}
