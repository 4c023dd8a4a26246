//! Special functions: log-gamma, log-factorial, log-binomial and log-space
//! accumulation helpers.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), accurate to about
/// 1e-13 relative error over the positive reals, which is far tighter than
/// anything the BotMeter estimators require.
///
/// # Panics
///
/// Panics if `x <= 0` (the estimators only ever evaluate the positive branch,
/// so a hard error is preferable to silently returning a reflected value).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of `n!`.
///
/// Values up to `n = 255` come from a precomputed table (exact to f64
/// rounding); larger arguments fall back to the Lanczos `ln Γ`.
///
/// # Example
///
/// ```
/// assert!((botmeter_stats::ln_factorial(4) - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_factorial(n: u64) -> f64 {
    const TABLE_LEN: usize = 256;
    // Lazily built once; cheap enough to compute eagerly with a static
    // initializer-free approach using OnceLock.
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; TABLE_LEN]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0.0f64; TABLE_LEN];
        let mut acc = 0.0f64;
        for (i, slot) in t.iter_mut().enumerate() {
            if i > 0 {
                acc += (i as f64).ln();
            }
            *slot = acc;
        }
        t
    });
    if (n as usize) < TABLE_LEN {
        table[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n`, which is the natural log-space
/// encoding of "zero ways" and lets callers use the value in
/// [`LogSumAcc`] accumulation without special-casing.
///
/// # Example
///
/// ```
/// let v = botmeter_stats::ln_binomial(10, 3); // C(10,3) = 120
/// assert!((v - 120f64.ln()).abs() < 1e-10);
/// assert_eq!(botmeter_stats::ln_binomial(3, 10), f64::NEG_INFINITY);
/// ```
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    if k == 0 {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Streaming log-sum-exp accumulator.
///
/// Maintains a running maximum and a scaled sum so that terms may be added
/// one at a time without first materialising them in a vector.
///
/// # Example
///
/// ```
/// use botmeter_stats::LogSumAcc;
/// let mut acc = LogSumAcc::new();
/// acc.add(700.0);
/// acc.add(700.0);
/// assert!((acc.value() - (700.0 + 2f64.ln())).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSumAcc {
    max: f64,
    sum: f64,
}

impl LogSumAcc {
    /// Creates an empty accumulator whose [`value`](Self::value) is `-inf`.
    pub fn new() -> Self {
        LogSumAcc {
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds a term given as its natural logarithm.
    pub fn add(&mut self, ln_x: f64) {
        if ln_x == f64::NEG_INFINITY {
            return;
        }
        if ln_x <= self.max {
            self.sum += (ln_x - self.max).exp();
        } else {
            // Rescale the existing sum to the new maximum.
            self.sum = self.sum * (self.max - ln_x).exp() + 1.0;
            self.max = ln_x;
        }
    }

    /// The logarithm of the accumulated sum.
    pub fn value(&self) -> f64 {
        if self.max == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            self.max + self.sum.ln()
        }
    }
}

impl Default for LogSumAcc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `ln(Σ exp(x_i))` through the streaming accumulator.
    fn lse(xs: &[f64]) -> f64 {
        let mut acc = LogSumAcc::new();
        for &x in xs {
            acc.add(x);
        }
        acc.value()
    }

    proptest! {
        /// ln Γ satisfies the functional equation Γ(x+1) = x·Γ(x).
        #[test]
        fn ln_gamma_recurrence(x in 0.05f64..200.0) {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()));
        }

        /// ln n! is monotone increasing and consistent with ln Γ(n+1).
        #[test]
        fn ln_factorial_consistency(n in 0u64..5000) {
            let a = ln_factorial(n);
            let b = ln_gamma(n as f64 + 1.0);
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
            prop_assert!(ln_factorial(n + 1) >= a);
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1u32..20 {
            fact *= n as f64;
            let got = ln_gamma(n as f64 + 1.0);
            assert!(
                (got - fact.ln()).abs() < 1e-10,
                "ln_gamma({}) = {got}, want {}",
                n + 1,
                fact.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        let got = ln_gamma(0.5);
        assert!((got - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_table_and_tail_agree() {
        // The table/ln_gamma seam at n = 256 must be continuous.
        let a = ln_factorial(255);
        let b = ln_factorial(256);
        assert!((b - a - 256f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn ln_binomial_symmetry() {
        for n in 0u64..40 {
            for k in 0..=n {
                let a = ln_binomial(n, k);
                let b = ln_binomial(n, n - k);
                assert!((a - b).abs() < 1e-10, "C({n},{k}) asymmetric");
            }
        }
    }

    #[test]
    fn ln_binomial_pascal_rule() {
        // C(n,k) = C(n-1,k-1) + C(n-1,k) in log space.
        for n in 2u64..60 {
            for k in 1..n {
                let lhs = ln_binomial(n, k);
                let rhs = lse(&[ln_binomial(n - 1, k - 1), ln_binomial(n - 1, k)]);
                assert!((lhs - rhs).abs() < 1e-9, "Pascal fails at ({n},{k})");
            }
        }
    }

    #[test]
    fn log_sum_exp_handles_extremes() {
        assert_eq!(lse(&[]), f64::NEG_INFINITY);
        assert_eq!(lse(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        let v = lse(&[-1000.0, -1000.0 + 1.0]);
        let want = (-1000.0f64).exp(); // irrelevant: check shifted identity
        let _ = want;
        assert!((v - (-1000.0 + (1.0 + std::f64::consts::E).ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_acc_order_independent() {
        let terms = [3.0, -2.0, 10.0, 9.99, -50.0];
        let mut fwd = LogSumAcc::new();
        for &t in &terms {
            fwd.add(t);
        }
        let mut rev = LogSumAcc::new();
        for &t in terms.iter().rev() {
            rev.add(t);
        }
        assert!((fwd.value() - rev.value()).abs() < 1e-12);
    }
}
