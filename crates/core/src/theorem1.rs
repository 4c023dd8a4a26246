//! Theorem 1 of the paper: the expected number of bots required to cover
//! one segment.
//!
//! For a segment of length `l`, let `l̃` range over the possible *start
//! spans* (the stretch of positions bot starting points occupy):
//! `l̃ = l − θq + 1` exactly for an m-segment (every covering bot ran its
//! full barrel), and `l − θq + 1 ..= l` for a b-segment (the last bot may
//! have stopped early at the boundary). The paper's Theorem 1 combines
//! three ingredients for `n` bots whose starts land on those `l̃`
//! positions:
//!
//! 1. an **occupancy probability** — how likely the `n` starts occupy
//!    exactly `m` distinct positions *including both endpoints* of the
//!    span: `C(l̃−2, m−2) · m! · S(n, m) / l̃ⁿ` (Stirling numbers of the
//!    second kind count the surjections);
//! 2. a **gap constraint** `g(l̃, m)` — the probability that `m` occupied
//!    positions with fixed endpoints leave no internal gap larger than
//!    `θq` (inclusion–exclusion over compositions; printed as Eq. after
//!    Theorem 1 and implemented verbatim);
//! 3. a **prior over `n`** from the §V-A activation model: bot starts are
//!    uniform on the circle of `P` positions and arrive as a Poisson
//!    process, so the number of starts falling in a span of `l̃` positions
//!    is Poisson with mean `μ = ρ·l̃`, where `ρ` is the start density
//!    (bots per pool position).
//!
//! The posterior `p(n, l̃) ∝ Poisson(n; ρ·l̃) · Σ_m occupancy·g` yields the
//! segment's expected bot count; b-segments marginalise over `l̃`.
//!
//! **Faithfulness note** (DESIGN.md §3, substitution 3): the paper prints
//! the occupancy factor as `f(l̃,n,m) = m!/l̃ⁿ·C(l̃,m)·(S(n,m) −
//! l̃·S(n−1,m))`, but that expression telescopes to zero when summed over
//! `n` (via the Stirling generating function `Σ_n S(n,m)·xⁿ`), so it
//! cannot be the intended mass function — the proof lives in a technical
//! report whose link is dead. We therefore reconstruct the estimator from
//! the same model with the exact occupancy probability (1.) and the
//! process prior (3.); the `g` term matches the paper verbatim. The
//! [`CoverageEstimator`](crate::CoverageEstimator) provides an
//! independently-derived cross-check for the same taxonomy cell.

use crate::segments::SegmentKind;
use botmeter_stats::{ln_binomial, ln_factorial, LogSumAcc, SharedStirling};

/// Hard cap on the per-segment bot count considered by the posterior sum.
const MAX_BOTS_PER_SEGMENT: u64 = 2_000;

/// Relative tail-mass threshold for truncating the `n` sum.
const TAIL_EPSILON: f64 = 1e-9;

/// Maximum number of span values `l̃` evaluated per b-segment. The
/// marginal varies smoothly in `l̃`, so a uniform sub-grid of the span
/// range changes the averaged expectation negligibly while bounding the
/// per-segment cost (a fully-covered newGoZ arc has ~θq candidate spans).
const MAX_SPAN_SAMPLES: usize = 48;

/// Work done by one kernel evaluation that the observability layer wants
/// to know about. Summed over a set of densities priced against one
/// shape's shared rows, every field is independent of the order they were
/// priced in: rows only grow, each to the largest `n` any density reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Span rows first instantiated (one per sampled span `l̃` of a shape
    /// priced for the first time).
    pub gap_tables_built: u64,
    /// Posterior `n` iterations that ran on an already-instantiated span
    /// row instead of re-deriving the inclusion–exclusion sum.
    pub gap_table_reuses: u64,
    /// `config[n]` entries derived (one Stirling-row fetch plus the `m`
    /// accumulation each).
    pub config_entries_computed: u64,
    /// Posterior `n` iterations served by a `config[n]` entry an earlier
    /// density left behind.
    pub config_entries_reused: u64,
}

impl KernelStats {
    /// Accumulate another evaluation's stats into this one.
    pub fn merge(&mut self, other: KernelStats) {
        self.gap_tables_built += other.gap_tables_built;
        self.gap_table_reuses += other.gap_table_reuses;
        self.config_entries_computed += other.config_entries_computed;
        self.config_entries_reused += other.config_entries_reused;
    }
}

/// Expected number of bots required to cover a segment of shape
/// `(kind, len)` (Theorem 1), with the [`KernelStats`] of the evaluation.
///
/// `theta_q` is the family's barrel size; `start_density` is the prior
/// expected number of bot starts per pool position (`ρ = N/P`), typically
/// supplied by [`BernoulliEstimator`](crate::BernoulliEstimator)'s
/// fixpoint loop. Returns at least `1.0` for any non-empty segment
/// (someone must have produced it). The posterior depends only on
/// `(kind, len, θq, ρ)` — never on the segment's start position.
///
/// `tables` is the shared Stirling triangle: one filled cache serves every
/// segment, cell and epoch of a chart, and sharing it is bit-identical to a
/// private table because every cached value is a pure function of its
/// indices. The kernel's own tables are built for the call and dropped
/// after it: this is the reference the shared-table path of
/// [`SegmentKernelCache`](crate::SegmentKernelCache) is bit-identical to —
/// the cache's own evaluation, one kernel, not two.
///
/// # Panics
///
/// Panics if `theta_q == 0`, `len == 0`, or `start_density` is not finite
/// and positive.
///
/// # Example
///
/// ```
/// use botmeter_core::{expected_bots_for_shape, SegmentKind};
/// use botmeter_stats::SharedStirling;
///
/// let tables = SharedStirling::new();
/// // An m-segment of exactly θq positions is one bot's work (up to the
/// // tiny prior probability of a second bot on the same start).
/// let (e, _) = expected_bots_for_shape(SegmentKind::Middle, 500, 500, 1e-3, &tables);
/// assert!((e - 1.0).abs() < 1e-2);
/// ```
pub fn expected_bots_for_shape(
    kind: SegmentKind,
    len: usize,
    theta_q: usize,
    start_density: f64,
    tables: &SharedStirling,
) -> (f64, KernelStats) {
    ShapeTables::new(kind, len, theta_q).expected_bots(start_density, tables)
}

/// The ρ-free half of the Theorem-1 kernel for one segment shape
/// `(kind, len, θq)`: a [`SpanTables`] per sampled start span `l̃`.
///
/// Nothing in here depends on the prior start density, so one value serves
/// every density the shape is ever priced at — every round of `MB`'s
/// fixpoint, every cell and every `botmeterd` publish.
/// [`expected_bots`](Self::expected_bots) is the ρ-dependent half.
#[derive(Debug)]
pub(crate) struct ShapeTables {
    kind: SegmentKind,
    len: usize,
    theta_q: usize,
    /// One entry per sampled span, in sampling order; empty until the
    /// first evaluation instantiates them.
    spans: Vec<SpanTables>,
}

impl ShapeTables {
    /// Empty tables for the shape; rows are filled by
    /// [`expected_bots`](Self::expected_bots).
    ///
    /// # Panics
    ///
    /// Panics if `theta_q == 0` or `len == 0`.
    pub(crate) fn new(kind: SegmentKind, len: usize, theta_q: usize) -> Self {
        assert!(theta_q > 0, "theta_q must be positive");
        assert!(len > 0, "segment length must be positive");
        ShapeTables {
            kind,
            len,
            theta_q,
            spans: Vec::new(),
        }
    }

    /// Expected number of bots covering the shape at prior start density
    /// `start_density`, and the work the evaluation did.
    ///
    /// Rows left behind by earlier densities are read, never re-derived,
    /// and extended where this density's posterior sum reaches further;
    /// every entry is a pure function of `(l̃, θq, n)`, so the value is
    /// bit-identical to [`expected_bots_for_shape`] whatever was evaluated
    /// before.
    ///
    /// # Panics
    ///
    /// Panics if `start_density` is not finite and positive.
    pub(crate) fn expected_bots(
        &mut self,
        start_density: f64,
        tables: &SharedStirling,
    ) -> (f64, KernelStats) {
        assert!(
            start_density.is_finite() && start_density > 0.0,
            "start density must be finite and positive"
        );
        let mut stats = KernelStats::default();
        if self.spans.is_empty() {
            self.instantiate_spans();
            stats.gap_tables_built = self.spans.len() as u64;
        }

        // Marginalise over l̃: weight each span's conditional mean by its
        // total posterior mass.
        let mut weighted_mean = 0.0f64;
        let mut total_weight = 0.0f64;
        for span in &mut self.spans {
            let (mass, mean) = span_posterior(span, start_density, tables, &mut stats);
            if mass > 0.0 {
                weighted_mean += mass * mean;
                total_weight += mass;
            }
        }
        // The first iteration on a fresh row is the one that built it.
        stats.gap_table_reuses -= stats.gap_tables_built;

        if total_weight <= 0.0 {
            // No span admits any configuration (possible for fragmented
            // segments under aggressive detection-window loss). Fall back to
            // the deterministic lower bound: ceil(l / θq) bots.
            let bound = (self.len as f64 / self.theta_q as f64).ceil().max(1.0);
            return (bound, stats);
        }
        (weighted_mean / total_weight, stats)
    }

    /// Uniform sub-grid over the span range (all values when the range is
    /// small; see [`MAX_SPAN_SAMPLES`]).
    fn instantiate_spans(&mut self) {
        let l = self.len;
        let ll = l.saturating_sub(self.theta_q - 1).max(1);
        let lu = match self.kind {
            SegmentKind::Middle => ll,
            SegmentKind::Boundary => l,
        };
        let range = lu - ll + 1;
        let samples = range.min(MAX_SPAN_SAMPLES);
        self.spans = (0..samples)
            .map(|k| {
                let l_tilde = if samples == 1 {
                    ll
                } else {
                    ll + k * (range - 1) / (samples - 1)
                };
                SpanTables::new(l_tilde, self.theta_q)
            })
            .collect();
    }
}

/// Everything the posterior `n` sum of one span needs that does not depend
/// on ρ. Three rows, each a pure function of `(l̃, θq)` and its index:
///
/// * `gap_ln[m]` and `base_ln[m]` — the gap constraint `g(l̃, m)` and the
///   `n`-independent part of the occupancy log-mass, hoisted out of the
///   `(n, m)` double loop;
/// * `config[n] = config_probability(l̃, n)` — the whole `m` accumulation
///   for one `n`, which a second density would otherwise repeat verbatim:
///   only the `Poisson(n; ρ·l̃)` weight multiplying it changes with ρ.
///
/// Rows are filled lazily and only ever appended to: `m` up to the largest
/// the posterior sum reaches (`m ≤ min(n, l̃)`), `n` up to where the tail
/// cut-off of the densest prior seen so far stopped (usually a few dozen
/// iterations). Eagerly tabulating all `l̃` candidates would cost more than
/// the hoisting saves on long spans. No floating-point operation moves out
/// of its original association order, so reading a row is bit-identical to
/// re-deriving it.
#[derive(Debug)]
struct SpanTables {
    l_tilde: usize,
    theta_q: usize,
    ln_l: f64,
    /// `gap_ln[m] = ln g(l̃, m)`; `−∞` where the constraint has zero mass.
    gap_ln: Vec<f64>,
    /// `base_ln[m] = ln C(l̃−2, m−2) + ln m!` — the `n`-independent
    /// occupancy factor, added in the same order as the unhoisted code.
    base_ln: Vec<f64>,
    /// `config[n]`; index 0 is a placeholder (the sum starts at `n = 1`).
    config: Vec<f64>,
}

impl SpanTables {
    fn new(l_tilde: usize, theta_q: usize) -> Self {
        SpanTables {
            l_tilde,
            theta_q,
            ln_l: (l_tilde as f64).ln(),
            // m = 0 and m = 1 carry no occupancy mass; real entries are
            // appended by `ensure`.
            gap_ln: vec![f64::NEG_INFINITY; 2],
            base_ln: vec![f64::NEG_INFINITY; 2],
            config: vec![0.0],
        }
    }

    /// Extends both `m` rows so every `m ≤ min(m_upto, l̃, cap)` is filled.
    fn ensure(&mut self, m_upto: usize) {
        let target = m_upto.min(self.l_tilde.min(MAX_BOTS_PER_SEGMENT as usize));
        while self.gap_ln.len() <= target {
            let m = self.gap_ln.len();
            let g = g_gap_probability(self.l_tilde, m, self.theta_q);
            // Both values first, then both pushes: the rows never differ
            // in length, even if a derivation panics.
            let gap = if g > 0.0 { g.ln() } else { f64::NEG_INFINITY };
            let base =
                ln_binomial((self.l_tilde - 2) as u64, (m - 2) as u64) + ln_factorial(m as u64);
            self.gap_ln.push(gap);
            self.base_ln.push(base);
        }
    }

    /// `config[n]`, derived and appended on first use. The posterior sum
    /// asks for `n = 1, 2, …` in order, so the row has no holes.
    fn config(&mut self, n: u64, tables: &SharedStirling, stats: &mut KernelStats) -> f64 {
        let i = n as usize;
        if i < self.config.len() {
            stats.config_entries_reused += 1;
        } else {
            debug_assert_eq!(i, self.config.len(), "config row is filled in n order");
            self.ensure(i.min(self.l_tilde));
            let value = config_probability(self.l_tilde, n, self, tables);
            self.config.push(value);
            stats.config_entries_computed += 1;
        }
        self.config[i]
    }
}

/// Total (relative) posterior mass and conditional mean of `n` for one
/// span `l̃` at one density — the ρ-dependent half of the kernel. Masses
/// across spans share a common normalisation so they can be compared
/// directly.
fn span_posterior(
    span: &mut SpanTables,
    start_density: f64,
    tables: &SharedStirling,
    stats: &mut KernelStats,
) -> (f64, f64) {
    let mu = start_density * span.l_tilde as f64;
    let ln_mu = mu.ln();
    // Work relative to e^{−μ}·μ (the n = 1 prior weight) so magnitudes
    // stay comparable across spans; the common e^{−μ} factor differs per
    // span and matters, so keep it.
    let mut total = 0.0f64;
    let mut expectation = 0.0f64;
    let mut best = 0.0f64;
    let mut since_peak = 0u32;
    for n in 1..=MAX_BOTS_PER_SEGMENT {
        stats.gap_table_reuses += 1;
        let ln_prior = -mu + n as f64 * ln_mu - ln_factorial(n);
        let config = span.config(n, tables, stats);
        let mass = if config > 0.0 {
            (ln_prior + config.ln()).exp()
        } else {
            0.0
        };
        total += mass;
        expectation += n as f64 * mass;
        if mass > best {
            best = mass;
            since_peak = 0;
        } else {
            since_peak += 1;
        }
        if best > 0.0 && mass < best * TAIL_EPSILON && since_peak > 3 {
            break;
        }
        if n >= 64 && total == 0.0 {
            break;
        }
    }
    if total > 0.0 {
        (total, expectation / total)
    } else {
        (0.0, 0.0)
    }
}

/// `P(config | n starts uniform on the span)`: both span endpoints
/// occupied and every internal gap at most `θq`.
///
/// `span` carries the hoisted `(l̃, θq)` tables; the only per-`n` work
/// left is one shared Stirling-row fetch and the `m` accumulation. Every
/// floating-point operation keeps the association order of the original
/// per-`(n, m)` formula `((ln C + ln m!) + ln S(n, m)) − n·ln l̃ + ln g`,
/// so the hoisting is bit-identical.
fn config_probability(l_tilde: usize, n: u64, span: &SpanTables, tables: &SharedStirling) -> f64 {
    if l_tilde == 1 {
        return 1.0; // all starts on the single position
    }
    if n < 2 {
        return 0.0; // two distinct endpoints need two bots
    }
    let m_max = (n as usize).min(l_tilde);
    // One lock acquisition hands back ln S(n, ·) for every m below.
    let stir_row = tables.ln_stirling2_row(n);
    let n_ln_l = n as f64 * span.ln_l;
    let mut acc = LogSumAcc::new();
    for m in 2..=m_max {
        let g_ln = span.gap_ln[m];
        if g_ln == f64::NEG_INFINITY {
            continue;
        }
        // P(occupy exactly these m positions incl. endpoints)
        //   = C(l̃−2, m−2) · m! · S(n, m) / l̃ⁿ.
        let ln_occ = span.base_ln[m] + stir_row[m] - n_ln_l;
        acc.add(ln_occ + g_ln);
    }
    let v = acc.value();
    if v == f64::NEG_INFINITY {
        0.0
    } else {
        v.exp().min(1.0)
    }
}

/// `g(l̃, m)`: probability that `m` occupied positions with both endpoints
/// of the `l̃` span fixed have every internal gap ≤ `θq` (inclusion–
/// exclusion over compositions; printed verbatim in the paper).
fn g_gap_probability(l_tilde: usize, m: usize, theta_q: usize) -> f64 {
    if m == 1 {
        return if l_tilde == 1 { 1.0 } else { 0.0 };
    }
    if m > l_tilde {
        return 0.0;
    }
    // With m−1 gaps of at most θq each, a span longer than (m−1)·θq + 1
    // is impossible.
    if l_tilde > (m - 1) * theta_q + 1 {
        return 0.0;
    }
    let denom = ln_binomial((l_tilde - 2) as u64, (m - 2) as u64);
    if denom == f64::NEG_INFINITY {
        return 0.0;
    }
    // Signed log-space accumulation of the alternating sum.
    let mut positive = 0.0f64;
    let mut negative = 0.0f64;
    for k in 0..m {
        let reach = l_tilde as i64 - (k * theta_q) as i64 - 2;
        if reach < (m as i64 - 2) {
            break; // all further terms vanish
        }
        let ln_term = ln_binomial((m - 1) as u64, k as u64)
            + ln_binomial(reach as u64, (m - 2) as u64)
            - denom;
        let term = ln_term.exp();
        if k % 2 == 0 {
            positive += term;
        } else {
            negative += term;
        }
    }
    (positive - negative).clamp(0.0, 1.0)
}

/// [`expected_bots_for_shape`] of `segment`'s shape: the estimate alone.
#[cfg(test)]
pub(crate) fn expected_bots_for_segment(
    segment: &crate::segments::Segment,
    theta_q: usize,
    start_density: f64,
    tables: &SharedStirling,
) -> f64 {
    expected_bots_for_shape(segment.kind, segment.len, theta_q, start_density, tables).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::Segment;

    const DENSITY: f64 = 1e-3; // sparse prior: ~N=10 on a 10k circle

    fn m_seg(len: usize) -> Segment {
        Segment {
            start: 0,
            len,
            kind: SegmentKind::Middle,
        }
    }

    fn b_seg(len: usize) -> Segment {
        Segment {
            start: 0,
            len,
            kind: SegmentKind::Boundary,
        }
    }

    #[test]
    fn lone_theta_q_m_segment_is_one_bot() {
        let t = SharedStirling::new();
        let e = expected_bots_for_segment(&m_seg(500), 500, DENSITY, &t);
        assert!((e - 1.0).abs() < 1e-2, "{e}");
    }

    #[test]
    fn theta_q_plus_one_m_segment_is_about_two_bots() {
        // Span l̃ = 2 with both endpoints occupied: the parsimonious
        // explanation under a sparse prior is exactly two bots.
        let t = SharedStirling::new();
        let e = expected_bots_for_segment(&m_seg(501), 500, DENSITY, &t);
        assert!((e - 2.0).abs() < 0.05, "{e}");
    }

    #[test]
    fn longer_segments_need_more_bots() {
        let t = SharedStirling::new();
        let e1 = expected_bots_for_segment(&m_seg(100), 100, DENSITY, &t);
        let e2 = expected_bots_for_segment(&m_seg(150), 100, DENSITY, &t);
        let e3 = expected_bots_for_segment(&m_seg(250), 100, DENSITY, &t);
        assert!(e1 < e2 && e2 < e3, "monotone growth: {e1} {e2} {e3}");
        // A 250-position m-segment needs at least 2 (and likely ~3) bots:
        // a single barrel covers 100 positions.
        assert!(e3 >= 2.0, "{e3}");
    }

    #[test]
    fn short_b_segment_is_about_one_bot() {
        // A b-segment much shorter than θq under a sparse prior: one bot
        // that hit the boundary quickly.
        let t = SharedStirling::new();
        let e = expected_bots_for_segment(&b_seg(10), 500, DENSITY, &t);
        assert!((1.0..2.0).contains(&e), "{e}");
    }

    #[test]
    fn denser_prior_raises_saturated_estimates() {
        // Once a long b-segment saturates, the prior carries the signal:
        // doubling the density should raise the expectation.
        let t = SharedStirling::new();
        let sparse = expected_bots_for_segment(&b_seg(2000), 500, 64.0 / 10_000.0, &t);
        let dense = expected_bots_for_segment(&b_seg(2000), 500, 256.0 / 10_000.0, &t);
        assert!(
            dense > sparse * 1.5,
            "prior should drive saturated arcs: {sparse} vs {dense}"
        );
    }

    /// `config_probability` through a freshly-built span table, as the
    /// production path does.
    fn config_prob(l_tilde: usize, n: u64, theta_q: usize, tables: &SharedStirling) -> f64 {
        let mut span = SpanTables::new(l_tilde, theta_q);
        span.ensure((n as usize).min(l_tilde));
        config_probability(l_tilde, n, &span, tables)
    }

    #[test]
    fn g_function_hand_cases() {
        // Span 3, 2 points, θq = 2 → the single gap of 2 is allowed.
        assert!((g_gap_probability(3, 2, 2) - 1.0).abs() < 1e-12);
        // θq = 1 forbids the gap of 2.
        assert_eq!(g_gap_probability(3, 2, 1), 0.0);
        // Full occupancy always satisfies the gap bound.
        assert!((g_gap_probability(5, 5, 1) - 1.0).abs() < 1e-12);
        // m = 1 only coherent with a single position.
        assert_eq!(g_gap_probability(1, 1, 10), 1.0);
        assert_eq!(g_gap_probability(7, 1, 10), 0.0);
    }

    #[test]
    fn g_is_a_probability() {
        for l in 2..60usize {
            for m in 2..=l.min(20) {
                for tq in [1usize, 3, 7, 50] {
                    let v = g_gap_probability(l, m, tq);
                    assert!((0.0..=1.0).contains(&v), "g({l},{m},{tq}) = {v}");
                }
            }
        }
    }

    #[test]
    fn g_monotone_in_theta_q() {
        // Loosening the gap bound can only admit more configurations.
        for l in [10usize, 25, 40] {
            for m in [3usize, 5, 8] {
                let a = g_gap_probability(l, m, 3);
                let b = g_gap_probability(l, m, 6);
                let c = g_gap_probability(l, m, 100);
                assert!(a <= b + 1e-12 && b <= c + 1e-12, "l={l} m={m}: {a} {b} {c}");
            }
        }
    }

    #[test]
    fn config_probability_bounds_and_cases() {
        let t = SharedStirling::new();
        // Single position: certain.
        assert_eq!(config_prob(1, 5, 10, &t), 1.0);
        // Two endpoints, one bot: impossible.
        assert_eq!(config_prob(5, 1, 10, &t), 0.0);
        // Two positions, n bots: both occupied with prob 1 − 2^{1−n}.
        for n in 2..8u64 {
            let want = 1.0 - 2f64.powi(1 - n as i32);
            let got = config_prob(2, n, 10, &t);
            assert!((got - want).abs() < 1e-9, "n={n}: {got} vs {want}");
        }
        // Always a probability.
        for l in 2..30usize {
            for n in 2..30u64 {
                let v = config_prob(l, n, 7, &t);
                assert!((0.0..=1.0).contains(&v), "P({l},{n}) = {v}");
            }
        }
    }

    #[test]
    fn shape_eval_reports_kernel_stats() {
        let t = SharedStirling::new();
        let (e, stats) =
            expected_bots_for_shape(SegmentKind::Boundary, 2000, 500, 64.0 / 10_000.0, &t);
        assert!(e >= 1.0);
        // One span row per evaluated span, reused by every posterior
        // iteration after the first; on fresh tables every `config[n]` the
        // sum reads is derived by this call.
        assert!(stats.gap_tables_built > 0);
        assert!(stats.gap_table_reuses > stats.gap_tables_built);
        assert_eq!(
            stats.config_entries_computed,
            stats.gap_tables_built + stats.gap_table_reuses
        );
        assert_eq!(stats.config_entries_reused, 0);
        let direct = expected_bots_for_segment(&b_seg(2000), 500, 64.0 / 10_000.0, &t);
        assert_eq!(e.to_bits(), direct.to_bits(), "wrapper must not perturb");
    }

    #[test]
    fn truncated_m_segment_estimates_one_bot() {
        // An m-segment shorter than θq arises only when the detection
        // window hides domains; its start span collapses to one position,
        // so it reads as a single bot (plus negligible prior mass).
        let t = SharedStirling::new();
        let e = expected_bots_for_segment(&m_seg(3), 500, DENSITY, &t);
        assert!((e - 1.0).abs() < 1e-2, "{e}");
    }

    #[test]
    #[should_panic(expected = "theta_q must be positive")]
    fn zero_theta_q_panics() {
        let t = SharedStirling::new();
        expected_bots_for_segment(&m_seg(3), 0, DENSITY, &t);
    }

    #[test]
    #[should_panic(expected = "start density must be finite and positive")]
    fn bad_density_panics() {
        let t = SharedStirling::new();
        expected_bots_for_segment(&m_seg(3), 5, 0.0, &t);
    }

    #[test]
    fn large_boundary_segment_is_tractable_and_sane() {
        // Realistic newGoZ shape: arc ~2000, θq = 500, fully covered arc,
        // prior from a 64-bot infection.
        let t = SharedStirling::new();
        let start = std::time::Instant::now();
        let e = expected_bots_for_segment(&b_seg(2000), 500, 64.0 / 10_000.0, &t);
        assert!((3.0..=64.0).contains(&e), "2000-long b-segment: {e}");
        assert!(
            start.elapsed().as_secs() < 10,
            "tractability bound blown: {:?}",
            start.elapsed()
        );
    }
}
