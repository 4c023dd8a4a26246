//! Fig. 7 and Table II: BotMeter on the (synthetic) enterprise trace.
//!
//! The paper's real-data study (§V-B) watched one local DNS server in a
//! 22.5 K-address enterprise network for a year, with three active DGAs —
//! newGoZ (`AR`), Ramnit and Qakbot (both `AU`, with no fixed query
//! interval) — and compared daily population estimates against IP-level
//! ground truth. Fig. 7 plots the daily series; Table II summarises mean ±
//! std ARE per estimator.
//!
//! We run the same study over the enterprise simulator (DESIGN.md §3,
//! substitution 1): the family's `Auto` model (`MB` for `AR`, `MP` for
//! `AU`) against the Timing baseline, with this reproduction's Coverage
//! estimator as the `AR` cross-check, each charted through
//! [`BotMeter`](botmeter_core::BotMeter).

use crate::chart::{model_name, models_for, TrialChart};
use crate::render::TextTable;
use botmeter_core::{absolute_relative_error, BotMeterConfig, ModelKind};
use botmeter_dga::DgaFamily;
use botmeter_sim::{EnterpriseOutcome, EnterpriseSpec};
use botmeter_stats::{OnlineMoments, Summary};

/// Root seed of the enterprise trace.
const SEED: u64 = 0x0000_F167;

/// One family's daily series: ground truth vs estimates.
#[derive(Debug, Clone)]
pub struct FamilySeries {
    /// The DGA family name.
    pub family: String,
    /// Taxonomy shorthand (`AU`, `AR`, ...).
    pub shorthand: &'static str,
    /// Name of the estimator the family's `Auto` model resolves to (`MB`
    /// or `MP`).
    pub primary_name: &'static str,
    /// Per-day rows: `(day, actual, primary, timing, coverage)`;
    /// `coverage` is `None` for non-`AR` families.
    pub days: Vec<DayRow>,
}

/// One day of Fig. 7 data for one family.
#[derive(Debug, Clone, Copy)]
pub struct DayRow {
    /// Day index since the start of the trace.
    pub day: u64,
    /// Ground-truth active-bot population.
    pub actual: u64,
    /// The primary estimator's estimate.
    pub primary: f64,
    /// The Timing estimator's estimate.
    pub timing: f64,
    /// The Coverage estimator's estimate (`AR` families only).
    pub coverage: Option<f64>,
}

/// One row of Table II: a family × estimator error summary.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The DGA family name.
    pub family: String,
    /// The estimator's display name.
    pub estimator: String,
    /// Mean ARE over days with non-zero actual population.
    pub mean: f64,
    /// Standard deviation of the ARE over those days.
    pub std: f64,
    /// Number of active days the summary covers.
    pub active_days: usize,
}

/// The full Fig. 7 / Table II result.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Per-family daily series.
    pub series: Vec<FamilySeries>,
    /// Table II rows (primary, coverage where applicable, then timing).
    pub table2: Vec<Table2Row>,
}

/// Runs the enterprise experiment on an already-simulated outcome.
pub fn evaluate(outcome: &EnterpriseOutcome) -> Fig7Result {
    let mut series = Vec::new();
    let mut table2 = Vec::new();

    for (fi, family) in outcome.families().iter().enumerate() {
        let fs = evaluate_family(outcome, family, fi);
        // Aggregate Table II over active days.
        let mut pairs: Vec<(&str, Vec<(f64, f64)>)> =
            vec![(fs.primary_name, Vec::new()), ("Timing", Vec::new())];
        let has_coverage = fs.days.iter().any(|d| d.coverage.is_some());
        if has_coverage {
            pairs.insert(1, ("Coverage", Vec::new()));
        }
        for row in &fs.days {
            if row.actual == 0 {
                continue;
            }
            let actual = row.actual as f64;
            pairs
                .iter_mut()
                .find(|(n, _)| *n == fs.primary_name)
                .expect("primary present")
                .1
                .push((row.primary, actual));
            pairs
                .iter_mut()
                .find(|(n, _)| *n == "Timing")
                .expect("timing present")
                .1
                .push((row.timing, actual));
            if let Some(cov) = row.coverage {
                pairs
                    .iter_mut()
                    .find(|(n, _)| *n == "Coverage")
                    .expect("coverage present")
                    .1
                    .push((cov, actual));
            }
        }
        for (name, est_actual) in pairs {
            if est_actual.is_empty() {
                continue;
            }
            let errors: Vec<f64> = est_actual
                .iter()
                .map(|&(e, a)| absolute_relative_error(e, a))
                .collect();
            let mut m = OnlineMoments::new();
            m.extend(errors.iter().copied());
            table2.push(Table2Row {
                family: fs.family.clone(),
                estimator: name.to_owned(),
                mean: m.mean(),
                std: m.std_dev(),
                active_days: errors.len(),
            });
        }
        series.push(fs);
    }
    Fig7Result { series, table2 }
}

fn evaluate_family(
    outcome: &EnterpriseOutcome,
    family: &DgaFamily,
    family_idx: usize,
) -> FamilySeries {
    let days = outcome.days();
    let config = BotMeterConfig::new(family.clone())
        .ttl(outcome.ttl())
        .granularity(outcome.granularity());
    let chart = TrialChart::new(config, None, outcome.observed(), 0..days);
    let primary = chart.estimates(ModelKind::Auto);
    let timing = chart.estimates(ModelKind::Timing);
    let coverage = models_for(family)
        .contains(&ModelKind::Coverage)
        .then(|| chart.estimates(ModelKind::Coverage));

    let ground_truth = &outcome.ground_truth()[family_idx];
    let rows = (0..days as usize)
        .map(|d| DayRow {
            day: d as u64,
            actual: ground_truth[d],
            primary: primary[d],
            timing: timing[d],
            coverage: coverage.as_ref().map(|c| c[d]),
        })
        .collect();

    FamilySeries {
        family: family.name().to_owned(),
        shorthand: family.barrel_class().shorthand(),
        primary_name: model_name(family, ModelKind::Auto),
        days: rows,
    }
}

/// Simulates the enterprise and evaluates it in one call.
pub fn run(spec: &EnterpriseSpec) -> Fig7Result {
    evaluate(&spec.run())
}

/// Runs the paper-scale study (365 days, 22.5 K addresses) and renders
/// what `fig7` prints: the daily series, Table II and the per-estimator
/// error distribution.
pub fn paper_scale_report() -> String {
    let result = run(&EnterpriseSpec::paper_scale(SEED));
    let mut out = render_series(&result);
    out.push_str(&render_table2(&result));
    out.push_str("\nOverall per-estimator ARE distribution (active days):\n");
    for (name, summary) in overall_summary(&result) {
        out.push_str(&format!("  {name:<10} {summary}\n"));
    }
    out
}

/// Renders the Fig. 7 daily series (active days only, like the paper's
/// x-axis, which skips quiet days).
pub fn render_series(result: &Fig7Result) -> String {
    let mut out = String::new();
    for fs in &result.series {
        out.push_str(&format!(
            "\nFig. 7 — {} ({}) — daily active bots, ground truth vs estimates\n",
            fs.family, fs.shorthand
        ));
        let mut headers = vec!["day", "actual", fs.primary_name, "Timing"];
        let has_coverage = fs.days.iter().any(|d| d.coverage.is_some());
        if has_coverage {
            headers.push("Coverage");
        }
        let mut table = TextTable::new(&headers);
        for row in fs.days.iter().filter(|r| r.actual > 0) {
            let mut cells = vec![
                row.day.to_string(),
                row.actual.to_string(),
                format!("{:.1}", row.primary),
                format!("{:.1}", row.timing),
            ];
            if has_coverage {
                cells.push(row.coverage.map(|c| format!("{c:.1}")).unwrap_or_default());
            }
            let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
            table.row(&refs);
        }
        out.push_str(&table.render());
    }
    out
}

/// Renders Table II, with the paper's reported values alongside.
pub fn render_table2(result: &Fig7Result) -> String {
    let mut table = TextTable::new(&[
        "DGA",
        "estimator",
        "measured mean±std ARE",
        "active days",
        "paper (Table II)",
    ]);
    for row in &result.table2 {
        let paper = paper_reference(&row.family, &row.estimator);
        table.row(&[
            &row.family,
            &row.estimator,
            &format!("{:.3} ± {:.3}", row.mean, row.std),
            &row.active_days.to_string(),
            paper,
        ]);
    }
    format!("\nTable II — average estimation errors\n{}", table.render())
}

/// The paper's Table II numbers for side-by-side comparison.
fn paper_reference(family: &str, estimator: &str) -> &'static str {
    match (family, estimator) {
        ("newGoZ", "Bernoulli") => ".116 ± .177",
        ("newGoZ", "Timing") => "1.545 ± .393",
        ("Ramnit", "Poisson") => ".157 ± .276",
        ("Ramnit", "Timing") => ".884 ± 1.297",
        ("Qakbot", "Poisson") => ".127 ± .237",
        ("Qakbot", "Timing") => "4.294 ± 5.118",
        _ => "—",
    }
}

/// Per-estimator ARE distribution across all active days of all `AR` or
/// `AU` families (diagnostic summary printed after Table II).
pub fn overall_summary(result: &Fig7Result) -> Vec<(String, Summary)> {
    use std::collections::BTreeMap;
    let mut errors: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for fs in &result.series {
        for row in fs.days.iter().filter(|r| r.actual > 0) {
            let actual = row.actual as f64;
            errors
                .entry(fs.primary_name.to_owned())
                .or_default()
                .push(absolute_relative_error(row.primary, actual));
            errors
                .entry("Timing".to_owned())
                .or_default()
                .push(absolute_relative_error(row.timing, actual));
            if let Some(c) = row.coverage {
                errors
                    .entry("Coverage".to_owned())
                    .or_default()
                    .push(absolute_relative_error(c, actual));
            }
        }
    }
    errors
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| (k, Summary::from_slice(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_result() -> Fig7Result {
        run(&EnterpriseSpec::quick(3))
    }

    #[test]
    fn evaluates_every_family_and_day() {
        let r = quick_result();
        assert_eq!(r.series.len(), 2); // quick(): newGoZ + Ramnit
        for fs in &r.series {
            assert_eq!(fs.days.len(), 20);
        }
        let goz = r.series.iter().find(|s| s.family == "newGoZ").unwrap();
        assert_eq!(goz.primary_name, "Bernoulli");
        assert!(goz.days.iter().any(|d| d.coverage.is_some()));
        let ramnit = r.series.iter().find(|s| s.family == "Ramnit").unwrap();
        assert_eq!(ramnit.primary_name, "Poisson");
        assert!(ramnit.days.iter().all(|d| d.coverage.is_none()));
    }

    #[test]
    fn quiet_days_estimate_zero() {
        let r = quick_result();
        for fs in &r.series {
            for row in fs.days.iter().filter(|r| r.actual == 0) {
                // No bots → no matched lookups → estimate 0 (benign noise
                // never matches the family's pools).
                assert_eq!(row.primary, 0.0, "{} day {}", fs.family, row.day);
            }
        }
    }

    #[test]
    fn table2_covers_each_family_estimator_pair() {
        let r = quick_result();
        assert!(!r.table2.is_empty());
        let goz_rows: Vec<_> = r.table2.iter().filter(|t| t.family == "newGoZ").collect();
        let names: Vec<&str> = goz_rows.iter().map(|t| t.estimator.as_str()).collect();
        assert!(names.contains(&"Bernoulli"));
        assert!(names.contains(&"Timing"));
        assert!(names.contains(&"Coverage"));
        for row in &r.table2 {
            assert!(row.mean.is_finite() && row.std.is_finite());
            assert!(row.active_days > 0);
        }
    }

    #[test]
    fn renders_are_nonempty_and_reference_paper() {
        let r = quick_result();
        let series_text = render_series(&r);
        assert!(series_text.contains("Fig. 7"));
        let table_text = render_table2(&r);
        assert!(table_text.contains("Table II"));
        assert!(table_text.contains("±"));
        let overall = overall_summary(&r);
        assert!(!overall.is_empty());
    }

    #[test]
    fn paper_reference_known_cells() {
        assert_eq!(paper_reference("newGoZ", "Bernoulli"), ".116 ± .177");
        assert_eq!(paper_reference("newGoZ", "Coverage"), "—");
    }
}
