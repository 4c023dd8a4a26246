//! Parallel trial execution and aggregation for parameter sweeps.

use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use botmeter_stats::Summary;

/// Runs `trials` independent trials of `f` (given the trial index) across
/// all available cores and returns the results in trial order.
///
/// Trials must be deterministic functions of their index (derive per-trial
/// seeds from it), so the sweep is reproducible regardless of scheduling.
///
/// This is a thin veneer over [`botmeter_exec::run_indexed_with`], the
/// workspace-wide self-scheduling executor: jobs are dispensed from an
/// atomic counter (bounded coordination state, no pre-filled queue) and
/// results land in per-index slots, so ordering is deterministic.
///
/// # Example
///
/// ```
/// let xs = botmeter_bench::sweep::run_trials(8, |i| i as f64 * 2.0);
/// assert_eq!(xs[3], 6.0);
/// ```
pub fn run_trials<T, F>(trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_trials_with(ExecPolicy::default(), &Obs::noop(), trials, f)
}

/// [`run_trials`] with an explicit [`ExecPolicy`] and an [`Obs`] recorder:
/// scheduling metrics (`sched.exec.*` tasks, steals, queue high-water) land
/// in the recorder, so a sweep harness can emit a
/// [`MetricsSnapshot`](botmeter_obs::MetricsSnapshot) next to its results.
pub fn run_trials_with<T, F>(policy: ExecPolicy, obs: &Obs, trials: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    botmeter_exec::run_indexed_with(policy, obs, trials, f)
}

/// A single aggregated sweep point: the x value, a series label and the
/// distribution of per-trial AREs.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub x: f64,
    /// Series label (estimator name).
    pub series: String,
    /// Distribution of per-trial absolute relative errors.
    pub summary: Summary,
}

impl SweepPoint {
    /// Aggregates raw per-trial errors into a point.
    ///
    /// # Panics
    ///
    /// Panics if `errors` is empty.
    pub fn from_errors(x: f64, series: &str, errors: &[f64]) -> Self {
        SweepPoint {
            x,
            series: series.to_owned(),
            summary: Summary::from_slice(errors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_in_order_and_complete() {
        let xs = run_trials(100, |i| (i * i) as f64);
        assert_eq!(xs.len(), 100);
        for (i, &v) in xs.iter().enumerate() {
            assert_eq!(v, (i * i) as f64);
        }
    }

    #[test]
    fn zero_trials() {
        assert!(run_trials(0, |_| 1.0).is_empty());
    }

    #[test]
    fn heavy_parallel_load_is_consistent() {
        // Each trial spins a little to actually exercise multiple workers.
        let xs = run_trials(64, |i| {
            let mut acc = 0u64;
            for k in 0..10_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            (acc % 1000) as f64
        });
        let again = run_trials(64, |i| {
            let mut acc = 0u64;
            for k in 0..10_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            (acc % 1000) as f64
        });
        assert_eq!(xs, again, "sweep must be deterministic");
    }

    #[test]
    fn sweep_point_aggregation() {
        let p = SweepPoint::from_errors(64.0, "Poisson", &[0.1, 0.2, 0.3]);
        assert_eq!(p.x, 64.0);
        assert_eq!(p.series, "Poisson");
        assert_eq!(p.summary.median(), 0.2);
    }
}
