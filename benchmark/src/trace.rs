//! Harness-side spans and the small statistics the reports need.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer's public functions; they stay in memory and are written out once,
//! when the run ends. With tracing off a span costs one branch.

use botmeter_obs::{MetricsRegistry, MetricsSnapshot, Obs};
use serde::Serialize;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub workload: String,
    pub rep: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
struct Recording {
    workload: String,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    registry: Arc<MetricsRegistry>,
}

/// Span recorder plus the `Obs` handle jobs attach to the program: the
/// no-op handle when off, a collecting registry when on.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    obs: Obs,
    rec: Option<RefCell<Recording>>,
}

impl Tracer {
    /// Tracing off: spans are not recorded and the program runs on its
    /// no-op observability path. End-to-end numbers come from this.
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            obs: Obs::noop(),
            rec: None,
        }
    }

    /// Tracing on for `workload`.
    pub fn on(workload: &str) -> Self {
        let (obs, registry) = Obs::collecting();
        Tracer {
            origin: Instant::now(),
            obs,
            rec: Some(RefCell::new(Recording {
                workload: workload.to_owned(),
                rep: 0,
                spans: Vec::new(),
                open: Vec::new(),
                registry,
            })),
        }
    }

    /// The observability handle jobs hand to the program.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Starts repetition `rep`: later spans carry it, and the program's
    /// counters restart so one snapshot describes one repetition.
    pub fn start_rep(&self, rep: usize) {
        if let Some(rec) = &self.rec {
            let mut rec = rec.borrow_mut();
            rec.rep = rep;
            rec.registry.reset();
        }
    }

    /// What the program's own counters collected since `start_rep`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.rec {
            Some(rec) => rec.borrow().registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.span_named(|_| name.to_owned(), f)
    }

    /// Runs `f` inside a span whose name depends on what `f` returned (an
    /// ingest call that published is named apart from one that did not).
    pub fn span_named<T>(&self, name: impl FnOnce(&T) -> String, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.rec else {
            return f();
        };
        let index = {
            let mut rec = rec.borrow_mut();
            let index = rec.spans.len();
            let span = Span {
                workload: rec.workload.clone(),
                rep: rec.rep,
                name: String::new(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: rec.open.last().copied(),
            };
            rec.spans.push(span);
            rec.open.push(index);
            index
        };
        let value = f();
        let mut rec = rec.borrow_mut();
        rec.open.pop();
        rec.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        rec.spans[index].name = name(&value);
        value
    }

    /// Seconds spent in each span called `name` during repetition `rep`.
    pub fn durations(&self, name: &str, rep: usize) -> Vec<f64> {
        match &self.rec {
            Some(rec) => rec
                .borrow()
                .spans
                .iter()
                .filter(|s| s.rep == rep && s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Total seconds in spans called `name` during repetition `rep`.
    pub fn total(&self, name: &str, rep: usize) -> f64 {
        self.durations(name, rep).iter().sum()
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.rec {
            Some(rec) => rec.borrow().spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Self time per span name: a span's duration minus the part its direct
/// children cover, summed over spans of the same name, in seconds.
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: Vec<(String, f64)> = Vec::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(*children) as f64 * 1e-9;
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name.clone(), own)),
        }
    }
    totals
}

/// The `q`-quantile (nearest rank on the sorted sample), `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median with the interpolation Python's `statistics.median` uses.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `a / b`, `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name: &str, start_ns, end_ns, parent| Span {
            workload: "w".into(),
            rep: 0,
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 70, Some(0)),
        ];
        let own = self_times(&spans);
        let get = |n: &str| own.iter().find(|(name, _)| name == n).unwrap().1;
        assert!((get("job") - 50e-9).abs() < 1e-15);
        assert!((get("a") - 40e-9).abs() < 1e-15);
        assert!((get("b") - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let off = Tracer::off();
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.spans().is_empty());

        let on = Tracer::on("w");
        on.start_rep(3);
        on.span("outer", || {
            on.span_named(|v: &u32| format!("inner{v}"), || 1)
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "inner1");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].rep, 3);
        assert_eq!(on.durations("outer", 3).len(), 1);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
