//! Criterion benchmarks: estimator throughput on pre-simulated traces.
//!
//! These quantify the operational cost of each analytical model — BotMeter
//! is pitched as a low-cost vantage-point tool, so estimation latency per
//! (server, epoch) cell matters.

use botmeter_bench::cell::simulated_cell as trace;
use botmeter_core::{
    BernoulliEstimator, CoverageEstimator, Estimator, PoissonEstimator, TimingEstimator,
};
use botmeter_dga::DgaFamily;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("timing_estimator");
    group.sample_size(10);
    for &n in &[16u64, 64] {
        let (lookups, ctx) = trace(DgaFamily::new_goz(), n);
        group.bench_with_input(BenchmarkId::new("newGoZ", n), &n, |b, _| {
            b.iter(|| TimingEstimator.estimate(std::hint::black_box(&lookups), &ctx))
        });
    }
    // The cell `chart_heavy` charts: a few hundred entries opened, a
    // handful live at once — where a scan over every entry is quadratic.
    let (lookups, ctx) = trace(DgaFamily::conficker_c(), 250);
    group.bench_with_input(BenchmarkId::new("conficker_c", 250), &250, |b, _| {
        b.iter(|| TimingEstimator.estimate(std::hint::black_box(&lookups), &ctx))
    });
    group.finish();
}

fn bench_poisson(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_estimator");
    group.sample_size(20);
    for &n in &[16u64, 64, 256] {
        let (lookups, ctx) = trace(DgaFamily::murofet(), n);
        group.bench_with_input(BenchmarkId::new("murofet", n), &n, |b, _| {
            b.iter(|| PoissonEstimator::new().estimate(std::hint::black_box(&lookups), &ctx))
        });
    }
    group.finish();
}

fn bench_bernoulli(c: &mut Criterion) {
    let mut group = c.benchmark_group("bernoulli_estimator");
    group.sample_size(10);
    for &n in &[16u64, 64] {
        let (lookups, ctx) = trace(DgaFamily::new_goz(), n);
        group.bench_with_input(BenchmarkId::new("newGoZ", n), &n, |b, _| {
            b.iter(|| BernoulliEstimator::default().estimate(std::hint::black_box(&lookups), &ctx))
        });
    }
    group.finish();
}

fn bench_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_estimator");
    group.sample_size(20);
    for &n in &[16u64, 256] {
        let (lookups, ctx) = trace(DgaFamily::new_goz(), n);
        group.bench_with_input(BenchmarkId::new("newGoZ", n), &n, |b, _| {
            b.iter(|| CoverageEstimator.estimate(std::hint::black_box(&lookups), &ctx))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_timing,
    bench_poisson,
    bench_bernoulli,
    bench_coverage
);
criterion_main!(benches);
