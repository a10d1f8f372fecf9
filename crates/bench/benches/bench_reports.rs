//! Report-generator benchmarks — `report.table1` was the slowest fragment
//! in the pipeline bench (≈42µs per registration before the TLD aggregate
//! pre-pass), so it gets its own per-record throughput measurement here.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use idnre_bench::{reports, ReproContext, RunSpec};
use idnre_datagen::EcosystemConfig;

fn context() -> ReproContext {
    let config = EcosystemConfig {
        scale: 500,
        attack_scale: 10,
        ..EcosystemConfig::default()
    };
    ReproContext::build(
        &config,
        &RunSpec::default(),
        std::sync::Arc::new(idnre_telemetry::NoopRecorder),
    )
}

fn bench_table1(c: &mut Criterion) {
    let ctx = context();
    let records = ctx.eco.idn_registrations.len() as u64;
    let mut group = c.benchmark_group("report_table1");
    group.throughput(Throughput::Elements(records));
    group.bench_function("table1", |b| b.iter(|| reports::table1(black_box(&ctx))));
    group.finish();
}

fn bench_full_report(c: &mut Criterion) {
    let ctx = context();
    c.bench_function("full_report", |b| {
        b.iter(|| {
            let report = ctx.full_report();
            black_box(report.len())
        })
    });
}

/// Fast Criterion profile: matches the rest of the suite so a
/// whole-workspace `cargo bench` stays in the minutes range.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_table1, bench_full_report
}
criterion_main!(benches);
