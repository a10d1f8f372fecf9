//! Zone-file parse + scan benchmarks — the Table I pipeline (Section III
//! scanned 154M records; this measures the per-record cost).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use idnre_datagen::{Ecosystem, EcosystemConfig};
use idnre_zonefile::{parse_zone, write_zone, ZoneScanner};

fn generated_zone_text() -> String {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 500,
        attack_scale: 10,
        ..EcosystemConfig::default()
    });
    let zones = eco.derive_zones().zones;
    let com = zones
        .iter()
        .find(|z| z.origin.to_string() == "com")
        .expect("com zone derived");
    write_zone(com)
}

fn bench_parse(c: &mut Criterion) {
    let text = generated_zone_text();
    let records = text.lines().count() as u64;
    let mut group = c.benchmark_group("zone_parse");
    group.throughput(Throughput::Elements(records));
    group.bench_function("parse_com_zone", |b| {
        b.iter(|| parse_zone(black_box("com"), black_box(&text)).unwrap())
    });
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let text = generated_zone_text();
    let zone = parse_zone("com", &text).unwrap();
    let scanner = ZoneScanner::new();
    let mut group = c.benchmark_group("zone_scan");
    group.throughput(Throughput::Elements(zone.len() as u64));
    group.bench_function("scan_com_zone", |b| {
        b.iter(|| {
            let stats = scanner.scan(black_box(&zone));
            black_box(stats.idns.len())
        })
    });
    group.finish();
}

/// Lenient (skip-and-count) parse throughput, on the clean corpus and on
/// one with a corrupted line every 50 — the degraded-ingest path `--faults`
/// exercises.
fn bench_parse_lenient(c: &mut Criterion) {
    let text = generated_zone_text();
    let records = text.lines().count() as u64;
    let corrupted: String = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            if i % 50 == 0 {
                format!("{line} \u{fffd}garbage\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    let mut group = c.benchmark_group("zone_parse_lenient");
    group.throughput(Throughput::Elements(records));
    group.bench_function("clean", |b| {
        b.iter(|| {
            let lenient = idnre_zonefile::parse_zone_lenient(black_box("com"), black_box(&text));
            black_box(lenient.attempted)
        })
    });
    group.bench_function("corrupted_2pct", |b| {
        b.iter(|| {
            let lenient =
                idnre_zonefile::parse_zone_lenient(black_box("com"), black_box(&corrupted));
            black_box(lenient.attempted)
        })
    });
    group.finish();
}

fn bench_roundtrip(c: &mut Criterion) {
    let text = generated_zone_text();
    let zone = parse_zone("com", &text).unwrap();
    c.bench_function("zone_write", |b| b.iter(|| write_zone(black_box(&zone))));
}

/// Fast Criterion profile: the full suite spans ~80 benchmarks, so each one
/// uses short warmup/measurement windows to keep a whole-workspace
/// `cargo bench` run in the minutes range.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_parse, bench_scan, bench_parse_lenient, bench_roundtrip
}
criterion_main!(benches);
