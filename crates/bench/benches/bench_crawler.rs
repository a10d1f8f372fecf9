//! Crawl-pipeline benchmarks: resolution and usage classification (the
//! Section IV-D front-end, Table V).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use idnre_crawler::{AuthBehavior, Crawler, Page, PageKind};
use idnre_datagen::{Ecosystem, EcosystemConfig};

fn build_crawler() -> (Crawler, Vec<String>) {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 500,
        attack_scale: 10,
        ..EcosystemConfig::default()
    });
    let mut crawler = Crawler::new();
    for zone in &eco.derive_zones().zones {
        crawler.add_zone(zone);
    }
    let ip = "203.0.113.1".parse().unwrap();
    for (i, reg) in eco.idn_registrations.iter().enumerate() {
        let (behavior, page) = match i % 4 {
            0 => (AuthBehavior::Refuse, None),
            1 => (
                AuthBehavior::Answer(ip),
                Some(Page::new(200, "Parked", PageKind::Parking)),
            ),
            2 => (
                AuthBehavior::Answer(ip),
                Some(Page::new(200, "Site", PageKind::Content)),
            ),
            _ => (AuthBehavior::Answer(ip), None),
        };
        crawler.set_host(&reg.domain, behavior, page);
    }
    let domains = eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.clone())
        .collect();
    (crawler, domains)
}

fn bench_resolution(c: &mut Criterion) {
    let (crawler, domains) = build_crawler();
    let mut group = c.benchmark_group("crawler_resolve");
    group.bench_function("hit", |b| {
        b.iter(|| black_box(crawler.resolve(black_box(&domains[0]))))
    });
    group.bench_function("nxdomain", |b| {
        b.iter(|| black_box(crawler.resolve(black_box("absent.com"))))
    });
    group.finish();
}

fn bench_crawl_corpus(c: &mut Criterion) {
    let (crawler, domains) = build_crawler();
    let mut group = c.benchmark_group("crawler_classify");
    group.sample_size(20);
    group.throughput(Throughput::Elements(domains.len() as u64));
    group.bench_function("table5_corpus", |b| {
        b.iter(|| {
            domains
                .iter()
                .map(|d| crawler.crawl(d))
                .filter(|c| *c == idnre_crawler::UsageCategory::NotResolved)
                .count()
        })
    });
    group.finish();
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
    targets = bench_resolution, bench_crawl_corpus
}
criterion_main!(benches);
