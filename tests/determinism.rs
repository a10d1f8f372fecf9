//! Determinism and seed-sensitivity of the full pipeline: identical
//! configurations reproduce byte-identical reports; different seeds move
//! the samples but keep the calibrated shapes.

use idn_reexamination::core::HomographDetector;
use idn_reexamination::pdns::ActivityAnalytics;
use idnre_datagen::{generate_traced, Ecosystem, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, SpanCtx};

fn config(seed: u64) -> EcosystemConfig {
    EcosystemConfig {
        seed,
        scale: 800,
        attack_scale: 15,
        ..EcosystemConfig::default()
    }
}

#[test]
fn identical_configs_reproduce_identical_findings() {
    let eco_a = Ecosystem::generate(&config(42));
    let eco_b = Ecosystem::generate(&config(42));
    assert_eq!(eco_a.idn_registrations, eco_b.idn_registrations);
    assert_eq!(eco_a.homograph_attacks, eco_b.homograph_attacks);
    assert_eq!(eco_a.whois_facts, eco_b.whois_facts);

    let brands: Vec<String> = eco_a.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brands, 0.95);
    let scan =
        |eco: &Ecosystem| detector.scan(eco.idn_registrations.iter().map(|r| r.domain.as_str()), 4);
    assert_eq!(scan(&eco_a), scan(&eco_b));
}

#[test]
fn different_seeds_shift_samples_but_keep_shapes() {
    let build = |seed| generate_traced(&config(seed), None, &NoopRecorder, SpanCtx::NONE);
    let (eco_a, corpus_a, _) = build(1);
    let (eco_b, corpus_b, _) = build(2);
    assert_ne!(eco_a.idn_registrations, eco_b.idn_registrations);

    // The calibrated traffic gap (Finding 5) holds under both seeds.
    for (eco, corpus) in [(&eco_a, &corpus_a), (&eco_b, &corpus_b)] {
        let pdns = corpus.pdns_store();
        let mut idn = ActivityAnalytics::new();
        let mut non = ActivityAnalytics::new();
        for reg in &eco.idn_registrations {
            if reg.malicious.is_none() {
                if let Some(agg) = pdns.lookup(&reg.domain) {
                    idn.add(agg);
                }
            }
        }
        for reg in &eco.non_idn_registrations {
            if let Some(agg) = pdns.lookup(&reg.domain) {
                non.add(agg);
            }
        }
        assert!(idn.mean_active_days() < non.mean_active_days());
    }
}

#[test]
fn parallel_scan_is_deterministic_across_thread_counts() {
    let eco = Ecosystem::generate(&config(7));
    let brands: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brands, 0.95);
    let domains: Vec<&str> = eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect();
    let single = detector.scan(domains.iter().copied(), 1);
    let many = detector.scan(domains.iter().copied(), 8);
    assert_eq!(single, many);
}

#[test]
fn scale_parameter_scales_population_linearly() {
    let small = Ecosystem::generate(&EcosystemConfig {
        scale: 1600,
        attack_scale: 40,
        ..EcosystemConfig::default()
    });
    let large = Ecosystem::generate(&EcosystemConfig {
        scale: 400,
        attack_scale: 40,
        ..EcosystemConfig::default()
    });
    let ratio = large.idn_registrations.len() as f64 / small.idn_registrations.len() as f64;
    assert!(
        (2.5..6.0).contains(&ratio),
        "expected ≈4x growth, got {ratio}"
    );
}
