//! End-to-end integration: ecosystem generation → substrate analyses →
//! detectors, checking the paper's headline findings hold across crate
//! boundaries.

use idn_reexamination::certs::Validator;
use idn_reexamination::core::{AbuseAnalysis, HomographDetector, SemanticDetector};
use idn_reexamination::datagen::{
    generate_streamed, generate_traced, Ecosystem, EcosystemConfig, KeyedCorpus,
};
use idn_reexamination::langid::Classifier;
use idn_reexamination::pdns::ActivityAnalytics;
use idn_reexamination::whois::analytics::RegistrationAnalytics;
use idn_reexamination::zonefile::ZoneScanner;
use idnre_telemetry::{NoopRecorder, SpanCtx};
use std::collections::HashMap;

fn config() -> EcosystemConfig {
    EcosystemConfig {
        scale: 300,
        attack_scale: 4,
        ..EcosystemConfig::default()
    }
}

fn ecosystem() -> Ecosystem {
    Ecosystem::generate(&config())
}

/// A batch build of `config`, with the corpus plan that regenerates its
/// artifacts.
fn built(config: &EcosystemConfig) -> (Ecosystem, KeyedCorpus) {
    let (eco, corpus, _) = generate_traced(config, None, &NoopRecorder, SpanCtx::NONE);
    (eco, corpus)
}

#[test]
fn zone_scan_recovers_registered_idns() {
    let eco = ecosystem();
    let report = ZoneScanner::new().scan_all(&eco.derive_zones().zones);
    assert_eq!(report.total_idns(), eco.idn_registrations.len());
    // IDNs are a small minority of SLDs overall (Table I: ≈1%; the
    // generated zones only embed the sampled non-IDNs, so the ratio is
    // higher, but IDNs never dominate the gTLD zones).
    let com = report.zones.iter().find(|z| z.tld == "com").unwrap();
    assert!(com.idn_rate() < 0.9);
}

#[test]
fn finding_1_east_asian_languages_dominate() {
    let eco = ecosystem();
    let clf = Classifier::global();
    let (mut east_asian, mut total) = (0usize, 0usize);
    for reg in &eco.idn_registrations {
        if reg.language == idn_reexamination::langid::Language::Unknown {
            continue; // injected attacks carry no organic language
        }
        let sld = reg.unicode.split('.').next().unwrap();
        if clf.classify(sld).is_east_asian() {
            east_asian += 1;
        }
        total += 1;
    }
    let rate = east_asian as f64 / total as f64;
    assert!(rate > 0.70, "east-asian rate {rate} (paper: >0.75)");
}

#[test]
fn findings_5_and_6_traffic_gaps() {
    // The traffic models are heavy-tailed lognormals (σ ≈ 2.4 for the
    // malicious classes), so comparing *means* needs a malicious sample in
    // the high tens — generate denser than the shared fixture.
    let (eco, corpus) = built(&EcosystemConfig {
        scale: 100,
        attack_scale: 1,
        ..EcosystemConfig::default()
    });
    let pdns = corpus.pdns_store();
    let mut idn = ActivityAnalytics::new();
    let mut non = ActivityAnalytics::new();
    let mut malicious = ActivityAnalytics::new();
    for reg in &eco.idn_registrations {
        if let Some(agg) = pdns.lookup(&reg.domain) {
            if reg.malicious.is_some() {
                malicious.add(agg);
            } else {
                idn.add(agg);
            }
        }
    }
    for reg in &eco.non_idn_registrations {
        if let Some(agg) = pdns.lookup(&reg.domain) {
            non.add(agg);
        }
    }
    // IDNs are shorter-lived and less visited than non-IDNs…
    assert!(idn.mean_active_days() < non.mean_active_days());
    assert!(idn.mean_queries() < non.mean_queries());
    // …except malicious IDNs, which invert both gaps.
    assert!(malicious.mean_active_days() > idn.mean_active_days());
    assert!(malicious.mean_queries() > non.mean_queries());
}

#[test]
fn finding_7_hosting_concentration() {
    let (eco, corpus) = built(&config());
    let pdns = corpus.pdns_store();
    let mut analytics = ActivityAnalytics::new();
    for reg in &eco.idn_registrations {
        if let Some(agg) = pdns.lookup(&reg.domain) {
            analytics.add(agg);
        }
    }
    let report = analytics.segment_report();
    // A small number of segments hosts a large share of IDNs.
    let top_fraction = report.cumulative_fraction(report.segment_count() / 10);
    assert!(
        top_fraction > 0.5,
        "top 10% of segments host only {top_fraction}"
    );
}

#[test]
fn finding_9_certificates_are_broken() {
    // The generator folds the certificates it emits; the corpus walk
    // regenerates them.
    let (eco, corpus, _) = generate_streamed(&config(), 1024, &NoopRecorder);
    let validator = Validator::with_default_roots(eco.config.snapshot.day_number());
    let idn_certs: Vec<_> = corpus
        .certificates()
        .into_iter()
        .filter(|(d, _)| idn_reexamination::idna::is_idn(d))
        .collect();
    assert!(
        idn_certs.len() > 50,
        "too few HTTPS IDNs: {}",
        idn_certs.len()
    );
    let broken = idn_certs
        .iter()
        .filter(|(d, cert)| validator.classify(cert, d).is_some())
        .count();
    let rate = broken as f64 / idn_certs.len() as f64;
    assert!(rate > 0.85, "broken-cert rate {rate} (paper: 0.9795)");
}

#[test]
fn whois_pipeline_feeds_registrar_table() {
    let (_, corpus) = built(&config());
    let mut analytics = RegistrationAnalytics::new();
    analytics.extend(corpus.whois_records().iter());
    let top = analytics.top_registrars(10);
    assert!(!top.is_empty());
    // GMO leads the IDN registrar market (Table IV).
    assert_eq!(top[0].0, "GMO Internet Inc.");
    let share = analytics.top_registrar_share(10);
    assert!((0.4..0.8).contains(&share), "top-10 share {share}");
}

#[test]
fn detectors_recover_injected_attacks_with_high_precision() {
    let eco = ecosystem();
    let brands: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let corpus: Vec<&str> = eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect();

    let homograph = HomographDetector::new(&brands, 0.95);
    let findings = homograph.scan(corpus.iter().copied(), 4);
    let injected: std::collections::HashSet<&str> = eco
        .homograph_attacks
        .iter()
        .map(|a| a.domain.as_str())
        .collect();
    let true_positives = findings
        .iter()
        .filter(|f| injected.contains(f.domain.as_str()))
        .count();
    // Precision: essentially every finding is an injected lookalike (the
    // organic population contains no skeleton-colliding domains).
    assert!(
        true_positives * 100 >= findings.len() * 95,
        "precision {true_positives}/{}",
        findings.len()
    );
    // Recall over the pixel-identical subset is perfect by construction.
    let identical_recovered = eco
        .homograph_attacks
        .iter()
        .filter(|a| a.pixel_identical)
        .filter(|a| findings.iter().any(|f| f.domain == a.domain))
        .count();
    let identical_total = eco
        .homograph_attacks
        .iter()
        .filter(|a| a.pixel_identical)
        .count();
    assert_eq!(identical_recovered, identical_total);

    let semantic = SemanticDetector::new(&brands);
    let sem_findings = semantic.scan_type1(corpus.iter().copied());
    let sem_injected = eco.semantic_attacks.len();
    assert!(
        sem_findings.len() * 10 >= sem_injected * 9,
        "semantic recall {}/{sem_injected}",
        sem_findings.len()
    );
}

#[test]
fn type2_injections_are_fully_recovered() {
    let eco = ecosystem();
    let detector = SemanticDetector::new(Vec::<String>::new());
    let findings = detector.scan_type2(eco.idn_registrations.iter().map(|r| r.domain.as_str()));
    // Every injected Type-2 attack must be found (the datagen dictionary is
    // a subset of the detector dictionary; this test catches drift).
    for attack in &eco.semantic2_attacks {
        assert!(
            findings.iter().any(|f| f.domain == attack.domain),
            "{} not recovered",
            attack.domain
        );
    }
    assert!(!eco.semantic2_attacks.is_empty());
}

#[test]
fn abuse_analysis_matches_table_xiii_shape() {
    let (eco, corpus) = built(&config());
    let brands: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let domains: Vec<&str> = eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect();
    let findings = HomographDetector::new(&brands, 0.95).scan(domains.iter().copied(), 4);
    // Each finding joins the WHOIS record of its domain.
    let whois: HashMap<String, _> = corpus
        .whois_records()
        .into_iter()
        .map(|record| (record.domain.clone(), record))
        .collect();
    let joined = findings.iter().map(|f| (f, whois.get(&f.domain)));
    let analysis = AbuseAnalysis::from_homographs(joined, &eco.blacklist);
    // Google leads the homograph target table.
    let top = analysis.top_brands(3);
    assert_eq!(top[0].brand, "google.com");
    // Only a small fraction is protective (paper: 4.82%) or blacklisted
    // (paper: 6.6%).
    assert!(analysis.protective() * 5 < analysis.total());
    assert!(analysis.blacklisted() * 4 < analysis.total());
}
