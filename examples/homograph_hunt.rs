//! Homograph hunt: generate a synthetic IDN ecosystem, scan the registered
//! corpus for brand lookalikes, and report the attack surface — the
//! Section VI workflow end to end.
//!
//! ```text
//! cargo run --release --example homograph_hunt
//! ```

use idn_reexamination::core::{AbuseAnalysis, AvailabilityEnumerator, HomographDetector};
use idn_reexamination::datagen::{generate_traced, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, SpanCtx};
use std::collections::HashMap;

fn main() {
    let config = EcosystemConfig {
        scale: 200,
        attack_scale: 2,
        ..EcosystemConfig::default()
    };
    println!("generating ecosystem (scale 1:{})...", config.scale);
    let (eco, corpus, _) = generate_traced(&config, None, &NoopRecorder, SpanCtx::NONE);
    println!(
        "  {} registered IDNs ({} injected homograph lookalikes)",
        eco.idn_registrations.len(),
        eco.homograph_attacks.len()
    );

    // Scan every registered IDN against the Alexa-style brand list.
    let brands: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brands, 0.95);
    let domains: Vec<&str> = eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect();
    let findings = detector.scan(domains.iter().copied(), 8);
    println!(
        "  {} homographic IDNs detected at SSIM ≥ 0.95",
        findings.len()
    );

    for finding in findings.iter().take(8) {
        println!(
            "    {} → {} (SSIM {:.3})",
            finding.unicode, finding.brand, finding.ssim
        );
    }

    // Who is being targeted, and did the brands protect themselves? Each
    // finding joins its domain's WHOIS record, regenerated from the plan.
    let whois: HashMap<String, _> = corpus
        .whois_records()
        .into_iter()
        .map(|record| (record.domain.clone(), record))
        .collect();
    let joined = findings.iter().map(|f| (f, whois.get(&f.domain)));
    let analysis = AbuseAnalysis::from_homographs(joined, &eco.blacklist);
    println!("\ntop targeted brands:");
    for row in analysis.top_brands(5) {
        println!(
            "    {:<16} {:>4} lookalikes ({} protective)",
            row.brand, row.idns, row.protective
        );
    }
    println!(
        "blacklisted: {} of {}; protectively registered: {}",
        analysis.blacklisted(),
        analysis.total(),
        analysis.protective()
    );

    // The remaining attack surface: unregistered candidates (Section VI-D).
    let enumerator = AvailabilityEnumerator::new();
    println!("\nunregistered attack surface (one-character substitutions):");
    for brand in ["google.com", "facebook.com", "apple.com"] {
        let candidates = enumerator.homographic(brand);
        let registered: usize = candidates
            .iter()
            .filter(|c| eco.registration(&c.ace).is_some())
            .count();
        println!(
            "    {:<14} {:>3} homographic candidates, {} already registered",
            brand,
            candidates.len(),
            registered
        );
    }
}
