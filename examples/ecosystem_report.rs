//! Ecosystem measurement: the Section IV pipeline — zone scan, language
//! identification, registrar/registrant analytics, traffic ECDFs and
//! certificate health — over a generated ecosystem.
//!
//! ```text
//! cargo run --release --example ecosystem_report
//! ```

use idn_reexamination::langid::Classifier;
use idn_reexamination::pdns::ActivityAnalytics;
use idn_reexamination::stats::{percent, TopK};
use idn_reexamination::whois::analytics::RegistrationAnalytics;
use idn_reexamination::zonefile::ZoneScanner;
use idnre_datagen::{generate_traced, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, SpanCtx};

fn main() {
    let config = EcosystemConfig {
        scale: 300,
        attack_scale: 5,
        ..EcosystemConfig::default()
    };
    // The batch build keeps the registrations; its corpus plan
    // regenerates the WHOIS records and pDNS aggregates it folded.
    let (eco, corpus, _) = generate_traced(&config, None, &NoopRecorder, SpanCtx::NONE);

    // Zone scan (Table I).
    let report = ZoneScanner::new().scan_all(&eco.derive_zones().zones);
    println!(
        "zone scan: {} SLDs, {} IDNs",
        report.total_slds(),
        report.total_idns()
    );
    for zone in &report.zones {
        println!(
            "  {:<12} {:>6} SLDs, {:>6} IDNs ({})",
            zone.tld,
            zone.total_slds,
            zone.idns.len(),
            percent(zone.idns.len() as u64, zone.total_slds.max(1) as u64)
        );
    }

    // Language mix (Table II / Finding 1).
    let clf = Classifier::global();
    let mut languages = TopK::new();
    for idn in report.all_idns() {
        let unicode = idn.to_display();
        let sld = unicode.split('.').next().unwrap_or("");
        languages.add(clf.classify(sld).to_string());
    }
    println!("\nlanguage mix (top 5):");
    for (language, count) in languages.top(5) {
        println!("  {:<10} {}", language, percent(count, languages.total()));
    }

    // Registration analytics (Tables III/IV, Finding 2-4).
    let mut registrations = RegistrationAnalytics::new();
    registrations.extend(corpus.whois_records().iter());
    println!(
        "\nregistrars: {} distinct; top-10 hold {}",
        registrations.distinct_registrars(),
        percent(
            (registrations.top_registrar_share(10) * registrations.total() as f64) as u64,
            registrations.total()
        )
    );
    println!("top registrants:");
    for (email, count) in registrations.top_registrants(3) {
        println!("  {email:<28} {count} IDNs");
    }

    // Traffic (Figures 2/3, Findings 5/6).
    let pdns = corpus.pdns_store();
    let mut idn_traffic = ActivityAnalytics::new();
    let mut non_traffic = ActivityAnalytics::new();
    for reg in &eco.idn_registrations {
        if let Some(agg) = pdns.lookup(&reg.domain) {
            idn_traffic.add(agg);
        }
    }
    for reg in &eco.non_idn_registrations {
        if let Some(agg) = pdns.lookup(&reg.domain) {
            non_traffic.add(agg);
        }
    }
    println!(
        "\nactive <100 days: IDN {:.0}% vs non-IDN {:.0}% (paper: 60% vs 40%)",
        idn_traffic.active_time_ecdf().fraction_at_or_below(100.0) * 100.0,
        non_traffic.active_time_ecdf().fraction_at_or_below(100.0) * 100.0
    );
    println!(
        "queried <100 times: IDN {:.0}% vs non-IDN {:.0}% (paper: 88% vs 74%)",
        idn_traffic.query_volume_ecdf().fraction_at_or_below(100.0) * 100.0,
        non_traffic.query_volume_ecdf().fraction_at_or_below(100.0) * 100.0
    );

    // Certificate health (Table VI, Finding 9), as the generator folded
    // it: the last bucket holds the certificates with no problem.
    let idn_certs = eco.certificate_tally.idn;
    let total: u64 = idn_certs.iter().sum();
    println!(
        "\nHTTPS-enabled IDNs: {total}; certificates with problems: {} (paper: 97.95%)",
        percent(total - idn_certs[3], total)
    );
}
