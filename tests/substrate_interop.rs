//! Cross-crate substrate interoperability: zone files round-trip through
//! the parser and scanner, WHOIS text round-trips through the parser into
//! analytics, and IDNA forms stay consistent across every subsystem.

use idn_reexamination::idna::{to_ascii, to_unicode, DomainName};
use idn_reexamination::whois::{parse_whois, Date};
use idn_reexamination::zonefile::{parse_zone, write_zone, ZoneScanner};
use idnre_datagen::{Ecosystem, EcosystemConfig};

fn small() -> Ecosystem {
    Ecosystem::generate(&EcosystemConfig {
        scale: 1000,
        attack_scale: 20,
        ..EcosystemConfig::default()
    })
}

#[test]
fn generated_zones_round_trip_through_text() {
    let eco = small();
    for zone in &eco.derive_zones().zones {
        let text = write_zone(zone);
        let reparsed = parse_zone(&zone.origin.to_string(), &text).expect("round-trip parse");
        assert_eq!(zone.records, reparsed.records, "zone {}", zone.origin);
        // Scans agree before and after serialization.
        let scanner = ZoneScanner::new();
        assert_eq!(scanner.scan(zone), scanner.scan(&reparsed));
    }
}

#[test]
fn every_generated_idn_is_idna_consistent() {
    let eco = small();
    for reg in &eco.idn_registrations {
        // ACE → Unicode → ACE is the identity.
        let unicode = to_unicode(&reg.domain).expect("valid ace");
        assert_eq!(unicode, reg.unicode, "{}", reg.domain);
        let ace = to_ascii(&unicode).expect("valid unicode");
        assert_eq!(ace, reg.domain);
        // Registered-domain parsing agrees with the stored TLD.
        let parsed: DomainName = reg.domain.parse().expect("parses");
        assert_eq!(parsed.tld(), reg.tld);
        assert!(parsed.is_idn());
    }
}

#[test]
fn whois_text_round_trips_into_analytics() {
    let eco = small();
    // Render a few records to the wire format and parse them back.
    for record in eco.whois.iter().take(50) {
        let raw = format!(
            "Domain Name: {}\nRegistrar: {}\n{}Creation Date: {}\nName Server: {}\n",
            record.domain.to_uppercase(),
            record.registrar.as_deref().unwrap_or("Unknown"),
            record
                .registrant_email
                .as_deref()
                .map(|e| format!("Registrant Email: {e}\n"))
                .unwrap_or_default(),
            record.creation_date.expect("generator sets dates"),
            record.name_servers.first().expect("generator sets ns"),
        );
        let parsed = parse_whois(&raw).expect("round-trip whois parse");
        assert_eq!(parsed.domain, record.domain);
        assert_eq!(parsed.registrar, record.registrar);
        assert_eq!(parsed.creation_date, record.creation_date);
        assert_eq!(parsed.registrant_email, record.registrant_email);
    }
}

#[test]
fn pdns_windows_respect_the_snapshot() {
    let eco = small();
    let snapshot_day = eco.config.snapshot.day_number();
    for aggregate in eco.pdns.iter() {
        assert!(aggregate.first_seen >= 0);
        assert!(
            aggregate.last_seen <= snapshot_day,
            "{} seen after snapshot",
            aggregate.domain
        );
        assert!(aggregate.query_count > 0);
        assert_eq!(
            aggregate.active_days(),
            aggregate.last_seen - aggregate.first_seen + 1
        );
    }
}

#[test]
fn whois_dates_precede_snapshot_and_expiry() {
    let eco = small();
    for record in &eco.whois {
        let created = record.creation_date.expect("generator sets dates");
        assert!(created <= eco.config.snapshot, "{}", record.domain);
        let expiry = record.expiry_date.expect("generator sets expiry");
        assert!(created < expiry);
        assert_eq!(created.days_until(expiry), 365);
    }
}

#[test]
fn blacklist_attribution_is_consistent_with_table_i_skew() {
    let eco = small();
    use idn_reexamination::blacklist::Source;
    let vt = eco.blacklist.source_count(Source::VirusTotal);
    let qihoo = eco.blacklist.source_count(Source::Qihoo360);
    let baidu = eco.blacklist.source_count(Source::Baidu);
    // Table I: VirusTotal ≥ 360 ≥ Baidu, Baidu tiny.
    assert!(vt >= qihoo, "vt {vt} vs 360 {qihoo}");
    assert!(qihoo >= baidu, "360 {qihoo} vs baidu {baidu}");
    // Every blacklisted domain has at least one attributed source.
    for domain in eco.blacklist.union() {
        assert!(!eco.blacklist.verdict(domain).is_empty());
    }
}

#[test]
fn date_arithmetic_matches_across_crates() {
    // The pdns day numbers and whois dates must share an epoch.
    let date = Date::new(2017, 9, 21).unwrap();
    let day = date.day_number();
    assert_eq!(Date::from_day_number(day), date);
    // 2017-09-21 is 17,430 days after the epoch.
    assert_eq!(day, 17_430);
}
