//! Wires the crawl simulation to the generated ecosystem and verifies the
//! Table V classification recovers the generator's ground truth — the
//! paper's Section IV-D methodology as an executable loop.

use idn_reexamination::crawler::{AuthBehavior, Crawler, Page, PageKind, UsageCategory};
use idn_reexamination::datagen::{DomainRegistration, Ecosystem, EcosystemConfig};

/// Builds the crawler world implied by a registration's ground truth.
fn host_setup(reg: &DomainRegistration) -> (AuthBehavior, Option<Page>) {
    let ip = "203.0.113.10".parse().unwrap();
    match reg.content {
        // The zone has NS records, so failures come from the name servers
        // themselves — REFUSED or a lame delegation (paper, Finding 8).
        UsageCategory::NotResolved => {
            if reg.domain.len().is_multiple_of(2) {
                (AuthBehavior::Refuse, None)
            } else {
                (AuthBehavior::Timeout, None)
            }
        }
        UsageCategory::Error => (AuthBehavior::Answer(ip), None),
        UsageCategory::Empty => (
            AuthBehavior::Answer(ip),
            Some(Page::new(200, "", PageKind::Empty)),
        ),
        UsageCategory::Parked => (
            AuthBehavior::Answer(ip),
            Some(Page::new(200, "Domain parked", PageKind::Parking)),
        ),
        UsageCategory::ForSale => (
            AuthBehavior::Answer(ip),
            Some(Page::new(200, "This domain is for sale", PageKind::ForSale)),
        ),
        UsageCategory::Redirected => (
            AuthBehavior::Answer(ip),
            Some(Page::new(
                301,
                "Moved",
                PageKind::Redirect("https://elsewhere.example/".into()),
            )),
        ),
        // `UsageCategory` is non_exhaustive; treat anything future as a
        // plain website.
        _ => (
            AuthBehavior::Answer(ip),
            Some(Page::new(200, "Welcome", PageKind::Content)),
        ),
    }
}

#[test]
fn crawl_classification_recovers_ground_truth() {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 1000,
        attack_scale: 25,
        ..EcosystemConfig::default()
    });
    let mut crawler = Crawler::new();
    for zone in &eco.derive_zones().zones {
        crawler.add_zone(zone);
    }
    for reg in &eco.idn_registrations {
        let (behavior, page) = host_setup(reg);
        crawler.set_host(&reg.domain, behavior, page);
    }
    for reg in &eco.idn_registrations {
        assert_eq!(crawler.crawl(&reg.domain), reg.content, "{}", reg.domain);
    }
}

#[test]
fn unregistered_homograph_candidates_do_not_resolve() {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 1000,
        attack_scale: 25,
        ..EcosystemConfig::default()
    });
    let mut crawler = Crawler::new();
    for zone in &eco.derive_zones().zones {
        crawler.add_zone(zone);
    }
    // A name absent from every zone is NXDOMAIN — the fate of the paper's
    // 42,671 unregistered lookalikes.
    assert_eq!(
        crawler.crawl("xn--nonexistent-lookalike.com"),
        UsageCategory::NotResolved
    );
}

#[test]
fn table_v_shape_survives_the_crawl() {
    let eco = Ecosystem::generate(&EcosystemConfig {
        scale: 300,
        attack_scale: 10,
        ..EcosystemConfig::default()
    });
    let mut crawler = Crawler::new();
    for zone in &eco.derive_zones().zones {
        crawler.add_zone(zone);
    }
    for reg in &eco.idn_registrations {
        let (behavior, page) = host_setup(reg);
        crawler.set_host(&reg.domain, behavior, page);
    }
    let mut unresolved = 0usize;
    let mut meaningful = 0usize;
    let sample: Vec<_> = eco.idn_registrations.iter().take(500).collect();
    for reg in &sample {
        match crawler.crawl(&reg.domain) {
            UsageCategory::NotResolved => unresolved += 1,
            UsageCategory::Meaningful => meaningful += 1,
            _ => {}
        }
    }
    let unresolved_rate = unresolved as f64 / sample.len() as f64;
    let meaningful_rate = meaningful as f64 / sample.len() as f64;
    // Paper: 45.6% not resolved, 19.8% meaningful (±sampling noise).
    assert!(
        (0.35..0.56).contains(&unresolved_rate),
        "unresolved {unresolved_rate}"
    );
    assert!(
        (0.10..0.30).contains(&meaningful_rate),
        "meaningful {meaningful_rate}"
    );
}
