//! The artifact-fold oracle the equivalence tests share, against the
//! stores a run once kept.
//!
//! The generator folds the WHOIS facts, Figures 2–4's pDNS populations and
//! Tables VI–VII's certificate tallies as it emits the artifacts, and
//! keeps none of them. The oracles rebuild the stores from the corpus
//! walk ([`KeyedCorpus::whois_records`], [`KeyedCorpus::pdns_store`],
//! [`KeyedCorpus::certificates`]) and recompute each aggregate as the run
//! once did after the build: the WHOIS facts in two walks of the records,
//! each record's aggregate looked up in the store, each certificate
//! classified by a [`Validator`].

use idnre_blacklist::BlacklistSet;
use idnre_certs::{CertProblem, SharingAnalysis, Validator};
use idnre_datagen::{
    Ecosystem, KeyedCorpus, Registrant, WhoisFacts, OPPORTUNISTIC_PORTFOLIO, TOP_REGISTRANTS,
    TOP_REGISTRARS,
};
use idnre_pdns::ActivityAnalytics;
use idnre_whois::WhoisRecord;
use std::collections::HashMap;

/// Asserts that `eco`'s artifact folds equal the oracle over `corpus`.
/// The populations compare as multisets: sorted samples, segment counts
/// and IP totals, which is all the reports read of them.
pub fn assert_artifact_folds(eco: &Ecosystem, corpus: &KeyedCorpus, what: &str) {
    assert_eq!(
        eco.whois_facts,
        two_walk_whois_facts(&corpus.whois_records(), &eco.blacklist),
        "{what}: WHOIS facts"
    );

    let pdns = corpus.pdns_store();
    // Benign IDNs, blacklisted IDNs, non-IDNs.
    let mut looked_up: [ActivityAnalytics; 3] = Default::default();
    for idn in [true, false] {
        corpus.for_each_shard(idn, &mut |records, _| {
            for reg in records {
                if let Some(aggregate) = pdns.lookup(&reg.domain) {
                    let population = match (idn, reg.malicious.is_some()) {
                        (true, false) => 0,
                        (true, true) => 1,
                        (false, _) => 2,
                    };
                    looked_up[population].add(aggregate);
                }
            }
        });
    }
    let activity = &eco.activity;
    let folded = [&activity.benign, &activity.malicious, &activity.non_idn];
    for ((name, fold), oracle) in ["benign", "malicious", "non-IDN"]
        .into_iter()
        .zip(folded)
        .zip(&looked_up)
    {
        assert_eq!(
            fold.active_time_ecdf(),
            oracle.active_time_ecdf(),
            "{what}: {name} active days"
        );
        assert_eq!(
            fold.query_volume_ecdf(),
            oracle.query_volume_ecdf(),
            "{what}: {name} query volumes"
        );
        assert_eq!(
            fold.segment_report(),
            oracle.segment_report(),
            "{what}: {name} /24 segments"
        );
        assert_eq!(fold.total_ips(), oracle.total_ips(), "{what}: {name} IPs");
    }

    let validator = Validator::with_default_roots(eco.config.snapshot.day_number());
    let (mut idn, mut non_idn) = ([0u64; 4], [0u64; 4]);
    let mut sharing = SharingAnalysis::new();
    for (domain, cert) in corpus.certificates() {
        let bucket = match validator.classify(&cert, &domain) {
            Some(CertProblem::Expired) => 0,
            Some(CertProblem::InvalidAuthority) => 1,
            Some(CertProblem::InvalidCommonName) => 2,
            None => 3,
        };
        if idnre_idna::is_idn(&domain) {
            idn[bucket] += 1;
            sharing.observe(&domain, &cert);
        } else {
            non_idn[bucket] += 1;
        }
    }
    let tally = &eco.certificate_tally;
    assert_eq!(tally.idn, idn, "{what}: IDN certificate buckets");
    assert_eq!(
        tally.non_idn, non_idn,
        "{what}: non-IDN certificate buckets"
    );
    assert_eq!(tally.sharing, sharing, "{what}: shared certificates");
}

/// The WHOIS facts as the run once folded them from its stored records:
/// one walk to tally, a second to collect the top registrants'
/// portfolios.
pub fn two_walk_whois_facts(records: &[WhoisRecord], blacklist: &BlacklistSet) -> WhoisFacts {
    let mut by_tld: HashMap<String, u64> = HashMap::new();
    let mut facts = WhoisFacts::default();
    let mut registrants: HashMap<&str, u64> = HashMap::new();
    let mut registrars: HashMap<&str, u64> = HashMap::new();
    for record in records {
        facts.records += 1;
        let tld = record.domain.rsplit('.').next().unwrap_or_default();
        *by_tld.entry(tld.to_string()).or_default() += 1;
        if let Some(date) = record.creation_date {
            facts.created.record(date.year);
            if blacklist.is_malicious(&record.domain) {
                facts.created_malicious.record(date.year);
            }
        }
        if let Some(email) = &record.registrant_email {
            *registrants.entry(email).or_default() += 1;
        }
        if let Some(registrar) = &record.registrar {
            *registrars.entry(registrar).or_default() += 1;
        }
    }
    facts.by_tld = by_tld;
    facts.top_registrants = top(&registrants, TOP_REGISTRANTS)
        .into_iter()
        .map(|(email, _)| Registrant {
            domains: Vec::new(),
            email,
        })
        .collect();
    for record in records {
        let Some(email) = &record.registrant_email else {
            continue;
        };
        if let Some(top) = facts.top_registrants.iter_mut().find(|r| r.email == *email) {
            top.domains.push(record.domain.clone());
        }
    }
    facts.opportunistic_mass = registrants
        .values()
        .filter(|&&count| count >= OPPORTUNISTIC_PORTFOLIO)
        .sum();
    facts.top_registrars = top(&registrars, TOP_REGISTRARS);
    facts.distinct_registrars = registrars.len();
    facts
}

/// The `k` largest counts, descending, ties by key ascending.
fn top(counts: &HashMap<&str, u64>, k: usize) -> Vec<(String, u64)> {
    let mut ranked: Vec<(&str, u64)> = counts.iter().map(|(&key, &n)| (key, n)).collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ranked
        .into_iter()
        .take(k)
        .map(|(key, n)| (key.to_string(), n))
        .collect()
}
