//! The corpus-wide aggregates of the artifacts, folded where the artifact
//! traversal emits them: Tables I, III and IV's and Figure 1's WHOIS
//! facts, Figures 2–4's passive-DNS activity populations and Tables
//! VI–VII's certificate tallies.
//!
//! Each shard of the traversal folds its own records into a partial, and
//! the partials merge in shard order, so a fold is byte-identical across
//! shard sizes and thread counts.

use idnre_arena::FnvBuildHasher;
use idnre_blacklist::BlacklistSet;
use idnre_certs::{CertProblem, Certificate, SharingAnalysis, Validator};
use idnre_pdns::{ActivityAnalytics, DomainAggregate};
use idnre_stats::YearHistogram;
use idnre_whois::WhoisRecord;
use std::collections::HashMap;

/// Registrants Table III lists.
pub const TOP_REGISTRANTS: usize = 5;

/// Registrars Table IV lists.
pub const TOP_REGISTRARS: usize = 10;

/// Portfolio size from which a registrant's domains count as
/// opportunistic registrations (Table III, Finding 3).
pub const OPPORTUNISTIC_PORTFOLIO: u64 = 10;

/// One of Table III's top registrants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registrant {
    /// The registrant email.
    pub email: String,
    /// Every domain (A-label) registered under `email`, in corpus order.
    pub domains: Vec<String>,
}

/// The WHOIS aggregates the reports read: a few tallies and the top
/// registrants' portfolios, not the records. Table III decodes the
/// portfolios' A-labels where it prints them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WhoisFacts {
    /// WHOIS records folded.
    pub records: u64,
    /// Records per TLD, the last label of the domain (Table I).
    pub by_tld: HashMap<String, u64>,
    /// Creation years of every dated record (Figure 1).
    pub created: YearHistogram,
    /// Creation years of the dated records on a blacklist (Figure 1).
    pub created_malicious: YearHistogram,
    /// The [`TOP_REGISTRANTS`] emails by domain count, descending, ties
    /// by email ascending (Table III).
    pub top_registrants: Vec<Registrant>,
    /// Domains held by registrants with at least
    /// [`OPPORTUNISTIC_PORTFOLIO`] domains (Table III).
    pub opportunistic_mass: u64,
    /// The [`TOP_REGISTRARS`] registrars by domain count, descending, ties
    /// by name ascending (Table IV).
    pub top_registrars: Vec<(String, u64)>,
    /// Distinct registrars (Table IV).
    pub distinct_registrars: usize,
}

impl WhoisFacts {
    /// WHOIS records whose domain ends in `tld`.
    pub fn records_in(&self, tld: &str) -> u64 {
        self.by_tld.get(tld).copied().unwrap_or(0)
    }
}

/// The WHOIS records folded so far, as counts. Each registrant keeps the
/// IDN indices of its records instead of their domains, so
/// [`WhoisTally::finish`] regenerates only the top portfolios' domains.
#[derive(Debug, Default)]
pub(crate) struct WhoisTally {
    records: u64,
    by_tld: HashMap<String, u64, FnvBuildHasher>,
    created: YearHistogram,
    created_malicious: YearHistogram,
    registrants: HashMap<String, Vec<u64>, FnvBuildHasher>,
    registrars: HashMap<String, u64, FnvBuildHasher>,
}

impl WhoisTally {
    /// Folds in `record`, the WHOIS record of IDN record `index`. A
    /// record on `blacklist` counts toward the malicious creation years.
    pub(crate) fn add(&mut self, index: u64, record: WhoisRecord, blacklist: &BlacklistSet) {
        self.records += 1;
        let tld = record.domain.rsplit('.').next().unwrap_or_default();
        match self.by_tld.get_mut(tld) {
            Some(count) => *count += 1,
            None => {
                self.by_tld.insert(tld.to_string(), 1);
            }
        }
        if let Some(date) = record.creation_date {
            self.created.record(date.year);
            if blacklist.is_malicious(&record.domain) {
                self.created_malicious.record(date.year);
            }
        }
        if let Some(email) = record.registrant_email {
            self.registrants.entry(email).or_default().push(index);
        }
        if let Some(registrar) = record.registrar {
            *self.registrars.entry(registrar).or_default() += 1;
        }
    }

    /// Absorbs `later`, whose records all follow this tally's.
    pub(crate) fn merge(&mut self, later: WhoisTally) {
        self.records += later.records;
        self.created.merge(&later.created);
        self.created_malicious.merge(&later.created_malicious);
        for (map, other) in [
            (&mut self.by_tld, later.by_tld),
            (&mut self.registrars, later.registrars),
        ] {
            for (key, count) in other {
                *map.entry(key).or_default() += count;
            }
        }
        for (email, mut indices) in later.registrants {
            self.registrants
                .entry(email)
                .or_default()
                .append(&mut indices);
        }
    }

    /// Ranks the tallies. `domain_of` gives the domain of an IDN record
    /// by index; it is called for the top registrants' records only.
    pub(crate) fn finish(self, domain_of: impl Fn(u64) -> String) -> WhoisFacts {
        let portfolios = self
            .registrants
            .iter()
            .map(|(email, indices)| (email.as_str(), indices.len() as u64));
        let top_registrants = top(portfolios, TOP_REGISTRANTS)
            .into_iter()
            .map(|(email, _)| Registrant {
                domains: self.registrants[&email]
                    .iter()
                    .map(|&i| domain_of(i))
                    .collect(),
                email,
            })
            .collect();
        WhoisFacts {
            records: self.records,
            by_tld: self.by_tld.into_iter().collect(),
            created: self.created,
            created_malicious: self.created_malicious,
            top_registrants,
            opportunistic_mass: self
                .registrants
                .values()
                .map(|indices| indices.len() as u64)
                .filter(|&count| count >= OPPORTUNISTIC_PORTFOLIO)
                .sum(),
            top_registrars: top(
                self.registrars.iter().map(|(key, &n)| (key.as_str(), n)),
                TOP_REGISTRARS,
            ),
            distinct_registrars: self.registrars.len(),
        }
    }
}

/// The `k` largest counts, descending, ties by key ascending.
fn top<'a>(counts: impl Iterator<Item = (&'a str, u64)>, k: usize) -> Vec<(String, u64)> {
    let mut ranked: Vec<(&str, u64)> = counts.collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ranked
        .into_iter()
        .take(k)
        .map(|(key, n)| (key.to_string(), n))
        .collect()
}

/// The three passive-DNS activity populations Figures 2–4 compare. Each
/// record contributes the aggregate the pDNS store answers for its domain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopulationActivity {
    /// Benign (non-blacklisted) IDN registrations.
    pub benign: ActivityAnalytics,
    /// Blacklisted IDN registrations.
    pub malicious: ActivityAnalytics,
    /// The non-IDN comparison population.
    pub non_idn: ActivityAnalytics,
}

impl PopulationActivity {
    /// Folds in the aggregate of one record: of the IDN population when
    /// `idn`, where `malicious` picks the blacklisted split; of the
    /// non-IDN one otherwise.
    pub fn add(&mut self, idn: bool, malicious: bool, aggregate: &DomainAggregate) {
        let population = match (idn, malicious) {
            (false, _) => &mut self.non_idn,
            (true, true) => &mut self.malicious,
            (true, false) => &mut self.benign,
        };
        population.add(aggregate);
    }

    /// Absorbs `later`, as if its records had been added after this one's.
    pub fn merge(&mut self, later: PopulationActivity) {
        self.benign.merge(later.benign);
        self.malicious.merge(later.malicious);
        self.non_idn.merge(later.non_idn);
    }
}

/// Table VI's problem buckets per population and Table VII's sharing
/// analysis of the IDN certificates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CertificateTally {
    /// IDN certificates per bucket, in [`CertificateTally::BUCKETS`] order.
    pub idn: [u64; 4],
    /// Non-IDN certificates per bucket.
    pub non_idn: [u64; 4],
    /// The IDN certificates whose subject does not name their domain,
    /// per common name.
    pub sharing: SharingAnalysis,
}

impl CertificateTally {
    /// Table VI's buckets: a certificate's first problem in the paper's
    /// precedence ([`Validator::classify`]), or `None` when it has none.
    pub const BUCKETS: [Option<CertProblem>; 4] = [
        Some(CertProblem::Expired),
        Some(CertProblem::InvalidAuthority),
        Some(CertProblem::InvalidCommonName),
        None,
    ];

    /// Tallies the certificate `domain` serves, a domain of the IDN
    /// population when `idn`.
    pub fn observe(&mut self, validator: &Validator, idn: bool, domain: &str, cert: &Certificate) {
        let problem = validator.classify(cert, domain);
        let bucket = Self::BUCKETS
            .iter()
            .position(|&b| b == problem)
            .expect("every classification has a bucket");
        if idn {
            self.idn[bucket] += 1;
            self.sharing.observe(domain, cert);
        } else {
            self.non_idn[bucket] += 1;
        }
    }

    /// Absorbs `later`'s tallies.
    pub fn merge(&mut self, later: CertificateTally) {
        for (a, b) in self.idn.iter_mut().zip(later.idn) {
            *a += b;
        }
        for (a, b) in self.non_idn.iter_mut().zip(later.non_idn) {
            *a += b;
        }
        self.sharing.merge(later.sharing);
    }

    /// Certificates tallied, both populations.
    pub fn total(&self) -> u64 {
        self.idn.iter().chain(&self.non_idn).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_whois::analytics::RegistrationAnalytics;
    use idnre_whois::{Date, WhoisDialect};

    /// The facts one sequential [`RegistrationAnalytics`] (plus the
    /// per-record Table I and Figure 1 loops) gives for `records`.
    fn reference(records: &[WhoisRecord], blacklist: &BlacklistSet) -> WhoisFacts {
        let mut analytics = RegistrationAnalytics::new();
        analytics.extend(records.iter());
        let mut facts = WhoisFacts {
            records: analytics.total(),
            top_registrants: analytics
                .top_registrants(TOP_REGISTRANTS)
                .into_iter()
                .map(|(email, _)| Registrant {
                    domains: analytics.domains_of(&email).to_vec(),
                    email,
                })
                .collect(),
            opportunistic_mass: analytics.opportunistic_mass(OPPORTUNISTIC_PORTFOLIO as usize),
            top_registrars: analytics.top_registrars(TOP_REGISTRARS),
            distinct_registrars: analytics.distinct_registrars(),
            ..WhoisFacts::default()
        };
        for record in records {
            let tld = record.domain.rsplit('.').next().unwrap_or_default();
            *facts.by_tld.entry(tld.to_string()).or_default() += 1;
            if let Some(date) = record.creation_date {
                facts.created.record(date.year);
                if blacklist.is_malicious(&record.domain) {
                    facts.created_malicious.record(date.year);
                }
            }
        }
        let timeline: Vec<(i32, u64)> = facts.created.iter().collect();
        assert_eq!(timeline, analytics.creation_timeline());
        facts
    }

    /// Folds `records` (record `i` at IDN index `i`) in `chunk`-record
    /// tallies merged in order, as the traversal merges its shards.
    fn fold(records: &[WhoisRecord], blacklist: &BlacklistSet, chunk: usize) -> WhoisFacts {
        let mut tally = WhoisTally::default();
        for (c, records) in records.chunks(chunk).enumerate() {
            let mut partial = WhoisTally::default();
            for (k, record) in records.iter().enumerate() {
                partial.add((c * chunk + k) as u64, record.clone(), blacklist);
            }
            tally.merge(partial);
        }
        tally.finish(|i| records[i as usize].domain.clone())
    }

    fn record(domain: &str, registrar: &str, email: Option<&str>, year: i32) -> WhoisRecord {
        let mut r = WhoisRecord::new(domain, WhoisDialect::KeyValue);
        r.registrar = Some(registrar.to_string());
        r.registrant_email = email.map(str::to_string);
        r.creation_date = Date::new(year, 6, 1).ok();
        r
    }

    /// Equal counts rank by key: two registrants (and registrars) tied
    /// on count across chunk borders come out in ascending order, a
    /// portfolio split across chunks keeps corpus order, and only a
    /// portfolio of [`OPPORTUNISTIC_PORTFOLIO`] domains counts as
    /// opportunistic. Any split folds to the sequential analytics' facts.
    #[test]
    fn ties_rank_by_key_and_portfolios_keep_corpus_order() {
        let mut records = vec![
            record("z1.com", "Zeta", Some("b@x.cn"), 2001),
            record("a1.com", "Alpha", Some("a@x.cn"), 2002),
            record("z2.net", "Zeta", Some("b@x.cn"), 2003),
            record("a2.com", "Alpha", Some("a@x.cn"), 2004),
            record("c1.org", "Mid", None, 2005),
        ];
        // A portfolio of exactly the opportunistic size, and one just below.
        for i in 0..OPPORTUNISTIC_PORTFOLIO {
            let domain = format!("b{i}.com");
            records.insert(
                i as usize,
                record(&domain, "Bulk", Some("bulk@qq.com"), 2017),
            );
            if i + 1 < OPPORTUNISTIC_PORTFOLIO {
                let domain = format!("c{i}.com");
                records.push(record(&domain, "Bulk", Some("near@qq.com"), 2017));
            }
        }
        let mut blacklist = BlacklistSet::new();
        blacklist.insert(idnre_blacklist::Source::ALL[0], "Z2.NET");
        let expected = reference(&records, &blacklist);
        assert_eq!(
            expected.created_malicious.iter().collect::<Vec<_>>(),
            [(2003, 1)]
        );
        let emails: Vec<&str> = expected
            .top_registrants
            .iter()
            .map(|r| r.email.as_str())
            .collect();
        assert_eq!(emails, ["bulk@qq.com", "near@qq.com", "a@x.cn", "b@x.cn"]);
        assert_eq!(expected.top_registrants[3].domains, ["z1.com", "z2.net"]);
        assert_eq!(expected.opportunistic_mass, OPPORTUNISTIC_PORTFOLIO);
        assert_eq!(expected.top_registrars[1], ("Alpha".to_string(), 2));
        assert_eq!(expected.records_in("com"), 22);
        for chunk in 1..=records.len() {
            assert_eq!(fold(&records, &blacklist, chunk), expected, "chunk {chunk}");
        }
        assert_eq!(fold(&[], &blacklist, 1), WhoisFacts::default());
    }
}
