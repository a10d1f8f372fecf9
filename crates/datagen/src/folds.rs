//! The corpus-wide aggregates of two artifacts, folded where the
//! artifact traversal emits them: Figures 2–4's passive-DNS activity
//! populations and Tables VI–VII's certificate tallies.
//!
//! Each shard of the traversal folds its own records into a partial, and
//! the partials merge in shard order, so a fold is byte-identical across
//! shard sizes and thread counts.

use idnre_certs::{CertProblem, Certificate, SharingAnalysis, Validator};
use idnre_pdns::{ActivityAnalytics, DomainAggregate};

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
