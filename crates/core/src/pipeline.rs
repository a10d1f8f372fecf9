//! Abuse analysis: folds detector findings, each joined to its WHOIS
//! record, and the blacklists into the per-brand tables of Sections VI-C
//! and VII-B (Tables XIII and XIV).

use crate::homograph::HomographFinding;
use crate::semantic::SemanticFinding;
use idnre_blacklist::BlacklistSet;
use idnre_whois::WhoisRecord;
use std::collections::HashMap;

/// One row of a Table XIII/XIV-style report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrandAbuseRow {
    /// The targeted brand domain.
    pub brand: String,
    /// Number of abusive IDNs targeting it.
    pub idns: u64,
    /// How many were registered by the brand owner (protective).
    pub protective: u64,
}

/// Aggregated abuse analysis over a finding set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbuseAnalysis {
    per_brand: HashMap<String, BrandAbuseRow>,
    total: u64,
    blacklisted: u64,
    protective: u64,
    personal_email: u64,
    with_whois: u64,
}

impl AbuseAnalysis {
    /// Analyzes homograph findings, each next to its domain's WHOIS record
    /// (`None` when the domain has none).
    pub fn from_homographs<'a>(
        findings: impl IntoIterator<Item = (&'a HomographFinding, Option<&'a WhoisRecord>)>,
        blacklist: &BlacklistSet,
    ) -> Self {
        Self::build(
            findings
                .into_iter()
                .map(|(f, whois)| (f.domain.as_str(), f.brand.as_str(), whois)),
            blacklist,
        )
    }

    /// Analyzes semantic findings, each next to its domain's WHOIS record
    /// (`None` when the domain has none).
    pub fn from_semantic<'a>(
        findings: impl IntoIterator<Item = (&'a SemanticFinding, Option<&'a WhoisRecord>)>,
        blacklist: &BlacklistSet,
    ) -> Self {
        Self::build(
            findings
                .into_iter()
                .map(|(f, whois)| (f.domain.as_str(), f.brand.as_str(), whois)),
            blacklist,
        )
    }

    fn build<'a, I>(findings: I, blacklist: &BlacklistSet) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str, Option<&'a WhoisRecord>)>,
    {
        let mut per_brand: HashMap<String, BrandAbuseRow> = HashMap::new();
        let (mut total, mut blacklisted, mut protective_total) = (0u64, 0u64, 0u64);
        let (mut personal, mut with_whois) = (0u64, 0u64);
        for (domain, brand, record) in findings {
            total += 1;
            if blacklist.is_malicious(domain) {
                blacklisted += 1;
            }
            let protective = record
                .map(|r| Self::is_protective(r, brand))
                .unwrap_or(false);
            if let Some(r) = record {
                with_whois += 1;
                if r.uses_personal_email() {
                    personal += 1;
                }
            }
            if protective {
                protective_total += 1;
            }
            let row = per_brand
                .entry(brand.to_string())
                .or_insert_with(|| BrandAbuseRow {
                    brand: brand.to_string(),
                    idns: 0,
                    protective: 0,
                });
            row.idns += 1;
            if protective {
                row.protective += 1;
            }
        }
        AbuseAnalysis {
            per_brand,
            total,
            blacklisted,
            protective: protective_total,
            personal_email: personal,
            with_whois,
        }
    }

    /// The paper's protective-registration test: the registrant email's
    /// domain is the brand domain (its own SLD).
    fn is_protective(record: &WhoisRecord, brand: &str) -> bool {
        let brand_sld = brand.split('.').next().unwrap_or(brand);
        record
            .registrant_email_domain()
            .map(|d| d.split('.').next().unwrap_or(d) == brand_sld)
            .unwrap_or(false)
    }

    /// Total findings.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Findings already on a blacklist.
    pub fn blacklisted(&self) -> u64 {
        self.blacklisted
    }

    /// Findings registered protectively by brand owners.
    pub fn protective(&self) -> u64 {
        self.protective
    }

    /// Findings whose WHOIS shows a personal (free-mail) registrant.
    pub fn personal_email(&self) -> u64 {
        self.personal_email
    }

    /// Findings with an obtainable WHOIS record.
    pub fn with_whois(&self) -> u64 {
        self.with_whois
    }

    /// Number of distinct targeted brands.
    pub fn targeted_brands(&self) -> usize {
        self.per_brand.len()
    }

    /// Top `k` brands by abusive-IDN count (Table XIII/XIV rows).
    pub fn top_brands(&self, k: usize) -> Vec<BrandAbuseRow> {
        let mut rows: Vec<BrandAbuseRow> = self.per_brand.values().cloned().collect();
        rows.sort_by(|a, b| b.idns.cmp(&a.idns).then_with(|| a.brand.cmp(&b.brand)));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_blacklist::Source;
    use idnre_whois::WhoisDialect;

    fn finding(domain: &str, brand: &str) -> HomographFinding {
        HomographFinding {
            domain: domain.to_string(),
            unicode: domain.to_string(),
            brand: brand.to_string(),
            ssim: 0.97,
        }
    }

    fn whois(domain: &str, email: Option<&str>) -> WhoisRecord {
        let mut r = WhoisRecord::new(domain, WhoisDialect::KeyValue);
        r.registrant_email = email.map(str::to_string);
        r
    }

    #[test]
    fn per_brand_rollup_and_protective_detection() {
        let findings = [
            finding("xn--a1.com", "google.com"),
            finding("xn--a2.com", "google.com"),
            finding("xn--b1.com", "apple.com"),
        ];
        let whois = [
            Some(whois("xn--a1.com", Some("legal@google.com"))),
            Some(whois("xn--a2.com", Some("bulk@qq.com"))),
            None,
        ];
        let mut blacklist = BlacklistSet::new();
        blacklist.insert(Source::VirusTotal, "xn--b1.com");

        let joined = findings.iter().zip(whois.iter().map(Option::as_ref));
        let analysis = AbuseAnalysis::from_homographs(joined, &blacklist);
        assert_eq!(analysis.total(), 3);
        assert_eq!(analysis.blacklisted(), 1);
        assert_eq!(analysis.protective(), 1);
        assert_eq!(analysis.personal_email(), 1);
        assert_eq!(analysis.with_whois(), 2);
        assert_eq!(analysis.targeted_brands(), 2);

        let top = analysis.top_brands(2);
        assert_eq!(top[0].brand, "google.com");
        assert_eq!(top[0].idns, 2);
        assert_eq!(top[0].protective, 1);
    }

    #[test]
    fn missing_whois_is_not_protective() {
        let findings = [finding("xn--x.com", "google.com")];
        let joined = findings.iter().map(|f| (f, None));
        let analysis = AbuseAnalysis::from_homographs(joined, &BlacklistSet::new());
        assert_eq!(analysis.protective(), 0);
        assert_eq!(analysis.with_whois(), 0);
    }

    #[test]
    fn works_for_semantic_findings() {
        use crate::semantic::{SemanticFinding, SemanticKind};
        let findings = [SemanticFinding {
            domain: "xn--58-hk2j.com".into(),
            unicode: "58汽车.com".into(),
            brand: "58.com".into(),
            kind: SemanticKind::Type1,
        }];
        let joined = findings.iter().map(|f| (f, None));
        let analysis = AbuseAnalysis::from_semantic(joined, &BlacklistSet::new());
        assert_eq!(analysis.total(), 1);
        assert_eq!(analysis.top_brands(1)[0].brand, "58.com");
    }
}
