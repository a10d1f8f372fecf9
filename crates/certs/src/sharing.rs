//! Shared-certificate analysis (Table VII): clustering the domains that
//! serve a certificate whose subject does not name them.

use crate::cert::Certificate;
use std::collections::HashMap;

/// Accumulates `(domain, certificate)` observations and reports the
/// common names most shared across mismatched domains. It keeps one count
/// per common name, not the domains, so partial analyses of disjoint
/// observation sets [merge](SharingAnalysis::merge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharingAnalysis {
    /// CN → domains serving it without being covered by it.
    shared_by_cn: HashMap<String, u64>,
    observed: u64,
}

impl SharingAnalysis {
    /// Creates an empty analysis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes that `domain` served `cert`. Only mismatched pairs (the
    /// sharing signature) are counted.
    pub fn observe(&mut self, domain: &str, cert: &Certificate) {
        self.observed += 1;
        if !cert.covers(domain) {
            *self
                .shared_by_cn
                .entry(display_cn(&cert.subject_cn))
                .or_default() += 1;
        }
    }

    /// Absorbs `other`'s observations, as if they had been observed here.
    pub fn merge(&mut self, other: SharingAnalysis) {
        self.observed += other.observed;
        for (cn, count) in other.shared_by_cn {
            *self.shared_by_cn.entry(cn).or_default() += count;
        }
    }

    /// Total observations.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of domains involved in sharing.
    pub fn shared_domain_count(&self) -> u64 {
        self.shared_by_cn.values().sum()
    }

    /// Top `k` shared common names by number of domains (Table VII).
    pub fn top_shared(&self, k: usize) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .shared_by_cn
            .iter()
            .map(|(cn, &count)| (cn.clone(), count))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// How many domains share a given CN.
    pub fn sharing_count(&self, cn: &str) -> u64 {
        self.shared_by_cn.get(&display_cn(cn)).copied().unwrap_or(0)
    }
}

/// Normalizes a CN for reporting: wildcards reduce to their base domain
/// (`*.cafe24.com` → `cafe24.com`), as Table VII presents them.
fn display_cn(cn: &str) -> String {
    cn.strip_prefix("*.").unwrap_or(cn).to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parked_cert() -> Certificate {
        Certificate::ca_issued("sedoparking.com", vec![], "DigiCert CA", 0, 99_999)
    }

    #[test]
    fn mismatches_are_clustered() {
        let mut analysis = SharingAnalysis::new();
        let cert = parked_cert();
        analysis.observe("xn--a.com", &cert);
        analysis.observe("xn--b.com", &cert);
        analysis.observe("sedoparking.com", &cert); // covered → not shared
        assert_eq!(analysis.observed(), 3);
        assert_eq!(analysis.shared_domain_count(), 2);
        assert_eq!(
            analysis.top_shared(1),
            vec![("sedoparking.com".to_string(), 2)]
        );
        assert_eq!(analysis.sharing_count("sedoparking.com"), 2);
    }

    #[test]
    fn wildcard_cn_reports_base_domain() {
        let mut analysis = SharingAnalysis::new();
        let cert = Certificate::ca_issued("*.cafe24.com", vec![], "Sectigo RSA DV", 0, 99_999);
        analysis.observe("xn--shop-abc.com", &cert);
        assert_eq!(analysis.top_shared(1)[0].0, "cafe24.com");
    }

    #[test]
    fn ranking_is_by_count_then_name() {
        let mut analysis = SharingAnalysis::new();
        let sedo = parked_cert();
        let cafe = Certificate::ca_issued("cafe24.com", vec![], "Sectigo RSA DV", 0, 99_999);
        for i in 0..3 {
            analysis.observe(&format!("xn--s{i}.com"), &sedo);
        }
        analysis.observe("xn--c1.com", &cafe);
        let top = analysis.top_shared(10);
        assert_eq!(top[0].0, "sedoparking.com");
        assert_eq!(top[1].0, "cafe24.com");
    }

    #[test]
    fn merged_halves_equal_one_pass() {
        let sedo = parked_cert();
        let cafe = Certificate::ca_issued("*.cafe24.com", vec![], "Sectigo RSA DV", 0, 99_999);
        let pairs = [
            ("xn--s1.com", &sedo),
            ("sedoparking.com", &sedo),
            ("xn--c1.com", &cafe),
            ("xn--s2.com", &sedo),
        ];
        let mut whole = SharingAnalysis::new();
        for (domain, cert) in pairs {
            whole.observe(domain, cert);
        }
        let (mut head, mut tail) = (SharingAnalysis::new(), SharingAnalysis::new());
        for (k, (domain, cert)) in pairs.into_iter().enumerate() {
            if k < 2 {
                head.observe(domain, cert)
            } else {
                tail.observe(domain, cert)
            }
        }
        head.merge(tail);
        assert_eq!(head, whole);
        assert_eq!(head.shared_domain_count(), 3);
    }
}
