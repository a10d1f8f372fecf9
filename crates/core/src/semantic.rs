//! Semantic-attack detection (Section VII): Type-1 (brand + foreign
//! keyword) and Type-2 (translated brand).

use idnre_telemetry::{NoopRecorder, Recorder};
use std::collections::HashMap;

/// Which semantic attack class a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticKind {
    /// Brand name compounded with non-English keywords (apple激活.com).
    Type1,
    /// Brand name translated into another language (格力.net for Gree).
    Type2,
}

/// A detected semantically abusive IDN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticFinding {
    /// The scanned domain (as given).
    pub domain: String,
    /// Unicode display form.
    pub unicode: String,
    /// The impersonated brand domain.
    pub brand: String,
    /// Attack class.
    pub kind: SemanticKind,
}

/// Detector for semantic IDN abuse.
///
/// Type-1 follows the paper exactly: strip the non-ASCII characters from the
/// label; if the remainder is *identical* to a brand SLD (the paper phrases
/// this as "SSIM index equals 1.0" on the rendered ASCII part — identical
/// strings render identically, so string equality is the same test), the
/// IDN is flagged.
///
/// Type-2 uses a translation dictionary mapping native-language brand names
/// to their English brand domains (the paper could not scale this mapping
/// and analyzed Type-2 manually; the dictionary covers its Table X cases
/// and the best-known brand translations).
#[derive(Debug, Clone)]
pub struct SemanticDetector {
    /// Brand SLD → brand domain.
    brands: HashMap<String, String>,
    /// Native translation → brand domain.
    translations: HashMap<String, String>,
}

/// The counters [`SemanticDetector::scan_type1_recorded`] reports, in
/// snapshot order. Parallel scans pre-register these before spawning
/// workers so snapshot order never depends on scheduling.
pub const SEMANTIC_COUNTERS: [&str; 3] = [
    "semantic.candidates",
    "semantic.findings",
    "semantic.skip.no_brand_match",
];

/// Table X's translations plus well-known brand translations.
const TRANSLATIONS: &[(&str, &str)] = &[
    ("格力空调", "gree.com.cn"),
    ("格力", "gree.com.cn"),
    ("北京交通大学", "bjtu.edu.cn"),
    ("奔驰汽车", "mercedes-benz.com"),
    ("奔驰", "mercedes-benz.com"),
    ("谷歌", "google.com"),
    ("苹果", "apple.com"),
    ("亚马逊", "amazon.com"),
    ("脸书", "facebook.com"),
    ("推特", "twitter.com"),
    ("微软", "microsoft.com"),
    ("百度", "baidu.com"),
    ("淘宝", "taobao.com"),
];

impl SemanticDetector {
    /// Builds a detector for `brands` (domains like `58.com`).
    pub fn new<I, S>(brands: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut map = HashMap::new();
        for brand in brands {
            let domain = brand.as_ref().to_ascii_lowercase();
            let sld = domain.split('.').next().unwrap_or(&domain).to_string();
            map.insert(sld, domain);
        }
        SemanticDetector {
            brands: map,
            translations: TRANSLATIONS
                .iter()
                .map(|&(native, brand)| (native.to_string(), brand.to_string()))
                .collect(),
        }
    }

    /// Number of brand targets.
    pub fn brand_count(&self) -> usize {
        self.brands.len()
    }

    /// Tests one domain for Type-1 abuse.
    pub fn detect_type1(&self, domain: &str) -> Option<SemanticFinding> {
        let unicode = idnre_idna::to_unicode(domain).ok()?;
        self.detect_type1_decoded(domain, &unicode)
    }

    /// [`SemanticDetector::detect_type1`] for a domain whose display form
    /// `unicode` (its `to_unicode`) is already at hand, such as a corpus
    /// record's; nothing is decoded.
    pub fn detect_type1_decoded(&self, domain: &str, unicode: &str) -> Option<SemanticFinding> {
        let sld = unicode.split('.').next()?;
        if sld.is_ascii() {
            return None; // no foreign keyword present
        }
        let ascii_part: String = sld.chars().filter(char::is_ascii).collect();
        if ascii_part.is_empty() {
            return None;
        }
        let brand = self.brands.get(&ascii_part)?;
        Some(SemanticFinding {
            domain: domain.to_string(),
            unicode: unicode.to_string(),
            brand: brand.clone(),
            kind: SemanticKind::Type1,
        })
    }

    /// Tests one domain for Type-2 abuse (translated brand name).
    pub fn detect_type2(&self, domain: &str) -> Option<SemanticFinding> {
        let unicode = idnre_idna::to_unicode(domain).ok()?;
        self.detect_type2_decoded(domain, &unicode)
    }

    /// [`SemanticDetector::detect_type2`] for a domain whose display form
    /// `unicode` is already at hand; nothing is decoded.
    pub fn detect_type2_decoded(&self, domain: &str, unicode: &str) -> Option<SemanticFinding> {
        let sld = unicode.split('.').next()?;
        let brand = self.translations.get(sld)?;
        Some(SemanticFinding {
            domain: domain.to_string(),
            unicode: unicode.to_string(),
            brand: brand.clone(),
            kind: SemanticKind::Type2,
        })
    }

    /// Tests both classes; Type-1 takes precedence.
    pub fn detect(&self, domain: &str) -> Option<SemanticFinding> {
        self.detect_type1(domain)
            .or_else(|| self.detect_type2(domain))
    }

    /// Scans a corpus for Type-1 findings.
    pub fn scan_type1<'a, I>(&self, domains: I) -> Vec<SemanticFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.scan_type1_recorded(domains, &NoopRecorder)
    }

    /// [`SemanticDetector::scan_type1`] with candidate/finding counters and
    /// a `semantic.scan_type1` span reported to `recorder`, on one thread.
    pub fn scan_type1_recorded<'a, I>(
        &self,
        domains: I,
        recorder: &dyn Recorder,
    ) -> Vec<SemanticFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.scan_type1_parallel(domains, 1, recorder)
    }

    /// [`SemanticDetector::scan_type1_recorded`] on `threads` workers
    /// pulling chunks from a shared work queue. Findings keep corpus
    /// order and counter totals are scheduling-independent, so the result
    /// is byte-identical for every thread count; [`SEMANTIC_COUNTERS`]
    /// are pre-registered to pin snapshot order.
    pub fn scan_type1_parallel<'a, I>(
        &self,
        domains: I,
        threads: usize,
        recorder: &dyn Recorder,
    ) -> Vec<SemanticFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut span = recorder.span("semantic.scan_type1");
        recorder.preregister(&SEMANTIC_COUNTERS);
        let domains: Vec<&str> = domains.into_iter().collect();
        let findings: Vec<SemanticFinding> = idnre_par::par_map(&domains, threads, |d| {
            recorder.incr("semantic.candidates");
            let finding = self.detect_type1(d);
            recorder.incr(match &finding {
                Some(_) => "semantic.findings",
                None => "semantic.skip.no_brand_match",
            });
            finding
        })
        .into_iter()
        .flatten()
        .collect();
        span.add_records(findings.len() as u64);
        findings
    }

    /// Scans a corpus for Type-2 (translated-brand) findings.
    pub fn scan_type2<'a, I>(&self, domains: I) -> Vec<SemanticFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        domains
            .into_iter()
            .filter_map(|d| self.detect_type2(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> SemanticDetector {
        SemanticDetector::new(["apple.com", "icloud.com", "58.com", "bet365.com", "qq.com"])
    }

    #[test]
    fn detects_paper_table_ix_cases() {
        let d = detector();
        for (spoof, brand) in [
            ("icloud登录.com", "icloud.com"),
            ("icloud登陆.com", "icloud.com"),
            ("apple邮箱.com", "apple.com"),
            ("apple激活.com", "apple.com"),
            ("58汽车.com", "58.com"),
        ] {
            let hit = d.detect_type1(spoof).unwrap_or_else(|| panic!("{spoof}"));
            assert_eq!(hit.brand, brand);
            assert_eq!(hit.kind, SemanticKind::Type1);
        }
    }

    #[test]
    fn detects_ace_form() {
        let d = detector();
        let ace = idnre_idna::to_ascii("bet365彩票.com").unwrap();
        let hit = d.detect_type1(&ace).unwrap();
        assert_eq!(hit.brand, "bet365.com");
        assert_eq!(hit.unicode, "bet365彩票.com");
    }

    #[test]
    fn requires_exact_ascii_match() {
        let d = detector();
        // "apples激活" strips to "apples" ≠ "apple" → no finding.
        assert!(d.detect_type1("apples激活.com").is_none());
        // Homoglyph substitution breaks the ASCII part — by design the
        // paper treats combined homoglyph+keyword as too conspicuous.
        assert!(d.detect_type1("аpple激活.com").is_none());
    }

    #[test]
    fn ignores_pure_ascii_and_pure_foreign() {
        let d = detector();
        assert!(d.detect_type1("apple.com").is_none());
        assert!(d.detect_type1("彩票.com").is_none());
    }

    #[test]
    fn detects_type2_translations() {
        let d = detector();
        for (spoof, brand) in [
            ("格力空调.net", "gree.com.cn"),
            ("北京交通大学.com", "bjtu.edu.cn"),
            ("奔驰汽车.com", "mercedes-benz.com"),
        ] {
            let hit = d.detect_type2(spoof).unwrap_or_else(|| panic!("{spoof}"));
            assert_eq!(hit.brand, brand);
            assert_eq!(hit.kind, SemanticKind::Type2);
        }
    }

    #[test]
    fn combined_detect_prefers_type1() {
        let d = detector();
        let hit = d.detect("apple激活.com").unwrap();
        assert_eq!(hit.kind, SemanticKind::Type1);
        let hit2 = d.detect("苹果.com").unwrap();
        assert_eq!(hit2.kind, SemanticKind::Type2);
    }

    #[test]
    fn scan_filters_corpus() {
        let d = detector();
        let corpus = ["apple激活.com", "example.com", "58汽车.com", "彩票.com"];
        let findings = d.scan_type1(corpus.iter().copied());
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn scan_type2_filters_corpus() {
        let d = detector();
        let corpus = ["谷歌.com", "example.com", "苹果.net", "彩票.com"];
        let findings = d.scan_type2(corpus.iter().copied());
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.kind == SemanticKind::Type2));
    }
}
