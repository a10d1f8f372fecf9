//! The SSIM-based homograph detector (Section VI-B).

use idnre_render::{render_text, ssim, GrayImage};
use idnre_telemetry::{NoopRecorder, Recorder};
use idnre_unicode::skeleton;
use std::collections::HashMap;

/// One pre-rendered brand target.
#[derive(Debug, Clone)]
struct BrandEntry {
    /// Full brand domain, e.g. `google.com`.
    domain: String,
    /// Pre-rendered image of the full domain (`google.com`), matching the
    /// paper's Table XII presentation.
    image: GrayImage,
}

/// A detected homographic IDN.
#[derive(Debug, Clone, PartialEq)]
pub struct HomographFinding {
    /// The scanned domain (as given, ACE or Unicode).
    pub domain: String,
    /// Its Unicode display form.
    pub unicode: String,
    /// The impersonated brand domain.
    pub brand: String,
    /// The maximum SSIM index (the paper assumes one brand per IDN and
    /// keeps only the maximum).
    pub ssim: f64,
}

/// SSIM-based visual lookalike detector with a precomputed confusable
/// index.
///
/// Brand images are rendered once at construction, and every brand is
/// filed under its *confusable skeleton* — the string with every
/// confusable folded back to the ASCII character it imitates
/// (ShamFinder-style canonical form). [`HomographDetector::detect`] then
/// folds the candidate the same way and does one O(1) hash probe: only
/// the brands in the matching bucket are rendered and SSIM-scored,
/// replacing the paper's 102-hour full cross-product with an index probe
/// plus a handful of scored verifications. Every homoglyph-substitution
/// lookalike has, by construction, the same skeleton as its target, so
/// the index is lossless for the attack class the threshold can catch;
/// [`HomographDetector::detect_exhaustive`] keeps the paper's exact
/// pairwise procedure as the oracle, and the equivalence proptest in
/// `tests/proptest_homograph.rs` holds the two paths to the same verdict
/// on generated attack corpora.
#[derive(Debug, Clone)]
pub struct HomographDetector {
    brands: Vec<BrandEntry>,
    by_skeleton: HashMap<String, Vec<usize>>,
    threshold: f64,
}

/// The counters [`HomographDetector::detect_recorded`] reports, in
/// snapshot order. Parallel scans pre-register these before spawning
/// workers so snapshot order never depends on scheduling.
pub const HOMOGRAPH_COUNTERS: [&str; 6] = [
    "homograph.candidates",
    "homograph.skip.invalid_idna",
    "homograph.skip.ascii_sld",
    "homograph.skip.no_skeleton_match",
    "homograph.skip.below_threshold",
    "homograph.findings",
];

/// Scores one candidate pair of rendered domains: `Some(ssim)` when the
/// renders are width-compatible and SSIM succeeds, `None` otherwise.
///
/// This is the single verification kernel shared by the brand detector
/// (both the indexed and exhaustive paths) and the zone-wide pair miner —
/// "visually confusable" means the same thing everywhere.
#[inline]
pub fn pair_score(a: &GrayImage, b: &GrayImage) -> Option<f64> {
    if a.width() != b.width() {
        return None;
    }
    ssim(a, b).ok()
}

impl HomographDetector {
    /// Builds a detector for `brands` (domains like `google.com`) with an
    /// SSIM `threshold` (the paper uses 0.95), indexing each brand under
    /// its confusable-folded skeleton.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[-1, 1]`.
    pub fn new<I, S>(brands: I, threshold: f64) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        assert!((-1.0..=1.0).contains(&threshold), "threshold out of range");
        let mut entries = Vec::new();
        let mut by_skeleton: HashMap<String, Vec<usize>> = HashMap::new();
        for brand in brands {
            let domain = brand.as_ref().to_ascii_lowercase();
            let image = render_text(&domain);
            by_skeleton
                .entry(skeleton(&domain))
                .or_default()
                .push(entries.len());
            entries.push(BrandEntry { domain, image });
        }
        HomographDetector {
            brands: entries,
            by_skeleton,
            threshold,
        }
    }

    /// The detection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of brand targets.
    pub fn brand_count(&self) -> usize {
        self.brands.len()
    }

    /// Tests one domain (ACE or Unicode form). Returns the best match at or
    /// above the threshold.
    pub fn detect(&self, domain: &str) -> Option<HomographFinding> {
        self.detect_recorded(domain, &NoopRecorder)
    }

    /// [`HomographDetector::detect`] with skip-reason and finding counters
    /// reported to `recorder` (`homograph.candidates`, `homograph.skip.*`,
    /// `homograph.findings`).
    pub fn detect_recorded(
        &self,
        domain: &str,
        recorder: &dyn Recorder,
    ) -> Option<HomographFinding> {
        recorder.incr("homograph.candidates");
        let Ok(unicode) = idnre_idna::to_unicode(domain) else {
            recorder.incr("homograph.skip.invalid_idna");
            return None;
        };
        let sld = unicode.split('.').next()?;
        if sld.is_ascii() {
            recorder.incr("homograph.skip.ascii_sld");
            return None; // not an IDN label — nothing to spoof with
        }
        let folded = skeleton(&unicode);
        let Some(candidates) = self.bucket(&folded) else {
            recorder.incr("homograph.skip.no_skeleton_match");
            return None;
        };
        let best = self.verify_bucket(domain, &unicode, candidates);
        if best.is_some() {
            recorder.incr("homograph.findings");
        } else {
            recorder.incr("homograph.skip.below_threshold");
        }
        best
    }

    /// Probes the confusable-skeleton index with an **already folded** key
    /// (the caller ran [`skeleton`] — or assembled the fold from
    /// precomputed per-label pieces). Returns the brand bucket on a hit.
    #[inline]
    pub fn bucket(&self, folded: &str) -> Option<&[usize]> {
        self.by_skeleton.get(folded).map(Vec::as_slice)
    }

    /// Renders `unicode` and SSIM-scores it against the brands in
    /// `bucket` (indices from [`HomographDetector::bucket`]), returning
    /// the best match at or above the threshold. Counter-free: this is
    /// the verification tail shared by [`HomographDetector::detect_recorded`]
    /// and the columned streaming pass.
    pub fn verify_bucket(
        &self,
        domain: &str,
        unicode: &str,
        bucket: &[usize],
    ) -> Option<HomographFinding> {
        let image = render_text(unicode);
        let mut best: Option<HomographFinding> = None;
        for &idx in bucket {
            let brand = &self.brands[idx];
            if brand.domain == unicode {
                continue; // the brand itself
            }
            // Widths are pre-checked by the shared kernel and all renders
            // share one height; a mismatch degrades to a skip, not a panic.
            let Some(score) = pair_score(&brand.image, &image) else {
                continue;
            };
            if score >= self.threshold && best.as_ref().map(|b| score > b.ssim).unwrap_or(true) {
                best = Some(HomographFinding {
                    domain: domain.to_string(),
                    unicode: unicode.to_string(),
                    brand: brand.domain.clone(),
                    ssim: score,
                });
            }
        }
        best
    }

    /// Exhaustive variant: compares against *every* brand of the same
    /// rendered width, skipping the skeleton pre-filter (the paper's exact
    /// procedure; used by the ablation bench).
    pub fn detect_exhaustive(&self, domain: &str) -> Option<HomographFinding> {
        let unicode = idnre_idna::to_unicode(domain).ok()?;
        let sld = unicode.split('.').next()?;
        if sld.is_ascii() {
            return None;
        }
        let image = render_text(&unicode);
        let mut best: Option<HomographFinding> = None;
        for brand in &self.brands {
            if brand.domain == unicode {
                continue;
            }
            let Some(score) = pair_score(&brand.image, &image) else {
                continue;
            };
            if score >= self.threshold && best.as_ref().map(|b| score > b.ssim).unwrap_or(true) {
                best = Some(HomographFinding {
                    domain: domain.to_string(),
                    unicode: unicode.clone(),
                    brand: brand.domain.clone(),
                    ssim: score,
                });
            }
        }
        best
    }

    /// Scans a corpus on `threads` workers pulling chunks from a shared
    /// work queue, returning all findings (corpus order not preserved;
    /// sorted by domain for determinism).
    pub fn scan<'a, I>(&self, domains: I, threads: usize) -> Vec<HomographFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.scan_recorded(domains, threads, &NoopRecorder)
    }

    /// [`HomographDetector::scan`] with per-probe counters and a
    /// `homograph.scan` span reported to `recorder`. Counters accumulate
    /// from all worker threads; [`HOMOGRAPH_COUNTERS`] are pre-registered
    /// so their snapshot order is scheduling-independent.
    pub fn scan_recorded<'a, I>(
        &self,
        domains: I,
        threads: usize,
        recorder: &dyn Recorder,
    ) -> Vec<HomographFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut span = recorder.span("homograph.scan");
        let domains: Vec<&str> = domains.into_iter().collect();
        recorder.preregister(&HOMOGRAPH_COUNTERS);
        let mut findings: Vec<HomographFinding> =
            idnre_par::par_map(&domains, threads, |d| self.detect_recorded(d, recorder))
                .into_iter()
                .flatten()
                .collect();
        findings.sort_by(|a, b| a.domain.cmp(&b.domain));
        span.add_records(findings.len() as u64);
        findings
    }

    /// The oracle scan: [`HomographDetector::detect_exhaustive`] over the
    /// corpus on the same work-queue executor, sorted like
    /// [`HomographDetector::scan`]. Exists for the ablation bench and the
    /// index-equivalence proptests; O(brands) per domain.
    pub fn scan_exhaustive<'a, I>(&self, domains: I, threads: usize) -> Vec<HomographFinding>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let domains: Vec<&str> = domains.into_iter().collect();
        let mut findings: Vec<HomographFinding> =
            idnre_par::par_map(&domains, threads, |d| self.detect_exhaustive(d))
                .into_iter()
                .flatten()
                .collect();
        findings.sort_by(|a, b| a.domain.cmp(&b.domain));
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> HomographDetector {
        HomographDetector::new(
            ["google.com", "apple.com", "facebook.com", "instagram.com"],
            0.95,
        )
    }

    #[test]
    fn detects_paper_table_xii_ladder() {
        let d = detector();
        // ≥ 0.95 → detected.
        for spoof in ["gооgle.com", "googlę.com", "goögle.com", "gõõgle.com"] {
            let hit = d.detect(spoof).unwrap_or_else(|| panic!("{spoof} missed"));
            assert_eq!(hit.brand, "google.com");
            assert!(hit.ssim >= 0.95);
        }
        // Below 0.95 → not homographic by the paper's bar.
        for weak in ["böögle.com", "gåøgle.com"] {
            assert!(d.detect(weak).is_none(), "{weak} should be below 0.95");
        }
    }

    #[test]
    fn detects_ace_input() {
        let d = detector();
        // The 2017 apple.com attack, in its zone-file (ACE) form.
        let hit = d.detect("xn--80ak6aa92e.com").unwrap();
        assert_eq!(hit.brand, "apple.com");
        assert_eq!(hit.ssim, 1.0);
        assert_eq!(hit.unicode, "аррӏе.com");
    }

    #[test]
    fn identical_spoof_scores_one() {
        let d = detector();
        let hit = d.detect("instаgram.com").unwrap(); // Cyrillic а
        assert_eq!(hit.ssim, 1.0);
    }

    #[test]
    fn ignores_ascii_and_unrelated() {
        let d = detector();
        assert!(d.detect("example.com").is_none());
        assert!(d.detect("彩票.com").is_none());
        assert!(d.detect("googles.com").is_none()); // ASCII, not an IDN
    }

    #[test]
    fn brand_itself_is_not_a_finding() {
        let d = detector();
        assert!(d.detect("google.com").is_none());
    }

    #[test]
    fn exhaustive_agrees_with_prefilter_on_attacks() {
        let d = detector();
        for spoof in ["gооgle.com", "fаcebook.com", "googlę.com"] {
            let fast = d.detect(spoof);
            let full = d.detect_exhaustive(spoof);
            assert_eq!(
                fast.as_ref().map(|f| (&f.brand, f.ssim >= 0.95)),
                full.as_ref().map(|f| (&f.brand, f.ssim >= 0.95)),
                "{spoof}"
            );
        }
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let d = detector();
        let corpus = [
            "gооgle.com",
            "example.com",
            "аррӏе.com",
            "fаcebook.com",
            "xn--0wwy37b.com",
        ];
        let parallel = d.scan(corpus.iter().copied(), 4);
        let mut serial: Vec<_> = corpus.iter().filter_map(|s| d.detect(s)).collect();
        serial.sort_by(|a, b| a.domain.cmp(&b.domain));
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 3);
    }

    #[test]
    #[should_panic(expected = "threshold out of range")]
    fn threshold_validated() {
        let _ = HomographDetector::new(["a.com"], 2.0);
    }
}
