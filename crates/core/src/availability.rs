//! Availability enumeration (Section VI-D, Figure 7): how many homographic
//! IDNs *could* an attacker still register?

use idnre_render::TextBitmap;
use idnre_unicode::homoglyphs_of;

/// Why a candidate's SSIM always exists: it is the brand's bitmap with
/// cells redrawn, so the two have equal cell counts.
const SAME_CELLS: &str = "a substitution keeps the brand's cell count";

/// One generated lookalike candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Unicode form of the candidate SLD, e.g. `gооgle`.
    pub unicode_sld: String,
    /// ACE form of the full domain.
    pub ace: String,
    /// The targeted brand domain.
    pub brand: String,
    /// SSIM index against the brand.
    pub ssim: f64,
}

/// Per-brand availability summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// The brand domain.
    pub brand: String,
    /// Candidates generated (one-character substitutions).
    pub generated: usize,
    /// Candidates clearing the SSIM threshold.
    pub homographic: usize,
}

/// The Section VI-D enumerator: one-character homoglyph substitution over a
/// brand list, SSIM-filtered.
#[derive(Debug, Clone)]
pub struct AvailabilityEnumerator {
    threshold: f64,
}

impl Default for AvailabilityEnumerator {
    fn default() -> Self {
        AvailabilityEnumerator { threshold: 0.95 }
    }
}

impl AvailabilityEnumerator {
    /// Creates an enumerator with the paper's 0.95 threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an enumerator with a custom SSIM threshold (ablation use).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[-1, 1]`.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!((-1.0..=1.0).contains(&threshold), "threshold out of range");
        AvailabilityEnumerator { threshold }
    }

    /// The SSIM score a candidate must reach to count as homographic.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Generates every one-character substitution of `brand`'s SLD from the
    /// homoglyph table ("to reduce the computation overhead, only one
    /// character was replaced at a time").
    ///
    /// The brand is rasterized once; each candidate is that bitmap with the
    /// substituted cell redrawn, so the two always have equal cell counts.
    pub fn generate(&self, brand: &str) -> Vec<Candidate> {
        let sld = brand.split('.').next().unwrap_or(brand);
        let tld = brand.split('.').nth(1).unwrap_or("com");
        let brand_bitmap = TextBitmap::new(sld);
        let chars: Vec<char> = sld.chars().collect();
        let mut out = Vec::new();
        for (pos, &c) in chars.iter().enumerate() {
            for glyph in homoglyphs_of(c) {
                let mut spoofed = chars.clone();
                spoofed[pos] = glyph.ch;
                let unicode_sld: String = spoofed.iter().collect();
                let unicode = format!("{unicode_sld}.{tld}");
                let Ok(ace) = idnre_idna::to_ascii(&unicode) else {
                    continue;
                };
                let mut bitmap = brand_bitmap.clone();
                bitmap.set_char(pos, glyph.ch);
                out.push(Candidate {
                    unicode_sld,
                    ace,
                    brand: brand.to_string(),
                    ssim: brand_bitmap.ssim(&bitmap).expect(SAME_CELLS),
                });
            }
        }
        out
    }

    /// Generates *two-character* substitutions — the next rung above the
    /// paper's one-character lower bound ("the number of IDNs we found so
    /// far is just the lower-bound, as only one letter was replaced").
    /// The pair space explodes combinatorially, so `cap` bounds the output
    /// (pairs are enumerated in deterministic position/glyph order).
    pub fn generate_pairs(&self, brand: &str, cap: usize) -> Vec<Candidate> {
        let sld = brand.split('.').next().unwrap_or(brand);
        let tld = brand.split('.').nth(1).unwrap_or("com");
        let brand_bitmap = TextBitmap::new(sld);
        let chars: Vec<char> = sld.chars().collect();
        let mut out = Vec::new();
        'outer: for i in 0..chars.len() {
            for j in (i + 1)..chars.len() {
                for glyph_i in homoglyphs_of(chars[i]) {
                    for glyph_j in homoglyphs_of(chars[j]) {
                        if out.len() >= cap {
                            break 'outer;
                        }
                        let mut spoofed = chars.clone();
                        spoofed[i] = glyph_i.ch;
                        spoofed[j] = glyph_j.ch;
                        let unicode_sld: String = spoofed.iter().collect();
                        let unicode = format!("{unicode_sld}.{tld}");
                        let Ok(ace) = idnre_idna::to_ascii(&unicode) else {
                            continue;
                        };
                        let mut bitmap = brand_bitmap.clone();
                        bitmap.set_char(i, glyph_i.ch);
                        bitmap.set_char(j, glyph_j.ch);
                        out.push(Candidate {
                            unicode_sld,
                            ace,
                            brand: brand.to_string(),
                            ssim: brand_bitmap.ssim(&bitmap).expect(SAME_CELLS),
                        });
                    }
                }
            }
        }
        out
    }

    /// Candidates of `brand` clearing the threshold.
    pub fn homographic(&self, brand: &str) -> Vec<Candidate> {
        self.generate(brand)
            .into_iter()
            .filter(|c| c.ssim >= self.threshold)
            .collect()
    }

    /// Figure 7's per-brand series over a brand list.
    pub fn survey<'a, I>(&self, brands: I) -> Vec<AvailabilityReport>
    where
        I: IntoIterator<Item = &'a str>,
    {
        brands
            .into_iter()
            .map(|brand| {
                let generated = self.generate(brand);
                let homographic = generated
                    .iter()
                    .filter(|c| c.ssim >= self.threshold)
                    .count();
                AvailabilityReport {
                    brand: brand.to_string(),
                    generated: generated.len(),
                    homographic,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_single_substitutions() {
        let e = AvailabilityEnumerator::new();
        let candidates = e.generate("go.com");
        // Every candidate differs from "go" in exactly one position.
        for c in &candidates {
            let diff = c
                .unicode_sld
                .chars()
                .zip("go".chars())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diff, 1, "{}", c.unicode_sld);
            assert!(c.ace.starts_with("xn--"), "{}", c.ace);
        }
        assert!(candidates.len() > 20, "count {}", candidates.len());
    }

    #[test]
    fn identical_glyphs_always_pass() {
        let e = AvailabilityEnumerator::new();
        let hits = e.homographic("go.com");
        // The Cyrillic о substitution is pixel-identical.
        assert!(hits.iter().any(|c| c.unicode_sld == "gо" && c.ssim == 1.0));
    }

    #[test]
    fn threshold_prunes_low_fidelity() {
        let strict = AvailabilityEnumerator::with_threshold(0.999);
        let loose = AvailabilityEnumerator::with_threshold(0.5);
        let brand = "google.com";
        assert!(strict.homographic(brand).len() < loose.homographic(brand).len());
    }

    #[test]
    fn longer_brands_pass_more_easily() {
        // A diacritic on a long word changes a smaller image fraction, so
        // the pass rate grows with brand length — the paper's Figure 7
        // shows exactly this per-brand variance.
        let e = AvailabilityEnumerator::new();
        let short = e.survey(["go.com"]);
        let long = e.survey(["instagram.com"]);
        let rate = |r: &AvailabilityReport| r.homographic as f64 / r.generated.max(1) as f64;
        assert!(rate(&long[0]) > rate(&short[0]));
    }

    #[test]
    fn pair_generation_differs_in_two_positions() {
        let e = AvailabilityEnumerator::new();
        let pairs = e.generate_pairs("go.com", 100);
        assert!(!pairs.is_empty());
        for c in &pairs {
            let diff = c
                .unicode_sld
                .chars()
                .zip("go".chars())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diff, 2, "{}", c.unicode_sld);
        }
    }

    #[test]
    fn pair_space_exceeds_single_space() {
        let e = AvailabilityEnumerator::new();
        let singles = e.generate("apple.com").len();
        let pairs = e.generate_pairs("apple.com", 10_000).len();
        assert!(pairs > singles, "pairs {pairs} vs singles {singles}");
    }

    #[test]
    fn pair_cap_is_respected() {
        let e = AvailabilityEnumerator::new();
        assert!(e.generate_pairs("google.com", 25).len() <= 25);
    }

    #[test]
    fn survey_counts_are_consistent() {
        let e = AvailabilityEnumerator::new();
        let reports = e.survey(["google.com", "apple.com"]);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.homographic <= r.generated);
            assert!(r.generated > 0);
        }
    }
}
