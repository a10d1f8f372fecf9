//! Property-based integration tests across crate boundaries.

use idn_reexamination::core::{HomographDetector, SemanticDetector};
use idn_reexamination::idna::to_ascii;
use idn_reexamination::render::ssim_strings;
use idn_reexamination::unicode::{homoglyphs_of, skeleton};
use proptest::prelude::*;

/// Strategy over brand-like ASCII SLDs.
fn brand_sld() -> impl Strategy<Value = String> {
    "[a-z]{3,10}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single homoglyph substitution keeps the skeleton equal to the
    /// original brand — the invariant the detector's pre-filter rests on.
    #[test]
    fn substitution_preserves_skeleton(sld in brand_sld(), pos_seed: usize, glyph_seed: usize) {
        let chars: Vec<char> = sld.chars().collect();
        let pos = pos_seed % chars.len();
        let glyphs = homoglyphs_of(chars[pos]);
        prop_assume!(!glyphs.is_empty());
        let glyph = glyphs[glyph_seed % glyphs.len()];
        let mut spoofed = chars.clone();
        spoofed[pos] = glyph.ch;
        let spoof: String = spoofed.iter().collect();
        prop_assert_eq!(skeleton(&spoof), sld);
    }

    /// SSIM of a one-glyph spoof never exceeds the self-similarity of 1.0
    /// and identical-class substitutions always reach exactly 1.0.
    #[test]
    fn ssim_bounds_hold(sld in brand_sld(), pos_seed: usize) {
        let chars: Vec<char> = sld.chars().collect();
        let pos = pos_seed % chars.len();
        let glyphs = homoglyphs_of(chars[pos]);
        prop_assume!(!glyphs.is_empty());
        for glyph in glyphs {
            let mut spoofed = chars.clone();
            spoofed[pos] = glyph.ch;
            let spoof: String = spoofed.iter().collect();
            let score = ssim_strings(&spoof, &sld);
            prop_assert!(score <= 1.0 + 1e-12);
            if glyph.fidelity == idn_reexamination::unicode::Fidelity::Identical {
                prop_assert_eq!(score, 1.0, "{} vs {}", spoof, sld);
            } else {
                prop_assert!(score < 1.0, "{} vs {} scored 1.0", spoof, sld);
            }
        }
    }

    /// The homograph detector finds every identical-class spoof of a brand
    /// it knows, and never flags the brand itself.
    #[test]
    fn detector_finds_identical_spoofs(sld in brand_sld()) {
        let brand = format!("{sld}.com");
        let detector = HomographDetector::new([brand.as_str()], 0.95);
        prop_assert!(detector.detect(&brand).is_none());
        // Build an identical-class spoof if the word allows one.
        let chars: Vec<char> = sld.chars().collect();
        let mut spoofed = chars.clone();
        let mut changed = false;
        for (i, &c) in chars.iter().enumerate() {
            if let Some(glyph) = homoglyphs_of(c)
                .iter()
                .find(|g| g.fidelity == idn_reexamination::unicode::Fidelity::Identical)
            {
                spoofed[i] = glyph.ch;
                changed = true;
                break;
            }
        }
        prop_assume!(changed);
        let spoof: String = spoofed.iter().collect::<String>() + ".com";
        let finding = detector.detect(&spoof);
        prop_assert!(finding.is_some(), "{} missed", spoof);
        prop_assert_eq!(finding.unwrap().brand, brand);
    }

    /// Appending any CJK keyword to a known brand is always caught by the
    /// Type-1 semantic detector, in both Unicode and ACE forms.
    #[test]
    fn semantic_detector_is_complete_for_suffixed_brands(
        sld in brand_sld(),
        keyword_idx in 0usize..8,
    ) {
        const KEYWORDS: [&str; 8] =
            ["登录", "邮箱", "激活", "彩票", "商城", "客服", "娱乐", "下载"];
        let brand = format!("{sld}.com");
        let detector = SemanticDetector::new([brand.as_str()]);
        let spoof = format!("{sld}{}.com", KEYWORDS[keyword_idx]);
        let unicode_hit = detector.detect_type1(&spoof);
        prop_assert!(unicode_hit.is_some(), "{} missed (unicode)", spoof);
        let ace = to_ascii(&spoof).expect("valid spoof");
        let ace_hit = detector.detect_type1(&ace);
        prop_assert!(ace_hit.is_some(), "{} missed (ace)", ace);
        prop_assert_eq!(ace_hit.unwrap().brand, brand);
    }

    /// Zone-file serialization of arbitrary NS records round-trips.
    #[test]
    fn zone_records_round_trip(slds in proptest::collection::vec(brand_sld(), 1..20)) {
        use idn_reexamination::zonefile::{parse_zone, write_zone, RData, ResourceRecord, Zone};
        let mut zone = Zone::new("com".parse().unwrap());
        for (i, sld) in slds.iter().enumerate() {
            zone.records.push(ResourceRecord {
                owner: format!("{sld}{i}.com").parse().unwrap(),
                ttl: 3600 + i as u32,
                rdata: RData::Ns(format!("ns{i}.{sld}.net").parse().unwrap()),
            });
        }
        let text = write_zone(&zone);
        let reparsed = parse_zone("com", &text).unwrap();
        prop_assert_eq!(zone.records, reparsed.records);
    }
}
