//! Compatibility mapping — the UTS #46 pre-processing step browsers apply
//! before IDNA conversion.
//!
//! Users type (and attackers craft) domain names containing fullwidth
//! characters (`ｇｏｏｇｌｅ.com`), ideographic full stops (`例。com`) and
//! invisible default-ignorable characters (ZWJ/ZWNJ). Address bars map all
//! of these before Punycode conversion; a pipeline that skips the step
//! mis-counts IDNs and misses spoofs. This module implements the subset of
//! the UTS #46 mapping table that occurs in domain-name traffic:
//!
//! * label-separator variants → `.` (U+3002, U+FF0E, U+FF61)
//! * fullwidth/halfwidth forms → their compatibility equivalents
//! * default-ignorable code points (ZWSP/ZWJ/ZWNJ/word-joiner/BOM) → removed
//! * uppercase → lowercase (delegated to the conversion layer)

/// Maps one character per the UTS #46 subset; `None` removes the character.
fn map_char(c: char) -> Option<char> {
    match c {
        // Label separators.
        '\u{3002}' | '\u{FF0E}' | '\u{FF61}' => Some('.'),
        // Fullwidth ASCII block: letters, digits, hyphen, underscore.
        '\u{FF01}'..='\u{FF5E}' => Some((c as u32 - 0xFF01 + 0x21) as u8 as char),
        // Halfwidth Katakana are left as-is (real script usage), but the
        // halfwidth forms of symbols map down.
        '\u{FFE8}' => Some('|'),
        // Default-ignorables abused for invisible spoofing.
        '\u{200B}' | '\u{200C}' | '\u{200D}' | '\u{2060}' | '\u{FEFF}' | '\u{00AD}' => None,
        other => Some(other),
    }
}

/// Applies the compatibility mapping to a whole domain string.
///
/// # Examples
///
/// ```
/// use idnre_idna::map_compat;
///
/// // Fullwidth spoof of an ASCII brand maps straight back to ASCII.
/// assert_eq!(map_compat("ｇｏｏｇｌｅ.com"), "google.com");
/// // Ideographic full stop is a label separator.
/// assert_eq!(map_compat("例。com"), "例.com");
/// // Zero-width characters vanish.
/// assert_eq!(map_compat("goo\u{200B}gle.com"), "google.com");
/// ```
pub fn map_compat(domain: &str) -> String {
    // Every mapped/removed source character is ≥ U+00AD, so ASCII input is
    // always a fixed point — copy it in one shot.
    if domain.is_ascii() {
        return domain.to_string();
    }
    domain.chars().filter_map(map_char).collect()
}

/// Whether the string contains characters the mapping would change —
/// the cheap pre-test scanners use.
pub fn needs_mapping(domain: &str) -> bool {
    if domain.is_ascii() {
        return false;
    }
    domain.chars().any(|c| map_char(c) != Some(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fullwidth_block_maps_to_ascii() {
        assert_eq!(map_compat("ｇｏｏｇｌｅ"), "google");
        assert_eq!(map_compat("ＧＯＯＧＬＥ"), "GOOGLE");
        assert_eq!(map_compat("ｂｅｔ３６５"), "bet365");
        assert_eq!(map_compat("ａ－ｂ"), "a-b");
    }

    #[test]
    fn label_separator_variants() {
        assert_eq!(map_compat("例。com"), "例.com");
        assert_eq!(map_compat("例．com"), "例.com");
        assert_eq!(map_compat("例｡com"), "例.com");
    }

    #[test]
    fn invisibles_are_removed() {
        assert_eq!(map_compat("goo\u{200B}gle"), "google");
        assert_eq!(map_compat("goo\u{200D}gle"), "google");
        assert_eq!(map_compat("\u{FEFF}google"), "google");
        assert_eq!(map_compat("go\u{00AD}ogle"), "google"); // soft hyphen
    }

    #[test]
    fn ordinary_text_is_untouched() {
        for s in ["google.com", "中国", "аррӏе.com", "ニュース"] {
            assert_eq!(map_compat(s), s);
            assert!(!needs_mapping(s));
        }
    }

    #[test]
    fn needs_mapping_pretest() {
        assert!(needs_mapping("ｇoogle.com"));
        assert!(needs_mapping("例。com"));
        assert!(needs_mapping("a\u{200B}b"));
        assert!(!needs_mapping("plain.com"));
    }

    #[test]
    fn mapped_fullwidth_spoof_round_trips_through_idna() {
        // The full pipeline: map, then ToASCII — the fullwidth spoof is
        // revealed as the plain brand itself, not an IDN.
        let mapped = map_compat("ｇｏｏｇｌｅ.com");
        let ace = crate::to_ascii(&mapped).unwrap();
        assert_eq!(ace, "google.com");
        assert!(!crate::is_idn(&ace));
    }
}
