//! Script classification by code-point range.
//!
//! The ranges below cover every script that occurs in the paper's IDN corpus
//! (east-Asian scripts dominate; see Table II) plus the scripts involved in
//! the homograph attacks of Section VI. Characters outside all listed ranges
//! classify as [`Script::Unknown`]; this is deliberate — the measurement
//! pipeline treats them as noise rather than guessing.

use std::fmt;

/// A writing system, at the granularity browser IDN policies reason about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Script {
    /// ASCII and extended Latin letters.
    Latin,
    /// Cyrillic (Russian, Bulgarian, Serbian, …).
    Cyrillic,
    /// Greek and Coptic.
    Greek,
    /// Armenian.
    Armenian,
    /// Hebrew.
    Hebrew,
    /// Arabic (incl. Persian extensions).
    Arabic,
    /// Devanagari (Hindi, Marathi, …).
    Devanagari,
    /// Thai.
    Thai,
    /// Hangul (Korean), all blocks: Jamo, syllables, compatibility Jamo.
    Hangul,
    /// Hiragana (Japanese).
    Hiragana,
    /// Katakana (Japanese).
    Katakana,
    /// Han ideographs (Chinese Hanzi / Japanese Kanji / Korean Hanja).
    Han,
    /// Georgian.
    Georgian,
    /// Mongolian.
    Mongolian,
    /// Cherokee (its syllabary contains many Latin lookalikes).
    Cherokee,
    /// ASCII digits, hyphen, and other script-neutral characters.
    Common,
    /// Anything not covered above.
    Unknown,
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Script::Latin => "Latin",
            Script::Cyrillic => "Cyrillic",
            Script::Greek => "Greek",
            Script::Armenian => "Armenian",
            Script::Hebrew => "Hebrew",
            Script::Arabic => "Arabic",
            Script::Devanagari => "Devanagari",
            Script::Thai => "Thai",
            Script::Hangul => "Hangul",
            Script::Hiragana => "Hiragana",
            Script::Katakana => "Katakana",
            Script::Han => "Han",
            Script::Georgian => "Georgian",
            Script::Mongolian => "Mongolian",
            Script::Cherokee => "Cherokee",
            Script::Common => "Common",
            Script::Unknown => "Unknown",
        };
        f.write_str(name)
    }
}

/// Classifies a single character into its [`Script`].
///
/// # Examples
///
/// ```
/// use idnre_unicode::{script_of, Script};
/// assert_eq!(script_of('中'), Script::Han);
/// assert_eq!(script_of('7'), Script::Common);
/// assert_eq!(script_of('ñ'), Script::Latin);
/// ```
pub fn script_of(c: char) -> Script {
    let cp = c as u32;
    if cp < 0x100 {
        return LOW_SCRIPT[cp as usize];
    }
    script_of_slow(cp)
}

/// Precomputed script classes for code points below U+0100 — the hot range
/// (every punycoded label and most SLD bytes are ASCII). Built at compile
/// time from [`script_of_slow`] so it can never drift from the range match;
/// `low_table_matches_range_match` re-checks the same at test time.
const LOW_SCRIPT: [Script; 0x100] = {
    let mut table = [Script::Unknown; 0x100];
    let mut cp = 0u32;
    while cp < 0x100 {
        table[cp as usize] = script_of_slow(cp);
        cp += 1;
    }
    table
};

/// The full range match, shared by the byte table's builder and the
/// non-Latin-1 fallback path.
const fn script_of_slow(cp: u32) -> Script {
    match cp {
        // ASCII
        0x0030..=0x0039 | 0x002D | 0x005F => Script::Common,
        0x0041..=0x005A | 0x0061..=0x007A => Script::Latin,
        0x0000..=0x007F => Script::Common,
        // Latin-1 supplement letters, Latin Extended-A/B, additions, IPA
        0x00C0..=0x024F | 0x1E00..=0x1EFF | 0x0250..=0x02AF | 0x2C60..=0x2C7F | 0xA720..=0xA7FF => {
            Script::Latin
        }
        // Latin-1 punctuation/symbols (× and ÷ fall in the letter ranges
        // above and are treated as Latin; harmless for domain analysis)
        0x0080..=0x00BF => Script::Common,
        // Greek and Coptic + Greek Extended
        0x0370..=0x03FF | 0x1F00..=0x1FFF => Script::Greek,
        // Cyrillic + supplement + extended
        0x0400..=0x052F | 0x2DE0..=0x2DFF | 0xA640..=0xA69F | 0x1C80..=0x1C8F => Script::Cyrillic,
        // Armenian
        0x0530..=0x058F => Script::Armenian,
        // Hebrew
        0x0590..=0x05FF => Script::Hebrew,
        // Arabic + supplement + extended + presentation forms
        0x0600..=0x06FF | 0x0750..=0x077F | 0x08A0..=0x08FF | 0xFB50..=0xFDFF | 0xFE70..=0xFEFF => {
            Script::Arabic
        }
        // Devanagari
        0x0900..=0x097F | 0xA8E0..=0xA8FF => Script::Devanagari,
        // Thai
        0x0E00..=0x0E7F => Script::Thai,
        // Georgian
        0x10A0..=0x10FF | 0x2D00..=0x2D2F => Script::Georgian,
        // Hangul Jamo, syllables, compatibility
        0x1100..=0x11FF | 0x3130..=0x318F | 0xA960..=0xA97F | 0xAC00..=0xD7FF => Script::Hangul,
        // Mongolian
        0x1800..=0x18AF => Script::Mongolian,
        // Cherokee
        0x13A0..=0x13FF | 0xAB70..=0xABBF => Script::Cherokee,
        // Hiragana
        0x3040..=0x309F => Script::Hiragana,
        // Katakana + phonetic extensions + halfwidth
        0x30A0..=0x30FF | 0x31F0..=0x31FF | 0xFF66..=0xFF9F => Script::Katakana,
        // CJK unified ideographs, extension A, compatibility, ext B+
        0x4E00..=0x9FFF | 0x3400..=0x4DBF | 0xF900..=0xFAFF | 0x20000..=0x2A6DF => Script::Han,
        // CJK punctuation and fullwidth forms are script-neutral in practice
        0x3000..=0x303F | 0xFF00..=0xFF65 => Script::Common,
        // General punctuation, superscripts, currency, etc.
        0x2000..=0x206F | 0x20A0..=0x20CF | 0x2100..=0x214F => Script::Common,
        _ => Script::Unknown,
    }
}

/// A small set of scripts, used to summarize a whole label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptSet {
    scripts: Vec<Script>,
}

impl ScriptSet {
    /// Adds a script, keeping the set deduplicated and sorted.
    pub fn insert(&mut self, s: Script) {
        if let Err(pos) = self.scripts.binary_search(&s) {
            self.scripts.insert(pos, s);
        }
    }

    /// Whether the set contains `s`.
    pub fn contains(&self, s: Script) -> bool {
        self.scripts.binary_search(&s).is_ok()
    }

    /// Iterates over the scripts in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Script> + '_ {
        self.scripts.iter().copied()
    }

    /// Number of distinct scripts, *excluding* [`Script::Common`].
    pub fn distinct_non_common(&self) -> usize {
        self.scripts
            .iter()
            .filter(|s| !matches!(s, Script::Common))
            .count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.scripts.is_empty()
    }
}

/// Computes the set of scripts present in `text`.
///
/// # Examples
///
/// ```
/// use idnre_unicode::{script_set, Script};
/// let set = script_set("apple激活");
/// assert!(set.contains(Script::Latin));
/// assert!(set.contains(Script::Han));
/// ```
pub fn script_set(text: &str) -> ScriptSet {
    let mut set = ScriptSet::default();
    for c in text.chars() {
        set.insert(script_of(c));
    }
    set
}

/// Returns the single non-Common script of `text`, or `None` if the text
/// mixes scripts or contains only Common characters.
///
/// This is the core test of Firefox's IDN display algorithm ("if all
/// characters belong to a single character set, display Unicode").
///
/// # Examples
///
/// ```
/// use idnre_unicode::{unique_script, Script};
/// assert_eq!(unique_script("соsо"), None); // Cyrillic + Latin mix
/// assert_eq!(unique_script("ѕоѕо"), Some(Script::Cyrillic)); // pure Cyrillic
/// assert_eq!(unique_script("123"), None);
/// ```
pub fn unique_script(text: &str) -> Option<Script> {
    let mut found: Option<Script> = None;
    for c in text.chars() {
        match script_of(c) {
            Script::Common => continue,
            s => match found {
                None => found = Some(s),
                Some(prev) if prev == s => {}
                Some(_) => return None,
            },
        }
    }
    found
}

/// Returns the most frequent non-Common script of `text` (ties broken by
/// script order), or [`Script::Common`] for purely neutral text.
///
/// Used by the language identifier as a prior feature.
pub fn dominant_script(text: &str) -> Script {
    if text.is_ascii() {
        // ASCII characters are only ever Latin (letters) or Common, so the
        // counting pass reduces to "any letter at all?".
        return if text.bytes().any(|b| b.is_ascii_alphabetic()) {
            Script::Latin
        } else {
            Script::Common
        };
    }
    let mut counts: Vec<(Script, usize)> = Vec::new();
    for c in text.chars() {
        let s = script_of(c);
        if s == Script::Common {
            continue;
        }
        match counts.iter_mut().find(|(sc, _)| *sc == s) {
            Some((_, n)) => *n += 1,
            None => counts.push((s, 1)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(s, n)| (n, std::cmp::Reverse(s)))
        .map(|(s, _)| s)
        .unwrap_or(Script::Common)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_representative_characters() {
        let cases = [
            ('a', Script::Latin),
            ('Z', Script::Latin),
            ('é', Script::Latin),
            ('ơ', Script::Latin),
            ('ạ', Script::Latin),
            ('б', Script::Cyrillic),
            ('ӏ', Script::Cyrillic),
            ('ω', Script::Greek),
            ('ա', Script::Armenian),
            ('א', Script::Hebrew),
            ('ب', Script::Arabic),
            ('ह', Script::Devanagari),
            ('ท', Script::Thai),
            ('한', Script::Hangul),
            ('ㅎ', Script::Hangul),
            ('ひ', Script::Hiragana),
            ('カ', Script::Katakana),
            ('中', Script::Han),
            ('ქ', Script::Georgian),
            ('ᠮ', Script::Mongolian),
            ('Ꭰ', Script::Cherokee),
            ('5', Script::Common),
            ('-', Script::Common),
        ];
        for (c, expected) in cases {
            assert_eq!(script_of(c), expected, "{c:?}");
        }
    }

    #[test]
    fn low_table_matches_range_match() {
        for cp in 0u32..0x100 {
            let c = char::from_u32(cp).unwrap();
            assert_eq!(
                script_of(c),
                script_of_slow(cp),
                "byte table diverges at U+{cp:04X}"
            );
        }
    }

    #[test]
    fn script_set_mixing() {
        let set = script_set("faceboоk"); // Cyrillic о inside Latin
        assert_eq!(set.distinct_non_common(), 2);
        assert!(set.contains(Script::Latin));
        assert!(set.contains(Script::Cyrillic));
    }

    #[test]
    fn unique_script_on_attack_corpus() {
        // Whole-script Cyrillic spoof — passes a single-script policy.
        assert_eq!(unique_script("аррӏе"), Some(Script::Cyrillic));
        // Mixed-script spoof — fails it.
        assert_eq!(unique_script("fаcebook"), None);
        // Digits don't break single-script-ness.
        assert_eq!(unique_script("ѕоѕо123"), Some(Script::Cyrillic));
    }

    #[test]
    fn dominant_script_prefers_majority() {
        assert_eq!(dominant_script("apple激"), Script::Latin);
        assert_eq!(dominant_script("激活中心a"), Script::Han);
        assert_eq!(dominant_script("123-"), Script::Common);
    }

    #[test]
    fn script_set_insert_is_idempotent() {
        let mut set = ScriptSet::default();
        set.insert(Script::Latin);
        set.insert(Script::Latin);
        assert_eq!(set.iter().count(), 1);
    }
}
