//! Multinomial naive-Bayes classifier over character n-grams with
//! script priors.

use crate::{corpus, Language};
use idnre_unicode::{dominant_script, Script};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Concrete languages: the width of one [`Classifier`] table row.
const LANGS: usize = Language::ALL.len();

/// A trained language classifier.
///
/// The model is cheap to train (the seed corpus is small); [`Classifier::global`]
/// provides a process-wide instance trained once on first use.
///
/// Every language's n-gram log-probabilities live in one flat table with
/// a row per distinct gram of the seed corpus and a column per language
/// ([`Language::id`] order). A language that never saw a gram holds its
/// add-one unseen mass in that cell, and a final row holds every
/// language's unseen mass for grams no language saw. Scoring a label
/// therefore costs one [`GramIndex`] probe per gram, whatever the number
/// of candidate languages.
///
/// N-grams are keyed by their [packed](pack_gram) `u64` form rather than a
/// `String`: a 1–3 char gram fits three 21-bit codepoint slots (each stored
/// as `cp + 1` so zero means "no char"), which is bijective with the gram
/// text — probabilities are identical to the string-keyed model, but lookups
/// hash 8 bytes and classification allocates no gram strings.
#[derive(Debug)]
pub struct Classifier {
    /// Packed gram → row of `log_probs`.
    grams: GramIndex,
    /// Row-major `[row][language]` log-probabilities; the last row is the
    /// per-language unseen mass.
    log_probs: Vec<f64>,
}

/// A scored prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The winning language.
    pub language: Language,
    /// Normalized posterior over the candidate set, in `(0, 1]`.
    pub confidence: f64,
}

impl Classifier {
    /// Trains a classifier from the embedded seed corpus.
    pub fn train() -> Self {
        let models: Vec<(HashMap<u64, f64>, f64)> =
            Language::ALL.into_iter().map(train_language).collect();
        let mut grams: Vec<u64> = models
            .iter()
            .flat_map(|(log_probs, _)| log_probs.keys().copied())
            .collect();
        grams.sort_unstable();
        grams.dedup();
        let mut log_probs = Vec::with_capacity((grams.len() + 1) * LANGS);
        for gram in &grams {
            log_probs.extend(
                models
                    .iter()
                    .map(|(probs, unseen)| probs.get(gram).copied().unwrap_or(*unseen)),
            );
        }
        log_probs.extend(models.iter().map(|&(_, unseen)| unseen));
        Classifier {
            grams: GramIndex::new(&grams),
            log_probs,
        }
    }

    /// The process-wide classifier, trained on first use.
    pub fn global() -> &'static Classifier {
        static GLOBAL: OnceLock<Classifier> = OnceLock::new();
        GLOBAL.get_or_init(Classifier::train)
    }

    /// Classifies `text` (typically the Unicode form of an IDN label).
    ///
    /// # Examples
    ///
    /// ```
    /// use idnre_langid::{Classifier, Language};
    /// assert_eq!(Classifier::global().classify("彩票"), Language::Chinese);
    /// ```
    pub fn classify(&self, text: &str) -> Language {
        self.classify_detailed(text).language
    }

    /// Classifies `text`, returning the winner and its normalized posterior.
    pub fn classify_detailed(&self, text: &str) -> Prediction {
        let cleaned = clean(text);
        let candidates = candidates_for(&cleaned);
        if candidates.len() <= 1 {
            return Prediction {
                language: candidates.first().copied().unwrap_or(Language::Unknown),
                confidence: 1.0,
            };
        }
        let columns: Vec<usize> = candidates
            .iter()
            .map(|lang| usize::from(lang.id()))
            .collect();
        let mut sums = vec![0.0f64; candidates.len()];
        // Each candidate's terms are summed in gram order, exactly as a
        // per-language fold over the grams would sum them.
        for gram in ngrams(&cleaned) {
            let row = self.row(gram);
            for (sum, &column) in sums.iter_mut().zip(&columns) {
                *sum += row[column];
            }
        }
        softmax_winner(candidates.iter().copied().zip(sums).collect())
    }

    /// `gram`'s table row: its log-probability under every language.
    fn row(&self, gram: u64) -> &[f64] {
        let unseen = self.log_probs.len() / LANGS - 1;
        let row = self.grams.row(gram).unwrap_or(unseen);
        &self.log_probs[row * LANGS..(row + 1) * LANGS]
    }
}

/// One language's add-one-smoothed n-gram log-probabilities over its seed
/// vocabulary, and the log-probability it assigns an unseen gram.
fn train_language(lang: Language) -> (HashMap<u64, f64>, f64) {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut total: u64 = 0;
    for word in corpus::vocabulary(lang) {
        for gram in ngrams(word) {
            *counts.entry(gram).or_insert(0) += 1;
            total += 1;
        }
    }
    let vocab_size = counts.len().max(1) as f64;
    let denom = total as f64 + vocab_size + 1.0;
    let log_probs = counts
        .into_iter()
        .map(|(gram, c)| (gram, ((c + 1) as f64 / denom).ln()))
        .collect();
    (log_probs, (1.0 / denom).ln())
}

/// The best-scoring candidate and its softmax-normalized posterior. Ties
/// keep candidate order.
fn softmax_winner(mut scores: Vec<(Language, f64)>) -> Prediction {
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite log-likelihoods"));
    let max = scores[0].1;
    let z: f64 = scores.iter().map(|&(_, s)| (s - max).exp()).sum();
    Prediction {
        language: scores[0].0,
        confidence: 1.0 / z * (scores[0].1 - max).exp().max(f64::MIN_POSITIVE),
    }
}

/// An open-addressing `packed gram → row` index with linear probing.
/// Packed grams are never zero, so zero marks an empty slot. The home
/// slot is the top bits of a Fibonacci multiply, which depend on every
/// bit of the key.
#[derive(Debug)]
struct GramIndex {
    /// `(packed gram, row)` per slot; a power-of-two count.
    slots: Vec<(u64, usize)>,
    /// `64 - log2(slots.len())`.
    shift: u32,
}

impl GramIndex {
    /// Indexes `grams[i] → i`, at most half full.
    fn new(grams: &[u64]) -> Self {
        let len = (grams.len() * 2).next_power_of_two().max(2);
        let mut index = GramIndex {
            slots: vec![(0, 0); len],
            shift: 64 - len.trailing_zeros(),
        };
        for (row, &gram) in grams.iter().enumerate() {
            let mut slot = index.home(gram);
            while index.slots[slot].0 != 0 {
                slot = (slot + 1) & (len - 1);
            }
            index.slots[slot] = (gram, row);
        }
        index
    }

    fn home(&self, gram: u64) -> usize {
        (gram.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The row of `gram`, if any language saw it.
    fn row(&self, gram: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(gram);
        loop {
            match self.slots[slot] {
                (0, _) => return None,
                (key, row) if key == gram => return Some(row),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Byte classes for the ASCII fast path of [`clean`], indexed by byte value.
/// `0` = keep (lowercase unchanged), `1` = drop, `2` = keep after
/// `to_ascii_lowercase`. Bytes ≥ 0x80 never consult the table.
const CLEAN_CLASS: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0usize;
    while b < 128 {
        table[b] = match b as u8 {
            b'0'..=b'9' | b'-' | b'.' | b'_' | b' ' => 1,
            b'A'..=b'Z' => 2,
            _ => 0,
        };
        b += 1;
    }
    table
};

/// Strips digits, punctuation and whitespace; lowercases.
fn clean(text: &str) -> String {
    if text.is_ascii() {
        // Byte-table fast path: ASCII lowercasing is 1:1, so the generic
        // `char::to_lowercase` expansion can't differ here.
        return text
            .bytes()
            .filter(|&b| CLEAN_CLASS[b as usize] != 1)
            .map(|b| {
                if CLEAN_CLASS[b as usize] == 2 {
                    b.to_ascii_lowercase()
                } else {
                    b
                }
            })
            .map(char::from)
            .collect();
    }
    text.chars()
        .filter(|c| !c.is_ascii_digit() && !matches!(c, '-' | '.' | '_' | ' '))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Packs a 1–3 char n-gram into a `u64`: three 21-bit slots holding
/// `codepoint + 1` (0 = empty slot). Unicode scalar values fit 21 bits, and
/// `+ 1` keeps a leading NUL distinct from an absent char, so the packing is
/// injective over all grams up to length 3.
fn pack_gram(gram: &[char]) -> u64 {
    let mut packed = 0u64;
    for &c in gram {
        packed = (packed << 21) | (c as u64 + 1);
    }
    packed
}

/// Character uni-, bi- and tri-grams with boundary markers, in packed
/// form: every unigram, then every bigram, then every trigram.
fn ngrams(word: &str) -> Vec<u64> {
    let chars: Vec<char> = std::iter::once('^')
        .chain(word.chars())
        .chain(std::iter::once('$'))
        .collect();
    let mut grams = Vec::with_capacity(3 * chars.len());
    for n in 1..=3 {
        grams.extend(chars.windows(n).map(pack_gram));
    }
    grams
}

/// Script prior: restricts the candidate languages by dominant script.
/// Empty text has no dominant script and no candidates.
fn candidates_for(cleaned: &str) -> &'static [Language] {
    match dominant_script(cleaned) {
        Script::Hiragana | Script::Katakana => &[Language::Japanese],
        Script::Hangul => &[Language::Korean],
        Script::Thai => &[Language::Thai],
        Script::Han => &[Language::Chinese, Language::Japanese],
        Script::Arabic => &[Language::Arabic, Language::Persian],
        Script::Cyrillic => &[Language::Russian],
        Script::Greek => &[Language::Greek],
        Script::Hebrew => &[Language::Hebrew],
        Script::Latin => &[
            Language::German,
            Language::Turkish,
            Language::Swedish,
            Language::Spanish,
            Language::French,
            Language::Finnish,
            Language::Hungarian,
            Language::Danish,
            Language::Vietnamese,
            Language::English,
        ],
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn clf() -> &'static Classifier {
        Classifier::global()
    }

    /// The per-language-map scorer the flat table replaced, kept as its
    /// oracle: one `HashMap` of log-probabilities per language, probed
    /// once per (gram, candidate language).
    struct MapClassifier {
        models: HashMap<Language, (HashMap<u64, f64>, f64)>,
    }

    impl MapClassifier {
        fn global() -> &'static MapClassifier {
            static GLOBAL: OnceLock<MapClassifier> = OnceLock::new();
            GLOBAL.get_or_init(|| MapClassifier {
                models: Language::ALL
                    .into_iter()
                    .map(|lang| (lang, train_language(lang)))
                    .collect(),
            })
        }

        fn classify_detailed(&self, text: &str) -> Prediction {
            let cleaned = clean(text);
            if cleaned.is_empty() {
                return Prediction {
                    language: Language::Unknown,
                    confidence: 1.0,
                };
            }
            let candidates = candidates_for(&cleaned);
            if candidates.is_empty() {
                return Prediction {
                    language: Language::Unknown,
                    confidence: 1.0,
                };
            }
            if candidates.len() == 1 {
                return Prediction {
                    language: candidates[0],
                    confidence: 1.0,
                };
            }
            let grams = ngrams(&cleaned);
            let mut scores: Vec<(Language, f64)> = candidates
                .iter()
                .map(|&lang| {
                    let (log_probs, unseen) = &self.models[&lang];
                    let log_likelihood: f64 = grams
                        .iter()
                        .map(|g| log_probs.get(g).copied().unwrap_or(*unseen))
                        .sum();
                    (lang, log_likelihood)
                })
                .collect();
            scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite log-likelihoods"));
            let max = scores[0].1;
            let z: f64 = scores.iter().map(|&(_, s)| (s - max).exp()).sum();
            Prediction {
                language: scores[0].0,
                confidence: 1.0 / z * (scores[0].1 - max).exp().max(f64::MIN_POSITIVE),
            }
        }
    }

    /// The flat table predicts what the map scorer predicts: the same
    /// language and the same confidence, bit for bit.
    fn assert_matches_map_scorer(text: &str) {
        let flat = clf().classify_detailed(text);
        let map = MapClassifier::global().classify_detailed(text);
        assert_eq!(flat.language, map.language, "language of {text:?}");
        assert_eq!(
            flat.confidence.to_bits(),
            map.confidence.to_bits(),
            "confidence of {text:?}"
        );
    }

    fn run(chars: Vec<char>) -> String {
        chars.into_iter().collect()
    }

    proptest! {
        #[test]
        fn flat_table_matches_map_scorer_on_any_text(text in "\\PC{0,32}") {
            assert_matches_map_scorer(&text);
        }

        #[test]
        fn flat_table_matches_map_scorer_on_script_runs(
            han in proptest::collection::vec(proptest::char::range('\u{4E00}', '\u{9FFF}'), 1..12),
            latin in proptest::collection::vec(
                prop_oneof![
                    proptest::char::range('a', 'z'),
                    proptest::char::range('\u{00E0}', '\u{00FF}'),
                    proptest::char::range('\u{0100}', '\u{017F}'),
                ],
                1..16,
            ),
            arabic in proptest::collection::vec(proptest::char::range('\u{0621}', '\u{064A}'), 1..12),
            cyrillic in proptest::collection::vec(proptest::char::range('\u{0400}', '\u{04FF}'), 1..12),
        ) {
            for text in [run(han), run(latin), run(arabic), run(cyrillic)] {
                assert_matches_map_scorer(&text);
            }
        }
    }

    #[test]
    fn flat_table_matches_map_scorer_on_the_seed_vocabulary() {
        for lang in Language::ALL {
            for word in corpus::vocabulary(lang) {
                assert_matches_map_scorer(word);
            }
        }
    }

    #[test]
    fn script_bound_languages() {
        assert_eq!(clf().classify("ニュース"), Language::Japanese);
        assert_eq!(clf().classify("ひらがな"), Language::Japanese);
        assert_eq!(clf().classify("뉴스쇼핑"), Language::Korean);
        assert_eq!(clf().classify("ข่าวเกม"), Language::Thai);
        assert_eq!(clf().classify("новости"), Language::Russian);
    }

    #[test]
    fn han_disambiguation() {
        // Pure simplified-Chinese commerce terms → Chinese.
        assert_eq!(clf().classify("彩票"), Language::Chinese);
        assert_eq!(clf().classify("购物网站"), Language::Chinese);
        // Kanji + kana mix → Japanese (kana dominates the script vote when
        // present in equal measure; here kana wins via Han+kana mix).
        assert_eq!(clf().classify("日本のニュース"), Language::Japanese);
    }

    #[test]
    fn latin_languages() {
        assert_eq!(clf().classify("münchen"), Language::German);
        assert_eq!(clf().classify("alışveriş"), Language::Turkish);
        assert_eq!(clf().classify("göteborg"), Language::Swedish);
        assert_eq!(clf().classify("información"), Language::Spanish);
        assert_eq!(clf().classify("pâtisserie"), Language::French);
        assert_eq!(clf().classify("jääkiekko"), Language::Finnish);
        assert_eq!(clf().classify("időjárás"), Language::Hungarian);
        assert_eq!(clf().classify("smørrebrød"), Language::Danish);
    }

    #[test]
    fn arabic_vs_persian() {
        assert_eq!(clf().classify("أخبار"), Language::Arabic);
        assert_eq!(clf().classify("اخبار ایران"), Language::Persian);
    }

    #[test]
    fn digits_and_punctuation_ignored() {
        assert_eq!(clf().classify("58汽车"), Language::Chinese);
        assert_eq!(clf().classify("彩票-123"), Language::Chinese);
    }

    #[test]
    fn empty_and_unmodelled_are_unknown() {
        assert_eq!(clf().classify(""), Language::Unknown);
        assert_eq!(clf().classify("123-456"), Language::Unknown);
        // Devanagari is not in the model's language set.
        assert_eq!(clf().classify("समाचार"), Language::Unknown);
    }

    #[test]
    fn tail_languages() {
        assert_eq!(clf().classify("χαλκίδα νέα"), Language::Greek);
        assert_eq!(clf().classify("חדשות"), Language::Hebrew);
        assert_eq!(clf().classify("dulịch"), Language::Vietnamese);
        assert_eq!(clf().classify("kháchsạn"), Language::Vietnamese);
    }

    #[test]
    fn confidence_is_normalized() {
        let p = clf().classify_detailed("münchen");
        assert!(p.confidence > 0.0 && p.confidence <= 1.0);
        let single = clf().classify_detailed("뉴스");
        assert_eq!(single.confidence, 1.0);
    }

    #[test]
    fn clean_ascii_fast_path_matches_generic() {
        for text in [
            "",
            "abc",
            "ABC-123.def_GHI jkl",
            "x9y",
            "---",
            "Mixed Case 42",
        ] {
            let generic: String = text
                .chars()
                .filter(|c| !c.is_ascii_digit() && !matches!(c, '-' | '.' | '_' | ' '))
                .flat_map(char::to_lowercase)
                .collect();
            assert_eq!(clean(text), generic, "fast path diverged on {text:?}");
        }
    }

    #[test]
    fn packed_grams_are_injective() {
        // Distinct grams that would collide under naive concatenation.
        assert_ne!(pack_gram(&['a', 'b']), pack_gram(&['b', 'a']));
        assert_ne!(pack_gram(&['a']), pack_gram(&['a', '\0']));
        assert_ne!(pack_gram(&['^', 'a', '$']), pack_gram(&['a', '$']));
        // The '+1' offset keeps NUL distinct from absence.
        assert_ne!(pack_gram(&['\0', 'a']), pack_gram(&['a']));
    }

    #[test]
    fn seed_corpus_self_classification_accuracy() {
        // The paper reports 0.904–0.992 accuracy for langid.py. On our own
        // seed corpus (training data) accuracy should be near-perfect.
        let mut correct = 0u32;
        let mut total = 0u32;
        for lang in Language::ALL {
            for word in crate::corpus::vocabulary(lang) {
                total += 1;
                if clf().classify(word) == lang {
                    correct += 1;
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.9, "self-accuracy {accuracy} below 0.9");
    }
}
